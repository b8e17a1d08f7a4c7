"""Properties of the numeric route over a wide parameter box.

The box is wider than the draws of ``conftest.draw_params``: mu in
[0.1, 20], m in [0.2, 50], kappa in [1e-3, 100], eta and rho2 in
[1e-3, 1e3], SNR in [-10, 50] dB.  Each example either returns finite
values with the properties below or raises a typed ``FbsecError``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import fbsec
from fbsec import FBParams, SecrecyConfig

# the same examples on every run
WIDE_BOX = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


links = st.builds(
    FBParams,
    mu=log_uniform(0.1, 20.0),
    m=log_uniform(0.2, 50.0),
    kappa=log_uniform(1e-3, 100.0),
    eta=log_uniform(1e-3, 1e3),
    rho2=log_uniform(1e-3, 1e3),
    avg_snr=st.floats(-10.0, 50.0).map(lambda db: 10.0 ** (db / 10.0)),
)


def metrics_or_refusal(bob, eve, rate_rs, metrics=("asc", "sop", "sopl", "spsc")):
    try:
        return fbsec.numeric_metrics(bob, eve, SecrecyConfig(rate_rs), metrics=metrics)
    except fbsec.FbsecError:
        return None


@WIDE_BOX
@given(bob=links, eve=links, rate_rs=st.floats(0.0, 2.0), step_db=st.floats(1.0, 10.0))
def test_wide_box_properties(bob, eve, rate_rs, step_db):
    low = metrics_or_refusal(bob, eve, rate_rs)
    high = metrics_or_refusal(bob.with_snr(bob.avg_snr * 10.0 ** (step_db / 10.0)), eve, rate_rs)
    for result in (low, high):
        if result is None:
            continue
        values, errors = result
        assert all(math.isfinite(v) for v in values.values()), values
        assert values["sopl"] <= values["sop"] + errors["sop"] + errors["sopl"]
    if low is not None:
        # 1 - SPSC is SOP^L at theta = 1, the same contour problem
        at_theta_1 = metrics_or_refusal(bob, eve, 0.0, ("sopl",))
        if at_theta_1 is not None:
            assert low[0]["spsc"] == 1.0 - at_theta_1[0]["sopl"]
    if low is not None and high is not None:
        # a stronger main link cannot lower ASC or SPSC, beyond their achieved errors
        for k in ("asc", "spsc"):
            assert high[0][k] >= low[0][k] - (high[1][k] + low[1][k]), k
