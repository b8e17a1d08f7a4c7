"""The benchmark's own checks must reject wrong values.

Run with ``python -m pytest perfbench``.
"""

import math

import pytest

import checks
import refmc
import workloads

GOOD_ROW = {"x_db": 10.0, "asc": 2.08, "sop": 0.1377, "sopl": 0.1128, "spsc": 0.9796}

SWEEP_CSV = """x_db,asc,sop,sopl,spsc
0,0.397209636058,0.851808060426,0.713928067588,0.563901293129
2,0.626054488867,0.720780492029,0.594951835321,0.69900819896
4,0.920172596763,0.560823664423,0.459908980396,0.814790227533
"""


def test_good_row_passes():
    assert checks.row_order(GOOD_ROW, "row") == []


def test_swapped_sop_and_sopl_is_rejected():
    row = dict(GOOD_ROW, sop=GOOD_ROW["sopl"], sopl=GOOD_ROW["sop"])
    assert any("sopl" in p for p in checks.row_order(row, "row"))


@pytest.mark.parametrize("key,value", [
    ("asc", -1e-3), ("sop", 1.001), ("spsc", 0.5), ("sopl", math.nan), ("asc", math.inf),
])
def test_out_of_order_or_non_finite_values_are_rejected(key, value):
    assert checks.row_order(dict(GOOD_ROW, **{key: value}), "row")


def test_sweep_parse_and_monotone():
    rows = checks.parse_sweep(SWEEP_CSV)
    assert [r["x_db"] for r in rows] == [0.0, 2.0, 4.0]
    assert checks.sweep_monotone(rows, "sweep") == []
    rows[1]["asc"] = 0.3        # capacity falls as lambda rises
    assert checks.sweep_monotone(rows, "sweep")
    rows = checks.parse_sweep(SWEEP_CSV)
    rows[2]["sop"] = 0.8        # outage rises as lambda rises
    assert checks.sweep_monotone(rows, "sweep")


def test_sweep_with_other_columns_is_unreadable():
    with pytest.raises(ValueError):
        checks.parse_sweep(SWEEP_CSV.replace("spsc", "mc_mean_asc"))


def test_closed_vs_numeric_rule():
    closed = {k: GOOD_ROW[k] for k in checks.METRICS}
    assert checks.closed_vs_numeric(closed, dict(closed), "pair") == []
    # below the 1e-2 scale the rule is absolute: 5e-9 on a 1e-6 value passes
    tiny = dict(closed, sop=1e-6)
    assert checks.closed_vs_numeric(tiny, dict(tiny, sop=1e-6 + 5e-9), "pair") == []
    assert checks.closed_vs_numeric(closed, dict(closed, asc=closed["asc"] * (1 + 1e-5)), "pair")


def _two_rayleigh(snr_b_db, snr_e_db):
    # kappa = 0, mu = 1, eta = 1: the SNR is exponential with the given mean
    link = dict(mu=1.0, m=1.0, kappa=0.0, eta=1.0, rho2=1.0)
    return dict(link, snr_db=snr_b_db), dict(link, snr_db=snr_e_db)


def test_reference_sampler_matches_two_rayleigh_links():
    bob, eve = _two_rayleigh(10.0, 3.0)
    gb, ge = 10.0, 10 ** 0.3
    est = refmc.secrecy_estimates(bob, eve, rs=0.0, n=200_000, seed=5)
    spsc = gb / (gb + ge)       # P(g_B > g_E) for independent exponentials
    assert abs(est["spsc"].mean - spsc) <= 4 * math.sqrt(spsc * (1 - spsc) / est["spsc"].n)
    assert est["sopl"].mean == pytest.approx(1 - est["spsc"].mean, abs=1e-12)


def test_against_mc_rejects_a_wrong_value():
    bob, eve = _two_rayleigh(10.0, 3.0)
    gb, ge = 10.0, 10 ** 0.3
    est = refmc.secrecy_estimates(bob, eve, rs=0.0, n=200_000, seed=6)
    right = {"asc": est["asc"].mean, "sop": ge / (gb + ge), "sopl": ge / (gb + ge),
             "spsc": gb / (gb + ge)}
    assert checks.against_mc(right, est, "pair") == []
    wrong = dict(right, sop=right["spsc"], spsc=right["sop"])
    assert checks.against_mc(wrong, est, "pair")


def test_same_seed_same_inputs():
    for name in workloads.BUILDERS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build("closed-eval", 7) != workloads.build("closed-eval", 8)


def test_closed_eval_rounds_hold_every_structure_pair_once():
    rounds = workloads.build("closed-eval", 3)
    assert len(rounds) == workloads.CLOSED_ROUNDS
    for ops in rounds:
        assert sum(op.known_fault for op in ops) == 1
        combos = {((op.bob["mu"], op.bob["m"]), (op.eve["mu"], op.eve["m"]))
                  for op in ops if not op.known_fault}
        assert len(combos) == len(ops) - 1 == len(workloads.STRUCTURES) ** 2


def test_closed_eval_draw_box():
    drawn = [op for ops in workloads.build("closed-eval", 3) for op in ops if not op.known_fault]
    for op in drawn:
        assert workloads.is_case2(op.bob) and workloads.is_case2(op.eve)
        assert op.bob["mu"] <= 6 and op.bob["m"] <= 8 and op.eve["mu"] <= 6 and op.eve["m"] <= 8
        assert 5.0 <= op.bob["snr_db"] <= 35.0 and 0.0 <= op.eve["snr_db"] <= 15.0
        lo, hi = workloads.CLOSED_LAMBDA_DB
        assert lo <= op.bob["snr_db"] - op.eve["snr_db"] <= hi
        assert op.rs in (0.5, 1.0, 2.0)
