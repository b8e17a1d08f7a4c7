"""Links and target rates at the edges of the float range: a typed refusal or a clean answer."""

import json
import warnings

import pytest

from fbsec import FBParams, SecrecyConfig, numeric_metrics
from fbsec.casetwo import closed_metrics
from fbsec.cli import main
from fbsec.errors import CaseMismatchError, ConvergenceError, DomainError, ParameterError

from conftest import EVE_REFERENCE

FIG1_BOB = "mu=3.5,m=2.5,kappa=1,eta=0.1,rho2=0.1,snr_db=20"
FIG1_EVE = "mu=1.5,m=1.5,kappa=1,eta=0.1,rho2=0.1,snr_db=5"
CASE2_BOB = "mu=4,m=2,kappa=1.5,eta=0.4,rho2=0.3,snr_db=12"
CASE2_EVE = "mu=2,m=1,kappa=0.7,eta=2,rho2=1.5,snr_db=3"
STIFF_BOB = "mu=1,m=1e6,kappa=1.5,eta=0.3,rho2=0.64,snr_db=20"


def run(capsys, *argv):
    """main(argv) with every warning an error: (exit code, stdout, stderr)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def spec(link: dict) -> str:
    return ",".join(f"{k}={v!r}" for k, v in link.items())


# (link without its SNR, why derive refuses it)
EDGE_LINKS = [
    (dict(mu=1e-300, m=1.0, kappa=0.0, eta=1.0, rho2=1.0), "float range"),  # mu^2 underflows in alpha2
    (dict(mu=1e-300, m=1e-301, kappa=0.0, eta=1.0, rho2=1.0), "float range"),
    (dict(mu=1e300, m=1.0, kappa=1.0, eta=1.0, rho2=1.0), "float range"),
    (dict(mu=1.0, m=1.0, kappa=1e300, eta=1.0, rho2=1.0), "float range"),
    (dict(mu=1.0, m=1.0, kappa=1.0, eta=1e200, rho2=1.0), "float range"),
]

# Links with m huge against mu, or exponents below 1e-9: each root sits an exact delta from its
# partner (none at kappa = 0), so the numeric route answers; the closed route refuses them as not
# Case 2, where mu/2 - m loses mu/2, an exponent is not an integer or no pole is left
LARGE_M_LINKS = [
    dict(mu=1e-150, m=1.0, kappa=1.0, eta=1.0, rho2=1.0),
    dict(mu=1.0, m=1e300, kappa=1.0, eta=1.0, rho2=1.0),
    dict(mu=3.0, m=1e16, kappa=1.5, eta=0.4, rho2=1.0),
    dict(mu=3.0, m=1e17, kappa=0.0, eta=0.4, rho2=1.0),
    dict(mu=3.0, m=1e16, kappa=0.0, eta=0.4, rho2=1.0),
    dict(mu=2.7, m=1e15, kappa=0.0, eta=0.4, rho2=1.0),
    dict(mu=2.7, m=1e12, kappa=0.0, eta=0.4, rho2=1.0),
    dict(mu=1e-12, m=1e-13, kappa=1.0, eta=1.0, rho2=1.0),
]


class TestEdgeLinks:
    @pytest.mark.parametrize("link,why", EDGE_LINKS)
    def test_both_routes_refuse(self, link, why):
        bob = FBParams(**link, avg_snr=10.0)
        for route in (closed_metrics, numeric_metrics):
            with pytest.raises(DomainError, match=why) as exc:
                route(bob, EVE_REFERENCE, SecrecyConfig(0.5))
            assert repr(bob) in str(exc.value)  # it names the link

    @pytest.mark.parametrize("link,why", EDGE_LINKS)
    def test_eval_exits_2_with_one_line(self, capsys, link, why):
        code, out, err = run(capsys, "eval", "--bob", spec(link) + ",snr_db=0.0", "--eve", "same")
        assert code == 2 and out == ""
        assert err.startswith("error: FBParams(") and why in err and err.count("\n") == 1

    @pytest.mark.parametrize("link", LARGE_M_LINKS)
    def test_large_m_answers_on_the_numeric_route(self, capsys, link):
        bob = FBParams(**link, avg_snr=10.0)
        with pytest.raises(CaseMismatchError):
            closed_metrics(bob, EVE_REFERENCE, SecrecyConfig(0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, errors = numeric_metrics(bob, EVE_REFERENCE, SecrecyConfig(0.5), metrics=("sop", "sopl", "spsc"))
        assert all(0.0 < values[k] < 1.0 and errors[k] < 1e-9 for k in values)
        assert values["sopl"] <= values["sop"]
        code, out, err = run(capsys, "eval", "--bob", spec(link) + ",snr_db=10.0", "--eve", FIG1_EVE,
                             "--rs", "0.5", "--metric", "sop")
        assert code == 0 and err == ""
        assert json.loads(out)["path"] == "numeric" and json.loads(out)["sop"] == values["sop"]

    def test_sweep_rows_past_a_links_own_float_range(self, capsys):
        # at m = 1e300 from 80 dB on, the link's own root offsets over its mean SNR fall below the
        # normal float range: eval refuses it by name, while a sweep asks the closed route once,
        # at its first row, and solves the rows on that row's link, where they are normal: its
        # 160 dB row is the m -> inf limit that m = 1e15 reaches on its own link
        link = "mu=1,m=1e300,kappa=1.5,eta=0.3,rho2=0.64"
        code, out, err = run(capsys, "eval", "--bob", f"{link},snr_db=160", "--eve", FIG1_EVE, "--rs", "0.5")
        assert code == 2 and out == "" and "below the normal float range" in err
        code, out, err = run(capsys, "sweep", "--bob", f"{link},snr_db=0", "--eve", FIG1_EVE, "--rs", "0.5",
                             "--axis", "snr_bob_db", "--start-db", "0", "--stop-db", "160", "--step-db", "160",
                             "--metrics", "sop", "--format", "json")
        assert code == 0 and err == ""
        ref = numeric_metrics(FBParams(1.0, 1e15, 1.5, 0.3, 0.64, 1e16), EVE_REFERENCE, SecrecyConfig(0.5),
                              metrics=("sop",))[0]["sop"]
        assert json.loads(out)[1]["sop"] == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("route", ["numeric", "closed"])
    def test_kappa_zero_makes_m_inert_exactly(self, capsys, route):
        # kappa = 0 puts each root on its partner exactly: m is in no factor and not in omega
        def bits(m):
            if route == "numeric":
                bob, eve = FBParams(3.0, m, 0.0, 0.4, 1.0, 10.0), EVE_REFERENCE
                values, errors = numeric_metrics(bob, eve, SecrecyConfig(0.5))
                return [(values[k].hex(), errors[k].hex()) for k in values]
            bob, eve = FBParams(4.0, m, 0.0, 0.4, 1.0, 10.0), FBParams(2, 1, 0.7, 2, 1.5, 10**0.3)
            return [v.hex() for v in closed_metrics(bob, eve, SecrecyConfig(0.5)).values()]

        assert bits(0.5) == bits(1.0) == bits(1e6) == bits(1e17)
        if route == "numeric":  # and so the CLI's value, whatever m it is given
            code, out, err = run(capsys, "eval", "--bob", "mu=3,m=1e17,kappa=0,eta=0.4,rho2=1,snr_db=10",
                                 "--eve", FIG1_EVE, "--rs", "0.5", "--metric", "sop")
            assert code == 0, err
            ref = numeric_metrics(FBParams(3.0, 1.0, 0.0, 0.4, 1.0, 10.0), EVE_REFERENCE, SecrecyConfig(0.5),
                                  metrics=("sop",))[0]["sop"]
            assert json.loads(out)["sop"] == ref


class TestLargeTargetRate:
    def test_rate_whose_exp_overflows_is_refused(self, capsys):
        with pytest.raises(ParameterError, match="rate_rs"):
            SecrecyConfig(710.0)
        code, out, err = run(capsys, "eval", "--bob", FIG1_BOB, "--eve", FIG1_EVE, "--rs", "710")
        assert code == 2 and out == ""
        assert err.startswith("parameter error: rate_rs:") and err.count("\n") == 1

    @pytest.mark.parametrize("rs", ["350", "400", "709.7"])
    @pytest.mark.parametrize("bob,eve", [(FIG1_BOB, FIG1_EVE), (STIFF_BOB, FIG1_EVE), (CASE2_BOB, CASE2_EVE)])
    def test_eval_sweep_and_validate(self, capsys, rs, bob, eve):
        sweep = ("--start-db", "10", "--stop-db", "12", "--step-db", "2")
        for cmd in (("eval",), ("sweep", *sweep), ("validate", "--mc-samples", "10000")):
            code, out, err = run(capsys, *cmd, "--bob", bob, "--eve", eve, "--rs", rs)
            if bob == CASE2_BOB and cmd[0] != "validate":  # the closed route answers
                assert code == 0 and err == ""
                continue
            # the numeric route's outage contour cannot hold theta = e^R_s
            assert code == 2 and out == ""
            assert err.startswith("parameter error: rate_rs:") and err.count("\n") == 1

    def test_outage_past_the_float_range_of_monte_carlo(self, capsys):
        # theta g_E overflows for most draws at R_s = 709.7; there the event holds
        code, out, err = run(capsys, "sweep", "--bob", CASE2_BOB, "--eve", CASE2_EVE, "--rs", "709.7",
                             "--start-db", "10", "--stop-db", "10", "--step-db", "1", "--format", "json",
                             "--metrics", "sop,sopl", "--mc-samples", "10000")
        assert code == 0 and err == ""
        (row,) = json.loads(out)
        assert row["sop"] == row["mc_mean_sop"] == 1.0 and row["sopl"] == row["mc_mean_sopl"] == 1.0

    def test_asc_alone_is_not_held_to_the_rate(self):
        values, _ = numeric_metrics(FBParams(3.5, 2.5, 1, 0.1, 0.1, 100), EVE_REFERENCE, SecrecyConfig(400.0),
                                    metrics=("asc",))
        assert values["asc"] > 0.0

    def test_eves_reach_is_refused_by_name(self):
        # small mu: the path reaches far, and Eve's transform at theta s would pass the float range
        bob, eve = FBParams(0.3, 2.5, 1, 0.1, 0.1, 100), FBParams(0.2, 1.5, 1, 0.1, 0.1, 10**0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="Eve's transform at theta s") as exc:
                numeric_metrics(bob, eve, SecrecyConfig(300.0), metrics=("sopl",))
        assert exc.value.row == 0


class TestLargeBobSnr:
    @pytest.mark.parametrize("snr_db", ["1550", "1580"])
    def test_asc_whose_saddle_curvature_overflows_is_refused(self, capsys, snr_db):
        # the ASC rule's nodes reach theta past 1e153, where theta^2 phi_E'' overflows
        bob = FIG1_BOB.replace("snr_db=20", f"snr_db={snr_db}")
        code, out, err = run(capsys, "eval", "--bob", bob, "--eve", FIG1_EVE, "--rs", "1", "--metric", "asc")
        assert code == 3 and out == ""
        assert err.startswith("numerical error: outage contour: phi''") and err.count("\n") == 1

    @pytest.mark.parametrize("bob, eve, extra, why", [
        # the ASC rule's Chernoff grid meets an underflowed squared distance to Bob's rates,
        # and its nodes' curvature then overflows
        (CASE2_BOB.replace("snr_db=12", "snr_db=1620"), CASE2_EVE, ("--rs", "1", "--metric", "asc"),
         "outage contour: phi''"),
        # and so does the path of an outage problem
        ("mu=2.7,m=1.8,kappa=3.2,eta=0.45,rho2=2.5,snr_db=1610",
         "mu=1.3,m=4.6,kappa=0.35,eta=2.2,rho2=0.6,snr_db=8", (), "outage contour: the terms on the path"),
    ], ids=["asc-chernoff-grid", "outage-path"])
    def test_transform_out_of_float_range_is_refused_without_warnings(self, capsys, bob, eve, extra, why):
        code, out, err = run(capsys, "eval", "--bob", bob, "--eve", eve, *extra)
        assert code == 3 and out == ""
        assert err.startswith(f"numerical error: {why}") and err.count("\n") == 1
        assert "warning:" not in err

    def test_asc_below_the_overflow_answers(self, capsys):
        bob = FIG1_BOB.replace("snr_db=20", "snr_db=1500")
        code, out, err = run(capsys, "eval", "--bob", bob, "--eve", FIG1_EVE, "--rs", "1", "--metric", "asc")
        assert code == 0 and err == ""
        assert json.loads(out)["asc"] > 340.0
