"""Command-line interface: flags, outputs, exit codes."""

import csv
import io
import json
import math

import pytest

from fbsec.cli import main

BOB = "mu=2,m=1,kappa=0,eta=1,rho2=1,snr_db=0"
CASE2_BOB = "mu=4,m=2,kappa=1.5,eta=0.4,rho2=0.3,snr_db=12"
CASE2_EVE = "mu=2,m=1,kappa=0.7,eta=2,rho2=1.5,snr_db=3"
FIG1_BOB = "mu=3.5,m=2.5,kappa=1,eta=0.5,rho2=0.1,snr_db=20"
FIG1_EVE = "mu=1.5,m=1.5,kappa=1,eta=0.1,rho2=0.1,snr_db=5"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_identical_links_sop(self, capsys):
        code, out, _ = run(capsys, "eval", "--bob", BOB, "--eve", "same", "--rs", "0",
                           "--metric", "sop")
        assert code == 0
        rec = json.loads(out)
        assert rec["sop"] == pytest.approx(0.5, abs=1e-6)
        assert rec["path"] == "case2"

    def test_all_metrics_case2(self, capsys):
        code, out, _ = run(capsys, "eval", "--bob", CASE2_BOB, "--eve", CASE2_EVE,
                           "--rs", "1", "--metric", "all")
        assert code == 0
        rec = json.loads(out)
        assert rec["path"] == "case2"
        assert set(("asc", "sop", "sopl", "spsc")) <= set(rec)
        assert rec["sopl"] <= rec["sop"]

    def test_numeric_path_reported(self, capsys):
        code, out, _ = run(capsys, "eval", "--bob", FIG1_BOB, "--eve", FIG1_EVE,
                           "--metric", "asc")
        assert code == 0
        rec = json.loads(out)
        assert rec["path"] == "numeric"
        assert "quad_rel_tol" in rec["error_estimates"]

    def test_numeric_path_reports_achieved_error(self, capsys):
        code, out, _ = run(capsys, "eval", "--bob", FIG1_BOB, "--eve", FIG1_EVE, "--rs", "1")
        assert code == 0
        rec = json.loads(out)
        est = rec["error_estimates"]
        assert set(est["achieved"]) == {"asc", "sop", "sopl", "spsc"}
        for k, err in est["achieved"].items():
            assert 0.0 <= err <= max(1e-12, est["quad_rel_tol"] * abs(rec[k]))

    def test_noise_limited_result_is_marked(self, capsys):
        # Eve's contour sums carry ~1e-6 noise; the outage metrics no longer
        # integrate her density, so they meet the bar and nothing is printed
        bob = "mu=1,m=1e6,kappa=0,eta=1,rho2=1,snr_db=10"
        eve = "mu=6,m=36,kappa=79.07358766145289,eta=98.10216046964295,rho2=0.38404651891648744,snr_db=10"
        code, out, err = run(capsys, "eval", "--bob", bob, "--eve", eve, "--rs", "1")
        assert code == 0
        assert err == ""
        rec = json.loads(out)
        assert rec["path"] == "numeric"
        assert rec["error_estimates"]["achieved"]["sop"] <= 1e-6 * rec["sop"]

    @pytest.mark.filterwarnings("default::fbsec.errors.AccuracyWarning")
    def test_accuracy_warning_is_printed(self, capsys, monkeypatch):
        import warnings

        from fbsec.errors import AccuracyWarning

        def noisy(bob, eve, cfg, ctrl, metrics):
            warnings.warn("limited by contour-sum noise: asc = 1.0 (error 1e-3)", AccuracyWarning)
            return {k: 0.5 for k in metrics}, {k: 1e-3 for k in metrics}

        monkeypatch.setattr("fbsec.cli.inversion.numeric_metrics", noisy)
        code, _, err = run(capsys, "eval", "--bob", FIG1_BOB, "--eve", FIG1_EVE, "--metric", "asc")
        assert code == 0
        assert err.startswith("warning: limited by contour-sum noise: asc =")

    def test_units_bits(self, capsys):
        _, out_n, _ = run(capsys, "eval", "--bob", CASE2_BOB, "--eve", CASE2_EVE,
                          "--metric", "asc")
        _, out_b, _ = run(capsys, "eval", "--bob", CASE2_BOB, "--eve", CASE2_EVE,
                          "--metric", "asc", "--units", "bits")
        nats = json.loads(out_n)["asc"]
        bits = json.loads(out_b)["asc"]
        assert bits == pytest.approx(nats / math.log(2), rel=1e-12)

    def test_bad_link_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--bob", "mu=2,bogus=1", "--eve", "same")
        assert code == 2
        assert "bogus" in err

    def test_out_of_range_value_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--bob", "mu=0,m=1,kappa=0,eta=1,rho2=1,snr_db=0",
                           "--eve", "same")
        assert code == 2
        assert "mu" in err

    def test_unknown_metric_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--bob", BOB, "--eve", "same", "--metric", "wat")
        assert code == 2


class TestSweep:
    def sweep_rows(self, capsys, *extra):
        code, out, err = run(
            capsys, "sweep", "--bob", FIG1_BOB, "--eve", FIG1_EVE, "--rs", "1",
            "--axis", "lambda_db", "--start-db", "0", "--stop-db", "20", "--step-db", "10",
            *extra,
        )
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        return rows

    def test_columns_and_ordering(self, capsys):
        rows = self.sweep_rows(capsys, "--metrics", "sop,sopl")
        assert list(rows[0].keys()) == ["x_db", "sop", "sopl"]
        xs = [float(r["x_db"]) for r in rows]
        assert xs == sorted(xs) and len(xs) == 3
        for r in rows:
            assert float(r["sopl"]) <= float(r["sop"]) + 1e-12

    def test_outage_monotone_in_lambda(self, capsys):
        rows = self.sweep_rows(capsys, "--metrics", "sop,sopl")
        sops = [float(r["sop"]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(sops, sops[1:]))

    def test_asc_monotone_in_lambda(self, capsys):
        rows = self.sweep_rows(capsys, "--metrics", "asc")
        vals = [float(r["asc"]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_deterministic_output(self, capsys):
        a = self.sweep_rows(capsys, "--metrics", "asc,sop")
        b = self.sweep_rows(capsys, "--metrics", "asc,sop")
        assert a == b

    def test_mc_columns_present_when_requested(self, capsys):
        rows = self.sweep_rows(capsys, "--metrics", "sopl", "--mc-samples", "50000")
        assert list(rows[0].keys()) == ["x_db", "sopl", "mc_mean_sopl", "mc_se_sopl"]
        for r in rows:
            delta = abs(float(r["sopl"]) - float(r["mc_mean_sopl"]))
            assert delta < 5 * float(r["mc_se_sopl"]) + 1e-9

    def test_snr_bob_axis(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--bob", CASE2_BOB, "--eve", CASE2_EVE,
            "--axis", "snr_bob_db", "--start-db", "5", "--stop-db", "15", "--step-db", "5",
            "--metrics", "asc",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["x_db"]) for r in rows] == [5.0, 10.0, 15.0]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--bob", CASE2_BOB, "--eve", CASE2_EVE,
            "--start-db", "0", "--stop-db", "10", "--step-db", "5",
            "--metrics", "spsc", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3 and "spsc" in rows[0]

    def test_bad_step_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--bob", BOB, "--eve", "same",
                         "--start-db", "0", "--stop-db", "10", "--step-db", "-1")
        assert code == 2


class TestValidate:
    def test_case2_pair_passes(self, capsys):
        code, out, err = run(capsys, "validate", "--bob", CASE2_BOB, "--eve", CASE2_EVE,
                             "--rs", "1", "--mc-samples", "400000", "--seed", "5")
        assert code == 0, err
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["path_closed"] == "case2"
        kinds = {c["pair"] for c in rep["comparisons"]}
        assert kinds == {"case2-vs-numeric", "case2-vs-mc", "numeric-vs-mc"}

    def test_case1_reports_na(self, capsys):
        code, out, err = run(capsys, "validate", "--bob", FIG1_BOB, "--eve", FIG1_EVE,
                             "--mc-samples", "400000", "--seed", "6")
        assert code == 0, err
        rep = json.loads(out)
        assert rep["path_closed"] == "n/a (case 1)"
        assert {c["pair"] for c in rep["comparisons"]} == {"numeric-vs-mc"}

    def test_family_wise_level_over_seeds(self, capsys):
        # the fig1 pair of the capacity figures; each report makes four
        # comparisons, held together to a family-wise level of 0.0027
        bob = "mu=3.5,m=2.5,kappa=1,eta=0.1,rho2=0.1,snr_db=20"
        eve = "mu=1.5,m=1.5,kappa=1,eta=0.1,rho2=0.1,snr_db=5"
        failed = 0
        for seed in range(100):
            code, out, _ = run(capsys, "validate", "--bob", bob, "--eve", eve, "--rs", "1",
                               "--mc-samples", "200000", "--seed", str(seed))
            rep = json.loads(out)
            assert rep["family_wise_level"] == 0.0027
            assert code == (0 if rep["pass"] else 4)
            failed += not rep["pass"]
        assert failed <= 2

    def test_holm_step_down(self):
        from fbsec.cli import _holm_comparisons
        from fbsec.montecarlo import MCEstimate

        def est(z):  # an estimate z standard errors from the value 0
            return MCEstimate(mean=z * 1e-3, std_error=1e-3, n=10**6, seed=0)

        # among four, 3.6 sigma (p = 3.2e-4) is tested at 0.0027 / 4 and fails;
        # 3.3 sigma (p = 9.7e-4) is tested at 0.0027 / 3 and passes, and with
        # it every larger p-value.  Alone, 3.3 sigma is tested at 0.0027 and fails.
        rows = [("asc", "a", 0.0, est(3.1)), ("sop", "a", 0.0, est(0.5)),
                ("sopl", "a", 0.0, est(3.6)), ("spsc", "a", 0.0, est(3.3))]
        verdict = {c["metric"]: c["pass"] for c in _holm_comparisons(rows, 0.0027)}
        assert verdict == {"asc": True, "sop": True, "sopl": False, "spsc": True}
        assert not _holm_comparisons(rows[3:], 0.0027)[0]["pass"]

    def test_corrupted_tolerance_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "--bob", BOB, "--eve", "same",
                           "--quad-rel-tol", "10")
        assert code == 2
        assert "quad_rel_tol" in err


class TestReduce:
    def test_rayleigh(self, capsys):
        code, out, _ = run(capsys, "reduce", "rayleigh")
        assert code == 0
        rec = json.loads(out)
        assert rec == {"mu": 1.0, "m": 1e6, "kappa": 0.0, "eta": 1.0, "rho2": 1.0}

    def test_kappa_mu_shadowed(self, capsys):
        code, out, _ = run(capsys, "reduce", "kappa-mu-shadowed", "--params", "kappa=2,mu=2,m=3")
        assert code == 0
        rec = json.loads(out)
        assert rec["eta"] == 1.0 and rec["rho2"] == 1.0
        assert rec["kappa"] == 2.0 and rec["mu"] == 2.0 and rec["m"] == 3.0

    def test_beckmann(self, capsys):
        code, out, _ = run(capsys, "reduce", "beckmann", "--params", "K=1,q=0.5,r=1")
        assert code == 0
        rec = json.loads(out)
        assert rec == {"mu": 1.0, "m": 1e6, "kappa": 1.0, "eta": 0.5, "rho2": 1.0}

    def test_eta_mu(self, capsys):
        code, out, _ = run(capsys, "reduce", "eta-mu", "--params", "eta=0.3,mu=1.7")
        assert code == 0
        rec = json.loads(out)
        assert rec == {"mu": 1.7, "m": 1e6, "kappa": 0.0, "eta": 0.3, "rho2": 1.0}

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, "reduce", "weibull-ish")
        assert code == 2

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run(capsys, "reduce", "nakagami")
        assert code == 2
        assert "m" in err


class TestNumericalFailureExit:
    def test_convergence_error_exits_3(self, capsys, monkeypatch):
        from fbsec.errors import ConvergenceError

        def boom(*a, **k):
            raise ConvergenceError("quadrature did not converge: synthetic")

        monkeypatch.setattr("fbsec.cli.inversion.numeric_metrics", boom)
        code, _, err = run(capsys, "eval", "--bob", FIG1_BOB, "--eve", FIG1_EVE,
                           "--metric", "asc")
        assert code == 3
        assert "synthetic" in err


class TestConfigFile:
    def test_config_provides_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bob": CASE2_BOB, "eve": CASE2_EVE, "rs": 1.0,
                                   "metric": "sopl"}))
        code, out, _ = run(capsys, "eval", "--config", str(cfg))
        assert code == 0
        base = json.loads(out)
        assert set(base) >= {"sopl"} and "sop" not in base
        code, out, _ = run(capsys, "eval", "--config", str(cfg), "--metric", "sop")
        assert code == 0
        assert "sop" in json.loads(out)

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--config", "/nonexistent.json")
        assert code == 2
