"""Command-line interface: flags, outputs, exit codes."""

import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fbsec
from fbsec import FBParams, MCConfig, SecrecyConfig, db_to_linear, estimate, linear_to_db
from fbsec.cli import main
from fbsec.params import METRICS

from oracles import truncation_reference

BOB = "mu=2,m=1,kappa=0,eta=1,rho2=1,snr_db=0"
CASE2_BOB = "mu=4,m=2,kappa=1.5,eta=0.4,rho2=0.3,snr_db=12"
CASE2_EVE = "mu=2,m=1,kappa=0.7,eta=2,rho2=1.5,snr_db=3"
FIG1_BOB = "mu=3.5,m=2.5,kappa=1,eta=0.5,rho2=0.1,snr_db=20"
FIG1_EVE = "mu=1.5,m=1.5,kappa=1,eta=0.1,rho2=0.1,snr_db=5"
# lambda = 70 dB: a Case-2 pair whose SOP (about 4e-24) the closed route refuses on its rounding bound
BOB_73DB = CASE2_BOB.replace("snr_db=12", "snr_db=73")
# a mu < 1 link whose Monte Carlo draw needs a Poisson mean past numpy's limit
POISSON_PAST = "mu=0.5,m=1,kappa=1e4,eta=1e-16,rho2=1e4,snr_db=10"


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
        # the bar that each closed value's error bound met
        assert rec["error_estimates"] == {"bounded_rel_tol": 1e-7}

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

    @pytest.mark.parametrize("nodes", ["15", "21"])
    def test_talbot_nodes_still_checked(self, capsys, nodes):
        # the flag steers nothing now, but an odd value or one below 16 stays a usage error
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--bob", FIG1_BOB, "--eve", FIG1_EVE, "--talbot-nodes", nodes])
        assert exc.value.code == 2
        assert "--talbot-nodes" in capsys.readouterr().err

    def test_talbot_nodes_inert(self, capsys):
        _, default, _ = run(capsys, "eval", "--bob", FIG1_BOB, "--eve", FIG1_EVE, "--metric", "asc")
        _, doubled, _ = run(capsys, "eval", "--bob", FIG1_BOB, "--eve", FIG1_EVE, "--metric", "asc",
                            "--talbot-nodes", "96")
        assert doubled == default
        assert "talbot_nodes" not in json.loads(default)["error_estimates"]

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

    def test_units_do_not_reach_the_next_call(self, capsys):
        # main shares one parser between calls
        run(capsys, "eval", "--bob", CASE2_BOB, "--eve", CASE2_EVE, "--units", "bits")
        _, out, _ = run(capsys, "eval", "--bob", CASE2_BOB, "--eve", CASE2_EVE)
        assert json.loads(out)["units"] == "nats"

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

    @pytest.mark.parametrize("bob,text", [(CASE2_BOB, ""), (FIG1_BOB, " ")])
    def test_empty_metric_list_exits_2(self, capsys, bob, text):
        code, out, err = run(capsys, "eval", "--bob", bob, "--eve", "same", "--metric", text)
        assert code == 2 and out == ""
        assert err.startswith("parameter error: --metric:")

    def test_snr_past_float_range_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--bob", CASE2_BOB.replace("snr_db=12", "snr_db=4000"),
                             "--eve", "same")
        assert code == 2 and out == ""
        assert err.startswith("parameter error: --bob.snr_db:")

    @pytest.mark.parametrize("flag", ["--bob", "--eve"])
    def test_snr_that_underflows_exits_2(self, capsys, flag):
        links = {"--bob": CASE2_BOB, "--eve": CASE2_EVE}
        links[flag] = links[flag].split("snr_db=")[0] + "snr_db=-4000"
        code, out, err = run(capsys, "eval", *(item for pair in links.items() for item in pair))
        assert code == 2 and out == ""
        assert err == f"parameter error: {flag}.snr_db: a mean SNR of -4000.0 dB underflows to 0\n"

    def test_talbot_nodes_notice(self, capsys):
        code, out, err = run(capsys, "eval", "--bob", FIG1_BOB, "--eve", FIG1_EVE, "--metric", "sop",
                             "--talbot-nodes", "96")
        assert code == 0 and json.loads(out)["sop"] > 0.0
        assert len(err.splitlines()) == 1 and "--talbot-nodes" in err and "no longer steers" in err
        _, _, err = run(capsys, "eval", "--bob", FIG1_BOB, "--eve", FIG1_EVE, "--metric", "sop")
        assert err == ""


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

    def test_poisson_limit_refused_exits_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--bob", POISSON_PAST, "--eve", "same", "--mc-samples", "10000",
                             "--start-db", "0", "--stop-db", "10", "--step-db", "10")
        assert code == 2 and out == ""
        assert err.startswith("error: Monte Carlo cannot sample the Bob link") and err.count("\n") == 1
        assert "noncentrality" in err

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

    @pytest.mark.parametrize("bob", [FIG1_BOB.replace("eta=0.5", "eta=0.1"),
                                     "mu=1,m=1e6,kappa=1.5,eta=0.3,rho2=0.64,snr_db=20"])
    def test_rows_do_not_move_with_a_longer_contour(self, capsys, monkeypatch, bob):
        # fig1 and the stiff surrogate as the numeric-sweep workload sweeps them:
        # running e^(sz) out to 295 e-folds or more prints the same bytes
        argv = ("sweep", "--bob", bob, "--eve", FIG1_EVE, "--rs", "1", "--axis", "lambda_db",
                "--start-db", "-10", "--stop-db", "40", "--step-db", "2", "--metrics", "all")
        short = run(capsys, *argv)
        monkeypatch.setattr("fbsec.inversion._Bromwich._truncation", truncation_reference)
        assert run(capsys, *argv) == short
        assert short[0] == 0 and short[1].count("\n") == 27

    def test_bad_step_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--bob", BOB, "--eve", "same",
                         "--start-db", "0", "--stop-db", "10", "--step-db", "-1")
        assert code == 2

    def test_too_many_rows_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--bob", BOB, "--eve", "same",
                           "--start-db", "0", "--stop-db", "1e300", "--step-db", "1e-300")
        assert code == 2
        assert err.startswith("parameter error:") and "--step-db" in err

    def test_rows_past_the_limit_are_refused_before_any_is_built(self, capsys, monkeypatch):
        # 1e12 rows: their list alone would exhaust the memory
        monkeypatch.setattr("fbsec.cli._sweep_rows", lambda *a: pytest.fail("rows were built"))
        code, out, err = run(capsys, "sweep", "--bob", BOB, "--eve", "same",
                             "--start-db", "0", "--stop-db", "1e9", "--step-db", "1e-3")
        assert code == 2 and out == ""
        assert err.startswith("parameter error: --step-db:") and "1e+12 rows, past the 100000" in err
        code, _, err = run(capsys, "sweep", "--bob", BOB, "--eve", "same",
                           "--start-db", "0", "--stop-db", "100000", "--step-db", "1")
        assert code == 2 and "100001 rows" in err

    def test_empty_metric_list_exits_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--bob", CASE2_BOB, "--eve", CASE2_EVE,
                             "--start-db", "0", "--stop-db", "10", "--step-db", "5", "--metrics", ",")
        assert code == 2 and out == ""
        assert err.startswith("parameter error: --metrics:")

    def test_row_snr_past_float_range_exits_2(self, capsys):
        # the second row puts Bob at 3 + 4000 dB
        code, out, err = run(capsys, "sweep", "--bob", CASE2_BOB, "--eve", CASE2_EVE,
                             "--start-db", "0", "--stop-db", "4000", "--step-db", "4000")
        assert code == 2 and out == ""
        assert err.startswith("parameter error: --stop-db:")

    @pytest.mark.parametrize("axis", ["lambda_db", "snr_bob_db"])
    def test_row_snr_that_underflows_exits_2(self, capsys, axis):
        # the first row puts Bob at -4000 dB, or at 3 - 4000 dB
        code, out, err = run(capsys, "sweep", "--bob", CASE2_BOB, "--eve", CASE2_EVE, "--axis", axis,
                             "--start-db", "-4000", "--stop-db", "0", "--step-db", "4000")
        assert code == 2 and out == ""
        assert err.startswith("parameter error: --start-db:") and "underflows to 0" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--start-db", "--stop-db", "--step-db"])
    def test_non_finite_bound_exits_2(self, capsys, flag, value):
        bounds = {"--start-db": "0", "--stop-db": "10", "--step-db": "5", flag: value}
        code, _, err = run(capsys, "sweep", "--bob", BOB, "--eve", "same",
                           *(item for pair in bounds.items() for item in pair))
        assert code == 2
        assert err.startswith("parameter error:") and flag in err


def _with_snr_db(link: str, snr_db: float) -> str:
    return link.split("snr_db=")[0] + f"snr_db={snr_db!r}"


class TestSweepRowsAgainstEval:
    """A sweep's rows, its numeric ones solved as one contour batch, against one eval per row."""

    def sweep(self, capsys, bob, eve, axis, start, stop, step, *extra):
        code, out, err = run(capsys, "sweep", "--bob", bob, "--eve", eve, "--rs", "1", "--axis", axis,
                             "--start-db", start, "--stop-db", stop, "--step-db", step, "--format", "json",
                             *extra)
        assert code == 0, err
        return json.loads(out)

    @staticmethod
    def bob_db(eve, axis, x_db):
        """Bob's SNR in dB at row ``x_db``, as the sweep works it out."""
        eve_db = linear_to_db(db_to_linear(float(eve.split("snr_db=")[1])))
        return eve_db + x_db if axis == "lambda_db" else x_db

    @pytest.mark.parametrize("bob,eve,axis,bounds,metrics", [
        (FIG1_BOB, FIG1_EVE, "lambda_db", ("0", "20", "5"), "all"),
        (FIG1_BOB, FIG1_EVE, "snr_bob_db", ("5", "25", "10"), "sop,spsc"),
        # -800 dB leaves the closed route (its scale factor overflows); 12 dB takes it
        (CASE2_BOB, CASE2_EVE, "snr_bob_db", ("-800", "12", "406"), "asc,sopl"),
    ])
    def test_rows_match_eval(self, capsys, bob, eve, axis, bounds, metrics):
        rows = self.sweep(capsys, bob, eve, axis, *bounds, "--metrics", metrics)
        assert len(rows) == 5 if bounds[2] == "5" else 3
        paths = set()
        for row in rows:
            bob_i = _with_snr_db(bob, self.bob_db(eve, axis, row["x_db"]))
            code, out, err = run(capsys, "eval", "--bob", bob_i, "--eve", eve, "--rs", "1",
                                 "--metric", metrics)
            assert code == 0, err
            rec = json.loads(out)
            paths.add(rec["path"])
            achieved = rec["error_estimates"].get("achieved", {})
            for k in METRICS if metrics == "all" else metrics.split(","):
                a, b = row[k], rec[k]
                if rec["path"] == "case2":
                    assert a == b, k
                else:  # the row's achieved error plus the closed-vs-numeric bar
                    assert abs(a - b) <= achieved[k] + 1e-6 * max(abs(a), abs(b), 1e-2), (row["x_db"], k)
        assert "numeric" in paths

    def test_monte_carlo_columns_are_each_rows_own_estimate(self, capsys):
        rows = self.sweep(capsys, FIG1_BOB, FIG1_EVE, "lambda_db", "0", "10", "10",
                          "--metrics", "sop,asc", "--mc-samples", "20000")
        kv = dict(item.split("=") for item in FIG1_BOB.split(","))
        link = {k: float(kv[k]) for k in ("mu", "m", "kappa", "eta", "rho2")}
        eve = FBParams(1.5, 1.5, 1.0, 0.1, 0.1, db_to_linear(5.0))
        for i, row in enumerate(rows):
            bob_i = FBParams(**link, avg_snr=db_to_linear(self.bob_db(FIG1_EVE, "lambda_db", row["x_db"])))
            cfg = MCConfig(n_samples=20000, seed=12345 + i, n_streams=8)  # the CLI's default seed and streams
            mc = estimate(bob_i, eve, SecrecyConfig(1.0), cfg)
            for k in ("sop", "asc"):
                assert row[f"mc_mean_{k}"] == mc[k].mean and row[f"mc_se_{k}"] == mc[k].std_error

    def test_refusal_names_its_row(self, capsys):
        # the second row, Bob at 3003 dB, has no finite ASC tail cut
        code, out, err = run(capsys, "sweep", "--bob", FIG1_BOB, "--eve", FIG1_EVE, "--axis", "snr_bob_db",
                             "--start-db", "0", "--stop-db", "3003", "--step-db", "3003")
        assert code == 3 and out == ""
        assert "numerical error: row x_db = 3003: ASC quadrature: the tail cut" in err
        slow = "mu=0.01,m=1,kappa=1,eta=1,rho2=1,snr_db=10"
        code, out, err = run(capsys, "sweep", "--bob", slow, "--eve", _with_snr_db(slow, 0.0),
                             "--start-db", "0", "--stop-db", "10", "--step-db", "10", "--metrics", "sop")
        assert code == 3 and out == ""
        assert err.startswith("numerical error: row x_db = 0: outage contour: the transform decays too slow")


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

    def test_refused_case2_pair_reports_why(self, capsys):
        # a Case-2 pair that the closed route refuses is not called case 1
        code, out, err = run(capsys, "validate", "--bob", BOB_73DB, "--eve", CASE2_EVE, "--rs", "1",
                             "--mc-samples", "10000", "--seed", "6")
        assert code == 0, err
        rep = json.loads(out)
        assert rep["path_closed"].startswith("refused: closed route: the residue sum of P(g_D - theta g_E < z)")
        assert "error bound" in rep["path_closed"]
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

    def test_units_bits(self, capsys):
        # capacity rows are in bits; verdicts are taken in nats, so they do not change
        argv = ("validate", "--bob", CASE2_BOB, "--eve", CASE2_EVE, "--rs", "1",
                "--mc-samples", "100000", "--seed", "5")
        reps = {}
        for units in ("nats", "bits"):
            code, out, err = run(capsys, *argv, "--units", units)
            assert code in (0, 4), err
            reps[units] = json.loads(out)
        nats, bits = reps["nats"], reps["bits"]
        assert (nats["units"], bits["units"]) == ("nats", "bits")
        for name, row in nats["metrics"].items():
            scale = math.log(2.0) if name == "asc" else 1.0
            for col, value in row.items():
                assert bits["metrics"][name][col] == pytest.approx(value / scale, rel=1e-15)
        for cn, cb in zip(nats["comparisons"], bits["comparisons"]):
            scale = math.log(2.0) if cn["metric"] == "asc" else 1.0
            assert cb["pass"] == cn["pass"]
            for key in ("delta", "threshold"):
                assert cb[key] == pytest.approx(cn[key] / scale, rel=1e-15)
        assert bits["pass"] == nats["pass"]

    def test_report_holds_the_reproducibility_key(self, capsys):
        code, out, err = run(capsys, "validate", "--bob", CASE2_BOB, "--eve", CASE2_EVE,
                             "--mc-samples", "20000", "--mc-streams", "3", "--seed", str(2**64 + 5))
        assert code in (0, 4), err
        rep = json.loads(out)
        assert (rep["mc_samples"], rep["mc_streams"], rep["seed"]) == (20000, 3, 2**64 + 5)

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "validate", "--bob", CASE2_BOB, "--eve", CASE2_EVE,
                             "--mc-samples", "20000", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "parameter error: seed: must be >= 0, got -1\n"

    def test_poisson_limit_refused_exits_2(self, capsys):
        # eval answers this link by the numeric route; the sampler refuses it
        code, out, err = run(capsys, "validate", "--bob", POISSON_PAST, "--eve", "same",
                             "--mc-samples", "10000")
        assert code == 2 and out == ""
        assert err.startswith("error: Monte Carlo cannot sample the Bob link") and err.count("\n") == 1
        assert "noncentrality" in err

    def test_zero_mc_samples_exits_2(self, capsys):
        # 0 is a value, not an absent flag: MCConfig rejects it
        code, out, err = run(capsys, "validate", "--bob", CASE2_BOB, "--eve", CASE2_EVE,
                             "--mc-samples", "0")
        assert code == 2
        assert out == "" and "n_samples" in err

    def test_corrupted_tolerance_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "--bob", BOB, "--eve", "same",
                           "--quad-rel-tol", "10")
        assert code == 2
        assert "quad_rel_tol" in err


class TestRefusalLog:
    def test_closed_refusal_is_logged_with_its_bound(self, capsys, caplog):
        caplog.set_level(logging.INFO, logger="fbsec")
        code, out, err = run(capsys, "eval", "--bob", BOB_73DB, "--eve", CASE2_EVE, "--rs", "1")
        assert code == 0 and err == "" and json.loads(out)["path"] == "numeric"
        (record,) = [r for r in caplog.records if r.name == "fbsec"]
        assert record.levelno == logging.INFO
        message = record.getMessage()
        assert message.startswith("closed route refused: ConvergenceError: closed route: the residue sum")
        assert "has error bound" in message

    def test_case_mismatch_is_logged_by_its_class(self, capsys, caplog):
        caplog.set_level(logging.INFO, logger="fbsec")
        run(capsys, "eval", "--bob", FIG1_BOB, "--eve", FIG1_EVE, "--metric", "sop")
        (record,) = [r for r in caplog.records if r.name == "fbsec"]
        assert record.getMessage().startswith("closed route refused: CaseMismatchError: ")

    def test_silent_by_default(self):
        # no handler or level is set up for the fbsec logger: a fresh interpreter prints nothing
        src = str(Path(fbsec.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "fbsec.cli", "eval", "--bob", BOB_73DB, "--eve", CASE2_EVE,
                               "--rs", "1"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["path"] == "numeric"


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

    @pytest.mark.parametrize("argv,valid", [
        (("reduce", "nakagami", "--params", "m=2,bogus=1"), "['m']"),
        (("eval", "--bob", BOB + ",bogus=1", "--eve", "same"), "['mu', 'm', 'kappa', 'eta', 'rho2', 'snr_db']"),
    ])
    def test_unknown_key_message(self, capsys, argv, valid):
        # --params and a link spec refuse an unknown key with one message
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.endswith(f"unknown keys ['bogus']; valid: {valid}\n")

    @pytest.mark.parametrize("argv,field", [
        (("eval", "--bob", CASE2_BOB + ",mu=2", "--eve", CASE2_EVE), "--bob.mu"),
        (("eval", "--bob", CASE2_BOB, "--eve", CASE2_EVE + ",snr_db=3"), "--eve.snr_db"),
        (("reduce", "nakagami", "--params", "m=2,m=3"), "--params.m"),
    ])
    def test_repeated_key_exits_2(self, capsys, argv, field):
        # a key given twice is refused, not overwritten by its last value
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"parameter error: {field}: given more than once\n"


class TestNumericalFailureExit:
    # Bob's mean SNR at 3003 dB: the closed expansion overflows and ASC's tail cut is infinite
    @pytest.mark.parametrize("command", ["eval", "validate"])
    def test_snr_near_float_range_exits_3(self, capsys, command):
        code, out, err = run(capsys, command, "--bob", CASE2_BOB.replace("snr_db=12", "snr_db=3003"),
                             "--eve", CASE2_EVE, "--rs", "0")
        assert code == 3 and out == ""
        assert err.startswith("numerical error: ASC quadrature: the tail cut")

    def test_pole_distance_underflow(self, capsys):
        # Bob at 1625 dB: the closed route refuses, ASC's tail cut is infinite, SOP is answered
        bob = "mu=6,m=3,kappa=1.5,eta=0.4,rho2=0.3,snr_db=1625"
        code, out, err = run(capsys, "eval", "--bob", bob, "--eve", CASE2_EVE, "--rs", "0")
        assert code == 3 and out == ""
        assert err.startswith("numerical error: ASC quadrature: the tail cut")
        code, out, err = run(capsys, "eval", "--bob", bob, "--eve", CASE2_EVE, "--rs", "0", "--metric", "sop")
        assert code == 0 and err == ""
        assert json.loads(out)["sop"] == 0.0

    @pytest.mark.parametrize("snr_db", ["1625", "3003"])
    def test_underflowed_distance_prints_no_warning(self, capsys, snr_db):
        # the outage contour's grid search meets distances whose squares underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "--bob", CASE2_BOB.replace("snr_db=12", f"snr_db={snr_db}"),
                                 "--eve", CASE2_EVE, "--rs", "0", "--metric", "sop")
        assert code == 0 and err == ""
        rec = json.loads(out)
        assert rec["path"] == "numeric" and rec["sop"] == 0.0

    def test_scale_factor_overflow_answered(self, capsys):
        # Bob at -800 dB: omega overflows, so the closed route refuses and the numeric one answers
        code, out, err = run(capsys, "eval", "--bob", CASE2_BOB.replace("snr_db=12", "snr_db=-800"),
                             "--eve", CASE2_EVE, "--rs", "0")
        assert code == 0 and err == ""
        rec = json.loads(out)
        assert rec["path"] == "numeric" and rec["sop"] == 1.0
        assert 0.0 <= rec["asc"] < 1e-200 and rec["error_estimates"]["achieved"]["asc"] < 1e-200

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

    def test_config_defaults_do_not_reach_the_next_call(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rs": 1.0, "metric": "sopl", "units": "bits"}))
        code, out, _ = run(capsys, "eval", "--config", str(cfg), "--bob", CASE2_BOB, "--eve", CASE2_EVE)
        assert code == 0 and json.loads(out)["units"] == "bits"
        code, out, _ = run(capsys, "eval", "--bob", CASE2_BOB, "--eve", CASE2_EVE)
        assert code == 0
        rec = json.loads(out)
        assert (rec["rs"], rec["units"]) == (0.0, "nats")
        assert {"asc", "sop", "sopl", "spsc"} <= set(rec)

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--config", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"rs": [1]}', '{"quad_rel_tol": null}', '{"units": true}',  # not a string or a number
        '{"rs": "abc"}', '{"seed": 1.5}',  # what the flag's own type rejects
        '{"units": "furlongs"}', '{"format": "xml"}', '{"axis": "x"}', '{"units": 2}',  # not a choice
        '[1]', '"rs"', '0', 'null',  # not an object
        '{"quad_rel_tl": 1e-6}',  # no flag's destination
    ])
    def test_bad_config_value_exits_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run(capsys, "eval", "--config", str(cfg), "--bob", CASE2_BOB, "--eve", CASE2_EVE)
        assert code == 2
        assert err.startswith("--config: ")

    def test_config_values_pass_the_flags_checks(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"talbot_nodes": 15}))
        code, _, err = run(capsys, "eval", "--config", str(cfg), "--bob", CASE2_BOB, "--eve", CASE2_EVE)
        assert code == 2 and "--talbot-nodes" in err
        cfg.write_text(json.dumps({"rs": 1, "seed": 7, "quad_rel_tol": "1e-9"}))
        code, out, _ = run(capsys, "eval", "--config", str(cfg), "--bob", CASE2_BOB, "--eve", CASE2_EVE)
        assert code == 0 and json.loads(out)["rs"] == 1.0
