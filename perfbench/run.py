#!/usr/bin/env python3
"""Benchmark of fbsec's three routes, driven through its CLI in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload numeric-sweep|closed-eval|mc-validate
                             --seed N --seconds S --trace 0|1

The benchmark imports fbsec from ``src/`` once and calls
``fbsec.cli.main(argv)`` from a single thread, one call after another
(a closed loop with one caller), with stdout and stderr captured in memory.
It repeats whole rounds of the workload's calls until ``--seconds`` have
passed, then checks the outputs outside the timed region.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  A failed check makes the exit code 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from pathlib import Path

import checks
import refmc
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
REF_MC_SAMPLES = 400_000
CHECK_MC_SAMPLES = 10_000   # the CLI's minimum; validate is used for its closed and numeric values
TAIL_MIN_CALLS = 40


def require_src() -> None:
    """Exit (code 1, nothing on stdout) when this checkout has no ``src/fbsec``."""
    if not (SRC / "fbsec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fbsec package under {SRC}")


def load_cli():
    """Import fbsec from this checkout's ``src/`` and return ``fbsec.cli.main``."""
    require_src()
    sys.path.insert(0, str(SRC))
    import fbsec.cli

    if SRC not in Path(fbsec.__file__).resolve().parents:
        sys.exit(f"perfbench: fbsec was imported from {fbsec.__file__}, not {SRC}")
    return fbsec.cli.main


def cli_call(main, argv):
    """One in-process CLI call: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except Exception:  # an escaped exception is a failed call, not a crash of the run
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


class Loop:
    """Closed loop over whole rounds, cycling through the workload's rounds.

    Keeps the first output of every call of every distinct round; a repeat
    of a round must print the same.
    """

    def __init__(self, main, rounds):
        self.main = main
        self.rounds = rounds
        self.first = [[None] * len(ops) for ops in rounds]
        self.executed = [0] * len(rounds)
        self.times: list[float] = []        # wall time of every call
        self.per_round: list[list] = []     # [distinct round, points, seconds]
        self.attempted = self.failed = self.mismatches = 0

    def run(self, seconds, wrap=None, after_round=None):
        """Run rounds from the first until ``seconds`` pass; return (elapsed s, rounds)."""
        call = self.main if wrap is None else (lambda argv: wrap(self.main, argv))
        n = 0
        t0 = time.perf_counter()
        while True:
            idx = n % len(self.rounds)
            first = self.first[idx]
            points = 0
            r0 = time.perf_counter()
            for i, op in enumerate(self.rounds[idx]):
                rc, out, err, dt = cli_call(call, op.argv)
                self.times.append(dt)
                self.attempted += 1
                if rc == 0:
                    points += op.points
                else:
                    self.failed += 1
                if first[i] is None:
                    first[i] = (rc, out, err)
                elif out != first[i][1]:
                    self.mismatches += 1
            self.per_round.append([idx, points, time.perf_counter() - r0])
            self.executed[idx] += 1
            n += 1
            if after_round:
                after_round()
            if time.perf_counter() - t0 >= seconds:
                return time.perf_counter() - t0, n

    def count_known_faults(self, known) -> None:
        """A reproducer whose output shows its fault failed every time it ran.

        Outputs repeat exactly (checked), so one check covers every run of it.
        """
        for idx, i in known:
            op = self.rounds[idx][i]
            self.failed += self.executed[idx]
            for rec in self.per_round:
                if rec[0] == idx:
                    rec[1] -= op.points

    def points_per_s(self) -> float:
        """Median over rounds of the points per second within each round."""
        return statistics.median(points / secs for _, points, secs in self.per_round)


# ---------------------------------------------------------------------------
# correctness, outside the timed region
# ---------------------------------------------------------------------------

def _ref_mc(bob, eve, rs, key: str):
    # the seed is a function of the inputs, so a check's outcome is too
    return refmc.secrecy_estimates(bob, eve, rs, REF_MC_SAMPLES, zlib.crc32(key.encode()))


def check_outputs(loop: Loop, main) -> tuple[list[str], list[int], list]:
    """Every check on the first output of every call that ran.

    Returns (problems, numeric fallbacks per distinct round, (round, call)
    of known-fault reproducers whose output still shows their fault).
    """
    problems = []
    fallbacks = [0] * len(loop.rounds)
    known = []
    if loop.mismatches:
        problems.append(f"{loop.mismatches} repeated calls printed other output than their first run")
    closed_mc = closed_numeric = 0
    for idx, (ops, firsts) in enumerate(zip(loop.rounds, loop.first)):
        for i, (op, first) in enumerate(zip(ops, firsts)):
            if first is None:
                continue  # this round never ran
            rc, out, err = first
            where = f"{op.kind} {op.label}"
            if rc != 0:
                print(f"perfbench: failed call ({where}, exit {rc}): {err.strip()[:500]}", file=sys.stderr)
                continue
            bad = []
            try:
                if op.kind == "sweep":
                    bad += _check_sweep(op, out, where)
                elif op.kind == "eval":
                    rec = checks.parse_eval(out)
                    bad += checks.row_order(rec, where)
                    fallbacks[idx] += op.case2 and rec["path"] != "case2"
                    if not op.known_fault and closed_mc < workloads.CLOSED_MC_CHECKS:
                        closed_mc += 1
                        bad += checks.against_mc(rec, _ref_mc(op.bob, op.eve, op.rs, str(op.argv)), where)
                    if not op.known_fault and closed_numeric < workloads.CLOSED_NUMERIC_CHECKS:
                        closed_numeric += 1
                        bad += _closed_vs_numeric_via_validate(main, op, rec, where)
                else:
                    rep = checks.parse_validate(out)
                    bad += checks.row_order(rep["numeric"], f"{where} numeric")
                    if rep["closed"] is not None:
                        bad += checks.row_order(rep["closed"], f"{where} closed")
                        bad += checks.closed_vs_numeric(rep["closed"], rep["numeric"], where)
                    else:
                        fallbacks[idx] += op.case2
                    est = _ref_mc(op.bob, op.eve, op.rs, str(op.argv))
                    bad += checks.against_mc(rep["numeric"], est, f"{where} numeric")
            except (ValueError, KeyError, TypeError) as exc:
                bad.append(f"{where}: unreadable output ({exc!r})")
            if op.known_fault and bad:
                if not known:
                    print(f"perfbench: known fault still present, counted failed: {bad[0]}", file=sys.stderr)
                known.append((idx, i))
            else:
                problems += bad
    return problems, fallbacks, known


def _check_sweep(op, out, where) -> list[str]:
    rows = checks.parse_sweep(out)
    bad = []
    if [r["x_db"] for r in rows] != workloads.sweep_grid():
        bad.append(f"{where}: rows do not follow the requested grid")
    for r in rows:
        bad += checks.row_order(r, f"{where} @ {r['x_db']} dB")
    bad += checks.sweep_monotone(rows, where)
    for r in rows:
        if r["x_db"] in op.mc_rows_db:
            bob = dict(op.bob, snr_db=op.eve["snr_db"] + r["x_db"])
            est = _ref_mc(bob, op.eve, op.rs, f"{op.argv}@{r['x_db']}")
            bad += checks.against_mc(r, est, f"{where} @ {r['x_db']} dB")
    return bad


def _closed_vs_numeric_via_validate(main, op, rec, where) -> list[str]:
    """Both routes for one eval point, read from a ``validate`` report.

    Exit code 4 is validate's own Monte Carlo verdict, which this check
    does not use; the report is printed either way.
    """
    argv = ("validate", "--bob", workloads.link_spec(op.bob), "--eve", workloads.link_spec(op.eve),
            "--rs", repr(op.rs), "--mc-samples", str(CHECK_MC_SAMPLES))
    rc, out, err, _ = cli_call(main, argv)
    if rc not in (0, 4):
        return [f"{where}: validate for the closed-vs-numeric check exited {rc}: {err.strip()[:300]}"]
    rep = checks.parse_validate(out)
    if rep["closed"] is None:
        return []  # the closed route refused this pair; eval answered numerically
    bad = checks.closed_vs_numeric(rep["closed"], rep["numeric"], where)
    route = rep["closed"] if rec["path"] == "case2" else rep["numeric"]
    for k in checks.METRICS:
        if not abs(rec[k] - route[k]) <= 1e-12 * max(1.0, abs(route[k])):
            bad.append(f"{where}: eval {k}={rec[k]!r} differs from its own route's {route[k]!r}")
    return bad


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing fbsec and building the inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()[:500]}")
        samples.append(dt)
    return statistics.median(samples)


def import_times_ms() -> tuple[float, float]:
    """(fbsec cumulative, scipy self-time sum) in ms from ``-X importtime``."""
    fb, sp = [], []
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import fbsec"
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: import probe failed: {proc.stderr.strip()[-500:]}")
        fbsec_us = scipy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            if name == "fbsec":
                fbsec_us = int(parts[1])
            elif name == "scipy" or name.startswith("scipy."):
                scipy_us += int(parts[0])
        fb.append(fbsec_us / 1e3)
        sp.append(scipy_us / 1e3)
    return statistics.median(fb), statistics.median(sp)


def tail_percentile(times: list[float]):
    """Highest of p75/p90/p95/p99/p99.9 with at least ten calls beyond it.

    None below 40 calls, where even p75 would have fewer than ten.
    """
    n = len(times)
    if n < TAIL_MIN_CALLS:
        return None
    best = max(p for p in (75.0, 90.0, 95.0, 99.0, 99.9) if n * (1.0 - p / 100.0) >= 10.0)
    qs = statistics.quantiles(times, n=1000, method="inclusive")
    return {"percentile": best, "ms": qs[int(round(best * 10)) - 1] * 1e3, "calls": n}


def per_layer(targets, totals, self_s: float, points: int, fallbacks: int) -> dict:
    """Per-layer figures of one round, from the tracer's totals for it."""
    pairs = list(zip(targets, totals))
    by_name = {t.name: tot for t, tot in pairs}
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    k = by_name["kernels.talbot_sum"]
    put("kernels.calls", k.calls, "count")
    put("kernels.abscissae_per_call", k.items / k.calls if k.calls else 0.0, "count")
    put("kernels.transform_evals", k.work, "count")
    put("kernels.ms", k.entry_s * 1e3, "ms")
    put("kernels.evals_per_s", k.work / k.entry_s if k.entry_s else 0.0, "1/s")
    for tgt, tot in pairs:
        if tgt.layer in ("inversion", "params", "casetwo", "special"):
            put(f"{tgt.name}.ms", tot.entry_s * 1e3, "ms")
            put(f"{tgt.name}.calls", tot.entry_calls, "count")
    put("casetwo.refusals", sum(tot.entry_errors for t, tot in pairs if t.layer == "casetwo"), "count")
    put("cli.numeric_fallbacks", fallbacks, "count")
    put("cli.self_ms", self_s * 1e3, "ms")
    samples = by_name["montecarlo.sample_snr"].items
    est = [tot for t, tot in pairs if t.layer == "montecarlo" and t.func.startswith("estimate_")]
    est_s = sum(t.entry_s for t in est)
    put("montecarlo.samples", samples, "count")
    put("montecarlo.samples_per_point", samples / points if points else 0.0, "count")
    put("montecarlo.samples_per_s", samples / est_s if est_s else 0.0, "1/s")
    put("montecarlo.estimate.calls", sum(t.entry_calls for t in est), "count")
    put("montecarlo.estimate.ms", est_s * 1e3, "ms")
    return m


def write_trace(path: Path, tracer, summary: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = dict(summary, span_columns=tracing.SPAN_COLUMNS, spans=tracer.span_rows())
    with gzip.open(path, "wt", compresslevel=3) as fh:
        json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        load_cli()
        workloads.build(args.workload, args.seed)
        return 0

    require_src()
    if args.trace:
        import_ms = import_times_ms()
    else:
        setup_s = setup_seconds(args.workload, args.seed)
    main_fn = load_cli()
    rounds = workloads.build(args.workload, args.seed)
    cli_call(main_fn, rounds[0][0].argv)  # warm-up: lazy imports and first-call set-up

    loop = Loop(main_fn, rounds)
    if not args.trace:
        loop.run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, _, known = check_outputs(loop, main_fn)
        loop.count_known_faults(known)
        metrics = {
            "points_per_s": {"value": loop.points_per_s(), "unit": "1/s"},
            "call_p50_ms": {"value": statistics.median(loop.times) * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        # untraced rounds, then traced rounds, both starting at the first
        # round; per-layer figures are those of the first traced round
        half = args.seconds / 2.0
        base_s, base_rounds = loop.run(half)
        plain_times = list(loop.times)
        tracer = tracing.Tracer()
        first_round = []

        def after_round():
            if not first_round:
                first_round.append((tracer.totals, tracer.self_s))
                tracer.keep_spans = False

        tracer.install()
        try:
            traced_s, traced_rounds = loop.run(half, wrap=tracer.root, after_round=after_round)
        finally:
            tracer.uninstall()
        problems, fallbacks, known = check_outputs(loop, main_fn)
        loop.count_known_faults(known)
        totals, self_s = first_round[0]
        metrics = per_layer(tracer.targets, totals, self_s,
                            sum(op.points for op in rounds[0]), fallbacks[0])
        overhead = (traced_s / traced_rounds) / (base_s / base_rounds) - 1.0
        metrics["import.fbsec_ms"] = {"value": import_ms[0], "unit": "ms"}
        metrics["import.scipy_ms"] = {"value": import_ms[1], "unit": "ms"}
        metrics["trace.overhead_pct"] = {"value": overhead * 100.0, "unit": "%"}
        tail = tail_percentile(plain_times)
        summary = {
            "workload": args.workload, "seed": args.seed,
            "untraced_rounds": base_rounds, "traced_rounds": traced_rounds,
            "round_s_untraced": base_s / base_rounds, "round_s_traced": traced_s / traced_rounds,
            "tracing_overhead_pct": overhead * 100.0, "absent": tracer.absent,
            "call_tail": tail, "metrics": metrics,
        }
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        write_trace(trace_path, tracer, summary)
        print(f"tracing overhead {overhead * 100.0:+.1f}% "
              f"({base_s / base_rounds:.3f} s/round untraced, {traced_s / traced_rounds:.3f} s/round traced)")
        if tracer.absent:
            print(f"absent (not found, reported as 0): {', '.join(tracer.absent)}")
        if tail:
            print(f"call p{tail['percentile']:g} {tail['ms']:.3f} ms over {tail['calls']} untraced calls")
        print(f"spans of the first traced round: {trace_path.relative_to(ROOT)}")

    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
