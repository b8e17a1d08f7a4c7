"""Correctness checks on CLI outputs.

No check compares against stored output.  Each states a property the four
metrics must have, or compares two routes of fbsec, or compares fbsec with
the reference sampler in ``refmc``.  Every check returns a list of problems;
an empty list means it passed.  Comparisons are written so that NaN fails.
"""

from __future__ import annotations

import csv
import io
import json
import math

METRICS = ("asc", "sop", "sopl", "spsc")

# criterion 3 of tests/test_acceptance.py: relative above the 1e-2 scale
CRITERION3_REL = 1e-6
CRITERION3_FLOOR = 1e-2
# rows are printed to 12 digits; the numeric route's quad tolerance is 1e-8
ORDER_REL, ORDER_ABS = 1e-9, 1e-12
MONOTONE_REL = 1e-7
MC_SIGMAS = 4.0


def parse_eval(text: str) -> dict:
    rec = json.loads(text)
    return {"path": rec["path"], **{k: float(rec[k]) for k in METRICS}}


def parse_sweep(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ["x_db", *METRICS]:
        raise ValueError(f"unexpected sweep header {reader.fieldnames!r}")
    return [{k: float(v) for k, v in row.items()} for row in reader]


def parse_validate(text: str) -> dict:
    rec = json.loads(text)
    closed = rec["path_closed"] == "case2"
    return {
        "closed": {k: float(rec["metrics"][k]["closed"]) for k in METRICS} if closed else None,
        "numeric": {k: float(rec["metrics"][k]["numeric"]) for k in METRICS},
    }


def _le(a: float, b: float) -> bool:
    return a <= b + ORDER_REL * max(abs(a), abs(b)) + ORDER_ABS


def row_order(row: dict, where: str) -> list[str]:
    """0 <= 1-SPSC <= SOP^L <= SOP <= 1 and ASC >= 0."""
    bad = [f"{where}: {k}={row.get(k)!r} is not finite"
           for k in METRICS if not math.isfinite(row.get(k, math.nan))]
    if bad:
        return bad
    chain = [("0", 0.0), ("1-spsc", 1.0 - row["spsc"]), ("sopl", row["sopl"]),
             ("sop", row["sop"]), ("1", 1.0)]
    for (na, a), (nb, b) in zip(chain, chain[1:]):
        if not _le(a, b):
            bad.append(f"{where}: {na}={a!r} > {nb}={b!r}")
    if not _le(0.0, row["asc"]):
        bad.append(f"{where}: asc={row['asc']!r} < 0")
    return bad


def sweep_monotone(rows: list[dict], where: str) -> list[str]:
    """ASC must not fall and SOP must not rise as lambda rises."""
    bad = []
    for r0, r1 in zip(rows, rows[1:]):
        if not r1["x_db"] > r0["x_db"]:
            bad.append(f"{where}: x_db not increasing at {r1['x_db']!r}")
        tol_a = MONOTONE_REL * max(abs(r0["asc"]), abs(r1["asc"])) + ORDER_ABS
        if not r1["asc"] >= r0["asc"] - tol_a:
            bad.append(f"{where}: asc falls from {r0['asc']!r} to {r1['asc']!r} at {r1['x_db']} dB")
        tol_s = MONOTONE_REL * max(abs(r0["sop"]), abs(r1["sop"])) + ORDER_ABS
        if not r1["sop"] <= r0["sop"] + tol_s:
            bad.append(f"{where}: sop rises from {r0['sop']!r} to {r1['sop']!r} at {r1['x_db']} dB")
    return bad


def closed_vs_numeric(closed: dict, numeric: dict, where: str) -> list[str]:
    """Criterion 3: |c - n| / max(|c|, |n|, 1e-2) < 1e-6 for every metric."""
    bad = []
    for k in METRICS:
        c, n = closed[k], numeric[k]
        rel = abs(c - n) / max(abs(c), abs(n), CRITERION3_FLOOR)
        if not rel < CRITERION3_REL:
            bad.append(f"{where}: {k} closed={c!r} numeric={n!r} rel={rel:.2e}")
    return bad


def against_mc(values: dict, estimates: dict, where: str) -> list[str]:
    """Each metric within 4 standard errors of the reference sampler.

    For the probabilities the variance is the larger of the claimed value's
    p(1-p) and the sample's, so a wrong small value cannot pass on a zero
    count, and a zero sample count cannot reject a right one.
    """
    bad = []
    for k in METRICS:
        v, est = values[k], estimates[k]
        var = est.var if k == "asc" else max(v * (1.0 - v), est.var)
        tol = MC_SIGMAS * math.sqrt(max(var, 0.0) / est.n)
        if not abs(v - est.mean) <= tol:
            bad.append(f"{where}: {k}={v!r} vs sampled {est.mean!r} (4 sigma = {tol:.2e})")
    return bad
