"""Inputs of the three workloads, made from the workload seed.

A workload is a list of rounds, each a list of CLI calls (``Op``); the
benchmark runs whole rounds, cycling through the list.  Links are plain
dicts in the CLI's own terms (SNR in dB), so the same values feed the argv
strings and the reference sampler.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

KEYS = ("mu", "m", "kappa", "eta", "rho2", "snr_db")

# fig1 pair of the paper's capacity figures (README / tests/conftest.py)
FIG1_BOB = dict(mu=3.5, m=2.5, kappa=1.0, eta=0.1, rho2=0.1, snr_db=20.0)
FIG1_EVE = dict(mu=1.5, m=1.5, kappa=1.0, eta=0.1, rho2=0.1, snr_db=5.0)
# README Case-2 pair
README_BOB = dict(mu=4.0, m=2.0, kappa=1.5, eta=0.4, rho2=0.3, snr_db=12.0)
README_EVE = dict(mu=2.0, m=1.0, kappa=0.7, eta=2.0, rho2=1.5, snr_db=3.0)

# Sweep pairs: neither link is Case 2, so the closed route only refuses.
# The Bob snr_db is a placeholder; the lambda_db axis sets it per row.
SWEEP_PAIRS = {
    "fig1": (FIG1_BOB, FIG1_EVE),
    # stiff Beckmann surrogate (m ~ 1e6) as Bob
    "stiff": (dict(mu=1.0, m=1e6, kappa=1.5, eta=0.3, rho2=0.64, snr_db=20.0), FIG1_EVE),
    "noninteger-a": (dict(mu=2.7, m=1.8, kappa=3.2, eta=0.45, rho2=2.5, snr_db=20.0),
                     dict(mu=1.3, m=4.6, kappa=0.35, eta=2.2, rho2=0.6, snr_db=8.0)),
    "noninteger-b": (dict(mu=3.1, m=0.75, kappa=0.8, eta=1.7, rho2=0.25, snr_db=20.0),
                     dict(mu=0.8, m=2.3, kappa=6.0, eta=0.6, rho2=3.5, snr_db=2.0)),
}
SWEEP_START_DB, SWEEP_STOP_DB, SWEEP_STEP_DB = -10.0, 40.0, 2.0
SWEEP_RS = 1.0
# rows checked against the reference Monte Carlo: mid-range for every metric
SWEEP_MC_ROWS_DB = (10.0,)

VALIDATE_PAIRS = {
    "readme": (README_BOB, README_EVE),
    "fig1": (FIG1_BOB, FIG1_EVE),
    "case2-b": (dict(mu=6.0, m=3.0, kappa=2.5, eta=0.8, rho2=1.8, snr_db=15.0),
                dict(mu=4.0, m=4.0, kappa=0.5, eta=1.3, rho2=0.5, snr_db=6.0)),
}
VALIDATE_RS = 1.0
VALIDATE_MC_SAMPLES = 200_000

# Each closed-eval round holds every (Bob, Eve) combination of the link
# structures (mu, m) once, in seeded order with seeded continuous values:
# structure sets the cost of a closed-form call, so rounds cost the same
# from seed to seed, and a run covers several thousand distinct pairs.
# mu = 8 is left out: there the closed forms lose up to 25% on some pairs
# (CHANGES.md, FOUND), so the order check would fail on a seed-dependent
# few; KNOWN_FAULT_PAIR below is one of them.
STRUCTURES = tuple((mu, m) for mu in (2.0, 4.0, 6.0) for m in range(1, 9))
CLOSED_ROUNDS = 16
# Pairs with Bob - Eve outside this window are drawn again.  Outside it
# some outage probabilities come within 1e-6 of 0 or 1, where the closed
# forms are wrong by up to ~6e-7 and clip at 0 or 1; that breaks
# 1-SPSC <= SOP^L <= SOP on a seed-dependent few pairs (CHANGES.md, FOUND).
CLOSED_LAMBDA_DB = (2.0, 10.0)
# One fixed Case-2 pair the closed forms get wrong: SOP^L = 5.36e-3 above
# SOP = 4.57e-3, where the numeric route gives 5.56e-3 below 5.84e-3.  It
# ends every round and counts as failed while its output shows the fault.
KNOWN_FAULT_PAIR = (
    dict(mu=8.0, m=5.0, kappa=0.17655020417374986, eta=1.1120149700648747,
         rho2=0.16262928957661868, snr_db=22.36394962226311),
    dict(mu=8.0, m=8.0, kappa=0.12863355271648994, eta=0.7566779572553815,
         rho2=3.3353586798013706, snr_db=14.392154567693114),
)
KNOWN_FAULT_RS = 0.5
CLOSED_MC_CHECKS = 2        # pool entries checked against the reference sampler
CLOSED_NUMERIC_CHECKS = 4   # pool entries checked closed-vs-numeric


@dataclass(frozen=True)
class Op:
    """One CLI call and what the checks need to know about it."""

    kind: str                   # "sweep" | "eval" | "validate"
    label: str
    argv: tuple
    bob: dict
    eve: dict
    rs: float
    points: int                 # configurations the call finishes
    case2: bool                 # both links have even mu and integer m
    mc_rows_db: tuple = field(default=())   # sweep rows for the reference sampler
    known_fault: bool = False   # reproduces a FOUND fault: a broken check counts it failed


def link_spec(link: dict) -> str:
    # repr round-trips a float exactly through the CLI's float() parse
    return ",".join(f"{k}={float(link[k])!r}" for k in KEYS)


def is_case2(link: dict) -> bool:
    return float(link["mu"]) % 2.0 == 0.0 and float(link["m"]).is_integer()


def sweep_grid() -> list[float]:
    n = int(math.floor((SWEEP_STOP_DB - SWEEP_START_DB) / SWEEP_STEP_DB + 1e-9)) + 1
    return [SWEEP_START_DB + i * SWEEP_STEP_DB for i in range(n)]


def _numeric_sweep(rnd: random.Random) -> list[list[Op]]:
    ops = []
    for label, (bob, eve) in SWEEP_PAIRS.items():
        argv = ("sweep", "--bob", link_spec(bob), "--eve", link_spec(eve),
                "--axis", "lambda_db", "--start-db", repr(SWEEP_START_DB),
                "--stop-db", repr(SWEEP_STOP_DB), "--step-db", repr(SWEEP_STEP_DB),
                "--rs", repr(SWEEP_RS), "--metrics", "all")
        ops.append(Op("sweep", label, argv, bob, eve, SWEEP_RS, len(sweep_grid()),
                      False, SWEEP_MC_ROWS_DB))
    rnd.shuffle(ops)
    return [ops]


def _log_uniform(rnd: random.Random, lo: float, hi: float) -> float:
    return math.exp(rnd.uniform(math.log(lo), math.log(hi)))


def _case2_link(rnd: random.Random, structure: tuple, snr_db: float) -> dict:
    """Given (mu, m); kappa, eta and rho2 log-uniform in [0.1, 10]."""
    mu, m = structure
    return dict(mu=mu, m=float(m), kappa=_log_uniform(rnd, 0.1, 10.0),
                eta=_log_uniform(rnd, 0.1, 10.0), rho2=_log_uniform(rnd, 0.1, 10.0),
                snr_db=snr_db)


def draw_case2_pair(rnd: random.Random, bob_structure: tuple, eve_structure: tuple):
    """Bob 5-35 dB and Eve 0-15 dB, drawn again while Bob - Eve is outside the window."""
    lo, hi = CLOSED_LAMBDA_DB
    while True:
        bob_db, eve_db = rnd.uniform(5.0, 35.0), rnd.uniform(0.0, 15.0)
        if lo <= bob_db - eve_db <= hi:
            break
    return _case2_link(rnd, bob_structure, bob_db), _case2_link(rnd, eve_structure, eve_db)


def _eval_op(label, bob, eve, rs, **kw) -> Op:
    argv = ("eval", "--bob", link_spec(bob), "--eve", link_spec(eve),
            "--rs", repr(rs), "--metric", "all")
    return Op("eval", label, argv, bob, eve, rs, 1, True, **kw)


def _closed_eval(rnd: random.Random) -> list[list[Op]]:
    rounds = []
    for r in range(CLOSED_ROUNDS):
        combos = [(b, e) for b in STRUCTURES for e in STRUCTURES]
        rnd.shuffle(combos)
        ops = [_eval_op(f"round-{r}-pair-{i}", *draw_case2_pair(rnd, b, e), rnd.choice((0.5, 1.0, 2.0)))
               for i, (b, e) in enumerate(combos)]
        ops.append(_eval_op("known-fault", *KNOWN_FAULT_PAIR, KNOWN_FAULT_RS, known_fault=True))
        rounds.append(ops)
    return rounds


def _mc_validate(rnd: random.Random) -> list[list[Op]]:
    # No --seed: the report's sampling seed is the CLI default, the same on
    # every run.  validate's 3-standard-error verdict fails on a few percent
    # of seeds for correct code, so a seed that followed the workload seed
    # would make the failed share differ from run to run.
    ops = []
    for label, (bob, eve) in VALIDATE_PAIRS.items():
        argv = ("validate", "--bob", link_spec(bob), "--eve", link_spec(eve),
                "--rs", repr(VALIDATE_RS), "--mc-samples", str(VALIDATE_MC_SAMPLES))
        ops.append(Op("validate", label, argv, bob, eve, VALIDATE_RS, 1,
                      is_case2(bob) and is_case2(eve)))
    rnd.shuffle(ops)
    return [ops]


BUILDERS = {
    "numeric-sweep": _numeric_sweep,
    "closed-eval": _closed_eval,
    "mc-validate": _mc_validate,
}


def build(workload: str, seed: int) -> list[list[Op]]:
    """The rounds of calls for ``workload``; the same seed gives the same rounds."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
