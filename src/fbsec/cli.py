"""Command-line front end: point evaluation, sweeps, validation, reductions.

Subcommands
-----------
eval      one (Bob, Eve) configuration -> requested metrics as JSON
sweep     metrics along a dB axis -> CSV (or JSON) rows
validate  closed-form / numeric / Monte Carlo three-way agreement report
reduce    parameter embeddings of classical fading families

SNRs cross this boundary in dB and are converted with 10**(dB/10); the
library API is linear-only.  Metrics are reported in nats by default
(``--units bits`` divides capacity values by ln 2; probabilities are
unitless either way).  The target secrecy rate ``--rs`` is always in nats.

Exit codes: 0 ok, 2 usage/validation, 3 numerical non-convergence,
4 validation-report failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import sys
import warnings
from statistics import NormalDist

from . import casetwo, inversion, montecarlo
from .errors import CaseMismatchError, ConvergenceError, FbsecError, ParameterError
from .inversion import InversionControl
from .montecarlo import MCConfig
from .params import (
    METRICS,
    FBParams,
    SecrecyConfig,
    check_metrics,
    db_to_linear,
    from_beckmann,
    from_eta_mu,
    from_kappa_mu_shadowed,
    from_nakagami,
    from_rayleigh,
    from_rician_shadowed,
    linear_to_db,
)

LN2 = math.log(2.0)
_log = logging.getLogger("fbsec")

_LINK_KEYS = ("mu", "m", "kappa", "eta", "rho2", "snr_db")
# rows a sweep takes: each keeps about 1.5 kB (a 10,001-row fig1 sweep peaked 15 MB
# above a 26-row one), so the largest stays near 150 MB
_MAX_SWEEP_ROWS = 100_000
# the flags with a fixed set of values, by destination
_CHOICES = {"format": ("csv", "json"), "units": ("nats", "bits"), "axis": ("lambda_db", "snr_bob_db")}


def _parse_keys(text: str, flag: str, keys) -> dict[str, float]:
    """The ``k=v`` pairs of ``text`` as floats, which must name exactly ``keys``, each once."""
    out: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ParameterError(flag, f"expected k=v pairs, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key in out:
            raise ParameterError(f"{flag}.{key}", "given more than once")
        try:
            out[key] = float(val)
        except ValueError:
            raise ParameterError(f"{flag}.{key}", f"not a number: {val!r}") from None
    unknown = set(out) - set(keys)
    if unknown:
        raise ParameterError(flag, f"unknown keys {sorted(unknown)!r}; valid: {list(keys)}")
    missing = set(keys) - set(out)
    if missing:
        raise ParameterError(flag, f"missing keys {sorted(missing)!r}")
    return out


def _snr(x_db: float, flag: str) -> float:
    """``x_db`` as a linear SNR, or a ParameterError for ``flag`` past either end of the float range."""
    try:
        snr = db_to_linear(x_db)
    except OverflowError:
        raise ParameterError(flag, f"a mean SNR of {x_db!r} dB is past the float range") from None
    if snr == 0.0:
        raise ParameterError(flag, f"a mean SNR of {x_db!r} dB underflows to 0")
    return snr


def _parse_link(text: str, flag: str) -> FBParams:
    kv = _parse_keys(text, flag, _LINK_KEYS)
    return FBParams(
        mu=kv["mu"], m=kv["m"], kappa=kv["kappa"], eta=kv["eta"], rho2=kv["rho2"],
        avg_snr=_snr(kv["snr_db"], f"{flag}.snr_db"),
    )


def _links_from_args(args) -> tuple[FBParams, FBParams]:
    if not args.bob:
        raise ParameterError("--bob", "is required")
    bob = _parse_link(args.bob, "--bob")
    if not args.eve:
        raise ParameterError("--eve", "is required")
    eve = bob if args.eve.strip() == "same" else _parse_link(args.eve, "--eve")
    return bob, eve


def _metric_list(text: str, flag: str) -> list[str]:
    wanted = [m.strip() for m in text.split(",") if m.strip()]
    if not wanted:
        raise ParameterError(flag, f"names no metric: {text!r}")
    if "all" in wanted:
        return list(METRICS)
    check_metrics(wanted, flag)
    return wanted


def _control(args) -> InversionControl:
    return InversionControl(quad_rel_tol=args.quad_rel_tol)


def _closed_or_none(bob, eve, cfg, wanted=METRICS):
    """(the closed route's metrics, None), or (None, its refusal) where it refuses the pair.

    It takes the pairs whose net rate exponents are integers (slightly more
    than the plain mu-even/m-integer test) and whose values its rounding bounds accept.  A
    refusal is logged at INFO on the ``fbsec`` logger, class and message.
    """
    try:
        return casetwo.closed_metrics(bob, eve, cfg, wanted), None
    except (CaseMismatchError, ConvergenceError) as exc:
        _log.info("closed route refused: %s: %s", type(exc).__name__, exc)
        return None, exc


def _apply_units(vals: dict, units: str) -> dict:
    """``vals`` (metric name -> value or error) in ``units``; only ASC is a capacity."""
    if units != "bits":
        return vals
    return {k: (v / LN2 if k == "asc" else v) for k, v in vals.items()}


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    bob, eve = _links_from_args(args)
    wanted = _metric_list(args.metric, "--metric")
    ctrl = _control(args)
    cfg = SecrecyConfig(rate_rs=args.rs)
    # the closed form when the closed route takes the pair, the numeric route otherwise
    vals, _ = _closed_or_none(bob, eve, cfg, wanted)
    if vals is None:
        vals, errs = inversion.numeric_metrics(bob, eve, cfg, ctrl, wanted)
        path = "numeric"
        estimates = {"quad_rel_tol": ctrl.quad_rel_tol, "achieved": _apply_units(errs, args.units)}
    else:
        path, estimates = "case2", {"bounded_rel_tol": casetwo._BOUNDED_REL_TOL}
    record = {**_apply_units(vals, args.units), "path": path, "rs": args.rs, "units": args.units,
              "error_estimates": estimates}
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def _sweep_rows(args, bob, eve, wanted, ctrl):
    """One row per step: the closed route where it takes the row, else one numeric call for all
    the rows it refuses, which solves them as one contour batch."""
    n_steps = int(math.floor((args.stop_db - args.start_db) / args.step_db + 1e-9)) + 1
    eve_db = linear_to_db(eve.avg_snr)
    scfg = SecrecyConfig(rate_rs=args.rs)
    xs = [args.start_db + i * args.step_db for i in range(n_steps)]
    bobs = []
    for x_db in xs:
        snr_db = eve_db + x_db if args.axis == "lambda_db" else x_db
        # a mean SNR underflows at the low end of a sweep and overflows at the high end
        bobs.append(bob.with_snr(_snr(snr_db, "--start-db" if snr_db < 0.0 else "--stop-db")))
    values = [_closed_or_none(bob_i, eve, scfg, wanted)[0] for bob_i in bobs]
    todo = [i for i, vals in enumerate(values) if vals is None]
    if todo:
        try:
            numeric = inversion.numeric_metrics([bobs[i] for i in todo], eve, scfg, ctrl, wanted)
        except ConvergenceError as exc:  # exc.row: the index in the rows sent
            raise ConvergenceError(f"row x_db = {xs[todo[exc.row]]:.12g}: {exc}", exc.achieved) from None
        for i, (vals, _) in zip(todo, numeric):
            values[i] = vals
    rows = []
    for i, (x_db, bob_i, vals) in enumerate(zip(xs, bobs, values)):
        vals = _apply_units(vals, args.units)
        row = {"x_db": x_db, **{k: vals[k] for k in wanted}}
        if args.mc_samples:
            cfg = MCConfig(n_samples=args.mc_samples, seed=args.seed + i, n_streams=args.mc_streams)
            mc = montecarlo.estimate(bob_i, eve, scfg, cfg)
            means = _apply_units({name: mc[name].mean for name in wanted}, args.units)
            errors = _apply_units({name: mc[name].std_error for name in wanted}, args.units)
            for name in wanted:
                row[f"mc_mean_{name}"] = means[name]
                row[f"mc_se_{name}"] = errors[name]
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    bob, eve = _links_from_args(args)
    wanted = _metric_list(args.metrics, "--metrics")
    for flag, value in (("--start-db", args.start_db), ("--stop-db", args.stop_db), ("--step-db", args.step_db)):
        if not math.isfinite(value):
            raise ParameterError(flag, f"must be finite, got {value!r}")
    if args.step_db <= 0:
        raise ParameterError("--step-db", f"must be > 0, got {args.step_db!r}")
    if args.start_db > args.stop_db:
        raise ParameterError("--start-db", "must be <= --stop-db")
    count = (args.stop_db - args.start_db) / args.step_db + 1.0
    if not count <= _MAX_SWEEP_ROWS:  # an infinite count too
        raise ParameterError("--step-db", f"too small for the range: {args.step_db!r} makes {count:.6g} rows, "
                                          f"past the {_MAX_SWEEP_ROWS} that a sweep takes")
    ctrl = _control(args)
    rows = _sweep_rows(args, bob, eve, wanted, ctrl)
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow(f"{row[k]:.12g}" for k in header)
    _emit(buf.getvalue(), args.out)
    return 0


# Family-wise error rate of validate's Monte Carlo comparisons: two-sided 3 sigma
FAMILY_WISE_LEVEL = 0.0027
_SLACK = 1e-9  # absolute allowance, as for an estimate whose standard error is 0


def _holm_comparisons(sampled, level):
    """Test each value against its Monte Carlo estimate by Holm's step-down.

    Holm (Scand. J. Statist. 6, 1979): with the two-sided normal p-values
    sorted, the k-th smallest of m is tested at ``level / (m - k)`` (k from
    0), until the first one that passes; it and all larger ones pass.  The
    chance that correct code fails any comparison is then at most
    ``level``.  Each comparison reports the difference it would pass at
    its own step as ``threshold``.
    """
    unit = NormalDist()
    rows = []
    for metric, pair, value, est in sampled:
        delta = abs(value - est.mean)
        excess = max(delta - _SLACK, 0.0)
        z = excess / est.std_error if est.std_error > 0.0 else (0.0 if excess == 0.0 else math.inf)
        rows.append((2.0 * unit.cdf(-z), metric, pair, delta, est.std_error))
    order = sorted(range(len(rows)), key=lambda i: rows[i][0])
    out = [None] * len(rows)
    rejecting = True
    for k, i in enumerate(order):
        p, metric, pair, delta, se = rows[i]
        step = level / (len(rows) - k)
        rejecting = rejecting and p <= step
        out[i] = {"metric": metric, "pair": pair, "delta": delta,
                  "threshold": unit.inv_cdf(1.0 - step / 2.0) * se + _SLACK,
                  "kind": "holm-std-err", "pass": not rejecting}
    return out


def cmd_validate(args) -> int:
    bob, eve = _links_from_args(args)
    ctrl = _control(args)
    scfg = SecrecyConfig(rate_rs=args.rs)
    cfg = MCConfig(n_samples=args.mc_samples, seed=args.seed, n_streams=args.mc_streams)

    numeric, _ = inversion.numeric_metrics(bob, eve, scfg, ctrl)
    closed, refusal = _closed_or_none(bob, eve, scfg)
    mc = montecarlo.estimate(bob, eve, scfg, cfg)

    comparisons = []
    sampled = []  # (metric, pair, value, estimate): tested together below
    for name in METRICS:
        if closed is not None:
            delta = abs(closed[name] - numeric[name])
            rel = 1e-6 * max(abs(closed[name]), abs(numeric[name]), 1e-9)
            comparisons.append({"metric": name, "pair": "case2-vs-numeric", "delta": delta,
                                "threshold": rel, "kind": "relative-1e-6", "pass": bool(delta <= rel)})
            sampled.append((name, "case2-vs-mc", closed[name], mc[name]))
        sampled.append((name, "numeric-vs-mc", numeric[name], mc[name]))
    comparisons += _holm_comparisons(sampled, FAMILY_WISE_LEVEL)

    ok = all(c["pass"] for c in comparisons)  # verdicts are taken in nats
    for c in comparisons:
        for key in ("delta", "threshold"):
            c[key] = _apply_units({c["metric"]: c[key]}, args.units)[c["metric"]]
    columns = {
        "closed": _apply_units(closed, args.units) if closed is not None else dict.fromkeys(METRICS),
        "numeric": _apply_units(numeric, args.units),
        "mc_mean": _apply_units({name: mc[name].mean for name in METRICS}, args.units),
        "mc_std_error": _apply_units({name: mc[name].std_error for name in METRICS}, args.units),
    }
    report = {
        # a Case-2 pair whose values the closed route refused on their bounds is not case 1
        "path_closed": "case2" if closed is not None else (
            "n/a (case 1)" if isinstance(refusal, CaseMismatchError) else f"refused: {refusal}"),
        "units": args.units,
        "metrics": {name: {col: vals[name] for col, vals in columns.items()} for name in METRICS},
        "mc_samples": cfg.n_samples,
        "mc_streams": cfg.n_streams,
        "seed": cfg.seed,
        "family_wise_level": FAMILY_WISE_LEVEL,
        "comparisons": comparisons,
        "pass": ok,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    if not ok:
        failing = [f"{c['metric']}:{c['pair']}" for c in comparisons if not c["pass"]]
        print(f"validation failed: {', '.join(failing)}", file=sys.stderr)
        return 4
    return 0


_FAMILIES = {
    "rayleigh": (from_rayleigh, ()),
    "nakagami": (from_nakagami, ("m",)),
    "kappa-mu-shadowed": (from_kappa_mu_shadowed, ("kappa", "mu", "m")),
    "rician-shadowed": (from_rician_shadowed, ("kappa", "m")),
    "eta-mu": (from_eta_mu, ("eta", "mu")),
    "beckmann": (from_beckmann, ("K", "q", "r")),
}


def cmd_reduce(args) -> int:
    if args.family not in _FAMILIES:
        raise ParameterError("family", f"unknown family {args.family!r}; valid: {sorted(_FAMILIES)}")
    ctor, keys = _FAMILIES[args.family]
    kv = _parse_keys(args.params, "--params", keys)
    params = ctor(*(kv[k] for k in keys), avg_snr=1.0)
    record = {"mu": params.mu, "m": params.m, "kappa": params.kappa,
              "eta": params.eta, "rho2": params.rho2}
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _node_count(text: str) -> int:
    nodes = int(text)
    if nodes < 16 or nodes % 2:
        raise argparse.ArgumentTypeError(f"must be even and >= 16, got {nodes}")
    return nodes


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--bob", help="Bob link spec: mu=..,m=..,kappa=..,eta=..,rho2=..,snr_db=..")
    p.add_argument("--eve", help="Eve link spec (same keys), or 'same'")
    p.add_argument("--rs", type=float, default=0.0, help="target secrecy rate, nats (default 0)")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--mc-samples", type=int, default=None)
    p.add_argument("--mc-streams", type=int, default=8)
    p.add_argument("--talbot-nodes", type=_node_count, default=None,
                   help="accepted for compatibility; it no longer steers anything")
    p.add_argument("--quad-rel-tol", type=float, default=1e-8)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=_CHOICES["format"], default="csv")
    p.add_argument("--units", choices=_CHOICES["units"], default="nats")
    p.add_argument("--config", default=None, help="JSON file of defaults; flags override")


def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    # with config defaults, a value that its flag's type rejects raises
    # ArgumentError, which main reports as the config's
    kw = {"exit_on_error": config_defaults is None}
    parser = argparse.ArgumentParser(prog="fbsec", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter, **kw)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate metrics for one configuration", **kw)
    _add_common(p_eval)
    p_eval.add_argument("--metric", default="all", help="asc|sop|sopl|spsc|all (comma list ok)")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="metrics along a dB axis", **kw)
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=_CHOICES["axis"], default="lambda_db")
    p_sweep.add_argument("--start-db", type=float, required=True)
    p_sweep.add_argument("--stop-db", type=float, required=True)
    p_sweep.add_argument("--step-db", type=float, required=True)
    p_sweep.add_argument("--metrics", default="all", help="comma list of metrics (default all)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="three-way agreement report", **kw)
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate, mc_samples=1_000_000)

    p_red = sub.add_parser("reduce", help="classical-family parameter embedding", **kw)
    p_red.add_argument("family", help="|".join(sorted(_FAMILIES)))
    p_red.add_argument("--params", default="", help="family parameters, k=v comma list")
    p_red.add_argument("--out", default=None)
    p_red.set_defaults(func=cmd_reduce)

    if config_defaults:
        # subparser defaults shadow the top-level ones, so push the config
        # values into every subcommand; explicit flags still win
        safe = {k: v for k, v in config_defaults.items() if k not in ("func", "command")}
        for sp in (p_eval, p_sweep, p_val, p_red):
            sp.set_defaults(**safe)
    return parser


# the parser of the built-in defaults: built by main's first call, then shared
_default_parser = functools.cache(build_parser)


def _read_config(path: str) -> dict:
    """The defaults of a ``--config`` file: a JSON object of strings and numbers.

    Each key names a subcommand's flag by its destination (``quad_rel_tol``),
    and each number becomes the text of that flag, so the flag's own type
    converts and checks it as it would on the command line.  argparse does
    not hold defaults to a flag's choices, so those are checked here.
    """
    with open(path) as fh:
        defaults = json.load(fh)
    if not isinstance(defaults, dict):
        raise ValueError(f"expected a JSON object, got {json.dumps(defaults)[:40]}")
    sub = next(a for a in _default_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in sub.choices.values() for a in p._actions if a.option_strings} - {"help"}
    for key, value in defaults.items():
        if key not in dests:
            raise ValueError(f"{key!r}: unknown key; valid: {sorted(dests)}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"{key!r}: expected a string or a number, got {json.dumps(value)[:40]}")
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ValueError(f"{key!r}: invalid choice {json.dumps(value)[:40]}; valid: {list(_CHOICES[key])}")
    return {key: value if isinstance(value, str) else repr(value) for key, value in defaults.items()}


def _print_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args, remaining = _default_parser().parse_known_args(argv)
    if remaining:
        print(f"unrecognised arguments: {remaining}", file=sys.stderr)
        return 2
    if getattr(args, "config", None):
        try:
            args, _ = build_parser(_read_config(args.config)).parse_known_args(argv)
        except (OSError, ValueError, argparse.ArgumentError) as exc:
            print(f"--config: {exc}", file=sys.stderr)
            return 2
    if getattr(args, "talbot_nodes", None) is not None:
        print("notice: --talbot-nodes no longer steers anything; the outage contour is the only "
              "numeric engine", file=sys.stderr)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except FbsecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
