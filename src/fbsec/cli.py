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
import io
import json
import math
import sys
import warnings
from statistics import NormalDist

from . import casetwo, inversion, montecarlo
from .casetwo import SecrecyConfig, link_expansion
from .errors import (
    CaseMismatchError,
    ConvergenceError,
    FbsecError,
    InversionInstabilityError,
    ParameterError,
)
from .inversion import InversionControl
from .montecarlo import MCConfig
from .params import (
    FBParams,
    db_to_linear,
    from_beckmann,
    from_eta_mu,
    from_kappa_mu_shadowed,
    from_nakagami,
    from_rayleigh,
    from_rician_shadowed,
)

METRICS = ("asc", "sop", "sopl", "spsc")
LN2 = math.log(2.0)

_LINK_KEYS = ("mu", "m", "kappa", "eta", "rho2", "snr_db")


def _parse_kv(text: str, what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ParameterError(what, f"expected k=v pairs, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise ParameterError(f"{what}.{key.strip()}", f"not a number: {val!r}") from None
    return out


def _parse_link(text: str, flag: str) -> FBParams:
    kv = _parse_kv(text, flag)
    unknown = set(kv) - set(_LINK_KEYS)
    if unknown:
        raise ParameterError(flag, f"unknown keys {sorted(unknown)!r}; valid: {list(_LINK_KEYS)}")
    missing = set(_LINK_KEYS) - set(kv)
    if missing:
        raise ParameterError(flag, f"missing keys {sorted(missing)!r}")
    return FBParams(
        mu=kv["mu"], m=kv["m"], kappa=kv["kappa"], eta=kv["eta"], rho2=kv["rho2"],
        avg_snr=db_to_linear(kv["snr_db"]),
    )


def _links_from_args(args) -> tuple[FBParams, FBParams]:
    if not args.bob:
        raise ParameterError("--bob", "is required")
    bob = _parse_link(args.bob, "--bob")
    if not args.eve:
        raise ParameterError("--eve", "is required")
    eve = bob if args.eve.strip() == "same" else _parse_link(args.eve, "--eve")
    return bob, eve


def _metric_list(text: str) -> list[str]:
    wanted = [m.strip() for m in text.split(",") if m.strip()]
    if "all" in wanted:
        return list(METRICS)
    for m in wanted:
        if m not in METRICS:
            raise ParameterError("--metric", f"unknown metric {m!r}; valid: {list(METRICS) + ['all']}")
    return wanted


def _control(args) -> InversionControl:
    return InversionControl(talbot_nodes=args.talbot_nodes, quad_rel_tol=args.quad_rel_tol)


def _closed_metrics(bob, eve, cfg, wanted):
    exp_d = link_expansion(bob)
    exp_e = link_expansion(eve)
    vals = {}
    for name in wanted:
        if name == "asc":
            vals[name] = casetwo.asc_case2(exp_d, exp_e)
        elif name == "sop":
            vals[name] = casetwo.sop_case2(exp_d, exp_e, cfg)
        elif name == "sopl":
            vals[name] = casetwo.sopl_case2(exp_d, exp_e, cfg)
        else:
            vals[name] = casetwo.spsc_case2(exp_d, exp_e)
    return vals


def _compute_metrics(bob, eve, rate_rs, wanted, ctrl):
    """Closed form when both links support it, numeric otherwise.

    The closed path is attempted whenever the expansions exist (net integer
    exponents after pole merging, which covers slightly more than the plain
    mu-even/m-integer test), and falls back on any numerical failure there.
    Returns (values, path, achieved quadrature errors or None).
    """
    cfg = SecrecyConfig(rate_rs=rate_rs)
    try:
        return _closed_metrics(bob, eve, cfg, wanted), "case2", None
    except (CaseMismatchError, ConvergenceError):
        pass
    vals, errs = inversion.numeric_metrics(bob, eve, cfg, ctrl, wanted)
    return vals, "numeric", errs


def _apply_units(vals: dict, units: str) -> dict:
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
    wanted = _metric_list(args.metric)
    ctrl = _control(args)
    vals, path, errs = _compute_metrics(bob, eve, args.rs, wanted, ctrl)
    vals = _apply_units(vals, args.units)
    record = dict(vals)
    record["path"] = path
    record["rs"] = args.rs
    record["units"] = args.units
    if path == "numeric":
        record["error_estimates"] = {
            "quad_rel_tol": ctrl.quad_rel_tol,
            "talbot_nodes": ctrl.talbot_nodes,
            "achieved": _apply_units(errs, args.units),
        }
    else:
        record["error_estimates"] = {"reconstruction_rel_tol": 1e-9}
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return 0


def _sweep_rows(args, bob, eve, wanted, ctrl):
    n_steps = int(math.floor((args.stop_db - args.start_db) / args.step_db + 1e-9)) + 1
    eve_db = 10.0 * math.log10(eve.avg_snr)
    scfg = SecrecyConfig(rate_rs=args.rs)
    rows = []
    for i in range(n_steps):
        x_db = args.start_db + i * args.step_db
        if args.axis == "lambda_db":
            bob_i = bob.with_snr(db_to_linear(eve_db + x_db))
        else:
            bob_i = bob.with_snr(db_to_linear(x_db))
        vals, _, _ = _compute_metrics(bob_i, eve, args.rs, wanted, ctrl)
        vals = _apply_units(vals, args.units)
        row = {"x_db": x_db, **{k: vals[k] for k in wanted}}
        if args.mc_samples:
            cfg = MCConfig(n_samples=args.mc_samples, seed=args.seed + i, n_streams=args.mc_streams)
            mc = montecarlo.estimate(bob_i, eve, scfg, cfg)
            for name in wanted:
                est = mc[name]
                mean = est.mean / LN2 if (name == "asc" and args.units == "bits") else est.mean
                se = est.std_error / LN2 if (name == "asc" and args.units == "bits") else est.std_error
                row[f"mc_mean_{name}"] = mean
                row[f"mc_se_{name}"] = se
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    bob, eve = _links_from_args(args)
    wanted = _metric_list(args.metrics)
    if args.step_db <= 0:
        raise ParameterError("--step-db", f"must be > 0, got {args.step_db!r}")
    if args.start_db > args.stop_db:
        raise ParameterError("--start-db", "must be <= --stop-db")
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
    cfg = MCConfig(n_samples=args.mc_samples or 1_000_000, seed=args.seed, n_streams=args.mc_streams)

    numeric, _ = inversion.numeric_metrics(bob, eve, scfg, ctrl)
    try:
        closed = _closed_metrics(bob, eve, scfg, METRICS)
    except (CaseMismatchError, ConvergenceError):
        closed = None
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

    ok = all(c["pass"] for c in comparisons)
    report = {
        "path_closed": "case2" if closed is not None else "n/a (case 1)",
        "metrics": {
            name: {
                "closed": closed[name] if closed is not None else None,
                "numeric": numeric[name],
                "mc_mean": mc[name].mean,
                "mc_std_error": mc[name].std_error,
            }
            for name in METRICS
        },
        "mc_samples": cfg.n_samples,
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
    kv = _parse_kv(args.params, "--params") if args.params else {}
    unknown = set(kv) - set(keys)
    if unknown:
        raise ParameterError("--params", f"unknown keys {sorted(unknown)!r}; family takes {list(keys)}")
    missing = set(keys) - set(kv)
    if missing:
        raise ParameterError("--params", f"missing keys {sorted(missing)!r}")
    params = ctor(*(kv[k] for k in keys), avg_snr=1.0)
    record = {"mu": params.mu, "m": params.m, "kappa": params.kappa,
              "eta": params.eta, "rho2": params.rho2}
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--bob", help="Bob link spec: mu=..,m=..,kappa=..,eta=..,rho2=..,snr_db=..")
    p.add_argument("--eve", help="Eve link spec (same keys), or 'same'")
    p.add_argument("--rs", type=float, default=0.0, help="target secrecy rate, nats (default 0)")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--mc-samples", type=int, default=None)
    p.add_argument("--mc-streams", type=int, default=8)
    p.add_argument("--talbot-nodes", type=int, default=48)
    p.add_argument("--quad-rel-tol", type=float, default=1e-8)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--config", default=None, help="JSON file of defaults; flags override")


def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fbsec", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate metrics for one configuration")
    _add_common(p_eval)
    p_eval.add_argument("--metric", default="all", help="asc|sop|sopl|spsc|all (comma list ok)")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="metrics along a dB axis")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=("lambda_db", "snr_bob_db"), default="lambda_db")
    p_sweep.add_argument("--start-db", type=float, required=True)
    p_sweep.add_argument("--stop-db", type=float, required=True)
    p_sweep.add_argument("--step-db", type=float, required=True)
    p_sweep.add_argument("--metrics", default="all", help="comma list of metrics (default all)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="three-way agreement report")
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_red = sub.add_parser("reduce", help="classical-family parameter embedding")
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


def _print_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args, remaining = parser.parse_known_args(argv)
    if remaining:
        print(f"unrecognised arguments: {remaining}", file=sys.stderr)
        return 2
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"--config: {exc}", file=sys.stderr)
            return 2
        args, _ = build_parser(defaults).parse_known_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, InversionInstabilityError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except FbsecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
