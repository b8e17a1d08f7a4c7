"""Arbitrary-parameter numerical path: transform inversion and quadrature.

For non-integer exponents the SNR law has no elementary form, so the
density and distribution are recovered by numerical inversion of the
rational-power transform along a deformed (cotangent) contour, and the
four secrecy metrics by one vector-valued adaptive Gauss-Kronrod pass
(:func:`numeric_metrics`) whose refinement rounds each evaluate every new
node in one kernel call per link.  The same routines also serve as the
independent cross-check for the Case-2 closed forms.

Contour choice: all transform singularities sit on the negative real axis
(the defining quadratic has non-negative discriminant), so a fixed-shape
cotangent contour is valid for every abscissa.  Its amplitude ``lam``
(= Re(s*t) at the contour apex) is capped at 10 instead of growing with
the node count: past that point the exp(lam)*eps rounding floor, not the
trapezoid truncation, limits double-precision accuracy (measured floor
~5e-12 at the cap, with the default 48 nodes well past convergence for
this amplitude), and a capped contour makes results stable under node
doubling (the documented convergence contract).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .casetwo import SecrecyConfig
from .errors import (
    AccuracyWarning,
    ConvergenceError,
    DomainError,
    InversionInstabilityError,
    ParameterError,
)
from .params import DerivedParams, FBParams, derive, merge_rate_groups

__all__ = [
    "InversionControl",
    "mgf",
    "pdf_numeric",
    "cdf_numeric",
    "asc_numeric",
    "sop_numeric",
    "sopl_numeric",
    "spsc_numeric",
    "numeric_metrics",
]

_LAM_CAP = 10.0
_NODE_FRACTION = 0.4  # classical amplitude rule lam = 0.4 * nodes, here capped
_PROBE_FRACTIONS = (0.3, 0.7, 1.0, 1.5, 2.5)
_PROBE_RTOL = 1e-6
# Least rounding noise assumed for a contour-sum distribution value, per
# unit of that value: the exp(lam) * eps floor of the capped contour
# (measured 1e-13 to 1e-12 on ordinary links).  Links whose node-doubling
# probe disagrees by more use that disagreement instead: large exponents
# on nearly cancelling factors raise the noise tenfold or more.
_KERNEL_NOISE = 1e-11
# Achieved error, per unit of max(|value|, 1e-2), past which a numeric
# metric comes with an AccuracyWarning: the bar of the closed-vs-numeric
# check.  Panels frozen at the noise floor can leave more than the
# requested tolerance on links whose probe disagreement nears _PROBE_RTOL.
_NOISE_BOUND = 1e-6
_METRICS = ("asc", "sop", "sopl", "spsc")


@dataclass(frozen=True)
class InversionControl:
    """Knobs for the inversion and quadrature paths.

    ``quad_max_subdiv`` is the panel budget of the adaptive quadrature.
    The metrics asked of one :func:`numeric_metrics` call share one mesh
    and so one budget: the call fails if any of them cannot converge in
    it.  Metrics not asked for neither refine the mesh nor fail the call.
    """

    talbot_nodes: int = 48
    quad_rel_tol: float = 1e-8
    quad_max_subdiv: int = 2000
    tail_cutoff_prob: float = 1e-10

    def __post_init__(self):
        if self.talbot_nodes < 16 or self.talbot_nodes % 2:
            raise ParameterError("talbot_nodes", f"must be even and >= 16, got {self.talbot_nodes!r}")
        for name in ("quad_rel_tol", "tail_cutoff_prob"):
            v = getattr(self, name)
            if not (0.0 < v <= 1e-3):
                raise ParameterError(name, f"must be in (0, 1e-3], got {v!r}")
        if self.quad_max_subdiv < 10:
            raise ParameterError("quad_max_subdiv", f"must be >= 10, got {self.quad_max_subdiv!r}")


def _lam_for(nodes: int) -> float:
    return min(_NODE_FRACTION * nodes, _LAM_CAP)


_PAIR_COEF_MIN = 256.0
_PAIR_REL_DIST = 0.1


def _stable_factors(dp: DerivedParams, avg_snr: float):
    """Split the transform factors into regular and stiff-pair groups.

    Exactly coinciding rates are merged first.  A remaining factor with a
    huge positive exponent (the no-shadowing surrogates put m ~ 1e6 here)
    sits a distance O(1/m) from a near-cancelling negative partner; the
    pair is evaluated jointly through log1p so the exponent never
    multiplies an O(ulp) log rounding error.
    """
    groups = merge_rate_groups(dp.theta_rates / avg_snr, dp.exponents)
    reg: list[tuple[complex, float]] = []
    pair_x: list[complex] = []
    pair_delta: list[complex] = []
    pair_coef: list[float] = []
    pos_big = [i for i, (_, a) in enumerate(groups) if a >= _PAIR_COEF_MIN]
    neg_big = [i for i, (_, a) in enumerate(groups) if a <= -_PAIR_COEF_MIN]
    taken: set[int] = set()
    paired_pos: set[int] = set()
    for i in pos_big:
        xi, ai = groups[i]
        cands = [j for j in neg_big if j not in taken]
        if not cands:
            continue
        j = min(cands, key=lambda j: abs(groups[j][0] - xi))
        xj, aj = groups[j]
        if abs(xi - xj) > _PAIR_REL_DIST * max(abs(xi), abs(xj)):
            continue
        # -ai log(s+xi) - aj log(s+xj) = -ai log1p((xi-xj)/(s+xj)) - (ai+aj) log(s+xj)
        pair_x.append(xj)
        pair_delta.append(xi - xj)
        pair_coef.append(ai)
        if abs(ai + aj) > 1e-12:
            reg.append((xj, ai + aj))
        taken.add(j)
        paired_pos.add(i)
    for idx, (x, a) in enumerate(groups):
        if idx in taken or idx in paired_pos:
            continue
        reg.append((x, a))
    return (
        np.ascontiguousarray([x for x, _ in reg], dtype=np.complex128),
        np.ascontiguousarray([a for _, a in reg], dtype=np.float64),
        np.ascontiguousarray(pair_x, dtype=np.complex128),
        np.ascontiguousarray(pair_delta, dtype=np.complex128),
        np.ascontiguousarray(pair_coef, dtype=np.float64),
    )


def mgf(dp: DerivedParams, avg_snr: float, s):
    """Transform value omega * prod_k (s + theta_k/avg_snr)^(-a_k).

    Analytic for Re(s) > 0; evaluated in log space, with near-cancelling
    factor pairs combined so the huge-``m`` reductions stay accurate.
    """
    factors = _stable_factors(dp, avg_snr)
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    ln = _kernels.log_transform(s_arr, *factors, dp.ln_omega, 0.0)
    out = np.exp(ln)
    return complex(out[0]) if np.isscalar(s) or np.asarray(s).ndim == 0 else out


class _Inverter:
    """Bound inversion state for one link (poles, contour, weights)."""

    def __init__(self, dp: DerivedParams, avg_snr: float, ctrl: InversionControl):
        self.factors = _stable_factors(dp, avg_snr)
        self.ln_omega = dp.ln_omega
        self.mu = dp.mu
        self.avg_snr = avg_snr
        self.ctrl = ctrl
        self.lam = _lam_for(ctrl.talbot_nodes)
        self.base, self.w = _kernels.contour_nodes(ctrl.talbot_nodes, self.lam)
        self.noise = _KERNEL_NOISE  # relative noise of a distribution value; see probe_check

    def _eval(self, g, s_pow, nodes=None, joint=False):
        if nodes is None:
            base, w, lam = self.base, self.w, self.lam
        else:
            lam = _lam_for(nodes)
            base, w = _kernels.contour_nodes(nodes, lam)
        return _kernels.talbot_sum(g, base, w, *self.factors, self.ln_omega, s_pow, lam, joint)

    def pdf(self, g):
        g = np.atleast_1d(np.asarray(g, dtype=float))
        out = np.zeros(g.shape)
        pos = g > 0
        out[pos] = self._eval(g[pos], 0.0)
        return np.clip(out, 0.0, None)

    def cdf(self, g, band_check: bool = False):
        g = np.atleast_1d(np.asarray(g, dtype=float))
        out = np.zeros(g.shape)
        pos = g > 0
        raw = self._eval(g[pos], 1.0)
        if band_check and raw.size and (raw.min() < -1e-7 or raw.max() > 1.0 + 1e-7):
            raise InversionInstabilityError(
                f"distribution value outside [0,1] band: [{raw.min():.3e}, {raw.max():.3e}]"
            )
        out[pos] = np.clip(raw, 0.0, 1.0)
        return out

    def pdf_cdf(self, g):
        """Density and distribution at ``g`` >= 0 from one joint kernel call."""
        out = np.zeros((2, len(g)))
        pos = g > 0
        out[:, pos] = self._eval(g[pos], 0.0, joint=True)
        return np.clip(out[0], 0.0, None), np.clip(out[1], 0.0, 1.0)

    def probe_check(self):
        """Compare the configured node count against twice the nodes.

        Relative disagreement beyond 1e-6 at body abscissae means the
        contour sum cannot be trusted for these parameters.  A floor tied
        to the largest probed density keeps far-tail jitter (absolute
        noise on a vanishing value) from tripping the check.  The
        disagreement, when above ``_KERNEL_NOISE``, becomes the link's
        noise level for the quadrature's roundoff floor.
        """
        g = self.avg_snr * np.asarray(_PROBE_FRACTIONS)
        v1 = self._eval(g, 0.0)
        v2 = self._eval(g, 0.0, nodes=2 * self.ctrl.talbot_nodes)
        floor = 1e-3 * float(np.max(np.abs(v1))) + 1e-300
        rel = np.abs(v1 - v2) / np.maximum(np.maximum(np.abs(v1), np.abs(v2)), floor)
        worst = float(rel.max())
        self.noise = max(_KERNEL_NOISE, worst)
        if worst > _PROBE_RTOL:
            raise InversionInstabilityError(
                f"node counts {self.ctrl.talbot_nodes} and {2*self.ctrl.talbot_nodes} "
                f"disagree by {worst:.2e} (> {_PROBE_RTOL:g})"
            )

    def upper_limit(self, eps: float) -> float:
        """Abscissa beyond which the survival mass is below ``eps``.

        Exponential (Chernoff-style) bound from the transform evaluated on
        the negative axis, optimised over a few fractions of the dominant
        decay rate.
        """
        poles, exps, pair_x, *_ = self.factors
        rates = [p.real for p, a in zip(poles, exps) if a > 0]
        rates += [x.real for x in pair_x]
        x_min = min(rates)
        best = math.inf
        for frac in (0.3, 0.5, 0.7, 0.9):
            t = frac * x_min
            s = np.array([complex(-t)])
            ln_m = _kernels.log_transform(s, *self.factors, self.ln_omega, 0.0)[0].real
            best = min(best, (ln_m - math.log(eps)) / t)
        return float(max(best, 10.0 * self.avg_snr))


def _scalar_or_array(x, out):
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def pdf_numeric(dp: DerivedParams, avg_snr: float, g, ctrl: InversionControl | None = None):
    """Density by contour inversion of the transform (g > 0, vectorised)."""
    ctrl = ctrl or InversionControl()
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    if np.any(g_arr <= 0):
        raise DomainError("pdf_numeric requires g > 0")
    inv = _Inverter(dp, avg_snr, ctrl)
    inv.probe_check()
    return _scalar_or_array(g, inv.pdf(g_arr))


def cdf_numeric(dp: DerivedParams, avg_snr: float, g, ctrl: InversionControl | None = None):
    """Distribution by contour inversion of transform/s (g >= 0, vectorised)."""
    ctrl = ctrl or InversionControl()
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    if np.any(g_arr < 0):
        raise DomainError("cdf_numeric requires g >= 0")
    inv = _Inverter(dp, avg_snr, ctrl)
    inv.probe_check()
    return _scalar_or_array(g, inv.cdf(g_arr, band_check=True))


# Gauss-Kronrod 10/21 rule (QUADPACK qk21): Kronrod nodes on [-1, 1] from the
# left end to the centre; the 10-point Gauss rule uses every second one.
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077582479625804, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.zeros(11)
_WG[1:10:2] = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_X21 = np.concatenate([-_XK, _XK[-2::-1]])
_W21 = np.concatenate([_WK, _WK[-2::-1]])
_WG21 = np.concatenate([_WG, _WG[-2::-1]])
_EPS = np.finfo(float).eps
_ABS_TOL = 1e-12


def _gk21(a, b, f):
    """G10K21 on every panel [a_k, b_k]: (integral, error, noise floor), each (c, n).

    ``f(x)`` returns the integrand values and their noise envelope, both
    ``(c, len(x))``, so one call covers the nodes of every panel.  The
    error is QUADPACK's scaled estimate, except where the Gauss-Kronrod
    difference is already within the noise floor (the integral of the
    envelope): that scaling assumes a smooth integrand and would turn noise
    into a large error, so the difference itself is the error there.
    """
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _X21[None, :]
    vals, noise = f(x.ravel())
    vals = vals.reshape(len(vals), len(a), 21)
    resk = vals @ _W21
    resasc = np.abs(vals - 0.5 * resk[..., None]) @ _W21
    diff = np.abs(resk - vals @ _WG21)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5), diff)
    scaled = np.maximum(scaled, 50.0 * _EPS * (np.abs(vals) @ _W21))
    floor = (noise.reshape(vals.shape) @ _W21) * half
    err = np.where(diff * half <= floor, diff * half, scaled * half)
    return resk * half, err, floor


def _adaptive_gk21(f, breaks, rel_tol, max_panels, want=None):
    """Vector-valued adaptive G10K21 quadrature over the panels between ``breaks``.

    Every round bisects the panels that carry the largest errors, chosen
    per component until the rest is within half that component's
    tolerance ``max(1e-12, rel_tol * |I_c|)``, and evaluates all new nodes
    in one call of ``f``.  A panel whose error is already below its noise
    floor is not split: the integrand cannot be resolved further.  Only
    the components flagged in the boolean mask ``want`` (default: all)
    steer the refinement and its stopping test; the others are integrated
    on the same mesh as they come.  Returns (integrals, achieved errors),
    each of length c; raises ConvergenceError when the next round would
    need more than ``max_panels`` panels.
    """
    breaks = np.asarray(breaks, dtype=float)
    a, b = breaks[:-1], breaks[1:]
    val, err, floor = _gk21(a, b, f)
    want = np.ones(len(val), dtype=bool) if want is None else np.asarray(want, dtype=bool)
    while True:
        total = val.sum(axis=1)
        tol = np.maximum(_ABS_TOL, rel_tol * np.abs(total))
        live = np.where(err > floor, err, 0.0)
        excess = np.where(want, live.sum(axis=1), 0.0)
        if np.all(excess <= tol):
            return total, err.sum(axis=1)
        split = np.zeros(len(a), dtype=bool)
        for c in np.flatnonzero(excess > tol):
            order = np.argsort(-live[c])
            done = np.cumsum(live[c][order])
            k = int(np.searchsorted(done, excess[c] - 0.5 * tol[c])) + 1
            split[order[:k]] = True
        idx = np.flatnonzero(split)
        if len(a) + len(idx) > max_panels:
            worst = int(np.argmax(excess / tol))
            raise ConvergenceError(
                f"quadrature did not converge in {len(a)} panels: error {err[worst].sum():.2e} "
                f"for value {total[worst]:.6e}",
                achieved=float(err[worst].sum()),
            )
        mid = 0.5 * (a[idx] + b[idx])
        ca = np.concatenate([a[idx], mid])
        cb = np.concatenate([mid, b[idx]])
        cval, cerr, cfloor = _gk21(ca, cb, f)
        keep = np.ones(len(a), dtype=bool)
        keep[idx] = False
        a = np.concatenate([a[keep], ca])
        b = np.concatenate([b[keep], cb])
        val = np.concatenate([val[:, keep], cval], axis=1)
        err = np.concatenate([err[:, keep], cerr], axis=1)
        floor = np.concatenate([floor[:, keep], cfloor], axis=1)


def _links(bob: FBParams, eve: FBParams, ctrl: InversionControl):
    inv_d = _Inverter(derive(bob), bob.avg_snr, ctrl)
    inv_e = _Inverter(derive(eve), eve.avg_snr, ctrl)
    inv_d.probe_check()
    inv_e.probe_check()
    return inv_d, inv_e


def numeric_metrics(
    bob: FBParams,
    eve: FBParams,
    cfg: SecrecyConfig,
    ctrl: InversionControl | None = None,
    metrics=_METRICS,
) -> tuple[dict[str, float], dict[str, float]]:
    """Secrecy metrics (``asc``, ``sop``, ``sopl``, ``spsc``) from one adaptive quadrature pass.

    Returns ``(values, errors)``: each maps every name in ``metrics`` to
    the metric and to the absolute error the quadrature achieved on it.
    Only those metrics steer the refinement and can fail the call.  The
    achieved error is within ``max(1e-12, quad_rel_tol * |I|)`` of each
    integral ``I`` unless contour-sum noise stops the refinement first;
    an error above ``1e-6 * max(|value|, 1e-2)`` then comes with an
    AccuracyWarning.  The integrals run over u = log1p(g), which compresses
    the tail, up to an exponential tail bound at the configured cutoff
    probability:

    - ASC = int F_E (1 - F_D) du, the layer-cake form of E[(ln(1+g_D) - ln(1+g_E))^+];
    - SOP, SOP^L and 1 - SPSC = int F_D(h(g)) f_E(g) e^u du with h(g) = theta g +
      theta - 1, theta g and g.

    All four share one mesh, so each refinement round costs one joint
    density+distribution kernel call for the eavesdropper and one
    distribution call for the main link.  The substitution u = v^q with
    q = max(1, 1/mu_E) removes the g^(mu_E - 1) singularity of the
    eavesdropper density at the origin.
    """
    unknown = sorted(set(metrics) - set(_METRICS))
    if unknown:
        raise ParameterError("metrics", f"unknown {unknown}; valid: {list(_METRICS)}")
    ctrl = ctrl or InversionControl()
    inv_d, inv_e = _links(bob, eve, ctrl)
    upper_e = inv_e.upper_limit(ctrl.tail_cutoff_prob)
    upper = max(inv_d.upper_limit(ctrl.tail_cutoff_prob), upper_e)
    theta = cfg.theta
    q = max(1.0, 1.0 / inv_e.mu)

    def integrand(v):
        u = v**q
        g = np.expm1(u)
        du = q * v ** (q - 1.0)
        pdf_e, cdf_e = inv_e.pdf_cdf(g)
        f_sop, f_sopl, f_g = np.split(
            inv_d.cdf(np.concatenate([theta * g + (theta - 1.0), theta * g, g])), 3
        )
        # the outage integrals stop at the eavesdropper's tail bound, past
        # which its density is contour-sum noise
        inside = g <= upper_e
        dens = np.where(inside, pdf_e * (g + 1.0) * du, 0.0)
        asc_factor = cdf_e * du
        vals = np.stack([asc_factor * (1.0 - f_g), f_sop * dens, f_sopl * dens, f_g * dens])
        # noise of a distribution value F is noise * F; of a density value
        # lam * noise * F / g, since its terms carry s = base / g, |base| ~ lam
        dens_noise = np.where(
            inside, (inv_e.lam * inv_e.noise * cdf_e / g + inv_d.noise * pdf_e) * (g + 1.0) * du, 0.0
        )
        asc_noise = asc_factor * (inv_e.noise + inv_d.noise)
        noise = np.stack([asc_noise, f_sop * dens_noise, f_sopl * dens_noise, f_g * dens_noise])
        return vals, noise

    hi = math.log1p(upper)
    marks = [math.log1p(s) for s in (bob.avg_snr, eve.avg_snr, upper_e) if 0.0 < math.log1p(s) < hi]
    breaks = np.unique([0.0, *marks, hi]) ** (1.0 / q)
    want = [name in metrics for name in _METRICS]
    total, err = _adaptive_gk21(integrand, breaks, ctrl.quad_rel_tol, ctrl.quad_max_subdiv, want)
    asc, sop, sopl, q_spsc = total.tolist()
    values = {"asc": asc, "sop": _prob(sop), "sopl": _prob(sopl), "spsc": 1.0 - _prob(q_spsc)}
    errors = dict(zip(_METRICS, err.tolist()))
    noisy = [
        f"{k} = {values[k]:.6e} (error {errors[k]:.1e})"
        for k in metrics
        if errors[k] > _NOISE_BOUND * max(abs(values[k]), 1e-2)
    ]
    if noisy:
        warnings.warn("limited by contour-sum noise: " + ", ".join(noisy), AccuracyWarning, stacklevel=2)
    return {k: values[k] for k in metrics}, {k: errors[k] for k in metrics}


def _prob(p: float) -> float:
    return min(1.0, max(0.0, p))


def asc_numeric(bob: FBParams, eve: FBParams, ctrl: InversionControl | None = None) -> float:
    """Average secrecy capacity (nats) by quadrature; see :func:`numeric_metrics`."""
    return numeric_metrics(bob, eve, SecrecyConfig(rate_rs=0.0), ctrl, ("asc",))[0]["asc"]


def sop_numeric(
    bob: FBParams, eve: FBParams, cfg: SecrecyConfig, ctrl: InversionControl | None = None
) -> float:
    """Secrecy outage probability by quadrature over the eavesdropper law."""
    return numeric_metrics(bob, eve, cfg, ctrl, ("sop",))[0]["sop"]


def sopl_numeric(
    bob: FBParams, eve: FBParams, cfg: SecrecyConfig, ctrl: InversionControl | None = None
) -> float:
    """Lower bound of the outage probability (threshold shift dropped)."""
    return numeric_metrics(bob, eve, cfg, ctrl, ("sopl",))[0]["sopl"]


def spsc_numeric(bob: FBParams, eve: FBParams, ctrl: InversionControl | None = None) -> float:
    """Probability of strictly positive secrecy capacity (= 1 - lower bound at theta 1)."""
    return numeric_metrics(bob, eve, SecrecyConfig(rate_rs=0.0), ctrl, ("spsc",))[0]["spsc"]
