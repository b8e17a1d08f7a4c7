"""Arbitrary-parameter numerical path: transform inversion and quadrature.

For non-integer exponents the SNR law has no elementary form, so the
density and distribution are recovered by numerical inversion of the
rational-power transform along a deformed (cotangent) contour.  ASC comes
from an adaptive Gauss-Kronrod quadrature of those distributions, whose
refinement rounds each evaluate every new node in one kernel call per
link.  The outage metrics come from one Bromwich integral of the product
transform per (theta, z) problem, taken through its real saddle point
(:class:`_Bromwich`).
The same routines also serve as the independent cross-check for the
Case-2 closed forms.

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
from .errors import (
    AccuracyWarning,
    ConvergenceError,
    DomainError,
    InversionInstabilityError,
    ParameterError,
)
from .params import (
    METRICS,
    DerivedParams,
    FBParams,
    SecrecyConfig,
    check_metrics,
    derive,
    merge_rate_groups,
    outage_value,
)

__all__ = [
    "InversionControl",
    "mgf",
    "pdf_numeric",
    "cdf_numeric",
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
# panel budget of the ASC quadrature, and the survival probability past
# which its integral is cut
_MAX_PANELS = 2000
_TAIL_CUTOFF_PROB = 1e-10


@dataclass(frozen=True)
class InversionControl:
    """Knobs for the inversion and quadrature paths.

    ``talbot_nodes`` is the node count of the contour that inverts each
    link's distribution.  ``quad_rel_tol`` is the relative tolerance of the
    ASC quadrature and of the outage contours (relative to the smaller of
    P and 1 - P there).  The quadrature's panel budget (2000) and its tail
    cut (survival probability 1e-10) are fixed.
    """

    talbot_nodes: int = 48
    quad_rel_tol: float = 1e-8

    def __post_init__(self):
        if self.talbot_nodes < 16 or self.talbot_nodes % 2:
            raise ParameterError("talbot_nodes", f"must be even and >= 16, got {self.talbot_nodes!r}")
        if not (0.0 < self.quad_rel_tol <= 1e-3):
            raise ParameterError("quad_rel_tol", f"must be in (0, 1e-3], got {self.quad_rel_tol!r}")


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
    groups = [(x.real, a) for x, a in merge_rate_groups(dp.theta_rates / avg_snr, dp.exponents)]
    reg: list[tuple[float, float]] = []
    pair_x: list[float] = []
    pair_delta: list[float] = []
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
        np.array([x for x, _ in reg]),
        np.array([a for _, a in reg]),
        np.array(pair_x),
        np.array(pair_delta),
        np.array(pair_coef),
    )


def mgf(dp: DerivedParams, avg_snr: float, s):
    """Transform value omega * prod_k (s + theta_k/avg_snr)^(-a_k).

    Analytic for Re(s) > 0; evaluated in log space, with near-cancelling
    factor pairs combined so the huge-``m`` reductions stay accurate.
    """
    factors = _stable_factors(dp, avg_snr)
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    re, im = _kernels.log_transform(s_arr.real, s_arr.imag, 1.0, 0.0, *factors, dp.ln_omega)
    out = np.exp(re) * (np.cos(im) + 1j * np.sin(im))
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

    def _eval(self, g, s_pow, nodes=None):
        if nodes is None:
            base, w, lam = self.base, self.w, self.lam
        else:
            lam = _lam_for(nodes)
            base, w = _kernels.contour_nodes(nodes, lam)
        return _kernels.talbot_sum(g, base, w, *self.factors, self.ln_omega, s_pow, lam)

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
        x_min = min([p for p, a in zip(poles, exps) if a > 0] + list(pair_x))
        tau = x_min * np.array([0.3, 0.5, 0.7, 0.9])
        ln_m, _ = _kernels.log_transform(-tau, 0.0, 1.0, 0.0, *self.factors, self.ln_omega)
        best = float(np.min((ln_m - math.log(eps)) / tau))
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


def _adaptive_gk21(f, breaks, rel_tol, max_panels):
    """Vector-valued adaptive G10K21 quadrature over the panels between ``breaks``.

    Every round bisects the panels that carry the largest errors, chosen
    per component until the rest is within half that component's
    tolerance ``max(1e-12, rel_tol * |I_c|)``, and evaluates all new nodes
    in one call of ``f``.  A panel whose error is already below its noise
    floor is not split: the integrand cannot be resolved further.  Returns
    (integrals, achieved errors), each of length c; raises ConvergenceError
    when the next round would need more than ``max_panels`` panels.
    """
    breaks = np.asarray(breaks, dtype=float)
    a, b = breaks[:-1], breaks[1:]
    val, err, floor = _gk21(a, b, f)
    while True:
        total = val.sum(axis=1)
        tol = np.maximum(_ABS_TOL, rel_tol * np.abs(total))
        live = np.where(err > floor, err, 0.0)
        excess = live.sum(axis=1)
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
    return _Inverter(derive(bob), bob.avg_snr, ctrl), _Inverter(derive(eve), eve.avg_snr, ctrl)


def _asc(inv_d: _Inverter, inv_e: _Inverter, ctrl: InversionControl) -> tuple[float, float]:
    """ASC = int F_E (1 - F_D) du over u = log1p(g), with its achieved error.

    The layer-cake form of E[(ln(1+g_D) - ln(1+g_E))^+].  The integral runs
    up to an exponential tail bound at survival probability _TAIL_CUTOFF_PROB,
    on a mesh in v with u = v^q, q = max(1, 1/mu_E).  Both links' contour
    sums are probe-checked first.
    """
    inv_d.probe_check()
    inv_e.probe_check()
    upper_e = inv_e.upper_limit(_TAIL_CUTOFF_PROB)
    upper = max(inv_d.upper_limit(_TAIL_CUTOFF_PROB), upper_e)
    q = max(1.0, 1.0 / inv_e.mu)

    def integrand(v):
        u = v**q
        g = np.expm1(u)
        factor = inv_e.cdf(g) * (q * v ** (q - 1.0))
        # noise of a distribution value F is noise * F
        return (factor * (1.0 - inv_d.cdf(g)))[None], (factor * (inv_e.noise + inv_d.noise))[None]

    hi = math.log1p(upper)
    marks = [math.log1p(s) for s in (inv_d.avg_snr, inv_e.avg_snr, upper_e) if 0.0 < math.log1p(s) < hi]
    breaks = np.unique([0.0, *marks, hi]) ** (1.0 / q)
    total, err = _adaptive_gk21(integrand, breaks, ctrl.quad_rel_tol, _MAX_PANELS)
    return float(total[0]), float(err[0])


# Outage metrics: P(g_D - theta g_E < z) from one Bromwich integral each.
# crossing-point search: fractions of the way from the origin to the strip
# edge, geometric toward both ends, which keep c in the inner 99% of its
# interval (a 70% bound left sums 1e15 times their value on wide-box pairs
# whose saddle sits near the edge)
_EDGE_FRACTIONS = 1.0 / (1.0 + np.exp(-np.linspace(-18.0, math.log(99.0), 64)))
_NEWTON_STEPS = 4
_DECAY = 40.0       # e-folds of algebraic decay past the largest rate
_STEP = 0.1         # first trapezoid step in t; the first round also evaluates _STEP / 2
_MAX_NODES = 1 << 16  # per problem and step size
_LN_REACH = math.log(1e150)  # |s| stays below this, so |s|^2 stays finite
_OPENINGS = 4.0 ** -np.arange(5)  # z > 0 path openings tried, per unit of w
_PROBE_STEP = 0.5  # spacing in t of the probes that choose the opening
_GROWTH = 10.0  # largest probed term allowed, per unit of the term at t = 0
# Rounding floor of a contour sum, in ulps per unit of exponent and of the
# terms' log-space size: each log-term carries the rounding of its own
# evaluation and of the rates and log omega it is built from, which
# derive() delivers to a few ulps each (up to 45 on near-double roots).
_ULPS = 8.0


def _rates(factors) -> tuple[float, float]:
    """(nearest singularity, largest rate) of one link's transform factors.

    Poles (positive exponents), branch points (non-integer negative
    exponents) and both members of every stiff pair are singular; a
    numerator factor with an integer exponent is not.
    """
    poles, exps, pair_x, pair_delta, _ = factors
    members = [*pair_x, *(pair_x + pair_delta)]
    singular = [p for p, a in zip(poles, exps) if a > 0 or abs(a - round(a)) > 1e-9]
    return min(singular + members), max([*poles, *members])


def _log_derivatives(factors, y):
    """First and second derivatives of log M at real ``y`` inside the strip."""
    poles, exps, pair_x, pair_delta, pair_coef = factors
    y = np.asarray(y)[..., None]
    u = 1.0 / (y + poles)
    au = exps * u
    d1, d2 = -au.sum(-1), (au * u).sum(-1)
    if len(pair_x):
        # -c log1p(d / (y + x)) = c log(y + x) - c log(y + x + d), and u - v = d u v
        u, v = 1.0 / (y + pair_x), 1.0 / (y + pair_x + pair_delta)
        cduv = pair_coef * pair_delta * u * v
        d1 = d1 + cduv.sum(-1)
        d2 = d2 - (cduv * (u + v)).sum(-1)
    return d1, d2


class _Bromwich:
    """P(g_D - theta g_E < z) = (1/2 pi i) int M_D(s) M_E(-theta s) e^(sz) / s ds.

    The line crosses the real axis at ``c`` with ``0 < c < r_E / theta``
    (the integral is then P) or ``-r_D < c < 0`` (it is then P - 1), where
    r is a link's nearest singularity.  ``c`` is the real saddle point of
    phi(s) = log(M_D(s) M_E(-theta s) e^(sz) / s) on the side where phi is
    smaller, which makes that side's tail (P or 1 - P) the sum of terms of
    its own size.  The path is s(t) = c - beta (cosh t - 1) + i w sinh t,
    and by conjugate symmetry the integral is (1/pi) int_0^inf Im[F(s) s'(t)] dt,
    summed by the trapezoid rule with step halving.
    """

    def __init__(self, inv_d: _Inverter, inv_e: _Inverter):
        self.links = ((inv_d.factors, inv_d.ln_omega), (inv_e.factors, inv_e.ln_omega))
        self.r_d, self.big_d = _rates(inv_d.factors)
        self.r_e, self.big_e = _rates(inv_e.factors)
        self.decay = _DECAY / (inv_d.mu + inv_e.mu)
        # magnitude scales of the log's summands, for the rounding floor
        self.ln_omega_abs = abs(inv_d.ln_omega) + abs(inv_e.ln_omega)
        self.exps_abs = float(np.sum(np.abs(inv_d.factors[1])) + np.sum(np.abs(inv_e.factors[1])))
        # (x, |c delta|) of each stiff pair: its log-term is at most |c delta / (s + x)|
        self.pairs = [(f[2], np.abs(f[3] * f[4])) for f in (inv_d.factors, inv_e.factors)]

    def _log_m(self, sr, si, theta):
        """Real and imaginary parts of log M_D(s) + log M_E(-theta s)."""
        (f_d, ln_d), (f_e, ln_e) = self.links
        re_d, im_d = _kernels.log_transform(sr, si, 1.0, 0.0, *f_d, ln_d)
        re_e, im_e = _kernels.log_transform(-theta * sr, -theta * si, 1.0, 0.0, *f_e, ln_e)
        return re_d + re_e, im_d + im_e

    def _phi_derivatives(self, c, theta, z):
        """phi' and phi'' at real ``c``."""
        (f_d, _), (f_e, _) = self.links
        d1_d, d2_d = _log_derivatives(f_d, c)
        d1_e, d2_e = _log_derivatives(f_e, -theta * c)
        return z - 1.0 / c + d1_d - theta * d1_e, 1.0 / (c * c) + d2_d + theta**2 * d2_e

    def contour(self, theta, z):
        """Crossing point c, width w, opening beta and truncation T per problem.

        ``c`` comes from a 64-point search on each side and at most four
        safeguarded Newton steps on phi'.  ``w = min(phi''^-1/2, distance
        to the nearest singularity)``.  For z = 0 the path is the vertical
        line (beta = 0); for z > 0 it opens left so that e^(sz) decays, as
        wide as possible: see :meth:`_opening`.
        """
        n = len(theta)
        m = len(_EDGE_FRACTIONS)
        edge = np.stack([self.r_e / theta, np.full(n, -self.r_d)], axis=1)  # (n, side)
        grid = (edge[..., None] * _EDGE_FRACTIONS).reshape(n, 2 * m)
        phi = self._log_m(grid, 0.0, theta[:, None])[0] + z[:, None] * grid - np.log(np.abs(grid))
        # the side with the smaller saddle value, and its bracketing grid neighbours
        rows = np.arange(n)
        j = np.argmin(phi, axis=1)
        side, k = np.divmod(j, m)
        c = grid[rows, j]
        nb = grid[rows[:, None], side[:, None] * m + np.clip(k[:, None] + [-1, 1], 0, m - 1)]
        lo, hi = nb.min(axis=1), nb.max(axis=1)
        edge = edge[rows, side]
        done = np.zeros(n, dtype=bool)  # per problem, so a batch gives each one's solo result
        for i in range(_NEWTON_STEPS + 1):
            d1, d2 = self._phi_derivatives(c, theta, z)
            step = c - d1 / d2
            done |= np.abs(step - c) <= 1e-9 * np.abs(c)
            if i == _NEWTON_STEPS or done.all():
                break
            lo = np.where(d1 < 0.0, c, lo)
            hi = np.where(d1 > 0.0, c, hi)
            c = np.where(done, c, np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi)))
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.minimum(np.where(d2 > 0.0, 1.0 / np.sqrt(d2), np.inf), np.minimum(np.abs(c), np.abs(edge - c)))
        beta = np.zeros(n)
        pos = np.flatnonzero(z > 0.0)
        if pos.size:
            beta[pos] = self._opening(c[pos], w[pos], theta[pos], z[pos])
        return c, w, beta, self._truncation(w, beta, theta, z)

    def _truncation(self, w, beta, theta, z):
        """T: the algebraic decay starts past every rate; for z > 0, e^(sz) cuts it short."""
        t_max = np.arcsinh(np.maximum(self.big_d, self.big_e / theta) / w) + self.decay
        with np.errstate(divide="ignore"):
            return np.minimum(t_max, np.where(z > 0.0, np.log(80.0 / (beta * z) + 1.0) + 2.0, np.inf))

    def _opening(self, c, w, theta, z):
        """beta for z > 0: the widest of w, w/4, ..., w/256 on which no probed term exceeds
        ``_GROWTH`` times the one at t = 0.

        Opening left leads past Bob's singularities, where a large exponent
        or a stiff pair (the no-shadowing surrogates) makes M_D grow by many
        orders: the sum would then cancel far beyond its value.
        """
        n, k = len(c), len(_OPENINGS)
        beta = w[:, None] * _OPENINGS  # (n, k)
        t_max = self._truncation(w[:, None], beta, theta[:, None], z[:, None])
        top = min(t_max.max(), (_LN_REACH - np.log(w)).min())
        t = _PROBE_STEP * np.arange(int(np.ceil(top / _PROBE_STEP)) + 1)  # t[0] = 0: the saddle
        shape = (n, k, t.size)

        def grid(x):
            return np.broadcast_to(x[:, None, None], shape)

        with np.errstate(over="ignore"):  # only the logs are read: a grown term may overflow
            _, _, re = self.terms(np.broadcast_to(t, shape), grid(c), grid(w),
                                  np.broadcast_to(beta[..., None], shape), grid(theta), grid(z))
        peak = np.max(np.where(t <= t_max[..., None], re, -np.inf), axis=-1)
        grows = peak > re[:, :1, 0] + math.log(_GROWTH)
        # the first opening that does not grow, else the narrowest
        j = np.where(grows.all(axis=1), k - 1, np.argmin(grows, axis=1))
        return beta[np.arange(n), j]

    def terms(self, t, c, w, beta, theta, z):
        """Im[F(s) s'(t)] at every node, a bound on its rounding error, and log|F(s) s'(t)|."""
        sh = np.sinh(t)
        sr = c - beta * (2.0 * np.sinh(0.5 * t) ** 2)  # cosh t - 1 without cancellation
        si = w * sh
        dr, di = -beta * sh, w * np.cosh(t)  # s'(t)
        re, im = self._log_m(sr, si, theta)
        abs_s = np.hypot(sr, si)
        ln_s = np.log(abs_s)
        ln_ds = np.log(np.hypot(dr, di))
        re = re + z * sr - ln_s + ln_ds
        im = im + z * si - np.arctan2(si, sr) + np.arctan2(di, dr)
        mag = np.exp(re)
        # every summand of the log carries a rounding error of eps times its
        # size; a factor's |log(s + p)| is at most the larger of |log(|s| + R)|
        # and |log dist|, dist >= w max(1, sinh t) / 2 from s to any singularity
        dist = 0.5 * w * np.maximum(1.0, sh)
        big = np.maximum(self.big_d, self.big_e / theta)
        ln_fac = np.maximum(np.abs(np.log(abs_s + big)), np.abs(np.log(dist)))
        size = (
            self.ln_omega_abs
            + self.exps_abs * (ln_fac + np.abs(np.log(theta)) + math.pi)
            + z * (np.abs(sr) + si)
            + np.abs(ln_s) + np.abs(ln_ds) + 2.0 * math.pi
        )
        for (pair_x, c_delta), scale in zip(self.pairs, (1.0, -theta)):  # Bob at s, Eve at -theta s
            for x, cd in zip(pair_x, c_delta):
                size = size + cd / np.hypot(scale * sr + x, scale * si)
        return mag * np.sin(im), mag * size, re

    def integrals(self, theta, z, rel_tol):
        """(I, achieved absolute error, c < 0) per (theta, z) problem.

        I is P where c > 0 and P - 1 where c < 0: the smaller tail with
        its sign, kept apart from 1 so that it keeps its relative accuracy.
        """
        c, w, beta, t_max = self.contour(theta, z)
        if np.any(np.log(w) + t_max > _LN_REACH):
            raise ConvergenceError(
                f"outage contour: the transform decays too slowly to truncate (mu_D + mu_E = "
                f"{_DECAY / self.decay:.3g})"
            )
        n = len(theta)
        step = np.full(n, 0.5 * _STEP)
        count = 2 * np.ceil(t_max / _STEP).astype(int)  # intervals at the current step
        coarse = np.zeros(n)  # trapezoid sums at steps 2 * step and step, unscaled
        fine = np.zeros(n)
        noise = np.zeros(n)
        value = np.zeros(n)
        err = np.zeros(n)
        live = np.arange(n)
        first = True
        while live.size:
            if np.any(count[live] > _MAX_NODES):
                raise ConvergenceError(f"outage contour did not converge in {_MAX_NODES} nodes per problem")
            # the nodes new at this step, all of them at first and then the odd ones
            k = [np.arange(0, count[i] + 1) if first else np.arange(1, count[i], 2) for i in live]
            pos = np.repeat(np.arange(live.size), [len(ki) for ki in k])
            k = np.concatenate(k)
            j = live[pos]
            f, bound, _ = self.terms(k * step[j], c[j], w[j], beta[j], theta[j], z[j])
            if first:
                half = np.where(k == 0, 0.5, 1.0)  # the trapezoid end weight at t = 0
                f, bound = f * half, bound * half
                fine[live] = np.bincount(pos, f * (k % 2 == 0), live.size)
            coarse[live] = fine[live]
            fine[live] += np.bincount(pos, f * (k % 2 == 1) if first else f, live.size)
            noise[live] += np.bincount(pos, bound, live.size)
            h = step[live]
            now = h / math.pi * fine[live]
            diff = np.abs(2.0 * h / math.pi * coarse[live] - now)
            # halving stops at the tolerance or at the sum's own rounding noise;
            # the reported floor also covers the rounding of the rates and log
            # omega, which each exponent multiplies
            noisy = _ULPS * _EPS * (h / math.pi * noise[live])
            done = diff <= np.maximum(rel_tol * np.minimum(np.abs(now), 1.0 - np.abs(now)), noisy)
            value[live] = now
            err[live] = diff + (self.exps_abs + 1.0) * noisy
            live = live[~done]
            step[live] *= 0.5
            count[live] *= 2
            first = False
        return value, err, c < 0.0

    def metrics(self, cfg: SecrecyConfig, rel_tol: float, metrics):
        """(values, errors) of the outage metrics named in ``metrics``, one integral per problem."""
        problems = cfg.outage_problems(metrics)
        keys = sorted(set(problems.values()))
        tail, err, upper = self.integrals(np.array([k[0] for k in keys]), np.array([k[1] for k in keys]),
                                          rel_tol)
        prob = dict(zip(keys, np.where(upper, 1.0 + tail, tail).tolist()))
        error = dict(zip(keys, err.tolist()))
        return ({k: outage_value(k, prob[pz]) for k, pz in problems.items()},
                {k: error[pz] for k, pz in problems.items()})


def numeric_metrics(
    bob: FBParams,
    eve: FBParams,
    cfg: SecrecyConfig,
    ctrl: InversionControl | None = None,
    metrics=METRICS,
) -> tuple[dict[str, float], dict[str, float]]:
    """Secrecy metrics (``asc``, ``sop``, ``sopl``, ``spsc``) for any parameters.

    Returns ``(values, errors)``: each maps every name in ``metrics`` to
    the metric and to its achieved absolute error.  ASC comes from an
    adaptive quadrature of contour-inverted distributions (:func:`_asc`),
    whose error is within ``max(1e-12, quad_rel_tol * |ASC|)`` unless
    contour-sum noise stops the refinement first.  The outage metrics are
    P(g_D - theta g_E < z) at the (theta, z) problems of
    ``cfg.outage_problems``, each one saddle-point contour of the product
    transform (:class:`_Bromwich`); problems with equal (theta, z) are
    computed once.  Each contour's step halves until two successive
    trapezoid sums agree within ``quad_rel_tol`` of the smaller of P and
    1 - P, or within the rounding floor that the terms' log-space
    magnitudes set; its error is that last difference plus the floor, and
    past a fixed node budget it raises ConvergenceError.  An error above
    ``1e-6 * max(|value|, 1e-2)`` comes with an AccuracyWarning.
    """
    check_metrics(metrics)
    ctrl = ctrl or InversionControl()
    inv_d, inv_e = _links(bob, eve, ctrl)
    values, errors = {}, {}
    if "asc" in metrics:
        values["asc"], errors["asc"] = _asc(inv_d, inv_e, ctrl)
    outage = [k for k in metrics if k != "asc"]
    if outage:
        vals, errs = _Bromwich(inv_d, inv_e).metrics(cfg, ctrl.quad_rel_tol, outage)
        values.update(vals)
        errors.update(errs)
    noisy = [
        f"{k} = {values[k]:.6e} (error {errors[k]:.1e})"
        for k in metrics
        if errors[k] > _NOISE_BOUND * max(abs(values[k]), 1e-2)
    ]
    if noisy:
        warnings.warn("limited by contour-sum noise: " + ", ".join(noisy), AccuracyWarning, stacklevel=2)
    return {k: values[k] for k in metrics}, {k: errors[k] for k in metrics}
