"""Arbitrary-parameter numerical path: transform inversion and quadrature.

For non-integer exponents the SNR law has no elementary form, so the
density and distribution are recovered by numerical inversion of the
rational-power transform along a deformed (cotangent) contour, and the
secrecy metrics by adaptive quadrature of their defining integrals.  The
same routines also serve as the independent cross-check for the Case-2
closed forms.

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
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import _kernels
from .casetwo import SecrecyConfig
from .errors import ConvergenceError, DomainError, InversionInstabilityError, ParameterError
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
]

_LAM_CAP = 10.0
_NODE_FRACTION = 0.4  # classical amplitude rule lam = 0.4 * nodes, here capped
_PROBE_FRACTIONS = (0.3, 0.7, 1.0, 1.5, 2.5)
_PROBE_RTOL = 1e-6


@dataclass(frozen=True)
class InversionControl:
    """Knobs for the inversion and quadrature paths."""

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
        noise on a vanishing value) from tripping the check.
        """
        g = self.avg_snr * np.asarray(_PROBE_FRACTIONS)
        v1 = self._eval(g, 0.0)
        v2 = self._eval(g, 0.0, nodes=2 * self.ctrl.talbot_nodes)
        floor = 1e-3 * float(np.max(np.abs(v1))) + 1e-300
        rel = np.abs(v1 - v2) / np.maximum(np.maximum(np.abs(v1), np.abs(v2)), floor)
        worst = float(rel.max())
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


def _quad(f, lo, hi, ctrl, points=None):
    res = integrate.quad(
        f,
        lo,
        hi,
        epsabs=1e-12,
        epsrel=ctrl.quad_rel_tol,
        limit=ctrl.quad_max_subdiv,
        points=points,
        full_output=1,
    )
    val, err = res[0], res[1]
    if len(res) > 3:  # warning message attached
        if err > max(10.0 * ctrl.quad_rel_tol * abs(val), 1e-10):
            raise ConvergenceError(
                f"quadrature did not converge: estimate {err:.2e} for value {val:.6e}",
                achieved=err,
            )
    return val, err


def _log_substituted(f):
    # u = log1p(g) compresses the tail; integrand picks up the Jacobian e^u
    def g_of_u(u):
        g = math.expm1(u)
        return f(g) * (g + 1.0)

    return g_of_u


def _interior_marks(snrs, hi):
    marks = sorted({math.log1p(s) for s in snrs if 0.0 < math.log1p(s) < hi})
    return marks or None


def _links(bob: FBParams, eve: FBParams, ctrl: InversionControl):
    inv_d = _Inverter(derive(bob), bob.avg_snr, ctrl)
    inv_e = _Inverter(derive(eve), eve.avg_snr, ctrl)
    inv_d.probe_check()
    inv_e.probe_check()
    return inv_d, inv_e


def asc_numeric(bob: FBParams, eve: FBParams, ctrl: InversionControl | None = None) -> float:
    """Average secrecy capacity (nats) by quadrature of its defining integrals.

    Evaluated as I1 + J with J the merged form of I2 - I3 (the integrand
    carries F_D - 1, avoiding the cancellation of two O(1) integrals); the
    value is identical.  Integration runs in log1p coordinates so the tail
    is compressed; the upper limit comes from an exponential tail bound at
    the configured cutoff probability.
    """
    ctrl = ctrl or InversionControl()
    inv_d, inv_e = _links(bob, eve, ctrl)
    upper = max(
        inv_d.upper_limit(ctrl.tail_cutoff_prob), inv_e.upper_limit(ctrl.tail_cutoff_prob)
    )

    def i1(g):
        return math.log1p(g) * float(inv_d.pdf(g)[0]) * float(inv_e.cdf(g)[0])

    def j(g):
        return math.log1p(g) * float(inv_e.pdf(g)[0]) * (float(inv_d.cdf(g)[0]) - 1.0)

    hi = math.log1p(upper)
    marks = _interior_marks((bob.avg_snr, eve.avg_snr), hi)
    v1, _ = _quad(_log_substituted(i1), 0.0, hi, ctrl, points=marks)
    v2, _ = _quad(_log_substituted(j), 0.0, hi, ctrl, points=marks)
    return v1 + v2


def sop_numeric(
    bob: FBParams, eve: FBParams, cfg: SecrecyConfig, ctrl: InversionControl | None = None
) -> float:
    """Secrecy outage probability by quadrature over the eavesdropper law."""
    return _outage(bob, eve, cfg.theta, shift=True, ctrl=ctrl)


def sopl_numeric(
    bob: FBParams, eve: FBParams, cfg: SecrecyConfig, ctrl: InversionControl | None = None
) -> float:
    """Lower bound of the outage probability (threshold shift dropped)."""
    return _outage(bob, eve, cfg.theta, shift=False, ctrl=ctrl)


def spsc_numeric(bob: FBParams, eve: FBParams, ctrl: InversionControl | None = None) -> float:
    """Probability of strictly positive secrecy capacity (= 1 - lower bound at theta 1)."""
    return 1.0 - sopl_numeric(bob, eve, SecrecyConfig(rate_rs=0.0), ctrl)


def _outage(bob, eve, theta, shift, ctrl):
    ctrl = ctrl or InversionControl()
    inv_d, inv_e = _links(bob, eve, ctrl)
    upper = inv_e.upper_limit(ctrl.tail_cutoff_prob)
    off = theta - 1.0 if shift else 0.0

    def integrand(g):
        return float(inv_d.cdf(theta * g + off)[0]) * float(inv_e.pdf(g)[0])

    hi = math.log1p(upper)
    marks = _interior_marks((bob.avg_snr, eve.avg_snr), hi)
    val, _ = _quad(_log_substituted(integrand), 0.0, hi, ctrl, points=marks)
    return min(1.0, max(0.0, val))

