"""Arbitrary-parameter numerical path: every metric from one saddle-point contour.

For non-integer exponents the SNR law has no elementary form, but every
metric is a probability P(g_D - theta g_E < z) or an integral of one, and
that probability is one Bromwich integral of the product transform
M_D(s) M_E(-theta s) e^(sz) / s, taken through its real saddle point
(:class:`_Bromwich`).  SOP, SOP^L and SPSC are one such problem each.  ASC
is the layer-cake integral of E[(C_D - C_E)^+],

    ASC = int_0^inf (1 - SOP(R)) dR,    SOP(R) = P(g_D - e^R g_E < e^R - 1),

the area under the secrecy outage curve, by Gauss-Legendre panels in R
whose nodes are contour problems of the same batch (:class:`_AscRule`).
The Case-2 closed forms run the same batch driver (:func:`_batch`) on the
same links (:class:`_Link`), with residue sums as its node solver in place
of contours.  Their outage values are independent of this route's; their
ASCs share the rule (panels, null-rule estimate, tail cut and the bound
past it), so comparing them checks only the node solver.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from . import _kernels
from .errors import AccuracyWarning, ConvergenceError, ParameterError
from .params import (
    METRICS,
    FBParams,
    SecrecyConfig,
    check_metrics,
    derive,
    link_factors,
    outage_value,
)

__all__ = ["InversionControl", "numeric_metrics"]

# Achieved error, per unit of max(|value|, 1e-2), past which a numeric
# metric comes with an AccuracyWarning: the bar of the closed-vs-numeric
# check.
_NOISE_BOUND = 1e-6


@dataclass(frozen=True)
class InversionControl:
    """Knobs for the numeric path.

    ``quad_rel_tol`` is the relative tolerance of the outage contours
    (relative to the smaller of P and 1 - P there) and of ASC's
    quadrature over R.
    """

    quad_rel_tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.quad_rel_tol <= 1e-3):
            raise ParameterError("quad_rel_tol", f"must be in (0, 1e-3], got {self.quad_rel_tol!r}")


_PAIR_COEF_MIN = 256.0
_PAIR_REL_DIST = 0.1
_CHERNOFF_FRACTIONS = np.array([0.3, 0.5, 0.7, 0.9])  # of the nearest singularity: Chernoff bounds' t


def _paired(x, delta, c) -> bool:
    """Whether a root (exponent ``c``) ``delta`` from its partner x is evaluated with it as a
    stiff pair, through log1p, so that the exponent never multiplies an O(ulp) log rounding
    error: the no-shadowing surrogates put m ~ 1e6 on a root O(1/m) from its partner."""
    return c >= _PAIR_COEF_MIN and abs(delta) <= _PAIR_REL_DIST * x


class _Link:
    """One link's transform, worked out once: all that the contour reads of the link.

    It holds ``factors`` (the columns poles, exps, pair_x, pair_delta, pair_coef of
    :func:`~fbsec.params.link_factors` with :func:`_paired`), ``ln_omega``, ``mu``, ``avg_snr``, the
    nearest singularity ``r`` and largest rate ``big`` (:func:`_rates`), ``exps_abs`` = sum |a|,
    and each stiff pair's (x, |c delta|) in ``pairs``: its log-term is at most |c delta / (s + x)|.
    ``dp`` and ``factors`` are its ``derive`` and (regular, pairs), where the caller has them.
    """

    def __init__(self, params: FBParams, dp=None, factors=None):
        dp = derive(params) if dp is None else dp
        regular, pairs = link_factors(dp, params.avg_snr, _paired) if factors is None else factors
        self.factors = (*np.array(regular).reshape(-1, 2).T, *np.array(pairs).reshape(-1, 3).T)
        self.ln_omega = dp.ln_omega
        self.mu = dp.mu
        self.avg_snr = params.avg_snr
        self.r, self.big = _rates(regular, pairs)
        self.exps_abs = float(np.abs(self.factors[1]).sum())
        self.pairs = [(x, abs(delta * c)) for x, delta, c in pairs]

    def log_m(self, sr, si, phase=True):
        """Real and imaginary parts of log M(s) at s = sr + i si; the real part alone, and None,
        without ``phase``."""
        return _kernels.log_transform(sr, si, *self.factors, self.ln_omega, phase)

    def upper_limit(self, eps: float) -> tuple[float, np.ndarray]:
        """Abscissa beyond which the survival mass is below ``eps``, and ln M at the Chernoff points.

        Exponential (Chernoff-style) bound from the transform evaluated on
        the negative axis, optimised over a few fractions of the nearest
        singularity; the values of ln M there come back with the limit.
        """
        tau = self.r * _CHERNOFF_FRACTIONS
        # a distance that underflows makes the limit infinite, or not a number
        # where two such logs cancel; either way no finite cut is found
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_m, _ = self.log_m(-tau, 0.0, phase=False)
        return max(float(((ln_m - math.log(eps)) / tau).min()), 10.0 * self.avg_snr), ln_m


# Outage metrics: P(g_D - theta g_E < z) from one Bromwich integral each.
# crossing-point search: fractions of the way from the origin to the strip
# edge, geometric toward both ends, which keep c in the inner 99% of its
# interval (a 70% bound left sums 1e15 times their value on wide-box pairs
# whose saddle sits near the edge)
_EDGE_FRACTIONS = 1.0 / (1.0 + np.exp(-np.linspace(-18.0, math.log(99.0), 64)))
_NEWTON_STEPS = 4
# e-folds that a path's terms fall past its truncation: by algebraic decay
# past the largest rate, or for z > 0 by e^(sz) (see _Bromwich._truncation)
_DECAY = 40.0
# first trapezoid step in t, checked against the sum at 2 _STEP of its even nodes;
# the rule converges exponentially on this analytic path, so the first pass
# mostly meets the tolerance and the rest take one halving
_STEP = 0.1
_MAX_NODES = 1 << 16  # per problem and step size
# nodes per terms or probe call: a batch of many problems (a sweep) is worked in
# pieces of whole problems no larger than this, unless one problem alone is larger,
# so its temporaries stay those of one pair's batch
_CHUNK_NODES = 1 << 12
_LN_REACH = math.log(1e150)  # |s| and Eve's |theta s| stay below this, so their squares stay finite
_OPENINGS = 4.0 ** -np.arange(5)  # z > 0 path openings tried, per unit of w
_PROBE_STEP = 0.5  # spacing in t of the probes that choose the opening
_GROWTH = 10.0  # largest probed term allowed, per unit of the term at t = 0
# Rounding floor of a contour sum, in ulps per unit of exponent and of the
# terms' log-space size: each log-term carries the rounding of its own
# evaluation and of the rates and log omega it is built from, which
# derive() delivers to a few ulps each (up to 45 on near-double roots).
_ULPS = 8.0
_EPS = np.finfo(float).eps


def _rates(regular, pairs) -> tuple[float, float]:
    """(nearest singularity, largest rate) of one link's (regular, pairs) factors.

    Poles (positive exponents), branch points (non-integer negative
    exponents) and both members of every stiff pair are singular; a
    numerator factor with an integer exponent is not.
    """
    members = [x for x, _, _ in pairs] + [x + delta for x, delta, _ in pairs]
    singular = [p for p, a in regular if a > 0 or abs(a - round(a)) > 1e-9]
    return min(singular + members), max([p for p, _ in regular] + members)


def _ragged(counts):
    """(owner, index) of each entry of a ragged layout in which owner i holds 0 .. counts[i] - 1."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _chunks(counts):
    """Slices of consecutive problems whose ``counts`` add up to at most ``_CHUNK_NODES``
    (one problem at least)."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + _CHUNK_NODES, side="right")), start + 1)
        yield slice(start, stop)
        start = stop


def _log_derivatives(factors, y, second=True):
    """First and second derivatives of log M at real ``y`` inside the strip; the first alone,
    and None, without ``second``."""
    poles, exps, pair_x, pair_delta, pair_coef = factors
    y = np.asarray(y)[..., None]
    u = 1.0 / (y + poles)
    au = exps * u
    d1, d2 = -au.sum(-1), (au * u).sum(-1) if second else None
    if len(pair_x):
        # -c log1p(d / (y + x)) = c log(y + x) - c log(y + x + d), and u - v = d u v
        u, v = 1.0 / (y + pair_x), 1.0 / (y + pair_x + pair_delta)
        cduv = pair_coef * pair_delta * u * v
        d1 = d1 + cduv.sum(-1)
        if second:
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

    def __init__(self, link_d: _Link, link_e: _Link):
        self.d, self.e = link_d, link_e
        self.decay = _DECAY / (link_d.mu + link_e.mu)

    def _log_m(self, sr, si, theta, phase=True):
        """Real and imaginary parts of log M_D(s) + log M_E(-theta s); the real part alone, and
        None, without ``phase``."""
        re_d, im_d = self.d.log_m(sr, si, phase)
        re_e, im_e = self.e.log_m(-theta * sr, -theta * si, phase)
        return re_d + re_e, im_d + im_e if phase else None

    def _phi_derivatives(self, c, theta, z, second=True):
        """phi' and phi'' at real ``c``; phi' alone, and None, without ``second``."""
        d1_d, d2_d = _log_derivatives(self.d.factors, c, second)
        d1_e, d2_e = _log_derivatives(self.e.factors, -theta * c, second)
        d1 = z - 1.0 / c + d1_d - theta * d1_e
        return d1, 1.0 / (c * c) + d2_d + theta**2 * d2_e if second else None

    def saddle_start(self, theta, z):
        """The first guess at c, the bracket (lo, hi) around it and its side's edge, per problem.

        The candidates on each side are the points ``edge * _EDGE_FRACTIONS``,
        from next to 0 out to 99% of the way to the strip edge.  phi is
        convex on each side (a cumulant generating function plus -log|s|),
        so along them its derivative taken outward, away from 0, changes sign
        once: a bisection on that sign finds each side's first point k where
        it is >= 0 in seven steps, and the side's least phi is at k - 1 or k.
        Of those four points, the first with the least phi in side-major
        order is the guess, and its neighbours on its side are the bracket.
        """
        n, m = len(theta), len(_EDGE_FRACTIONS)
        edge = np.stack([self.e.r / theta, np.full(n, -self.d.r)], axis=1)  # (n, side)
        theta, z = theta[:, None], z[:, None]
        lo, hi = np.zeros((n, 2), dtype=int), np.full((n, 2), m)  # the first point with phi' >= 0 outward
        # an underflowed distance makes phi' infinite, or not a number where two such terms
        # cancel (read as falling); the bisection reads the slope alone
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(m.bit_length()):
                mid = (lo + hi) // 2
                d1, _ = self._phi_derivatives(edge * _EDGE_FRACTIONS[np.minimum(mid, m - 1)], theta, z,
                                              second=False)
                rising = d1 * [1.0, -1.0] >= 0.0
                hi = np.where(rising, mid, hi)
                lo = np.where(rising, lo, np.minimum(mid + 1, hi))
        rows = np.arange(n)
        k = np.clip(lo[..., None] + [-1, 0], 0, m - 1).reshape(n, 4)  # (n, side-major candidates)
        side = np.repeat([[0, 1]], 2, axis=1)
        points = edge[rows[:, None], side] * _EDGE_FRACTIONS[k]
        # a distance that underflows makes phi infinite there, or not a number where two such logs cancel
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = self._log_m(points, 0.0, theta, phase=False)[0] + z * points - np.log(np.abs(points))
        j = np.argmin(phi, axis=1)
        side, k = side[0, j], k[rows, j]
        edge = edge[rows, side]
        nb = edge[:, None] * _EDGE_FRACTIONS[np.clip(k[:, None] + [-1, 1], 0, m - 1)]
        return points[rows, j], nb.min(axis=1), nb.max(axis=1), edge

    def contour(self, theta, z):
        """Crossing point c, width w, opening beta and truncation T per problem.

        ``c`` starts from :meth:`saddle_start` and takes at most four
        safeguarded Newton steps on phi'.  ``w = min(phi''^-1/2, distance
        to the nearest singularity)``.  For z = 0 the path is the vertical
        line (beta = 0); for z > 0 it opens left so that e^(sz) decays, as
        wide as possible: see :meth:`_opening`.  T is where the terms have
        fallen ``_DECAY`` e-folds (:meth:`_truncation`).  Every step works on
        each problem alone, so a problem's path does not depend on its batch.
        """
        n = len(theta)
        c, lo, hi, edge = self.saddle_start(theta, z)
        done = np.zeros(n, dtype=bool)  # per problem, so a batch gives each one's solo result
        # theta^2 phi_E'' overflows where Eve's theta s nears the float range: refused below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for i in range(_NEWTON_STEPS + 1):
                d1, d2 = self._phi_derivatives(c, theta, z)
                step = c - d1 / d2
                done |= np.abs(step - c) <= 1e-9 * np.abs(c)
                if i == _NEWTON_STEPS or done.all():
                    break
                lo = np.where(d1 < 0.0, c, lo)
                hi = np.where(d1 > 0.0, c, hi)
                c = np.where(done, c, np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi)))
            w = np.minimum(np.where(d2 > 0.0, 1.0 / np.sqrt(d2), np.inf), np.minimum(np.abs(c), np.abs(edge - c)))
        no_width = ~(w > 0.0)  # zero or not a number
        if no_width.any():
            i = int(np.flatnonzero(no_width)[0])
            raise ConvergenceError(f"outage contour: phi'' at the saddle point overflows, so the path has no "
                                   f"width (Eve's transform at theta s nears the float range, "
                                   f"ln theta = {math.log(theta[i]):.4g})", row=i)
        beta = np.zeros(n)
        pos = np.flatnonzero(z > 0.0)
        if pos.size:
            beta[pos] = self._opening(c[pos], w[pos], theta[pos], z[pos])
        return c, w, beta, self._truncation(w, beta, theta, z)

    def _truncation(self, w, beta, theta, z):
        """T, the end of the path in t: where its terms have fallen ``_DECAY`` e-folds.

        Past |s| = every rate (t = arcsinh(rate / w)) a term decays
        algebraically, as |s|^-(mu_D + mu_E), so ``self.decay`` more in t
        makes the ``_DECAY`` e-folds.  For z > 0, e^(sz) falls by
        beta z (cosh t - 1) e-folds, which reaches ``_DECAY`` at
        t = arccosh(1 + y), y = _DECAY / (beta z), and T is the sooner of the two.
        """
        t_max = np.arcsinh(np.maximum(self.d.big, self.e.big / theta) / w) + self.decay
        # beta = 0 (z = 0) makes y infinite, and so the algebraic cut
        with np.errstate(divide="ignore", over="ignore"):
            y = _DECAY / (beta * z)
            return np.minimum(t_max, np.where(z > 0.0, np.log1p(y + np.sqrt(y * (y + 2.0))), np.inf))

    def _opening(self, c, w, theta, z):
        """beta for z > 0: the widest of w, w/4, ..., w/256 on which no probed term exceeds
        ``_GROWTH`` times the one at t = 0.

        Opening left leads past Bob's singularities, where a large exponent
        or a stiff pair (the no-shadowing surrogates) makes M_D grow by many
        orders: the sum would then cancel far beyond its value.  The openings
        are probed from the widest down, each on the problems that every
        wider one failed and on each problem's nodes t = 0, 0.5, ... up to
        its own truncation there, or where |s| would pass ``_LN_REACH``.  The
        probes read magnitudes only (:meth:`log_magnitude`).
        """
        n, k = len(c), len(_OPENINGS)
        beta = w[:, None] * _OPENINGS  # (n, k)
        t_max = self._truncation(w[:, None], beta, theta[:, None], z[:, None])
        reach = np.ceil((_LN_REACH - np.log(w)) / _PROBE_STEP)[:, None]
        last = np.minimum(np.floor(t_max / _PROBE_STEP), reach).astype(int)  # (n, k): the last probe
        j = np.full(n, k - 1)  # the narrowest, when every wider one grows
        live = np.arange(n)
        for i in range(k - 1):
            count = last[live, i] + 1
            peak, first = np.empty(live.size), np.empty(live.size)  # largest and t = 0 probe
            for part in _chunks(count):
                owner, node = _ragged(count[part])
                p = live[part][owner]
                # a distance to a rate whose square underflows makes a probe infinite, or not a
                # number; the path's own terms are then refused in integrals
                with np.errstate(divide="ignore", invalid="ignore"):
                    re = self.log_magnitude(_PROBE_STEP * node, c[p], w[p], beta[p, i], theta[p], z[p])
                saddle = np.flatnonzero(node == 0)  # each problem's t = 0, the same for every opening
                peak[part], first[part] = np.maximum.reduceat(re, saddle), re[saddle]
            if i == 0:
                limit = first + math.log(_GROWTH)
            flat = ~(peak > limit[live])
            j[live[flat]] = i
            live = live[~flat]
            if not live.size:
                break
        return beta[np.arange(n), j]

    @staticmethod
    def _path(t, c, w, beta):
        """s(t) = c - beta (cosh t - 1) + i w sinh t: (sinh t, s, s'(t), |s|, log|s|, log|s'(t)|).

        The moduli come from squares, not ``np.hypot``: ``_LN_REACH`` keeps |s| and |s'(t)|
        (within beta + w of |s - c|) so far below the float range that every square is finite.
        """
        sh = np.sinh(t)
        sr = c - beta * (2.0 * np.sinh(0.5 * t) ** 2)  # cosh t - 1 without cancellation
        si = w * sh
        dr, di = -beta * sh, w * np.cosh(t)
        abs_s = np.sqrt(sr * sr + si * si)
        return sh, sr, si, dr, di, abs_s, np.log(abs_s), 0.5 * np.log(dr * dr + di * di)

    def log_magnitude(self, t, c, w, beta, theta, z):
        """log|F(s) s'(t)| at every node: the third output of :meth:`terms`, without its phase,
        its exponential or its rounding bound."""
        _, sr, si, _, _, _, ln_s, ln_ds = self._path(t, c, w, beta)
        re, _ = self._log_m(sr, si, theta, phase=False)
        return re + z * sr - ln_s + ln_ds

    def terms(self, t, c, w, beta, theta, z):
        """Im[F(s) s'(t)] at every node, a bound on its rounding error, and log|F(s) s'(t)|."""
        sh, sr, si, dr, di, abs_s, ln_s, ln_ds = self._path(t, c, w, beta)
        re, im = self._log_m(sr, si, theta)
        re = re + z * sr - ln_s + ln_ds
        im = im + z * si - np.arctan2(si, sr) + np.arctan2(di, dr)
        mag = np.exp(re)
        # every summand of the log carries a rounding error of eps times its
        # size; a factor's |log(s + p)| is at most the larger of |log(|s| + R)|
        # and |log dist|, dist >= w max(1, sinh t) / 2 from s to any singularity
        dist = 0.5 * w * np.maximum(1.0, sh)
        big = np.maximum(self.d.big, self.e.big / theta)
        ln_fac = np.maximum(np.abs(np.log(abs_s + big)), np.abs(np.log(dist)))
        size = (
            abs(self.d.ln_omega) + abs(self.e.ln_omega)
            + (self.d.exps_abs + self.e.exps_abs) * (ln_fac + np.abs(np.log(theta)) + math.pi)
            + z * (np.abs(sr) + si)
            + np.abs(ln_s) + np.abs(ln_ds) + 2.0 * math.pi
        )
        for link, scale in ((self.d, 1.0), (self.e, -theta)):  # Bob at s, Eve at -theta s
            for x, cd in link.pairs:
                size = size + cd / np.hypot(scale * sr + x, scale * si)
        return mag * np.sin(im), mag * size, re

    def integrals(self, theta, z, rel_tol):
        """(I, achieved absolute error, c < 0) per (theta, z) problem.

        I is P where c > 0 and P - 1 where c < 0: the smaller tail with
        its sign, kept apart from 1 so that it keeps its relative accuracy.
        A refusal gives the index of the first problem that fails as its
        ``row``.  Each step's new nodes are summed in pieces of whole
        problems (:func:`_chunks`), so a problem's sums do not depend on its
        batch either.
        """
        c, w, beta, t_max = self.contour(theta, z)
        reach = np.log(w) + t_max  # the log of the path's largest |s|
        far = reach + np.log(np.maximum(theta, 1.0)) > _LN_REACH  # or of Eve's |theta s|
        if far.any():
            i = int(np.flatnonzero(far)[0])
            why = (f"the transform decays too slowly to truncate (mu_D + mu_E = {_DECAY / self.decay:.3g})"
                   if reach[i] > _LN_REACH else
                   f"Eve's transform at theta s passes the float range (ln theta = {math.log(theta[i]):.4g})")
            raise ConvergenceError(f"outage contour: {why}", row=i)
        n = len(theta)
        step = np.full(n, _STEP)
        count = 2 * np.ceil(t_max / (2.0 * _STEP)).astype(int)  # intervals at the current step
        coarse = np.zeros(n)  # trapezoid sums at steps 2 * step and step, unscaled
        fine = np.zeros(n)
        noise = np.zeros(n)
        value = np.zeros(n)
        err = np.zeros(n)
        live = np.arange(n)
        start, stride = 0, 1  # the nodes new at this step: all of them at first, then the odd ones
        while live.size:
            over = count[live] > _MAX_NODES
            if over.any():
                raise ConvergenceError(f"outage contour did not converge in {_MAX_NODES} nodes per problem",
                                       row=int(live[over][0]))
            new = (count[live] - start) // stride + 1
            parity, bound = np.empty((live.size, 2)), np.empty(live.size)  # (even, odd) sums
            # a term out of the float range (a squared distance to a rate that
            # underflows, an overflowed magnitude) is refused below
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                for part in _chunks(new):
                    pos, k = _ragged(new[part])
                    k = start + stride * k
                    j = live[part][pos]
                    f, b, _ = self.terms(k * step[j], c[j], w[j], beta[j], theta[j], z[j])
                    half = np.where(k == 0, 0.5, 1.0)  # the trapezoid end weight at t = 0
                    f, b = f * half, b * half
                    size = new[part].size
                    parity[part] = np.bincount(2 * pos + k % 2, f, 2 * size).reshape(size, 2)
                    bound[part] = np.bincount(pos, b, size)
            even, odd = parity.T
            lost = ~(np.isfinite(even) & np.isfinite(odd) & np.isfinite(bound))
            if lost.any():
                raise ConvergenceError("outage contour: the terms on the path leave the float range "
                                       "(the transform under- or overflows there)", row=int(live[lost][0]))
            coarse[live] = fine[live] + even
            fine[live] = coarse[live] + odd
            noise[live] += bound
            h = step[live]
            now = h / math.pi * fine[live]
            diff = np.abs(2.0 * h / math.pi * coarse[live] - now)
            # halving stops at the tolerance or at the sum's own rounding noise;
            # the reported floor also covers the rounding of the rates and log
            # omega, which each exponent multiplies
            noisy = _ULPS * _EPS * (h / math.pi * noise[live])
            done = diff <= np.maximum(rel_tol * np.minimum(np.abs(now), 1.0 - np.abs(now)), noisy)
            value[live] = now
            err[live] = diff + (self.d.exps_abs + self.e.exps_abs + 1.0) * noisy
            live = live[~done]
            step[live] *= 0.5
            count[live] *= 2
            start, stride = 1, 2
        return value, err, c < 0.0

# ASC: Gauss-Legendre panels in R, every node one contour problem
_GL_NODES = 20
_GL_X, _GL_W = legendre.leggauss(_GL_NODES)
# Legendre coefficients of the polynomial through a panel's node values: values @ _GL_COEF
_GL_COEF = legendre.legvander(_GL_X, _GL_NODES - 1) * (_GL_W[:, None] * (np.arange(_GL_NODES) + 0.5))
# The first panel runs in v with R = b v^q (q - (q - 1) v): of slope b at
# R = b, as dense there as the linear panel that follows, and graded at R = 0.
# There 1 - SOP(R) has a term in R^(mu_D + mu_E), from both SNRs near 0; in
# v, with the Jacobian, it is v^(q (mu_D + mu_E + 1) - 1).  q = 2 makes that
# at least v^4 where mu_D + mu_E >= 1.5, q = 3 where it is >= 2/3, and q = 3
# serves below that too.  The map is a polynomial, so its Jacobian is one.
_GRADE_MU = 1.5
# Factor on a panel's Legendre tail that makes its error estimate (see
# _null_rule).  Against much finer rules on 1150 wide-box and numeric-sweep
# pairs, the achieved error bounded the actual one, up to 1e-10 of ASC, on
# every pair; at 10 it fell short on 2 of 850.
_NULL_SAFETY = 30.0
_TAIL_CUTOFF_PROB = 1e-10  # the integral stops where P(g_D > g) falls below this
_MAX_PANELS = 64


def _null_rule(h):
    """Error estimate of each row's Gauss-Legendre sum, from its own node values ``h``.

    The Legendre coefficients of the polynomial through the n nodes fall
    from the first pair (degrees 0, 1) to the top three (n - 3 to n - 1) by
    some factor.  The rule is exact to degree 2n - 1, so its error is taken
    as the top coefficients fallen once more by that factor over the next n
    degrees, times ``_NULL_SAFETY``.
    """
    coef = np.abs(h @ _GL_COEF)
    first = np.maximum(coef[:, 0], coef[:, 1])
    top = coef[:, -3:].max(axis=1)
    fall = np.minimum(1.0, np.divide(top, first, out=np.zeros(top.size), where=first > 0.0))
    return _NULL_SAFETY * top * fall


class _AscRule:
    """ASC = int_0^R_hi (1 - SOP(R)) dR, with SOP(R) = P(g_D - e^R g_E < e^R - 1).

    The layer-cake form of E[(C_D - C_E)^+]: each node R is the contour
    problem (e^R, e^R - 1), and 1 - SOP(R) is 1 - I or -I by the side of
    its crossing, so a small 1 - SOP keeps its relative accuracy.  The
    integral splits at ``b = min(ln(1 + lambda_D), R_hi / 2)``: a graded
    panel on [0, b] (see ``_GRADE_MU``) and a linear one on [b, R_hi], 20
    nodes each, both in the first contour batch.  Each round then bisects
    the panels whose estimate (:func:`_null_rule`) exceeds their share of
    ``rel_tol * |ASC|``, unless it is within their nodes' contour errors,
    and sends the new nodes as one batch.  ``R_hi = log1p(upper)``, where
    P(g_D > upper) is below ``_TAIL_CUTOFF_PROB``.

    The achieved error adds the panels' estimates, their contour errors
    (the node errors times the weights) and a Chernoff bound on the
    integral past R_hi: for 0 < t < r_D and R >= R_hi,
    1 - SOP(R) <= M_D(-t) M_E(e^R_hi t) e^(-t (e^R - 1)), whose integral
    over R is at most that at R_hi divided by t e^R_hi.

    The rule works on the links that its node solver reads.  Bob's mean SNR
    is ``avg_snr``, ``r`` times that of Bob's link, whose SNR is g_B: g_D = r g_B,
    so each problem is posed as (theta / r, z / r), Bob's tail bound is r
    times the link's, and the Chernoff t, in the link's units, is r times
    that above.  ``tail`` is the row's (R_hi, cut) from :meth:`tails`.
    """

    def __init__(self, link_d: _Link, link_e: _Link, rel_tol: float, avg_snr: float, tail: tuple[float, float]):
        self.scale = avg_snr / link_d.avg_snr
        self.r_hi, self.cut = tail
        self.b = min(math.log1p(avg_snr), 0.5 * self.r_hi)
        self.grade = 2 if link_d.mu + link_e.mu >= _GRADE_MU else 3
        self.rel_tol = rel_tol
        # panels as columns (lo, hi, graded: 1 or 0) in v: R = b v^q (q - (q - 1) v) where graded, R = v elsewhere
        self.todo = np.array([[0.0, self.b], [1.0, self.r_hi], [1.0, 0.0]])
        # rows lo, hi, graded, integral, estimate, contour error of the panels done
        self.done = np.empty((6, 0))

    @staticmethod
    def tails(link_d: _Link, link_e: _Link, avg_snrs) -> list[tuple[float, float]]:
        """(R_hi, cut) of the rule of each Bob mean SNR in ``avg_snrs``, on one pair of links.

        Bob's transform is evaluated once, by :meth:`_Link.upper_limit`, which
        returns its values at the Chernoff points with the one tail bound
        ``upper``: every R_hi is log1p(r upper), and every cut comes from
        those values and Eve's transform over a (rows x 4) grid of t.  A row
        whose R_hi or cut is not finite (its Bob SNR nears the float range,
        where the grid's squares under- or overflow) is refused by its index.
        """
        tau = link_d.r * _CHERNOFF_FRACTIONS
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            upper, ln_d = link_d.upper_limit(_TAIL_CUTOFF_PROB)
            scale = [snr / link_d.avg_snr for snr in avg_snrs]
            r_hi = [math.log1p(r * upper) for r in scale]
            theta_hi = np.array([math.exp(x) for x in r_hi])[:, None]
            scale = np.array(scale)[:, None]
            ln_e, _ = link_e.log_m(theta_hi / scale * tau, 0.0, phase=False)  # Eve at -theta s, s = -t
            t = tau / scale
            cut = np.exp((ln_d + ln_e - t * (theta_hi - 1.0) - np.log(t * theta_hi)).min(axis=1)).tolist()
        for i, (snr, x, c) in enumerate(zip(avg_snrs, r_hi, cut)):
            if not (math.isfinite(x) and math.isfinite(c)):
                what = "bound past the tail cut" if math.isfinite(x) else "tail cut in R"
                raise ConvergenceError(f"ASC quadrature: the {what} is not finite (Bob's mean SNR "
                                       f"{snr:.3g} is too near the float range)", row=i)
        return list(zip(r_hi, cut))

    def problems(self):
        """(theta / r, z / r) of every node of the panels to do."""
        lo, hi, graded = self.todo
        half = 0.5 * (hi - lo)[:, None]
        v = 0.5 * (lo + hi)[:, None] + half * _GL_X
        graded, q = graded[:, None], self.grade
        r = np.where(graded, self.b * v**q * (q - (q - 1) * v), v)
        self.jac = half * np.where(graded, self.b * v ** (q - 1) * (q * q - (q * q - 1) * v), 1.0)
        return np.exp(r).ravel() / self.scale, np.expm1(r).ravel() / self.scale

    def add(self, value, err) -> bool:
        """Take 1 - SOP and its error at the nodes of :meth:`problems`; True while panels remain to do."""
        h = self.jac * value.reshape(self.jac.shape)
        new = np.concatenate([self.todo, [h @ _GL_W, _null_rule(h), (self.jac * err.reshape(h.shape)) @ _GL_W]])
        lo, hi, graded, val, est, noise = panels = np.concatenate([self.done, new], axis=1)
        tol = self.rel_tol * abs(val.sum())
        over = est.sum() + noise.sum() + self.cut > tol
        split = over & (est > tol / len(val)) & (est > noise)
        self.done = panels[:, ~split]
        if not split.any():
            return False
        if len(val) + split.sum() > _MAX_PANELS:
            raise ConvergenceError(
                f"ASC quadrature did not converge in {len(val)} panels: error {est.sum():.2e} "
                f"for value {val.sum():.6e}",
                achieved=float(est.sum()),
            )
        lo, hi, graded = panels[:3, split]
        mid = 0.5 * (lo + hi)
        self.todo = np.concatenate([[lo, mid, graded], [mid, hi, graded]], axis=1)
        return True

    def result(self) -> tuple[float, float]:
        """(ASC, achieved error)."""
        _, _, _, val, est, noise = self.done
        return float(val.sum()), float(est.sum() + noise.sum() + self.cut)


# A batch's Bob SNRs lie within this factor of its first, so that each row's
# problems (theta / r, z / r) stay far inside the float range
_LN_ROW_SPAN = math.log(1e30)
# Rows per batch, so that a sweep's memory does not grow with its length: a
# batch holds about 20 kB a row (a numeric-sweep pair is 26 rows, one batch)
_BATCH_ROWS = 64


def _batch(solve, link_d, link_e, rows, cfg, tol, metrics):
    """(solved, asc) of each Bob link of the list ``rows``, by the node solver ``solve``.

    ``solve(theta, z)`` gives (I, error, upper) per problem, on ``link_d`` and ``link_e``: I is
    P(g_D - theta g_E < z), or P - 1 where ``upper``.  Each row is ``link_d`` at a mean SNR r
    times its own, so its problem (theta, z) is posed as (theta / r, z / r).  A row gives one job
    for its outage problems and one for its ASC rule (at ``tol``).  Each round is one ``solve``
    batch of the problems of every open job, in row order, and each job takes its slice: the
    outage job records ``solved``, each distinct (theta, z) of ``cfg.outage_problems`` with its
    (I, error, upper); a rule job poses its next nodes until its rule gives ``asc``, (ASC,
    error), which is None without ASC.  A refusal names its row's index in ``rows``.
    """
    keys = sorted(set(cfg.outage_problems(metrics).values()))
    solved, rules = [{} for _ in rows], [None] * len(rows)
    if "asc" in metrics:
        tails = _AscRule.tails(link_d, link_e, [bob.avg_snr for bob in rows])
        rules = [_AscRule(link_d, link_e, tol, bob.avg_snr, tail) for bob, tail in zip(rows, tails)]
    jobs = []  # (row, its ASC rule or None for its outage job, theta, z)
    for i, bob in enumerate(rows):
        if keys:
            jobs.append((i, None, *(np.array(keys).T / (bob.avg_snr / link_d.avg_snr))))
        if rules[i] is not None:
            jobs.append((i, rules[i], *rules[i].problems()))
    while jobs:
        theta, z = np.concatenate([job[2] for job in jobs]), np.concatenate([job[3] for job in jobs])
        try:
            value, err, upper = solve(theta, z)
        except ConvergenceError as exc:
            exc.row = int(np.repeat([job[0] for job in jobs], [job[2].size for job in jobs])[exc.row])
            raise
        more, stop, survival = [], 0, np.where(upper, -value, 1.0 - value)  # 1 - SOP at a rule's node
        try:
            for i, rule, posed, _ in jobs:
                part, stop = slice(stop, stop + posed.size), stop + posed.size
                if rule is None:
                    solved[i] = dict(zip(keys, zip(value[part].tolist(), err[part].tolist(), upper[part].tolist())))
                elif rule.add(survival[part], err[part]):
                    more.append((i, rule, *rule.problems()))
        except ConvergenceError as exc:
            exc.row = i
            raise
        jobs = more
    return [(done, None if rule is None else rule.result()) for done, rule in zip(solved, rules)]


def _metric_values(row, cfg, metrics):
    """(values, errors) of ``metrics``, in that order, from a row of :func:`_batch`."""
    (solved, asc), problems = row, cfg.outage_problems(metrics)
    values, errors = {}, {}
    for name in metrics:
        if name == "asc":
            values[name], errors[name] = asc
        else:
            integral, errors[name], upper = solved[problems[name]]
            values[name] = outage_value(name, 1.0 + integral if upper else integral)
    return values, errors


def numeric_metrics(
    bob: FBParams | Sequence[FBParams],
    eve: FBParams,
    cfg: SecrecyConfig,
    ctrl: InversionControl | None = None,
    metrics=METRICS,
) -> tuple[dict[str, float], dict[str, float]] | list[tuple[dict[str, float], dict[str, float]]]:
    """Secrecy metrics (``asc``, ``sop``, ``sopl``, ``spsc``) for any parameters.

    Returns ``(values, errors)``: each maps every name in ``metrics`` to
    the metric and to its achieved absolute error.  Every metric is read off
    P(g_D - theta g_E < z), one saddle-point contour of the product
    transform per (theta, z) (:class:`_Bromwich`).  The outage metrics are
    the problems of ``cfg.outage_problems``, problems with equal (theta, z)
    computed once.  Each contour's step halves until two successive
    trapezoid sums agree within ``quad_rel_tol`` of the smaller of P and
    1 - P, or within the rounding floor that the terms' log-space
    magnitudes set; its error is that last difference plus the floor, and
    past a fixed node budget it raises ConvergenceError.  ASC integrates
    1 - SOP(R) over R (:class:`_AscRule`), its first nodes in the same batch
    as the outage problems; its error, within ``quad_rel_tol * |ASC|``
    unless the contour errors of its nodes stop the refinement first, adds
    the quadrature estimate, those contour errors and a bound on the
    integral past its cut.  An error above ``1e-6 * max(|value|, 1e-2)``
    comes with an AccuracyWarning.

    ``bob`` may also be a list of Bob links that differ only in mean SNR,
    the rows of a sweep; the result is then a list of ``(values, errors)``,
    one per row.  The rows are solved in contour batches of up to 64 rows,
    each on its first row's link (a row more than a factor 1e30 from it
    starts another batch), and a refusal names its row's index as
    ``ConvergenceError.row``.  A single link is the one-row case.

    The outage metrics take R_s up to ln(1e150), about 345 nats
    (ParameterError past it), and refuse a pair whose path would take
    Eve's |theta s| past 1e150 (ConvergenceError).
    """
    check_metrics(metrics)
    if cfg.outage_problems(metrics) and cfg.rate_rs > _LN_REACH:  # theta = e^R_s would pass the reach
        raise ParameterError("rate_rs", f"the numeric route's outage metrics take R_s up to "
                                        f"{_LN_REACH:.4g} nats, got {cfg.rate_rs!r}")
    ctrl = ctrl or InversionControl()
    rows = [bob] if isinstance(bob, FBParams) else list(bob)
    if not rows or any(row.with_snr(rows[0].avg_snr) != rows[0] for row in rows):
        raise ParameterError("bob", "must be a link, or links that differ only in avg_snr")
    batches = []  # row indices; a batch's first row is its contour's Bob link
    for i, ln_snr in enumerate(math.log(row.avg_snr) for row in rows):  # a ratio could overflow
        if (not batches or len(batches[-1]) == _BATCH_ROWS
                or abs(ln_snr - math.log(rows[batches[-1][0]].avg_snr)) > _LN_ROW_SPAN):
            batches.append([])
        batches[-1].append(i)
    link_e = _Link(eve)
    results = []
    for batch in batches:
        contour = _Bromwich(_Link(rows[batch[0]]), link_e)
        try:
            results += _batch(lambda theta, z: contour.integrals(theta, z, ctrl.quad_rel_tol), contour.d, link_e,
                              [rows[i] for i in batch], cfg, ctrl.quad_rel_tol, metrics)
        except ConvergenceError as exc:
            exc.row += batch[0]  # from the batch's row to the row given
            raise
    out = []
    for values, errors in (_metric_values(row, cfg, metrics) for row in results):
        noisy = [
            f"{k} = {values[k]:.6e} (error {errors[k]:.1e})"
            for k in metrics
            if errors[k] > _NOISE_BOUND * max(abs(values[k]), 1e-2)
        ]
        if noisy:
            warnings.warn("limited by contour-sum noise: " + ", ".join(noisy), AccuracyWarning, stacklevel=2)
        out.append((values, errors))
    return out[0] if isinstance(bob, FBParams) else out
