"""Secrecy metrics of integer-exponent (Case-2) links, as residue sums.

When ``mu/2`` and ``m`` are integers each link's transform is rational, and
each outage metric, P(g_D - theta g_E < z) at its (theta, z)
(:class:`fbsec.params.SecrecyConfig`), is the Bromwich integral of
F(s) = M_D(s) M_E(-theta s) e^(sz) / s.  Closed to the left, round the
origin and Bob's poles, it gives 1 - P = -sum of Res F over Bob's poles, a
finite sum with no leading 1 to cancel against (:class:`_ResidueSum`); at
z = 0 the right side, the same sum for the swapped pair at (1/theta, 0),
gives P itself.  These sums are the node solver (:func:`_solver`) that the
closed route passes the numeric route's batch driver, ``inversion._batch``,
on its links: both routes pose the outage problems and the nodes of the
ASC rule (``inversion._AscRule``), and differ only in the node solver.

Each sum carries a rounding bound (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 3-4), large where
near-coincident poles make the residues cancel.  It is probabilistic, not
worst-case: roundings are taken to add like a random walk (see
:class:`_ResidueSum`).  A value is returned only when its bound is at most
``_BOUNDED_REL_TOL`` of the smaller tail of the sum that solved it, and ASC
only when its achieved error (the rule's estimate, node bounds included)
is at most that of ASC; otherwise ConvergenceError names the bound, and
the CLI answers by the numeric route.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import CaseMismatchError, ConvergenceError
from .inversion import _batch, _Link, _metric_values
from .params import METRICS, FBParams, SecrecyConfig, check_metrics, derive, link_factors

__all__ = ["closed_metrics"]

_MAX_TOTAL_MULT = 64
# the bar of every returned value: its error bound over the smaller tail (over ASC for ASC)
_BOUNDED_REL_TOL = 1e-7
_EPS = np.finfo(float).eps
_LEAST_NORMAL = sys.float_info.min  # a tail below the normal range is held to this one
_LN_OMEGA_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))


def _case2(params: FBParams):
    """The link's :func:`~fbsec.params.derive` and (regular, pairs) factors, once these are found
    to be Case 2: no root's exponent m passes 64 then, so none is a stiff pair, and they are its
    contour link's factors too.  Raises CaseMismatchError where an exponent is not an integer, and
    where there is no pole or more than 64; ConvergenceError where the scale factor omega leaves
    the normal float range (a mean SNR near the float range).
    """
    dp = derive(params)
    factors = link_factors(dp, params.avg_snr)
    net = [a for _, a in factors[0]]
    if any(abs(a - round(a)) > 1e-9 for a in net):
        raise CaseMismatchError(f"net rate exponents {net!r} are not integers; use the numeric path")
    total = sum(round(a) for a in net if a > 0)
    if not 0 < total <= _MAX_TOTAL_MULT:
        raise CaseMismatchError(
            f"total pole multiplicity {total} is not in 1..{_MAX_TOTAL_MULT}; use the numeric path"
        )
    lo, hi = _LN_OMEGA_RANGE
    if not lo <= dp.ln_omega <= hi:
        raise ConvergenceError(f"the transform's scale factor exp({dp.ln_omega:.6g}) "
                               f"{'overflows' if dp.ln_omega > hi else 'underflows'} "
                               "(a mean SNR near the float range?)")
    return dp, factors


class _ResidueSum:
    """1 - P(g_D - theta g_E < z) = -sum of Res F over Bob's poles, and its bound, per problem.

    About Bob's pole -p of order n, with s = -p + eps, the co-factor
    (s + p)^n F(s) is t_0 e^(z eps) prod (1 - g eps)^-c over Bob's other
    factors (c = a_k, g = 1/(p - x_k)), the origin's 1/s (c = 1, g = 1/p)
    and Eve's at -theta s (c = b_j, g = theta / (y_j + theta p)), with t_0
    its value at -p, as a log and a sign (a negative distance x_k - p
    carries (-1)^a_k, the origin -1).  The residue is its coefficient of
    eps^(n-1), taken in eta = B eps, B = sum |c g| over Bob's side, where
    every |g / B| <= 1 (Eve's g is below 1/p).  Bob's numerators (c < 0, his
    partners where m > mu/2) are multiplied in as exact binomial
    polynomials: through power sums, one near the pole would leave its
    vanishing coefficients as cancelled remainders.  The rest follow the
    logarithmic-derivative recurrence t_(l+1) = sum_(q<=l) t_q w_(l+1-q) / (l+1)
    from the power sums w_r = sum c (g / B)^r, plus z / B in w_1.  Bob's
    side is set up once; each call takes a batch of problems.  A residue
    whose t_0 underflows is 0, whatever its coefficient.

    The bound runs the same products and sums on the magnitudes: eps times
    that coefficient times the square root of the roundings along a chain,
    about n (F + 5) on F factors, plus eps times the log-space size of t_0
    times the residue, and the sum's own rounding.  The root is Higham's
    rule of thumb that roundings add like a random walk (section 3.6), so
    the bound is probabilistic: a run of correlated roundings could pass
    it.  Against 34-digit sums on 31,000 problems the actual error stayed
    below 1.1 times it without the root; the worst-case count, about
    n (F + n + 9) and no root, refuses more than 1% of the tests' Case-2 draw.
    """

    def __init__(self, bob: _Link, eve: _Link):
        merged = {}  # rates that coincide as floats (a root within an ulp of its partner) are one
        for x, a in zip(bob.factors[0].tolist(), bob.factors[1].tolist()):
            merged[x] = merged.get(x, 0.0) + round(a)
        factors = [(x, a) for x, a in merged.items() if a != 0.0]
        poles = [(x, int(a)) for x, a in factors if a > 0.0]
        n = max(k for _, k in poles)
        self.y, self.b = eve.factors[0], np.rint(eve.factors[1])
        self.eve_c = np.zeros((2 * self.b.size, 2))  # weights of [ln e, |ln e|]: the log-sum and its size
        self.eve_c[: self.b.size, 0], self.eve_c[self.b.size :, 1] = self.b, np.abs(self.b)
        ln_omega, width = bob.ln_omega + eve.ln_omega, len(factors) + self.b.size + 5.0
        scalars, sums, numers = [], [], []  # per pole
        for p, k in poles:
            # ln|t_0 B^(n-1)|, its log-space size, B, the sign, and Bob's other factors as (c, g)
            ln_t, size = ln_omega - math.log(p), abs(ln_omega) + abs(math.log(p))
            scale, flips, others = 1.0 / p, 1.0, []
            for x, a in factors:
                if x != p:
                    term = a * math.log(abs(x - p))
                    ln_t, size, scale = ln_t - term, size + abs(term), scale + abs(a / (x - p))
                    flips += a if x < p else 0.0
                    others.append((a, 1.0 / (p - x)))
            ln_scale = (k - 1) * math.log(scale)
            scalars.append((p, 1.0 / scale, ln_t + ln_scale, size + abs(ln_scale), 1.0 - flips % 2.0 * 2.0,
                            math.sqrt(k * width)))
            # in eta: power sums r = 1 .. n - 1 of his poles and the origin, signed and of magnitudes,
            # and his numerators (1 - g eps)^|c| = sum binom(|c|, l) (-g eps)^l multiplied out
            signed, magnitude = [0.0] * (n - 1), [0.0] * (n - 1)
            poly = poly_abs = [1.0] + [0.0] * (n - 1)
            for a, g in others + [(1.0, 1.0 / p)]:
                g /= scale
                if a > 0.0:
                    power = 1.0
                    for r in range(n - 1):
                        power *= g
                        signed[r], magnitude[r] = signed[r] + a * power, magnitude[r] + a * abs(power)
                    continue
                row = [1.0]
                for l in range(min(n - 1, int(-a))):
                    row.append(row[-1] * -g * (-a - l) / (l + 1))
                poly, poly_abs = np.convolve(poly, row)[:n].tolist(), np.convolve(poly_abs, np.abs(row))[:n].tolist()
            sums.append((signed, magnitude))
            numers.append(list(zip(poly[k - 1 :: -1], poly_abs[k - 1 :: -1])) + [(0.0, 0.0)] * (n - k))
        self.p, self.inv_scale, self.ln_bob, self.size_bob, self.sign, self.k = np.array(scalars).T
        self.w_bob = np.array(sums).transpose(2, 1, 0)[:, :, None]  # (r, 2, 1, pole)
        self.numer = np.array(numers).transpose(1, 2, 0)[:, :, None]  # read back from n - 1: (j, 2, 1, pole)
        self.ones = np.ones(len(poles))

    def __call__(self, theta, z):
        """(1 - P, error bound) of each problem (theta_i, z_i), theta > 0 and z >= 0."""
        theta, z = np.asarray(theta, dtype=float)[:, None], np.asarray(z, dtype=float)[:, None]
        n, j = self.numer.shape[0], self.b.size
        e = (theta * self.p)[..., None] + self.y  # (problem, pole, Eve factor): y_j + theta p > 0
        ln_e = np.log(e)
        ln_eve = np.concatenate([ln_e, np.abs(ln_e)], -1).reshape(-1, 2 * j) @ self.eve_c
        pz = self.p * z
        ln_t = self.ln_bob - pz - ln_eve[:, 0].reshape(pz.shape)
        size = self.size_bob + pz + ln_eve[:, 1].reshape(pz.shape)
        tau = np.zeros((n, 2) + pz.shape)  # the series, signed and of magnitudes
        tau[0] = 1.0
        if n > 1:
            g_e = np.empty((n - 1,) + e.shape)  # powers of Eve's g / B
            g_e[0] = (theta * self.inv_scale)[..., None] / e
            for r in range(1, n - 1):
                g_e[r] = g_e[r - 1] * g_e[0]
            w = (g_e.reshape(-1, j) @ self.eve_c[:j]).reshape(g_e.shape[:3] + (2,)).transpose(0, 3, 1, 2) + self.w_bob
            w[0] += z * self.inv_scale
            for l in range(n - 1):
                tau[l + 1] = (tau[: l + 1] * w[l::-1]).sum(0) / (l + 1)
        top = (tau * self.numer).sum(0)
        scale = np.exp(ln_t)
        live = scale > 0.0  # an underflowed residue is 0, and so its bound
        (value, magnitude), size = np.where(live, top, 0.0), np.where(live, size, 0.0)
        res = self.sign * scale * value
        bound = (scale * (self.k * magnitude + size * np.abs(value)) + len(self.ones) * np.abs(res)) @ self.ones
        return -(res @ self.ones), _EPS * bound


def _within_bar(tail: float, bound: float) -> bool:
    """Whether ``bound`` is at most ``_BOUNDED_REL_TOL`` of min(tail, 1 - tail) (of the least
    normal float, below it); False where either is not a number."""
    return bound <= _BOUNDED_REL_TOL * max(min(tail, 1.0 - tail), _LEAST_NORMAL)


def _solver(link_d: _Link, link_e: _Link):
    """The closed route's node solver: (I, bound, upper) per problem (see ``inversion._batch``).

    The left side's sum gives I = -(1 - P).  At z = 0, where its bound is above the bar, the right
    side gives I = P instead where its own bound is within it.
    """
    left = _ResidueSum(link_d, link_e)

    def solve(theta, z):
        tail, bound = left(theta, z)
        value, upper = -tail, np.ones(tail.size, dtype=bool)
        swap = [i for i in (z == 0.0).nonzero()[0].tolist() if not _within_bar(tail[i], bound[i])]
        if swap:  # P(g_D - theta g_E < 0) is 1 - P(g_E - g_D / theta < 0): the swapped pair's left side
            tail_r, bound_r = _ResidueSum(link_e, link_d)(1.0 / theta[swap], z[swap])
            for i, t, b in zip(swap, tail_r.tolist(), bound_r.tolist()):
                if _within_bar(t, b):
                    value[i], bound[i], upper[i] = t, b, False
        return value, bound, upper

    return solve


def closed_metrics(
    bob: FBParams, eve: FBParams, cfg: SecrecyConfig, metrics=METRICS
) -> dict[str, float]:
    """Secrecy metrics (``asc``, ``sop``, ``sopl``, ``spsc``) of Case-2 links.

    ``inversion._batch`` with residue sums as its node solver: the distinct
    (theta, z) problems of ``cfg.outage_problems`` and the ASC rule's first
    nodes are one batch.  Returns the metrics named in ``metrics``, in that
    order, each within ``_BOUNDED_REL_TOL`` (1e-7) of its smaller tail, or
    of ASC, by its error bound.  Raises CaseMismatchError when an exponent
    is not an integer (before either link's contour objects are built), and
    ConvergenceError when a bound is above that bar or a value is not finite.
    """
    check_metrics(metrics)
    case_d, case_e = _case2(bob), _case2(eve)
    link_d, link_e = _Link(bob, *case_d), _Link(eve, *case_e)
    # what under- or overflows comes out as 0 with a bound of 0, or not finite, and is refused
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        solved, asc = row = _batch(_solver(link_d, link_e), link_d, link_e, [bob], cfg, _BOUNDED_REL_TOL, metrics)[0]
    for (theta, z), (value, bound, upper) in solved.items():
        tail = -value if upper else value  # as its sum gave it: from P, a tail below an ulp of 1 is 0
        if not _within_bar(tail, bound):
            why = (f"has error bound {bound:.2e}, above {_BOUNDED_REL_TOL:g} of its smaller tail "
                   f"{min(tail, 1.0 - tail):.2e} (near-coincident poles?)" if math.isfinite(bound + tail)
                   else "is not finite: a distance between two poles, raised to a power, underflows, or a "
                   "residue overflows (a mean SNR near the float range?)")
            raise ConvergenceError(f"closed route: the residue sum of P(g_D - theta g_E < z) at theta = "
                                   f"{theta:.6g}, z = {z:.6g} {why}", achieved=bound)
    if asc is not None and not asc[1] <= _BOUNDED_REL_TOL * asc[0]:  # a value or bound not finite too
        raise ConvergenceError(f"closed route: ASC {asc[0]:.6e} has error bound {asc[1]:.2e}, above "
                               f"{_BOUNDED_REL_TOL:g} of it", achieved=asc[1])
    return _metric_values(row, cfg, metrics)[0]
