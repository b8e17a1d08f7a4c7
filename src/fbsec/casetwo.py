"""Exact secrecy metrics for integer-exponent (Case-2) links.

When ``mu/2`` and ``m`` are integers the rational-power transform of the
SNR law is a rational function, so the density and distribution become
finite exponential-polynomial mixtures

    f(g) = omega * sum_i e^(-p_i g) sum_j A_ij g^(j-1) / (j-1)!
    F(g) = 1 + omega * sum_i e^(-p_i g) sum_j B_ij g^(j-1) / (j-1)!

and the four secrecy metrics reduce to finite sums over the coefficient
tables: one for ASC, and one for P(g_D - theta g_E < z), which gives each
outage metric at its (theta, z) (see :func:`closed_metrics`).
:func:`link_expansion` builds one link's tables from its parameters, flat
with one entry per term, and each sum runs as one array operation over
them.  The ``A_ij``/``B_ij`` are extracted by high-order residue
computation on the transform: the Taylor coefficients of the co-factor
around each pole follow from the logarithmic-derivative recurrence, which
handles poles of any multiplicity and negative exponents (numerator factors)
uniformly.  Every expansion is verified at construction against the
transform itself, evaluated by the contour route's kernel
(:mod:`fbsec._kernels`).

All coefficient arithmetic is complex; the final metrics must come out
real to within a small residue, which is asserted before returning.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import log_transform
from .errors import CaseMismatchError, ConvergenceError
from .params import (
    METRICS,
    FBParams,
    SecrecyConfig,
    check_metrics,
    derive,
    link_factors,
    outage_value,
)
from .special import ln1p_moment_table

__all__ = [
    "PartialFractionExpansion",
    "link_expansion",
    "closed_metrics",
]

_IMAG_TOL = 1e-9
_MAX_TOTAL_MULT = 64
_RECON_TOL = 1e-9
# ln k! for every k the sums index: powers run to _MAX_TOTAL_MULT per link
_LN_FACT = np.array([math.lgamma(k + 1) for k in range(2 * _MAX_TOTAL_MULT)])
_PROBE = np.linspace(0.0, 1.0, 20)  # log-spaced probe points, as fractions of the span
_POWERS = np.arange(1, _MAX_TOTAL_MULT + 1)  # power j of a pole's terms: _POWERS[:n]
_ORIGIN = (0.0 + 0j, 1)  # the factor 1/s of the distribution's transform, as (x, a)


@dataclass(frozen=True, eq=False)
class PartialFractionExpansion:
    """Pole/coefficient tables of one link's transform (see :func:`link_expansion`).

    ``poles`` are the distinct decay rates (already divided by the mean
    SNR) and ``mults`` their multiplicities.  The terms ``coef / (s +
    pole)^j`` are flat, one entry each, grouped by pole in the order of
    ``poles``: ``term_pole``, the power ``term_j`` (1 .. the pole's
    multiplicity), and the coefficients of the density (``term_A``) and
    distribution (``term_B``) mixtures.  ``omega_norm`` is carried
    alongside so the expansion is self-contained.
    """

    poles: np.ndarray
    mults: np.ndarray
    term_pole: np.ndarray
    term_j: np.ndarray
    term_A: np.ndarray
    term_B: np.ndarray
    omega_norm: float


def _taylor_rows(factors: list[tuple[complex, int]], i: int) -> tuple[np.ndarray, np.ndarray]:
    """Expansion coefficients at pole group ``i`` of prod_k (s+x_k)^(-a_k), alone and times 1/s.

    Returns (A, B): A[j-1] for j = 1..n_i such that the group contributes
    sum_j A_j (s + p_i)^(-j), and B the same for the product with the
    origin's factor 1/s, whose residues make the distribution.  Uses the
    Taylor series of the co-factor h(s) = prod_{k != i} (s+x_k)^(-a_k)
    about s = -p_i, generated by the recurrence
    t_{l+1} = (1/(l+1)) sum_q t_q w_{l+1-q} with w_r the power sums of the
    logarithmic derivative.  The log of h and the power sums are formed once:
    B's are A's with the origin's term added last, which is bit for bit the
    left-to-right sums over the factors with the origin appended.
    """
    p, n = factors[i]
    others = [(x, a) for k, (x, a) in enumerate(factors) if k != i]
    log_h = 0.0 + 0j
    for x, a in others:
        log_h -= a * np.log(x - p)
    x0, a0 = _ORIGIN
    t = np.zeros((2, n), dtype=complex)
    t[0, 0] = np.exp(log_h)
    t[1, 0] = np.exp(log_h - a0 * np.log(x0 - p))
    if n > 1:
        w = np.zeros((2, n), dtype=complex)
        for r in range(1, n):
            try:
                w[0, r] = sum((-a) * (-1.0) ** (r - 1) / (x - p) ** r for x, a in others)
                w[1, r] = w[0, r] + (-a0) * (-1.0) ** (r - 1) / (x0 - p) ** r
            except ZeroDivisionError:
                raise ConvergenceError(f"a distance between two poles, raised to the power {r}, "
                                       "underflows (a mean SNR near the float range?)") from None
        for row, wr in zip(t, w):
            for l in range(n - 1):
                row[l + 1] = np.dot(row[: l + 1], wr[1 : l + 2][::-1]) / (l + 1)
    return t[0, ::-1].copy(), t[1, ::-1].copy()


def _mixture_value(pfe: PartialFractionExpansion, coef: np.ndarray, s):
    """omega * sum coef / (s + pole)^j over the expansion's terms, and the sum of their magnitudes."""
    terms = coef / (np.asarray(s, dtype=complex)[..., None] + pfe.term_pole) ** pfe.term_j
    return pfe.omega_norm * terms.sum(-1), abs(pfe.omega_norm) * np.abs(terms).sum(-1)


def link_expansion(params: FBParams) -> PartialFractionExpansion:
    """Decompose one link's transform over its distinct poles.

    The factors are the link's regular factors (:func:`fbsec.params.link_factors`):
    each root at m and its partner at ``mu/2 - m``, or at ``mu/2`` alone where
    kappa = 0.  Numerator factors (negative exponents) are carried and the
    decomposition runs over the poles only.  Raises a case-mismatch error
    where ``mu/2 - m`` loses ``mu/2`` (m past a few 1e9 times mu, kappa > 0),
    where an exponent is not an integer, and where there is no pole or more
    than 64; and ConvergenceError where the scale factor omega or a pole
    distance leaves the float range.
    """
    dp = derive(params)
    half, m = params.mu / 2.0, params.m
    if dp.deltas.any() and abs((half - m) + m - half) > 1e-6 * half:
        raise CaseMismatchError("m is too large against mu, so mu/2 - m loses mu/2; use the numeric path")
    regular, _ = link_factors(dp, params.avg_snr)
    net = [float(a) for _, a in regular]
    if any(abs(a - round(a)) > 1e-9 for a in net):
        raise CaseMismatchError(
            f"net rate exponents {net!r} are not integers; use the numeric path"
        )
    factors = [(complex(p), int(round(a))) for p, a in regular if round(a) != 0]
    total = sum(a for _, a in factors if a > 0)
    if not 0 < total <= _MAX_TOTAL_MULT:
        raise CaseMismatchError(
            f"total pole multiplicity {total} is not in 1..{_MAX_TOTAL_MULT}; use the numeric path"
        )

    try:
        omega_norm = math.exp(dp.ln_omega)
    except OverflowError:
        raise ConvergenceError(f"the transform's scale factor exp({dp.ln_omega:.6g}) overflows "
                               "(a mean SNR near the float range?)") from None
    poles = np.asarray([p for p, a in factors if a > 0], dtype=complex)
    mults = np.asarray([a for _, a in factors if a > 0], dtype=int)
    rows_A, rows_B = zip(*(_taylor_rows(factors, i) for i, (_, a) in enumerate(factors) if a > 0))
    pfe = PartialFractionExpansion(
        poles=poles,
        mults=mults,
        term_pole=np.repeat(poles, mults),
        term_j=np.concatenate([_POWERS[:n] for n in mults]),
        term_A=np.concatenate(rows_A),
        term_B=np.concatenate(rows_B),
        omega_norm=omega_norm,
    )
    _validate_expansion(pfe, factors, dp.ln_omega)
    return pfe


def _validate_expansion(pfe, factors, ln_omega):
    # Far above the smallest pole the identity cancels its own leading 1/s
    # moments, so errors are measured against the term-magnitude sum
    # (backward error); a wrong coefficient still shows up at full size.
    mags = np.abs(pfe.poles)
    s = 0.3 * mags.min() * (10.0 * mags.max() / mags.min()) ** _PROBE
    rates, exps = np.array(factors, dtype=complex).T
    # real s right of every pole: the transform is real (its phase is 0), and no factor is stiff
    ln_direct, _ = log_transform(s, 0.0, rates, exps.real, (), (), (), ln_omega, phase=False)
    direct = np.exp(ln_direct)
    # F = 1 + the B mixture, so the B mixture's transform plus 1/s is direct / s
    for side, coef, target, unit in (("density", pfe.term_A, direct, 0.0),
                                     ("distribution", pfe.term_B, direct / s, 1.0 / s)):
        recon, cond = _mixture_value(pfe, coef, s)
        err = np.max(np.abs(recon + unit - target) / np.maximum(np.abs(target), cond + unit))
        if not err <= _RECON_TOL:  # a NaN error is refused too
            raise ConvergenceError(
                f"{side}-side partial-fraction reconstruction error {err:.2e} (near-degenerate poles?)",
                achieved=float(err),
            )


def _realify(z, what: str):
    z = complex(z)
    if not cmath.isfinite(z):
        raise ConvergenceError(f"{what} is not finite ({z}); a mean SNR near the float range?")
    if abs(z.imag) > _IMAG_TOL * max(1.0, abs(z.real)):
        raise ConvergenceError(f"{what} has non-negligible imaginary residue {z.imag:.2e}")
    return z.real


def _asc(bob: PartialFractionExpansion, eve: PartialFractionExpansion) -> float:
    """Average secrecy capacity in nats.

    The cross term's moment tables, one per pole-pair sum p_D + p_E, are
    padded into one array and read per term pair at power jd + je - 1.
    """
    own = np.concatenate([ln1p_moment_table(int(n), p) for p, n in zip(bob.poles, bob.mults)])
    total = bob.omega_norm * np.dot(bob.term_A, own)

    tables = np.zeros((bob.poles.size, eve.poles.size, bob.mults.max() + eve.mults.max() - 1), dtype=complex)
    for i, (pd, nd) in enumerate(zip(bob.poles, bob.mults)):
        for k, (pe, ne) in enumerate(zip(eve.poles, eve.mults)):
            tables[i, k, : nd + ne - 1] = ln1p_moment_table(int(nd + ne - 1), pd + pe)
    jd, je = bob.term_j[:, None], eve.term_j[None, :]
    gd, ge = (np.repeat(np.arange(x.poles.size), x.mults) for x in (bob, eve))
    T = tables[gd[:, None], ge[None, :], jd + je - 2]
    w = np.exp(_LN_FACT[jd + je - 2] - _LN_FACT[jd - 1] - _LN_FACT[je - 1])
    cross = w * (bob.term_A[:, None] * eve.term_B + eve.term_A * bob.term_B[:, None]) * T
    total += bob.omega_norm * eve.omega_norm * cross.sum()
    return _realify(total, "average secrecy capacity")


def _outage(
    bob: PartialFractionExpansion, eve: PartialFractionExpansion, theta: float, z: float
) -> float:
    """P(g_D - theta g_E < z) for theta > 0 and z >= 0.

    The integral of F_D(theta g + z) f_E(g) over the two mixtures: the
    binomial expansion of (theta g + z)^(jd-1) runs over r = 0..jd-1, and
    at z = 0 only its top term r = jd - 1 survives the vanishing z powers.
    """
    # axes: Bob's term, Eve's term, binomial index r (only r < jd is a term)
    pd, jd = bob.term_pole[:, None, None], bob.term_j[:, None, None]
    pe, je = eve.term_pole[None, :, None], eve.term_j[None, :, None]
    r = np.arange(jd.max()) if z > 0.0 else jd - 1
    pw = jd - 1 - r
    # binomial(jd-1, r) and the rising factorial (je)_r, with the 1/(jd-1)!
    # prefactor folded in
    L = (
        -z * pd
        + r * math.log(theta)
        - _LN_FACT[r] - _LN_FACT[np.maximum(pw, 0)]
        + _LN_FACT[je + r - 1] - _LN_FACT[je - 1]
        - (r + je) * np.log(theta * pd + pe)
    )
    if z > 0.0:
        L = L + pw * math.log(z)
    terms = eve.term_A[None, :, None] * bob.term_B[:, None, None] * np.exp(np.where(pw >= 0, L, -np.inf))
    val = 1.0 + bob.omega_norm * eve.omega_norm * terms.sum()
    return min(1.0, max(0.0, _realify(val, "secrecy outage probability")))


def closed_metrics(
    bob: FBParams, eve: FBParams, cfg: SecrecyConfig, metrics=METRICS
) -> dict[str, float]:
    """Secrecy metrics (``asc``, ``sop``, ``sopl``, ``spsc``), exact for Case-2 links.

    Builds both links' expansions once, then evaluates ASC and each
    distinct (theta, z) problem of ``cfg.outage_problems`` once.  Returns
    the metrics named in ``metrics``, in that order.  Raises
    CaseMismatchError when an exponent is not an integer, and
    ConvergenceError when an expansion or a value cannot be trusted
    (a non-finite value included).
    """
    check_metrics(metrics)
    # what overflows comes out non-finite, and _realify refuses it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        exp_d, exp_e = link_expansion(bob), link_expansion(eve)
        problems = cfg.outage_problems(metrics)
        prob = {pz: _outage(exp_d, exp_e, *pz) for pz in set(problems.values())}
        values = {k: outage_value(k, prob[pz]) for k, pz in problems.items()}
        if "asc" in metrics:
            values["asc"] = _asc(exp_d, exp_e)
    return {k: values[k] for k in metrics}
