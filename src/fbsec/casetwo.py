"""Exact secrecy metrics for integer-exponent (Case-2) links.

When ``mu/2`` and ``m`` are integers the rational-power transform of the
SNR law is a rational function, so the density and distribution become
finite exponential-polynomial mixtures

    f(g) = omega * sum_i e^(-p_i g) sum_j A_ij g^(j-1) / (j-1)!
    F(g) = 1 + omega * sum_i e^(-p_i g) sum_j B_ij g^(j-1) / (j-1)!

and the four secrecy metrics reduce to finite sums over the coefficient
tables: one for ASC, and one for P(g_D - theta g_E < z), which gives each
outage metric at its (theta, z) (see :func:`closed_metrics`).  The
``A_ij``/``B_ij`` are extracted by high-order residue computation on the
transform: the Taylor coefficients of the co-factor around each pole
follow from the logarithmic-derivative recurrence, which handles merged
poles and negative exponents (numerator factors) uniformly.
Every expansion is verified against the transform itself at construction.

All coefficient arithmetic is complex; the final metrics must come out
real to within a small residue, which is asserted before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np

from .errors import CaseMismatchError, ConvergenceError, DomainError
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
from .special import ln1p_moment_table

__all__ = [
    "PartialFractionExpansion",
    "partial_fractions",
    "link_expansion",
    "pdf_case2",
    "cdf_case2",
    "closed_metrics",
]

_IMAG_TOL = 1e-9
_MAX_TOTAL_MULT = 64
_RECON_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PartialFractionExpansion:
    """Pole/coefficient tables of one link's transform.

    ``poles`` are the distinct decay rates (already divided by the mean
    SNR), ``mults`` their multiplicities, and ``A``/``B`` the ragged
    coefficient rows for the density and distribution mixtures.
    ``omega_norm`` is carried alongside so the expansion is self-contained.
    """

    poles: np.ndarray
    mults: np.ndarray
    A: tuple
    B: tuple
    omega_norm: float

    @property
    def total_mult(self) -> int:
        return int(self.mults.sum())


def _taylor_rows(factors: list[tuple[complex, int]], i: int) -> np.ndarray:
    """Expansion coefficients at pole group ``i`` of prod_k (s+x_k)^(-a_k).

    Returns A[j-1] for j = 1..n_i such that the group contributes
    sum_j A_j (s + p_i)^(-j).  Uses the Taylor series of the co-factor
    h(s) = prod_{k != i} (s+x_k)^(-a_k) about s = -p_i, generated by the
    recurrence t_{l+1} = (1/(l+1)) sum_q t_q w_{l+1-q} with w_r the power
    sums of the logarithmic derivative.
    """
    p, n = factors[i]
    others = [(x, a) for k, (x, a) in enumerate(factors) if k != i]
    t = np.zeros(n, dtype=complex)
    log_h = 0.0 + 0j
    for x, a in others:
        log_h -= a * np.log(x - p)
    t[0] = np.exp(log_h)
    if n > 1:
        w = np.zeros(n, dtype=complex)
        for r in range(1, n):
            w[r] = sum((-a) * (-1.0) ** (r - 1) / (x - p) ** r for x, a in others)
        for l in range(n - 1):
            t[l + 1] = np.dot(t[: l + 1], w[1 : l + 2][::-1]) / (l + 1)
    return t[::-1].copy()


def _mixture_value(poles, mults, rows, omega, s, with_cond: bool = False):
    s = np.asarray(s, dtype=complex)
    total = np.zeros_like(s)
    cond = np.zeros(s.shape)
    for p, n, row in zip(poles, mults, rows):
        for j in range(1, n + 1):
            term = row[j - 1] / (s + p) ** j
            total += term
            cond += np.abs(term)
    if with_cond:
        return omega * total, abs(omega) * cond
    return omega * total


def _transform_value(factors, ln_omega, s):
    s = np.asarray(s, dtype=complex)
    acc = np.full(s.shape, ln_omega, dtype=complex)
    for x, a in factors:
        acc -= a * np.log(s + x)
    return np.exp(acc)


def partial_fractions(
    dp: DerivedParams,
    avg_snr: float,
    *,
    merge_rtol: float = 1e-9,
    validate: bool = True,
) -> PartialFractionExpansion:
    """Decompose the link transform over its distinct poles.

    Rates closer than ``merge_rtol`` (relative) are coalesced, summing
    multiplicities; net-negative groups become numerator factors and the
    decomposition runs over the remaining poles only.  Raises a
    case-mismatch error when the exponents are not integers (or are too
    large for a numerically meaningful expansion).
    """
    # merge before the integer test: coinciding rates can sum fractional
    # exponents to integers (e.g. the no-dominant-component reductions)
    groups = merge_rate_groups(dp.theta_rates / avg_snr, dp.exponents, rtol=merge_rtol)
    net = [a for _, a in groups]
    if any(abs(a - round(a)) > 1e-9 for a in net):
        raise CaseMismatchError(
            f"net rate exponents {net!r} are not integers; use the numeric path"
        )
    factors = [(p, int(round(a))) for p, a in groups]
    total = sum(a for _, a in factors if a > 0)
    if total > _MAX_TOTAL_MULT:
        raise CaseMismatchError(
            f"total pole multiplicity {total} exceeds {_MAX_TOTAL_MULT}; use the numeric path"
        )

    poles = [p for p, a in factors if a > 0]
    mults = [a for _, a in factors if a > 0]
    A = tuple(_taylor_rows(factors, i) for i, (_, a) in enumerate(factors) if a > 0)
    with_origin = factors + [(0.0 + 0j, 1)]
    B = tuple(_taylor_rows(with_origin, i) for i, (_, a) in enumerate(factors) if a > 0)

    pfe = PartialFractionExpansion(
        poles=np.asarray(poles, dtype=complex),
        mults=np.asarray(mults, dtype=int),
        A=A,
        B=B,
        omega_norm=dp.omega_norm,
    )
    if validate:
        _validate_expansion(pfe, factors, dp.ln_omega)
    return pfe


def _validate_expansion(pfe, factors, ln_omega):
    # Far above the smallest pole the identity cancels its own leading 1/s
    # moments, so errors are measured against the term-magnitude sum
    # (backward error); a wrong coefficient still shows up at full size.
    mags = np.abs(pfe.poles)
    s = np.geomspace(0.3 * mags.min(), 3.0 * mags.max(), 20)
    direct = _transform_value(factors, ln_omega, s)
    recon, cond = _mixture_value(pfe.poles, pfe.mults, pfe.A, pfe.omega_norm, s, with_cond=True)
    err = np.max(np.abs(recon - direct) / np.maximum(np.abs(direct), cond))
    if err > _RECON_TOL:
        raise ConvergenceError(
            f"partial-fraction reconstruction error {err:.2e} (near-degenerate poles?)",
            achieved=float(err),
        )
    recon_c, cond_c = _mixture_value(pfe.poles, pfe.mults, pfe.B, pfe.omega_norm, s, with_cond=True)
    target = direct / s
    err_c = np.max(np.abs(recon_c + 1.0 / s - target) / np.maximum(np.abs(target), cond_c + 1.0 / s))
    if err_c > _RECON_TOL:
        raise ConvergenceError(
            f"distribution-side reconstruction error {err_c:.2e}", achieved=float(err_c)
        )


def link_expansion(params: FBParams, **kwargs) -> PartialFractionExpansion:
    """Expansion straight from user-facing parameters."""
    return partial_fractions(derive(params), params.avg_snr, **kwargs)


def _mixture_time_domain(pfe, rows, g):
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise DomainError("snr values must be >= 0")
    total = np.zeros(g.shape, dtype=complex)
    for p, n, row in zip(pfe.poles, pfe.mults, rows):
        poly = np.zeros(g.shape, dtype=complex)
        fact = 1.0
        for j in range(1, n + 1):
            if j > 1:
                fact *= j - 1
            poly += row[j - 1] * g ** (j - 1) / fact
        total += np.exp(-p * g) * poly
    return pfe.omega_norm * total


def _realify(z, what: str):
    z = complex(z)
    if abs(z.imag) > _IMAG_TOL * max(1.0, abs(z.real)):
        raise ConvergenceError(f"{what} has non-negligible imaginary residue {z.imag:.2e}")
    return z.real


def pdf_case2(pfe: PartialFractionExpansion, g):
    """Density of the instantaneous SNR (vectorised over ``g >= 0``)."""
    scalar = np.isscalar(g) or np.asarray(g).ndim == 0
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    vals = _mixture_time_domain(pfe, pfe.A, g_arr)
    out = np.clip(vals.real, 0.0, None)
    return float(out[0]) if scalar else out


def cdf_case2(pfe: PartialFractionExpansion, g):
    """Distribution of the instantaneous SNR (vectorised over ``g >= 0``)."""
    scalar = np.isscalar(g) or np.asarray(g).ndim == 0
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    vals = 1.0 + _mixture_time_domain(pfe, pfe.B, g_arr)
    out = np.clip(vals.real, 0.0, 1.0)
    out[g_arr == 0.0] = 0.0  # exact by construction
    return float(out[0]) if scalar else out


def _asc(bob: PartialFractionExpansion, eve: PartialFractionExpansion) -> float:
    """Average secrecy capacity in nats."""
    total = 0.0 + 0j
    for p, n, arow in zip(bob.poles, bob.mults, bob.A):
        T = ln1p_moment_table(int(n), p)
        total += bob.omega_norm * np.dot(arow, T)

    for pd, nd, a_d, b_d in zip(bob.poles, bob.mults, bob.A, bob.B):
        for pe, ne, a_e, b_e in zip(eve.poles, eve.mults, eve.A, eve.B):
            T = ln1p_moment_table(int(nd + ne - 1), pd + pe)
            cross = 0.0 + 0j
            for jd in range(1, int(nd) + 1):
                for je in range(1, int(ne) + 1):
                    w = math.exp(lgamma(jd + je - 1) - lgamma(jd) - lgamma(je))
                    cross += w * (a_d[jd - 1] * b_e[je - 1] + a_e[je - 1] * b_d[jd - 1]) * T[jd + je - 2]
            total += bob.omega_norm * eve.omega_norm * cross
    return _realify(total, "average secrecy capacity")


def _outage(
    bob: PartialFractionExpansion, eve: PartialFractionExpansion, theta: float, z: float
) -> float:
    """P(g_D - theta g_E < z) for theta > 0 and z >= 0.

    The integral of F_D(theta g + z) f_E(g) over the two mixtures: the
    binomial expansion of (theta g + z)^(jd-1) runs over r = 0..jd-1, and
    at z = 0 only its top term r = jd - 1 survives the vanishing z powers.
    """
    ln_theta = math.log(theta)
    acc = 0.0 + 0j
    for pd, nd, b_d in zip(bob.poles, bob.mults, bob.B):
        for pe, ne, a_e in zip(eve.poles, eve.mults, eve.A):
            den = np.log(theta * pd + pe)
            for jd in range(1, int(nd) + 1):
                for je in range(1, int(ne) + 1):
                    coef = a_e[je - 1] * b_d[jd - 1]
                    for r in range(jd) if z > 0.0 else (jd - 1,):
                        # binomial(jd-1, r) and the rising factorial (je)_r,
                        # with the 1/(jd-1)! prefactor folded in
                        L = (
                            -z * pd
                            + r * ln_theta
                            - lgamma(r + 1) - lgamma(jd - r)
                            + lgamma(je + r) - lgamma(je)
                            - (r + je) * den
                        )
                        pw = jd - 1 - r
                        if pw:
                            L += pw * math.log(z)
                        acc += coef * np.exp(L)
    val = 1.0 + bob.omega_norm * eve.omega_norm * acc
    return min(1.0, max(0.0, _realify(val, "secrecy outage probability")))


def closed_metrics(
    bob: FBParams, eve: FBParams, cfg: SecrecyConfig, metrics=METRICS
) -> dict[str, float]:
    """Secrecy metrics (``asc``, ``sop``, ``sopl``, ``spsc``), exact for Case-2 links.

    Builds both links' expansions once, then evaluates ASC and each
    distinct (theta, z) problem of ``cfg.outage_problems`` once.  Returns
    the metrics named in ``metrics``, in that order.  Raises
    CaseMismatchError when an exponent is not an integer, and
    ConvergenceError when an expansion or a value cannot be trusted.
    """
    check_metrics(metrics)
    exp_d, exp_e = link_expansion(bob), link_expansion(eve)
    problems = cfg.outage_problems(metrics)
    prob = {pz: _outage(exp_d, exp_e, *pz) for pz in set(problems.values())}
    values = {k: outage_value(k, prob[pz]) for k, pz in problems.items()}
    if "asc" in metrics:
        values["asc"] = _asc(exp_d, exp_e)
    return {k: values[k] for k in metrics}
