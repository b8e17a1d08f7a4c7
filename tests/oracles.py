"""Reference code that only the tests use.

The partial-fraction route to the Case-2 metrics that the package's
residue sums replaced: each link's expansion into exponential-polynomial
mixtures (:func:`link_expansion`), checked at construction, and the
closed-form sums over two expansions (:func:`closed_sums`), whose ASC
reads tables of the ``ln(1+x)`` moment integral (:func:`ln1p_moment_table`,
from incomplete gamma values by one continued fraction and the order
recurrence).  The upper incomplete gamma function at any real order, the
``ln(1+x)`` moment integral as a scalar, Pochhammer symbols, binomial
coefficients, a direct power-series evaluator for the four-variable
confluent hypergeometric function, which cross-checks the SNR law at small
arguments, and the term-by-term loops of the closed-form sums and of the
partial-fraction rows.  They reuse the continued fraction and the
exponential-integral anchor of the moment tables, and scipy where the
package needs none.

One link's density and distribution, which no metric needs: the
exponential-polynomial mixtures of a Case-2 expansion, and for any
parameters a Talbot inversion of the link's transform (a fixed-shape
cotangent contour), with the transform itself.

The outage contour's choice of opening, probed through the full terms on
one rectangular grid of nodes, its first guess at the saddle point, from
phi at every one of the 128 candidate points, and a longer truncation of
its path, on which the sums must come out the same.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import lgamma

import numpy as np
import scipy.special as sc

from fbsec.errors import CaseMismatchError, ConvergenceError, DomainError, FbsecError
from fbsec.inversion import (
    _EDGE_FRACTIONS,
    _GROWTH,
    _LN_REACH,
    _OPENINGS,
    _PROBE_STEP,
    _Link,
    _paired,
    _rates,
)
from fbsec.params import (
    METRICS,
    FBParams,
    SecrecyConfig,
    check_metrics,
    derive,
    link_factors,
    outage_value,
)
from fbsec._kernels import log_transform

_COND_LIMIT = 1e7  # recurrence condition ratio ~ 1e-9 residual accuracy


# ---------------------------------------------------------------------------
# the incomplete-gamma moment tables of the closed-form ASC sums
# ---------------------------------------------------------------------------
# The moment integral of ln(1+x) against x^(a-1) exp(-b x) for integer a and
# complex b in the right half-plane is a finite sum of upper incomplete gamma
# values at non-positive integer order (ln1p_moment_table).  A table of the
# incomplete gamma at orders 0, -1, ..., -(n-1) is one anchor value and the
# order recurrence.  For |x| >= 2 the anchor is one continued fraction at
# order -k0, k0 = min(n-1, floor|x|), and the recurrence runs from it towards
# order 0 and towards order -(n-1), the two directions in which it damps
# errors.  Below |x| = 2 the anchor is the exponential integral, summed from
# its convergent power series, and the recurrence runs down from order 0.

_TINY = 1e-300
_CF_SWITCH = 2.0
_EULER_GAMMA = 0.5772156649015329


def _require_right_half_plane(x) -> complex:
    z = complex(x)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)) or z.real <= 0.0:
        raise DomainError(f"argument must satisfy Re(x) > 0, got {x!r}")
    return z


def _cf_scaled(a: float, z: complex) -> complex:
    """exp(z) * Gamma(a, z) by modified-Lentz continued fraction, Re(z) > 0."""
    b = z + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / (b if b != 0 else _TINY)
    h = d
    for j in range(1, 600):
        an = -j * (j - a)
        b = b + 2.0
        d = an * d + b
        if d == 0:
            d = _TINY
        c = b + an / c
        if c == 0:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return z**a * h
    raise ConvergenceError(f"incomplete-gamma continued fraction stalled at a={a}, x={z}")


def _exp1_scaled(z: complex) -> complex:
    """exp(z) * E1(z) for Re(z) > 0.

    Below |z| = 2 this sums E1(z) = -gamma - log z - sum_{k>=1} (-z)^k / (k k!),
    whose terms stay below e^2 in sum of magnitudes.
    """
    if abs(z) >= _CF_SWITCH:
        return _cf_scaled(0.0, z)
    term = 1.0 + 0j  # (-z)^k / k!
    series = 0j
    for k in range(1, 60):
        term *= -z / k
        series += term / k
        if abs(term) < 1e-17 * abs(series):
            break
    return cmath.exp(z) * (-_EULER_GAMMA - cmath.log(z) - series)


def _scaled_gamma_table(nmax: int, b) -> list[complex]:
    """exp(b)*Gamma(-k, b) for k = 0..nmax-1, at index k.

    Below |b| = 2 the table runs up from the exponential integral.  Above,
    one continued fraction anchors it at k0 = min(nmax - 1, floor|b|), and
    the order recurrence e^b Gamma(1-k, b) = b^-k - k e^b Gamma(-k, b) runs
    from there in whichever direction damps errors: down to 0, where each
    step scales them by about k/|b| <= 1, and up to nmax - 1, where each
    step scales them by about |b|/k < 1.
    """
    z = _require_right_half_plane(b)
    if abs(z) < _CF_SWITCH:
        table = [_exp1_scaled(z)]
        for k in range(1, nmax):
            table.append((table[-1] - z ** (-k)) / (-k))
        return table
    k0 = min(nmax - 1, int(abs(z)))
    table = [0j] * nmax
    table[k0] = _cf_scaled(float(-k0), z)
    for k in range(k0, 0, -1):
        table[k - 1] = z ** (-k) - k * table[k]
    for k in range(k0 + 1, nmax):
        table[k] = (z ** (-k) - table[k - 1]) / k
    return table


def ln1p_moment_table(nmax: int, b) -> np.ndarray:
    """T[n-1] = exp(b) * sum_{k=1..n} Gamma(k-n, b) / b**k for n = 1..nmax.

    ``Gamma(n) * T[n-1]`` equals ``int_0^inf x^(n-1) ln(1+x) e^(-bx) dx``.
    The same sum, grouped from the innermost term out, is one pass:
    T[n-1] = (exp(b) Gamma(1-n, b) + T[n-2]) / b.  For b > 0 every term is
    positive, so the grouping keeps the plain sum's accuracy.
    """
    z = complex(b)
    out = np.empty(nmax, dtype=complex)
    row = 0j
    for n, g in enumerate(_scaled_gamma_table(nmax, z)):
        row = out[n] = (g + row) / z
    return out


# ---------------------------------------------------------------------------
# Case-2 partial-fraction expansions and the closed-form sums over them
# ---------------------------------------------------------------------------
# When mu/2 and m are integers the transform is a rational function, so the
# density and distribution are finite exponential-polynomial mixtures
#
#     f(g) = omega * sum_i e^(-p_i g) sum_j A_ij g^(j-1) / (j-1)!
#     F(g) = 1 + omega * sum_i e^(-p_i g) sum_j B_ij g^(j-1) / (j-1)!
#
# (link_expansion), and ASC and P(g_D - theta g_E < z) are finite sums over
# the two links' tables (closed_sums).  These are the densities and
# distributions the tests integrate, and the sums the term-by-term loops
# below check.

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
    ln_direct, _ = log_transform(s, 0.0, rates.real, exps.real, (), (), (), ln_omega, phase=False)
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


def closed_sums(
    bob: FBParams, eve: FBParams, cfg: SecrecyConfig, metrics=METRICS
) -> dict[str, float]:
    """Secrecy metrics (``asc``, ``sop``, ``sopl``, ``spsc``) of Case-2 links from their expansions.

    The closed-form sums over both links' partial-fraction tables: ASC by
    :func:`_asc` and each distinct (theta, z) problem of
    ``cfg.outage_problems`` by :func:`_outage`, once each.  Raises
    CaseMismatchError when an exponent is not an integer, and
    ConvergenceError when an expansion or a value cannot be trusted (a
    non-finite value included).
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


@dataclass(frozen=True)
class EvalControl:
    """Convergence budget for direct series evaluation."""

    rel_tol: float = 1e-12
    max_terms: int = 10**6

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise DomainError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol!r}")
        if self.max_terms < 100:
            raise DomainError(f"max_terms must be >= 100, got {self.max_terms!r}")


def _lower_series(a: float, z: complex) -> complex:
    # gamma(a, z) = z^a e^-z sum_n z^n / (a (a+1) ... (a+n)); |z| < 2 only
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(200):
        ap += 1.0
        term *= z / ap
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return z**a * np.exp(-z) * total


def upper_gamma_scaled(a: float, x) -> complex | float:
    """exp(x) * Gamma(a, x) for real ``a`` and ``x`` with Re(x) > 0.

    The scaled form stays bounded where ``exp(x)`` alone would overflow.
    Returns a float for real input.
    """
    z = _require_right_half_plane(x)
    real_in = complex(x).imag == 0.0

    if abs(z) >= _CF_SWITCH:
        out = _cf_scaled(float(a), z)
        return out.real if real_in else out

    ai = round(a)
    if abs(a - ai) <= 1e-12 * max(1.0, abs(a)) and ai <= 0:
        # anchor at E1 and walk the order down; at |x| < 2 the subtracted
        # term dominates, so the walk is well conditioned (checked below)
        g = _exp1_scaled(z)
        cond = abs(g)
        for k in range(1, -int(ai) + 1):
            pw = z ** (-k)
            cond = max(cond, abs(pw))
            g = (g - pw) / (-k)
            if cond > _COND_LIMIT * max(abs(g), _TINY):
                g = _cf_scaled(float(a), z)
                break
        return g.real if real_in else g

    if a > 0:
        if real_in:
            xr = z.real
            return float(math.exp(xr) * sc.gammaincc(a, xr) * sc.gamma(a))
        return np.exp(z) * (sc.gamma(a) - _lower_series(float(a), z))

    # negative non-integer order: walk down from the fractional anchor
    steps = int(math.ceil(-a))
    a0 = a + steps
    g = upper_gamma_scaled(a0, z)
    cond = abs(g)
    ak = a0
    for _ in range(steps):
        ak -= 1.0
        pw = z**ak
        cond = max(cond, abs(pw))
        g = (g - pw) / ak
        if cond > _COND_LIMIT * max(abs(g), _TINY):
            out = _cf_scaled(float(a), z)
            return out.real if real_in else out
    return g.real if real_in else g


def upper_gamma(a: float, x) -> complex | float:
    """Upper incomplete gamma Gamma(a, x) = int_x^inf t^(a-1) e^-t dt.

    ``a`` may be any real, including non-positive integers where the
    function continues analytically (Gamma(0, x) is the exponential
    integral E1).  ``x`` must lie in the right half-plane; real x <= 0
    raises a domain error.
    """
    z = _require_right_half_plane(x)
    out = np.exp(-z) * upper_gamma_scaled(a, x)
    return out.real if complex(x).imag == 0.0 else out


def log_gamma_integral(a: int, b) -> float | complex:
    """int_0^inf x^(a-1) ln(1+x) e^(-bx) dx for integer a >= 1, Re(b) > 0.

    Evaluates the equivalent finite sum
    Gamma(a) * e^b * sum_{k=1..a} Gamma(k-a, b) / b**k.
    """
    if a != round(a) or a < 1:
        raise DomainError(f"order must be an integer >= 1, got {a!r}")
    a = int(a)
    val = sc.gamma(a) * ln1p_moment_table(a, b)[a - 1]
    return val.real if complex(b).imag == 0.0 else val


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = Gamma(a+n) / Gamma(a)."""
    if n != int(n) or n < 0:
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    return float(sc.poch(a, int(n)))


def binomial(n: int, k: int) -> float:
    """Standard binomial coefficient n! / (k! (n-k)!)."""
    if n != int(n) or k != int(k) or n < 0 or k < 0:
        raise DomainError(f"n, k must be non-negative integers, got {n!r}, {k!r}")
    if k > n:
        raise DomainError(f"k must be <= n, got k={k!r}, n={n!r}")
    return float(math.comb(int(n), int(k)))


def phi2_4_series(a, b: float, x, ctrl: EvalControl | None = None) -> float:
    """Four-variable confluent hypergeometric series (direct summation).

    Sums sum_{k1..k4} prod_i (a_i)_{k_i} x_i^{k_i} / k_i!  /  (b)_{|k|}
    degree by degree.  The series is entire but alternates for negative
    arguments, so for large |x| the partial sums cancel catastrophically;
    when the running cancellation or the term budget is exceeded a
    convergence error is raised and callers should use transform inversion
    instead.  Intended as a small-argument oracle.
    """
    ctrl = ctrl or EvalControl()
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.shape != (4,) or x.shape != (4,):
        raise DomainError("a and x must each hold exactly 4 values")

    rows = [[1.0] for _ in range(4)]  # rows[i][k] = (a_i)_k x_i^k / k!
    total = 0.0
    peak = 0.0
    small_run = 0
    used = 0
    deg = 0
    while True:
        if deg > 0:
            for i in range(4):
                k = deg - 1
                rows[i].append(rows[i][k] * (a[i] + k) * x[i] / (k + 1))
        c12 = np.convolve(rows[0], rows[1])
        c34 = np.convolve(rows[2], rows[3])
        s_deg = 0.0
        for j in range(deg + 1):
            s_deg += c12[j] * c34[deg - j]
        s_deg /= sc.poch(b, deg)
        total += s_deg
        peak = max(peak, abs(total), abs(s_deg))
        used += (deg + 1) ** 3
        if abs(s_deg) <= ctrl.rel_tol * max(abs(total), _TINY):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
        if used > ctrl.max_terms:
            raise ConvergenceError(
                f"series not converged within {ctrl.max_terms} terms (degree {deg})",
                achieved=abs(s_deg) / max(abs(total), _TINY),
            )
        deg += 1
    if peak > 0 and abs(total) < peak * 1e-13:
        raise ConvergenceError(
            f"series lost all significant digits (cancellation ratio {peak / max(abs(total), _TINY):.1e})"
        )
    return float(total)


# ---------------------------------------------------------------------------
# the closed-form sums, one term at a time
# ---------------------------------------------------------------------------
# casetwo evaluates these sums as array operations, in another order.  Each
# loop also returns the sum of its terms' magnitudes, which bounds what the
# reordering can move: within a small multiple of eps times that sum
# (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 4).


def pole_rows(pfe, coef) -> list[np.ndarray]:
    """A flat coefficient table (``term_A`` or ``term_B``) split into one row per pole."""
    return np.split(coef, np.cumsum(pfe.mults)[:-1])


def outage_loops(bob, eve, theta: float, z: float) -> tuple[float, float]:
    """P(g_D - theta g_E < z) of two expansions, and 1 + |omega_D omega_E| sum |terms|."""
    ln_theta = math.log(theta)
    acc = 0.0 + 0j
    mag = 0.0
    for pd, nd, b_d in zip(bob.poles, bob.mults, pole_rows(bob, bob.term_B)):
        for pe, ne, a_e in zip(eve.poles, eve.mults, pole_rows(eve, eve.term_A)):
            den = np.log(theta * pd + pe)
            for jd in range(1, int(nd) + 1):
                for je in range(1, int(ne) + 1):
                    coef = a_e[je - 1] * b_d[jd - 1]
                    for r in range(jd) if z > 0.0 else (jd - 1,):
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
                        term = coef * np.exp(L)
                        acc += term
                        mag += abs(term)
    val = 1.0 + bob.omega_norm * eve.omega_norm * acc
    prob = min(1.0, max(0.0, _realify(val, "secrecy outage probability")))
    return prob, 1.0 + abs(bob.omega_norm * eve.omega_norm) * mag


def asc_loops(bob, eve) -> tuple[float, float]:
    """Average secrecy capacity (nats) of two expansions, and the sum of its terms' magnitudes."""
    total = 0.0 + 0j
    mag = 0.0
    bob_a, bob_b = pole_rows(bob, bob.term_A), pole_rows(bob, bob.term_B)
    eve_a, eve_b = pole_rows(eve, eve.term_A), pole_rows(eve, eve.term_B)
    for p, n, arow in zip(bob.poles, bob.mults, bob_a):
        T = ln1p_moment_table(int(n), p)
        total += bob.omega_norm * np.dot(arow, T)
        mag += abs(bob.omega_norm) * float(np.sum(np.abs(arow * T)))

    for pd, nd, a_d, b_d in zip(bob.poles, bob.mults, bob_a, bob_b):
        for pe, ne, a_e, b_e in zip(eve.poles, eve.mults, eve_a, eve_b):
            T = ln1p_moment_table(int(nd + ne - 1), pd + pe)
            cross = 0.0 + 0j
            cross_mag = 0.0
            for jd in range(1, int(nd) + 1):
                for je in range(1, int(ne) + 1):
                    w = math.exp(lgamma(jd + je - 1) - lgamma(jd) - lgamma(je))
                    cross += w * (a_d[jd - 1] * b_e[je - 1] + a_e[je - 1] * b_d[jd - 1]) * T[jd + je - 2]
                    cross_mag += w * (abs(a_d[jd - 1] * b_e[je - 1]) + abs(a_e[je - 1] * b_d[jd - 1])) * abs(T[jd + je - 2])
            total += bob.omega_norm * eve.omega_norm * cross
            mag += abs(bob.omega_norm * eve.omega_norm) * cross_mag
    return _realify(total, "average secrecy capacity"), mag


def mixture_time_domain_loops(pfe, coef, g) -> tuple[np.ndarray, np.ndarray]:
    """omega * sum_i e^(-p_i g) sum_j coef_ij g^(j-1) / (j-1)! at each g >= 0, and the sum of |terms|."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise DomainError("snr values must be >= 0")
    total = np.zeros(g.shape, dtype=complex)
    mag = np.zeros(g.shape)
    for p, n, row in zip(pfe.poles, pfe.mults, pole_rows(pfe, coef)):
        poly = np.zeros(g.shape, dtype=complex)
        fact = 1.0
        for j in range(1, n + 1):
            if j > 1:
                fact *= j - 1
            poly += row[j - 1] * g ** (j - 1) / fact
            mag += np.abs(row[j - 1] * g ** (j - 1) / fact * np.exp(-p * g))
        total += np.exp(-p * g) * poly
    return pfe.omega_norm * total, abs(pfe.omega_norm) * mag


def taylor_row_loops(factors, i) -> np.ndarray:
    """Expansion coefficients at pole group ``i`` of prod_k (s+x_k)^(-a_k), one factor list at a time.

    The single-list form of ``casetwo._taylor_rows``: its A row is this on
    ``factors`` and its B row this on ``factors + [(0j, 1)]``, each with its
    own log co-factor and power sums.
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


# ---------------------------------------------------------------------------
# one link's density and distribution
# ---------------------------------------------------------------------------

_FACT = np.cumprod(np.r_[1.0, np.arange(1.0, _MAX_TOTAL_MULT)])  # k! for k < _MAX_TOTAL_MULT


def _mixture_time_domain(pfe, coef, g):
    """omega * sum over terms of coef g^(j-1) / (j-1)! e^(-pole g), at each g >= 0."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise DomainError("snr values must be >= 0")
    g = g[..., None]
    k = pfe.term_j - 1
    return pfe.omega_norm * (coef * g**k / _FACT[k] * np.exp(-pfe.term_pole * g)).sum(-1)


def pdf_case2(pfe, g):
    """Density of the instantaneous SNR of a Case-2 expansion (vectorised over ``g >= 0``)."""
    out = np.clip(_mixture_time_domain(pfe, pfe.term_A, g).real, 0.0, None)
    return out if out.ndim else float(out)


def cdf_case2(pfe, g):
    """Distribution of the instantaneous SNR of a Case-2 expansion (vectorised over ``g >= 0``)."""
    g = np.asarray(g, dtype=float)
    vals = 1.0 + _mixture_time_domain(pfe, pfe.term_B, g)
    out = np.where(g == 0.0, 0.0, np.clip(vals.real, 0.0, 1.0))  # 0 at g = 0 exactly, by construction
    return out if out.ndim else float(out)


def residue_tail_mp(bob, eve, theta: float, z: float):
    """1 - P(g_D - theta g_E < z) as the sum of Bob's residues, at mpmath's working precision.

    From the float factors of two Case-2 contour links (``inversion._Link``), as the package's
    residue sums read them, so that the difference from theirs is their own rounding: at Bob's
    pole -p of order n, the Taylor coefficient t_(n-1) of the co-factor by the plain
    logarithmic-derivative recurrence, every factor in its power sums.
    """
    import mpmath as mp

    x = [mp.mpf(v) for v in bob.factors[0].tolist()]
    a = [round(v) for v in bob.factors[1].tolist()]
    y = [mp.mpf(v) for v in eve.factors[0].tolist()]
    b = [round(v) for v in eve.factors[1].tolist()]
    theta, z = mp.mpf(theta), mp.mpf(z)
    total = mp.mpf(0)
    for i, (p, n) in enumerate(zip(x, a)):
        if n <= 0:
            continue
        others = [(a[k], x[k]) for k in range(len(x)) if k != i]
        cofactor = others + [(1, 0)] + [(bj, -yj / theta) for bj, yj in zip(b, y)]  # (c, x): (s + x)^-c
        t0 = (mp.exp(mp.mpf(bob.ln_omega) + mp.mpf(eve.ln_omega) - p * z)
              * mp.fprod((xk - p) ** -ak for ak, xk in others) / -p
              * mp.fprod((yj + theta * p) ** -bj for bj, yj in zip(b, y)))
        w = [0] + [mp.fsum(c / (p - xk) ** r for c, xk in cofactor) for r in range(1, n)]
        if n > 1:
            w[1] += z
        t = [mp.mpf(1)]
        for l in range(n - 1):
            t.append(mp.fsum(t[q] * w[l + 1 - q] for q in range(l + 1)) / (l + 1))
        total += t0 * t[n - 1]
    return -total


def law_reference(p):
    """(ln omega, rates, exponents) of link ``p`` at mpmath's working precision, from its
    parameters alone: the quadratic's roots, the larger first, with exponent m, and the
    scattered rates sc/eta and sc with mu/2 - m, every rate over the mean SNR."""
    import mpmath as mp

    mu, m, kappa, eta, rho2, snr = (mp.mpf(x) for x in (p.mu, p.m, p.kappa, p.eta, p.rho2, p.avg_snr))
    alpha2 = 4 * eta / (mu**2 * (1 + eta) ** 2 * (1 + kappa) ** 2)
    alpha1 = alpha2 + 2 * kappa * (rho2 + eta) / (m * (1 + rho2) * mu * (1 + eta) * (1 + kappa) ** 2)
    beta = -(2 / mu + kappa / m) / (1 + kappa)
    sq = mp.sqrt(beta**2 - 4 * alpha1)
    sc = mu * (1 + eta) * (1 + kappa) / 2
    rates = [(-beta + sq) / (2 * alpha1), (-beta - sq) / (2 * alpha1), sc / eta, sc]
    exponents = [m, m, mu / 2 - m, mu / 2 - m]
    ln_omega = mp.fsum(a * mp.log(r) for r, a in zip(rates, exponents)) - mu * mp.log(snr)
    return ln_omega, [r / snr for r in rates], exponents


def contour_factors(dp, avg_snr: float):
    """One link's factors as the contour holds them (``_Link.factors``): the columns poles,
    exps, pair_x, pair_delta and pair_coef of its regular factors and stiff pairs."""
    regular, pairs = link_factors(dp, avg_snr, _paired)
    return (*np.array(regular).reshape(-1, 2).T, *np.array(pairs).reshape(-1, 3).T)


def mgf(dp, avg_snr: float, s):
    """Transform value omega * prod_k (s + theta_k/avg_snr)^(-a_k).

    Analytic for Re(s) > 0; evaluated in log space, with near-cancelling
    factor pairs combined so the huge-``m`` reductions stay accurate.
    """
    factors = contour_factors(dp, avg_snr)
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    re, im = log_transform(s_arr.real, s_arr.imag, *factors, dp.ln_omega)
    out = np.exp(re) * (np.cos(im) + 1j * np.sin(im))
    return complex(out[0]) if np.isscalar(s) or np.asarray(s).ndim == 0 else out


# The Talbot inversion: for each abscissa t,
#
#     (lam / (N t)) * sum_k Re[ w_k * exp(L(s_k)) ],    s_k = base_k / t,
#
# with L the log of the transform times s^-s_pow, in real arithmetic only.
# Every factor is taken in the scaled variable z = tau (s + p), tau =
# min(t, 1), whose imaginary part all factors share: for t <= 1, z = base_k
# + p t has modulus at least lam * pi / N, so the square neither underflows
# nor overflows however small t is.  The amplitude lam (= Re(s t) at the
# contour apex) is capped at 10: past it the exp(lam) * eps rounding floor,
# not the trapezoid truncation, limits double precision.

_LAM_CAP = 10.0
_NODE_FRACTION = 0.4  # classical amplitude rule lam = 0.4 * nodes, here capped
_PROBE_FRACTIONS = (0.3, 0.7, 1.0, 1.5, 2.5)
_PROBE_RTOL = 1e-6
# least relative noise of a contour-sum distribution value: the exp(lam) *
# eps floor of the capped contour (1e-13 to 1e-12 on ordinary links)
_KERNEL_NOISE = 1e-11
_BATCH = 256  # abscissae per broadcast: keeps the (batch x nodes) temporaries cache-sized


class InversionInstabilityError(FbsecError):
    """Two node counts of the Talbot inversion disagree materially."""


def lam_for(nodes: int) -> float:
    return min(_NODE_FRACTION * nodes, _LAM_CAP)


def contour_nodes(n_nodes: int, lam: float):
    """Contour points (times t) and trapezoid weights.

    ``base_k = lam * theta_k * (cot(theta_k) + i)`` is the product s*t along
    the contour, which is abscissa-independent.
    """
    k = np.arange(n_nodes)
    th = k * math.pi / n_nodes
    base = np.empty(n_nodes, dtype=np.complex128)
    base[0] = lam
    cot = 1.0 / np.tan(th[1:])
    base[1:] = lam * th[1:] * (cot + 1j)
    w = np.empty(n_nodes, dtype=np.complex128)
    w[0] = 0.5 * math.exp(lam)
    sigma = th[1:] + (th[1:] * cot - 1.0) * cot
    x, y = base[1:].real, base[1:].imag
    w[1:] = np.exp(x) * (np.cos(y) + 1j * np.sin(y)) * (1.0 + 1j * sigma)
    return base, w


def talbot_sum(ts, base, w, poles, exps, pair_x, pair_delta, pair_coef, ln_omega, s_pow, lam):
    """Contour sum at every abscissa in ``ts`` (s_pow 0: density, 1: distribution)."""
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty(ts.size)
    n_nodes = len(base)
    live = w != 0  # nodes whose weight underflowed add exactly nothing
    base, w = base[live], w[live]
    ln_w, arg_w = np.log(np.abs(w)), np.angle(w)
    ln_b, arg_b = np.log(np.abs(base)), np.angle(base)
    for lo in range(0, ts.size, _BATCH):
        t = ts[lo:lo + _BATCH, None]
        ln_t = np.log(t)
        tau = np.minimum(t, 1.0)
        r = tau / t
        # the sum's lam / (N t) is lam / (N tau) inside the log, which keeps
        # every term at its final size at tiny t, and tau / t = r after it
        ln_tau = np.log(tau)
        ln_c = ln_omega + math.log(lam / n_nodes) - ln_tau
        # the kernel at z = base r + p tau: every rate times tau, and each
        # regular factor's log tau in the constant
        p_tau, x_tau, d_tau = (np.asarray(x)[:, None, None] * tau for x in (poles, pair_x, pair_delta))
        re, im = log_transform(base.real * r, base.imag * r, p_tau, exps, x_tau, d_tau, pair_coef,
                               ln_c + float(np.sum(exps)) * ln_tau)
        re = re + ln_w
        im = im + arg_w
        if s_pow != 0.0:
            re -= s_pow * (ln_b - ln_t)  # log s = log|base| - log t + i arg(base)
            im -= s_pow * arg_b
        terms = np.exp(re)
        terms *= np.cos(im)
        out[lo:lo + _BATCH] = terms.sum(axis=1) * r[:, 0]
    return out


class TalbotLink(_Link):
    """One link with its Talbot contour: density, distribution and a node-doubling probe."""

    def __init__(self, dp, avg_snr: float, nodes: int = 48):
        # _Link's fields, from the derived constants its callers already hold
        self.factors = contour_factors(dp, avg_snr)
        self.ln_omega = dp.ln_omega
        self.mu = dp.mu
        self.avg_snr = avg_snr
        self.r, self.big = _rates(*link_factors(dp, avg_snr, _paired))
        self.nodes = nodes
        self.lam = lam_for(nodes)
        self.base, self.w = contour_nodes(nodes, self.lam)
        self.noise = _KERNEL_NOISE  # relative noise of a distribution value; see probe_check

    def _eval(self, g, s_pow, nodes=None):
        if nodes is None:
            base, w, lam = self.base, self.w, self.lam
        else:
            lam = lam_for(nodes)
            base, w = contour_nodes(nodes, lam)
        return talbot_sum(g, base, w, *self.factors, self.ln_omega, s_pow, lam)

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
        noise level.
        """
        g = self.avg_snr * np.asarray(_PROBE_FRACTIONS)
        v1 = self._eval(g, 0.0)
        v2 = self._eval(g, 0.0, nodes=2 * self.nodes)
        floor = 1e-3 * float(np.max(np.abs(v1))) + 1e-300
        rel = np.abs(v1 - v2) / np.maximum(np.maximum(np.abs(v1), np.abs(v2)), floor)
        worst = float(rel.max())
        self.noise = max(_KERNEL_NOISE, worst)
        if worst > _PROBE_RTOL:
            raise InversionInstabilityError(
                f"node counts {self.nodes} and {2 * self.nodes} disagree by {worst:.2e} (> {_PROBE_RTOL:g})"
            )


def _scalar_or_array(x, out):
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def pdf_numeric(dp, avg_snr: float, g, nodes: int = 48):
    """Density by Talbot inversion of the transform (g > 0, vectorised)."""
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    if np.any(g_arr <= 0):
        raise DomainError("pdf_numeric requires g > 0")
    link = TalbotLink(dp, avg_snr, nodes)
    link.probe_check()
    return _scalar_or_array(g, link.pdf(g_arr))


def cdf_numeric(dp, avg_snr: float, g, nodes: int = 48):
    """Distribution by Talbot inversion of transform/s (g >= 0, vectorised)."""
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    if np.any(g_arr < 0):
        raise DomainError("cdf_numeric requires g >= 0")
    link = TalbotLink(dp, avg_snr, nodes)
    link.probe_check()
    return _scalar_or_array(g, link.cdf(g_arr, band_check=True))


def opening_reference(contour, c, w, theta, z):
    """beta of ``_Bromwich._opening``, from the full ``terms`` on one grid of nodes.

    Every live problem is probed at t = 0, 0.5, ... up to the batch's
    largest truncation, and nodes past its own truncation are masked out.
    """
    n, k = len(c), len(_OPENINGS)
    beta = w[:, None] * _OPENINGS
    t_max = contour._truncation(w[:, None], beta, theta[:, None], z[:, None])
    top = min(t_max.max(), (_LN_REACH - np.log(w)).min())
    t = _PROBE_STEP * np.arange(int(np.ceil(top / _PROBE_STEP)) + 1)
    j = np.full(n, k - 1)
    live = np.arange(n)
    for i in range(k - 1):
        shape = (live.size, t.size)

        def grid(x):
            return np.broadcast_to(x[live, None], shape)

        with np.errstate(over="ignore"):  # only the logs are read: a grown term may overflow
            _, _, re = contour.terms(np.broadcast_to(t, shape), grid(c), grid(w),
                                     grid(beta[:, i]), grid(theta), grid(z))
        if i == 0:
            limit = re[:, 0] + math.log(_GROWTH)
        peak = np.max(np.where(t <= t_max[live, i, None], re, -np.inf), axis=-1)
        flat = ~(peak > limit[live])
        j[live[flat]] = i
        live = live[~flat]
        if not live.size:
            break
    return beta[np.arange(n), j]


def saddle_start_reference(contour, theta, z):
    """(c, lo, hi, edge) of ``_Bromwich.saddle_start``, from phi at all 64 points of each side.

    The first least phi over both sides, side-major (the side 0 < c first),
    is the guess, and its grid neighbours on its side are the bracket.
    """
    n, m = len(theta), len(_EDGE_FRACTIONS)
    edge = np.stack([contour.e.r / theta, np.full(n, -contour.d.r)], axis=1)  # (n, side)
    grid = (edge[..., None] * _EDGE_FRACTIONS).reshape(n, 2 * m)
    with np.errstate(divide="ignore"):  # a distance that underflows makes phi infinite there
        phi = contour._log_m(grid, 0.0, theta[:, None])[0] + z[:, None] * grid - np.log(np.abs(grid))
    rows = np.arange(n)
    j = np.argmin(phi, axis=1)
    side, k = np.divmod(j, m)
    nb = grid[rows[:, None], side[:, None] * m + np.clip(k[:, None] + [-1, 1], 0, m - 1)]
    return grid[rows, j], nb.min(axis=1), nb.max(axis=1), edge[rows, side]


def truncation_reference(contour, w, beta, theta, z):
    """T of ``_Bromwich._truncation`` with e^(sz) cut at t = log(80 / (beta z) + 1) + 2.

    There beta z (cosh t - 1) is at least 40 e^2, so e^(sz) has fallen 295
    e-folds or more: every node past 40 e-folds is one more term far
    below the sum's rounding.  The algebraic cut is the same.
    """
    t_max = np.arcsinh(np.maximum(contour.d.big, contour.e.big / theta) / w) + contour.decay
    with np.errstate(divide="ignore"):
        return np.minimum(t_max, np.where(z > 0.0, np.log(80.0 / (beta * z) + 1.0) + 2.0, np.inf))
