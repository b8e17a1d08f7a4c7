"""Special-function oracles that only the tests use.

The upper incomplete gamma function at any real order, the ``ln(1+x)``
moment integral as a scalar, Pochhammer symbols, binomial coefficients,
a direct power-series evaluator for the four-variable confluent
hypergeometric function, which cross-checks the SNR law at small
arguments, and the term-by-term loops of the closed-form sums.  They reuse the continued fraction and the exponential-integral
anchor of :mod:`fbsec.special`, and scipy where the package needs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np
import scipy.special as sc

from fbsec.casetwo import _realify
from fbsec.errors import ConvergenceError, DomainError
from fbsec.special import (
    _CF_SWITCH,
    _TINY,
    _cf_scaled,
    _exp1_scaled,
    _require_right_half_plane,
    ln1p_moment_table,
)

_COND_LIMIT = 1e7  # recurrence condition ratio ~ 1e-9 residual accuracy


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


def outage_loops(bob, eve, theta: float, z: float) -> tuple[float, float]:
    """P(g_D - theta g_E < z) of two expansions, and 1 + |omega_D omega_E| sum |terms|."""
    ln_theta = math.log(theta)
    acc = 0.0 + 0j
    mag = 0.0
    for pd, nd, b_d in zip(bob.poles, bob.mults, bob.B):
        for pe, ne, a_e in zip(eve.poles, eve.mults, eve.A):
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
    for p, n, arow in zip(bob.poles, bob.mults, bob.A):
        T = ln1p_moment_table(int(n), p)
        total += bob.omega_norm * np.dot(arow, T)
        mag += abs(bob.omega_norm) * float(np.sum(np.abs(arow * T)))

    for pd, nd, a_d, b_d in zip(bob.poles, bob.mults, bob.A, bob.B):
        for pe, ne, a_e, b_e in zip(eve.poles, eve.mults, eve.A, eve.B):
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


def mixture_time_domain_loops(pfe, rows, g) -> tuple[np.ndarray, np.ndarray]:
    """omega * sum_i e^(-p_i g) sum_j row_ij g^(j-1) / (j-1)! at each g >= 0, and the sum of |terms|."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise DomainError("snr values must be >= 0")
    total = np.zeros(g.shape, dtype=complex)
    mag = np.zeros(g.shape)
    for p, n, row in zip(pfe.poles, pfe.mults, rows):
        poly = np.zeros(g.shape, dtype=complex)
        fact = 1.0
        for j in range(1, n + 1):
            if j > 1:
                fact *= j - 1
            poly += row[j - 1] * g ** (j - 1) / fact
            mag += np.abs(row[j - 1] * g ** (j - 1) / fact * np.exp(-p * g))
        total += np.exp(-p * g) * poly
    return pfe.omega_norm * total, abs(pfe.omega_norm) * mag
