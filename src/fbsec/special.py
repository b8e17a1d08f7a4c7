"""Scalar special functions used by the closed-form secrecy metrics.

The closed-form ASC needs the moment integral of ``ln(1+x)`` against
``x**(a-1) * exp(-b*x)`` for integer ``a`` and complex ``b`` in the right
half-plane, which is a finite sum of upper incomplete gamma values at
non-positive integer order (:func:`ln1p_moment_table`).

Everything here is plain IEEE-754 double arithmetic.  A table of the
incomplete gamma at orders 0, -1, ..., -(n-1) is one anchor value and the
order recurrence.  For |x| >= 2 the anchor is one continued fraction at
order -k0, k0 = min(n-1, floor|x|), and the recurrence runs from it towards
order 0 and towards order -(n-1), the two directions in which it damps
errors.  Below |x| = 2 the anchor is the exponential integral, summed from
its convergent power series, and the recurrence runs down from order 0.
This keeps the relative error near machine precision across the argument
range the metrics produce (run down from order 0 alone at large x, the
recurrence would multiply errors by about x/k at each order -k above -x).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = ["ln1p_moment_table"]

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
