"""Hot numeric kernel: contour-sum evaluation of the inverse transform.

The kernel evaluates, for each abscissa t in ``ts``,

    (lam / (M t)) * sum_k Re[ w_k * exp(L(s_k)) ],    s_k = base_k / t,

as one numpy broadcast over abscissae and contour nodes.  L is the log
of the rational-power transform, assembled from two factor kinds:
regular factors contribute ``-a_j * log(s + x_j)``; "stiff pairs" (a huge
exponent c_j on a rate sitting delta_j away from a near-cancelling
partner, as produced by the no-shadowing surrogates with m ~ 1e6)
contribute ``-c_j * log1p(delta_j / (s + x_j))``, which avoids
multiplying rounding errors of O(ulp) logs by c_j.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["talbot_sum", "contour_nodes", "log_transform"]


def contour_nodes(n_nodes: int, lam: float):
    """Precompute contour points (times t) and trapezoid weights.

    ``base_k = lam * theta_k * (cot(theta_k) + i)`` is the product s*t along
    the contour, which is abscissa-independent; ``lam`` caps the real part
    so the exp() amplification stays below the double-precision noise floor.
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
    w[1:] = np.exp(base[1:]) * (1.0 + 1j * sigma)
    return base, w


def log_transform(s, poles, exps, pair_x, pair_delta, pair_coef, ln_omega, s_pow):
    """Log of the transform divided by s**s_pow, elementwise over the complex array ``s``."""
    ln = np.full(s.shape, complex(ln_omega), dtype=np.complex128)
    for p, a in zip(poles, exps):
        ln -= a * np.log(s + p)
    for x, d, c in zip(pair_x, pair_delta, pair_coef):
        w = d / (s + x)
        small = np.abs(w) < 1e-4
        lw = np.empty_like(w)
        ws = w[small]
        lw[small] = ws * (1.0 - ws * (0.5 - ws * (1.0 / 3.0 - ws * 0.25)))
        lw[~small] = np.log(1.0 + w[~small])
        ln -= c * lw
    if s_pow != 0.0:
        ln -= s_pow * np.log(s)
    return ln


def talbot_sum(ts, base, w, poles, exps, pair_x, pair_delta, pair_coef, ln_omega, s_pow, lam):
    """Contour sum at every abscissa in ``ts`` (s_pow 0: density, 1: distribution)."""
    ts = np.asarray(ts, dtype=np.float64)
    s = base[None, :] / ts[:, None]
    ln = log_transform(s, poles, exps, pair_x, pair_delta, pair_coef, ln_omega, s_pow)
    m = len(base)
    return (np.exp(ln) * w[None, :]).real.sum(axis=1) * lam / (m * ts)
