"""Hot numeric kernel: contour-sum evaluation of the inverse transform.

The kernel evaluates, for each abscissa t in ``ts``,

    (lam / (N t)) * sum_k Re[ w_k * exp(L(s_k)) ],    s_k = base_k / t,

as numpy broadcasts over the N contour nodes and batches of ``_BATCH`` = 256
abscissae, which keeps each (batch x nodes) temporary within a core's
cache.  L is the log of the rational-power transform, assembled from two
factor kinds: regular factors contribute ``-a_j * log(s + p_j)``; "stiff
pairs" (a huge exponent c_j on a rate sitting delta_j away from a
near-cancelling partner, as produced by the no-shadowing surrogates with
m ~ 1e6) contribute ``-c_j * log1p(delta_j / (s + x_j))``, which avoids
multiplying rounding errors of O(ulp) logs by c_j.

All of it is real arithmetic: numpy's complex ``log`` and ``exp`` run
scalar loops, while its real ``log``, ``log1p``, ``arctan2`` and ``exp``
vectorise.  The poles are real (the singularities sit on the negative
axis), so every factor is taken in the scaled variable

    z = tau (s + p) = base_k tau / t + p tau,    tau = min(t, 1),

whose imaginary part ``Im base_k * tau / t`` all factors share, and

    log(s + p) = log(zr^2 + zi^2) / 2 - log tau + i arctan2(zi, zr),

the principal branch of the complex log.  For t <= 1, z = base_k + p t has
modulus at least ``lam * pi / N`` (``lam`` at node 0), so the square
neither underflows nor overflows however small t is.  For t > 1, z = s + p
itself: subtracting a log t there would cost the small log(s + p) the
digits of log t, and the square stays normal up to t ~ 1e150.  The stiff
pairs use ``log1p(2 wr + wr^2 + wi^2) / 2`` and ``arctan2(wi, 1 + wr)`` for
w = delta tau / z.  ``log w_k``, ``-s_pow log s`` and ``log(lam / (N tau))``
join the same real and imaginary parts, so each term is
``exp(re) * cos(im)``: one real ``exp`` and one ``cos`` per node and
abscissa, no complex multiply, and at tiny t no term underflows before
its final scale.
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
    x, y = base[1:].real, base[1:].imag
    w[1:] = np.exp(x) * (np.cos(y) + 1j * np.sin(y)) * (1.0 + 1j * sigma)
    return base, w


def log_transform(zr, zi, tau, ln_tau, poles, exps, pair_x, pair_delta, pair_coef, ln_omega):
    """Real and imaginary parts of the log of the transform at ``s = (zr + i zi) / tau``.

    ``zr``, ``zi``, ``tau > 0``, ``ln_tau = log(tau)`` and the constant
    ``ln_omega`` (the log of the transform's scale factor) broadcast against
    each other.  The poles are real, so ``tau (s + p)`` has real part
    ``zr + p tau`` and imaginary part ``zi``.
    """
    zi2 = zi * zi
    re = ln_omega + float(np.sum(exps)) * ln_tau  # the log tau of every regular factor
    im = 0.0
    for p, a in zip(np.real(poles), exps):
        z = zr + p * tau
        re = re - (0.5 * a) * np.log(z * z + zi2)
        im = im - a * np.arctan2(zi, z)
    for x, d, c in zip(np.real(pair_x), np.real(pair_delta), pair_coef):
        # w = delta / (s + x) = delta tau / z, and log(1 + w) from log1p
        z = zr + x * tau
        k = d * tau / (z * z + zi2)
        wr, wi = k * z, -k * zi
        re = re - (0.5 * c) * np.log1p(wr * (2.0 + wr) + wi * wi)
        im = im - c * np.arctan2(wi, 1.0 + wr)
    return re, im


_BATCH = 256  # abscissae per broadcast: keeps the (batch x nodes) temporaries cache-sized


def _real_exp_sum(re, im):
    """Row sums of Re exp(re + i im)."""
    terms = np.exp(re)
    terms *= np.cos(im)
    return terms.sum(axis=1)


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
        re, im = log_transform(base.real * r, base.imag * r, tau, ln_tau, poles, exps, pair_x,
                               pair_delta, pair_coef, ln_c)
        re = re + ln_w
        im = im + arg_w
        if s_pow != 0.0:
            re -= s_pow * (ln_b - ln_t)  # log s = log|base| - log t + i arg(base)
            im -= s_pow * arg_b
        out[lo:lo + _BATCH] = _real_exp_sum(re, im) * r[:, 0]
    return out
