"""Hot numeric kernel: the log of one link's transform, in real arithmetic.

Every contour problem evaluates, at many points s = (zr + i zi) / tau,

    log M(s) = ln_omega - sum_j a_j log(s + p_j) - sum_k c_k log1p(delta_k / (s + x_k)),

as numpy broadcasts.  Regular factors contribute ``-a_j log(s + p_j)``;
"stiff pairs" (a huge exponent c_k on a rate sitting delta_k away from a
near-cancelling partner, as produced by the no-shadowing surrogates with
m ~ 1e6) contribute ``-c_k log1p(delta_k / (s + x_k))``, which avoids
multiplying rounding errors of O(ulp) logs by c_k.

All of it is real arithmetic: numpy's complex ``log`` and ``exp`` run
scalar loops, while its real ``log``, ``log1p`` and ``arctan2``
vectorise.  The poles are real (the singularities sit on the negative
axis), so with ``z = zr + p tau`` each factor's log is

    log(s + p) = log(z^2 + zi^2) / 2 - log tau + i arctan2(zi, z),

the principal branch of the complex log.  A caller with a small |s| may
pass a scale ``tau`` that keeps ``z^2 + zi^2`` normal; the contour of
:mod:`fbsec.inversion` passes ``tau = 1``.  The stiff pairs use ``log1p(2
wr + wr^2 + wi^2) / 2`` and ``arctan2(wi, 1 + wr)`` for w = delta tau / z.
"""

from __future__ import annotations

import numpy as np

__all__ = ["log_transform"]


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
