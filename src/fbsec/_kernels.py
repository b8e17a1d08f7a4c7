"""Hot numeric kernel: the log of one link's transform, in real arithmetic.

Every contour problem evaluates, at many points s = sr + i si,

    log M(s) = ln_omega - sum_j a_j log(s + p_j) - sum_k c_k log1p(delta_k / (s + x_k)),

as numpy broadcasts.  Regular factors contribute ``-a_j log(s + p_j)``;
"stiff pairs" (a root of huge exponent c_k = m lying delta_k from its
scattered partner x_k, delta_k exact from ``derive``, as in the
no-shadowing surrogates with m ~ 1e6) contribute ``-c_k log1p(delta_k /
(s + x_k))``, which avoids multiplying O(ulp) log rounding errors by c_k.

All of it is real arithmetic: numpy's complex ``log`` and ``exp`` run
scalar loops, while its real ``log``, ``log1p`` and ``arctan2``
vectorise.  The poles are real (the singularities sit on the negative
axis), so with ``z = sr + p`` each factor's log is

    log(s + p) = log(z^2 + si^2) / 2 + i arctan2(si, z),

the principal branch of the complex log.  The stiff pairs use ``log1p(2
wr + wr^2 + wi^2) / 2`` and ``arctan2(wi, 1 + wr)`` for w = delta / z.

Only the trapezoid terms of the outage contour read the imaginary part
(the phase).  The callers that read the modulus alone (the opening
probes, the saddle candidates' phi and the Chernoff bounds) pass
``phase=False``, which skips the ``arctan2`` loop and leaves the real part
bit-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["log_transform"]


def log_transform(sr, si, poles, exps, pair_x, pair_delta, pair_coef, ln_omega, phase=True):
    """Real and imaginary parts of the log of the transform at ``s = sr + i si``.

    ``sr``, ``si`` and the constant ``ln_omega`` (the log of the
    transform's scale factor) broadcast against each other, as may each
    entry of ``poles``, ``pair_x`` and ``pair_delta``.  Without ``phase``
    the imaginary part is not computed and comes back as None.
    """
    si2 = si * si
    re = ln_omega
    im = 0.0
    for p, a in zip(poles, exps):
        z = sr + p
        re = re - (0.5 * a) * np.log(z * z + si2)
        if phase:
            im = im - a * np.arctan2(si, z)
    for x, d, c in zip(pair_x, pair_delta, pair_coef):
        # w = delta / (s + x), and log(1 + w) from log1p
        z = sr + x
        k = d / (z * z + si2)
        wr, wi = k * z, -k * si
        re = re - (0.5 * c) * np.log1p(wr * (2.0 + wr) + wi * wi)
        if phase:
            im = im - c * np.arctan2(wi, 1.0 + wr)
    return re, im if phase else None
