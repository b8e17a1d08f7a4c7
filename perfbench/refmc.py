"""Reference Monte Carlo for the checks, written apart from fbsec.montecarlo.

It draws the received power from the model's physical construction:
``mu`` clusters whose in-phase and quadrature parts are Gaussian with
variances ``sx2`` and ``sy2`` (``eta = sx2/sy2``, ``sx2 + sy2 = 1``) around
dominant components ``xi*p`` and ``xi*q`` with ``p^2/q^2 = rho2`` and
``p^2 + q^2 = kappa*mu``, where the shadowing power ``xi^2`` is
Gamma(m, 1/m).  Each part is then a scaled noncentral chi-square with
``mu`` degrees of freedom, drawn as a Poisson mixture of gammas, which
allows any real ``mu``.  The mean power is ``mu*(1 + kappa)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CHUNK = 1 << 16


def _noncentral_chi2(rng, dof: float, noncentrality):
    # chi'^2(dof, nc) = Gamma(dof/2 + J, scale 2) with J ~ Poisson(nc/2)
    return 2.0 * rng.standard_gamma(0.5 * dof + rng.poisson(0.5 * noncentrality))


def draw_snr(link: dict, rng, n: int):
    """``n`` instantaneous SNR draws of a link given in CLI terms (dB)."""
    mu, m, kappa = float(link["mu"]), float(link["m"]), float(link["kappa"])
    eta, rho2 = float(link["eta"]), float(link["rho2"])
    sx2, sy2 = eta / (1.0 + eta), 1.0 / (1.0 + eta)
    p2 = kappa * mu * rho2 / (1.0 + rho2)
    q2 = kappa * mu / (1.0 + rho2)
    shadow = rng.standard_gamma(m, size=n) / m
    power = (sx2 * _noncentral_chi2(rng, mu, shadow * p2 / sx2)
             + sy2 * _noncentral_chi2(rng, mu, shadow * q2 / sy2))
    return 10.0 ** (float(link["snr_db"]) / 10.0) * power / (mu * (1.0 + kappa))


@dataclass(frozen=True)
class Estimate:
    mean: float
    var: float      # per-sample variance
    n: int


def secrecy_estimates(bob: dict, eve: dict, rs: float, n: int, seed: int) -> dict[str, Estimate]:
    """ASC, SOP, SOP^L and SPSC from one set of ``n`` (Bob, Eve) draws."""
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = math.exp(rs)
    sums = dict.fromkeys(("asc", "sop", "sopl", "spsc"), 0.0)
    asc_sq = 0.0
    left = n
    while left:
        k = min(_CHUNK, left)
        gd = draw_snr(bob, rng, k)
        ge = draw_snr(eve, rng, k)
        gap = np.maximum(np.log1p(gd) - np.log1p(ge), 0.0)
        sums["asc"] += float(gap.sum())
        asc_sq += float((gap * gap).sum())
        sums["sop"] += float(np.count_nonzero(gd < theta * ge + theta - 1.0))
        sums["sopl"] += float(np.count_nonzero(gd < theta * ge))
        sums["spsc"] += float(np.count_nonzero(gd > ge))
        left -= k
    out = {}
    for name, total in sums.items():
        mean = total / n
        var = asc_sq / n - mean * mean if name == "asc" else mean * (1.0 - mean)
        out[name] = Estimate(mean, max(var, 0.0), n)
    return out
