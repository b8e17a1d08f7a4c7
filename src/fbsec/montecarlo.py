"""Stochastic oracle: exact sampling of the fading SNR and metric estimation.

The instantaneous SNR is sampled from its physical construction rather
than from the transform: conditional on a unit-mean gamma shadowing factor
xi^2 ~ Gamma(m, 1/m), the received power is the sum of two independent
scaled noncentral chi-squares (in-phase and quadrature clusters), each
drawn through the Poisson-mixture representation

    chi'^2(nu, lam) ~ Gamma(nu/2 + J, 2),   J ~ Poisson(lam/2),

which supports any real number of clusters.  The draw is normalised by the
mean received power, so E[snr] = avg_snr by construction.

One sampling pass feeds all four metrics: each (g_D, g_E) chunk is drawn
once and every statistic is accumulated from it.

Reproducibility contract: estimates are bit-exact for a fixed
(seed, n_streams, n_samples).  Each stream is a counter-based generator
keyed by (seed, stream index, link role) with a private 2^128 counter
block, streams are processed in fixed-size chunks, and partial sums
combine over streams by a fixed-shape pairwise tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .casetwo import SecrecyConfig
from .errors import ParameterError
from .params import FBParams

__all__ = [
    "MCConfig",
    "MCEstimate",
    "PhysicalModel",
    "physical_model",
    "sample_snr",
    "estimate",
]

_CHUNK = 1 << 19


@dataclass(frozen=True)
class MCConfig:
    """Sample budget, seed, and substream layout."""

    n_samples: int = 10_000_000
    seed: int = 0
    n_streams: int = 8

    def __post_init__(self):
        if self.n_samples < 10_000:
            raise ParameterError("n_samples", f"must be >= 1e4 for meaningful errors, got {self.n_samples!r}")
        if self.n_streams < 1:
            raise ParameterError("n_streams", f"must be >= 1, got {self.n_streams!r}")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n: int
    seed: int


@dataclass(frozen=True)
class PhysicalModel:
    """Aggregate dominant/scattered powers behind one link's parameters."""

    sigma_x2: float
    p2: float
    q2: float
    mean_power: float


def physical_model(params: FBParams) -> PhysicalModel:
    q2 = params.kappa * params.mu * (1.0 + params.eta) / (1.0 + params.rho2)
    return PhysicalModel(
        sigma_x2=params.eta,
        p2=params.rho2 * q2,
        q2=q2,
        mean_power=params.mu * (1.0 + params.eta) * (1.0 + params.kappa),
    )


def _noncentral_chi2(rng, nu: float, lam, size: int):
    shape = nu / 2.0 + rng.poisson(np.asarray(lam) / 2.0, size=size)
    return rng.gamma(shape, 2.0)


def sample_snr(params: FBParams, model: PhysicalModel, rng, size=None):
    """Draw instantaneous SNR values (scalar when ``size`` is None)."""
    n = 1 if size is None else int(size)
    xi2 = rng.gamma(params.m, 1.0 / params.m, size=n)
    x_part = model.sigma_x2 * _noncentral_chi2(rng, params.mu, xi2 * model.p2 / model.sigma_x2, n)
    y_part = _noncentral_chi2(rng, params.mu, xi2 * model.q2, n)
    snr = params.avg_snr * (x_part + y_part) / model.mean_power
    return float(snr[0]) if size is None else snr


def _stream_rng(seed: int, stream: int, role: int):
    # role separates Bob/Eve; each stream owns a disjoint 2^128 counter block
    bg = np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF), counter=[0, 0, stream, role])
    return np.random.Generator(bg)


def _stream_lengths(n: int, streams: int) -> list[int]:
    base, extra = divmod(n, streams)
    return [base + (1 if i < extra else 0) for i in range(streams)]


def _pairwise(values: list[float]) -> float:
    while len(values) > 1:
        values = [values[i] + values[i + 1] if i + 1 < len(values) else values[i] for i in range(0, len(values), 2)]
    return values[0]


def estimate(bob: FBParams, eve: FBParams, secrecy_cfg: SecrecyConfig, cfg: MCConfig) -> dict[str, MCEstimate]:
    """Estimates of ``asc``, ``sop``, ``sopl`` and ``spsc`` from one sampling pass.

    ASC is the mean positive capacity gap E[(ln(1+g_D) - ln(1+g_E))^+].  SOP
    is P(g_D < theta*g_E + theta - 1) and SOP^L drops the shift.  SPSC is
    the complement of SOP^L at theta 1, P(g_D >= g_E), and shares its
    standard error.
    """
    model_d, model_e = physical_model(bob), physical_model(eve)
    theta = secrecy_cfg.theta

    def one_stream(idx: int, length: int) -> list[float]:
        # capacity-gap sum and sum of squares, then the SOP, SOP^L and
        # theta-1 SOP^L event counts
        rng_d = _stream_rng(cfg.seed, idx, 0)
        rng_e = _stream_rng(cfg.seed, idx, 1)
        sums = [0.0] * 5
        left = length
        while left > 0:
            take = min(_CHUNK, left)
            gd = sample_snr(bob, model_d, rng_d, size=take)
            ge = sample_snr(eve, model_e, rng_e, size=take)
            gap = np.log1p(gd) - np.log1p(ge)
            np.maximum(gap, 0.0, out=gap)
            sums[0] += float(np.sum(gap))
            sums[1] += float(np.sum(gap * gap))
            sums[2] += float(np.count_nonzero(gd < theta * ge + (theta - 1.0)))
            sums[3] += float(np.count_nonzero(gd < theta * ge))
            sums[4] += float(np.count_nonzero(gd < ge))
            left -= take
        return sums

    parts = [one_stream(i, length) for i, length in enumerate(_stream_lengths(cfg.n_samples, cfg.n_streams))]
    gap_sum, gap_sq, sop_hits, sopl_hits, low_hits = (_pairwise([p[k] for p in parts]) for k in range(5))
    n = cfg.n_samples

    def result(mean: float, se: float) -> MCEstimate:
        return MCEstimate(mean=mean, std_error=se, n=n, seed=cfg.seed)

    def probability(hits: float) -> MCEstimate:
        mean = hits / n
        return result(mean, math.sqrt(max(mean * (1.0 - mean), 0.0) / n))

    asc_mean = gap_sum / n
    low = probability(low_hits)
    return {
        "asc": result(asc_mean, math.sqrt(max(gap_sq / n - asc_mean * asc_mean, 0.0) / n)),
        "sop": probability(sop_hits),
        "sopl": probability(sopl_hits),
        "spsc": result(1.0 - low.mean, low.std_error),
    }
