"""Stochastic oracle: exact sampling of the fading SNR and metric estimation.

The instantaneous SNR is sampled from its physical construction rather
than from the transform: conditional on a unit-mean gamma shadowing factor
xi^2 ~ Gamma(m, 1/m), the received power is the sum of two independent
scaled noncentral chi-squares (in-phase and quadrature clusters).  With
nu clusters, per-cluster variance sigma^2 and aggregate dominant
amplitude xi*a, each part is drawn as

    sigma^2 chi'^2(nu, xi^2 a^2 / sigma^2) = (sigma Z + xi a)^2 + sigma^2 chi^2(nu - 1),

one standard normal Z and one gamma of fixed shape (nu - 1)/2, the gamma
term vanishing at nu = 1.  For nu < 1 clusters the Poisson mixture

    chi'^2(nu, lam) ~ Gamma(nu/2 + J, 2),   J ~ Poisson(lam/2)

is used instead, so any real number of clusters is supported; nu alone
selects the construction.  Both give the noncentral chi-square law
exactly.  The draw is normalised by the mean received power, so
E[snr] = avg_snr by construction.

One sampling pass feeds all four metrics: each (g_D, g_E) chunk is drawn
once and every statistic is accumulated from it.

Reproducibility contract: estimates are bit-exact for a fixed
(seed, n_streams, n_samples).  Each stream draws from its own SFC64
generator, seeded by a SeedSequence keyed on the whole non-negative seed
and spawned at (stream index, link role): seeds that differ only past 64
bits do not alias, and every stream and role has a state of its own.
Streams are processed in fixed-size chunks, and partial sums combine over
streams by a fixed-shape pairwise tree.  The streams run on up to one
thread per usable CPU and each stream's sums, or its error, are kept in a
slot of its own, so neither the results nor the error raised depend on
the number of CPUs.

numpy's Poisson sampler refuses means above about 9.2e18, so a draw of a
mu < 1 link whose noncentrality passes twice that is refused with a
DomainError naming the link; the other routes still answer it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from numbers import Integral
from threading import Thread

import numpy as np

from .errors import DomainError, ParameterError
from .params import METRICS, FBParams, SecrecyConfig, outage_value

__all__ = [
    "MCConfig",
    "MCEstimate",
    "PhysicalModel",
    "physical_model",
    "sample_snr",
    "estimate",
]

_CHUNK = 1 << 19
# the largest mean numpy's Poisson sampler accepts (its POISSON_LAM_MAX)
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class MCConfig:
    """Sample budget, seed, and substream layout."""

    n_samples: int = 10_000_000
    seed: int = 0
    n_streams: int = 8

    def __post_init__(self):
        for field in ("n_samples", "seed", "n_streams"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ParameterError(field, f"must be an integer, got {value!r}")
        if self.seed < 0:
            raise ParameterError("seed", f"must be >= 0, got {self.seed!r}")
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


def _scaled_noncentral_chi2(rng, nu: float, sigma2: float, shift: np.ndarray) -> np.ndarray:
    """Draw sigma2 * chi'^2(nu, shift**2 / sigma2), one value per entry of ``shift``.

    ``shift`` (float64) is used as scratch space and overwritten.
    """
    if nu < 1.0:
        np.square(shift, out=shift)
        shift *= 0.5 / sigma2
        top = float(shift.max(initial=0.0))
        if top > _POISSON_MEAN_MAX:
            raise DomainError(
                f"noncentrality {2.0 * top:.3g} of a mu < 1 draw needs a Poisson mean of {top:.3g}, "
                f"past numpy's limit {_POISSON_MEAN_MAX:.3g}"
            )
        return rng.gamma(nu / 2.0 + rng.poisson(shift), 2.0 * sigma2)
    out = rng.standard_normal(shift.size)
    out *= math.sqrt(sigma2)
    out += shift
    np.square(out, out=out)
    if nu > 1.0:
        rest = rng.standard_gamma((nu - 1.0) / 2.0, shift.size, out=shift)
        rest *= 2.0 * sigma2
        out += rest
    return out


def sample_snr(params: FBParams, model: PhysicalModel, rng, size: int) -> np.ndarray:
    """Draw ``size`` instantaneous SNR values."""
    xi = rng.gamma(params.m, 1.0 / params.m, size=int(size))
    np.sqrt(xi, out=xi)
    snr = _scaled_noncentral_chi2(rng, params.mu, model.sigma_x2, xi * math.sqrt(model.p2))
    xi *= math.sqrt(model.q2)
    snr += _scaled_noncentral_chi2(rng, params.mu, 1.0, xi)
    snr *= params.avg_snr / model.mean_power
    return snr


def _stream_rng(seed: int, stream: int, role: int):
    # role separates Bob (0) and Eve (1); the spawn key gives every
    # (stream, role) of a seed its own SeedSequence, and so its own SFC64 state
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(stream, role))))


def _stream_lengths(n: int, streams: int) -> list[int]:
    base, extra = divmod(n, streams)
    return [base + (1 if i < extra else 0) for i in range(streams)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


def _pairwise(values: list[float]) -> float:
    while len(values) > 1:
        values = [values[i] + values[i + 1] if i + 1 < len(values) else values[i] for i in range(0, len(values), 2)]
    return values[0]


def estimate(bob: FBParams, eve: FBParams, secrecy_cfg: SecrecyConfig, cfg: MCConfig) -> dict[str, MCEstimate]:
    """Estimates of ``asc``, ``sop``, ``sopl`` and ``spsc`` from one sampling pass.

    ASC is the mean positive capacity gap E[(ln(1+g_D) - ln(1+g_E))^+].
    Each outage metric counts the event g_D < theta*g_E + z of its
    (theta, z) problem in ``secrecy_cfg.outage_problems``, once per
    distinct problem; SPSC is the complement of P at (1, 0) and shares its
    standard error.
    """
    model_d, model_e = physical_model(bob), physical_model(eve)
    problems = secrecy_cfg.outage_problems(METRICS)
    keys = sorted(set(problems.values()))

    def draw(name: str, params: FBParams, model: PhysicalModel, rng, size: int) -> np.ndarray:
        try:
            return sample_snr(params, model, rng, size=size)
        except DomainError as exc:
            raise DomainError(f"Monte Carlo cannot sample the {name} link {params}: {exc}") from None

    def one_stream(idx: int, length: int) -> list[float]:
        # capacity-gap sum and sum of squares, then one event count per problem
        rng_d = _stream_rng(cfg.seed, idx, 0)
        rng_e = _stream_rng(cfg.seed, idx, 1)
        sums = [0.0] * (2 + len(keys))
        left = length
        while left > 0:
            take = min(_CHUNK, left)
            gd = draw("Bob", bob, model_d, rng_d, take)
            ge = draw("Eve", eve, model_e, rng_e, take)
            gap = np.log1p(gd) - np.log1p(ge)
            np.maximum(gap, 0.0, out=gap)
            sums[0] += float(np.sum(gap))
            sums[1] += float(np.sum(gap * gap))
            for i, (theta, z) in enumerate(keys):
                with np.errstate(over="ignore"):  # where theta g_E overflows, the event holds
                    sums[2 + i] += float(np.count_nonzero(gd < theta * ge + z))
            left -= take
        return sums

    lengths = _stream_lengths(cfg.n_samples, cfg.n_streams)
    parts: list = [None] * cfg.n_streams
    workers = min(cfg.n_streams, _usable_cpus())

    def work(first: int) -> None:
        # round-robin; each stream's sums, or its error, go to its own slot,
        # so the combine below and the error raised are the same for any
        # worker count
        for i in range(first, cfg.n_streams, workers):
            try:
                parts[i] = one_stream(i, lengths[i])
            except Exception as exc:  # raised in the caller after the join
                parts[i] = exc
                return

    # the calling thread is worker 0
    threads = [Thread(target=work, args=(w,), name=f"fbsec-mc-{w}") for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    for part in parts:
        if isinstance(part, Exception):
            raise part
    gap_sum, gap_sq, *hits = (_pairwise([p[k] for p in parts]) for k in range(2 + len(keys)))
    n = cfg.n_samples

    def result(mean: float, se: float) -> MCEstimate:
        return MCEstimate(mean=mean, std_error=se, n=n, seed=cfg.seed)

    asc_mean = gap_sum / n
    out = {"asc": result(asc_mean, math.sqrt(max(gap_sq / n - asc_mean * asc_mean, 0.0) / n))}
    prob = {key: h / n for key, h in zip(keys, hits)}
    for k, pz in problems.items():
        mean = prob[pz]
        out[k] = result(outage_value(k, mean), math.sqrt(max(mean * (1.0 - mean), 0.0) / n))
    return out
