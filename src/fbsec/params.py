"""Fluctuating Beckmann fading parameters and derived rate constants.

A link is described by six user-facing parameters: the number of multipath
clusters ``mu``, the shadowing severity ``m``, the dominant-to-scattered
power ratio ``kappa``, the in-phase/quadrature scattered power ratio
``eta``, the dominant power ratio ``rho2`` and the mean SNR ``avg_snr``
(linear scale).  From these, :func:`derive` computes the constants of the
rational-power Laplace representation of the SNR law,

    E[exp(-s * snr)] = omega * prod_k (s + theta_k / avg_snr) ** (-a_k),

with four rate/exponent pairs ``(theta_k, a_k)``.  Everything downstream
(closed forms, numerical inversion, Monte Carlo validation) works off this
representation.  The secrecy side is here too: the metric names and
:class:`SecrecyConfig`, which maps each outage metric to the (theta, z) of
P(g_D - theta g_E < z) for all three routes.

The quadratic whose roots give the first two rates always has a
non-negative discriminant (it can be rearranged into A^2 + 2*A*B*w + B^2
with |w| <= 1), so the roots are real and positive.  They are kept as
complex numbers for the closed route, whose coefficient arithmetic is
complex and which checks every metric for a negligible imaginary residue.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "METRICS",
    "SecrecyConfig",
    "check_metrics",
    "outage_value",
    "FBParams",
    "DerivedParams",
    "derive",
    "merge_rate_groups",
    "from_kappa_mu_shadowed",
    "from_rician_shadowed",
    "from_nakagami",
    "from_rayleigh",
    "from_beckmann",
    "from_eta_mu",
    "db_to_linear",
    "linear_to_db",
]

def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def _check(field: str, value: float, *, positive: bool = False) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(field, f"must be finite, got {value!r}")
    if positive and value <= 0.0:
        raise ParameterError(field, f"must be > 0, got {value!r}")
    if not positive and value < 0.0:
        raise ParameterError(field, f"must be >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class FBParams:
    """Fading parameters of one link (all dimensionless, SNR linear)."""

    mu: float
    m: float
    kappa: float
    eta: float
    rho2: float
    avg_snr: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _check("mu", self.mu, positive=True))
        object.__setattr__(self, "m", _check("m", self.m, positive=True))
        object.__setattr__(self, "kappa", _check("kappa", self.kappa))
        object.__setattr__(self, "eta", _check("eta", self.eta, positive=True))
        object.__setattr__(self, "rho2", _check("rho2", self.rho2))
        object.__setattr__(self, "avg_snr", _check("avg_snr", self.avg_snr, positive=True))

    def with_snr(self, avg_snr: float) -> "FBParams":
        return FBParams(self.mu, self.m, self.kappa, self.eta, self.rho2, avg_snr)


@dataclass(frozen=True, eq=False)
class DerivedParams:
    """Constants of the rational-power transform for one link.

    ``theta_rates`` and ``exponents`` are aligned: the first two entries are
    the quadratic roots with exponent ``m`` each, the last two are the
    scattered-wave rates with exponent ``mu/2 - m`` each (possibly negative,
    in which case they act as numerator factors).  ``ln_omega`` is the log
    of the scale factor omega, which itself overflows at very low mean SNR.
    """

    theta_rates: np.ndarray
    exponents: np.ndarray
    mu: float
    ln_omega: float


_MERGE_RTOL = 1e-9  # rates this close (relative) form one group
_DROP_TOL = 1e-9  # a group whose net exponent is this small is dropped


def merge_rate_groups(rates, exponents) -> list[tuple[complex, float]]:
    """Coalesce rates that coincide to relative ``_MERGE_RTOL``, summing exponents.

    Groups whose net exponent has magnitude below ``_DROP_TOL`` disappear
    (their factor is identically 1).  The merged position is the plain mean
    of the member rates: exact when they coincide, and the correct limit
    for a near-double root (exponent-weighted means would amplify rounding
    through large cancelling weights).
    """
    groups: list[list] = []  # [anchor rate, member rates, net exponent]
    for rate, a in zip(np.asarray(rates, dtype=complex), np.asarray(exponents, dtype=float)):
        for entry in groups:
            if abs(rate - entry[0]) <= _MERGE_RTOL * max(abs(rate), abs(entry[0])):
                entry[1].append(rate)
                entry[2] += a
                break
        else:
            groups.append([rate, [rate], a])
    return [
        (complex(sum(members) / len(members)), float(a))
        for _, members, a in groups
        if abs(a) > _DROP_TOL
    ]


def derive(params: FBParams) -> DerivedParams:
    """Compute the transform constants for one link.

    The normalisation factor is evaluated in log space so that the
    large-``m`` reductions (Beckmann surrogate, ``m = 1e6``) do not
    underflow: with ``alpha1 = alpha2 + C/m`` the combination
    ``m * log(alpha1/alpha2)`` stays bounded as ``m`` grows.

    Raises DomainError, naming the link, where float arithmetic cannot
    hold the law: where ``mu/2 - m`` loses ``mu/2`` (m past a few 1e9 times mu),
    and where a constant leaves the float range (extreme mu, kappa or eta).
    """
    mu, m, kappa, eta, rho2 = params.mu, params.m, params.kappa, params.eta, params.rho2
    snr = params.avg_snr
    if abs((mu / 2.0 - m) + m - mu / 2.0) > 1e-6 * (mu / 2.0):
        raise DomainError(f"{params}: m is too large against mu, so mu/2 - m loses mu/2 in float")

    try:
        alpha2 = 4.0 * eta / (mu**2 * (1.0 + eta) ** 2 * (1.0 + kappa) ** 2)
        alpha1 = alpha2 + 2.0 * kappa * (rho2 + eta) / (
            m * (1.0 + rho2) * mu * (1.0 + eta) * (1.0 + kappa) ** 2
        )
        beta = -(2.0 / mu + kappa / m) / (1.0 + kappa)

        # roots of alpha1*s^2 + beta*s + 1; beta < 0 always, so the stable
        # quadratic form q = (-beta + sqrt(disc))/2 never cancels
        disc = beta * beta - 4.0 * alpha1
        sq = cmath.sqrt(complex(disc))
        q = (-beta + sq) / 2.0
        c1 = q / alpha1
        c2 = 1.0 / q

        scattered = mu * (1.0 + eta) * (1.0 + kappa) / 2.0
        theta = np.array([c1, c2, scattered / eta, scattered], dtype=complex)
        lno = (
            -m * math.log1p((alpha1 - alpha2) / alpha2)
            - (mu / 2.0) * math.log(alpha2)
            - mu * math.log(snr)
        )
    except (ArithmeticError, ValueError):  # a division by zero, an overflow, a log of 0
        lno = math.nan
    if not (math.isfinite(lno) and np.isfinite(theta).all()):
        raise DomainError(f"{params}: a constant of its transform is past the float range")
    exps = np.array([m, m, mu / 2.0 - m, mu / 2.0 - m], dtype=float)

    return DerivedParams(theta_rates=theta, exponents=exps, mu=mu, ln_omega=lno)


# ---------------------------------------------------------------------------
# secrecy metrics
# ---------------------------------------------------------------------------

METRICS = ("asc", "sop", "sopl", "spsc")


def check_metrics(metrics, name: str = "metrics") -> None:
    """Raise a ParameterError for ``name`` when ``metrics`` names an unknown metric."""
    unknown = sorted(set(metrics) - set(METRICS))
    if unknown:
        raise ParameterError(name, f"unknown {unknown}; valid: {list(METRICS)}")


@dataclass(frozen=True)
class SecrecyConfig:
    """Target secrecy rate R_s (nats) and the derived threshold theta = exp(R_s).

    Every outage metric is P(g_D - theta g_E < z) at one (theta, z)
    problem: SOP at (theta, theta - 1), SOP^L at (theta, 0), and SPSC is
    1 - P at (1, 0).  :meth:`outage_problems` and :func:`outage_value`
    are that table, for every route.
    """

    rate_rs: float
    theta: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.rate_rs) or self.rate_rs < 0.0:
            raise ParameterError("rate_rs", f"must be a finite value >= 0, got {self.rate_rs!r}")
        try:
            object.__setattr__(self, "theta", math.exp(self.rate_rs))
        except OverflowError:
            raise ParameterError("rate_rs", f"exp(R_s) overflows at {self.rate_rs!r}") from None

    def outage_problems(self, metrics) -> dict[str, tuple[float, float]]:
        """The (theta, z) problem of each outage metric in ``metrics`` (ASC has none).

        Metrics that share a problem map to equal tuples, so a route that
        solves each distinct one once gives ``sop == sopl`` and
        ``spsc == 1 - sopl`` exactly at R_s = 0.
        """
        table = {"sop": (self.theta, self.theta - 1.0), "sopl": (self.theta, 0.0), "spsc": (1.0, 0.0)}
        return {k: table[k] for k in metrics if k != "asc"}


def outage_value(metric: str, prob: float) -> float:
    """An outage metric from P(g_D - theta g_E < z) at its problem: SPSC is 1 - P."""
    return 1.0 - prob if metric == "spsc" else prob


# ---------------------------------------------------------------------------
# special-case embeddings
# ---------------------------------------------------------------------------

# finite surrogate for the no-shadowing limit; also the m of the kappa = 0
# embeddings, where any valid value gives the same law
_LARGE_M = 1.0e6


def from_kappa_mu_shadowed(kappa: float, mu: float, m: float, avg_snr: float) -> FBParams:
    """kappa-mu shadowed fading embedded via eta = 1 (rho2 is then inert)."""
    return FBParams(mu=mu, m=m, kappa=kappa, eta=1.0, rho2=1.0, avg_snr=avg_snr)


def from_rician_shadowed(kappa: float, m: float, avg_snr: float) -> FBParams:
    """Rician shadowed fading: kappa-mu shadowed with a single cluster."""
    return from_kappa_mu_shadowed(kappa, 1.0, m, avg_snr)


def from_nakagami(m_nak: float, avg_snr: float) -> FBParams:
    """Nakagami-m fading: kappa = 0, eta = 1, mu set to the Nakagami shape.

    With kappa = 0 the shadowing parameter has no effect on the SNR law, so
    it is pinned to an arbitrary valid value.
    """
    return FBParams(mu=m_nak, m=_LARGE_M, kappa=0.0, eta=1.0, rho2=1.0, avg_snr=avg_snr)


def from_rayleigh(avg_snr: float) -> FBParams:
    return from_nakagami(1.0, avg_snr)


def from_beckmann(K: float, q: float, r: float, avg_snr: float, m_large: float = _LARGE_M) -> FBParams:
    """Classical Beckmann fading via a large finite shadowing parameter.

    ``K`` is the dominant-to-scattered power ratio, ``q`` the scattered
    in-phase/quadrature variance ratio and ``r`` the dominant amplitude
    ratio.  ``m_large`` stands in for the no-fluctuation limit; values
    below 1e4 are rejected because the surrogate error is then visible.
    """
    if m_large < 1.0e4:
        raise ParameterError("m_large", f"must be >= 1e4 for the Beckmann surrogate, got {m_large!r}")
    return FBParams(mu=1.0, m=m_large, kappa=K, eta=q, rho2=r * r, avg_snr=avg_snr)


def from_eta_mu(eta: float, mu: float, avg_snr: float) -> FBParams:
    """eta-mu fading via kappa = 0 (experimental embedding).

    The no-dominant-component limit leaves ``m`` and ``rho2`` inert, so both
    are pinned.  This reduction is validated against Monte Carlo only; treat
    it as experimental.
    """
    return FBParams(mu=mu, m=_LARGE_M, kappa=0.0, eta=eta, rho2=1.0, avg_snr=avg_snr)
