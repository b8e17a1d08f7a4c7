"""Fluctuating Beckmann fading parameters and derived rate constants.

A link is described by six user-facing parameters: the number of multipath
clusters ``mu``, the shadowing severity ``m``, the dominant-to-scattered
power ratio ``kappa``, the in-phase/quadrature scattered power ratio
``eta``, the dominant power ratio ``rho2`` and the mean SNR ``avg_snr``
(linear scale).  From these, :func:`derive` computes the constants of the
rational-power Laplace representation of the SNR law,

    E[exp(-s * snr)] = omega * prod_k (s + theta_k / avg_snr) ** (-a_k),

with four rate/exponent pairs ``(theta_k, a_k)``: two roots of a quadratic
at exponent m, each an exact offset from a scattered-wave partner at
``mu/2 - m``.  :func:`link_factors` writes them as one factor list, every
coincidence exact, for the closed forms and the numerical inversion alike.
The secrecy side is here too: the metric names and :class:`SecrecyConfig`,
which maps each outage metric to the (theta, z) of P(g_D - theta g_E < z)
for all three routes.

The quadratic whose roots give the first two rates always has a
non-negative discriminant (it can be rearranged into A^2 + 2*A*B*w + B^2
with |w| <= 1), so the roots are real and positive, and every rate is a
real number: both routes work in real arithmetic (a discriminant that
rounds below 0 is taken as 0).
"""

from __future__ import annotations

import math
import sys
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
    "link_factors",
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
    the quadratic roots, the larger first, with exponent ``m`` each, the
    last two the scattered-wave rates ``sc/eta`` and ``sc`` with exponent
    ``mu/2 - m`` each (possibly negative, in which case they act as
    numerator factors).  Each root has a scattered partner, the larger
    root the larger rate, and root k lies ``deltas[k]`` from it: exactly 0
    where ``kappa = 0``.  ``ln_omega`` is the log of the scale factor
    omega, which itself overflows at very low mean SNR.  ``link`` is the
    link they were derived from.
    """

    theta_rates: np.ndarray
    exponents: np.ndarray
    deltas: np.ndarray
    mu: float
    ln_omega: float
    link: FBParams


def derive(params: FBParams) -> DerivedParams:
    """Compute the transform constants for one link.

    With ``alpha1 = alpha2 + X`` and ``beta = beta0 + Y`` (X and Y of order
    kappa/m), the quadratic ``alpha1 s^2 + beta s + 1`` is
    ``alpha2 s^2 + beta0 s + 1``, whose roots are the scattered rates (the
    partners), plus ``s (X s + Y)``.  So each root is its
    partner x (the other one x') plus delta, the root of
    ``(alpha2 + X) delta^2 + (alpha2 (x - x') + 2 X x + Y) delta + x (X x + Y) = 0``
    that keeps the roots in the partners' order.  It is solved for
    ``D = m delta``, whose coefficients m X, m Y and m (X x + Y) are closed
    forms free of m and of cancellation, so delta stays exact however large
    m is: 0 where ``kappa = 0``, and for one root where ``eta = 1``.  The
    normalisation factor is evaluated in log space, its m-term as
    ``-m log1p(X / alpha2)`` with X formed directly.

    Raises DomainError, naming the link, where a constant leaves the float
    range (extreme mu, kappa or eta).
    """
    mu, m, kappa, eta, rho2 = params.mu, params.m, params.kappa, params.eta, params.rho2
    snr = params.avg_snr
    try:
        alpha2 = 4.0 * eta / (mu**2 * (1.0 + eta) ** 2 * (1.0 + kappa) ** 2)
        alpha_gap = 2.0 * kappa * (rho2 + eta) / (m * (1.0 + rho2) * mu * (1.0 + eta) * (1.0 + kappa) ** 2)
        alpha1 = alpha2 + alpha_gap
        beta = -(2.0 / mu + kappa / m) / (1.0 + kappa)

        # roots of alpha1*s^2 + beta*s + 1; beta < 0 always, so the stable
        # quadratic form q = (-beta + sqrt(disc))/2 never cancels
        disc = beta * beta - 4.0 * alpha1
        sq = math.sqrt(max(disc, 0.0))
        q = (-beta + sq) / 2.0
        c1 = q / alpha1
        c2 = 1.0 / q

        # (x, alpha2 (x - x'), m (X x + Y)) of each partner, the larger first: it takes the
        # larger root, and of its quadratic's roots the larger delta (sign +1)
        scattered = mu * (1.0 + eta) * (1.0 + kappa) / 2.0
        mx = 2.0 * kappa * (rho2 + eta) / ((1.0 + rho2) * mu * (1.0 + eta) * (1.0 + kappa) ** 2)
        u = kappa * (1.0 - eta) / ((1.0 + kappa) * (1.0 + rho2))
        couples = [(scattered / eta, (1.0 - eta) / scattered, u * rho2 / eta),
                   (scattered, (eta - 1.0) / scattered, -u)]
        if eta > 1.0:
            couples.reverse()
        deltas = []
        for (x, split, mxy), sign in zip(couples, (1.0, -1.0)):
            # (alpha1 / m) D^2 + b D + x mxy = 0, and the root of the partner's sign by the
            # stable formula; m b is formed on its own where it does not grow with m
            b = split + (mx * x + mxy) / m
            if sign * b > 0.0:
                d = -2.0 * x * mxy / (b + sign * math.sqrt(max(b * b - 4.0 * alpha1 / m * x * mxy, 0.0)))
            else:
                mb = m * split + (mx * x + mxy)
                d = (-mb + sign * math.sqrt(max(mb * mb - 4.0 * alpha1 * m * x * mxy, 0.0))) / (2.0 * alpha1)
            deltas.append(d / m)
        rates = [c1, c2, scattered / eta, scattered]
        lno = -m * math.log1p(alpha_gap / alpha2) - (mu / 2.0) * math.log(alpha2) - mu * math.log(snr)
    except (ArithmeticError, ValueError):  # a division by zero, an overflow, a log of 0
        lno = math.nan
    if not (math.isfinite(lno) and all(map(math.isfinite, rates + deltas))):
        raise DomainError(f"{params}: a constant of its transform is past the float range")
    exps = np.array([m, m, mu / 2.0 - m, mu / 2.0 - m], dtype=float)

    return DerivedParams(theta_rates=np.array(rates), exponents=exps, deltas=np.array(deltas), mu=mu, ln_omega=lno,
                         link=params)


_LEAST_NORMAL = sys.float_info.min


def link_factors(dp: DerivedParams, avg_snr: float, paired=lambda x, delta, c: False):
    """(regular, pairs): one link's transform as factors, every rate divided by ``avg_snr``.

    ``regular`` holds (x, a), a factor (s + x)^-a, and ``pairs`` holds
    (x, delta, c), a factor (1 + delta / (s + x))^-c.  Each root, of
    exponent m, and its partner x, of ``mu/2 - m``, make the factors
    (x, mu/2) and (x, delta, m) where ``paired(x, delta, m)`` holds, and
    (root, m) and (x, mu/2 - m) where it does not.  Every coincidence is
    exact: a root with delta = 0 (kappa = 0) is its partner's, one factor
    (x, mu/2) with no m in it, partners that coincide (eta = 1) are one
    factor, and a factor of exponent 0 is left out.  The roots come first.

    Raises DomainError, naming the link, where ``delta / avg_snr`` falls
    below the normal float range (or to 0) while m times it still moves the
    transform by more than an ulp of its partner (m near the float range at
    a high mean SNR): its few significant bits would leave the value wrong
    past any error estimate.
    """
    m = float(dp.exponents[0])
    rates = [x * (1.0 / avg_snr) for x in dp.theta_rates.tolist()]  # each times one reciprocal
    net = dict.fromkeys(rates[2:], 0.0)  # each partner's exponent
    regular, pairs = [], []
    for root, x, exact in zip(rates[:2], sorted(rates[2:], reverse=True), dp.deltas.tolist()):
        delta = exact / avg_snr
        if exact != 0.0 and abs(delta) < _LEAST_NORMAL and abs(m * exact) / avg_snr > sys.float_info.epsilon * x:
            raise DomainError(f"{dp.link.with_snr(avg_snr)}: a root's offset from its partner, over the mean SNR, "
                              f"is {delta!r}, below the normal float range, while m times it, "
                              f"{m * exact / avg_snr:.3g}, still moves the transform")
        net[x] += dp.mu / 2.0
        if delta != 0.0 and paired(x, delta, m):
            pairs.append((x, delta, m))
        elif delta != 0.0:
            regular.append((root, m))
            net[x] -= m
    return regular + [(x, a) for x, a in net.items() if a != 0.0], pairs


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
