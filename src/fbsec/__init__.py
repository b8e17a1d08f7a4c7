"""Physical-layer-security metrics over Fluctuating Beckmann fading channels.

Average secrecy capacity, secrecy outage probability (with its lower
bound), and the probability of strictly positive secrecy capacity for a
wiretap link pair, by three routes with one entry point each: closed
forms when the fading exponents are integers, as residue sums returned
only with a rounding bound within 1e-7 of their smaller tail
(:func:`closed_metrics`), numerical inversion for any parameters
(:func:`numeric_metrics`), and Monte Carlo (:func:`estimate`).
"""

from .casetwo import closed_metrics
from .errors import (
    AccuracyWarning,
    CaseMismatchError,
    ConvergenceError,
    DomainError,
    FbsecError,
    ParameterError,
)
from .inversion import InversionControl, numeric_metrics
from .montecarlo import (
    MCConfig,
    MCEstimate,
    PhysicalModel,
    estimate,
    physical_model,
    sample_snr,
)
from .params import (
    METRICS,
    DerivedParams,
    FBParams,
    SecrecyConfig,
    db_to_linear,
    derive,
    from_beckmann,
    from_eta_mu,
    from_kappa_mu_shadowed,
    from_nakagami,
    from_rayleigh,
    from_rician_shadowed,
    linear_to_db,
)

__version__ = "0.1.0"

__all__ = [
    "FBParams", "DerivedParams", "derive",
    "from_kappa_mu_shadowed", "from_rician_shadowed", "from_nakagami",
    "from_rayleigh", "from_beckmann", "from_eta_mu",
    "db_to_linear", "linear_to_db",
    "METRICS", "SecrecyConfig",
    "closed_metrics",
    "InversionControl", "numeric_metrics",
    "MCConfig", "MCEstimate", "PhysicalModel", "physical_model",
    "sample_snr", "estimate",
    "FbsecError", "ParameterError", "DomainError", "CaseMismatchError",
    "ConvergenceError", "AccuracyWarning",
]
