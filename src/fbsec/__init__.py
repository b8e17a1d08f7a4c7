"""Physical-layer-security metrics over Fluctuating Beckmann fading channels.

Average secrecy capacity, secrecy outage probability (with its lower
bound), and the probability of strictly positive secrecy capacity for a
wiretap link pair, via exact closed forms when the fading exponents are
integers and validated numerical inversion / Monte Carlo paths otherwise.
"""

from .casetwo import (
    PartialFractionExpansion,
    SecrecyConfig,
    asc_case2,
    cdf_case2,
    link_expansion,
    partial_fractions,
    pdf_case2,
    sop_case2,
    sopl_case2,
    spsc_case2,
)
from .errors import (
    AccuracyWarning,
    CaseMismatchError,
    ConvergenceError,
    DomainError,
    FbsecError,
    InversionInstabilityError,
    ParameterError,
)
from .inversion import (
    InversionControl,
    asc_numeric,
    cdf_numeric,
    mgf,
    numeric_metrics,
    outage_metrics,
    pdf_numeric,
    sop_numeric,
    sopl_numeric,
    spsc_numeric,
)
from .montecarlo import (
    MCConfig,
    MCEstimate,
    PhysicalModel,
    estimate,
    physical_model,
    sample_snr,
)
from .params import (
    DerivedParams,
    FBParams,
    db_to_linear,
    derive,
    from_beckmann,
    from_eta_mu,
    from_kappa_mu_shadowed,
    from_nakagami,
    from_rayleigh,
    from_rician_shadowed,
    linear_to_db,
    merge_rate_groups,
)
from .special import (
    EvalControl,
    binomial,
    log_gamma_integral,
    phi2_4_series,
    pochhammer,
    upper_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "FBParams", "DerivedParams", "derive", "merge_rate_groups",
    "from_kappa_mu_shadowed", "from_rician_shadowed", "from_nakagami",
    "from_rayleigh", "from_beckmann", "from_eta_mu",
    "db_to_linear", "linear_to_db",
    "EvalControl", "upper_gamma", "log_gamma_integral", "pochhammer",
    "binomial", "phi2_4_series",
    "SecrecyConfig", "PartialFractionExpansion", "partial_fractions",
    "link_expansion", "pdf_case2", "cdf_case2", "asc_case2", "sop_case2",
    "sopl_case2", "spsc_case2",
    "InversionControl", "mgf", "pdf_numeric", "cdf_numeric", "asc_numeric",
    "sop_numeric", "sopl_numeric", "spsc_numeric", "numeric_metrics",
    "outage_metrics",
    "MCConfig", "MCEstimate", "PhysicalModel", "physical_model",
    "sample_snr", "estimate",
    "FbsecError", "ParameterError", "DomainError", "CaseMismatchError",
    "ConvergenceError", "InversionInstabilityError",
]
