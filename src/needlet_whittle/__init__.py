"""Mexican-needlet Whittle estimation of the spectral index of isotropic
Gaussian random fields on the sphere, with closed-form asymptotic constants
and a seeded Monte Carlo harness."""

from . import asymptotics, harness, needlet, sphere, spectrum, whittle
from .errors import (
    BandLimitError,
    BoundaryWarning,
    ConfigError,
    DegenerateDataError,
    DomainError,
    NarrowBandError,
    NeedletWhittleError,
    ResourceLimitError,
    TruncationError,
)
from .harmonic import (
    AlmSet,
    ChatMoments,
    EmpiricalSpectrum,
    alm_row,
    alm_rows,
    chat_moments,
    empirical_cl,
    simulate_alm,
)
from .needlet import (
    JRange,
    MexicanWindow,
    NeedletStatistics,
    StandardWindow,
    compute_statistics,
    lambda_hat,
    select_j_range,
)
from .spectrum import (
    KappaCorrection,
    NoCorrection,
    PowerSpectrumModel,
    RationalCorrection,
    c_l,
)
from .whittle import (
    PluginResult,
    SearchSettings,
    WhittleFit,
    contrast,
    fit_full_band,
    fit_narrow_band,
    hessian,
    plug_in,
    profile_g_hat,
    score,
)

__version__ = "0.1.0"

__all__ = [
    "AlmSet",
    "BandLimitError",
    "BoundaryWarning",
    "ChatMoments",
    "ConfigError",
    "DegenerateDataError",
    "DomainError",
    "EmpiricalSpectrum",
    "JRange",
    "KappaCorrection",
    "MexicanWindow",
    "NarrowBandError",
    "NeedletStatistics",
    "NeedletWhittleError",
    "NoCorrection",
    "PluginResult",
    "PowerSpectrumModel",
    "RationalCorrection",
    "ResourceLimitError",
    "SearchSettings",
    "StandardWindow",
    "TruncationError",
    "WhittleFit",
    "alm_row",
    "alm_rows",
    "asymptotics",
    "c_l",
    "chat_moments",
    "compute_statistics",
    "contrast",
    "empirical_cl",
    "fit_full_band",
    "fit_narrow_band",
    "harness",
    "hessian",
    "lambda_hat",
    "needlet",
    "plug_in",
    "profile_g_hat",
    "score",
    "select_j_range",
    "simulate_alm",
    "sphere",
    "spectrum",
    "whittle",
]
