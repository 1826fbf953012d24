"""Bessel-Kingman and Laguerre hypergroups, exact BES/QBES transition
kernels, path samplers, and an identity verification suite."""

from .hypergroup import (
    BesselKingmanParams,
    ContinuousPoint,
    DiscretePoint,
    FanPoint,
    HeisPoint,
    LaguerreParams,
    bk_character,
    bk_fourier,
    bk_translate,
    fan_coords,
    lag_character,
    lag_translate,
    psi_heis,
)
from .kernels import (
    BesDensity,
    GammaRay,
    TransitionLaw,
    bes_density,
    chapman_kolmogorov_qbes,
    law_from_dict,
    law_to_dict,
    qbes_law_pmf,
    qbes_transition,
)
from .quadrature import QuadratureSpec
from .sampling import (
    PathSample,
    RngState,
    sample_bes,
    sample_bes_path,
    sample_law,
    sample_qbes_path,
)
from .specfun import (
    bessel_i_norm,
    bessel_j_norm,
    hyp1f1,
    laguerre_L,
    log_bessel_i_norm,
    log_gamma,
    pochhammer,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BesselKingmanParams",
    "LaguerreParams",
    "HeisPoint",
    "DiscretePoint",
    "ContinuousPoint",
    "FanPoint",
    "fan_coords",
    "bk_translate",
    "lag_translate",
    "bk_character",
    "lag_character",
    "psi_heis",
    "bk_fourier",
    "TransitionLaw",
    "GammaRay",
    "BesDensity",
    "qbes_transition",
    "qbes_law_pmf",
    "bes_density",
    "chapman_kolmogorov_qbes",
    "law_to_dict",
    "law_from_dict",
    "QuadratureSpec",
    "RngState",
    "PathSample",
    "sample_law",
    "sample_qbes_path",
    "sample_bes",
    "sample_bes_path",
    "log_gamma",
    "pochhammer",
    "laguerre_L",
    "bessel_j_norm",
    "bessel_i_norm",
    "log_bessel_i_norm",
    "hyp1f1",
    "VerificationReport",
    "run_suite",
    "__version__",
]
