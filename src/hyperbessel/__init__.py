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
    law_json,
    qbes_transition,
)
from .quadrature import QuadratureSpec
from .sampling import RngState, sample_bes, sample_bes_lanes, sample_qbes_lanes
from .specfun import (
    bessel_j_norm,
    hyp1f1,
    laguerre_L,
    log_bessel_i_norm,
    log_gamma,
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
    "bes_density",
    "chapman_kolmogorov_qbes",
    "law_json",
    "QuadratureSpec",
    "RngState",
    "sample_qbes_lanes",
    "sample_bes",
    "sample_bes_lanes",
    "log_gamma",
    "laguerre_L",
    "bessel_j_norm",
    "log_bessel_i_norm",
    "hyp1f1",
    "VerificationReport",
    "run_suite",
    "__version__",
]
