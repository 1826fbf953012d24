"""Bessel-Kingman and Laguerre hypergroups, exact BES/QBES transition
kernels, path samplers, and an identity verification suite.

Importing the package loads hypergroup, quadrature, sampling and specfun,
which every command uses. The kernels and verify modules, and the names
they export here, load on first access (PEP 562), so a command that uses
neither does not compile them.
"""
import importlib

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
from .quadrature import QuadratureSpec
from .sampling import RngState, sample_bes_lanes, sample_qbes_lanes
from .specfun import (
    bessel_j_norm,
    hyp1f1,
    laguerre_L,
    log_bessel_i_norm,
    log_gamma,
)

__version__ = "0.1.0"

#: the names of a module loaded on first access, the modules' own names included
_DEFERRED = {
    **dict.fromkeys(["kernels", "BesDensity", "GammaRay", "TransitionLaw", "bes_density",
                     "chapman_kolmogorov_qbes", "law_json", "qbes_transition"], "kernels"),
    **dict.fromkeys(["verify", "VerificationReport", "run_suite"], "verify"),
}

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


def __getattr__(name):
    """A name of kernels or verify, or either module, loaded on first access."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_DEFERRED[name]}", __name__)
    if name == _DEFERRED[name]:
        return module  # the import has bound the submodule here
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
