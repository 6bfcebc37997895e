"""qident: a q-series/partition computational kernel with a numerical
verification harness for classical and multivariable (BC_n) basic
hypergeometric summation and transformation identities."""

__version__ = "1.0.0"

from .errors import (
    ConfigError,
    DivisionByVanishingFactor,
    DomainError,
    NoConvergence,
    NonFiniteSide,
    NotAPartition,
    PoleCancellationError,
    QidentError,
)
from .identities import CASES, IdentityReport, run_case, sample_params
from .policy import QPower
from .series import SeriesSpec, SeriesValue, eval_phi, eval_psi
from .wfunc import WParams, poch_partition, w_multi, w_skew_single

__all__ = [
    "CASES",
    "ConfigError",
    "DivisionByVanishingFactor",
    "DomainError",
    "IdentityReport",
    "NoConvergence",
    "NonFiniteSide",
    "NotAPartition",
    "PoleCancellationError",
    "QPower",
    "QidentError",
    "SeriesSpec",
    "SeriesValue",
    "WParams",
    "eval_phi",
    "eval_psi",
    "poch_partition",
    "run_case",
    "sample_params",
    "w_multi",
    "w_skew_single",
    "__version__",
]
