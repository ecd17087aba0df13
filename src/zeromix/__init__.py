"""Maximum likelihood for nonlinear mixed effects models whose
random-effect covariance matrix carries a prescribed pattern of zeros.

The package couples a stochastic EM engine (Metropolis-Hastings
E-step, damped updates) with a cyclic column solver for the
zero-constrained covariance M-step, and ships a simulation harness
comparing the constrained estimator against unconstrained EM and
naive zero forcing.
"""

from .covariance import (
    IcfDiagnostics,
    SpdMatrix,
    SufficientStats,
    ZeroPattern,
    icf_column_update,
    icf_solve,
    kkt_residual,
    min_eig_repair,
    objective,
    zero_forced,
)

__version__ = "0.1.0"

__all__ = [
    "IcfDiagnostics",
    "SpdMatrix",
    "SufficientStats",
    "ZeroPattern",
    "icf_column_update",
    "icf_solve",
    "kkt_residual",
    "min_eig_repair",
    "objective",
    "zero_forced",
    "__version__",
]
