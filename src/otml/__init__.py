"""Optimal transport with a learned Mahalanobis ground metric.

The pieces: ``spd`` (matrix functions on symmetric positive definite
matrices), ``sinkhorn`` (entropic transport solver), ``gml`` (the
alternating metric/plan fit), ``adapt`` (barycentric projection and 1-NN
evaluation), ``data`` (file formats and skewed sampling), ``cli``
(command-line front end). The package namespace holds the names the
README uses; everything else is reached through its module.
"""

from .adapt import METHODS
from .gml import GmlConfig, cost_matrix, fit
from .sinkhorn import SinkhornConfig, solve

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "GmlConfig",
    "cost_matrix",
    "fit",
    "SinkhornConfig",
    "solve",
    "__version__",
]
