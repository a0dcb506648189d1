"""Optimal transport with a learned Mahalanobis ground metric.

The pieces: ``spd`` (matrix functions on symmetric positive definite
matrices), ``sinkhorn`` (entropic transport solver), ``gml`` (the
alternating metric/plan fit), ``adapt`` (barycentric projection and 1-NN
evaluation), ``data`` (file formats and skewed sampling), ``cli``
(command-line front end).
"""

from .adapt import (
    METHODS,
    AdaptationReport,
    LabeledCloud,
    accuracy,
    barycentric_map,
    knn1_predict,
    run_task,
)
from .gml import (
    BASELINE_METRICS,
    D_CHOICES,
    FitResult,
    GmlConfig,
    baseline_metric,
    compute_cgamma,
    cost_matrix,
    fit,
    make_d,
    objective,
    update_metric,
)
from .sinkhorn import (
    SinkhornConfig,
    TransportPlan,
    entropy,
    marginal_error,
    solve,
    transport_cost,
)
from .spd import (
    PositivityError,
    eigen_floor,
    geometric_mean,
    riccati_solve,
    spd_inv,
    spd_inv_sqrt,
    spd_sqrt,
    symmetrize,
    trace_inner,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "AdaptationReport",
    "LabeledCloud",
    "accuracy",
    "barycentric_map",
    "knn1_predict",
    "run_task",
    "BASELINE_METRICS",
    "D_CHOICES",
    "FitResult",
    "GmlConfig",
    "baseline_metric",
    "compute_cgamma",
    "cost_matrix",
    "fit",
    "make_d",
    "objective",
    "update_metric",
    "SinkhornConfig",
    "TransportPlan",
    "entropy",
    "marginal_error",
    "solve",
    "transport_cost",
    "PositivityError",
    "eigen_floor",
    "geometric_mean",
    "riccati_solve",
    "spd_inv",
    "spd_inv_sqrt",
    "spd_sqrt",
    "symmetrize",
    "trace_inner",
    "__version__",
]
