"""Domain-adaptation evaluation on top of the transport machinery.

Labeled source points are pushed into the target domain through the
barycentric projection of the fitted plan, and target points are then
classified by a 1-nearest-neighbor rule over the projected sources.
``run_task`` wraps the full protocol for one source/target pair, each a
labeled ``data.RawDataset``: tune the entropic weight on the target
training split, evaluate on the held-out target test split. Its grid of
entropic weights is one ``fit_plan`` call, which computes the part of
the fit that does not depend on the weight once per grid.
"""

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import gml

METHODS = ("euclidean", "gram", "whiten", "learned")


@dataclass
class AdaptationReport:
    """Outcome of one adaptation run."""

    method: str
    lambda_chosen: float
    train_accuracy: float
    test_accuracy: float
    seed: int = 0
    sinkhorn_converged: bool = True  # AND over every fit on the grid

    def __post_init__(self):
        for name in ("train_accuracy", "test_accuracy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def barycentric_map(plan: np.ndarray, z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Project each source point to its plan-weighted target average.

    Row i of the plan, normalized by the source mass p_i, is a conditional
    distribution over target points; the projection of source point i is
    the corresponding weighted average of target columns. Rows with zero
    source mass carry no information and fall back to the plan's global
    target mean (a warning is emitted).

    Parameters
    ----------
    plan : ndarray of shape (m, n)
    z : ndarray of shape (d, n)
        Target points as columns.
    p : ndarray of shape (m,)
        Source histogram.

    Returns
    -------
    ndarray of shape (d, m)
        Projected source points as columns.
    """
    plan = np.asarray(plan, dtype=float)
    z = np.asarray(z, dtype=float)
    p = np.asarray(p, dtype=float).ravel()
    if plan.shape[0] != p.size or plan.shape[1] != z.shape[1]:
        raise ValueError(
            f"plan shape {plan.shape} does not match source size {p.size} "
            f"and target size {z.shape[1]}"
        )
    zero = p <= 0
    # Zero-mass rows are divided by 1 here and overwritten below.
    mapped = z @ (plan / np.where(zero, 1.0, p)[:, None]).T
    if np.any(zero):
        warnings.warn(
            f"{int(zero.sum())} source row(s) have zero mass; mapped to the "
            "plan-weighted target mean",
            RuntimeWarning,
        )
        col_mass = plan.sum(axis=0)
        total = col_mass.sum()
        mean = z @ (col_mass / total) if total > 0 else z.mean(axis=1)
        mapped[:, zero] = mean[:, None]
    return mapped


def knn1_predict(
    points: np.ndarray, labels: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """Label each query with the label of its Euclidean-nearest point.

    ``points`` (d, k) and ``queries`` (d, l) hold points as columns, and
    ``labels`` has one entry per column of ``points``. Ties are broken
    toward the lowest point index. Squared distances, less the per-query
    constant ||q||^2, are one matrix product ||p||^2 - 2 q^T p after both
    sets are shifted by the first training point, so that a large common
    offset does not cancel and integer data keeps exact ties exact.
    """
    points = np.asarray(points, dtype=float)
    queries = np.asarray(queries, dtype=float)
    labels = np.asarray(labels).ravel()
    if points.shape[1] == 0:
        raise ValueError("training set is empty")
    if labels.size != points.shape[1]:
        raise ValueError(f"{labels.size} labels for {points.shape[1]} points")
    if queries.shape[0] != points.shape[0]:
        raise ValueError(
            f"query dimension {queries.shape[0]} does not match "
            f"training dimension {points.shape[0]}"
        )
    origin = points[:, :1]
    points, queries = points - origin, queries - origin
    dist = (points * points).sum(axis=0) - 2.0 * (queries.T @ points)
    return labels[np.argmin(dist, axis=1)]


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of exact label matches."""
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.size != truth.size:
        raise ValueError(f"length mismatch: {pred.size} vs {truth.size}")
    if pred.size == 0:
        raise ValueError("empty label vectors")
    return float(np.mean(pred == truth))


def _median_scale(cost: np.ndarray) -> float:
    med = float(np.median(cost))
    return med if med > 0 else 1.0


def fit_plan(
    x: np.ndarray,
    zt: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    method: str,
    lambdas: "list[float]",
    cfg: gml.GmlConfig,
) -> Iterator[gml.FitResult]:
    """Fit a transport plan between source and target-train clouds per lambda.

    Costs are normalized so that one entropic-weight grid serves data of
    any feature scale: baseline methods divide their fixed cost matrix by
    its median entry, and the metric-learning method divides the data's
    span coordinates by the square root of the Euclidean cost median
    (which divides its initial cost matrix by the same amount) before the
    alternating fit. Each returned metric carries the normalization in its
    factors: its plan solves the problem at its lambda for
    ``cost_matrix(x, zt, result.metric)``, whose objective is recorded.

    No method forms a d x d matrix: ``gram``, ``whiten`` and ``learned``
    work on ``gml.span(x, zt)``, one QR per call, and ``euclidean`` on the
    raw coordinates (an empty basis), where a QR would cost more than it
    saves. Euclidean costs take no metric. Only reading ``result.metric``
    builds the (d, d) matrix from the factors.

    The lambda-independent part (the span, the scale, a baseline's metric,
    cost and median, the learned fit's first sweep up to its Sinkhorn
    solve) is computed once, before this returns. Then ``gml.grid_fits``
    fits lazily, a baseline as one sweep of its fixed metric, and yields
    one ``gml.FitResult`` per entry of ``lambdas``, in the order given;
    results may share arrays and are not to be modified in place.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "euclidean":
        dim = x.shape[0]
        basis, metric, complement = np.zeros((dim, 0)), np.zeros((0, 0)), 1.0
        cost = gml.cost_matrix(x, zt)
    else:
        sp = gml.span(x, zt)
        if method == "learned":
            scale = np.sqrt(_median_scale(gml.cost_matrix(sp.x, sp.z)))
            results = gml.fit_grid(sp.divided_by(scale), p, q, cfg, lambdas)
            return (
                replace(
                    r,
                    reduced_metric=r.reduced_metric / scale**2,
                    complement=r.complement / scale**2,
                )
                for r in results
            )
        basis = sp.basis
        metric, complement = gml.baseline_factors(method, sp, eps=cfg.eps)
        cost = gml.cost_matrix(sp.x, sp.z, metric)
    med = _median_scale(cost)
    first = (metric / med, 0.0, cost / med)
    return gml.grid_fits(first, None, p, q, cfg, lambdas, basis, complement / med)


def run_task(
    source: "data.RawDataset",
    target_train: "data.RawDataset",
    target_test: "data.RawDataset",
    method: str,
    lambdas: "list[float]",
    cfg: gml.GmlConfig,
    seed: int = 0,
) -> AdaptationReport:
    """Tune the entropic weight on the target-train split, test on the rest.

    For each candidate weight the plan is fitted between the source and
    target-train clouds under uniform marginals, the labeled sources are
    barycentrically projected, and the target-train points are classified
    by 1-NN over the projections; target-train labels are used only for
    this selection. The weight with the best training accuracy wins (ties
    go to the smaller weight) and its plan is reused to classify the
    target-test split.

    Parameters
    ----------
    source, target_train, target_test : data.RawDataset
        Labeled points as columns (``.features``, ``.labels``).
    method : {"euclidean", "gram", "whiten", "learned"}
    lambdas : list of float
        Candidate entropic weights (applied to median-normalized costs).
    cfg : GmlConfig
    seed : int
        Recorded in the report; the computation itself is deterministic.
    """
    if not lambdas:
        raise ValueError("lambda grid is empty")
    x = source.features
    zt = target_train.features
    m, n = x.shape[1], zt.shape[1]
    p = np.full(m, 1.0 / m)
    q = np.full(n, 1.0 / n)

    best = None  # (accuracy, lambda, projected sources)
    converged = True
    grid = sorted(lambdas)
    for lam, result in zip(grid, fit_plan(x, zt, p, q, method, grid, cfg)):
        converged = converged and result.sinkhorn_converged
        projected = barycentric_map(result.plan, zt, p)
        pred = knn1_predict(projected, source.labels, zt)
        acc = accuracy(pred, target_train.labels)
        if best is None or acc > best[0]:
            best = (acc, lam, projected)

    train_acc, lam_best, projected = best
    test_pred = knn1_predict(projected, source.labels, target_test.features)
    test_acc = accuracy(test_pred, target_test.labels)
    return AdaptationReport(
        method=method,
        lambda_chosen=lam_best,
        train_accuracy=train_acc,
        test_accuracy=test_acc,
        seed=seed,
        sinkhorn_converged=converged,
    )
