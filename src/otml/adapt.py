"""Domain-adaptation evaluation on top of the transport machinery.

Labeled source points are pushed into the target domain through the
barycentric projection of the fitted plan, and target points are then
classified by a 1-nearest-neighbor rule over the projected sources.
``run_task`` wraps the full protocol for one source/target pair, each a
labeled ``data.RawDataset``: tune the entropic weight on the target
training split, evaluate on the held-out target test split. Its grid of
entropic weights is one ``fit_plan`` call, which computes the part of
the fit that does not depend on the weight once per grid. What depends
on the clouds alone, the transfer and the span, is computed once per
round: a call on the three clouds of the call before it (equal shapes
and float64 bits) shares that call's.
"""

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from . import gml

METHODS = (*gml.BASELINE_METRICS, "learned")


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


def _nearest(scores: np.ndarray) -> np.ndarray:
    # Each query's nearest source (a column's argmin); ties go to the lowest
    # index. That holds where the scores are exact: duplicate sources can
    # differ in their last bits through BLAS, and then the lower score wins.
    return np.argmin(scores, axis=0)


class _Transfer:
    """1-NN from target points to the barycentric projections of the sources.

    Source i maps to P_i = Z w_i, w_i = plan_i / p_i, on the n target-train
    points Z (Courty, Flamary, Tuia & Rakotomamonjy, TPAMI 2017). With
    c = z_1 and s_i = sum(w_i), P_i - c = Y [w_i; s_i - 1] for Y = [Z - c, c];
    keeping s_i - 1 keeps this exact, as rows sum to p only up to the
    solver's tolerance and pixel data has a large |c|. A query is c plus a
    column of Y (target-train) or of ze - c (test), so the (m, k) scores
    |P_i - c|^2 - 2 <P_i - c, query - c> that ``_nearest`` reads are squared
    distances less a constant per query, and with coef = [W, s - 1],
    (P - c)^T Y = coef Y^T Y and |P_i - c|^2 = coef_i . (P_i - c)^T Y.
    The right-hand factors ``train_factor`` and ``test_factor`` are formed
    here: Y^T Y and Y^T (ze - c) when n + 1 < 2d, so that a plan needs no
    product in R^d, and otherwise Y itself and ze - c, as the left factor
    coef Y^T = (P - c)^T then costs less. A round shares this object
    between its methods, so its arrays are read-only.
    """

    def __init__(self, zt: np.ndarray, ze: np.ndarray):
        n = zt.shape[1]
        self.y = np.hstack([zt - zt[:, :1], zt[:, :1]])
        queries = ze - zt[:, :1]
        if n + 1 < 2 * zt.shape[0]:
            self.train_factor, self.test_factor = self.y.T @ self.y, self.y.T @ queries
        else:
            self.train_factor, self.test_factor = self.y, queries
        for a in (self.y, self.train_factor, self.test_factor):
            a.flags.writeable = False

    def train_scores(self, plan: np.ndarray, p: np.ndarray):
        """Scores of the target-train points, and the sources for ``test_scores``."""
        m, n = plan.shape
        coef = np.empty((m, n + 1))
        np.divide(plan, p[:, None], out=coef[:, :n])
        coef[:, n] = coef[:, :n].sum(axis=1) - 1.0
        left = coef @ self.y.T if self.train_factor is self.y else coef
        cross = left @ self.train_factor
        norms = np.einsum("ij,ij->i", cross, coef)
        return norms[:, None] - 2.0 * cross[:, :n], (norms, left)

    def test_scores(self, sources) -> np.ndarray:
        """Scores of the test points ``ze``."""
        norms, left = sources
        return norms[:, None] - 2.0 * (left @ self.test_factor)


class _Round:
    """Read-only copies of (x, zt, ze), their transfer, and the span of (x, zt),
    formed on its first read: a round of ``euclidean`` alone takes no QR."""

    def __init__(self, *clouds: np.ndarray):
        self.clouds = tuple(a.copy(order="K") for a in clouds)
        for a in self.clouds:
            a.flags.writeable = False
        self.transfer = _Transfer(*self.clouds[1:])

    @cached_property
    def span(self) -> gml.Span:
        return gml.span(*self.clouds[:2])


_last_round = None


def _round(x: np.ndarray, zt: np.ndarray, ze: np.ndarray) -> _Round:
    """The last round if its clouds have these shapes and float64 bits (-0.0
    is not +0.0), else a new one; a concurrent caller can only recompute."""
    global _last_round
    last = _last_round
    if last is None or not all(
        a.shape == b.shape and b.dtype == np.float64
        and np.array_equal(a.view(np.int64), b.view(np.int64))
        for a, b in zip(last.clouds, (x, zt, ze))
    ):
        last = _last_round = _Round(x, zt, ze)
    return last


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
    work on ``gml.span(x, zt)``, the R of one QR per pair of clouds (in
    ``run_task``, one per round), and ``euclidean`` on the raw coordinates
    (no span points), where a QR would cost more than it saves. Euclidean
    costs take no metric. Only reading ``result.basis`` forms Q, and
    ``result.metric`` the (d, d) matrix, from the factors.

    The lambda-independent part (the span, the scale, a baseline's metric,
    cost and median, the learned fit's first sweep up to its Sinkhorn
    solve) is computed once, before this returns. Then ``gml.grid_fits``
    fits lazily, a baseline as one sweep of its fixed metric, and yields
    one ``gml.FitResult`` per entry of ``lambdas``, in the order given;
    results may share arrays and are not to be modified in place.
    """
    return _fit_plan(x, zt, partial(gml.span, x, zt), p, q, method, lambdas, cfg)


def _fit_plan(x, zt, span, p, q, method, lambdas, cfg):
    # ``fit_plan``, with the span of (x, zt) read from ``span()``.
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "euclidean":
        points, metric, complement = np.zeros((x.shape[0], 0)), np.zeros((0, 0)), 1.0
        cost = gml.cost_matrix(x, zt)
    else:
        sp = span()
        if method == "learned":
            scale = np.sqrt(_median_scale(gml.cost_matrix(sp.x, sp.z)))
            scaled = replace(sp, x=sp.x / scale, z=sp.z / scale, origin=sp.origin / scale)
            results = gml.fit_grid(scaled, p, q, cfg, lambdas)
            return (
                replace(r, reduced_metric=r.reduced_metric / scale**2,
                        complement=r.complement / scale**2)
                for r in results
            )
        points = sp.points
        metric, complement = gml.baseline_factors(method, sp)
        cost = gml.cost_matrix(sp.x, sp.z, metric)
    med = _median_scale(cost)
    first = (metric / med, 0.0, cost / med)
    return gml.grid_fits(first, None, p, q, cfg, lambdas, points, complement / med)


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
    target-train clouds under uniform marginals, and the target-train
    points are classified by 1-NN over the barycentric projections of the
    labeled sources (``_Transfer``, in inner products with the target-train
    cloud); target-train labels are used only for this selection. The
    weight with the best training accuracy wins (ties go to the smaller
    weight) and its plan is reused to classify the target-test split.

    Metrics are compared on the same draws, one call per method, so a
    call on three clouds with the shapes and bits of the last call's
    shares that call's round: its transfer and its span (``_round``). The
    reports are those of a fresh round, whatever ran before.

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
    for name, split in (("source", source), ("target-train", target_train),
                        ("target-test", target_test)):
        if split.labels is None:
            raise ValueError(f"the {name} split is unlabeled")
        if split.size == 0:
            raise ValueError(f"the {name} split is empty")
    x = source.features
    zt = target_train.features
    if target_test.features.shape[0] != zt.shape[0]:
        raise ValueError(
            f"target-test points are {target_test.features.shape[0]}-d, "
            f"target-train points {zt.shape[0]}-d"
        )
    m, n = x.shape[1], zt.shape[1]
    p = np.full(m, 1.0 / m)
    q = np.full(n, 1.0 / n)

    shared = _round(x, zt, target_test.features)
    best = None  # (accuracy, lambda, projected sources)
    converged = True
    grid = sorted(lambdas)
    plans = _fit_plan(x, zt, lambda: shared.span, p, q, method, grid, cfg)
    for lam, result in zip(grid, plans):
        converged = converged and result.sinkhorn_converged
        scores, projected = shared.transfer.train_scores(result.plan, p)
        acc = accuracy(source.labels[_nearest(scores)], target_train.labels)
        if best is None or acc > best[0]:
            best = (acc, lam, projected)

    train_acc, lam_best, projected = best
    scores = shared.transfer.test_scores(projected)
    test_acc = accuracy(source.labels[_nearest(scores)], target_test.labels)
    return AdaptationReport(
        method=method,
        lambda_chosen=lam_best,
        train_accuracy=train_acc,
        test_accuracy=test_acc,
        seed=seed,
        sinkhorn_converged=converged,
    )
