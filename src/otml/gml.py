"""Joint learning of a transport plan and an SPD ground metric.

The problem couples entropic optimal transport with a Mahalanobis ground
cost ``(x - z)^T A (x - z)`` and regularizes the metric by
``trace(A^{-1} D)`` for a chosen SPD target D, which keeps A bounded away
from both zero and infinity. Alternating minimization solves each half
exactly: for a fixed plan the optimal metric is the closed-form solution
of the quadratic equation ``A C A = D`` (equivalently the affine-invariant
geometric mean of C^{-1} and D), where C is the plan-weighted scatter of
source-target differences; for a fixed metric the plan is an entropic OT
problem handled by the Sinkhorn solver. The full objective is therefore
non-increasing across sweeps, up to solver tolerance.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import sinkhorn as sk
from .spd import eigh_spd, riccati_solve, spd_inv, symmetrize, trace_inner

BASELINE_METRICS = ("euclidean", "gram", "whiten")
# Each named regularization target is the matching fixed baseline metric.
_D_BASELINES = {
    "identity": "euclidean",
    "gram_sum": "gram",
    "gram_sum_inverse": "whiten",
}
D_CHOICES = tuple(_D_BASELINES)


@dataclass(frozen=True)
class GmlConfig:
    """Settings for the alternating fit.

    Attributes
    ----------
    sinkhorn : SinkhornConfig
        Inner OT solver settings (includes the entropic weight).
    outer_iters : int
        Number of alternating sweeps (metric update + plan update).
    eps : float
        Relative ridge: ``eps * trace(M) / d * I`` is added to a matrix M
        that needs a floor (absolute eps when M has zero trace). For the
        metric, M is the independence-coupling scatter; that ridge, frozen
        for the run, is added to the scatter C before each metric update.
        This keeps C positive definite even when d exceeds the number of
        samples, and because the ridge is frozen both alternating steps
        minimize one objective (which includes ``ridge * trace(A)``), so
        the recorded history is genuinely monotone. The Gram targets of
        ``d_choice`` take the same rule.
    d_choice : str or ndarray
        Regularization target D: "identity", "gram_sum" (X X^T + Z Z^T,
        ridged), "gram_sum_inverse", or an explicit SPD matrix.
    objective_rtol : float
        Early stop once the objective decrease over one sweep drops below
        ``objective_rtol * max(1, |objective|)``. Zero disables early
        stopping.
    """

    sinkhorn: sk.SinkhornConfig
    outer_iters: int = 20
    eps: float = 1e-6
    d_choice: "str | np.ndarray" = "identity"
    objective_rtol: float = 1e-6

    def __post_init__(self):
        iters = self.outer_iters
        # JSON true/false arrive as bool, which Python counts as an integer.
        if isinstance(iters, bool) or not (
            isinstance(iters, numbers.Integral) and iters >= 1
        ):
            raise ValueError(f"outer_iters must be an integer >= 1, got {iters}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.objective_rtol >= 0:
            raise ValueError(f"objective_rtol must be >= 0, got {self.objective_rtol}")
        if isinstance(self.d_choice, str) and self.d_choice not in D_CHOICES:
            raise ValueError(
                f"d_choice must be one of {D_CHOICES} or an SPD matrix, "
                f"got {self.d_choice!r}"
            )


@dataclass
class FitResult:
    """Output of ``fit``.

    Attributes
    ----------
    plan : ndarray of shape (m, n)
        Final transport plan.
    metric : ndarray of shape (d, d)
        Final SPD ground metric.
    objective_history : list of float
        Joint objective after each full sweep; non-increasing up to
        solver tolerance.
    converged : bool
        True when the early-stop rule fired before the sweep cap.
    iters_run : int
        Sweeps actually performed.
    sinkhorn_converged : bool
        False when any inner Sinkhorn call hit its iteration cap above
        tolerance.
    """

    plan: np.ndarray
    metric: np.ndarray
    objective_history: list = field(default_factory=list)
    converged: bool = False
    iters_run: int = 0
    sinkhorn_converged: bool = True


def _check_clouds(x, z):
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.ndim != 2 or z.ndim != 2:
        raise ValueError("point clouds must be 2-d arrays (points as columns)")
    if x.shape[0] != z.shape[0]:
        raise ValueError(
            f"dimension mismatch: source is {x.shape[0]}-d, target {z.shape[0]}-d"
        )
    return x, z


def _scatter(x, z, plan):
    # Plan-weighted scatter sum_ij plan_ij (x_i - z_j)(x_i - z_j)^T through
    # its expansion: X diag(r) X^T + Z diag(c) Z^T - X plan Z^T - (...)^T,
    # O(d^2 (m+n) + d m n) instead of O(d^2 m n).
    r = plan.sum(axis=1)
    c = plan.sum(axis=0)
    cross = x @ plan @ z.T
    return symmetrize((x * r) @ x.T + (z * c) @ z.T - cross - cross.T)


def _ridge(raw, eps):
    # Scale-relative diagonal ridge for the scatter and the Gram matrix;
    # falls back to the absolute value when the matrix vanishes.
    scale = float(np.trace(raw)) / raw.shape[0]
    return eps * (scale if scale > 0 else 1.0)


def compute_cgamma(
    x: np.ndarray, z: np.ndarray, plan: np.ndarray, eps: float
) -> np.ndarray:
    """Plan-weighted scatter of source-target differences, lifted by eps.

    Parameters
    ----------
    x : ndarray of shape (d, m)
        Source points as columns.
    z : ndarray of shape (d, n)
        Target points as columns.
    plan : ndarray of shape (m, n)
        Transport plan weighting each difference vector.
    eps : float
        Added to the diagonal so the result is positive definite even
        when the raw scatter is rank-deficient.

    Returns
    -------
    ndarray of shape (d, d)
        Symmetric positive definite scatter matrix.
    """
    x, z = _check_clouds(x, z)
    plan = np.asarray(plan, dtype=float)
    if plan.shape != (x.shape[1], z.shape[1]):
        raise ValueError(
            f"plan shape {plan.shape} does not match cloud sizes "
            f"({x.shape[1]}, {z.shape[1]})"
        )
    return _scatter(x, z, plan) + eps * np.eye(x.shape[0])


def update_metric(cg: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Closed-form metric update: the SPD solution of A @ cg @ A = d.

    This is the unique minimizer of ``trace(A cg) + trace(A^{-1} d)``
    over SPD matrices.
    """
    return riccati_solve(cg, d)


def cost_matrix(x: np.ndarray, z: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Pairwise squared Mahalanobis costs (x_i - z_j)^T A (x_i - z_j).

    Computed from the quadratic expansion
    ``diag(X^T A X) 1^T + 1 diag(Z^T A Z)^T - 2 X^T A Z`` rather than per
    pair; entries that round off slightly negative are clamped to zero.

    Parameters
    ----------
    x : ndarray of shape (d, m)
    z : ndarray of shape (d, n)
    metric : ndarray of shape (d, d)
        SPD ground metric A.

    Returns
    -------
    ndarray of shape (m, n)
        Nonnegative cost matrix.
    """
    x, z = _check_clouds(x, z)
    a = np.asarray(metric, dtype=float)
    if a.shape != (x.shape[0], x.shape[0]):
        raise ValueError(
            f"metric shape {a.shape} does not match data dimension {x.shape[0]}"
        )
    ax = a @ x
    az = a @ z
    xa = np.einsum("ij,ij->j", x, ax)
    za = np.einsum("ij,ij->j", z, az)
    cost = xa[:, None] + za[None, :] - 2.0 * (x.T @ az)
    return np.maximum(cost, 0.0)


def objective(cost: np.ndarray, plan: np.ndarray, reg: float, lam: float) -> float:
    """Joint objective: transport cost + metric regularizer + entropy term.

    Equals ``<plan, cost> + reg + lam * sum plan ln plan``, where ``cost``
    is ``cost_matrix(x, z, A)`` for the metric A and ``reg`` is the metric
    regularizer ``ridge * trace(A) + trace(A^{-1} D)``. The ridge term is
    the trace counterpart of the diagonal ridge used in the metric update;
    with the same fixed value both alternating steps minimize this exact
    functional.
    """
    return sk.transport_cost(plan, cost) + reg + lam * sk.entropy(plan)


def make_d(
    choice: "str | np.ndarray",
    x: np.ndarray,
    z: np.ndarray,
    eps: float = 1e-6,
) -> np.ndarray:
    """Build the metric-regularization target D.

    Parameters
    ----------
    choice : str or ndarray
        "identity" for I, "gram_sum" for the ridged X X^T + Z Z^T,
        "gram_sum_inverse" for its inverse, or an explicit matrix which
        is validated as SPD and passed through.
    x, z : ndarray of shape (d, m), (d, n)
        Point clouds (columns are points).
    eps : float
        Relative ridge on the Gram sum, as in ``baseline_metric``.
    """
    x, z = _check_clouds(x, z)
    if isinstance(choice, np.ndarray):
        custom = symmetrize(choice)
        eigh_spd(custom)  # validate
        return custom
    if choice not in D_CHOICES:
        raise ValueError(
            f"d_choice must be one of {D_CHOICES} or an SPD matrix, got {choice!r}"
        )
    return baseline_metric(_D_BASELINES[choice], x, z, eps)


def baseline_metric(
    kind: str, x: np.ndarray, z: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Fixed (not learned) ground metrics used as baselines.

    "euclidean" is the identity, "gram" the pooled Gram matrix
    G = [X, Z] [X, Z]^T lifted by ``eps * trace(G) / d * I`` (the scatter's
    relative ridge rule), and "whiten" its inverse, which decorrelates the
    pooled data. The lift is relative so that the inverse exists at any
    data scale, also when d exceeds the number of points.
    """
    x, z = _check_clouds(x, z)
    if kind not in BASELINE_METRICS:
        raise ValueError(f"kind must be one of {BASELINE_METRICS}, got {kind!r}")
    if kind == "euclidean":
        return np.eye(x.shape[0])
    raw = symmetrize(x @ x.T + z @ z.T)
    gram = raw + _ridge(raw, eps) * np.eye(x.shape[0])
    return gram if kind == "gram" else spd_inv(gram)


def fit(
    x: np.ndarray,
    z: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    cfg: GmlConfig,
) -> FitResult:
    """Alternating minimization of the joint plan-and-metric objective.

    Starts from the independence coupling p q^T, which also fixes the
    ridge scale for the whole run. Each sweep first sets the metric to
    the closed-form optimum for the current plan (scatter plus ridge,
    quadratic solve), then re-solves the entropic OT problem under the
    updated cost matrix. The ridged objective is recorded after each
    full sweep; both steps minimize it exactly, so the history is
    non-increasing up to the inner solver tolerance. The metric is never
    inverted: A C A = D gives trace(A^{-1} D) = trace(A C).

    Parameters
    ----------
    x : ndarray of shape (d, m)
        Source points as columns.
    z : ndarray of shape (d, n)
        Target points as columns.
    p, q : histograms of sizes m and n.
    cfg : GmlConfig

    Returns
    -------
    FitResult
    """
    x, z = _check_clouds(x, z)
    p = sk.validate_histogram(p, "p")
    q = sk.validate_histogram(q, "q")
    if (p.size, q.size) != (x.shape[1], z.shape[1]):
        raise ValueError(
            f"histogram sizes ({p.size}, {q.size}) do not match cloud sizes "
            f"({x.shape[1]}, {z.shape[1]})"
        )
    d_mat = make_d(cfg.d_choice, x, z, eps=cfg.eps)
    lam = cfg.sinkhorn.lam

    plan = np.outer(p, q)
    ridge = _ridge(_scatter(x, z, plan), cfg.eps)
    history: list[float] = []
    converged = False
    all_sinkhorn_ok = True
    iters_run = 0

    for _ in range(cfg.outer_iters):
        cg = compute_cgamma(x, z, plan, ridge)
        metric = update_metric(cg, d_mat)
        # ridge * trace(A) + trace(A^{-1} D), with trace(A^{-1} D) = trace(A C).
        reg = ridge * float(np.trace(metric)) + trace_inner(metric, cg)
        cost = cost_matrix(x, z, metric)
        transport = sk.solve(cost, p, q, cfg.sinkhorn)
        plan = transport.matrix
        all_sinkhorn_ok = all_sinkhorn_ok and transport.converged
        iters_run += 1
        history.append(objective(cost, plan, reg, lam))
        if len(history) >= 2 and cfg.objective_rtol > 0:
            decrease = history[-2] - history[-1]
            if decrease <= cfg.objective_rtol * max(1.0, abs(history[-2])):
                converged = True
                break

    return FitResult(
        plan=plan,
        metric=metric,
        objective_history=history,
        converged=converged,
        iters_run=iters_run,
        sinkhorn_converged=all_sinkhorn_ok,
    )
