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

from dataclasses import dataclass, field

import numpy as np

from . import sinkhorn as sk
from .spd import eigen_floor, eigh_spd, riccati_solve, spd_inv, symmetrize, trace_inner

D_CHOICES = ("identity", "gram_sum", "gram_sum_inverse")
BASELINE_METRICS = ("euclidean", "gram", "whiten")


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
        Relative ridge on the metric: a diagonal term ``ridge * I`` is
        added to the scatter matrix C before each metric update, with
        ``ridge = eps * mean(diag scale)`` fixed once from the
        independence-coupling scatter. This keeps C safely positive
        definite even when the data dimension exceeds the number of
        samples, and because the ridge is frozen the alternating steps
        minimize one common objective (which includes ``ridge *
        trace(A)``), so the recorded history is genuinely monotone.
        Interpreted as an absolute ridge when the scatter has zero trace.
    d_choice : str or ndarray
        Regularization target D: "identity", "gram_sum" (X X^T + Z Z^T,
        floored), "gram_sum_inverse", or an explicit SPD matrix.
    objective_rtol : float
        Early stop once the objective decrease over one sweep drops below
        ``objective_rtol * max(1, |objective|)``. Zero disables early
        stopping.
    learn_metric : bool
        When False the metric stays at identity and only the plan is
        optimized, which reduces the fit to plain entropic OT.
    """

    sinkhorn: sk.SinkhornConfig
    outer_iters: int = 20
    eps: float = 1e-6
    d_choice: "str | np.ndarray" = "identity"
    objective_rtol: float = 1e-6
    learn_metric: bool = True

    def __post_init__(self):
        if self.outer_iters < 1:
            raise ValueError(f"outer_iters must be >= 1, got {self.outer_iters}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.objective_rtol < 0:
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
    # Scale-relative diagonal ridge; falls back to the absolute value when
    # the scatter vanishes (all mass on coincident points).
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


def objective(
    x: np.ndarray,
    z: np.ndarray,
    plan: np.ndarray,
    metric: np.ndarray,
    d: np.ndarray,
    lam: float,
    ridge: float = 0.0,
) -> float:
    """Joint objective: transport cost + metric regularizer + entropy term.

    Equals ``<plan, cost(A)> + ridge * trace(A) + trace(A^{-1} D)
    + lam * sum plan ln plan``. The ridge term is the trace counterpart
    of the diagonal ridge used in the metric update; with the same fixed
    value both alternating steps minimize this exact functional.
    """
    transport = sk.transport_cost(plan, cost_matrix(x, z, metric))
    reg = ridge * float(np.trace(metric)) + trace_inner(spd_inv(metric), d)
    return transport + reg + lam * sk.entropy(plan)


def _gram_sum(x, z):
    return symmetrize(x @ x.T + z @ z.T)


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
        "identity" for I, "gram_sum" for the floored X X^T + Z Z^T,
        "gram_sum_inverse" for its inverse, or an explicit matrix which
        is validated as SPD and passed through.
    x, z : ndarray of shape (d, m), (d, n)
        Point clouds (columns are points).
    eps : float
        Diagonal floor applied to the Gram sum before any inversion.
    """
    x, z = _check_clouds(x, z)
    dim = x.shape[0]
    if isinstance(choice, np.ndarray):
        custom = symmetrize(choice)
        eigh_spd(custom)  # validate
        return custom
    if choice == "identity":
        return np.eye(dim)
    if choice == "gram_sum":
        return eigen_floor(_gram_sum(x, z), eps)
    if choice == "gram_sum_inverse":
        return spd_inv(eigen_floor(_gram_sum(x, z), eps))
    raise ValueError(f"d_choice must be one of {D_CHOICES} or an SPD matrix, got {choice!r}")


def baseline_metric(
    kind: str, x: np.ndarray, z: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Fixed (not learned) ground metrics used as baselines.

    "euclidean" is the identity, "gram" the floored pooled Gram matrix
    [X, Z] [X, Z]^T, and "whiten" its inverse, which decorrelates the
    pooled data.
    """
    x, z = _check_clouds(x, z)
    if kind == "euclidean":
        return np.eye(x.shape[0])
    if kind == "gram":
        return eigen_floor(_gram_sum(x, z), eps)
    if kind == "whiten":
        return spd_inv(eigen_floor(_gram_sum(x, z), eps))
    raise ValueError(f"kind must be one of {BASELINE_METRICS}, got {kind!r}")


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
    non-increasing up to the inner solver tolerance.

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
    dim = x.shape[0]
    d_mat = make_d(cfg.d_choice, x, z, eps=cfg.eps)
    lam = cfg.sinkhorn.lam

    plan = np.outer(p, q)
    ridge = _ridge(_scatter(x, z, plan), cfg.eps)
    metric = np.eye(dim)
    history: list[float] = []
    converged = False
    all_sinkhorn_ok = True
    iters_run = 0

    for _ in range(cfg.outer_iters):
        if cfg.learn_metric:
            metric = update_metric(compute_cgamma(x, z, plan, ridge), d_mat)
        transport = sk.solve(cost_matrix(x, z, metric), p, q, cfg.sinkhorn)
        plan = transport.matrix
        all_sinkhorn_ok = all_sinkhorn_ok and transport.converged
        iters_run += 1
        history.append(objective(x, z, plan, metric, d_mat, lam, ridge=ridge))
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
