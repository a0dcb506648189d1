"""Entropic-regularized optimal transport between discrete histograms.

The solver returns the coupling that minimizes

    <plan, cost> + lam * sum_ij plan_ij * ln(plan_ij)

over nonnegative matrices with prescribed row and column sums. Iterations
run in the log domain: the dual potentials f, g are updated
through max-shifted log-sum-exp, which stays finite for small ``lam``
where the naive kernel scaling underflows. One sweep is two log-sum-exp
passes over an m x n work buffer, the first along rows (updates f) and
the second along columns (updates g). After the g update the columns
sum to q, and the row sums are exp(f/lam + r), where r is the row
log-sum-exp that the next f update computes anyway, so the stopping test
reads the marginal error off that pass in O(m). The plan itself is built
only when that test passes, where its full L1 error decides, and at exit.
Where sweeps stall (small ``lam``), damped Newton steps on the dual finish
the solve at any problem size.
"""

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

# Sweeps contract at a rate like 1 - exp(-osc(cost)/lam) and so stall for
# small lam; the Newton polish runs at sweep _POLISH_FIRST and at every
# fivefold count after.
_POLISH_FIRST = 200


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver settings.

    Attributes
    ----------
    lam : float
        Entropic regularization weight, > 0. The kernel is exp(-cost/lam).
    max_iter : int
        Iteration cap.
    tol : float
        Stop once max(L1 row-marginal error, L1 column-marginal error)
        falls below this threshold.
    """

    lam: float
    max_iter: int = 10000
    tol: float = 1e-9

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        # JSON true/false arrive as bool, which Python counts as an integer.
        if isinstance(self.max_iter, bool) or not (
            isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1
        ):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")


@dataclass
class TransportPlan:
    """Solver output: the coupling plus convergence diagnostics.

    Attributes
    ----------
    matrix : ndarray of shape (m, n)
        Nonnegative coupling with row sums ~ p and column sums ~ q.
    iterations : int
        Sinkhorn sweeps performed.
    marginal_error : float
        max(L1 row error, L1 column error) at exit.
    converged : bool
        False when the iteration cap was hit above tolerance.
    f, g : ndarray of shape (m,), (n,)
        Dual potentials, with exp((f_i + g_j - cost_ij) / lam) = matrix_ij.
        Rows and columns with zero histogram mass have potential -inf.
    """

    matrix: np.ndarray
    iterations: int
    marginal_error: float
    converged: bool
    f: np.ndarray
    g: np.ndarray


def validate_histogram(weights: np.ndarray, name: str = "histogram") -> np.ndarray:
    """Check that ``weights`` lies on the probability simplex."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.size == 0:
        raise ValueError(f"{name} is empty")
    if np.any(w < 0):
        raise ValueError(f"{name} has negative entries")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"{name} sums to {total!r}, expected 1")
    return w


def _check_inputs(cost, p, q):
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a matrix, got ndim={cost.ndim}")
    p = validate_histogram(p, "p")
    q = validate_histogram(q, "q")
    if cost.shape != (p.size, q.size):
        raise ValueError(
            f"cost shape {cost.shape} does not match histogram sizes "
            f"({p.size}, {q.size})"
        )
    return cost, p, q


def solve(
    cost: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    cfg: SinkhornConfig,
) -> TransportPlan:
    """Solve entropic OT for a fixed cost matrix.

    Parameters
    ----------
    cost : ndarray of shape (m, n)
        Nonnegative ground costs.
    p, q : ndarray of shape (m,), (n,)
        Source and target histograms on the simplex.
    cfg : SinkhornConfig
        Regularization weight and stopping rule.

    Returns
    -------
    TransportPlan
        Rows or columns with zero histogram mass are excluded from the
        iteration and receive zero plan mass.
    """
    cost, p, q = _check_inputs(cost, p, q)
    rows = p > 0
    cols = q > 0
    sub_plan, sub_f, sub_g, iters = _solve_log(
        cost[np.ix_(rows, cols)], p[rows], q[cols], cfg
    )

    plan = np.zeros_like(cost)
    plan[np.ix_(rows, cols)] = sub_plan
    f = np.full(p.size, -np.inf)
    f[rows] = sub_f
    g = np.full(q.size, -np.inf)
    g[cols] = sub_g
    err = max(marginal_error(plan, p, q))
    return TransportPlan(
        matrix=plan,
        iterations=iters,
        marginal_error=err,
        converged=err < cfg.tol,
        f=f,
        g=g,
    )


def _logsumexp(a, axis):
    """Log-sum-exp of ``a`` along ``axis``, overwriting ``a`` as scratch.

    Each lane is shifted by its maximum before exponentiating, so the
    largest term is exp(0) = 1 and the result is finite however far the
    entries lie below it.
    """
    shift = a.max(axis=axis, keepdims=True)
    a -= shift
    np.exp(a, out=a)
    return np.log(a.sum(axis=axis)) + shift.reshape(-1)


def _solve_log(cost, p, q, cfg):
    lam = cfg.lam
    log_p = np.log(p)
    log_q = np.log(q)
    f = np.zeros(p.size)
    g = np.zeros(q.size)
    scaled = cost / lam
    work = np.empty_like(scaled)

    def row_lse(g):
        np.subtract(g / lam, scaled, out=work)
        return _logsumexp(work, axis=1)

    def plan_of(f, g):
        return np.exp((f[:, None] + g[None, :]) / lam - scaled)

    polish_at = _POLISH_FIRST
    lse_r = row_lse(g)
    for it in range(1, cfg.max_iter + 1):
        f = lam * (log_p - lse_r)
        np.subtract(f[:, None] / lam, scaled, out=work)
        g = lam * (log_q - _logsumexp(work, axis=0))
        # the columns now sum to q; the rows sum to exp(f/lam + lse_r)
        lse_r = row_lse(g)
        if np.abs(np.exp(f / lam + lse_r) - p).sum() < cfg.tol:
            plan = plan_of(f, g)
            if max(marginal_error(plan, p, q)) < cfg.tol:
                break
        if it >= polish_at:
            polish_at *= 5
            out = _newton_polish(scaled, p, q, f, g, lam, cfg.tol)
            if out is not None:
                f, g, plan, err = out
                if err < cfg.tol:
                    break
                lse_r = row_lse(g)
    else:
        plan = plan_of(f, g)
    return plan, f, g, it


def _newton_polish(scaled, p, q, f, g, lam, tol):
    """Damped Newton ascent on the concave dual of the entropic problem.

    Phi(f, g) = <f, p> + <g, q> - lam * sum(plan) has gradient (p - r, q - c).
    Each of at most 30 steps solves the Hessian's Schur complement on the
    shorter side, S = diag(c) - plan^T diag(1/r) plan, by eigendecomposition
    with eigenvalues below 1e-12 of the largest taken as null: S has one null
    direction per connected component of the plan's support, and the
    minimum-norm step gives the same plan as any other. Steps halve (at most
    40 times) until Phi rises by 1e-4 of their slope, though the L1 error may
    rise; stepping ends once it is below ``tol`` or Phi can no longer rise.
    Returns the (f, g, plan, error) of lowest error, or None if no step
    improved on the starting point.
    """
    if p.size < q.size:
        out = _newton_polish(scaled.T, q, p, g, f, lam, tol)
        return None if out is None else (out[1], out[0], out[2].T, out[3])
    expo = (f[:, None] + g[None, :]) / lam - scaled
    plan = np.exp(expo)
    err = max(marginal_error(plan, p, q))
    best = None
    for _ in range(30):
        r, c = plan.sum(axis=1), plan.sum(axis=0)
        if not np.all(r > 0):
            break
        weighted = plan / r[:, None]
        a = lam * (p - r) / r
        w, v = np.linalg.eigh(np.diag(c) - plan.T @ weighted)
        keep = w > 1e-12 * w[-1]
        dg = v[:, keep] @ ((v[:, keep].T @ (lam * (q - c) - plan.T @ a)) / w[keep])
        df = a - weighted @ dg
        slope = df @ (p - r) + dg @ (q - c)
        if not slope > 0:
            break
        for t in 0.5 ** np.arange(40):
            x = (df[:, None] + dg[None, :]) * (t / lam)
            if x.max() > 700.0 or (expo + x).max() > 700.0:
                continue
            # plan * expm1(x) keeps Phi's gain exact far below Phi's rounding
            if t * (df @ p + dg @ q) - lam * (plan * np.expm1(x)).sum() >= 1e-4 * t * slope:
                break
        else:
            break
        f, g, expo = f + t * df, g + t * dg, expo + x
        plan = np.exp(expo)
        step_err = max(marginal_error(plan, p, q))
        if step_err < err:
            err = step_err
            best = (f, g, plan, err)
            if err < tol:
                break
    return best


def entropy(plan: np.ndarray) -> float:
    """Negative-entropy value sum_ij plan_ij * ln(plan_ij), with 0 ln 0 = 0."""
    plan = np.asarray(plan, dtype=float)
    if np.any(plan < 0):
        raise ValueError("plan has negative entries")
    return float(xlogy(plan, plan).sum())


def transport_cost(plan: np.ndarray, cost: np.ndarray) -> float:
    """Linear transport cost sum_ij plan_ij * cost_ij."""
    return float(np.sum(np.asarray(plan) * np.asarray(cost)))


def marginal_error(plan: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """L1 deviations of the plan's marginals from (p, q).

    Returns
    -------
    (float, float)
        ``(||plan @ 1 - p||_1, ||plan.T @ 1 - q||_1)``.
    """
    plan = np.asarray(plan, dtype=float)
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if plan.shape != (p.size, q.size):
        raise ValueError(
            f"plan shape {plan.shape} does not match histogram sizes "
            f"({p.size}, {q.size})"
        )
    row_err = float(np.abs(plan.sum(axis=1) - p).sum())
    col_err = float(np.abs(plan.sum(axis=0) - q).sum())
    return row_err, col_err
