"""Entropic-regularized optimal transport between discrete histograms.

The solver returns the coupling that minimizes

    <plan, cost> + lam * sum_ij plan_ij * ln(plan_ij)

over nonnegative matrices with prescribed row and column sums. The plan is
u_i K_ij v_j with a fixed kernel K = exp((f + g - cost) / lam), so a sweep
is two matrix-vector products, u = p / (K v) and v = q / (K^T u). Sweep 1
is a log-domain step from g = 0, or from a nearby cost's g (a warm start),
that centres K, so K stays finite for small ``lam``; so is any sweep where
K v or K^T u underflows (subnormal masses). That step (Schmitzer, SISC
2019) takes one exp, of the cost shifted by its row maxima; where a
column's mass in that exp falls below 1e-200, or a row's scaling
underflows, it takes max-shifted log-sum-exps along rows and columns.
Scalings that leave a fixed range are absorbed into the dual potentials
f, g, and K is rebuilt. The stop test reads the row error off the K v that
the next sweep needs; the plan is built, and its full L1 error decides,
only when that test passes, and at exit. Where sweeps stall (small
``lam``), damped Newton steps on the dual finish, first at sweep 200, or
at sweep 20 from a warm start.
"""

import numbers
from dataclasses import dataclass

import numpy as np

# Scaling sweeps contract at a rate like 1 - exp(-osc(cost)/lam) and so
# stall for small lam; the Newton polish, which works on the potentials,
# runs at sweep _POLISH_FIRST and at every fivefold count after. A warm
# solve polishes first at _POLISH_WARM: from near-optimal potentials a
# polish needs few damped steps, while a cold one that early needs many.
_POLISH_FIRST = 200
_POLISH_WARM = 20
# Scalings that leave this range are absorbed into the potentials.
_SCALING_MIN, _SCALING_MAX = 1e-30, 1e30


# JSON true/false arrive as bool, which Python counts as a number and an integer.
def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        for name in ("lam", "tol"):
            value = getattr(self, name)
            if not (_is_number(value) and 0 < value < np.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (_is_int(self.max_iter) and self.max_iter >= 1):
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
    """

    matrix: np.ndarray
    iterations: int
    marginal_error: float
    converged: bool
    f: np.ndarray
    g: np.ndarray


def validate_histogram(weights: np.ndarray, name: str = "histogram") -> np.ndarray:
    """Check that ``weights`` is a histogram with every entry positive."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(w <= 0):
        raise ValueError(f"{name} has an entry <= 0; drop a point without mass first")
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
    g0: "np.ndarray | None" = None,
) -> TransportPlan:
    """Solve entropic OT for a fixed cost matrix by stabilized scaling sweeps.

    Parameters
    ----------
    cost : ndarray of shape (m, n)
        Nonnegative ground costs.
    p, q : ndarray of shape (m,), (n,)
        Source and target histograms on the simplex, every entry positive.
    cfg : SinkhornConfig
        Regularization weight and stopping rule.
    g0 : ndarray of shape (n,), optional
        Finite column potential to start from, such as the ``g`` of a solve
        on a nearby cost. Omitted, the start is zero.

    Returns
    -------
    TransportPlan
        The plan is C-ordered. A +inf cost forbids its pair, which gets
        zero mass.

    Raises
    ------
    ValueError
        On a NaN or -inf cost, a row or a column whose costs are all +inf,
        or a start potential that is not finite.
    """
    cost, p, q = _check_inputs(cost, p, q)
    if g0 is not None:
        if np.shape(g0) != q.shape:
            raise ValueError(f"start potential has shape {np.shape(g0)}, q has {q.shape}")
        g0 = np.asarray(g0, dtype=float)
        if not np.isfinite(g0).all():
            raise ValueError("start potential is not finite")
    plan, f, g, iters, err = _solve_scaling(np.ascontiguousarray(cost), p, q, cfg, g0)
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


def _solve_scaling(cost, p, q, cfg, g0):
    lam, tol = cfg.lam, cfg.tol
    scaled = cost / lam
    kernel = np.empty_like(scaled)  # rebuilt in place, which keeps the heap's peak down
    tiny = np.finfo(float).tiny
    g, v, kv = np.zeros(q.size) if g0 is None else g0, np.ones(q.size), np.zeros(p.size)
    polish_at = _POLISH_FIRST if g0 is None else _POLISH_WARM
    for it in range(1, cfg.max_iter + 1):
        if kv.min() >= tiny and (ktu := kernel.T @ (u := p / kv)).min() >= tiny:
            v = q / ktu
            kv = kernel @ v
        else:
            # sweep 1, or K v or K^T u underflowed: a log-domain step centres
            # K. With h = g/lam + log v, E = exp(h - scaled - t) for the row
            # maxima t, a = p / (E 1) and kappa = E^T a, it gives
            # f = lam (log a - t), g = lam (log(q / kappa) + h) and
            # K = diag(a) E diag(q / kappa) from one exp. Entries of E that
            # underflow are below 1e-108 of their column's mass kappa >= 1e-200;
            # a smaller kappa (or a subnormal mass) takes max-shifted
            # log-sum-exps along both axes.
            h = g / lam + np.log(v)
            np.subtract(h, scaled, out=kernel)
            t = kernel.max(axis=1)
            if not np.isfinite(t).all():
                raise ValueError("cost has a NaN or -inf entry, or a row with no finite entry")
            kernel -= t[:, None]
            np.exp(kernel, out=kernel)
            a = p / kernel.sum(axis=1)
            kappa = kernel.T @ a
            if kappa.min() >= 1e-200 and a.min() > 0:
                f, col = lam * (np.log(a) - t), q / kappa
                g = lam * (np.log(col) + h)
                kernel *= a[:, None]
                kernel *= col
            else:
                f = lam * (np.log(p) - _logsumexp(h - scaled, axis=1))
                expo = f[:, None] / lam - scaled
                if not np.isfinite(expo.max(axis=0)).all():
                    raise ValueError("cost has a column with no finite entry")
                g = lam * (np.log(q) - _logsumexp(expo, axis=0))
                np.exp((f[:, None] + g[None, :]) / lam - scaled, out=kernel)
            u, v, kv = np.ones(p.size), np.ones(q.size), kernel.sum(axis=1)
        # the columns sum to q; the rows sum to u * kv
        if np.abs(u * kv - p).sum() < tol:
            plan = np.multiply(u[:, None], kernel)
            plan *= v
            err = max(marginal_error(plan, p, q))
            if err < tol:
                break
        if it >= polish_at:
            polish_at *= 5
            out = _newton_polish(scaled, p, q, f + lam * np.log(u), g + lam * np.log(v), lam, tol)
            if out is not None:
                f, g, plan, err = out
                kernel, u, v, kv = plan, np.ones(p.size), np.ones(q.size), plan.sum(axis=1)
                if err < tol:
                    break
        if min(u.min(), v.min()) < _SCALING_MIN or max(u.max(), v.max()) > _SCALING_MAX:
            f, g = f + lam * np.log(u), g + lam * np.log(v)
            np.exp((f[:, None] + g[None, :]) / lam - scaled, out=kernel)
            u, v, kv = np.ones(p.size), np.ones(q.size), u * kv
    else:
        plan = kernel
        plan *= u[:, None]
        plan *= v
        err = max(marginal_error(plan, p, q))
    return plan, f + lam * np.log(u), g + lam * np.log(v), it, err


def _newton_polish(scaled, p, q, f, g, lam, tol):
    """Damped Newton ascent on the concave dual of the entropic problem.

    Phi(f, g) = <f, p> + <g, q> - lam * sum(plan) has gradient (p - r, q - c).
    Each of at most 30 steps is one linear solve of the Hessian's Schur
    complement on the shorter side, with both diagonal blocks damped by
    damp = 1e-12 * max(r, c): S = diag(c + damp) - plan^T diag(1/(r + damp))
    plan. The Hessian has one null direction per connected component of the
    plan's support (f + t, g - t there); damping lifts each to about damp,
    and since each component's mass balances, the gradient has no part along
    it, so no cut is needed and zero rows need no exit. Steps halve (at most
    40 times) until Phi rises by 1e-4 of their slope, though the L1 error may
    rise; stepping ends once it is below ``tol`` or Phi can no longer rise.
    Returns the (f, g, plan, error) of lowest error, or None if no step
    improved on the starting point.
    """
    if p.size < q.size:
        out = _newton_polish(scaled.T, q, p, g, f, lam, tol)
        if out is None:
            return None
        plan = np.ascontiguousarray(out[2].T)  # C-ordered as every plan; error of this matrix
        return out[1], out[0], plan, max(_marginals(plan, p, q)[2:])
    expo = (f[:, None] + g[None, :]) / lam - scaled
    plan = np.exp(expo)
    r, c, *errs = _marginals(plan, p, q)
    err = max(errs)
    best = None
    for _ in range(30):
        damp = 1e-12 * max(r.max(), c.max())
        rd = r + damp
        b = plan / np.sqrt(rd)[:, None]  # b^T b = plan^T diag(1/rd) plan, one syrk
        a = lam * (p - r) / rd
        schur = b.T @ b
        np.negative(schur, out=schur)  # S = diag(c + damp) - b^T b, built in place
        schur.flat[:: schur.shape[0] + 1] += c + damp
        dg = np.linalg.solve(schur, lam * (q - c) - plan.T @ a)
        df = a - (plan @ dg) / rd
        slope = df @ (p - r) + dg @ (q - c)
        if not slope > 0:
            break
        # rounding is monotone, so top * (t / lam) is the step's largest
        # entry, and a step past exp's range is skipped before it is formed
        top = df.max() + dg.max()
        for t in 0.5 ** np.arange(40):
            if top * (t / lam) > 700.0:
                continue
            x = (df[:, None] + dg[None, :]) * (t / lam)
            if (stepped := expo + x).max() > 700.0:
                continue
            # plan * expm1(x) keeps Phi's gain exact far below Phi's rounding
            if t * (df @ p + dg @ q) - lam * (plan * np.expm1(x)).sum() >= 1e-4 * t * slope:
                break
        else:
            break
        f, g, expo = f + t * df, g + t * dg, stepped
        plan = np.exp(expo)
        r, c, *errs = _marginals(plan, p, q)
        step_err = max(errs)
        if step_err < err:
            err = step_err
            best = (f, g, plan, err)
            if err < tol:
                break
    return best


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
    return _marginals(plan, p, q)[2:]


def _marginals(plan, p, q):
    """Row sums, column sums and their L1 errors against (p, q)."""
    r, c = plan.sum(axis=1), plan.sum(axis=0)
    return r, c, float(np.abs(r - p).sum()), float(np.abs(c - q).sum())
