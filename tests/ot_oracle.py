"""Reference solvers that the transport tests compare ``sinkhorn.solve`` to.

``exact_ot_oracle`` solves tiny unregularized instances exactly by
enumeration, an independent ground truth for the entropic solver at small
``lam``. ``kernel_scaling_plan`` is the textbook kernel-scaling iteration,
a second route to the entropic plan on well-scaled instances.
``log_domain_solve`` is the log-domain Sinkhorn iteration that the
stabilized scaling sweeps of ``sinkhorn.solve`` replaced; it takes the same
steps, so sweep counts and plans must match it. ``eigh_newton_polish`` is
the Newton polish that the damped solve of ``sinkhorn._newton_polish``
replaced; on plans whose Schur complement is well conditioned it takes the
same steps. ``dense_fit`` and ``dense_baseline_metric`` are the learned
fit and the Gram baselines with every matrix d x d, as they were before
``gml`` moved to the span of the points; the span fits must match them.
``barycentric_map`` and ``knn1_predict`` are the evaluation of
``adapt.run_task`` in the coordinates of the points, as it was before it
moved to inner products with the target cloud; its labels must match
theirs. ``geometric_mean`` is the affine-invariant mean of two SPD
matrices, which ``spd.riccati_solve`` must equal at C^{-1} and D.
``objective``, with ``transport_cost`` and ``entropy``, is the joint
functional evaluated on the plan itself, the definition that the history
``gml.grid_fits`` records from the Sinkhorn potentials must equal.
"""

import itertools
import warnings

import numpy as np

from otml import gml, spd
from otml import sinkhorn as sk

# Instances the enumeration oracle accepts: square uniform problems up to
# this size go through permutation search, anything else must have at most
# MAX_ORACLE_CELLS cells for the vertex enumeration to stay tractable.
MAX_ORACLE_PERM = 7
MAX_ORACLE_CELLS = 16


def entropy(plan: np.ndarray) -> float:
    """Negative-entropy value sum_ij plan_ij * ln(plan_ij), with 0 ln 0 = 0."""
    plan = np.asarray(plan, dtype=float)
    low = plan.min(initial=np.inf)
    if low < 0:
        raise ValueError("plan has negative entries")
    logs = np.log(plan) if low > 0 else np.log(plan, out=np.zeros_like(plan), where=plan > 0)
    return float((plan * logs).sum())


def transport_cost(plan: np.ndarray, cost: np.ndarray) -> float:
    """Linear transport cost sum_ij plan_ij * cost_ij."""
    return float(np.sum(np.asarray(plan) * np.asarray(cost)))


def objective(cost: np.ndarray, plan: np.ndarray, reg: float, lam: float) -> float:
    """Joint objective: transport cost + metric regularizer + entropy term.

    Equals ``<plan, cost> + reg + lam * sum plan ln plan``, where ``cost``
    is ``cost_matrix(x, z, A)`` for the metric A and ``reg`` is the metric
    regularizer ``ridge * trace(A) + trace(A^{-1} D)`` (see
    ``gml.FitResult``).
    """
    return transport_cost(plan, cost) + reg + lam * entropy(plan)


def kernel_scaling_plan(cost, p, q, lam, tol, max_iter=10000):
    """Entropic plan by alternate scaling u = p / (K v), v = q / (K^T u).

    K = exp(-cost / lam) underflows for small ``lam``, so this reference
    suits well-scaled instances with positive histograms only. Stops once
    the L1 marginal error of u K v falls below ``tol``.
    """
    kernel = np.exp(-cost / lam)
    v = np.ones(q.size)
    for _ in range(max_iter):
        u = p / (kernel @ v)
        v = q / (kernel.T @ u)
        plan = u[:, None] * kernel * v[None, :]
        if max(sk.marginal_error(plan, p, q)) < tol:
            break
    return plan


def log_domain_solve(cost, p, q, cfg, g0=None):
    """Log-domain Sinkhorn on positive histograms: (plan, f, g, sweeps).

    Each sweep is two max-shifted log-sum-exp passes over an m x n work
    buffer, the first along rows (updates f), the second along columns
    (updates g). Sweep 1 starts from g = ``g0``, or zero. The stopping
    test, the full-L1 re-check and the Newton polish checkpoints (the
    first at ``_POLISH_WARM`` from a start potential) are those of
    ``sinkhorn.solve``.
    """
    lam = cfg.lam
    log_p = np.log(p)
    log_q = np.log(q)
    f = np.zeros(p.size)
    g = np.zeros(q.size) if g0 is None else np.asarray(g0, dtype=float)
    scaled = cost / lam
    work = np.empty_like(scaled)

    def row_lse(g):
        np.subtract(g / lam, scaled, out=work)
        return sk._logsumexp(work, axis=1)

    def plan_of(f, g):
        return np.exp((f[:, None] + g[None, :]) / lam - scaled)

    polish_at = sk._POLISH_FIRST if g0 is None else sk._POLISH_WARM
    lse_r = row_lse(g)
    for it in range(1, cfg.max_iter + 1):
        f = lam * (log_p - lse_r)
        np.subtract(f[:, None] / lam, scaled, out=work)
        g = lam * (log_q - sk._logsumexp(work, axis=0))
        # the columns now sum to q; the rows sum to exp(f/lam + lse_r)
        lse_r = row_lse(g)
        if np.abs(np.exp(f / lam + lse_r) - p).sum() < cfg.tol:
            plan = plan_of(f, g)
            if max(sk.marginal_error(plan, p, q)) < cfg.tol:
                break
        if it >= polish_at:
            polish_at *= 5
            out = sk._newton_polish(scaled, p, q, f, g, lam, cfg.tol)
            if out is not None:
                f, g, plan, err = out
                if err < cfg.tol:
                    break
                lse_r = row_lse(g)
    else:
        plan = plan_of(f, g)
    return plan, f, g, it


def eigh_newton_polish(scaled, p, q, f, g, lam, tol):
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
        out = eigh_newton_polish(scaled.T, q, p, g, f, lam, tol)
        return None if out is None else (out[1], out[0], out[2].T, out[3])
    expo = (f[:, None] + g[None, :]) / lam - scaled
    plan = np.exp(expo)
    err = max(sk.marginal_error(plan, p, q))
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
        step_err = max(sk.marginal_error(plan, p, q))
        if step_err < err:
            err = step_err
            best = (f, g, plan, err)
            if err < tol:
                break
    return best


def exact_ot_oracle(cost: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact unregularized OT optimizer for tiny instances, by enumeration.

    Square problems with uniform marginals are solved by scanning all
    permutation couplings. Otherwise every extreme point of the coupling
    polytope is generated by the greedy rule (pick any remaining cell,
    move min(row mass, column mass), recurse), which reaches every vertex
    under some cell ordering, and the cheapest one is returned.

    Parameters
    ----------
    cost : ndarray of shape (m, n)
    p, q : histograms

    Returns
    -------
    ndarray of shape (m, n)
        An exact minimizer of the linear transport cost.

    Raises
    ------
    ValueError
        If the instance is too large to enumerate.
    """
    cost, p, q = sk._check_inputs(cost, p, q)
    m, n = cost.shape

    uniform = (
        m == n
        and np.allclose(p, 1.0 / m, rtol=0, atol=1e-12)
        and np.allclose(q, 1.0 / n, rtol=0, atol=1e-12)
    )
    if uniform and m <= MAX_ORACLE_PERM:
        return _best_permutation_plan(cost)
    if m * n <= MAX_ORACLE_CELLS:
        return _best_vertex_plan(cost, p, q)
    raise ValueError(
        f"instance {m}x{n} too large for exact enumeration "
        f"(need uniform square with n <= {MAX_ORACLE_PERM}, or at most "
        f"{MAX_ORACLE_CELLS} cells)"
    )


def _best_permutation_plan(cost):
    n = cost.shape[0]
    idx = np.arange(n)
    best_perm = None
    best_cost = np.inf
    for perm in itertools.permutations(range(n)):
        c = cost[idx, perm].sum()
        if c < best_cost:
            best_cost = c
            best_perm = perm
    plan = np.zeros_like(cost)
    plan[idx, best_perm] = 1.0 / n
    return plan


def _best_vertex_plan(cost, p, q):
    memo = {}

    def key(pr, qr):
        return (tuple(np.round(pr, 12)), tuple(np.round(qr, 12)))

    def search(pr, qr):
        k = key(pr, qr)
        if k in memo:
            return memo[k]
        rows = np.nonzero(pr > 0)[0]
        cols = np.nonzero(qr > 0)[0]
        if rows.size == 0:
            memo[k] = (0.0, ())
            return memo[k]
        best = (np.inf, ())
        for i in rows:
            for j in cols:
                t = min(pr[i], qr[j])
                pr2 = pr.copy()
                qr2 = qr.copy()
                pr2[i] -= t
                qr2[j] -= t
                # kill subtraction dust so near-tied lines close properly
                pr2[pr2 < 1e-15] = 0.0
                qr2[qr2 < 1e-15] = 0.0
                sub_cost, sub_moves = search(pr2, qr2)
                total = cost[i, j] * t + sub_cost
                if total < best[0]:
                    best = (total, ((i, j, t),) + sub_moves)
        memo[k] = best
        return best

    _, moves = search(p.copy(), q.copy())
    plan = np.zeros_like(cost)
    for i, j, t in moves:
        plan[i, j] += t
    return plan


def dense_scatter(x, z, plan):
    """Plan-weighted d x d scatter of the differences x_i - z_j."""
    r = plan.sum(axis=1)
    c = plan.sum(axis=0)
    cross = x @ plan @ z.T
    return spd.symmetrize((x * r) @ x.T + (z * c) @ z.T - cross - cross.T)


def dense_ridge(raw):
    """gml.EPS * trace(raw) / d, or gml.EPS when the trace vanishes."""
    scale = float(np.trace(raw)) / raw.shape[0]
    return gml.EPS * (scale if scale > 0 else 1.0)


def dense_baseline_metric(kind, x, z):
    """The d x d identity, ridged pooled Gram matrix, or its inverse."""
    if kind == "euclidean":
        return np.eye(x.shape[0])
    raw = spd.symmetrize(x @ x.T + z @ z.T)
    gram = raw + dense_ridge(raw) * np.eye(x.shape[0])
    return gram if kind == "gram" else spd.spd_inv(gram)


def dense_fit(x, z, p, q, cfg):
    """The learned fit at ``cfg.sinkhorn.lam`` on d x d matrices.

    Returns (plan, metric, objective history) after ``cfg.outer_iters``
    sweeps; there is no early stop, so compare at ``objective_rtol=0``.
    Each sweep is scatter -> ``riccati_solve`` -> ``cost_matrix`` on the
    raw coordinates, with the ridge of the independence coupling.
    """
    d_kind = {"identity": "euclidean", "gram_sum": "gram", "gram_sum_inverse": "whiten"}
    d_mat = dense_baseline_metric(d_kind[cfg.d_choice], x, z)
    raw = dense_scatter(x, z, np.outer(p, q))
    ridge = dense_ridge(raw)
    lift = ridge * np.eye(x.shape[0])

    def step(cg):
        metric = spd.riccati_solve(cg, d_mat)
        reg = ridge * float(np.trace(metric)) + float(np.sum(metric * cg))
        return metric, reg, gml.cost_matrix(x, z, metric)

    metric, reg, cost = step(raw + lift)
    history = []
    for sweep in range(cfg.outer_iters):
        if sweep:
            metric, reg, cost = step(dense_scatter(x, z, plan) + lift)
        plan = sk.solve(cost, p, q, cfg.sinkhorn).matrix
        history.append(objective(cost, plan, reg, cfg.sinkhorn.lam))
    return plan, metric, history


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


def geometric_mean(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Affine-invariant geometric mean of two SPD matrices.

    Computed as P^{1/2} (P^{-1/2} Q P^{-1/2})^{1/2} P^{1/2}, the midpoint
    of the geodesic joining P and Q under the affine-invariant geometry.
    Coincides with the solution A of A @ P^{-1} @ A = Q, so
    ``geometric_mean(inv(C), D) == riccati_solve(C, D)``. Two
    eigendecompositions, one of P and one of the inner product; when Q is
    exactly s * I the mean is s^{1/2} P^{1/2}, from the one of P (the zero
    matrix for s <= 0). The result is symmetrized before return.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    w, v = spd.eigh_spd(p)
    s = q[0, 0]
    if np.array_equal(q, s * np.eye(q.shape[0])):
        return np.sqrt(max(s, 0.0)) * spd._eig_power(w, v, 0.5)
    outer = spd._eig_power(w, v, 0.5)
    inner = spd._eig_power(w, v, -0.5)
    root = spd._psd_sqrt_factor(inner @ spd.symmetrize(q) @ inner)
    return spd.symmetrize(outer @ root @ root.T @ outer)
