"""Reference solvers that the transport tests compare ``sinkhorn.solve`` to.

``exact_ot_oracle`` solves tiny unregularized instances exactly by
enumeration, an independent ground truth for the entropic solver at small
``lam``. ``kernel_scaling_plan`` is the textbook kernel-scaling iteration,
a second route to the entropic plan on well-scaled instances.
``log_domain_solve`` is the log-domain Sinkhorn iteration that the
stabilized scaling sweeps of ``sinkhorn.solve`` replaced; it takes the same
steps, so sweep counts and plans must match it.
"""

import itertools

import numpy as np

from otml import sinkhorn as sk

# Instances the enumeration oracle accepts: square uniform problems up to
# this size go through permutation search, anything else must have at most
# MAX_ORACLE_CELLS cells for the vertex enumeration to stay tractable.
MAX_ORACLE_PERM = 7
MAX_ORACLE_CELLS = 16


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


def log_domain_solve(cost, p, q, cfg):
    """Log-domain Sinkhorn on positive histograms: (plan, f, g, sweeps).

    Each sweep is two max-shifted log-sum-exp passes over an m x n work
    buffer, the first along rows (updates f), the second along columns
    (updates g). The stopping test, the full-L1 re-check and the Newton
    polish checkpoints are those of ``sinkhorn.solve``.
    """
    lam = cfg.lam
    log_p = np.log(p)
    log_q = np.log(q)
    f = np.zeros(p.size)
    g = np.zeros(q.size)
    scaled = cost / lam
    work = np.empty_like(scaled)

    def row_lse(g):
        np.subtract(g / lam, scaled, out=work)
        return sk._logsumexp(work, axis=1)

    def plan_of(f, g):
        return np.exp((f[:, None] + g[None, :]) / lam - scaled)

    polish_at = sk._POLISH_FIRST
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
