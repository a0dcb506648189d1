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

Everything runs in orthonormal coordinates of the span of the points
(``span``: the R of one QR per pair of clouds, r = min(d, m + n)
coordinates, as a read-only ``Span``). The scatter is its part on that
span plus a ridge times the identity, and every target D is its part on
the span plus a multiple D_c of the identity, so the metric is exactly
``A = Q A_r Q^T + alpha (I - Q Q^T)``, the representer form of
Mahalanobis learning (Jain, Kulis, Davis & Dhillon, JMLR 2012): A_r is the
r x r solution and alpha = (D_c / ridge)^(1/2). No d x d matrix is formed
on the way to a plan; ``FitResult.metric`` builds A from these factors
when it is read.
"""

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import sinkhorn as sk
from .spd import riccati_solve, spd_inv, symmetrize

BASELINE_METRICS = ("euclidean", "gram", "whiten")
# Each named regularization target is the matching fixed baseline metric.
_D_BASELINES = {
    "identity": "euclidean",
    "gram_sum": "gram",
    "gram_sum_inverse": "whiten",
}
D_CHOICES = tuple(_D_BASELINES)
# Relative ridge: ``EPS * trace(M) / d * I`` is added to a matrix M that
# needs a floor (``EPS * I`` when M has zero trace), with d the full data
# dimension. For the metric, M is the independence-coupling scatter; that
# ridge, frozen for the run, is added to the scatter C before each metric
# update. This keeps C positive definite even when d exceeds the number of
# samples, and because the ridge is frozen both alternating steps minimize
# one objective (which includes ``ridge * trace(A)``), so the recorded
# history is genuinely monotone. The Gram targets of ``d_choice`` and the
# gram/whiten baselines take the same rule.
EPS = 1e-6


@dataclass(frozen=True)
class GmlConfig:
    """Settings for the alternating fit.

    Attributes
    ----------
    sinkhorn : SinkhornConfig
        Inner OT solver settings (includes the entropic weight).
    outer_iters : int
        Number of alternating sweeps (metric update + plan update).
    d_choice : str
        Regularization target D: "identity", "gram_sum" (X X^T + Z Z^T,
        ridged) or "gram_sum_inverse".
    objective_rtol : float
        Early stop once the objective decrease over one sweep drops below
        ``objective_rtol * max(1, |objective|)``. Zero disables early
        stopping.
    """

    sinkhorn: sk.SinkhornConfig
    outer_iters: int = 20
    d_choice: str = "identity"
    objective_rtol: float = 1e-6

    def __post_init__(self):
        iters = self.outer_iters
        if not (sk._is_int(iters) and iters >= 1):
            raise ValueError(f"outer_iters must be an integer >= 1, got {iters}")
        rtol = self.objective_rtol
        if not (sk._is_number(rtol) and 0 <= rtol < np.inf):
            raise ValueError(f"objective_rtol must be finite and >= 0, got {rtol!r}")
        # A string test first: `in` on an array compares elementwise.
        if not (isinstance(self.d_choice, str) and self.d_choice in D_CHOICES):
            raise ValueError(
                f"d_choice must be one of {D_CHOICES}, "
                f"got {type(self.d_choice).__name__} {self.d_choice!r}"
            )


@dataclass
class FitResult:
    """Output of ``fit``, with the metric in factored form.

    The metric is ``A = Q A_r Q^T + alpha (I - Q Q^T)`` for Q = ``basis``,
    A_r = ``reduced_metric`` and alpha = ``complement``: A_r acts on the
    span of the points, alpha on everything orthogonal to it.

    The recorded objective is the joint functional
    ``<plan, cost> + reg + lam * sum plan ln plan``, where ``cost`` is
    ``cost_matrix(x, z, A)`` and ``reg`` is the metric regularizer
    ``ridge * trace(A) + trace(A^{-1} D)``. The ridge term is the trace
    counterpart of the diagonal ridge in the metric update; with the same
    frozen value both alternating steps minimize this exact functional.

    Attributes
    ----------
    plan : ndarray of shape (m, n)
        Final transport plan.
    points : ndarray of shape (d, k)
        ``Span.points`` (read-only, and shared with every fit on the same
        ``Span``), whose reduced QR gives the basis; k = 0 for the Euclidean
        baseline, which is alpha on all of R^d.
    reduced_metric : ndarray of shape (r, r)
        The SPD metric in the coordinates of ``basis``.
    complement : float
        The metric on the orthogonal complement of ``basis`` (unused when
        the basis is square).
    objective_history : list of float
        The objective after each sweep; non-increasing up to solver
        tolerance.
    converged : bool
        True when the early-stop rule fired, which it may do on the last
        sweep the cap allows.
    sinkhorn_converged : bool
        False when any inner Sinkhorn call hit its iteration cap above
        tolerance.
    """

    plan: np.ndarray
    points: np.ndarray
    reduced_metric: np.ndarray
    complement: float
    objective_history: "list[float]" = field(default_factory=list)
    converged: bool = False
    sinkhorn_converged: bool = True

    @property
    def iters_run(self) -> int:
        """Sweeps performed: each records one objective."""
        return len(self.objective_history)

    @property
    def basis(self) -> np.ndarray:
        """Q, the (d, r) orthonormal basis, r = min(d, k), formed on each read."""
        return np.linalg.qr(self.points)[0]

    @property
    def metric(self) -> np.ndarray:
        """The (d, d) SPD ground metric, built from the factors on each read.

        This is the one place a d x d matrix is formed. With a square
        basis the complement is empty, and leaving it out keeps alpha's
        rounding out of the result.
        """
        basis = self.basis
        dim, rank = basis.shape
        full = basis @ self.reduced_metric @ basis.T
        if rank < dim:
            full += self.complement * (np.eye(dim) - basis @ basis.T)
        return symmetrize(full)


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


@dataclass(frozen=True)
class Span:
    """Two point clouds in orthonormal coordinates of the span of their points.

    The arrays are read-only, so that one ``Span`` can serve every fit on
    its clouds.

    Attributes
    ----------
    points : ndarray of shape (d, m + n)
        [c, x_2 - c, ..., x_m - c, z_1 - c, ..., z_n - c], c the first source
        point; the Q of its reduced QR is the basis of the span.
    x, z : ndarray of shape (r, m), (r, n)
        Coordinates Q^T (X - c) and Q^T (Z - c), r = min(d, m + n). Costs
        and scatters only see differences, so they are computed from these.
    origin : ndarray of shape (r,)
        Coordinates Q^T c, which the Gram targets need.
    """

    points: np.ndarray
    x: np.ndarray
    z: np.ndarray
    origin: np.ndarray


def span(x: np.ndarray, z: np.ndarray) -> Span:
    """Orthonormal coordinates of two clouds, from the R factor of one QR.

    span{X, Z} = span{c} + span{x_i - c, z_j - c} with c the first source
    point, so the QR of [c, x_2 - c, ..., x_m - c, z_1 - c, ..., z_n - c]
    gives the basis, and its R factor the coordinates of c and of every
    centred point (R alone is bitwise the reduced mode's R). Centring first
    keeps a large common offset (pixel data) out of the differences.
    """
    x, z = _check_clouds(x, z)
    c = x[:, :1]
    points = np.hstack([c, x[:, 1:] - c, z - c])
    coords = np.linalg.qr(points, mode="r")
    m = x.shape[1]
    xr = coords[:, :m].copy()
    xr[:, 0] = 0.0
    for a in (points, coords, xr):
        a.flags.writeable = False
    return Span(points, xr, coords[:, m:], coords[:, 0])


def _scatter(x, z, plan):
    # Plan-weighted scatter sum_ij plan_ij (x_i - z_j)(x_i - z_j)^T through its
    # expansion (X r^1/2)(X r^1/2)^T + (Z c^1/2)(Z c^1/2)^T - (X plan Z^T + (...)^T),
    # O(d^2 (m+n) + d m n) instead of O(d^2 m n); each term is exactly symmetric.
    xr = x * np.sqrt(plan.sum(axis=1))
    zc = z * np.sqrt(plan.sum(axis=0))
    cross = x @ plan @ z.T
    return xr @ xr.T + zc @ zc.T - (cross + cross.T)


def _ridge(raw, dim):
    # Scale-relative diagonal ridge for the scatter and the Gram matrix,
    # trace / dim for the full data dimension dim (raw may be its part on
    # a span); falls back to the absolute EPS when the matrix vanishes.
    scale = float(np.trace(raw)) / dim
    return EPS * (scale if scale > 0 else 1.0)


def update_metric(cg: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Closed-form metric update: the SPD solution of A @ cg @ A = d.

    This is the unique minimizer of ``trace(A cg) + trace(A^{-1} d)``
    over SPD matrices.
    """
    return riccati_solve(cg, d)


def cost_matrix(
    x: np.ndarray, z: np.ndarray, metric: "np.ndarray | None" = None
) -> np.ndarray:
    """Pairwise squared Mahalanobis costs (x_i - z_j)^T A (x_i - z_j).

    Computed from the quadratic expansion
    ``diag(X^T A X) 1^T + 1 diag(Z^T A Z)^T - 2 X^T A Z`` rather than per
    pair; entries that round off slightly negative are clamped to zero.

    Parameters
    ----------
    x : ndarray of shape (d, m)
    z : ndarray of shape (d, n)
    metric : ndarray of shape (d, d), optional
        SPD ground metric A. Omitted, A is the identity: the expansion
        takes C-contiguous copies of the data in place of A X and A Z,
        the layout ``np.eye(d) @ x`` has, so the costs are bitwise those
        of an explicit identity.

    Returns
    -------
    ndarray of shape (m, n)
        Nonnegative cost matrix.
    """
    x, z = _check_clouds(x, z)
    if metric is None:
        ax = np.ascontiguousarray(x)
        az = np.ascontiguousarray(z)
    else:
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


def baseline_factors(kind: str, sp: Span) -> "tuple[np.ndarray, float]":
    """A baseline metric on a span: its (r, r) part and its complement value.

    "euclidean" is (I, 1). "gram" is the pooled Gram matrix
    G = [X, Z] [X, Z]^T lifted by rho * I, rho = EPS * trace(G) / d (the
    scatter's relative ridge rule, with the full d): G_r + rho I, with G_r
    = U U^T for the span coordinates U = Q^T [X, Z] of the points, and
    rho on the complement, where G vanishes. "whiten" is its inverse,
    ((G_r + rho I)^{-1}, 1 / rho). The lift is relative so that the
    inverse exists at any data scale, also when d exceeds the number of
    points.
    """
    if kind not in BASELINE_METRICS:
        raise ValueError(f"kind must be one of {BASELINE_METRICS}, got {kind!r}")
    rank = sp.x.shape[0]
    if kind == "euclidean":
        return np.eye(rank), 1.0
    points = np.hstack([sp.x, sp.z]) + sp.origin[:, None]
    gram = points @ points.T
    rho = _ridge(gram, sp.points.shape[0])
    gram.flat[:: rank + 1] += rho
    return (gram, rho) if kind == "gram" else (spd_inv(gram), 1.0 / rho)


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

    This is the one-lambda call of ``fit_grid`` at ``cfg.sinkhorn.lam``
    on ``span(x, z)``.

    Parameters
    ----------
    x : ndarray of shape (d, m)
        Source points as columns.
    z : ndarray of shape (d, n)
        Target points as columns.
    p, q : histograms of sizes m and n, every entry positive.
    cfg : GmlConfig

    Returns
    -------
    FitResult
    """
    (result,) = fit_grid(span(x, z), p, q, cfg, [cfg.sinkhorn.lam])
    return result


def fit_grid(
    sp: Span,
    p: np.ndarray,
    q: np.ndarray,
    cfg: GmlConfig,
    lambdas: "list[float]",
) -> Iterator[FitResult]:
    """``fit`` at each entropic weight of ``lambdas``, sharing the first sweep.

    Every sweep takes the metric step in one place: it lifts a plan's
    scatter by ridge * I and solves for the metric. The ridge is frozen
    for the whole fit from the scatter of the independence coupling
    p q^T, which is also the first sweep's. So the target D, the ridge,
    the first metric, its regularizer and its cost matrix do not depend
    on lambda. They are computed once, here, before this returns;
    ``grid_fits`` runs the rest per lambda, and no warm start crosses
    lambda, so each result is bitwise ``fit``'s there.

    All of it runs on the r x r span coordinates of ``sp``. On the
    complement of the span the scatter is the ridge and D is D_c times the
    identity (1, rho or 1 / rho for the three targets), so the metric
    there is alpha = (D_c / ridge)^(1/2) and adds the constant
    (d - r)(ridge alpha + D_c / alpha) = 2 (d - r)(ridge D_c)^(1/2) to the
    regularizer, which the recorded objective keeps.
    """
    p = sk.validate_histogram(p, "p")
    q = sk.validate_histogram(q, "q")
    if (p.size, q.size) != (sp.x.shape[1], sp.z.shape[1]):
        raise ValueError(
            f"histogram sizes ({p.size}, {q.size}) do not match cloud sizes "
            f"({sp.x.shape[1]}, {sp.z.shape[1]})"
        )
    dim, rank = sp.points.shape[0], sp.x.shape[0]
    d_mat, d_rest = baseline_factors(_D_BASELINES[cfg.d_choice], sp)
    raw = _scatter(sp.x, sp.z, np.outer(p, q))
    ridge = _ridge(raw, dim)
    rest = 2.0 * (dim - rank) * float(np.sqrt(ridge * d_rest))

    def step(cg):
        # Metric for a scatter cg lifted in place by the frozen ridge, its
        # regularizer and its cost; trace(A^{-1} D) = trace(A cg) =
        # sum(A * cg), since A cg A = D and both are symmetric.
        cg.flat[:: rank + 1] += ridge
        metric = update_metric(cg, d_mat)
        reg = ridge * float(np.trace(metric)) + float(np.sum(metric * cg)) + rest
        return metric, reg, cost_matrix(sp.x, sp.z, metric)

    return grid_fits(
        step(raw),
        lambda plan: step(_scatter(sp.x, sp.z, plan)),
        p,
        q,
        cfg,
        lambdas,
        sp.points,
        float(np.sqrt(d_rest / ridge)),
    )


def grid_fits(
    first, refit, p, q, cfg: GmlConfig, lambdas, points, complement
) -> Iterator[FitResult]:
    """Run the alternating sweeps at each lambda; yield one ``FitResult`` each.

    ``first`` is the lambda-independent ``(reduced metric, regularizer,
    cost)`` of the first sweep and is shared by every fit; each later
    sweep takes its triple from ``refit(plan)`` for the plan before it, up
    to ``cfg.outer_iters`` sweeps. ``refit=None`` is a fixed metric: one
    sweep per lambda. ``points`` and ``complement`` complete every reduced
    metric to its ``FitResult``. Each sweep solves the OT problem at
    ``lam`` (``cfg.sinkhorn.lam`` is replaced), from the column potential
    of the sweep before (the first sweep of each lambda starts cold), and
    records the objective of ``FitResult``, one-sweep fits included, from
    the solve's potentials: for P = exp((f + g - cost) / lam),
    <P, cost> + lam sum P ln P = <r, f> + <c, g> with r and c the row and
    column sums of P. Fits run lazily, in the order of
    ``lambdas``; results may share the first metric and are not to be
    modified in place.
    """
    sweeps = 1 if refit is None else cfg.outer_iters
    for lam in lambdas:
        scfg = replace(cfg.sinkhorn, lam=lam)
        metric, reg, cost = first
        history: list[float] = []
        converged = False
        all_sinkhorn_ok = True
        warm = None
        for sweep in range(sweeps):
            if sweep:
                metric, reg, cost = refit(plan)
            transport = sk.solve(cost, p, q, scfg, warm)
            plan, warm = transport.matrix, transport.g
            all_sinkhorn_ok = all_sinkhorn_ok and transport.converged
            history.append(reg + float(plan.sum(axis=1) @ transport.f + plan.sum(axis=0) @ warm))
            if len(history) >= 2 and cfg.objective_rtol > 0:
                decrease = history[-2] - history[-1]
                if decrease <= cfg.objective_rtol * max(1.0, abs(history[-2])):
                    converged = True
                    break
        yield FitResult(
            plan=plan,
            points=points,
            reduced_metric=metric,
            complement=complement,
            objective_history=history,
            converged=converged,
            sinkhorn_converged=all_sinkhorn_ok,
        )
