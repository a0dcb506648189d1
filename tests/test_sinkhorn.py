import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.special import logsumexp

from ot_oracle import MAX_ORACLE_CELLS, exact_ot_oracle, kernel_scaling_plan
from otml import sinkhorn as sk


def uniform(n):
    return np.full(n, 1.0 / n)


def test_config_validation():
    with pytest.raises(ValueError):
        sk.SinkhornConfig(lam=0.0)
    with pytest.raises(ValueError):
        sk.SinkhornConfig(lam=1.0, tol=0.0)
    with pytest.raises(ValueError):
        sk.SinkhornConfig(lam=1.0, max_iter=0)
    for bad in ({"lam": np.nan}, {"lam": 1.0, "tol": np.nan},
                {"lam": 1.0, "max_iter": np.nan}):
        with pytest.raises(ValueError):
            sk.SinkhornConfig(**bad)


def test_histogram_validation():
    with pytest.raises(ValueError):
        sk.validate_histogram(np.array([0.5, -0.5, 1.0]))
    with pytest.raises(ValueError):
        sk.validate_histogram(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        sk.validate_histogram(np.array([]))


def test_input_shape_mismatch():
    with pytest.raises(ValueError):
        sk.solve(np.zeros((2, 3)), uniform(3), uniform(3), sk.SinkhornConfig(lam=1.0))


def test_marginals_match_histograms():
    rng = np.random.default_rng(0)
    cost = rng.random((6, 4))
    p = rng.random(6)
    p /= p.sum()
    q = rng.random(4)
    q /= q.sum()
    tp = sk.solve(cost, p, q, sk.SinkhornConfig(lam=0.5))
    assert tp.converged
    row_err, col_err = sk.marginal_error(tp.matrix, p, q)
    assert row_err < 1e-9 and col_err < 1e-9
    assert np.all(tp.matrix >= 0)


def test_large_lambda_gives_product_coupling():
    rng = np.random.default_rng(1)
    cost = rng.random((4, 5))
    p = uniform(4)
    q = uniform(5)
    tp = sk.solve(cost, p, q, sk.SinkhornConfig(lam=1e6))
    np.testing.assert_allclose(tp.matrix, np.outer(p, q), atol=1e-6)


def test_small_lambda_approaches_exact_optimum():
    rng = np.random.default_rng(2)
    cost = rng.random((3, 3))
    p = uniform(3)
    q = uniform(3)
    tp = sk.solve(cost, p, q, sk.SinkhornConfig(lam=0.01))
    opt = exact_ot_oracle(cost, p, q)
    gap = sk.transport_cost(tp.matrix, cost) - sk.transport_cost(opt, cost)
    assert 0 <= gap < 0.02 * (cost.max() - cost.min())


def test_entropic_objective_beats_feasible_competitor():
    # the returned plan minimizes <g, C> + lam * sum g ln g, so any other
    # feasible plan must score at least as high
    rng = np.random.default_rng(3)
    cost = rng.random((4, 4))
    p = uniform(4)
    q = uniform(4)
    lam = 0.3
    tp = sk.solve(cost, p, q, sk.SinkhornConfig(lam=lam))
    ours = sk.transport_cost(tp.matrix, cost) + lam * sk.entropy(tp.matrix)
    competitor = np.outer(p, q)
    theirs = sk.transport_cost(competitor, cost) + lam * sk.entropy(competitor)
    assert ours <= theirs + 1e-9
    vertex = exact_ot_oracle(cost, p, q)
    theirs2 = sk.transport_cost(vertex, cost) + lam * sk.entropy(vertex)
    assert ours <= theirs2 + 1e-9


def test_log_and_scaling_routes_agree():
    rng = np.random.default_rng(4)
    cost = rng.random((5, 6))
    p = uniform(5)
    q = uniform(6)
    cfg = sk.SinkhornConfig(lam=0.7, tol=1e-12)
    a = sk.solve(cost, p, q, cfg)
    b = kernel_scaling_plan(cost, p, q, cfg.lam, cfg.tol, cfg.max_iter)
    np.testing.assert_allclose(a.matrix, b, atol=1e-10)


def test_zero_mass_rows_excluded():
    rng = np.random.default_rng(5)
    cost = rng.random((4, 4))
    p = np.array([0.5, 0.5, 0.0, 0.0])
    q = np.array([0.25, 0.25, 0.25, 0.25])
    tp = sk.solve(cost, p, q, sk.SinkhornConfig(lam=0.5))
    assert tp.converged
    np.testing.assert_array_equal(tp.matrix[2:], 0.0)
    row_err, col_err = sk.marginal_error(tp.matrix, p, q)
    assert max(row_err, col_err) < 1e-9


def test_stiff_instance_reaches_tight_tolerance():
    # small lam relative to the cost spread: plain sweeps stall here, the
    # terminal polish must close the gap
    rng = np.random.default_rng(6)
    cost = rng.random((3, 3))
    tp = sk.solve(cost, uniform(3), uniform(3),
                  sk.SinkhornConfig(lam=0.02, max_iter=10000))
    assert tp.converged
    assert tp.marginal_error < 1e-9


def random_histogram(rng, size):
    w = rng.random(size) + 0.1
    return w / w.sum()


@pytest.mark.parametrize("solver", [pytest.param(sk.solve, id="log")])
def test_potentials_reproduce_plan(solver):
    rng = np.random.default_rng(10)
    cost = rng.random((5, 6))
    p = np.array([0.3, 0.0, 0.2, 0.5, 0.0])
    q = np.array([0.1, 0.2, 0.0, 0.3, 0.25, 0.15])
    lam = 0.4
    tp = solver(cost, p, q, sk.SinkhornConfig(lam=lam))
    assert tp.f.shape == (5,) and tp.g.shape == (6,)
    np.testing.assert_array_equal(tp.f[p == 0], -np.inf)
    np.testing.assert_array_equal(tp.g[q == 0], -np.inf)
    assert np.all(np.isfinite(tp.f[p > 0])) and np.all(np.isfinite(tp.g[q > 0]))
    rebuilt = np.exp((tp.f[:, None] + tp.g[None, :] - cost) / lam)
    np.testing.assert_allclose(rebuilt, tp.matrix, rtol=1e-10, atol=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       m=st.integers(1, 7), n=st.integers(1, 7),
       spread=st.floats(1e-2, 1e5), offset=st.floats(-1e5, 1e5),
       axis=st.sampled_from([0, 1]))
@example(seed=0, m=4, n=5, spread=1e4, offset=-5e4, axis=0)
@example(seed=0, m=4, n=5, spread=1e4, offset=-5e4, axis=1)
def test_logsumexp_matches_scipy(seed, m, n, spread, offset, axis):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n if axis == 1 else m)
    scaled = rng.random((m, n))
    a = offset + spread * ((v[None, :] if axis == 1 else v[:, None]) - scaled)
    expected = logsumexp(a, axis=axis)
    got = sk._logsumexp(a.copy(), axis=axis)
    assert got.shape == expected.shape
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-9)


def test_logsumexp_where_unshifted_exp_underflows():
    # every lane spreads over more than 1e3, far below exp's range
    rng = np.random.default_rng(11)
    a = -2e3 - 1e4 * rng.random((6, 8))
    for axis in (0, 1):
        assert np.all(np.exp(a).sum(axis=axis) == 0.0)
        got = sk._logsumexp(a.copy(), axis=axis)
        np.testing.assert_allclose(got, logsumexp(a, axis=axis), rtol=1e-14)


def test_large_cost_scale_stays_finite():
    # cost entries near 1e3 at lam=0.05: exp(-cost/lam) underflows to 0
    # everywhere. The large part is additive per row and per column, which
    # the potentials absorb, so the plan equals the one for the O(1)
    # residual and the solve must still converge.
    rng = np.random.default_rng(12)
    m, n = 12, 9
    residual = rng.random((m, n))
    cost = 1e3 * (rng.random(m)[:, None] + rng.random(n)[None, :]) + residual
    p = random_histogram(rng, m)
    q = random_histogram(rng, n)
    cfg = sk.SinkhornConfig(lam=0.05)
    assert np.all(np.exp(-cost / cfg.lam) == 0.0)
    tp = sk.solve(cost, p, q, cfg)
    assert np.all(np.isfinite(tp.matrix)) and np.all(tp.matrix >= 0)
    row_err, col_err = sk.marginal_error(tp.matrix, p, q)
    assert tp.converged and max(row_err, col_err) < cfg.tol
    ref = sk.solve(residual, p, q, cfg)
    np.testing.assert_allclose(tp.matrix, ref.matrix, atol=1e-8)


@pytest.mark.parametrize("m, n, lam, max_iter, converges", [
    pytest.param(30, 25, 0.5, 10000, True, id="converges"),
    pytest.param(30, 25, 0.05, 3, False, id="capped"),
    # m + n > 600, where the polish once switched off: sweeps converge
    # alone at lam=0.1, and at lam=0.005 they stall at max_iter with an
    # error near 7e-5 unless the Newton polish finishes the solve
    pytest.param(320, 300, 0.1, 2000, True, id="past-polish-gate"),
    pytest.param(320, 300, 0.005, 2000, True, id="past-polish-gate-stiff"),
])
def test_reported_error_is_the_plans(m, n, lam, max_iter, converges):
    # the sweep stops on an error read off the log-sum-exp pass; what is
    # reported must still be the L1 error of the returned matrix
    rng = np.random.default_rng(13)
    x = rng.standard_normal((m, 4))
    z = rng.standard_normal((n, 4)) + 0.5
    cost = ((x[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1)
    cost /= np.median(cost)
    p = random_histogram(rng, m)
    q = random_histogram(rng, n)
    cfg = sk.SinkhornConfig(lam=lam, max_iter=max_iter, tol=1e-7)
    tp = sk.solve(cost, p, q, cfg)
    assert tp.marginal_error == max(sk.marginal_error(tp.matrix, p, q))
    assert tp.converged == (tp.marginal_error < cfg.tol)
    assert tp.converged == converges
    if not converges:
        assert tp.iterations == max_iter


def test_first_polish_reaches_rounding_level_tolerance():
    # At tol=1e-12 the Newton steps must still make progress where the
    # dual's gain per step is far below the rounding of the dual itself,
    # and must not step along the system's numerically null directions;
    # then the first polish, at sweep _POLISH_FIRST, finishes the solve.
    rng = np.random.default_rng(13)
    m, n = 60, 50
    x = rng.standard_normal((m, 4))
    z = rng.standard_normal((n, 4)) + 0.5
    cost = ((x[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1)
    cost /= np.median(cost)
    p = random_histogram(rng, m)
    q = random_histogram(rng, n)
    capped = sk.SinkhornConfig(lam=0.01, tol=1e-12, max_iter=sk._POLISH_FIRST - 1)
    assert not sk.solve(cost, p, q, capped).converged
    tp = sk.solve(cost, p, q, sk.SinkhornConfig(lam=0.01, tol=1e-12, max_iter=2000))
    assert tp.converged
    assert tp.iterations == sk._POLISH_FIRST


def test_polish_on_split_support_matches_blocks_solved_apart():
    # Cross-block costs of 1e3 at lam=0.01 underflow exp to exactly 0, so
    # the plan's support splits into two blocks, and the Newton system
    # has a second null direction (a shift of one block's potentials
    # against the other's). With block masses matched on both sides the
    # plan is each block's own entropic plan, scaled by the block mass.
    rng = np.random.default_rng(14)
    sizes = [(40, 35), (30, 45)]
    masses = [0.4, 0.6]
    m = sum(a for a, _ in sizes)
    n = sum(b for _, b in sizes)
    cost = np.full((m, n), 1e3)
    p = np.empty(m)
    q = np.empty(n)
    blocks = []
    r0 = c0 = 0
    for (a, b), mass in zip(sizes, masses):
        rows, cols = slice(r0, r0 + a), slice(c0, c0 + b)
        cost[rows, cols] = rng.random((a, b))
        pa = random_histogram(rng, a)
        qb = random_histogram(rng, b)
        p[rows] = mass * pa
        q[cols] = mass * qb
        blocks.append((rows, cols, pa, qb, mass))
        r0, c0 = r0 + a, c0 + b
    p /= p.sum()
    q /= q.sum()
    cfg = sk.SinkhornConfig(lam=0.01, tol=1e-11, max_iter=5000)
    # sweeps alone do not get there before the first polish checkpoint
    capped = sk.SinkhornConfig(lam=cfg.lam, tol=cfg.tol, max_iter=sk._POLISH_FIRST - 1)
    assert not sk.solve(cost, p, q, capped).converged
    tp = sk.solve(cost, p, q, cfg)
    assert tp.converged
    (rows1, cols1, *_), (rows2, cols2, *_) = blocks
    assert np.all(tp.matrix[rows1, cols2] == 0) and np.all(tp.matrix[rows2, cols1] == 0)
    for rows, cols, pa, qb, mass in blocks:
        ref = sk.solve(cost[rows, cols], pa, qb, cfg)
        assert ref.converged
        np.testing.assert_allclose(tp.matrix[rows, cols], mass * ref.matrix, rtol=0, atol=1e-9)


def test_entropy_of_product_coupling():
    p = uniform(2)
    q = uniform(2)
    plan = np.outer(p, q)
    assert sk.entropy(plan) == pytest.approx(-np.log(4), rel=1e-12)
    assert sk.entropy(np.array([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(
        -np.log(2), rel=1e-12
    )


def test_transport_cost_is_frobenius_inner():
    rng = np.random.default_rng(7)
    plan = rng.random((3, 4))
    cost = rng.random((3, 4))
    assert sk.transport_cost(plan, cost) == pytest.approx(
        float((plan * cost).sum()), rel=1e-14
    )


# ---------------------------------------------------------------------------
# enumeration oracle


def brute_force_permutation(cost):
    n = cost.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        val = sum(cost[i, perm[i]] for i in range(n)) / n
        if best is None or val < best:
            best = val
    return best


def linprog_value(cost, p, q):
    m, n = cost.shape
    a_eq = []
    for i in range(m):
        row = np.zeros((m, n))
        row[i] = 1
        a_eq.append(row.ravel())
    for j in range(n):
        col = np.zeros((m, n))
        col[:, j] = 1
        a_eq.append(col.ravel())
    res = linprog(
        cost.ravel(), A_eq=np.array(a_eq), b_eq=np.concatenate([p, q]),
        method="highs",
    )
    assert res.status == 0
    return res.fun


def test_oracle_matches_brute_force_permutations():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 5):
        cost = rng.random((n, n))
        plan = exact_ot_oracle(cost, uniform(n), uniform(n))
        assert sk.transport_cost(plan, cost) == pytest.approx(
            brute_force_permutation(cost), abs=1e-12
        )


def test_oracle_feasible_and_optimal_general_marginals():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        if m * n > MAX_ORACLE_CELLS:
            continue
        cost = rng.random((m, n))
        p = rng.random(m)
        p /= p.sum()
        q = rng.random(n)
        q /= q.sum()
        plan = exact_ot_oracle(cost, p, q)
        assert np.all(plan >= 0)
        row_err, col_err = sk.marginal_error(plan, p, q)
        assert max(row_err, col_err) < 1e-9
        assert sk.transport_cost(plan, cost) == pytest.approx(
            linprog_value(cost, p, q), abs=1e-9
        )


def test_oracle_rejects_oversized_instances():
    with pytest.raises(ValueError):
        exact_ot_oracle(np.zeros((8, 8)), uniform(8), uniform(8))
    with pytest.raises(ValueError):
        # non-uniform 5x5 has 25 cells, over the vertex-enumeration cap
        p = np.array([0.3, 0.2, 0.2, 0.2, 0.1])
        exact_ot_oracle(np.zeros((5, 5)), p, uniform(5))


def test_oracle_identity_cost_structure():
    # zero diagonal, expensive off-diagonal: identity coupling is optimal
    cost = 1.0 - np.eye(4)
    plan = exact_ot_oracle(cost, uniform(4), uniform(4))
    np.testing.assert_allclose(plan, np.eye(4) / 4, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       m=st.integers(2, 6), n=st.integers(2, 6),
       lam=st.floats(0.05, 5.0))
def test_solver_feasibility_property(seed, m, n, lam):
    rng = np.random.default_rng(seed)
    cost = rng.random((m, n)) * 3
    p = rng.random(m) + 0.05
    p /= p.sum()
    q = rng.random(n) + 0.05
    q /= q.sum()
    tp = sk.solve(cost, p, q, sk.SinkhornConfig(lam=lam, tol=1e-10))
    assert np.all(tp.matrix >= 0)
    assert np.all(np.isfinite(tp.matrix))
    row_err, col_err = sk.marginal_error(tp.matrix, p, q)
    assert max(row_err, col_err) < 1e-8


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_solver_deterministic(seed):
    rng = np.random.default_rng(seed)
    cost = rng.random((4, 4))
    p = uniform(4)
    q = uniform(4)
    cfg = sk.SinkhornConfig(lam=0.3)
    a = sk.solve(cost, p, q, cfg)
    b = sk.solve(cost, p, q, cfg)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert a.iterations == b.iterations
