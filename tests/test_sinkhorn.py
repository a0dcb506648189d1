import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.special import logsumexp, xlogy

from ot_oracle import (
    MAX_ORACLE_CELLS,
    eigh_newton_polish,
    entropy,
    exact_ot_oracle,
    kernel_scaling_plan,
    log_domain_solve,
    transport_cost,
)
from otml import gml
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
                {"lam": np.inf}, {"lam": 1.0, "tol": np.inf},
                {"lam": 1.0, "max_iter": np.nan}, {"lam": 1.0, "max_iter": 2.5}):
        with pytest.raises(ValueError):
            sk.SinkhornConfig(**bad)
    # A bool is not a weight or a tolerance, and a string is refused as a
    # ValueError naming the field, not a TypeError from the comparison.
    for name in ("lam", "tol"):
        for bad in (True, np.True_, "0.5", None):
            with pytest.raises(ValueError, match=f"^{name} must be positive"):
                sk.SinkhornConfig(**{"lam": 1.0, name: bad})
        for good in (np.float64(0.5), np.float32(0.5), np.int64(2), 2):
            assert getattr(sk.SinkhornConfig(**{"lam": 1.0, name: good}), name) == good


def test_histogram_validation():
    with pytest.raises(ValueError):
        sk.validate_histogram(np.array([0.5, -0.5, 1.0]))
    with pytest.raises(ValueError):
        sk.validate_histogram(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        sk.validate_histogram(np.array([]))
    # NaN fails both the sign and the sum comparisons.
    with pytest.raises(ValueError, match="non-finite"):
        sk.validate_histogram(np.array([np.nan, 0.5, 0.5]))
    # a point without mass is dropped by the caller, not solved
    with pytest.raises(ValueError, match="^q has an entry <= 0"):
        sk.validate_histogram(np.array([0.5, 0.0, 0.5]), "q")


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
    gap = transport_cost(tp.matrix, cost) - transport_cost(opt, cost)
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
    ours = transport_cost(tp.matrix, cost) + lam * entropy(tp.matrix)
    competitor = np.outer(p, q)
    theirs = transport_cost(competitor, cost) + lam * entropy(competitor)
    assert ours <= theirs + 1e-9
    vertex = exact_ot_oracle(cost, p, q)
    theirs2 = transport_cost(vertex, cost) + lam * entropy(vertex)
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


@pytest.mark.parametrize("m, n, lam", [(30, 25, 0.5), (25, 50, 0.005)],
                         ids=["sweeps", "polish-on-the-short-side"])
def test_positive_masses_solve_as_the_zero_padded_problem(m, n, lam):
    # A zero-mass point is refused, so a caller drops it first: padded with
    # a zero-mass row and column the problem raises, and without them it is
    # solved as given. The plan is C-ordered, also when the Newton polish
    # runs on the short side (m < n), which transposes it, and when the
    # cost is not; its reported error is summed over the matrix returned.
    cost, p, q = cloud_problem(m, n, "euclidean")
    cfg = sk.SinkhornConfig(lam=lam)
    with pytest.raises(ValueError, match="p has an entry <= 0"):
        sk.solve(np.pad(cost, ((0, 1), (0, 1))), np.append(p, 0.0), np.append(q, 0.0), cfg)
    plain = sk.solve(cost, p, q, cfg)
    fortran = sk.solve(np.asfortranarray(cost), p, q, cfg)
    for tp in (plain, fortran):
        assert tp.matrix.flags.c_contiguous
        assert tp.marginal_error == max(sk.marginal_error(tp.matrix, p, q))
    np.testing.assert_array_equal(plain.matrix, fortran.matrix)
    assert plain.iterations == fortran.iterations == (17 if lam == 0.5 else 200)


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
    p = random_histogram(rng, 5)
    q = random_histogram(rng, 6)
    lam = 0.4
    tp = solver(cost, p, q, sk.SinkhornConfig(lam=lam))
    assert tp.f.shape == (5,) and tp.g.shape == (6,)
    assert np.all(np.isfinite(tp.f)) and np.all(np.isfinite(tp.g))
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
    # the sweep stops on a row error read off the K v product that the next
    # sweep needs anyway; what is reported must still be the L1 error of the
    # returned matrix
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


GRID = (0.05, 0.2, 0.5, 1.0, 2.0)


def cloud_problem(m, n, metric, tiny_mass=None, tilt=0.0):
    """Costs between two Gaussian clouds, as a fit builds them.

    ``euclidean`` costs are median-normalized. ``learned`` costs use a
    random SPD Mahalanobis metric and median 6, the median of the first
    learned cost of a d=64 fit; ``tilt`` adds tilt * I to that metric, for
    a neighbouring cost on the same clouds and histograms. ``tiny_mass``
    replaces p[0].
    """
    rng = np.random.default_rng(13)
    x = rng.standard_normal((m, 4))
    z = rng.standard_normal((n, 4)) + 0.5
    diff = x[:, None, :] - z[None, :, :]
    if metric == "euclidean":
        cost = (diff ** 2).sum(axis=-1)
        cost /= np.median(cost)
    else:
        b = rng.standard_normal((4, 4))
        cost = np.einsum("ijk,kl,ijl->ij", diff, b @ b.T + (0.1 + tilt) * np.eye(4), diff)
        cost *= 6.0 / np.median(cost)
    p = random_histogram(rng, m)
    q = random_histogram(rng, n)
    if tiny_mass is not None:
        p[0] = 0.0
        p *= (1.0 - tiny_mass) / p.sum()
        p[0] = tiny_mass
    return cost, p, q


def neighbour_g(m, n, lam):
    # the column potential of the learned-style cost under a metric nudged
    # by 0.05 I, as the sweep before would hand it on
    cost, p, q = cloud_problem(m, n, "learned", tilt=0.05)
    return sk.solve(cost, p, q, sk.SinkhornConfig(lam=lam, tol=1e-7, max_iter=2000)).g


PARITY_CASES = [
    pytest.param(*cloud_problem(m, n, metric), lam, None, id=f"{metric}-{m}x{n}-lam{lam}")
    for metric in ("euclidean", "learned")
    for m, n in ((40, 40), (50, 30))
    for lam in GRID
] + [
    # masses below the smallest normal double: the kernel products of their
    # row underflow, so those sweeps fall back to the log domain (at 1e-310
    # from sweep 22 on at lam=0.05; at 5e-324 the scaling sweep divides by 0)
    pytest.param(*cloud_problem(30, 25, "euclidean", tiny_mass=mass), lam, None,
                 id=f"subnormal-mass-{mass}-lam{lam}")
    for mass in (1e-310, 5e-324)
    for lam in GRID
] + [
    # past-polish-gate-stiff of test_reported_error_is_the_plans
    pytest.param(*cloud_problem(320, 300, "euclidean"), 0.005, None,
                 id="stiff-320x300-lam0.005"),
] + [
    pytest.param(*cloud_problem(m, n, "learned"), lam, neighbour_g(m, n, lam),
                 id=f"warm-learned-{m}x{n}-lam{lam}")
    for m, n in ((40, 40), (50, 30))
    for lam in GRID
]


@pytest.mark.parametrize("cost, p, q, lam, g0", PARITY_CASES)
def test_scaling_sweeps_match_the_log_domain_oracle(cost, p, q, lam, g0):
    cfg = sk.SinkhornConfig(lam=lam, tol=1e-7, max_iter=2000)
    tp = sk.solve(cost, p, q, cfg, g0)
    plan, _, _, iters = log_domain_solve(cost, p, q, cfg, g0)
    assert tp.iterations == iters
    assert tp.converged == (max(sk.marginal_error(plan, p, q)) < cfg.tol)
    np.testing.assert_allclose(tp.matrix, plan, rtol=0, atol=1e-15)


def high_column_problem(lam):
    # the last column's costs sit 470 lam above every row's minimum, so its
    # mass kappa in the first sweep's E = exp(-cost/lam - t) is below
    # exp(-470) < 1e-200
    cost, p, q = cloud_problem(40, 40, "euclidean")
    cost[:, -1] = cost.max() + 470 * lam
    return cost, p, q


FIRST_SWEEP_CASES = [
    pytest.param(*cloud_problem(40, 40, "euclidean"), lam, False, id=f"one-exp-lam{lam}")
    for lam in GRID
] + [
    pytest.param(*high_column_problem(lam), lam, True, id=f"high-column-lam{lam}")
    for lam in GRID
] + [
    # a = p / (E 1) rounds to 0 once the row's mass E 1 exceeds 1.5
    pytest.param(*cloud_problem(30, 25, "euclidean", tiny_mass=5e-324), lam, lam >= 1.0,
                 id=f"subnormal-mass-5e-324-lam{lam}")
    for lam in (0.05, 1.0, 2.0)
]


@pytest.mark.parametrize("cost, p, q, lam, falls_back", FIRST_SWEEP_CASES)
def test_first_sweep_takes_one_exp_unless_a_mass_is_out_of_reach(
    monkeypatch, cost, p, q, lam, falls_back
):
    # the one-exp sweep calls no _logsumexp; its fallback calls it along
    # the rows, then the columns
    calls = []
    lse = sk._logsumexp
    monkeypatch.setattr(sk, "_logsumexp", lambda a, axis: calls.append(axis) or lse(a, axis))
    sk.solve(cost, p, q, sk.SinkhornConfig(lam=lam, max_iter=1))
    monkeypatch.undo()
    assert calls == ([1, 0] if falls_back else [])
    cfg = sk.SinkhornConfig(lam=lam, tol=1e-7, max_iter=2000)
    tp = sk.solve(cost, p, q, cfg)
    plan, _, _, iters = log_domain_solve(cost, p, q, cfg)
    assert tp.iterations == iters
    assert tp.converged == (max(sk.marginal_error(plan, p, q)) < cfg.tol)
    np.testing.assert_allclose(tp.matrix, plan, rtol=0, atol=1e-15)


@pytest.mark.parametrize("case", ["nan", "minus-inf", "forbidden-row"])
def test_bad_costs_raise_unless_their_mass_is_zero(case):
    # Every row and column has mass, so every cost is read: row 2 holds a
    # NaN or a -inf cost in column 3, or for "forbidden-row" only +inf
    # costs, which leave it no feasible plan.
    cost, p, q = cloud_problem(6, 5, "euclidean")
    cost[2, 3] = -np.inf if case == "minus-inf" else np.nan
    if case == "forbidden-row":
        cost[2] = np.inf
    with pytest.raises(ValueError, match="NaN or -inf entry, or a row with no finite entry"):
        sk.solve(cost, p, q, sk.SinkhornConfig(lam=0.5))


@pytest.mark.parametrize("q", [uniform(3)], ids=["with-mass"])
def test_a_column_of_forbidden_pairs_raises_unless_its_mass_is_zero(q):
    # A column with only +inf costs has no feasible plan. Its mass in the
    # first exp is zero, so the column log-sum-exp fallback runs, and must
    # name the column, not warn about a -inf shift.
    cost = np.random.default_rng(28).random((4, 3))
    cost[:, 1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="column with no finite entry"):
            sk.solve(cost, uniform(4), q, sk.SinkhornConfig(lam=0.5))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_start_potential_must_be_finite_where_q_has_mass(value):
    # q has mass on every column, so g0 must be finite on every column.
    cost, p, q = cloud_problem(6, 5, "euclidean")
    cfg = sk.SinkhornConfig(lam=0.5)
    g0 = sk.solve(cost, p, q, cfg).g
    assert sk.solve(cost, p, q, cfg, g0).converged
    g0[3] = value
    with pytest.raises(ValueError, match="not finite"):
        sk.solve(cost, p, q, cfg, g0)


@pytest.mark.parametrize("lam", GRID)
def test_forbidden_pairs_get_no_mass(lam):
    # +inf costs forbid their pairs; every row and column keeps others
    cost, p, q = cloud_problem(30, 25, "euclidean")
    forbidden = np.random.default_rng(5).random(cost.shape) < 0.2
    cost[forbidden] = np.inf
    cfg = sk.SinkhornConfig(lam=lam, tol=1e-7, max_iter=2000)
    tp = sk.solve(cost, p, q, cfg)
    assert tp.converged
    np.testing.assert_array_equal(tp.matrix[forbidden], 0.0)
    plan, _, _, iters = log_domain_solve(cost, p, q, cfg)
    assert tp.iterations == iters
    np.testing.assert_allclose(tp.matrix, plan, rtol=0, atol=1e-15)


def test_start_potential_must_match_q():
    cost, p, q = cloud_problem(5, 4, "euclidean")
    cfg = sk.SinkhornConfig(lam=0.5)
    with pytest.raises(ValueError, match=r"\(5,\).*\(4,\)"):
        sk.solve(cost, p, q, cfg, np.zeros(5))
    with pytest.raises(ValueError, match=r"\(3,\).*\(4,\)"):
        sk.solve(cost, p, q, cfg, np.zeros(3))


@pytest.mark.parametrize("lam", GRID)
@pytest.mark.parametrize("metric", ["euclidean", "learned"])
def test_solve_from_its_own_potential_stops_at_once(metric, lam):
    # At tol 1e-13 one sweep from the converged g moves the plan by about
    # 1e-13 of its maximum.
    cost, p, q = cloud_problem(40, 40, metric)
    cfg = sk.SinkhornConfig(lam=lam, tol=1e-13)
    cold = sk.solve(cost, p, q, cfg)
    warm = sk.solve(cost, p, q, cfg, cold.g)
    assert cold.converged and warm.converged and warm.iterations <= 2
    assert np.abs(warm.matrix - cold.matrix).max() <= 1e-12 * cold.matrix.max()


def successive_learned_costs(monkeypatch, m, n, lam):
    """Sweep 2's cost of a learned fit, with p, q, its settings and sweep 1's solve.

    The clouds are a 16-d four-class mixture with log-uniform coordinate
    scales, divided by the root median Euclidean cost as ``fit_plan``
    divides them.
    """
    rng = np.random.default_rng(3)
    dim = 16
    scales = np.exp(rng.uniform(np.log(0.1), np.log(10.0), dim))[:, None]
    means = 2.0 * rng.standard_normal((dim, 4))
    x = means[:, np.arange(m) % 4] + scales * rng.standard_normal((dim, m))
    z = means[:, np.arange(n) % 4] + scales * rng.standard_normal((dim, n)) + 0.5
    scale = np.sqrt(np.median(gml.cost_matrix(x, z)))
    p, q = uniform(m), uniform(n)
    cfg = gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(lam=lam, tol=1e-7, max_iter=2000),
        outer_iters=2, objective_rtol=0.0,
    )
    solves = []
    original = gml.sk.solve

    def spy(cost, p, q, cfg, g0=None):
        solves.append((cost, original(cost, p, q, cfg, g0)))
        return solves[-1][1]

    monkeypatch.setattr(gml.sk, "solve", spy)
    gml.fit(x / scale, z / scale, p, q, cfg)
    (_, first), (cost, _) = solves
    return cost, p, q, cfg.sinkhorn, first


@pytest.mark.parametrize("m, n, lam", [
    (150, 150, 0.05), (150, 150, 0.2),
    # m < n: the polish runs on the transposed problem
    (120, 150, 0.05),
])
def test_warm_start_from_the_sweep_before_saves_sweeps(monkeypatch, m, n, lam):
    cost, p, q, cfg, first = successive_learned_costs(monkeypatch, m, n, lam)
    cold = sk.solve(cost, p, q, cfg)
    warm = sk.solve(cost, p, q, cfg, first.g)
    assert cold.converged and warm.converged
    assert warm.iterations < cold.iterations
    assert np.abs(warm.matrix - cold.matrix).sum() <= 10 * cfg.tol


def scale_1e3_problem(m, n, seed):
    rng = np.random.default_rng(seed)
    return 1e3 * rng.random((m, n)), random_histogram(rng, m), random_histogram(rng, n)


@pytest.mark.parametrize("m, n, seed", [(5, 4, 0), (20, 15, 2), (40, 30, 3)])
def test_scale_1e3_instances_converge(m, n, seed):
    # osc(cost)/lam = 2e4: sweeps alone stall, and the polish finishes the
    # solve on both routes at the same checkpoint
    cost, p, q = scale_1e3_problem(m, n, seed)
    cfg = sk.SinkhornConfig(lam=0.05, max_iter=10000)
    tp = sk.solve(cost, p, q, cfg)
    plan, _, _, iters = log_domain_solve(cost, p, q, cfg)
    assert tp.converged and max(sk.marginal_error(plan, p, q)) < cfg.tol
    assert tp.iterations == iters
    np.testing.assert_allclose(tp.matrix, plan, rtol=0, atol=1e-9)


@pytest.mark.parametrize("m, n, seed", [(15, 12, 5), (40, 30, 1)])
def test_scale_1e3_stalls_stay_truthfully_unconverged(m, n, seed):
    # instances where even the polish does not close the gap by max_iter;
    # errors are not compared between routes, as rounding steers them apart
    cost, p, q = scale_1e3_problem(m, n, seed)
    cfg = sk.SinkhornConfig(lam=0.05, max_iter=10000)
    tp = sk.solve(cost, p, q, cfg)
    assert not tp.converged and tp.iterations == cfg.max_iter
    assert tp.marginal_error == max(sk.marginal_error(tp.matrix, p, q))
    assert np.all(np.isfinite(tp.matrix)) and np.all(tp.matrix >= 0)


@pytest.mark.parametrize("metric, m, n, lam", [
    (metric, m, n, lam)
    for metric in ("euclidean", "learned")
    for m, n in ((40, 40), (50, 30), (320, 300))
    for lam in (0.05, 0.2)
    # the other cases converge before the first polish
    if metric == "learned" or (m + n < 600 and lam == 0.05)
])
def test_damped_polish_matches_the_eigh_oracle(metric, m, n, lam):
    # on these well-conditioned plans the damped solve is the minimum-norm
    # step of the eigendecomposition it replaced, up to rounding
    cost, p, q = cloud_problem(m, n, metric)
    capped = sk.SinkhornConfig(lam=lam, max_iter=sk._POLISH_FIRST - 1)
    tp = sk.solve(cost, p, q, capped)
    assert not tp.converged
    args = (cost / lam, p, q, tp.f, tp.g, lam, capped.tol)
    damped, ref = sk._newton_polish(*args), eigh_newton_polish(*args)
    np.testing.assert_allclose(damped[2], ref[2], rtol=0, atol=1e-12 * ref[2].max())


def test_absorption_keeps_potentials_and_plan_in_step():
    # Between the polish at sweep _POLISH_FIRST and sweep 999 the oracle's
    # f_i + g_j rise by more than 745 lam in some cells: exp underflows
    # those cells to 0 in a kernel built at the polish, yet by sweep 999 they
    # carry mass. Absorbing the scalings whenever they leave
    # [_SCALING_MIN, _SCALING_MAX] rebuilds the kernel in time; without it
    # the returned potentials describe a plan ~1e26 off the returned one.
    cost, p, q = scale_1e3_problem(40, 30, 3)
    lam = 0.05
    runs = {it: log_domain_solve(cost, p, q, sk.SinkhornConfig(lam=lam, max_iter=it))
            for it in (1, 199, sk._POLISH_FIRST + 1, 999)}

    def drift(a, b):
        return (runs[b][1] - runs[a][1])[:, None] + (runs[b][2] - runs[a][2])[None, :]

    # before the first polish the scalings must have been absorbed...
    assert np.abs(drift(1, 199)).max() > 2 * lam * np.log(sk._SCALING_MAX)
    assert drift(sk._POLISH_FIRST + 1, 999).max() > 745 * lam
    # ...and the sweeps are still the oracle's, to the rounding of a
    # cost/lam of 2e4
    tp = sk.solve(cost, p, q, sk.SinkhornConfig(lam=lam, max_iter=199))
    np.testing.assert_allclose(tp.matrix, runs[199][0], rtol=0, atol=1e-13)
    tp = sk.solve(cost, p, q, sk.SinkhornConfig(lam=lam, max_iter=999))
    assert not tp.converged
    rebuilt = np.exp((tp.f[:, None] + tp.g[None, :] - cost) / lam)
    np.testing.assert_allclose(rebuilt, tp.matrix, rtol=0, atol=1e-12)


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
    assert entropy(plan) == pytest.approx(-np.log(4), rel=1e-12)
    assert entropy(np.array([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(
        -np.log(2), rel=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
def test_entropy_matches_xlogy_with_zero_entries(seed):
    rng = np.random.default_rng(seed)
    plan = rng.random((30, 40)) ** 4
    plan[rng.random(plan.shape) < 0.3] = 0.0
    plan[0] = 0.0
    plan /= plan.sum()
    assert entropy(plan) == pytest.approx(float(xlogy(plan, plan).sum()), rel=1e-14)


def test_entropy_rejects_negative_entries():
    with pytest.raises(ValueError, match="negative"):
        entropy(np.array([[0.5, -0.1], [0.3, 0.3]]))


def test_transport_cost_is_frobenius_inner():
    rng = np.random.default_rng(7)
    plan = rng.random((3, 4))
    cost = rng.random((3, 4))
    assert transport_cost(plan, cost) == pytest.approx(
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
        assert transport_cost(plan, cost) == pytest.approx(
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
        assert transport_cost(plan, cost) == pytest.approx(
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
