import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otml import gml
from otml import sinkhorn as sk
from otml import spd


def uniform(n):
    return np.full(n, 1.0 / n)


def random_spd(rng, dim, spread=2.0):
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eig = np.logspace(-spread / 2, spread / 2, dim)
    return spd.symmetrize((basis * eig) @ basis.T)


def naive_cost(x, z, metric):
    m = x.shape[1]
    n = z.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            diff = x[:, i] - z[:, j]
            out[i, j] = diff @ metric @ diff
    return out


def naive_scatter(x, z, plan, eps):
    dim = x.shape[0]
    out = np.zeros((dim, dim))
    for i in range(x.shape[1]):
        for j in range(z.shape[1]):
            diff = x[:, i] - z[:, j]
            out += plan[i, j] * np.outer(diff, diff)
    return out + eps * np.eye(dim)


def ridged_gram(x, z, eps=1e-6):
    # The pooled Gram matrix lifted by the relative rule eps * mean(diag).
    raw = x @ x.T + z @ z.T
    return raw + eps * np.trace(raw) / raw.shape[0] * np.eye(raw.shape[0])


def pixel_clouds(dim=200, m=40, n=40, seed=0):
    # Pixel-like coordinates with d > m + n: the raw Gram matrix has rank
    # m + n and eigenvalues up to ~1e8, far above any absolute floor.
    rng = np.random.default_rng(seed)
    return (128 + 4 * rng.normal(size=(dim, m)), 128 + 4 * rng.normal(size=(dim, n)))


def test_cost_matrix_matches_pairwise_loop():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 6))
    z = rng.normal(size=(4, 5))
    metric = random_spd(rng, 4)
    got = gml.cost_matrix(x, z, metric)
    np.testing.assert_allclose(got, naive_cost(x, z, metric), atol=1e-10)


def test_cost_matrix_euclidean_case():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 7))
    z = rng.normal(size=(3, 4))
    got = gml.cost_matrix(x, z, np.eye(3))
    want = ((x.T[:, None, :] - z.T[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_cost_matrix_nonnegative_and_zero_on_shared_points():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 3))
    metric = random_spd(rng, 5)
    cost = gml.cost_matrix(x, x, metric)
    assert np.all(cost >= 0)
    np.testing.assert_allclose(np.diag(cost), 0.0, atol=1e-10)


def test_cost_matrix_shape_errors():
    x = np.zeros((3, 2))
    z = np.zeros((3, 2))
    with pytest.raises(ValueError):
        gml.cost_matrix(x, z, np.eye(4))
    with pytest.raises(ValueError):
        gml.cost_matrix(x, np.zeros((2, 2)), np.eye(3))


def test_compute_cgamma_matches_outer_product_loop():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    z = rng.normal(size=(4, 6))
    plan = rng.random((5, 6))
    plan /= plan.sum()
    eps = 1e-6
    got = gml.compute_cgamma(x, z, plan, eps)
    np.testing.assert_allclose(got, naive_scatter(x, z, plan, eps), atol=1e-10)


def test_compute_cgamma_positive_definite():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 3))
    z = rng.normal(size=(6, 3))
    plan = np.outer(uniform(3), uniform(3))
    cg = gml.compute_cgamma(x, z, plan, 1e-6)
    vals, _ = spd.eigh_spd(cg)
    assert vals.min() > 0


def test_compute_cgamma_plan_shape_error():
    with pytest.raises(ValueError):
        gml.compute_cgamma(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((3, 3)), 1e-6)


def test_update_metric_solves_quadratic_equation():
    rng = np.random.default_rng(5)
    cg = random_spd(rng, 4)
    d = random_spd(rng, 4)
    a = gml.update_metric(cg, d)
    np.testing.assert_allclose(a @ cg @ a, d, atol=1e-10)


def test_update_metric_is_geometric_mean_of_inverse():
    rng = np.random.default_rng(6)
    cg = random_spd(rng, 3)
    d = random_spd(rng, 3)
    a = gml.update_metric(cg, d)
    np.testing.assert_allclose(a, spd.geometric_mean(spd.spd_inv(cg), d), atol=1e-10)


def test_update_metric_minimizes_trace_functional():
    # A* = argmin trace(A C) + trace(A^{-1} D): nearby SPD perturbations
    # must never score lower
    rng = np.random.default_rng(7)
    cg = random_spd(rng, 3)
    d = random_spd(rng, 3)
    a_star = gml.update_metric(cg, d)

    def score(a):
        return spd.trace_inner(a, cg) + spd.trace_inner(spd.spd_inv(a), d)

    base = score(a_star)
    for _ in range(20):
        bump = spd.symmetrize(rng.normal(size=(3, 3))) * 0.01
        assert score(a_star + bump) >= base - 1e-12


def test_objective_matches_manual_formula():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4))
    z = rng.normal(size=(3, 4))
    plan = np.outer(uniform(4), uniform(4))
    metric = random_spd(rng, 3)
    d = random_spd(rng, 3)
    lam = 0.7
    reg = float(np.trace(np.linalg.inv(metric) @ d))
    want = (
        float((plan * naive_cost(x, z, metric)).sum())
        + reg
        + lam * float((plan * np.log(plan)).sum())
    )
    cost = gml.cost_matrix(x, z, metric)
    assert gml.objective(cost, plan, reg, lam) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("d_choice", ["identity", "gram_sum"],
                         ids=["identity-True", "gram_sum-True"])
def test_fit_objective_is_the_explicit_formula(d_choice):
    # The fit never inverts the metric (A C A = D gives tr(A^-1 D) = tr(A C));
    # its recorded objective must still be the formula with A^-1 in it.
    x, z, p, q = make_problem(20, dim=4, m=9, n=7)
    cfg = gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(lam=0.5, tol=1e-10), outer_iters=4,
        d_choice=d_choice, objective_rtol=0.0,
    )
    res = gml.fit(x, z, p, q, cfg)
    a, plan = res.metric, res.plan
    d = np.eye(4) if d_choice == "identity" else ridged_gram(x, z)
    ridge = 1e-6 * np.trace(naive_scatter(x, z, np.outer(p, q), 0.0)) / 4
    want = (
        float((plan * naive_cost(x, z, a)).sum())
        + ridge * np.trace(a)
        + float(np.trace(np.linalg.inv(a) @ d))
        + 0.5 * float((plan * np.log(plan)).sum())
    )
    assert res.objective_history[-1] == pytest.approx(want, rel=1e-10)


def test_fit_never_inverts_the_metric(monkeypatch):
    def no_inverse(mat):
        raise AssertionError("the fit inverted a matrix")

    monkeypatch.setattr(gml, "spd_inv", no_inverse)
    x, z, p, q = make_problem(21)
    cfg = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=0.5), outer_iters=3)
    res = gml.fit(x, z, p, q, cfg)
    assert res.iters_run >= 2
    assert np.all(np.isfinite(res.objective_history))


def test_make_d_choices():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 8))
    z = rng.normal(size=(3, 8))
    np.testing.assert_array_equal(gml.make_d("identity", x, z), np.eye(3))
    gram = gml.make_d("gram_sum", x, z)
    np.testing.assert_allclose(gram, ridged_gram(x, z), rtol=1e-13, atol=1e-13)
    inv = gml.make_d("gram_sum_inverse", x, z)
    np.testing.assert_allclose(inv @ gram, np.eye(3), atol=1e-8)


def test_make_d_explicit_matrix_passthrough():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 4))
    custom = random_spd(rng, 3)
    np.testing.assert_allclose(gml.make_d(custom, x, x), custom, atol=1e-14)
    with pytest.raises(spd.PositivityError):
        gml.make_d(np.diag([1.0, -1.0, 1.0]), x, x)
    with pytest.raises(ValueError):
        gml.make_d("mystery", x, x)


def test_baseline_metric_kinds():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 10))
    z = rng.normal(size=(4, 10))
    np.testing.assert_array_equal(gml.baseline_metric("euclidean", x, z), np.eye(4))
    gram = gml.baseline_metric("gram", x, z)
    np.testing.assert_allclose(gram, ridged_gram(x, z), rtol=1e-13, atol=1e-13)
    eps_gram = gml.baseline_metric("gram", x, z, eps=0.5)
    np.testing.assert_allclose(eps_gram, ridged_gram(x, z, 0.5), rtol=1e-13)
    whiten = gml.baseline_metric("whiten", x, z)
    np.testing.assert_allclose(whiten @ gram, np.eye(4), atol=1e-8)
    with pytest.raises(ValueError):
        gml.baseline_metric("mahalanobis", x, z)


def test_gram_floor_is_relative_at_pixel_scale():
    # An absolute 1e-6 lift vanishes next to eigenvalues ~1e8, and the
    # inverse then fails the positivity check.
    x, z = pixel_clouds()
    whiten = gml.baseline_metric("whiten", x, z)
    for mat in (whiten, gml.make_d("gram_sum_inverse", x, z)):
        np.testing.assert_array_equal(mat, mat.T)
        vals, _ = spd.eigh_spd(mat)
        assert vals.min() > 0
    np.testing.assert_allclose(whiten @ ridged_gram(x, z), np.eye(200), atol=1e-6)


def test_learned_fit_with_gram_target_at_pixel_scale():
    # The learned metric's eigenvalues span many decades here; the fit
    # must not hand it to a positivity-checked inverse.
    x, z = pixel_clouds()
    cfg = gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(lam=1.0, tol=1e-7, max_iter=2000),
        outer_iters=2, d_choice="gram_sum", objective_rtol=0.0,
    )
    res = gml.fit(x, z, uniform(40), uniform(40), cfg)
    hist = res.objective_history
    assert len(hist) == 2 and np.all(np.isfinite(hist)) and hist[1] <= hist[0]


def test_config_validation():
    scfg = sk.SinkhornConfig(lam=1.0)
    with pytest.raises(ValueError):
        gml.GmlConfig(sinkhorn=scfg, outer_iters=0)
    with pytest.raises(ValueError):
        gml.GmlConfig(sinkhorn=scfg, eps=0.0)
    with pytest.raises(ValueError):
        gml.GmlConfig(sinkhorn=scfg, objective_rtol=-1.0)
    with pytest.raises(ValueError):
        gml.GmlConfig(sinkhorn=scfg, d_choice="banana")
    for name in ("outer_iters", "eps", "objective_rtol"):
        with pytest.raises(ValueError):
            gml.GmlConfig(sinkhorn=scfg, **{name: np.nan})
    with pytest.raises(ValueError):
        gml.GmlConfig(sinkhorn=scfg, outer_iters=2.5)


def make_problem(seed, dim=3, m=8, n=8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, m))
    z = rng.normal(size=(dim, n)) + rng.normal(size=(dim, 1))
    return x, z, uniform(m), uniform(n)


def test_fit_objective_non_increasing():
    x, z, p, q = make_problem(12)
    cfg = gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(lam=0.5, tol=1e-10),
        outer_iters=10,
        objective_rtol=0.0,
    )
    res = gml.fit(x, z, p, q, cfg)
    hist = np.array(res.objective_history)
    assert len(hist) == 10
    assert np.all(np.diff(hist) <= 1e-8)
    assert res.sinkhorn_converged


def test_fit_metric_is_spd():
    x, z, p, q = make_problem(13)
    cfg = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=0.5), outer_iters=5)
    res = gml.fit(x, z, p, q, cfg)
    np.testing.assert_allclose(res.metric, res.metric.T, atol=1e-12)
    vals, _ = spd.eigh_spd(res.metric)
    assert vals.min() > 0
    row_err, col_err = sk.marginal_error(res.plan, p, q)
    assert max(row_err, col_err) < 1e-8


def test_fit_early_stop_reports_convergence():
    x, z, p, q = make_problem(14)
    cfg = gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(lam=0.5, tol=1e-10),
        outer_iters=50,
        objective_rtol=1e-6,
    )
    res = gml.fit(x, z, p, q, cfg)
    assert res.converged
    assert res.iters_run < 50
    assert len(res.objective_history) == res.iters_run


def test_fit_improves_on_identity_metric_objective():
    # The fit's ridged functional at A = I: the plain Sinkhorn plan under
    # the Euclidean cost, regularizer ridge * d + trace(D) with D = I.
    # Metric learning should not end up worse here.
    x, z, p, q = make_problem(16)
    dim = x.shape[0]
    scfg = sk.SinkhornConfig(lam=0.5, tol=1e-10)
    cost = gml.cost_matrix(x, z, np.eye(dim))
    plan = sk.solve(cost, p, q, scfg).matrix
    ridge = 1e-6 * np.trace(naive_scatter(x, z, np.outer(p, q), 0.0)) / dim
    identity = gml.objective(cost, plan, ridge * dim + dim, scfg.lam)
    learned = gml.fit(x, z, p, q, gml.GmlConfig(sinkhorn=scfg, outer_iters=15))
    assert learned.objective_history[-1] <= identity + 1e-9


def test_fit_handles_identical_clouds():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 6))
    p = uniform(6)
    cfg = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=0.1), outer_iters=4)
    res = gml.fit(x, x, p, p, cfg)
    assert np.all(np.isfinite(res.plan))
    assert np.all(np.isfinite(res.metric))


def test_fit_deterministic():
    x, z, p, q = make_problem(18)
    cfg = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=0.5), outer_iters=6)
    a = gml.fit(x, z, p, q, cfg)
    b = gml.fit(x, z, p, q, cfg)
    np.testing.assert_array_equal(a.plan, b.plan)
    np.testing.assert_array_equal(a.metric, b.metric)
    assert a.objective_history == b.objective_history


def test_fit_size_mismatch_errors():
    x, z, p, q = make_problem(19)
    cfg = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=0.5))
    with pytest.raises(ValueError):
        gml.fit(x, z, uniform(5), q, cfg)
    with pytest.raises(ValueError):
        gml.fit(x, np.zeros((4, 8)), p, q, cfg)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
def test_scatter_always_positive_definite(seed, dim):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    n = int(rng.integers(2, 6))
    x = rng.normal(size=(dim, m)) * rng.uniform(0.1, 10)
    z = rng.normal(size=(dim, n))
    plan = rng.random((m, n))
    plan /= plan.sum()
    cg = gml.compute_cgamma(x, z, plan, 1e-8)
    assert np.linalg.eigvalsh(cg).min() > 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cost_matrix_nonnegative_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    x = rng.normal(size=(dim, 4))
    z = rng.normal(size=(dim, 3))
    metric = random_spd(rng, dim)
    cost = gml.cost_matrix(x, z, metric)
    assert np.all(cost >= 0)
    assert np.all(np.isfinite(cost))


def test_fit_at_paper_scale_converges_and_is_monotone():
    # m = n = 500, d = 64 at the smallest lambda of the grid: plain sweeps
    # stop at max_iter here, so this needs the Newton polish at a size
    # where its system is 500 x 500.
    rng = np.random.default_rng(20)
    dim, size, classes = 64, 500, 10
    scales = np.exp(rng.uniform(np.log(0.1), np.log(10.0), dim))[:, None]
    means = 2.0 * rng.standard_normal((dim, classes))
    source_labels = np.arange(size) % classes
    # half the target on class 0, the rest spread over all classes
    target_labels = np.where(np.arange(size) < size // 2, 0, np.arange(size) % classes)
    x = means[:, source_labels] + scales * rng.standard_normal((dim, size))
    z = means[:, target_labels] + scales * rng.standard_normal((dim, size)) + 0.5
    scale = np.sqrt(np.median(gml.cost_matrix(x, z, np.eye(dim))))
    cfg = gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(lam=0.05, tol=1e-7, max_iter=2000),
        outer_iters=8,
        objective_rtol=0.0,
    )
    res = gml.fit(x / scale, z / scale, uniform(size), uniform(size), cfg)
    assert res.sinkhorn_converged
    hist = np.array(res.objective_history)
    assert len(hist) == 8
    assert np.all(np.diff(hist) <= 1e-8)
