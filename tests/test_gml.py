from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ot_oracle import (
    dense_baseline_metric,
    dense_fit,
    dense_ridge,
    geometric_mean,
    objective,
)

from otml import adapt, gml
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


def ridged_gram(x, z):
    # The pooled Gram matrix lifted by the relative rule EPS * mean(diag).
    raw = x @ x.T + z @ z.T
    return raw + gml.EPS * np.trace(raw) / raw.shape[0] * np.eye(raw.shape[0])


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


def test_scatter_matches_outer_product_loop():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    z = rng.normal(size=(4, 6))
    plan = rng.random((5, 6))
    plan /= plan.sum()
    eps = 1e-6
    got = gml._scatter(x, z, plan) + eps * np.eye(4)
    np.testing.assert_allclose(got, naive_scatter(x, z, plan, eps), atol=1e-10)


def test_scatter_positive_definite():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 3))
    z = rng.normal(size=(6, 3))
    plan = np.outer(uniform(3), uniform(3))
    cg = gml._scatter(x, z, plan) + 1e-6 * np.eye(6)
    vals, _ = spd.eigh_spd(cg)
    assert vals.min() > 0


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
    np.testing.assert_allclose(a, geometric_mean(spd.spd_inv(cg), d), atol=1e-10)


def test_update_metric_minimizes_trace_functional():
    # A* = argmin trace(A C) + trace(A^{-1} D): nearby SPD perturbations
    # must never score lower
    rng = np.random.default_rng(7)
    cg = random_spd(rng, 3)
    d = random_spd(rng, 3)
    a_star = gml.update_metric(cg, d)

    def score(a):
        # trace(A B) of symmetric A, B is the sum of A * B
        return float(np.sum(a * cg)) + float(np.sum(spd.spd_inv(a) * d))

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
    assert objective(cost, plan, reg, lam) == pytest.approx(want, rel=1e-10)


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
    ridge = gml.EPS * np.trace(naive_scatter(x, z, np.outer(p, q), 0.0)) / 4
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


@pytest.fixture
def qr_modes(monkeypatch):
    # The mode of every QR taken.
    modes = []
    qr = np.linalg.qr

    def recorded(mat, mode="reduced"):
        modes.append(mode)
        return qr(mat, mode)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    return modes


def small_clouds(dim):
    return pixel_clouds(dim, m=12, n=10, seed=24)


SPAN_FIELDS = ("points", "x", "z", "origin")


@pytest.mark.parametrize("dim", [40, 6], ids=["d-above-m-plus-n", "d-below-m-plus-n"])
def test_span_forms_r_only_and_the_basis_on_read(qr_modes, dim):
    # span takes the R of one QR, bitwise the reduced mode's R, and a fit
    # one of its own, also on the clouds span has just seen. The basis of
    # a fit is the reduced mode's Q, formed when read.
    x, z = small_clouds(dim)
    m, n = x.shape[1], z.shape[1]
    c = x[:, :1]
    basis, coords = np.linalg.qr(np.hstack([c, x[:, 1:] - c, z - c]))
    qr_modes.clear()
    sp = gml.span(x, z)
    assert qr_modes == ["r"]
    np.testing.assert_array_equal(sp.origin, coords[:, 0])
    np.testing.assert_array_equal(sp.x[:, 0], 0.0)
    np.testing.assert_array_equal(sp.x[:, 1:], coords[:, 1:m])
    np.testing.assert_array_equal(sp.z, coords[:, m:])
    cfg = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=0.5), outer_iters=2)
    res = gml.fit(x, z, uniform(m), uniform(n), cfg)
    assert qr_modes == ["r", "r"]
    np.testing.assert_array_equal(res.basis, basis)
    assert qr_modes == ["r", "r", "reduced"]
    gml.fit(x, z + 1.0, uniform(m), uniform(n), cfg)
    assert qr_modes == ["r", "r", "reduced", "r"]


def test_span_of_equal_clouds_is_the_last_span(monkeypatch, qr_modes):
    # span itself keeps nothing: each call takes a QR. A round of adapt
    # keeps its span, so distinct arrays with the same bits, in another
    # memory order, get the last one with no second QR; it is bitwise the
    # span of the clouds.
    x, z = small_clouds(40)
    ze = z[:, ::-1] + 1.0
    assert gml.span(x, z) is not gml.span(x, z)
    assert qr_modes == ["r", "r"]
    monkeypatch.setattr(adapt, "_last_round", None)
    sp = adapt._round(x, z, ze).span
    assert adapt._round(x.copy(), np.asfortranarray(z), ze.copy()).span is sp
    assert qr_modes == ["r", "r", "r"]
    fresh = gml.span(x, z)
    for name in SPAN_FIELDS:
        a, b = getattr(sp, name), getattr(fresh, name)
        assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64)), name


def test_shared_span_arrays_are_read_only():
    x, z = small_clouds(40)
    sp = gml.span(x, z)
    cfg = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=0.5), outer_iters=1)
    (res,) = gml.fit_grid(sp, uniform(12), uniform(10), cfg, [0.5])
    assert res.points is sp.points
    for array in [getattr(sp, name) for name in SPAN_FIELDS]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def span_and_oracle(kind, x, z):
    # A baseline's span factors (reduced, complement value) next to the
    # d x d oracle seen the same way: Q^T G Q, and G on a unit vector
    # orthogonal to the span, where it is the ridge rho (1 / rho for
    # whiten). A square basis has no complement; there the oracle's ridge
    # rule gives the value.
    sp = gml.span(x, z)
    factors = gml.baseline_factors(kind, sp)
    dense = dense_baseline_metric(kind, x, z)
    basis = np.linalg.qr(sp.points)[0]
    dim, rank = basis.shape
    if rank < dim:
        u = np.random.default_rng(0).normal(size=dim)
        u -= basis @ (basis.T @ u)
        u /= np.linalg.norm(u)
        outside = float(u @ dense @ u)
    else:
        rho = dense_ridge(spd.symmetrize(x @ x.T + z @ z.T))
        outside = {"euclidean": 1.0, "gram": rho, "whiten": 1.0 / rho}[kind]
    return factors, (basis.T @ dense @ basis, outside)


def test_baseline_metric_kinds():
    # Below m + n (square basis) and above it, each baseline's factors are
    # the oracle's identity, ridged Gram matrix or its inverse on the span
    # basis and on its complement. The oracle's d x d inverse is good to about its
    # condition number (up to 1e7 here) times the rounding unit.
    rng = np.random.default_rng(11)
    for dim, size in ((3, 8), (4, 10), (30, 6)):
        x = rng.normal(size=(dim, size))
        z = rng.normal(size=(dim, size))
        sp = gml.span(x, z)
        euclidean, one = gml.baseline_factors("euclidean", sp)
        np.testing.assert_array_equal(euclidean, np.eye(sp.x.shape[0]))
        assert one == 1.0
        for kind in gml.BASELINE_METRICS:
            tol = 1e-8 if kind == "whiten" else 1e-13
            (reduced, rest), (want, outside) = span_and_oracle(kind, x, z)
            assert reduced.shape == (min(dim, 2 * size),) * 2
            np.testing.assert_allclose(
                reduced, want, rtol=tol, atol=tol * np.abs(want).max()
            )
            # The oracle's value off the span rounds to about 1e-10.
            assert rest == pytest.approx(outside, rel=1e-8, abs=0)
        gram, rho = gml.baseline_factors("gram", sp)
        whiten, inv_rho = gml.baseline_factors("whiten", sp)
        np.testing.assert_allclose(whiten @ gram, np.eye(gram.shape[0]), atol=1e-8)
        assert inv_rho * rho == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        gml.baseline_factors("mahalanobis", sp)


def test_gram_floor_is_relative_at_pixel_scale():
    # An absolute 1e-6 lift vanishes next to eigenvalues ~1e8, and the
    # inverse then fails the positivity check.
    x, z = pixel_clouds()
    (whiten, inv_rho), _ = span_and_oracle("whiten", x, z)
    np.testing.assert_array_equal(whiten, whiten.T)
    vals, _ = spd.eigh_spd(whiten)
    assert vals.min() > 0 and inv_rho > 0
    _, (gram, gram_outside) = span_and_oracle("gram", x, z)
    np.testing.assert_allclose(whiten @ gram, np.eye(80), atol=1e-6)
    assert inv_rho * gram_outside == pytest.approx(1.0, rel=1e-6)


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


# Largest relative gaps the span fit may show against the d x d oracle:
# (plan entries over the largest entry, objective history, metric in the
# Frobenius norm, a baseline's cost entries over the largest entry, the
# baseline metric in the Frobenius norm). Above
# m + n the oracle's own scatter of raw pixel coordinates cancels about
# 1e-13 of each entry against the 128 offset, and the metric magnifies
# that by alpha^2 on the complement (alpha^2 ~ 1e8 here): its metric is
# the less accurate one, off by up to 5e-6 (1.6e-4 at other seeds) with
# the gram_sum target, while the span metric matches a centred oracle to
# 1e-9. Below m + n the two routes differ by rounding only.
SPAN_TOLERANCES = {
    "wide": {"plan": 1e-6, "history": 1e-7, "metric": 1e-4, "cost": 1e-9, "baseline": 1e-7},
    "narrow": {"plan": 1e-8, "history": 1e-10, "metric": 1e-10, "cost": 1e-10, "baseline": 1e-10},
}


def pixel_pair(dim, m=20, n=20, seed=0):
    # Pixel-offset clouds divided by the root median Euclidean cost, as
    # adapt.fit_plan scales them, so that lam = 0.5 suits every size.
    rng = np.random.default_rng(seed)
    x = 128 + 4 * rng.normal(size=(dim, m))
    z = 128 + 4 * rng.normal(size=(dim, n)) + 2 * rng.normal(size=(dim, 1))
    scale = np.sqrt(np.median(gml.cost_matrix(x, z, np.eye(dim))))
    return x / scale, z / scale


def rel_gap(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("d_choice", gml.D_CHOICES)
@pytest.mark.parametrize("size,dim", [("wide", 120), ("narrow", 6)])
def test_span_fit_matches_dense_oracle(size, dim, d_choice):
    # One path at every d: with d = 120 > m + n = 40 the fit runs on 40
    # span coordinates plus the complement constant, with d = 6 on a
    # rotated square basis; both must reproduce the d x d fit.
    tol = SPAN_TOLERANCES[size]
    x, z = pixel_pair(dim)
    p = q = uniform(20)
    cfg = gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(lam=0.5, tol=1e-10, max_iter=10000),
        outer_iters=4, d_choice=d_choice, objective_rtol=0.0,
    )
    res = gml.fit(x, z, p, q, cfg)
    plan, metric, history = dense_fit(x, z, p, q, cfg)
    assert res.basis.shape == (dim, min(dim, 40))
    assert res.iters_run == len(history) == 4
    assert np.abs(res.plan - plan).max() <= tol["plan"] * plan.max()
    np.testing.assert_allclose(res.objective_history, history, rtol=tol["history"])
    assert rel_gap(res.metric, metric) <= tol["metric"]
    if d_choice == "identity":
        # The translation-invariant case, with the oracle on centred data.
        c = x[:, :1]
        _, centred, _ = dense_fit(x - c, z - c, p, q, cfg)
        assert rel_gap(res.metric, centred) <= 1e-8
    kind = {"gram_sum": "gram", "gram_sum_inverse": "whiten"}.get(d_choice)
    if kind is not None:
        sp = gml.span(x, z)
        (reduced, rest), (on_span, outside) = span_and_oracle(kind, x, z)
        want = gml.cost_matrix(x, z, dense_baseline_metric(kind, x, z))
        got = gml.cost_matrix(sp.x, sp.z, reduced)
        assert np.abs(got - want).max() <= tol["cost"] * want.max()
        assert rel_gap(reduced, on_span) <= tol["baseline"]
        assert rest == pytest.approx(outside, rel=tol["baseline"], abs=0)


def test_config_validation():
    scfg = sk.SinkhornConfig(lam=1.0)
    with pytest.raises(ValueError):
        gml.GmlConfig(sinkhorn=scfg, outer_iters=0)
    with pytest.raises(ValueError):
        gml.GmlConfig(sinkhorn=scfg, objective_rtol=-1.0)
    with pytest.raises(ValueError):
        gml.GmlConfig(sinkhorn=scfg, d_choice="banana")
    # An explicit matrix has no span form; the error names the choices.
    with pytest.raises(ValueError, match="gram_sum_inverse"):
        gml.GmlConfig(sinkhorn=scfg, d_choice=np.eye(3))
    for name in ("outer_iters", "objective_rtol"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                gml.GmlConfig(sinkhorn=scfg, **{name: bad})
    with pytest.raises(ValueError):
        gml.GmlConfig(sinkhorn=scfg, outer_iters=2.5)
    for bad in (True, np.False_, "0", None):
        with pytest.raises(ValueError, match="^objective_rtol must be"):
            gml.GmlConfig(sinkhorn=scfg, objective_rtol=bad)
    for good in (np.float64(1e-6), np.int64(0), 0):
        assert gml.GmlConfig(sinkhorn=scfg, objective_rtol=good).objective_rtol == good


def make_problem(seed, dim=3, m=8, n=8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, m))
    z = rng.normal(size=(dim, n)) + rng.normal(size=(dim, 1))
    return x, z, uniform(m), uniform(n)


def _spy_sweeps(monkeypatch):
    # (regularizer, cost, lam, plan) of each sweep of one-lambda fits, in
    # order: the regularizers from the triples grid_fits is given, the rest
    # from the solves.
    regs, solves = [], []
    grid_fits, solve = gml.grid_fits, sk.solve

    def spy_refit(refit):
        def wrapped(plan):
            triple = refit(plan)
            regs.append(triple[1])
            return triple
        return wrapped

    def spy_grid_fits(first, refit, *args):
        regs.append(first[1])
        return grid_fits(first, refit and spy_refit(refit), *args)

    def spy_solve(cost, p, q, cfg, g0=None):
        transport = solve(cost, p, q, cfg, g0)
        solves.append((cost, cfg.lam, transport.matrix))
        return transport

    monkeypatch.setattr(gml, "grid_fits", spy_grid_fits)
    monkeypatch.setattr(sk, "solve", spy_solve)
    return regs, solves


@pytest.mark.parametrize("side", ["p", "q"])
def test_a_zero_mass_is_refused_by_the_solve_and_every_fit(side):
    # A point without mass is dropped before the call: a zero entry of p or
    # q raises from the solver, from gml.fit and from each method's lazy
    # fits in adapt.fit_plan.
    x, z, p, q = make_problem(33, m=8, n=7)
    if side == "p":
        p = np.r_[uniform(7), 0.0]
    else:
        q = np.r_[0.0, uniform(6)]
    cfg = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=0.3))
    match = f"^{side} has an entry <= 0"
    with pytest.raises(ValueError, match=match):
        sk.solve(gml.cost_matrix(x, z), p, q, cfg.sinkhorn)
    with pytest.raises(ValueError, match=match):
        gml.fit(x, z, p, q, cfg)
    for method in adapt.METHODS:
        with pytest.raises(ValueError, match=match):
            list(adapt.fit_plan(x, z, p, q, method, [0.3], cfg))


@pytest.mark.parametrize("case", ["euclidean", "gram", "whiten", "learned", "max-iter-2"])
def test_recorded_history_is_the_objective_of_each_plan(monkeypatch, case):
    # Each sweep records <r, f> + <c, g> + reg from the solve's potentials;
    # it must equal the functional evaluated on the plan, for one-sweep
    # baselines, multi-sweep fits and solves stopped at the cap (the
    # identity needs no convergence).
    regs, solves = _spy_sweeps(monkeypatch)
    scfg = sk.SinkhornConfig(lam=0.3, tol=1e-10)
    cfg = gml.GmlConfig(sinkhorn=scfg, outer_iters=4, objective_rtol=0.0)
    if case in adapt.METHODS:
        x, z, p, q = make_problem(31, dim=4, m=9, n=7)
        (res,) = adapt.fit_plan(x, z, p, q, case, [scfg.lam], cfg)
    else:
        cfg = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=0.3, max_iter=2),
                            outer_iters=3, objective_rtol=0.0)
        res = gml.fit(*make_problem(32, dim=4, m=9, n=7), cfg)
        assert not res.sinkhorn_converged
    history = res.objective_history
    assert type(history) is list
    assert len(history) == len(solves) == len(regs) == res.iters_run
    assert res.iters_run == (1 if case in gml.BASELINE_METRICS else cfg.outer_iters)
    assert np.all(np.isfinite(history))
    for value, reg, (cost, lam, plan) in zip(history, regs, solves):
        assert value == pytest.approx(objective(cost, plan, reg, lam), rel=1e-12, abs=0)


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


def test_fit_early_stop_may_fire_on_the_last_sweep():
    # converged says the rule fired, also on the last sweep the cap allows:
    # any decrease is below 10 * max(1, |objective|).
    x, z, p, q = make_problem(14)
    cfg = gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(lam=0.5, tol=1e-10),
        outer_iters=2,
        objective_rtol=10.0,
    )
    res = gml.fit(x, z, p, q, cfg)
    assert (res.iters_run, res.converged) == (2, True)
    capped = gml.fit(x, z, p, q, replace(cfg, objective_rtol=0.0))
    assert (capped.iters_run, capped.converged) == (2, False)
    # iters_run is the history's length, not a second record of it
    with pytest.raises(AttributeError):
        res.iters_run = 3


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
    identity = objective(cost, plan, ridge * dim + dim, scfg.lam)
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
    cg = gml._scatter(x, z, plan) + 1e-8 * np.eye(dim)
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
