import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ot_oracle import barycentric_map, knn1_predict
from otml import adapt, gml, spd
from otml import data as dt
from otml import sinkhorn as sk


def uniform(n):
    return np.full(n, 1.0 / n)


def two_blob_cloud(rng, per_class=6, shift=(0.0, 0.0), spread=0.3):
    a = rng.normal(size=(2, per_class)) * spread + np.array([[0.0], [0.0]])
    b = rng.normal(size=(2, per_class)) * spread + np.array([[4.0], [4.0]])
    pts = np.concatenate([a, b], axis=1) + np.asarray(shift).reshape(2, 1)
    labels = np.array([0] * per_class + [1] * per_class)
    return dt.RawDataset(pts, labels)


# ---------------------------------------------------------------------------
# AdaptationReport


def test_report_validation():
    with pytest.raises(ValueError):
        adapt.AdaptationReport("euclidean", 0.1, 1.2, 0.5)
    with pytest.raises(ValueError):
        adapt.AdaptationReport("euclidean", 0.1, 0.5, -0.1)


# ---------------------------------------------------------------------------
# barycentric projection (ot_oracle, the reference for run_task's evaluation)


def test_barycentric_product_coupling_collapses_to_target_mean():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 5))
    p = uniform(4)
    q = rng.random(5)
    q /= q.sum()
    mapped = barycentric_map(np.outer(p, q), z, p)
    np.testing.assert_allclose(mapped, np.tile((z @ q)[:, None], (1, 4)), atol=1e-12)


def test_barycentric_permutation_coupling_picks_matched_target():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(2, 4))
    perm = np.array([2, 0, 3, 1])
    plan = np.zeros((4, 4))
    plan[np.arange(4), perm] = 0.25
    mapped = barycentric_map(plan, z, uniform(4))
    np.testing.assert_allclose(mapped, z[:, perm], atol=1e-12)


def test_barycentric_matches_row_loop():
    rng = np.random.default_rng(2)
    plan = rng.random((5, 6))
    plan /= plan.sum()
    p = plan.sum(axis=1)
    z = rng.normal(size=(3, 6))
    mapped = barycentric_map(plan, z, p)
    for i in range(5):
        want = (z * plan[i]).sum(axis=1) / p[i]
        np.testing.assert_allclose(mapped[:, i], want, atol=1e-12)


def test_barycentric_conserves_mass():
    # sum_i p_i mapped_i must equal Z q when the plan is feasible
    rng = np.random.default_rng(3)
    cost = rng.random((6, 5))
    p = rng.random(6)
    p /= p.sum()
    q = rng.random(5)
    q /= q.sum()
    plan = sk.solve(cost, p, q, sk.SinkhornConfig(lam=0.5)).matrix
    z = rng.normal(size=(4, 5))
    mapped = barycentric_map(plan, z, p)
    np.testing.assert_allclose(mapped @ p, z @ q, atol=1e-10)


def test_barycentric_zero_mass_rows_fall_back_to_mean():
    z = np.array([[0.0, 2.0], [0.0, 4.0]])
    plan = np.array([[0.5, 0.5], [0.0, 0.0]])
    p = np.array([1.0, 0.0])
    with pytest.warns(RuntimeWarning):
        mapped = barycentric_map(plan, z, p)
    np.testing.assert_allclose(mapped[:, 0], [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(mapped[:, 1], [1.0, 2.0], atol=1e-12)


def test_barycentric_shape_error():
    with pytest.raises(ValueError):
        barycentric_map(np.zeros((2, 3)), np.zeros((2, 4)), uniform(2))


# ---------------------------------------------------------------------------
# 1-NN classifier (ot_oracle)


def test_knn1_exact_match():
    pred = knn1_predict(
        np.array([[0.0, 1.0, 5.0]]), np.array([3, 1, 4]), np.array([[5.0, 0.0, 1.0]])
    )
    np.testing.assert_array_equal(pred, [4, 3, 1])


def test_knn1_tie_goes_to_lower_index():
    pred = knn1_predict(np.array([[0.0, 2.0]]), np.array([7, 9]), np.array([[1.0]]))
    assert pred[0] == 7


def test_knn1_matches_brute_force():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(3, 8))
    labels = rng.integers(0, 4, size=8)
    queries = rng.normal(size=(3, 10))
    pred = knn1_predict(points, labels, queries)
    for k in range(10):
        dists = ((points - queries[:, k : k + 1]) ** 2).sum(axis=0)
        assert pred[k] == labels[int(np.argmin(dists))]


def cdist_argmin(points, queries):
    # cdist's distances with argmin's lowest-index tie rule
    return np.argmin(cdist(queries.T, points.T, metric="sqeuclidean"), axis=1)


@pytest.mark.parametrize("offset", [128.0, 2.0**30])
def test_knn1_matches_cdist_on_integer_grid_ties(offset):
    # Small integer grids put many queries exactly halfway between points;
    # the lowest index must win every such tie, at a pixel-like offset and
    # at one whose squared norms a double cannot hold exactly.
    rng = np.random.default_rng(12)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        points = offset + rng.integers(-3, 4, size=(d, int(rng.integers(2, 30))))
        queries = offset + rng.integers(-3, 4, size=(d, 50))
        labels = np.arange(points.shape[1])
        np.testing.assert_array_equal(
            knn1_predict(points, labels, queries), cdist_argmin(points, queries)
        )


def test_knn1_matches_cdist_at_pixel_scale_d784():
    rng = np.random.default_rng(11)
    points = 128.0 + 40.0 * rng.normal(size=(784, 200))
    queries = 128.0 + 40.0 * rng.normal(size=(784, 200))
    labels = np.arange(200)
    np.testing.assert_array_equal(
        knn1_predict(points, labels, queries), cdist_argmin(points, queries)
    )


def test_knn1_on_training_points_recovers_labels():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(2, 6))
    labels = rng.integers(0, 3, size=6)
    np.testing.assert_array_equal(knn1_predict(pts, labels, pts), labels)


def test_knn1_errors():
    with pytest.raises(ValueError, match="query dimension"):
        knn1_predict(np.zeros((2, 1)), np.array([0]), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="empty"):
        knn1_predict(np.zeros((2, 0)), np.array([], dtype=int), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="2 labels for 3 points"):
        knn1_predict(np.zeros((2, 3)), np.array([0, 1]), np.zeros((2, 2)))


def test_accuracy_basics():
    assert adapt.accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert adapt.accuracy([1, 2, 3], [3, 2, 1]) == pytest.approx(1 / 3)
    assert adapt.accuracy([0], [1]) == 0.0
    with pytest.raises(ValueError):
        adapt.accuracy([1, 2], [1])
    with pytest.raises(ValueError):
        adapt.accuracy([], [])


# ---------------------------------------------------------------------------
# 1-NN transfer of run_task, against barycentric_map + knn1_predict

# d = 96 > n + 1 takes the Gram order, d = 8 <= n + 1 the one in R^d.
ORDERS = pytest.mark.parametrize("dim", [96, 8], ids=["gram-order", "d-order"])


def pixel_instance(rng, dim, m=25, n=30, k=35):
    # Points at pixel scale (128 + 4 v), and the plan of their Euclidean
    # cost; the test split has k points.
    x, zt, ze = (128.0 + 4.0 * rng.normal(size=(dim, size)) for size in (m, n, k))
    cost = gml.cost_matrix(x, zt)
    plan = sk.solve(cost / np.median(cost), uniform(m), uniform(n), sk.SinkhornConfig(lam=0.5))
    return plan.matrix, zt, ze


@ORDERS
@pytest.mark.parametrize("miss", [0.0, 1e-5], ids=["solved", "rows-off-1e-5"])
def test_transfer_matches_the_oracle(dim, miss):
    # Each score plus |query - c|^2 is the squared distance from a
    # projected source to a query, within rounding of the largest one,
    # and the nearest sources are the oracle's, for target-train and test
    # queries. Rows that miss p by 1e-5 relative move a projection by
    # 1e-5 |c|, far above that rounding, so the s_i - 1 term must be kept.
    rng = np.random.default_rng(20)
    plan, zt, ze = pixel_instance(rng, dim)
    m = plan.shape[0]
    plan *= 1.0 + miss * rng.uniform(-1.0, 1.0, size=(m, 1))
    p = uniform(m)
    transfer = adapt._Transfer(zt, ze)
    assert (transfer.train_factor is not transfer.y) == (dim == 96)
    train, projected = transfer.train_scores(plan, p)
    mapped = barycentric_map(plan, zt, p)
    for queries, scores in ((zt, train), (ze, transfer.test_scores(projected))):
        want = ((mapped[:, :, None] - queries[:, None, :]) ** 2).sum(axis=0)
        got = scores + ((queries - zt[:, :1]) ** 2).sum(axis=0)
        assert np.abs(got - want).max() <= 1e-12 * want.max()
        np.testing.assert_array_equal(
            adapt._nearest(scores), knn1_predict(mapped, np.arange(m), queries)
        )


def test_transfer_orders_give_the_same_labels():
    rng = np.random.default_rng(21)
    plan, zt, ze = pixel_instance(rng, 96)
    p = uniform(plan.shape[0])
    chosen, forced = adapt._Transfer(zt, ze), adapt._Transfer(zt, ze)
    assert chosen.train_factor is not chosen.y
    forced.train_factor, forced.test_factor = forced.y, ze - zt[:, :1]
    nearest = []
    for transfer in (chosen, forced):
        train, projected = transfer.train_scores(plan, p)
        test = transfer.test_scores(projected)
        nearest.append(np.concatenate([adapt._nearest(train), adapt._nearest(test)]))
    np.testing.assert_array_equal(*nearest)


@ORDERS
def test_transfer_ties_go_to_the_lowest_index_on_integer_grids(dim):
    # Integer points and plan rows of weights 1 or 1/2 on one or two
    # targets keep every product exact, so duplicate sources (a small n
    # repeats rows) have equal scores, queries halfway between
    # projections tie, and the lowest source index must win each tie, as
    # it does in the oracle.
    rng = np.random.default_rng(22)
    m, n = 40, 6 if dim == 96 else 12
    p = uniform(m)
    for _ in range(20):
        zt = 128.0 + rng.integers(-3, 4, size=(dim, n))
        ze = 128.0 + rng.integers(-3, 4, size=(dim, 30))
        weights = np.zeros((m, n))
        for i in range(m):
            picks = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
            weights[i, picks] = 1.0 / picks.size
        plan = weights * p[:, None]
        mapped = barycentric_map(plan, zt, p)
        transfer = adapt._Transfer(zt, ze)
        train, projected = transfer.train_scores(plan, p)
        for row in range(1, m):
            same = np.flatnonzero((weights[:row] == weights[row]).all(axis=1))
            if same.size:
                np.testing.assert_array_equal(train[row], train[same[0]])
        labels = np.arange(m)
        for queries, scores in ((zt, train), (ze, transfer.test_scores(projected))):
            np.testing.assert_array_equal(
                adapt._nearest(scores), knn1_predict(mapped, labels, queries)
            )


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def round_clouds(dim, seed=25):
    # Labeled source, target-train and target-test clouds of 12 points at
    # pixel scale; n + 1 < 2d takes the Gram form at d = 40, not at d = 3.
    y = np.arange(12) % 2
    return [
        dt.RawDataset(128.0 + 4.0 * rng.normal(size=(dim, 12)) + 3.0 * y, y)
        for rng in map(np.random.default_rng, range(seed, seed + 3))
    ]


@pytest.fixture
def traffic(monkeypatch):
    # The QRs and transfers built from here on, after an empty round entry,
    # so that nothing an earlier test left there is shared.
    monkeypatch.setattr(adapt, "_last_round", None)
    counts = {"qr": 0, "transfer": 0, "gram": 0}
    qr = np.linalg.qr

    def counted_qr(*args, **kwargs):
        counts["qr"] += 1
        return qr(*args, **kwargs)

    class Counted(adapt._Transfer):
        def __init__(self, zt, ze):
            super().__init__(zt, ze)
            counts["transfer"] += 1
            counts["gram"] += self.train_factor is not self.y

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(adapt, "_Transfer", Counted)
    return counts


@ORDERS
def test_transfer_of_an_equal_target_cloud_is_the_last_one(traffic, dim):
    # Distinct clouds with the same bits, in another memory order, get the
    # last round's transfer in both forms: no new Y, no new Y^T Y in Gram
    # form, and test scores bitwise those of a fresh transfer.
    rng = np.random.default_rng(25)
    plan, zt, ze = pixel_instance(rng, dim)
    x = 128.0 + 4.0 * rng.normal(size=(dim, plan.shape[0]))
    transfer = adapt._round(x, zt, ze).transfer
    again = adapt._round(x.copy(), zt.copy(), np.asfortranarray(ze)).transfer
    assert again is transfer
    assert traffic == {"qr": 0, "transfer": 1, "gram": int(dim == 96)}
    sources = transfer.train_scores(plan, uniform(plan.shape[0]))[1]
    fresh = adapt._Transfer(zt, ze)
    assert same_bits(transfer.test_scores(sources), fresh.test_scores(sources))


@pytest.mark.parametrize("dim", [40, 3], ids=["gram-form", "coordinate-form"])
def test_clouds_with_equal_bits_share_one_round(monkeypatch, traffic, dim):
    # Each method gets distinct arrays with the bits of the first method's
    # clouds, in C or Fortran order: the four share one round, with one
    # QR and one transfer (one Y^T Y in Gram form), and each report is the
    # one computed from an empty round entry.
    clouds = round_clouds(dim)
    copies = (np.copy, np.asfortranarray, np.copy, np.asfortranarray)
    reports, rounds = {}, set()
    for method, copy in zip(adapt.METHODS, copies):
        drawn = [dt.RawDataset(copy(c.features), c.labels) for c in clouds]
        reports[method] = adapt.run_task(*drawn, method, GRID, base_cfg(outer=2))
        rounds.add(id(adapt._last_round))
    assert len(rounds) == 1
    assert traffic == {"qr": 1, "transfer": 1, "gram": int(dim == 40)}
    for method in adapt.METHODS:
        monkeypatch.setattr(adapt, "_last_round", None)
        assert adapt.run_task(*clouds, method, GRID, base_cfg(outer=2)) == reports[method]


@pytest.mark.parametrize("change", ["in-place", "signed-zero"])
@pytest.mark.parametrize("which", [0, 1, 2], ids=["source", "target-train", "target-test"])
def test_a_changed_cloud_starts_a_new_round(monkeypatch, traffic, which, change):
    # A cloud changed in place since the last call, or holding -0.0 where
    # +0.0 was, is a miss. The new round's span, transfer arrays and
    # reports are bitwise those computed from an empty round entry.
    clouds = round_clouds(40)
    clouds[which].features[3, 4] = 0.0
    cfg = base_cfg(outer=2)
    adapt.run_task(*clouds, "gram", GRID, cfg)
    stale = adapt._last_round
    if change == "in-place":
        clouds[which].features[5, 2] += 1e-9
    else:
        clouds[which].features[3, 4] = -0.0
    reports = [adapt.run_task(*clouds, method, GRID, cfg) for method in adapt.METHODS]
    shared = adapt._last_round
    assert shared is not stale
    assert traffic == {"qr": 2, "transfer": 2, "gram": 2}
    monkeypatch.setattr(adapt, "_last_round", None)
    assert [adapt.run_task(*clouds, method, GRID, cfg) for method in adapt.METHODS] == reports
    fresh = adapt._last_round
    assert fresh is not shared
    for name in ("points", "x", "z", "origin"):
        assert same_bits(getattr(shared.span, name), getattr(fresh.span, name)), name
    for name in ("y", "train_factor", "test_factor"):
        assert same_bits(getattr(shared.transfer, name), getattr(fresh.transfer, name)), name


def test_shared_round_arrays_are_read_only(traffic):
    clouds = round_clouds(40)
    adapt.run_task(*clouds, "gram", GRID, base_cfg(outer=2))
    shared = adapt._last_round
    transfer, sp = shared.transfer, shared.span
    arrays = [*shared.clouds, transfer.y, transfer.train_factor, transfer.test_factor]
    for array in arrays + [sp.points, sp.x, sp.z, sp.origin]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_run_task_rejects_a_test_split_of_another_dimension():
    rng = np.random.default_rng(23)
    cloud = two_blob_cloud(rng)
    wide = dt.RawDataset(np.vstack([cloud.features, cloud.features[:1]]), cloud.labels)
    with pytest.raises(ValueError, match="3-d.*2-d"):
        adapt.run_task(cloud, cloud, wide, "euclidean", [0.5], base_cfg())


# ---------------------------------------------------------------------------
# plan fitting


def base_cfg(lam=0.1, outer=5):
    return gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(lam=lam, tol=1e-9, max_iter=5000),
        outer_iters=outer,
        objective_rtol=1e-6,
    )


def test_fit_plan_rejects_unknown_method():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 4))
    with pytest.raises(ValueError):
        adapt.fit_plan(x, x, uniform(4), uniform(4), "cosine", [0.1], base_cfg())


@pytest.mark.parametrize("method", adapt.METHODS)
def test_fit_plan_produces_feasible_plan(method):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 6))
    z = rng.normal(size=(3, 5)) + 1.0
    p, q = uniform(6), uniform(5)
    (fit,) = adapt.fit_plan(x, z, p, q, method, [0.1], base_cfg())
    plan = fit.plan
    row_err, col_err = sk.marginal_error(plan, p, q)
    assert max(row_err, col_err) < 1e-8
    assert np.all(plan >= 0)


def test_fit_plan_euclidean_invariant_to_feature_scale():
    # median normalization makes the baseline plan independent of units
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 5))
    z = rng.normal(size=(2, 5)) + 1.0
    p = q = uniform(5)
    (a,) = adapt.fit_plan(x, z, p, q, "euclidean", [0.2], base_cfg())
    (b,) = adapt.fit_plan(1000.0 * x, 1000.0 * z, p, q, "euclidean", [0.2], base_cfg())
    np.testing.assert_allclose(a.plan, b.plan, atol=1e-9)


GRID = [0.05, 0.2, 0.5, 1.0, 2.0]


def test_fit_plan_euclidean_cost_is_bitwise_the_identity_metrics(tmp_path):
    # A loaded csv holds its points as a transposed view. The Euclidean
    # cost takes no metric, and must still round exactly as the cost under
    # an explicit identity, whose products are C-contiguous. (Integer
    # pixels would hide a difference: their sums are exact.)
    rng = np.random.default_rng(19)
    dim, m, n = 64, 30, 25
    plans = {}
    for name, size in (("x", m), ("z", n)):
        path = tmp_path / f"{name}.csv"
        np.savetxt(path, rng.uniform(0, 255, size=(size, dim)), delimiter=",")
        plans[name] = dt.load_matrix(str(path)).features
    x, z = plans["x"], plans["z"]
    assert not x.flags.c_contiguous
    p, q = uniform(m), uniform(n)
    cfg = base_cfg()
    cost = gml.cost_matrix(x, z, np.eye(dim))
    cost /= np.median(cost)
    for lam, fit in zip(GRID, adapt.fit_plan(x, z, p, q, "euclidean", GRID, cfg)):
        want = sk.solve(cost, p, q, replace(cfg.sinkhorn, lam=lam))
        assert np.array_equal(fit.plan, want.matrix)


@pytest.mark.parametrize("outer", [1, 3])
@pytest.mark.parametrize("method", adapt.METHODS)
def test_fit_plan_grid_matches_one_lambda_fits(method, outer):
    # The whole grid is drawn before any comparison, so a later fit that
    # leaked state from an earlier one, or modified an earlier result in
    # place, shows as a difference from the one-lambda fit.
    rng = np.random.default_rng(12)
    x = 3.0 * rng.normal(size=(4, 12))
    z = 3.0 * rng.normal(size=(4, 10)) + 1.0
    p, q = uniform(12), uniform(10)
    cfg = base_cfg(outer=outer)
    grid = list(adapt.fit_plan(x, z, p, q, method, GRID, cfg))
    assert len(grid) == len(GRID)
    for lam, res in zip(GRID, grid):
        (solo,) = adapt.fit_plan(x, z, p, q, method, [lam], cfg)
        assert np.array_equal(res.plan, solo.plan)
        assert np.array_equal(res.metric, solo.metric)
        assert np.array_equal(res.objective_history, solo.objective_history)
        assert (res.iters_run, res.converged, res.sinkhorn_converged) == (
            solo.iters_run, solo.converged, solo.sinkhorn_converged
        )


def test_learned_sweeps_start_warm_within_each_lambda_only(monkeypatch):
    # Sweep k + 1 starts from sweep k's column potential; the first sweep
    # of every lambda starts cold, so no state crosses the grid.
    rng = np.random.default_rng(12)
    x = 3.0 * rng.normal(size=(4, 12))
    z = 3.0 * rng.normal(size=(4, 10)) + 1.0
    calls = []
    original = gml.sk.solve

    def spy(cost, p, q, cfg, g0=None):
        transport = original(cost, p, q, cfg, g0)
        calls.append((cfg.lam, g0, transport.g))
        return transport

    monkeypatch.setattr(gml.sk, "solve", spy)
    cfg = replace(base_cfg(outer=3), objective_rtol=0.0)
    list(adapt.fit_plan(x, z, uniform(12), uniform(10), "learned", GRID, cfg))
    assert [lam for lam, _, _ in calls] == [lam for lam in GRID for _ in range(3)]
    for k, (_, g0, _) in enumerate(calls):
        if k % 3 == 0:
            assert g0 is None
        else:
            assert g0 is calls[k - 1][2]


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("method,outer,metrics,solves,costs,scatters", [
    ("learned", 1, 1, 5, 2, 1),
    ("learned", 3, 11, 15, 12, 11),
    ("whiten", 1, 1, 5, 1, 0),
], ids=["learned-1-1-5", "learned-3-11-15", "whiten-1-1-5"])
def test_run_task_shares_the_lambda_independent_work(
    monkeypatch, method, outer, metrics, solves, costs, scatters
):
    # One metric update (or baseline metric) and its cost matrix serve the
    # whole grid; every later sweep and every Sinkhorn solve still runs
    # once per lambda. The learned fit's extra cost matrix is the Euclidean
    # one that sets its scale; its first scatter is the independence
    # coupling's, built once for the grid, and every later sweep takes
    # one scatter of its plan. At the default
    # D = I each metric (the learned update, or whiten's inverse) takes
    # exactly one eigendecomposition, and nothing else takes any.
    rng = np.random.default_rng(13)
    source = two_blob_cloud(rng)
    train = two_blob_cloud(rng, shift=(0.5, -0.3))
    test = two_blob_cloud(rng, shift=(0.5, -0.3))
    counts = {}
    for module, name in ((gml, "update_metric"), (gml, "baseline_factors"),
                         (gml, "cost_matrix"), (gml, "_scatter"),
                         (sk, "solve"), (np.linalg, "eigh")):
        _count_calls(monkeypatch, module, name, counts)
    cfg = gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(lam=0.1, tol=1e-9, max_iter=5000),
        outer_iters=outer,
        objective_rtol=0.0,
    )
    adapt.run_task(source, train, test, method, GRID, cfg)
    counted = "update_metric" if method == "learned" else "baseline_factors"
    assert counts[counted] == metrics
    assert counts["solve"] == solves
    assert counts["cost_matrix"] == costs
    assert counts.get("_scatter", 0) == scatters
    assert counts["eigh"] == metrics


def test_run_task_builds_every_spd_matrix_exactly_symmetric(monkeypatch):
    # Every symmetric matrix a fit forms is a product F F^T (one syrk, exactly
    # symmetric) or a sum of such products and their ridge, so gml
    # symmetrizes nothing, and spd symmetrizes only what arrives from outside
    # its own products: each eigendecomposition's input and, where D is not
    # s * I, D and the inner product C^1/2 D C^1/2 of the Riccati solve.
    rng = np.random.default_rng(29)
    labels = np.repeat([0, 1], 9)
    source, train, test = (
        dt.RawDataset(rng.normal(size=(8, 18)) + 2.0 * labels + shift, labels)
        for shift in (0.0, 0.5, 0.5)
    )
    callers, counts, built = {}, {}, []
    original = spd.symmetrize

    def symmetrize(mat):
        frame = sys._getframe(1)
        key = (frame.f_globals["__name__"], frame.f_code.co_name)
        callers[key] = callers.get(key, 0) + 1
        return original(mat)

    def keep(name, label):
        # Record each matrix gml.<name> returns, as it was returned.
        made = getattr(gml, name)

        def kept(*args):
            out = made(*args)
            tag, mat = label(args, out)
            built.append((tag, mat.copy()))
            return out

        monkeypatch.setattr(gml, name, kept)

    monkeypatch.setattr(spd, "symmetrize", symmetrize)
    monkeypatch.setattr(gml, "symmetrize", symmetrize)
    _count_calls(monkeypatch, spd, "eigh_spd", counts)
    keep("_scatter", lambda args, out: ("scatter", out))
    keep("baseline_factors", lambda args, out: (args[0], out[0]))
    keep("update_metric", lambda args, out: ("learned", out))
    general = 0  # Riccati solves whose D is not s * I
    for method, d_choice in [("euclidean", "identity"), ("gram", "identity"),
                             ("whiten", "identity"), ("learned", "identity"),
                             ("learned", "gram_sum")]:
        cfg = gml.GmlConfig(
            sinkhorn=sk.SinkhornConfig(lam=0.1, tol=1e-9, max_iter=5000),
            outer_iters=3, d_choice=d_choice, objective_rtol=0.0,
        )
        before = len(built)
        adapt.run_task(source, train, test, method, GRID, cfg)
        if d_choice == "gram_sum":
            general += sum(tag == "learned" for tag, _ in built[before:])
    assert general > 0
    assert callers == {
        ("otml.spd", "eigh_spd"): counts["eigh_spd"],
        ("otml.spd", "riccati_solve"): general,
        ("otml.spd", "_psd_sqrt_factor"): general,
    }
    # The scatter, the Gram target (and gram baseline), the whiten inverse
    # and every learned metric were all formed, and each is its transpose.
    assert {tag for tag, _ in built} == {"scatter", "euclidean", "gram", "whiten", "learned"}
    assert all(np.array_equal(a, a.T) for _, a in built)


@pytest.mark.parametrize("method", ["learned", "gram", "whiten", "euclidean"])
def test_run_task_on_wide_data_decomposes_nothing_beyond_m_plus_n(monkeypatch, method):
    # d = 2048 > m + n = 120, the shape of office features (800-d SURF,
    # 4096-d DeCAF, about 100 points per domain): every fit runs on the
    # span of the points (euclidean on the raw points), so no
    # eigendecomposition is larger than (m + n) x (m + n), and no d x d
    # array is allocated: a 2048 x 2048 eigh would take seconds, and one
    # float64 array 32 MiB, four times the traced peak allowed here.
    rng = np.random.default_rng(17)
    dim, size = 2048, 60
    labels = np.repeat([0, 1], size // 2)
    means = rng.normal(size=(dim, 2))

    def cloud(shift):
        return dt.RawDataset(means[:, labels] + rng.normal(size=(dim, size)) + shift, labels)

    source, train, test = cloud(0.0), cloud(0.3), cloud(0.3)
    shapes = []
    eigh = np.linalg.eigh

    def recorded(mat, *args, **kwargs):
        shapes.append(np.shape(mat))
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    tracemalloc.start()
    try:
        report = adapt.run_task(source, train, test, method, GRID, base_cfg(outer=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.sinkhorn_converged
    assert bool(shapes) == (method in ("whiten", "learned"))
    assert all(max(shape) <= 2 * size for shape in shapes), shapes
    assert peak < dim * dim * 8 / 4, peak


# ---------------------------------------------------------------------------
# full protocol


@pytest.mark.parametrize("dim", [40, 3], ids=["gram-form", "coordinate-form"])
def test_run_task_reports_do_not_depend_on_method_order(monkeypatch, dim):
    # The methods of a round share its span and its transfer; each report
    # is still the one computed from an empty round entry, whichever
    # methods ran before it.
    y = np.arange(12) % 2
    source, train, test = (
        dt.RawDataset(np.random.default_rng(i).normal(size=(dim, 12)) + 3.0 * y, y)
        for i in range(3)
    )
    cfg = base_cfg(outer=2)

    def report(method, fresh=False):
        if fresh:
            monkeypatch.setattr(adapt, "_last_round", None)
        return adapt.run_task(source, train, test, method, GRID, cfg)

    alone = {method: report(method, fresh=True) for method in adapt.METHODS}
    forward = {method: report(method) for method in adapt.METHODS}
    transfer = adapt._last_round.transfer
    assert (transfer.train_factor is not transfer.y) == (dim == 40)
    reverse = {method: report(method) for method in reversed(adapt.METHODS)}
    assert forward == alone and reverse == alone


def test_run_task_identical_clouds_scores_perfectly():
    rng = np.random.default_rng(10)
    cloud = two_blob_cloud(rng)
    report = adapt.run_task(
        cloud, cloud, cloud, "euclidean", [0.01, 100.0], base_cfg()
    )
    assert report.method == "euclidean"
    assert report.lambda_chosen == 0.01
    assert report.train_accuracy == 1.0
    assert report.test_accuracy == 1.0


@pytest.mark.parametrize("dim", [40, 3, 2], ids=["gram-form", "coordinate-form", "two-blob"])
@pytest.mark.parametrize("method", adapt.METHODS)
def test_run_task_matches_manual_pipeline(method, dim):
    # n + 1 < 2d: the transfer takes the Gram order at d = 40, the order in
    # R^d at d = 3 and on the 2-d two-blob clouds.
    if dim == 2:
        rng = np.random.default_rng(11)
        source = two_blob_cloud(rng)
        train = two_blob_cloud(rng, shift=(0.5, -0.3))
        test = two_blob_cloud(rng, shift=(0.5, -0.3))
    else:
        source, train, test = round_clouds(dim)
    grid = [0.05, 0.5]
    cfg = base_cfg()
    report = adapt.run_task(source, train, test, method, grid, cfg, seed=3)

    p = uniform(source.size)
    q = uniform(train.size)
    best = None
    for lam in sorted(grid):
        (fit,) = adapt.fit_plan(source.features, train.features, p, q, method, [lam], cfg)
        plan = fit.plan
        projected = barycentric_map(plan, train.features, p)
        pred = knn1_predict(projected, source.labels, train.features)
        acc = adapt.accuracy(pred, train.labels)
        if best is None or acc > best[0]:
            best = (acc, lam, projected)
    test_pred = knn1_predict(best[2], source.labels, test.features)

    assert report.seed == 3
    assert report.lambda_chosen == best[1]
    assert report.train_accuracy == best[0]
    assert report.test_accuracy == adapt.accuracy(test_pred, test.labels)


def test_run_task_tie_takes_smaller_lambda():
    rng = np.random.default_rng(13)
    cloud = two_blob_cloud(rng)
    # both tiny weights recover the identity matching, tying at accuracy 1
    report = adapt.run_task(cloud, cloud, cloud, "euclidean", [0.02, 0.005], base_cfg())
    assert report.lambda_chosen == 0.005


def test_run_task_deterministic():
    rng = np.random.default_rng(14)
    source = two_blob_cloud(rng)
    train = two_blob_cloud(rng, shift=(0.3, 0.1))
    test = two_blob_cloud(rng, shift=(0.3, 0.1))
    cfg = base_cfg(outer=3)
    a = adapt.run_task(source, train, test, "learned", [0.1, 0.5], cfg)
    b = adapt.run_task(source, train, test, "learned", [0.1, 0.5], cfg)
    assert a == b


def test_run_task_learned_runs_end_to_end():
    rng = np.random.default_rng(15)
    source = two_blob_cloud(rng)
    train = two_blob_cloud(rng, shift=(0.4, 0.4))
    test = two_blob_cloud(rng, shift=(0.4, 0.4))
    report = adapt.run_task(source, train, test, "learned", [0.2, 1.0], base_cfg(outer=4))
    assert report.method == "learned"
    assert 0.0 <= report.test_accuracy <= 1.0
    assert report.lambda_chosen in (0.2, 1.0)


def test_run_task_rejects_empty_grid():
    rng = np.random.default_rng(16)
    cloud = two_blob_cloud(rng)
    with pytest.raises(ValueError):
        adapt.run_task(cloud, cloud, cloud, "euclidean", [], base_cfg())


@pytest.mark.parametrize("split,points", [
    ("source", 12), ("target-train", 12), ("target-test", 12), ("target-test", 1),
    ("source", 0), ("target-train", 0), ("target-test", 0),
])
def test_run_task_rejects_an_unlabeled_split_before_any_solve(monkeypatch, split, points):
    # Refused before the round is built: otherwise an unlabeled source
    # fits the whole grid before it fails, and a one-point target split
    # scores 0.0 against a missing label. A labeled split of 0 points is
    # refused too: an empty source or target-train divides by zero, and an
    # empty target-test fails only after the whole grid is fitted.
    rng = np.random.default_rng(24)
    clouds = [two_blob_cloud(rng) for _ in range(3)]
    index = ("source", "target-train", "target-test").index(split)
    cloud = clouds[index]
    if points:
        clouds[index], problem = dt.RawDataset(cloud.features[:, :points]), "unlabeled"
    else:
        clouds[index], problem = dt.RawDataset(cloud.features[:, :0], cloud.labels[:0]), "empty"
    calls = []
    monkeypatch.setattr(gml.sk, "solve", lambda *args: calls.append("solve"))
    monkeypatch.setattr(adapt, "_round", lambda *args: calls.append("round"))
    with pytest.raises(ValueError, match=f"the {split} split is {problem}"):
        adapt.run_task(*clouds, "learned", GRID, base_cfg())
    assert calls == []


# ---------------------------------------------------------------------------
# invariants


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_barycentric_mass_conservation_property(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    n = int(rng.integers(2, 7))
    plan = rng.random((m, n)) + 1e-3
    plan /= plan.sum()
    p = plan.sum(axis=1)
    q = plan.sum(axis=0)
    z = rng.normal(size=(3, n))
    mapped = barycentric_map(plan, z, p)
    np.testing.assert_allclose(mapped @ p, z @ q, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_knn1_idempotent_on_predictions(seed):
    # relabeling the training points by their own predictions is a no-op
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(2, 8))
    labels = rng.integers(0, 5, size=8)
    once = knn1_predict(pts, labels, pts)
    twice = knn1_predict(pts, once, pts)
    np.testing.assert_array_equal(once, twice)
