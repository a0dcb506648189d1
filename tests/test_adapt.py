import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otml import adapt, gml
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
# barycentric projection


def test_barycentric_product_coupling_collapses_to_target_mean():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 5))
    p = uniform(4)
    q = rng.random(5)
    q /= q.sum()
    mapped = adapt.barycentric_map(np.outer(p, q), z, p)
    np.testing.assert_allclose(mapped, np.tile((z @ q)[:, None], (1, 4)), atol=1e-12)


def test_barycentric_permutation_coupling_picks_matched_target():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(2, 4))
    perm = np.array([2, 0, 3, 1])
    plan = np.zeros((4, 4))
    plan[np.arange(4), perm] = 0.25
    mapped = adapt.barycentric_map(plan, z, uniform(4))
    np.testing.assert_allclose(mapped, z[:, perm], atol=1e-12)


def test_barycentric_matches_row_loop():
    rng = np.random.default_rng(2)
    plan = rng.random((5, 6))
    plan /= plan.sum()
    p = plan.sum(axis=1)
    z = rng.normal(size=(3, 6))
    mapped = adapt.barycentric_map(plan, z, p)
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
    mapped = adapt.barycentric_map(plan, z, p)
    np.testing.assert_allclose(mapped @ p, z @ q, atol=1e-10)


def test_barycentric_zero_mass_rows_fall_back_to_mean():
    z = np.array([[0.0, 2.0], [0.0, 4.0]])
    plan = np.array([[0.5, 0.5], [0.0, 0.0]])
    p = np.array([1.0, 0.0])
    with pytest.warns(RuntimeWarning):
        mapped = adapt.barycentric_map(plan, z, p)
    np.testing.assert_allclose(mapped[:, 0], [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(mapped[:, 1], [1.0, 2.0], atol=1e-12)


def test_barycentric_shape_error():
    with pytest.raises(ValueError):
        adapt.barycentric_map(np.zeros((2, 3)), np.zeros((2, 4)), uniform(2))


# ---------------------------------------------------------------------------
# 1-NN classifier


def test_knn1_exact_match():
    pred = adapt.knn1_predict(
        np.array([[0.0, 1.0, 5.0]]), np.array([3, 1, 4]), np.array([[5.0, 0.0, 1.0]])
    )
    np.testing.assert_array_equal(pred, [4, 3, 1])


def test_knn1_tie_goes_to_lower_index():
    pred = adapt.knn1_predict(np.array([[0.0, 2.0]]), np.array([7, 9]), np.array([[1.0]]))
    assert pred[0] == 7


def test_knn1_matches_brute_force():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(3, 8))
    labels = rng.integers(0, 4, size=8)
    queries = rng.normal(size=(3, 10))
    pred = adapt.knn1_predict(points, labels, queries)
    for k in range(10):
        dists = ((points - queries[:, k : k + 1]) ** 2).sum(axis=0)
        assert pred[k] == labels[int(np.argmin(dists))]


def test_knn1_on_training_points_recovers_labels():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(2, 6))
    labels = rng.integers(0, 3, size=6)
    np.testing.assert_array_equal(adapt.knn1_predict(pts, labels, pts), labels)


def test_knn1_errors():
    with pytest.raises(ValueError, match="query dimension"):
        adapt.knn1_predict(np.zeros((2, 1)), np.array([0]), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="empty"):
        adapt.knn1_predict(np.zeros((2, 0)), np.array([], dtype=int), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="2 labels for 3 points"):
        adapt.knn1_predict(np.zeros((2, 3)), np.array([0, 1]), np.zeros((2, 2)))


def test_accuracy_basics():
    assert adapt.accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert adapt.accuracy([1, 2, 3], [3, 2, 1]) == pytest.approx(1 / 3)
    assert adapt.accuracy([0], [1]) == 0.0
    with pytest.raises(ValueError):
        adapt.accuracy([1, 2], [1])
    with pytest.raises(ValueError):
        adapt.accuracy([], [])


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
        adapt.fit_plan(x, x, uniform(4), uniform(4), "cosine", 0.1, base_cfg())


@pytest.mark.parametrize("method", adapt.METHODS)
def test_fit_plan_produces_feasible_plan(method):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 6))
    z = rng.normal(size=(3, 5)) + 1.0
    p, q = uniform(6), uniform(5)
    plan = adapt.fit_plan(x, z, p, q, method, 0.1, base_cfg()).plan
    row_err, col_err = sk.marginal_error(plan, p, q)
    assert max(row_err, col_err) < 1e-8
    assert np.all(plan >= 0)


def test_fit_plan_euclidean_invariant_to_feature_scale():
    # median normalization makes the baseline plan independent of units
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 5))
    z = rng.normal(size=(2, 5)) + 1.0
    p = q = uniform(5)
    a = adapt.fit_plan(x, z, p, q, "euclidean", 0.2, base_cfg()).plan
    b = adapt.fit_plan(1000.0 * x, 1000.0 * z, p, q, "euclidean", 0.2, base_cfg()).plan
    np.testing.assert_allclose(a, b, atol=1e-9)


# ---------------------------------------------------------------------------
# full protocol


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


def test_run_task_matches_manual_pipeline():
    rng = np.random.default_rng(11)
    source = two_blob_cloud(rng)
    train = two_blob_cloud(rng, shift=(0.5, -0.3))
    test = two_blob_cloud(rng, shift=(0.5, -0.3))
    grid = [0.05, 0.5]
    cfg = base_cfg()
    report = adapt.run_task(source, train, test, "gram", grid, cfg, seed=3)

    p = uniform(source.size)
    q = uniform(train.size)
    best = None
    for lam in sorted(grid):
        plan = adapt.fit_plan(source.features, train.features, p, q, "gram", lam, cfg).plan
        projected = adapt.barycentric_map(plan, train.features, p)
        pred = adapt.knn1_predict(projected, source.labels, train.features)
        acc = adapt.accuracy(pred, train.labels)
        if best is None or acc > best[0]:
            best = (acc, lam, projected)
    test_pred = adapt.knn1_predict(best[2], source.labels, test.features)

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
    mapped = adapt.barycentric_map(plan, z, p)
    np.testing.assert_allclose(mapped @ p, z @ q, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_knn1_idempotent_on_predictions(seed):
    # relabeling the training points by their own predictions is a no-op
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(2, 8))
    labels = rng.integers(0, 5, size=8)
    once = adapt.knn1_predict(pts, labels, pts)
    twice = adapt.knn1_predict(pts, once, pts)
    np.testing.assert_array_equal(once, twice)
