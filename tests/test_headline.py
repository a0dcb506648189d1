"""The headline claim on the benchmark's seeded mixture: at skew 50 %
and d=64, the learned metric beats the Euclidean one.

The pools come from ``benchmark/workloads.py`` (imported read-only) and
each round is drawn as the benchmark's ``Runner._sample`` draws it: a
uniform source sample and two disjoint target samples in which the
round's class takes 50 % of the mass. Both cases keep the benchmark's
generator, grid and criterion-7 Sinkhorn settings as they are. At d=64
the learned metric wins clearly. Only skew 50 % is checked, and the gain
is not owed to the skew: ROADMAP item 5's paired probe found it as large
at skew 10 %, where the 10 classes make the target labels uniform (+9.33
against +8.57 points at 50 %). At the paper's pixel dimension
(d=784 > m+n) the learned metric trails (70.1 against 73.25 %), which
stays visible as a strict xfail: a fix shows up as an XPASS.

The d=784 miss is an estimation limit of the full metric at this sample
size, not a defect found in the code. There is much to learn: the oracle
diagonal metric diag(1/sigma^2), from the generator's noise scales,
scores 97.5 % on the same rounds. But the plan-weighted differences that
the full metric is fitted from span at most m+n-1 = 399 of the 784
directions, and a rotation-equivariant estimator can only reweight the
sample scatter's eigenvalues, whose eigenvectors are mostly noise here.
Rotating both pools by one orthogonal matrix leaves the learned and the
Euclidean scores exactly as they are.

The fit runs on the span of the points (r = m+n = 400 coordinates), and
the learned metric is alpha * I on the (d - r) = 384-dimensional
complement of that span. That complement value never reaches a cost:
every difference x_i - z_j lies in the span, so the costs, and with them
the plans and the accuracies, depend on the r x r part A_r alone, and
alpha only adds a constant to the objective. The gap therefore comes from
A_r, the inverse square root of a 399-dimensional scatter estimated from
400 points.
"""

import importlib.util
import statistics
from pathlib import Path

import numpy as np
import pytest

from otml import adapt, cli, gml
from otml import data as dt
from otml import sinkhorn as sk

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
)
wl = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wl)


def _config(outer_iters):
    return gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(
            lam=1.0, tol=wl.SINKHORN_TOL, max_iter=wl.SINKHORN_MAX_ITER
        ),
        outer_iters=outer_iters,
        d_choice=wl.D_CHOICE,
        objective_rtol=wl.OBJECTIVE_RTOL,
    )


def _rounds(dim, size, rounds, seed, pixels):
    """(source, target-train, target-test) of each round, as the benchmark draws them."""
    src, tgt = wl.make_pools(seed, dim, 3 * size, pixels)
    source, target = dt.RawDataset(*src), dt.RawDataset(*tgt)
    for r in range(rounds):
        entropy = [wl.draw_seed(seed, r), wl.SKEW_PERCENT]
        yield dt.skew_round(source, target, size, size, r % wl.CLASSES, wl.SKEW_PERCENT, entropy)


def _mean_test_accuracy(dim, size, outer_iters, rounds, seed, pixels):
    """Mean test accuracy (percent) of learned and euclidean over the rounds."""
    cfg = _config(outer_iters)
    acc = {"learned": [], "euclidean": []}
    for r, (x, zt, ze) in enumerate(_rounds(dim, size, rounds, seed, pixels)):
        for method in acc:
            rep = adapt.run_task(x, zt, ze, method, wl.GRID, cfg, seed=r)
            acc[method].append(rep.test_accuracy)
    return {m: 100.0 * statistics.fmean(v) for m, v in acc.items()}


def test_benchmark_settings_are_the_cli_protocol():
    # The benchmark keeps its own copy of otml's default protocol, which must
    # not drift. skew-n320 and highdim-d784 run one outer sweep by design.
    defaults = cli.RunConfig()
    assert wl.GRID == defaults.lambda_grid
    assert wl.SINKHORN_TOL == defaults.sinkhorn_tol
    assert wl.SINKHORN_MAX_ITER == defaults.sinkhorn_max_iter
    assert wl.OBJECTIVE_RTOL == defaults.objective_rtol
    assert wl.D_CHOICE == defaults.d_choice
    assert wl.FULL["skew-cli-n150"].outer_iters == defaults.outer_iters


def test_rounds_are_the_benchmark_runners_draws():
    # The rounds above are the ones the benchmark measures: on the skew-n320
    # smoke workload, every round equals Runner._sample's to the bit.
    work = wl.SMOKE["skew-n320"]
    otml = {"adapt": adapt, "data": dt, "gml": gml, "sinkhorn": sk}
    runner = wl.Runner(work, 1, None, otml, None, None)
    ours = _rounds(work.dim, work.size, 3, seed=1, pixels=work.pixels)
    for r, clouds in enumerate(ours):
        for mine, theirs in zip(clouds, runner._sample(r), strict=True):
            assert mine.features.tobytes() == theirs.features.tobytes()
            assert np.array_equal(mine.labels, theirs.labels)
            assert np.array_equal(mine.indices, theirs.indices)


def test_metric_updates_meet_criterion_1_at_d784(monkeypatch):
    # Criterion 1's bound, ||A C A - D|| / ||D|| < 1e-8, on every metric
    # update of a learned task at the paper's pixel dimension. The updates
    # solve on the r = 399 span coordinates; the 784 x 784 dense solve
    # missed the bound here (1.43e-8).
    residuals = []
    update = gml.update_metric

    def checked(cg, d):
        a = update(cg, d)
        residuals.append(np.linalg.norm(a @ cg @ a - d) / np.linalg.norm(d))
        return a

    monkeypatch.setattr(gml, "update_metric", checked)
    ((x, zt, ze),) = _rounds(784, 200, 1, seed=1, pixels=True)
    adapt.run_task(x, zt, ze, "learned", wl.GRID, _config(1))
    assert residuals and max(residuals) < 1e-8, max(residuals)


def test_learned_beats_euclidean_by_five_points_at_d64():
    acc = _mean_test_accuracy(64, 150, outer_iters=8, rounds=5, seed=1, pixels=False)
    print(f"d=64: learned {acc['learned']:.1f} %, euclidean {acc['euclidean']:.1f} %")
    assert acc["learned"] - acc["euclidean"] >= 5.0


@pytest.mark.xfail(
    strict=True,
    reason="d=784 > m+n: the full metric sees at most m+n-1 difference "
    "directions and trails Euclidean; the oracle diagonal metric scores 97.5 %",
)
def test_learned_beats_euclidean_at_d784_pixel_scale():
    acc = _mean_test_accuracy(784, 200, outer_iters=1, rounds=4, seed=1, pixels=True)
    print(f"d=784: learned {acc['learned']:.1f} %, euclidean {acc['euclidean']:.1f} %")
    assert acc["learned"] >= acc["euclidean"]
