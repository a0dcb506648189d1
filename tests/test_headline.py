"""The headline claim on the benchmark's seeded mixture: under label skew,
the learned metric beats the Euclidean one.

The pools come from ``benchmark/workloads.py`` (imported read-only) and
each round is drawn as the benchmark's ``Runner._sample`` draws it: a
uniform source sample and two disjoint target samples skewed onto the
round's class. Both cases keep the benchmark's generator, grid and
criterion-7 Sinkhorn settings as they are. At d=64 the learned metric
wins clearly. At the paper's pixel dimension (d=784 > m+n) it trails,
which stays visible as a strict xfail: a fix shows up as an XPASS.
"""

import importlib.util
import statistics
from pathlib import Path

import numpy as np
import pytest

from otml import adapt, gml
from otml import data as dt
from otml import sinkhorn as sk

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
)
wl = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wl)


def _mean_test_accuracy(dim, size, outer_iters, rounds, seed, pixels):
    """Mean test accuracy (percent) of learned and euclidean over the rounds."""
    cfg = gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(
            lam=1.0, tol=wl.SINKHORN_TOL, max_iter=wl.SINKHORN_MAX_ITER
        ),
        outer_iters=outer_iters,
        d_choice=wl.D_CHOICE,
        objective_rtol=wl.OBJECTIVE_RTOL,
    )
    src, tgt = wl.make_pools(seed, dim, 3 * size, pixels)
    source, target = dt.RawDataset(*src), dt.RawDataset(*tgt)
    acc = {"learned": [], "euclidean": []}
    for r in range(rounds):
        mix = np.random.SeedSequence([wl.draw_seed(seed, r), wl.SKEW_PERCENT])
        s_src, s_tgt = (int(v) for v in mix.generate_state(2))
        spec = dt.SkewSpec(r % wl.CLASSES, float(wl.SKEW_PERCENT), size)
        x = dt.uniform_sample(source, size, s_src)
        zt, ze = dt.disjoint_split(target, spec, spec, s_tgt)
        for method in acc:
            rep = adapt.run_task(x, zt, ze, method, wl.GRID, cfg, seed=r)
            acc[method].append(rep.test_accuracy)
    return {m: 100.0 * statistics.fmean(v) for m, v in acc.items()}


def test_learned_beats_euclidean_by_five_points_at_d64():
    acc = _mean_test_accuracy(64, 150, outer_iters=8, rounds=5, seed=1, pixels=False)
    print(f"d=64: learned {acc['learned']:.1f} %, euclidean {acc['euclidean']:.1f} %")
    assert acc["learned"] - acc["euclidean"] >= 5.0


@pytest.mark.xfail(
    strict=True, reason="at pixel scale with d > m+n the learned metric trails"
)
def test_learned_beats_euclidean_at_d784_pixel_scale():
    acc = _mean_test_accuracy(784, 200, outer_iters=1, rounds=4, seed=1, pixels=True)
    print(f"d=784: learned {acc['learned']:.1f} %, euclidean {acc['euclidean']:.1f} %")
    assert acc["learned"] >= acc["euclidean"]
