"""Symmetries of the paper's problem, which need no reference output.

The costs (Euclidean, Gram, whitened, learned Mahalanobis) are built from
inner products and differences of the points, with every ridge and every
normalization relative to the data's own scale. So the problem is
unchanged when all three clouds are scaled, rotated or relabeled:

- Scaling by a power of two multiplies every floating-point step by an
  exact power of two, and the median normalization divides 4^k out
  exactly, so plans and reports are bitwise those of the unscaled
  problem.
- A rotation, or a new order of the source points, changes the rounding
  of every step but not the problem. A solve stops once its marginals
  are within ``TOL`` in L1, so two plans of one problem are held to that
  tolerance in L1. Observed on problems 0-29 of this generator (120
  cases per property): at most 6.2e-10 for both, and at most 1.0e-11
  (rotation) and 2.8e-12 (source order) on the 8 problems run here. The
  1-NN decisions, and so the reports, are equal.

Each property also runs on problems drawn by ``hypothesis`` (index 8
and up, 30 examples each): scaling with powers 2^k, k in [-7, 5], k != 0;
rotation and source order with a drawn seed for the rotation or the
order, on a fixed (derandomized) set of draws. On random draws these two
do not always hold. Where two sources of different labels project onto
one point (at lambda = 0.05 plan rows can collapse onto one target
point), the 1-NN rule gives the tie to the lower source index, so the
source order, or a rounding difference, picks the label: the reports
differed on 9 of 1300 draws under source order and on 1 of 4300 under
rotation. And the solver tolerance compounds over the learned sweeps: one
of 4300 rotated draws moved a learned plan by 2.5e-7 in L1.

A change that breaks a symmetry fails here: an absolute ridge in place
of ``gml._ridge``'s relative one fails the scaling test, a cost term in
raw coordinates the rotation test, and index-dependent source weights
the source-order test.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from otml import adapt, gml
from otml import data as dt
from otml import sinkhorn as sk

GRID = [0.05, 0.2, 0.5, 1.0, 2.0]
TOL = 1e-7
CFG = gml.GmlConfig(sinkhorn=sk.SinkhornConfig(lam=GRID[0], tol=TOL), outer_iters=3)
# d = 40 exceeds m + n (a span with a complement) and takes the Gram form
# of the transfer; d = 3 takes neither; d = 8 takes the Gram form only
# for n < 15.
PROBLEMS = range(8)


def problem(index):
    """Labeled source, target-train and target-test clouds of 6 to 15 points.

    Three classes, the target shifted and stretched; odd problems sit at
    a pixel offset of 128.
    """
    rng = np.random.default_rng([index, 26])
    dim = int(rng.choice([3, 8, 40]))
    offset = 128.0 if index % 2 else 0.0
    stretch = rng.uniform(0.5, 2.0, size=(dim, 1))
    clouds = []
    for side in range(3):
        labels = rng.integers(0, 3, size=int(rng.integers(6, 16)))
        points = rng.normal(size=(dim, labels.size)) + 2.0 * labels
        if side:
            points = stretch * points + 1.0
        clouds.append(dt.RawDataset(offset + points, labels))
    return clouds


def moved(clouds, move, order=None):
    """The clouds with ``move`` applied to every feature matrix, and the
    source points taken in ``order``."""
    source, *target = clouds
    if order is not None:
        source = dt.RawDataset(source.features[:, order], source.labels[order])
    return [dt.RawDataset(move(c.features), c.labels) for c in (source, *target)]


@pytest.fixture
def seen(monkeypatch):
    # Every plan that run_task scores, in the order scored.
    plans = []
    train_scores = adapt._Transfer.train_scores

    def recorded(transfer, plan, p):
        plans.append(plan)
        return train_scores(transfer, plan, p)

    monkeypatch.setattr(adapt._Transfer, "train_scores", recorded)
    return plans


def outcomes(clouds, seen):
    """Per method, the report and the plan of every lambda of the grid."""
    found = {}
    for method in adapt.METHODS:
        seen.clear()
        found[method] = (adapt.run_task(*clouds, method, GRID, CFG), list(seen))
    return found


_UNMOVED = {}


def unmoved(index, seen):
    """The clouds of problem ``index`` and their outcomes, computed once."""
    if index not in _UNMOVED:
        clouds = problem(index)
        _UNMOVED[index] = clouds, outcomes(clouds, seen)
    return _UNMOVED[index]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def check_scaling(clouds, want, power, seen):
    """Scaled by 2^power, the clouds give the reports and plans ``want``."""
    got = outcomes(moved(clouds, lambda f: f * 2.0**power), seen)
    for method, (report, plans) in got.items():
        assert report == want[method][0], (power, method)
        assert len(plans) == len(GRID), method
        assert all(map(same_bits, plans, want[method][1])), (power, method)


@pytest.mark.parametrize("index", PROBLEMS)
def test_power_of_two_scaling_keeps_plans_and_reports_bitwise(seen, index):
    clouds, want = unmoved(index, seen)
    for power in (5, -7):
        check_scaling(clouds, want, power, seen)


# The fixture's patch holds for the whole test and ``outcomes`` clears its
# list, so one fixture serves every example.
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(index=st.integers(PROBLEMS.stop, 2**31),
       power=st.integers(-7, 5).filter(lambda k: k != 0))
def test_power_of_two_scaling_is_bitwise_on_drawn_problems(seen, index, power):
    clouds = problem(index)
    check_scaling(clouds, outcomes(clouds, seen), power, seen)


def check_rotation(clouds, want, seed, seen):
    """Rotated by a random orthogonal matrix drawn from ``seed``, the clouds
    give the reports ``want`` and its plans within ``TOL`` in L1."""
    dim = clouds[0].features.shape[0]
    rotation = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))[0]
    got = outcomes(moved(clouds, lambda f: rotation @ f), seen)
    for method, (report, plans) in got.items():
        assert report == want[method][0], method
        assert len(plans) == len(GRID), method
        for plan, before in zip(plans, want[method][1]):
            assert np.abs(plan - before).sum() <= TOL, method


def check_order(clouds, want, seed, seen):
    """With the source points in a random order drawn from ``seed``, the
    clouds give the reports ``want`` and its plans' rows in that order,
    within ``TOL`` in L1."""
    order = np.random.default_rng(seed).permutation(clouds[0].size)
    got = outcomes(moved(clouds, np.copy, order), seen)
    for method, (report, plans) in got.items():
        assert report == want[method][0], method
        assert len(plans) == len(GRID), method
        for plan, before in zip(plans, want[method][1]):
            assert np.abs(plan - before[order]).sum() <= TOL, method


@pytest.mark.parametrize("index", PROBLEMS)
def test_rotation_keeps_reports_and_plans_within_tol(seen, index):
    clouds, want = unmoved(index, seen)
    check_rotation(clouds, want, [index, 27], seen)


# Derandomized: on random draws both properties fail now and then (see the
# module docstring), and a tier-1 gate must not fail by chance.
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(index=st.integers(PROBLEMS.stop, 2**31), seed=st.integers(0, 2**31))
def test_rotation_keeps_reports_and_plans_within_tol_on_drawn_problems(seen, index, seed):
    clouds = problem(index)
    check_rotation(clouds, outcomes(clouds, seen), seed, seen)


@pytest.mark.parametrize("index", PROBLEMS)
def test_source_order_permutes_plan_rows_within_tol(seen, index):
    clouds, want = unmoved(index, seen)
    check_order(clouds, want, [index, 28], seen)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(index=st.integers(PROBLEMS.stop, 2**31), seed=st.integers(0, 2**31))
def test_source_order_permutes_plan_rows_within_tol_on_drawn_problems(seen, index, seed):
    clouds = problem(index)
    check_order(clouds, outcomes(clouds, seen), seed, seen)
