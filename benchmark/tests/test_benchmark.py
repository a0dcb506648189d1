"""Tests of the benchmark itself (not of otml).

    python3 -m pytest -q benchmark/tests
"""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OTML = run.import_otml()
WORKLOADS = sorted(workloads.FULL)


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    return lines, json.loads(lines[-1]), captured.err


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_end_to_end(capsys, name):
    lines, result, err = _result(capsys, "--workload", name, "--seed", "3", "--seconds", "0", "--smoke")
    # One round; whiten fails in it on the pixel-scale workload.
    whiten_fails = ("whiten", "PositivityError") in workloads.SMOKE[name].known_failures
    assert result["correct"] and result["failed"] == whiten_fails and result["attempted"] >= 2
    assert ("known failure: whiten -> PositivityError" in err) == whiten_fails
    assert list(result["metrics"]) == [m for m, _ in run.END_TO_END]
    for metric, unit in run.END_TO_END:
        assert result["metrics"][metric]["unit"] == unit
        assert f"{metric} " in "\n".join(lines[:-1])
    assert "baseline_task_s " in "\n".join(lines[:-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_traced_through_every_wrapper(capsys, monkeypatch, name):
    seen = []
    install = tracing.Tracer.install

    def spy(self, modules):
        install(self, modules)
        seen.append([(m.__name__, a) for m, a, _ in self._installed])

    monkeypatch.setattr(tracing.Tracer, "install", spy)
    _, result, _ = _result(capsys, "--workload", name, "--seed", "3", "--seconds", "0", "--smoke", "--trace", "1")
    # One round, run plain and then traced; only known failures may occur.
    whiten_fails = ("whiten", "PositivityError") in workloads.SMOKE[name].known_failures
    assert result["correct"] and result["failed"] >= 2 * whiten_fails
    assert list(result["metrics"]) == [m for m, _ in run.PER_LAYER]
    targets = [(m.__name__, a) for m, a, _ in tracing.wrap_targets(OTML)]
    assert seen and all(s == targets for s in seen)
    assert ("otml.gml", "riccati_solve") in targets
    assert ("otml.gml", "spd_inv") in targets
    assert ("otml.sinkhorn", "root") in targets
    assert result["metrics"]["sinkhorn.sweeps"]["value"] > 0
    assert result["metrics"]["gml.update_metric.calls"]["value"] > 0
    if workloads.FULL[name].via_cli:
        assert result["metrics"]["data.load_matrix.bytes"]["value"] > 0
        assert result["metrics"]["cli.bytes_written"]["value"] > 0
    assert tracing.installed_wrappers(OTML) == []


def test_self_time_arithmetic():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9];
    # e [11, 12] is a second root.
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["b", 11.0, 12.0, -1],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    agg = tracing.aggregate(spans)
    assert agg["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert agg["a"]["self_s"] == 3.0
    assert tracing.top_level_seconds(spans) == 11.0
    assert tracing.top_level_seconds(spans, since=1) == 1.0


def test_cli_self_time_excludes_adapt_and_data_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["data.load_matrix", 0.0, 1.0, 0],
        ["adapt.run_task", 1.0, 8.0, 0],
        ["gml.fit", 2.0, 7.0, 2],
        ["cli.write", 8.0, 9.0, 0],
        [tracing.CHECK_SPAN, 9.0, 9.5, 0],
    ]
    assert run.cli_self_seconds(spans) == pytest.approx(1.5)


def test_tracer_restores_every_name():
    originals = {
        (m.__name__, a): getattr(m, a) for m, a, _ in tracing.wrap_targets(OTML)
    }
    tracer = tracing.Tracer()
    tracer.install(OTML)
    try:
        assert tracing.installed_wrappers(OTML)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers(OTML) == []
    for m, a, _ in tracing.wrap_targets(OTML):
        assert getattr(m, a) is originals[(m.__name__, a)]


class _ProbeRunner:
    def __init__(self):
        self.seen = []

    def run_round(self, index):
        self.seen.append(tracing.installed_wrappers(OTML))
        return workloads.Round(index, 0.0)


def test_untraced_run_has_no_wrapper_installed():
    probe = _ProbeRunner()
    run.run_untraced(probe, 0.0, OTML)
    assert probe.seen == [[]]
    tracer = tracing.Tracer()
    tracer.install(OTML)
    try:
        with pytest.raises(RuntimeError, match="wrappers still installed"):
            run.run_untraced(_ProbeRunner(), 0.0, OTML)
    finally:
        tracer.uninstall()


def test_report_store_flags_changed_report(tmp_path):
    path = str(tmp_path / "r.json")
    checks = workloads.Checks()
    first = workloads.ReportStore(path)
    first.check(0, workloads.Task("learned", 1.0, [0.5, 0.9, 0.8], False), checks)
    first.save()
    again = workloads.ReportStore(path)
    same = workloads.Task("learned", 2.0, [0.5, 0.9, 0.8], False)
    changed = workloads.Task("learned", 2.0, [0.5, 0.9, 0.7], False)
    again.check(0, same, checks)
    assert not checks.failures and not same.failed
    again.check(0, changed, checks)
    assert changed.failed and len(checks.failures) == 1


def _timed(method, call, known=(), checks=None):
    checks = checks or workloads.Checks()
    runner = SimpleNamespace(w=SimpleNamespace(known_failures=known), checks=checks)
    return workloads.Runner._timed(runner, method, call)


def test_only_the_recorded_exception_is_a_known_failure():
    def positivity():
        raise OTML["spd"].PositivityError("floor")

    known = (("whiten", "PositivityError"),)
    task = _timed("whiten", positivity, known)
    assert task.failed and task.known and task.outcome == "PositivityError"
    assert not _timed("gram", positivity, known).known
    assert not _timed("whiten", positivity).known

    def other():
        raise ValueError("boom")

    task = _timed("whiten", other, known)
    assert task.failed and not task.known

    checks = workloads.Checks()
    known = (("learned", "metric_residual"),)
    task = _timed("learned", lambda: checks.fail("metric_residual", "1.7e-08 >= 1e-08"), known, checks)
    assert task.failed and task.known
    task = _timed("learned", lambda: checks.fail("marginal_error", "2e-07 >= 1e-07"), known, checks)
    assert task.failed and not task.known
    task = _timed("learned", lambda: None, known, checks)
    assert not task.failed and not task.known


def test_whiten_fails_on_the_pixel_scale_pools():
    # The defect the high-dimensional workload must keep showing: the
    # absolute floor of whiten falls under the relative one of eigh_spd.
    (x, _), (z, _) = workloads.make_pools(0, 784, 20, pixels=True)
    with pytest.raises(OTML["spd"].PositivityError):
        OTML["gml"].baseline_metric("whiten", x, z)


def test_accuracies_cover_the_first_rounds_and_score_failures_zero():
    def rnd(index, learned, euclidean):
        tasks = [workloads.Task("euclidean", 1.0, [1.0, 1.0, euclidean], False)]
        if learned is None:
            tasks.append(workloads.Task("learned", 2.0, "NumericalError", True))
        else:
            tasks.append(workloads.Task("learned", 2.0, [1.0, 1.0, learned], False))
        return workloads.Round(index, 3.0, tasks)

    rounds = [rnd(0, None, 0.5), rnd(1, 0.8, 0.7), rnd(2, 0.1, 0.1)]
    metrics, _ = run.end_to_end(rounds, 0.5, min_rounds=2)
    assert metrics["test_acc.learned"] == pytest.approx(40.0)
    assert metrics["test_acc.euclidean"] == pytest.approx(60.0)
    metrics, _ = run.end_to_end(rounds[:1], 0.5, min_rounds=2)
    assert metrics["test_acc.learned"] == 0.0


def test_report_store_is_keyed_by_the_source(tmp_path, monkeypatch):
    for part in ("src/otml", "benchmark"):
        (tmp_path / part).mkdir(parents=True)
    (tmp_path / "src/otml/sinkhorn.py").write_text("x = 1\n")
    (tmp_path / "benchmark/run.py").write_text("y = 1\n")
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    monkeypatch.setattr(run, "HERE", str(tmp_path / "benchmark"))
    first = run.source_hash()
    assert run.source_hash() == first
    (tmp_path / "src/otml/sinkhorn.py").write_text("x = 2\n")
    assert run.source_hash() != first


def test_run_pins_the_malloc_policy(tmp_path):
    saved = tmp_path / "r.json"
    argv = ["--workload", "skew-n320", "--seed", "3", "--seconds", "0", "--smoke", "--save", str(saved)]
    env = {k: v for k, v in os.environ.items() if k not in run.MALLOC_ENV}
    subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *argv], env=env, check=True, capture_output=True)
    stamp = json.loads(saved.read_text())["stamp"]
    assert stamp["malloc"] == " ".join(f"{k}={v}" for k, v in run.MALLOC_ENV.items())
    assert stamp["blas_threads"] == "1" and len(stamp["source"]) == 16


def test_inputs_follow_the_seed():
    a = workloads.make_pools(5, 8, 12)
    b = workloads.make_pools(5, 8, 12)
    c = workloads.make_pools(6, 8, 12)
    assert all((x == y).all() for x, y in zip(a[0] + a[1], b[0] + b[1]))
    assert not (a[0][0] == c[0][0]).all()
    assert workloads.draw_seed(5, 1) == workloads.draw_seed(5, 1) != workloads.draw_seed(5, 2)


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS


def test_all_runs_every_workload_in_its_own_process(capfd):
    assert run.main(["--workload", "all", "--seed", "3", "--seconds", "0", "--smoke"]) == 0
    out = capfd.readouterr().out.splitlines()
    assert [line[3:] for line in out if line.startswith("== ")] == list(workloads.FULL)
    results = [json.loads(line) for line in out if line.startswith("{")]
    assert len(results) == 3 and all(r["correct"] for r in results)


def test_compare_refuses_runs_whose_stamps_differ(tmp_path):
    import compare

    env = {"nproc": 2, "cpu": "x", "python": "3", "numpy": "2", "scipy": "1", "blas": "b", "blas_threads": "1"}
    result = {"correct": True, "attempted": 2, "failed": 0, "metrics": {"run_s": {"value": 1.0, "unit": "s"}}}
    for side, commit, nproc in (("base", "a", 2), ("new", "b", 2), ("other", "b", 4)):
        (tmp_path / side).mkdir()
        stamp = dict(env, nproc=nproc, seed=1, commit=commit)
        saved = {"workload": "skew-n320", "trace": 0, "stamp": stamp, "result": result}
        (tmp_path / side / "r.json").write_text(json.dumps(saved))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 0
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "other")]) == 1


def test_compare_reports_failures_and_missing_metrics(tmp_path, capsys):
    import compare

    env = {"nproc": 2, "cpu": "x", "python": "3", "numpy": "2", "scipy": "1", "blas": "b", "blas_threads": "1"}
    metrics = {"run_s": {"value": 1.0, "unit": "s"}, "test_acc.learned": {"value": 60.0, "unit": "%"}}
    results = {
        "base": {"correct": True, "attempted": 2, "failed": 0, "metrics": metrics},
        "new": {"correct": False, "attempted": 2, "failed": 1, "metrics": {"run_s": metrics["run_s"]}},
    }
    for side, result in results.items():
        (tmp_path / side).mkdir()
        saved = {"workload": "skew-n320", "trace": 0, "stamp": dict(env, seed=1, commit=side), "result": result}
        (tmp_path / side / "r.json").write_text(json.dumps(saved))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 0
    out = capsys.readouterr().out
    assert "new: 1 of 2 tasks failed, 1 of 1 runs not correct" in out
    assert "test_acc.learned" in out and "missing from 0 base and 1 new runs" in out
