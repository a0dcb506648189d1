"""Benchmark of the otml pipeline: three seeded workloads, one process.

    python3 benchmark/run.py --workload skew-cli-n150 --seed 1 --seconds 30 --trace 0

One client runs tasks back to back (closed loop, one thread, BLAS pinned
to one thread) until ``--seconds`` have passed and the workload's minimum
number of rounds is done; the round in flight is finished. ``--trace 0`` reports the end-to-end metrics with no wrapper
installed. ``--trace 1`` runs every round twice, plain and then under the
outside-in tracer, and reports the per-layer metrics. The last line of
stdout is one JSON object; the lines before it give every metric by name
with its unit. ``--save FILE`` also writes the result with an
environment stamp, for ``compare.py``. ``--workload all`` runs the three
workloads in turn, each in its own process.
"""

import os
import sys

# glibc adapts its mmap threshold, and with it its trim threshold, to
# what the process has freed so far. The m x n temporaries of every
# Sinkhorn sweep are then mapped fresh, or returned to the kernel and
# faulted in again, or reused, depending on the allocation history, and
# a change elsewhere in the process can halve a round's time. The run
# re-executes itself once with a fixed policy: blocks up to 32 MiB come
# from the heap, and freed memory is kept for reuse. BLAS is pinned to
# one thread in the same step, before numpy is imported anywhere in this
# process.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "1073741824"}
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
if __name__ == "__main__":
    _pinned = {**MALLOC_ENV, **BLAS_ENV}
    if any(os.environ.get(k) != v for k, v in _pinned.items()):
        _argv = [sys.executable, os.path.abspath(__file__), *sys.argv[1:]]
        os.execve(sys.executable, _argv, {**os.environ, **_pinned})
os.environ.update(BLAS_ENV)

import argparse
import glob
import hashlib
import importlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile
import time

import numpy as np

import workloads as wl
from tracing import CHECK_SPAN, LAYERS, Tracer, aggregate, installed_wrappers, top_level_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
RESIDUAL_BOUND = 1e-8  # acceptance criterion 1: ||A C A - D|| / ||D||

END_TO_END = (
    ("run_s", "s"),
    ("learned_task_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("test_acc.learned", "%"),
    ("test_acc.euclidean", "%"),
)

PER_LAYER = (
    ("sinkhorn.solve.calls", "count"),
    ("sinkhorn.solve.self_s", "s"),
    ("sinkhorn.sweeps", "count"),
    ("sinkhorn.s_per_sweep", "s"),
    ("sinkhorn.cells_per_s", "1/s"),
    ("sinkhorn.polish.calls", "count"),
    ("sinkhorn.polish.s", "s"),
    ("sinkhorn.unconverged_frac", "ratio"),
    ("sinkhorn.max_marginal_err", "l1"),
    ("gml.fit.calls", "count"),
    ("gml.fit.self_s", "s"),
    ("gml.outer_sweeps", "count"),
    ("gml.fit.early_stop_frac", "ratio"),
    ("gml.fit.unconverged_frac", "ratio"),
    ("gml.cost_matrix.calls", "count"),
    ("gml.cost_matrix.s", "s"),
    ("gml.update_metric.calls", "count"),
    ("gml.update_metric.self_s", "s"),
    ("gml.update_metric.max_residual", "ratio"),
    ("gml.objective.calls", "count"),
    ("gml.objective.self_s", "s"),
    ("spd.riccati_solve.calls", "count"),
    ("spd.riccati_solve.s", "s"),
    ("spd.spd_inv.calls", "count"),
    ("spd.spd_inv.s", "s"),
    ("adapt.run_task.self_s", "s"),
    ("adapt.fit_plan.self_s", "s"),
    ("adapt.barycentric_map.s", "s"),
    ("adapt.knn1_predict.calls", "count"),
    ("adapt.knn1_predict.s", "s"),
    ("data.load_matrix.s", "s"),
    ("data.load_matrix.bytes", "B"),
    ("data.sample.s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("process.cpu_user_s", "s"),
    ("process.cpu_sys_s", "s"),
    ("process.minor_faults", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--save", default=None, help="also write result + stamp here")
    return parser.parse_args(argv)


def import_otml():
    """Import the layer modules from the checkout's ``src``, and only there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"otml.{name}") for name in LAYERS}
    where = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if where != os.path.join(src, "otml"):
        raise ImportError(f"otml was imported from {where}, not from {src}")
    return modules


def time_import():
    """Wall seconds for a fresh interpreter to import the otml layers from ``src``."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import " + ", ".join(f"otml.{n}" for n in LAYERS)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")], check=True)
    return time.perf_counter() - start


def source_hash():
    """Hash of the otml sources and of the benchmark's own code."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "otml"), HERE):
        for path in sorted(glob.glob(os.path.join(top, "*.py"))):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def malloc_policy():
    return " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in MALLOC_ENV)


def stamp(seed):
    """What must agree before two runs may be compared."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "malloc": malloc_policy(),
        "seed": seed,
        "commit": git_commit(),
        "source": source_hash(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


class LayerCounters:
    """Work counts and output checks gathered by the tracer's hooks."""

    def __init__(self, checks):
        self.checks = checks
        self.solves = self.sweeps = self.cells = self.unconverged = 0
        self.max_marginal_err = 0.0
        self.fits = self.outer_sweeps = self.early_stops = self.fit_unconverged = 0
        self.max_residual = 0.0
        self.load_bytes = self.bytes_written = 0

    def hooks(self):
        return {
            "sinkhorn.solve": self.on_solve,
            "gml.fit": self.on_fit,
            "gml.update_metric": self.on_update_metric,
            "data.load_matrix": self.on_load,
            "cli.write": self.on_write,
        }

    def on_solve(self, args, plan):
        m, n = np.shape(args["cost"])
        self.solves += 1
        self.sweeps += plan.iterations
        self.cells += plan.iterations * m * n
        self.unconverged += not plan.converged
        self.max_marginal_err = max(self.max_marginal_err, float(plan.marginal_error))
        if plan.converged:
            p = np.asarray(args["p"], dtype=float)
            q = np.asarray(args["q"], dtype=float)
            gamma = plan.matrix
            err = max(
                float(np.abs(gamma.sum(axis=1) - p).sum()),
                float(np.abs(gamma.sum(axis=0) - q).sum()),
            )
            tol = args["cfg"].tol
            if not err < tol:
                self.checks.fail("marginal_error", f"solve reported converged, L1 marginal error {err:.3e} >= tol {tol:.1e}")

    def on_fit(self, args, result):
        self.fits += 1
        self.outer_sweeps += result.iters_run
        self.early_stops += result.converged
        self.fit_unconverged += not result.sinkhorn_converged

    def on_update_metric(self, args, metric):
        c = np.asarray(args["cg"], dtype=float)
        d = np.asarray(args["d"], dtype=float)
        res = float(np.linalg.norm(metric @ c @ metric - d)) / max(float(np.linalg.norm(d)), 1e-300)
        self.max_residual = max(self.max_residual, res)
        if not res < RESIDUAL_BOUND:
            self.checks.fail("metric_residual", f"update_metric residual {res:.3e} >= {RESIDUAL_BOUND:.0e}")

    def on_load(self, args, dataset):
        self.load_bytes += os.path.getsize(args["path"])

    def on_write(self, args, _):
        self.bytes_written += len(args["payload"])


def run_untraced(runner, seconds, otml, min_rounds=1):
    leftover = installed_wrappers(otml)
    if leftover:
        raise RuntimeError(f"tracer wrappers still installed: {leftover}")
    deadline = time.perf_counter() + seconds
    rounds = []
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rounds.append(runner.run_round(len(rounds)))
    return rounds


def run_traced(runner, seconds, otml, checks):
    """Each round plain, then the same draw traced; returns the per-layer metrics."""
    counters = LayerCounters(checks)
    tracer = Tracer(counters.hooks())
    plain, traced, rounds = [], [], []
    usage = [0.0, 0.0, 0]
    attributed = 0.0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        index = len(rounds)
        before = resource.getrusage(resource.RUSAGE_SELF)
        plain.append(runner.run_round(index))
        after = resource.getrusage(resource.RUSAGE_SELF)
        usage[0] += after.ru_utime - before.ru_utime
        usage[1] += after.ru_stime - before.ru_stime
        usage[2] += after.ru_minflt - before.ru_minflt
        first_span = len(tracer.spans)
        tracer.install(otml)
        try:
            rnd = runner.run_round(index)
        finally:
            tracer.uninstall()
        traced.append(rnd)
        attributed += top_level_seconds(tracer.spans, first_span)
        rounds.append(index)
    count = len(rounds)
    agg = aggregate(tracer.spans)

    def calls(name):
        return agg.get(name, {}).get("calls", 0) / count

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0) / count

    def own(name):
        return agg.get(name, {}).get("self_s", 0.0) / count

    def frac(part, whole):
        return part / whole if whole else 0.0

    solve_self = own("sinkhorn.solve")
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    check_s = total(CHECK_SPAN) * count
    metrics = {
        "sinkhorn.solve.calls": calls("sinkhorn.solve"),
        "sinkhorn.solve.self_s": solve_self,
        "sinkhorn.sweeps": counters.sweeps / count,
        "sinkhorn.s_per_sweep": frac(solve_self, counters.sweeps / count),
        "sinkhorn.cells_per_s": frac(counters.cells / count, solve_self),
        "sinkhorn.polish.calls": calls("sinkhorn.polish"),
        "sinkhorn.polish.s": total("sinkhorn.polish"),
        "sinkhorn.unconverged_frac": frac(counters.unconverged, counters.solves),
        "sinkhorn.max_marginal_err": counters.max_marginal_err,
        "gml.fit.calls": calls("gml.fit"),
        "gml.fit.self_s": own("gml.fit"),
        "gml.outer_sweeps": counters.outer_sweeps / count,
        "gml.fit.early_stop_frac": frac(counters.early_stops, counters.fits),
        "gml.fit.unconverged_frac": frac(counters.fit_unconverged, counters.fits),
        "gml.cost_matrix.calls": calls("gml.cost_matrix"),
        "gml.cost_matrix.s": total("gml.cost_matrix"),
        "gml.update_metric.calls": calls("gml.update_metric"),
        "gml.update_metric.self_s": own("gml.update_metric"),
        "gml.update_metric.max_residual": counters.max_residual,
        "gml.objective.calls": calls("gml.objective"),
        "gml.objective.self_s": own("gml.objective"),
        "spd.riccati_solve.calls": calls("spd.riccati_solve"),
        "spd.riccati_solve.s": total("spd.riccati_solve"),
        "spd.spd_inv.calls": calls("spd.spd_inv"),
        "spd.spd_inv.s": total("spd.spd_inv"),
        "adapt.run_task.self_s": own("adapt.run_task"),
        "adapt.fit_plan.self_s": own("adapt.fit_plan"),
        "adapt.barycentric_map.s": total("adapt.barycentric_map"),
        "adapt.knn1_predict.calls": calls("adapt.knn1_predict"),
        "adapt.knn1_predict.s": total("adapt.knn1_predict"),
        "data.load_matrix.s": total("data.load_matrix"),
        "data.load_matrix.bytes": counters.load_bytes / count,
        "data.sample.s": sum(
            total(f"data.{name}") for name in ("uniform_sample", "disjoint_split", "skewed_sample")
        ),
        "cli.self_s": cli_self_seconds(tracer.spans) / count,
        "cli.bytes_written": counters.bytes_written / count,
        "process.cpu_user_s": usage[0] / count,
        "process.cpu_sys_s": usage[1] / count,
        "process.minor_faults": usage[2] / count,
        "trace.overhead_frac": frac(traced_s - check_s, plain_s) - 1.0,
        "trace.unattributed_frac": frac(traced_s - attributed, traced_s),
    }
    notes = {
        "rounds": count,
        "check_s": check_s,
    }
    return plain + traced, metrics, notes


def cli_self_seconds(spans):
    """Time in ``cli.main`` minus its direct adapt, data and check children."""
    cli_spans = {i for i, span in enumerate(spans) if span[0] == "cli.main"}
    seconds = sum(spans[i][2] - spans[i][1] for i in cli_spans)
    for name, start, end, parent in spans:
        if parent in cli_spans and (name.startswith(("adapt.", "data.")) or name == CHECK_SPAN):
            seconds -= end - start
    return seconds


def end_to_end(rounds, setup_s, min_rounds):
    tasks = [t for r in rounds for t in r.tasks]

    def ok(method):
        return [t for t in tasks if t.method == method and not t.failed]

    learned = ok("learned") or [t for t in tasks if t.method == "learned"]
    # Baseline methods differ in cost, so a pooled median would flip
    # between them; take each round's mean baseline task instead.
    baseline = []
    for r in rounds:
        done = [t.seconds for t in r.tasks if t.method in wl.BASELINES and not t.failed]
        if done:
            baseline.append(statistics.fmean(done))
    metrics = {
        "run_s": statistics.median(r.seconds for r in rounds),
        "learned_task_s": statistics.median(t.seconds for t in learned),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Printed, not bounded: see "Metrics" in README.md.
    extra = {"baseline_task_s": (statistics.median(baseline), "s")} if baseline else {}
    # Accuracies over the first min_rounds rounds only, so that they do
    # not depend on how many rounds fit in the time; a failed task scores 0.
    scored = [t for r in rounds[:min_rounds] for t in r.tasks]
    for method in ("learned",) + wl.BASELINES:
        done = [t for t in scored if t.method == method]
        if done:
            value = 100.0 * statistics.fmean(0.0 if t.failed else t.outcome[2] for t in done)
            if method in ("learned", "euclidean"):
                metrics[f"test_acc.{method}"] = value
            else:
                extra[f"test_acc.{method}"] = (value, "%")
    return metrics, extra


def run_all(args):
    """``--workload all``: every workload in turn, each in its own process."""
    status = 0
    for name in wl.FULL:
        child = [sys.executable, os.path.abspath(__file__), "--workload", name]
        child += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            child.append("--smoke")
        if args.save:
            child += ["--save", f"{args.save}.{name}"]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(child).returncode)
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        otml = import_otml()
    except ImportError as exc:
        print(f"benchmark: cannot import otml from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2

    table = wl.SMOKE if args.smoke else wl.FULL
    if args.workload not in table:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    tag = f"{workload.name}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    reports = wl.ReportStore(os.path.join(scratch, "reports", source_hash(), f"{tag}.json"))
    checks = wl.Checks()
    try:
        # Each set-up: a fresh interpreter's imports, then data generation,
        # pool and config writes and the warm-up task in this process.
        imports, setups = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            imports.append(time_import())
            runner = wl.Runner(workload, args.seed, workdir, otml, checks, reports)
            setups.append(time.perf_counter() - start)
        setup_s = statistics.median(setups)
        if args.trace:
            rounds, metrics, notes = run_traced(runner, args.seconds, otml, checks)
            units = dict(PER_LAYER)
        else:
            before = resource.getrusage(resource.RUSAGE_SELF)
            rounds = run_untraced(runner, args.seconds, otml, workload.min_rounds)
            after = resource.getrusage(resource.RUSAGE_SELF)
            metrics, extra = end_to_end(rounds, setup_s, workload.min_rounds)
            units = dict(END_TO_END)
            notes = {
                "rounds": len(rounds),
                "import_s": imports,
                "setup_repeats_s": setups,
                "cpu_user_s": after.ru_utime - before.ru_utime,
                "cpu_sys_s": after.ru_stime - before.ru_stime,
                "minor_faults": after.ru_minflt - before.ru_minflt,
            }
            for name, (value, unit) in extra.items():
                print(f"{name} {value:.6g} {unit}")
        reports.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tasks = [t for r in rounds for t in r.tasks]
    failed = [t for t in tasks if t.failed]
    for t in failed:
        kind = "known failure" if t.known else "failed task"
        print(f"{kind}: {t.method} -> {t.outcome}", file=sys.stderr)
    for kind, message in checks.failures:
        print(f"check failed ({kind}): {message}", file=sys.stderr)
    print(f"failed_frac {len(failed) / len(tasks):.6g} ratio")
    for name, value in notes.items():
        print(f"# {name} {value}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": all(t.known for t in failed),
        "attempted": len(tasks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    env = stamp(args.seed)
    print(f"# stamp {json.dumps(env)}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"workload": workload.name, "trace": args.trace, "stamp": env, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
