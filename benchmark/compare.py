"""Compare two sets of saved benchmark results.

    python3 benchmark/run.py --workload W --seed S --seconds 20 --save base/W-S.json
    ... (same seeds on the other commit, into new/)
    python3 benchmark/compare.py base new

Prints, per workload, each side's attempted and failed tasks and its
runs that were not correct; then, per metric, each side's median, the
ratio new/base and the base side's quartile spread as a share of its
median. A metric missing from some runs is reported as missing, with
the count per side. Refuses (exit 1) unless both sides ran the same
workloads and seeds in the same environment: CPU, core count, Python,
numpy, scipy, BLAS and its thread count, and the malloc policy. Only the
commit and the source hash may differ.
"""

import glob
import json
import os
import statistics
import sys

ENVIRONMENT = ("nproc", "cpu", "python", "numpy", "scipy", "blas", "blas_threads", "malloc")


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            saved = json.load(fh)
        key = (saved["workload"], saved["trace"], saved["stamp"]["seed"])
        runs[key] = saved
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(d) for d in argv)
    if not base or set(base) != set(new):
        print("refusing: the two sides ran different workloads or seeds", file=sys.stderr)
        return 1
    stamps = {tuple(r["stamp"].get(k) for k in ENVIRONMENT) for r in (*base.values(), *new.values())}
    if len(stamps) != 1:
        print(f"refusing: environment stamps differ: {sorted(stamps)}", file=sys.stderr)
        return 1
    groups = sorted({(w, t) for w, t, _ in base})
    for workload, trace in groups:
        keys = [k for k in base if k[:2] == (workload, trace)]
        print(f"{workload} trace={trace} seeds={sorted(k[2] for k in keys)}")
        results = {side: [runs[k]["result"] for k in keys] for side, runs in (("base", base), ("new", new))}
        for side, rs in results.items():
            attempted = sum(r["attempted"] for r in rs)
            failed = sum(r["failed"] for r in rs)
            incorrect = sum(not r["correct"] for r in rs)
            print(f"  {side}: {failed} of {attempted} tasks failed, {incorrect} of {len(rs)} runs not correct")
        units = {m: row["unit"] for rs in results.values() for r in rs for m, row in r["metrics"].items()}
        for metric, unit in units.items():
            b, n = ([r["metrics"][metric]["value"] for r in rs if metric in r["metrics"]] for rs in results.values())
            if len(b) < len(keys) or len(n) < len(keys):
                print(f"  {metric:28s} missing from {len(keys) - len(b)} base and {len(keys) - len(n)} new runs")
                if not b or not n:
                    continue
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = mn / mb if mb else float("nan")
            print(f"  {metric:28s} {mb:12.6g} -> {mn:12.6g} {unit:6s} x{ratio:.3f}  base spread {spread(b):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
