"""Twelve-task adaptation table over office/caltech feature exports.

Features are not redistributable here, so the user supplies one file per
domain under --data-dir: amazon, caltech, dslr, webcam, each either
<name>.rawf64 (labels embedded) or <name>.csv (labels in the last
column). Points are rows for csv; rawf64 stores columns.

For every ordered domain pair the source is a per-class uniform draw
(10 per class, 8 when dslr is the source), the target is split evenly
into a tuning half and a held-out half, and each method reports held-out
1-NN accuracy after barycentric projection. Writes office_table.csv with
one row per task plus an Average row.

    python3 scripts/run_office.py --data-dir data/office --out out/office
"""

import argparse
import itertools
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from otml import cli
from otml import data as dt

DOMAINS = ("amazon", "caltech", "dslr", "webcam")


def load_domain(root, name):
    """The labeled export of one domain: <name>.rawf64, else <name>.csv.

    Raises FileNotFoundError when neither file exists and ValueError when
    the export carries no labels (or the loader rejects it).
    """
    for ext, labeled in ((".rawf64", False), (".csv", True)):
        path = os.path.join(root, name + ext)
        if os.path.exists(path):
            ds = dt.load_matrix(path, labeled=labeled)
            if ds.labels is None:
                raise ValueError(f"{path}: no labels found")
            return ds
    raise FileNotFoundError(
        f"no feature export for domain {name!r} under {root} "
        f"(expected {name}.rawf64 or {name}.csv)"
    )


def office_table(domains, methods, lambdas, seed, outer_iters):
    """Held-out accuracy (percent) per method on the 12 ordered domain pairs.

    ``domains`` maps each name in DOMAINS to its labeled dataset. Returns
    one row [task, accuracy per method] per pair, then the Average row.
    Progress and any unconverged solve are reported on stderr.
    """
    cfg = cli.RunConfig(
        methods=list(methods), lambda_grid=list(lambdas), outer_iters=outer_iters,
        d_choice="identity", objective_rtol=1e-5, sinkhorn_tol=1e-7, sinkhorn_max_iter=2000,
    )
    rows = []
    for src_name, tgt_name in itertools.permutations(DOMAINS, 2):
        per_class = 8 if src_name == "dslr" else 10
        src_ds = domains[src_name]
        task_seed = seed + DOMAINS.index(src_name) * 16 + DOMAINS.index(tgt_name)
        source = dt.uniform_sample(
            src_ds, per_class * src_ds.class_count, seed=task_seed
        )
        ttrain, ttest = dt.split_per_class(domains[tgt_name], seed=task_seed)
        task = f"{src_name[0].upper()}->{tgt_name[0].upper()}"
        reports = cli._method_reports(cfg, f"office: {task} ", source, ttrain, ttest)
        rows.append([task] + [100.0 * rep.test_accuracy for rep in reports])
    columns = list(zip(*rows))[1:]
    return rows + [["Average"] + [math.fsum(col) / len(col) for col in columns]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-dir", default="data/office")
    ap.add_argument("--out", default="out/office")
    ap.add_argument("--methods", nargs="+", default=["euclidean", "learned"])
    ap.add_argument("--lambdas", type=float, nargs="+",
                    default=[0.05, 0.2, 0.5, 1.0, 2.0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outer-iters", type=int, default=8)
    args = ap.parse_args(argv)

    try:
        domains = {name: load_domain(args.data_dir, name) for name in DOMAINS}
    except (FileNotFoundError, ValueError) as e:
        raise SystemExit(str(e))
    table = office_table(domains, args.methods, args.lambdas, args.seed,
                         args.outer_iters)
    rows = [[row[0]] + [f"{pct:.2f}" for pct in row[1:]] for row in table]

    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, "office_table.csv")
    cli._write_csv_atomic(table_path, ["task"] + list(args.methods), rows)
    print(f"wrote {table_path}")
    for row in rows:
        print(" ".join(f"{cell:>8}" for cell in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
