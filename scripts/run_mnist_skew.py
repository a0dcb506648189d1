"""Skew sweep on full-size digit idx files (training set as source pool,
test set as target pool).

Expects the conventional four files under --data-dir:
train-images-idx3-ubyte, train-labels-idx1-ubyte,
t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte.

    python3 scripts/run_mnist_skew.py --data-dir data/mnist --out out/skew

Defaults reproduce the desk-scale protocol: m = n = 500, seeds 0..4,
skews 10..50, identity regularization target, lambda grid tuned for
median-normalized costs. Use --downsample 2 --m 200 --n 200 for the
quick variant. The run's config is kept as <out>/config.json next to
runs.csv and table.csv, so `otml experiment-skew --config` repeats it.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from otml import cli
from otml import data as dt

FILES = {
    "source": "train-images-idx3-ubyte",
    "source_labels": "train-labels-idx1-ubyte",
    "target": "t10k-images-idx3-ubyte",
    "target_labels": "t10k-labels-idx1-ubyte",
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-dir", default="data/mnist")
    ap.add_argument("--out", default="out/skew")
    ap.add_argument("--m", type=int, default=500)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--downsample", type=int, default=1)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--skews", type=int, nargs="+", default=[10, 20, 30, 40, 50])
    ap.add_argument("--skew-classes", type=int, nargs="+", default=None,
                    help="default: every class")
    ap.add_argument("--methods", nargs="+",
                    default=["euclidean", "gram", "whiten", "learned"])
    ap.add_argument("--lambdas", type=float, nargs="+",
                    default=[0.05, 0.2, 0.5, 1.0, 2.0])
    ap.add_argument("--outer-iters", type=int, default=8)
    args = ap.parse_args(argv)

    paths = {key: os.path.join(args.data_dir, name) for key, name in FILES.items()}
    missing = [p for p in paths.values() if not os.path.exists(p)]
    if missing:
        print("missing idx files:", ", ".join(missing), file=sys.stderr)
        print("hint: scripts/export_digits_idx.py builds a small stand-in corpus",
              file=sys.stderr)
        return 2

    config = {
        **paths,
        "m": args.m,
        "n": args.n,
        "downsample": args.downsample,
        "seeds": args.seeds,
        "skews": args.skews,
        "methods": args.methods,
        "lambda_grid": args.lambdas,
        "outer_iters": args.outer_iters,
        "objective_rtol": 1e-5,
        "sinkhorn_tol": 1e-7,
        "sinkhorn_max_iter": 2000,
        "d_choice": "identity",
        "out": args.out,
    }
    if args.skew_classes is not None:
        config["skew_classes"] = args.skew_classes
    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "config.json")
    dt.write_atomic(cfg_path, json.dumps(config, indent=2).encode())
    return cli.main(["experiment-skew", "--config", cfg_path])


if __name__ == "__main__":
    sys.exit(main())
