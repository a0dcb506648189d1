"""Export the bundled 8x8 scikit-learn digits as idx files plus pools.

Stand-in corpus for the skew experiment when no full-size digit files
are on hand. Writes digits-images-idx3-ubyte / digits-labels-idx1-ubyte
and, with --pools, a disjoint source/target pool pair in rawf64 that
the skew sweep's config can run on in place of the full-size files,
at the sizes of the stand-in acceptance check:

    python3 scripts/export_digits_idx.py --out data/digits --pools
    otml experiment-skew --config scripts/mnist_skew.json \
        --source data/digits/source_pool.rawf64 \
        --target data/digits/target_pool.rawf64 --m 140 --n 140
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from otml import data as dt


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="data/digits")
    ap.add_argument("--pools", action="store_true",
                    help="also write source/target rawf64 pools")
    ap.add_argument("--per-class", type=int, default=25,
                    help="source pool size per class (rest goes to target)")
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args()

    try:
        from sklearn.datasets import load_digits
    except ImportError:
        print("scikit-learn is required for the digits export", file=sys.stderr)
        return 1

    digits = load_digits()
    os.makedirs(args.out, exist_ok=True)
    # pixel values are 0..16; stretch onto the u8 range the format carries
    images = np.round(digits.images * 15.0).astype(np.uint8)
    images_path = os.path.join(args.out, "digits-images-idx3-ubyte")
    labels_path = os.path.join(args.out, "digits-labels-idx1-ubyte")
    dt.write_idx_images(images_path, images)
    dt.write_idx_labels(labels_path, digits.target)
    print(f"wrote {images_path} ({images.shape[0]} images)")
    print(f"wrote {labels_path}")

    if not args.pools:
        return 0

    pools = dt.split_per_class(dt.load_matrix(images_path), args.seed, args.per_class)
    for name, pool in zip(("source_pool", "target_pool"), pools):
        path = os.path.join(args.out, f"{name}.rawf64")
        dt.save_rawf64(path, pool.features, pool.labels)
        print(f"wrote {path} ({pool.size} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
