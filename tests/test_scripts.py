import csv
import importlib.util
import json
from pathlib import Path

import numpy as np

from otml import adapt as ad
from otml import cli
from otml import data as dt

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_digit_corpus(root, rng, per_class=24, k=10, side=4):
    # Each class lights its own pixel on a noisy background.
    for prefix in ("train", "t10k"):
        labels = np.repeat(np.arange(k), per_class)
        images = rng.integers(0, 60, size=(labels.size, side, side))
        images.reshape(labels.size, -1)[np.arange(labels.size), labels] = 255
        dt.write_idx_images(str(root / f"{prefix}-images-idx3-ubyte"), images)
        dt.write_idx_labels(str(root / f"{prefix}-labels-idx1-ubyte"), labels)


def test_run_mnist_skew_keeps_its_config(tmp_path):
    write_digit_corpus(tmp_path, np.random.default_rng(0))
    out = tmp_path / "out"
    script = load_script("run_mnist_skew")
    rc = script.main([
        "--data-dir", str(tmp_path), "--out", str(out), "--m", "20", "--n", "20",
        "--seeds", "0", "--skews", "50", "--skew-classes", "0",
        "--outer-iters", "2", "--lambdas", "0.5", "1.0",
    ])
    assert rc == 0
    with open(out / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(r["method"] for r in rows) == sorted(ad.METHODS)

    config = json.loads((out / "config.json").read_text())
    assert config["skew_classes"] == [0]
    assert config["out"] == str(out)
    # The kept config repeats the run.
    again = tmp_path / "again"
    assert cli.main(["experiment-skew", "--config", str(out / "config.json"),
                     "--out", str(again)]) == 0
    assert (again / "runs.csv").read_bytes() == (out / "runs.csv").read_bytes()
