import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from otml import adapt as ad
from otml import cli
from otml import data as dt

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PROTOCOL_KEYS = ("lambda_grid", "outer_iters", "objective_rtol", "d_choice", "sinkhorn_tol",
                 "sinkhorn_max_iter")


def write_digit_corpus(root, rng, per_class=24, k=10, side=4):
    # Each class lights its own pixel on a noisy background.
    for prefix in ("train", "t10k"):
        labels = np.repeat(np.arange(k), per_class)
        images = rng.integers(0, 60, size=(labels.size, side, side))
        images.reshape(labels.size, -1)[np.arange(labels.size), labels] = 255
        dt.write_idx_images(str(root / f"{prefix}-images-idx3-ubyte"), images)
        dt.write_idx_labels(str(root / f"{prefix}-labels-idx1-ubyte"), labels)


def test_mnist_skew_config_runs_the_sweep(tmp_path):
    config = str(SCRIPTS / "mnist_skew.json")
    cfg = cli.load_config(config, {}, "experiment-skew")
    assert (cfg.m, cfg.n) == (500, 500)
    assert cfg.seeds == [0, 1, 2, 3, 4]
    assert cfg.skews == [10, 20, 30, 40, 50] and cfg.skew_classes is None
    assert cfg.methods == list(ad.METHODS)
    # The sweep states no solver setting: it runs the CLI's default protocol.
    with open(config) as fh:
        assert not set(json.load(fh)) & set(PROTOCOL_KEYS)
    defaults = cli.RunConfig()
    for key in PROTOCOL_KEYS:
        assert getattr(cfg, key) == getattr(defaults, key), key
    # The labels are found next to the images, so --source and --target
    # move them along.
    assert cfg.source == "data/mnist/train-images-idx3-ubyte"
    assert cfg.target == "data/mnist/t10k-images-idx3-ubyte"
    assert cfg.source_labels is None and cfg.target_labels is None

    write_digit_corpus(tmp_path, np.random.default_rng(0))
    outs = [tmp_path / "out1", tmp_path / "out2"]
    for out in outs:
        assert cli.main([
            "experiment-skew", "--config", config,
            "--source", str(tmp_path / "train-images-idx3-ubyte"),
            "--target", str(tmp_path / "t10k-images-idx3-ubyte"),
            "--m", "20", "--n", "20", "--seed", "0", "--outer-iters", "2",
            "--lambda", "0.5", "--lambda", "1.0", "--out", str(out),
        ]) == 0
    with open(outs[0] / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 10 * len(ad.METHODS)  # skews x classes x methods
    for name in ("runs.csv", "table.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def office_domains(names):
    """(name, features, labels) of one seeded three-class toy export per domain."""
    rng = np.random.default_rng(7)
    for i, name in enumerate(names):
        labels = np.repeat(np.arange(3), 21 + i)
        yield name, rng.normal(size=(5, labels.size)) + 0.8 * labels + 0.5 * i, labels


def test_run_office_writes_the_twelve_task_table(tmp_path, run_office):
    # Two domains as csv (labels last), two as rawf64 (labels embedded).
    data_dir = tmp_path / "office"
    data_dir.mkdir()
    for i, (name, x, labels) in enumerate(office_domains(run_office.DOMAINS)):
        if i % 2:
            np.savetxt(data_dir / f"{name}.csv", np.column_stack([x.T, labels]), delimiter=",")
        else:
            dt.save_rawf64(str(data_dir / f"{name}.rawf64"), x, labels)
    out = tmp_path / "out"
    assert run_office.main([
        "--data-dir", str(data_dir), "--out", str(out), "--outer-iters", "2",
    ]) == 0
    with open(out / "office_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["task", "euclidean", "learned"]
    tasks = [row[0] for row in rows[1:]]
    assert tasks[:-1] == [f"{a[0].upper()}->{b[0].upper()}"
                          for a in run_office.DOMAINS for b in run_office.DOMAINS if a != b]
    assert tasks[-1] == "Average"
    cells = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    assert ((cells >= 0) & (cells <= 100)).all()
    # The Average row is the mean of the unrounded accuracies.
    np.testing.assert_allclose(cells[-1], cells[:-1].mean(axis=0), atol=0.01)


def test_office_table_warns_about_an_unconverged_solve(monkeypatch, capsys, run_office):
    run_task = ad.run_task
    monkeypatch.setattr(ad, "run_task", lambda *args, **kwargs: dataclasses.replace(
        run_task(*args, **kwargs), sinkhorn_converged=False))
    domains = {name: dt.RawDataset(x, labels)
               for name, x, labels in office_domains(run_office.DOMAINS)}
    table = run_office.office_table(domains, ["euclidean"], [1.0], 0, 1)
    assert len(table) == 13 and table[-1][0] == "Average"
    err = capsys.readouterr().err
    assert err.count("warning: transport solve did not converge (euclidean)\n") == 12


def test_run_office_load_domain_raises_and_main_exits(tmp_path, run_office):
    # A missing export is a FileNotFoundError and an unlabeled one a
    # ValueError, which criterion 8 skips on; main exits with the message.
    with pytest.raises(FileNotFoundError, match="amazon"):
        run_office.load_domain(str(tmp_path), "amazon")
    dt.save_rawf64(str(tmp_path / "amazon.rawf64"), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="no labels"):
        run_office.load_domain(str(tmp_path), "amazon")
    with pytest.raises(SystemExit, match="no labels"):
        run_office.main(["--data-dir", str(tmp_path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("flags, message", [
    (["--methods", "bogus"], "unknown method 'bogus'"),
    (["--methods", "euclidean", "euclidean"], "methods repeats 'euclidean'"),
    (["--lambdas", "0"], "lam must be positive and finite, got 0.0"),
    (["--outer-iters", "0"], "outer_iters must be an integer >= 1, got 0"),
], ids=["unknown-method", "repeated-method", "zero-lambda", "zero-outer-iters"])
def test_run_office_reports_a_bad_flag_before_reading_data(tmp_path, capsys, run_office,
                                                           flags, message):
    # As otml does: one line on stderr and exit 1, though no domain exists.
    out = tmp_path / "out"
    assert run_office.main(["--data-dir", str(tmp_path), "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()
