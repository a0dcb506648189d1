import json
import os

import numpy as np
import pytest

from otml import cli
from otml import data as dt


def write_cloud_csv(path, rng, per_class=6, k=2, dim=2, jitter=0.3):
    centers = np.arange(k)[:, None] * 4.0
    rows = []
    for c in range(k):
        for _ in range(per_class):
            feat = centers[c] + rng.normal(size=dim) * jitter
            rows.append(",".join(repr(float(v)) for v in feat) + f",{c}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def write_pool_rawf64(path, rng, per_class=24, k=10, dim=3, shift=0.0):
    n = per_class * k
    labels = np.repeat(np.arange(k), per_class)
    feats = rng.normal(size=(dim, n)) * 0.5
    feats[0] += labels * 2.0 + shift
    dt.save_rawf64(str(path), feats, labels)
    return str(path)


# ---------------------------------------------------------------------------
# config loading


def test_load_config_aliases_and_overrides(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"lambda": 0.25, "format": "csv", "m": 40}))
    cfg = cli.load_config(str(cfgfile), {"m": 60})
    assert cfg.lam == 0.25
    assert cfg.fmt == "csv"
    assert cfg.m == 60  # command line beats file


def test_load_config_rejects_unknown_key(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"lambada": 1.0}))
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(cfgfile), {})


def test_load_config_rejects_inputs_key(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"inputs": ["a.csv"]}))
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(cfgfile), {})


def test_config_validation_errors():
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"method": "cosine"})
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"lambda_grid": []})
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"d_choice": "spiral"})
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"outer_iters": 0})
    nan = float("nan")
    for name in ("lam", "eps", "sinkhorn_tol", "sinkhorn_max_iter",
                 "objective_rtol", "outer_iters"):
        with pytest.raises(cli.ConfigError):
            cli.load_config(None, {name: nan})
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"lambda_grid": [0.1, nan]})


def test_negative_objective_rtol_is_config_error(fit_inputs, tmp_path, capsys):
    src, tgt = fit_inputs
    config = tmp_path / "c.json"
    # Python's json reads NaN; a NaN lambda must not reach the solver either.
    for bad, key in (({"objective_rtol": -1}, "objective_rtol"),
                     ({"lam": float("nan"), "method": "euclidean"}, "lam")):
        config.write_text(json.dumps(
            {**bad, "source": src, "target": tgt, "out": str(tmp_path / "out")}
        ))
        assert cli.main(["fit", "--config", str(config)]) == 1
        assert f"config error: {key}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")


def test_bad_flag_exits_one(capsys):
    assert cli.main(["fit", "--lambda", "abc"]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_command_exits_one():
    assert cli.main(["transmogrify"]) == 1


# ---------------------------------------------------------------------------
# fit


def write_matrix_csv(path, arr):
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in arr.T) + "\n")
    return str(path)


@pytest.fixture
def fit_inputs(tmp_path):
    rng = np.random.default_rng(0)
    src = write_matrix_csv(tmp_path / "src.csv", rng.normal(size=(2, 7)))
    tgt = write_matrix_csv(tmp_path / "tgt.csv", rng.normal(size=(2, 5)) + 1.0)
    return src, tgt


def test_fit_euclidean_outputs(fit_inputs, tmp_path, capsys):
    src, tgt = fit_inputs
    out = str(tmp_path / "out")
    rc = cli.main(
        ["fit", "--method", "euclidean", "--lambda", "0.2",
         "--source", src, "--target", tgt, "--out", out]
    )
    assert rc == 0
    assert "objective=" in capsys.readouterr().out

    plan = dt.load_matrix(os.path.join(out, "gamma.rawf64")).features
    assert plan.shape == (7, 5)
    np.testing.assert_allclose(plan.sum(axis=1), 1 / 7, atol=1e-9)
    np.testing.assert_allclose(plan.sum(axis=0), 1 / 5, atol=1e-9)

    metric = dt.load_matrix(os.path.join(out, "metric.rawf64")).features
    np.testing.assert_array_equal(metric, np.eye(2))

    with open(os.path.join(out, "objective.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "iteration,objective"
    float(lines[1].split(",")[1])


def test_fit_learned_metric_departs_from_identity(fit_inputs, tmp_path):
    src, tgt = fit_inputs
    out = str(tmp_path / "out")
    rc = cli.main(
        ["fit", "--method", "learned", "--lambda", "0.5",
         "--outer-iters", "4", "--source", src, "--target", tgt, "--out", out]
    )
    assert rc == 0
    metric = dt.load_matrix(os.path.join(out, "metric.rawf64")).features
    assert metric.shape == (2, 2)
    assert not np.allclose(metric, np.eye(2))
    with open(os.path.join(out, "objective.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert all(b <= a + 1e-8 for a, b in zip(vals, vals[1:]))


def test_fit_deterministic_bytes(fit_inputs, tmp_path):
    src, tgt = fit_inputs
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert cli.main(
            ["fit", "--method", "learned", "--lambda", "0.5",
             "--source", src, "--target", tgt, "--out", out]
        ) == 0
        outs.append(out)
    for name in ("gamma.rawf64", "metric.rawf64", "objective.csv"):
        with open(os.path.join(outs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            second = fh.read()
        assert first == second, name


def test_fit_missing_input_exits_two_without_outputs(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = cli.main(
        ["fit", "--source", str(tmp_path / "absent.csv"),
         "--target", str(tmp_path / "absent.csv"), "--out", out]
    )
    assert rc == 2
    assert "data error" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_fit_strict_nonconvergence_exits_three(fit_inputs, tmp_path, capsys):
    src, tgt = fit_inputs
    cfgfile = tmp_path / "strict.json"
    cfgfile.write_text(json.dumps(
        {"strict": True, "sinkhorn_max_iter": 1, "lambda": 0.01,
         "method": "euclidean"}
    ))
    out = str(tmp_path / "out")
    rc = cli.main(
        ["fit", "--config", str(cfgfile), "--source", src, "--target", tgt,
         "--out", out]
    )
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "gamma.rawf64"))


# ---------------------------------------------------------------------------
# adapt


def test_adapt_identical_clouds(tmp_path, capsys):
    rng = np.random.default_rng(1)
    cloud = write_cloud_csv(tmp_path / "cloud.csv", rng)
    out = str(tmp_path / "out")
    rc = cli.main(
        ["adapt", "--source", cloud, "--target-train", cloud,
         "--target-test", cloud, "--method", "euclidean", "--method", "gram",
         "--seed", "0", "--seed", "1", "--lambda", "0.01", "--lambda", "1.0",
         "--out", out, "--name", "self"]
    )
    assert rc == 0

    with open(os.path.join(out, "report.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(cli.REPORT_HEADER)
    body = [l.split(",") for l in lines[1:]]
    assert len(body) == 4  # 2 seeds x 2 methods
    for row in body:
        assert row[0] == "self"
        assert float(row[5]) == 1.0  # identical clouds classify perfectly

    with open(os.path.join(out, "report.json")) as fh:
        payload = json.load(fh)
    assert len(payload) == 4
    assert {r["method"] for r in payload} == {"euclidean", "gram"}
    assert {r["seed"] for r in payload} == {0, 1}
    for rec in payload:
        assert isinstance(rec["test_accuracy"], float)
        assert rec["test_accuracy"] == 1.0


def test_adapt_dimension_mismatch_exits_two(tmp_path):
    rng = np.random.default_rng(2)
    a = write_cloud_csv(tmp_path / "a.csv", rng, dim=2)
    b = write_cloud_csv(tmp_path / "b.csv", rng, dim=3)
    rc = cli.main(
        ["adapt", "--source", a, "--target-train", b, "--target-test", b,
         "--method", "euclidean", "--out", str(tmp_path / "out")]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# experiment-skew


@pytest.fixture
def skew_config(tmp_path):
    rng = np.random.default_rng(3)
    src = write_pool_rawf64(tmp_path / "src.rawf64", rng)
    tgt = write_pool_rawf64(tmp_path / "tgt.rawf64", rng, shift=0.4)
    cfgfile = tmp_path / "exp.json"
    cfgfile.write_text(json.dumps({
        "source": src,
        "target": tgt,
        "m": 20,
        "n": 20,
        "skews": [30, 50],
        "skew_classes": [1],
        "seeds": [0, 1],
        "methods": ["euclidean"],
        "lambda_grid": [0.1, 1.0],
    }))
    return str(cfgfile)


def test_experiment_skew_smoke(skew_config, tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(["experiment-skew", "--config", skew_config, "--out", out])
    assert rc == 0

    with open(os.path.join(out, "runs.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(cli.RUNS_HEADER)
    body = [l.split(",") for l in lines[1:]]
    assert len(body) == 4  # 2 skews x 1 class x 2 seeds x 1 method
    assert {r[0] for r in body} == {"30", "50"}
    assert all(r[3] == "euclidean" for r in body)

    with open(os.path.join(out, "table.csv")) as fh:
        tlines = fh.read().splitlines()
    assert tlines[0] == "skew_percent,euclidean"
    assert len(tlines) == 3
    # table means must equal the mean of the matching runs rows
    for line in tlines[1:]:
        w, mean = line.split(",")
        vals = [float(r[6]) for r in body if r[0] == w]
        assert float(mean) == pytest.approx(np.mean(vals), abs=1e-12)


def test_experiment_skew_deterministic(skew_config, tmp_path):
    blobs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert cli.main(
            ["experiment-skew", "--config", skew_config, "--out", out]
        ) == 0
        with open(os.path.join(out, "runs.csv"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_experiment_skew_unsatisfiable_skew_exits_two(skew_config, tmp_path):
    with open(skew_config) as fh:
        cfg = json.load(fh)
    cfg["skews"] = [5]  # below the uniform share for 10 classes
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = cli.main(
        ["experiment-skew", "--config", str(bad), "--out", str(tmp_path / "out")]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# summarize


def test_summarize_means_match_numpy(tmp_path):
    report = tmp_path / "report.csv"
    rows = [
        ["t", "euclidean", "0", "0.1", "0.5", "0.25"],
        ["t", "euclidean", "1", "0.1", "0.7", "0.85"],
        ["t", "learned", "0", "0.5", "0.9", "0.6"],
    ]
    report.write_text(
        ",".join(cli.REPORT_HEADER) + "\n"
        + "\n".join(",".join(r) for r in rows) + "\n"
    )
    out = str(tmp_path / "out")
    rc = cli.main(["summarize", "--out", out, str(report)])
    assert rc == 0
    with open(os.path.join(out, "summary.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "task,method,runs,mean_train_accuracy,mean_test_accuracy"
    grid = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    e = grid[("t", "euclidean")]
    assert int(e[2]) == 2
    assert float(e[3]) == pytest.approx(np.mean([0.5, 0.7]), abs=1e-12)
    assert float(e[4]) == pytest.approx(np.mean([0.25, 0.85]), abs=1e-12)
    l = grid[("t", "learned")]
    assert int(l[2]) == 1
    assert float(l[4]) == pytest.approx(0.6, abs=1e-12)


def test_summarize_requires_inputs():
    assert cli.main(["summarize"]) == 1


def test_summarize_rejects_mixed_headers(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("task,method,seed,lambda_chosen,train_accuracy,test_accuracy\n")
    b = tmp_path / "b.csv"
    b.write_text("task,method,test_accuracy\n")
    rc = cli.main(["summarize", "--out", str(tmp_path / "out"), str(a), str(b)])
    assert rc == 2


def test_summarize_accepts_runs_csv(tmp_path):
    runs = tmp_path / "runs.csv"
    runs.write_text(
        ",".join(cli.RUNS_HEADER) + "\n"
        + "10,0,0,euclidean,0.1,0.5,0.4\n"
        + "10,0,1,euclidean,0.1,0.6,0.6\n"
        + "20,0,0,euclidean,0.1,0.5,0.9\n"
    )
    out = str(tmp_path / "out")
    assert cli.main(["summarize", "--out", out, str(runs)]) == 0
    with open(os.path.join(out, "summary.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("skew_percent,method,runs")
    first = lines[1].split(",")
    assert first[:2] == ["10", "euclidean"]
    assert float(first[-1]) == pytest.approx(0.5, abs=1e-12)
