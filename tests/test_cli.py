import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from otml import adapt as ad
from otml import cli
from otml import data as dt
from otml import gml
from otml import sinkhorn as sk


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
    # Config keys are exactly the field names; no key has a second name.
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"lambda_grid": [0.25], "format": "csv", "m": 40}))
    cfg = cli.load_config(str(cfgfile), {"m": 60})
    assert cfg.lambda_grid == [0.25]
    assert cfg.format == "csv"
    assert cfg.m == 60  # command line beats file
    for key, value in (("lambda", 0.25), ("lam", 0.25), ("fmt", "csv"),
                       ("method", "euclidean")):
        cfgfile.write_text(json.dumps({key: value}))
        with pytest.raises(cli.ConfigError, match=f"unknown config key '{key}'"):
            cli.load_config(str(cfgfile), {})


def test_load_config_rejects_unknown_key(tmp_path):
    cfgfile = tmp_path / "c.json"
    # learn_metric was an alias: "learned" without it is "euclidean".
    for key in ("lambada", "learn_metric"):
        cfgfile.write_text(json.dumps({key: False}))
        with pytest.raises(cli.ConfigError, match="unknown config key"):
            cli.load_config(str(cfgfile), {})


@pytest.mark.parametrize("command, key, value", [
    ("fit", "source_labels", "a.labels"),
    ("fit", "m", 20),
    ("fit", "skews", [50]),
    ("fit", "seeds", [0]),
    ("adapt", "m", 20),
    ("adapt", "n", 20),
    ("adapt", "skews", [50]),
    ("adapt", "target", "b.csv"),
    ("experiment-skew", "target_train", "b.csv"),
    ("summarize", "methods", ["euclidean"]),
    ("adapt", "seeds", [0]),  # adapt draws nothing
])
def test_subcommand_rejects_config_keys_it_does_not_read(tmp_path, capsys, command, key, value):
    # Such a key used to be accepted and silently ignored.
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({key: value}))
    assert cli.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(key) in err
    assert not (tmp_path / "o").exists()


def test_subcommand_keys_are_config_fields():
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert set(cli.COMMAND_KEYS) == set(cli._COMMANDS)
    for keys in cli.COMMAND_KEYS.values():
        assert keys <= fields


def test_load_config_rejects_inputs_key(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"inputs": ["a.csv"]}))
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(cfgfile), {})


def test_load_config_rejects_unreadable_and_non_object_files(tmp_path):
    with pytest.raises(cli.ConfigError, match="^cannot read config"):
        cli.load_config(str(tmp_path / "absent.json"), {})
    cfgfile = tmp_path / "c.json"
    for text, message in (("{", "is not valid JSON"),
                          ("[1]", "^config root must be a JSON object$")):
        cfgfile.write_text(text)
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(str(cfgfile), {})


def test_run_config_defaults_are_the_protocol():
    # The one literal statement of the measured protocol. The scripts and
    # the acceptance suite read it from RunConfig.
    assert cli.RunConfig().lambda_grid == [0.05, 0.2, 0.5, 1.0, 2.0]


@pytest.mark.parametrize("lam", [0.05, 1.0])
def test_run_config_defaults_are_the_solver_configs(lam):
    # The protocol's solver settings at each lambda; the library's
    # SinkhornConfig and GmlConfig keep their tighter defaults.
    assert cli._gml_config(cli.RunConfig(), lam) == gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(lam=lam, tol=1e-7, max_iter=2000),
        outer_iters=8, objective_rtol=1e-5, d_choice="identity",
    )


def test_eps_is_not_a_config_key(tmp_path, capsys):
    # The ridge is gml.EPS; neither a flag nor a config key sets it.
    src = write_matrix_csv(tmp_path / "src.csv", np.random.default_rng(0).normal(size=(2, 5)))
    out = tmp_path / "out"
    argv = ["fit", "--source", src, "--target", src, "--method", "euclidean",
            "--lambda", "0.5", "--out", str(out)]
    assert cli.main(argv + ["--eps", "1e-3"]) == 1
    assert capsys.readouterr().err == (
        "config error: unrecognized arguments: --eps 1e-3; fit takes --config, --method, "
        "--lambda, --outer-iters, --out, --format, --downsample, --source, --target\n"
    )
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"eps": 1e-6}))
    assert cli.main(argv + ["--config", str(cfgfile)]) == 1
    assert capsys.readouterr().err == "config error: unknown config key 'eps'\n"
    assert not out.exists()


def test_config_validation_errors():
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"methods": ["cosine"]})
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"lambda_grid": []})
    # JSON can give a non-string d_choice; GmlConfig's check names the choices.
    for bad in ("spiral", [1, 2], 3, None):
        with pytest.raises(cli.ConfigError, match="d_choice must be one of"):
            cli.load_config(None, {"d_choice": bad})
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"outer_iters": 0})
    nan, inf = float("nan"), float("inf")
    for name in ("sinkhorn_tol", "sinkhorn_max_iter", "objective_rtol", "outer_iters"):
        for bad in (nan, inf):
            with pytest.raises(cli.ConfigError):
                cli.load_config(None, {name: bad})
    for grid in ([nan], [0.1, nan], [inf], [0.1, inf]):
        with pytest.raises(cli.ConfigError, match="lam must be positive"):
            cli.load_config(None, {"lambda_grid": grid})
    for name in ("sinkhorn_max_iter", "outer_iters"):
        for bad in (2.5, True):
            with pytest.raises(cli.ConfigError, match="integer"):
                cli.load_config(None, {name: bad})
    for bad in ({"m": 20.5}, {"n": 2.0}, {"downsample": 1.5},
                {"skew_classes": [0.5]}, {"seeds": [1.5]}, {"seeds": [-1]},
                {"m": True}, {"n": False}, {"downsample": True},
                {"skew_classes": [True]}, {"seeds": [True]}):
        with pytest.raises(cli.ConfigError, match="integer"):
            cli.load_config(None, bad)
    for bad in ("false", 0, 1, None):
        with pytest.raises(cli.ConfigError, match="strict must be true or false"):
            cli.load_config(None, {"strict": bad})
    for name, value, first in (("methods", ["gram", "euclidean", "gram"], "'gram'"),
                               ("lambda_grid", [0.5, 1, 1.0], "1.0"),
                               ("seeds", [3, 3], "3"), ("skews", [20, 50, 20], "20"),
                               ("skew_classes", [0, 1, 1], "1")):
        with pytest.raises(cli.ConfigError, match=f"^{name} repeats {first}$"):
            cli.load_config(None, {name: value})
    # a fractional skew would seed its draws like its integer part
    for bad in ([30.4], [30.0], [20, 0], [100]):
        with pytest.raises(cli.ConfigError, match=r"^skews entries must be integers in \(0, 100\)"):
            cli.load_config(None, {"skews": bad})
    for name in ("out", "name", "source", "source_labels", "target", "target_labels",
                 "target_train", "target_train_labels", "target_test", "target_test_labels"):
        for bad, shown in ((5, "5"), (True, "True"), (["a.csv"], "['a.csv']")):
            with pytest.raises(cli.ConfigError, match=f"^{name} must be a string, got {re.escape(shown)}$"):
                cli.load_config(None, {name: bad})
    for name in ("out", "name"):
        with pytest.raises(cli.ConfigError, match=f"^{name} must be a string, got None$"):
            cli.load_config(None, {name: None})


COUNT_MESSAGES = {
    "sinkhorn_max_iter": "max_iter must be an integer >= 1",
    "outer_iters": "outer_iters must be an integer >= 1",
    "m": "m must be an integer >= 1",
    "n": "n must be an integer >= 1",
    "downsample": "downsample must be an integer >= 1",
    "seeds": "seeds entries must be integers >= 0",
    "skew_classes": "skew_classes entries must be integers >= 0",
}


@pytest.mark.parametrize("name", list(COUNT_MESSAGES))
def test_counts_share_one_integer_rule(name):
    # One predicate, sinkhorn._is_int, decides every count: a numpy integer
    # is one, a bool (JSON true/false), a float or a string is not.
    wrap = (lambda v: [v]) if name in ("seeds", "skew_classes") else (lambda v: v)
    assert getattr(cli.load_config(None, {name: wrap(np.int64(3))}), name) == wrap(3)
    for bad, shown in ((True, "True"), (np.True_, "True"), (2.5, "2.5"), ("3", "3")):
        message = f"^{re.escape(COUNT_MESSAGES[name])}, got {shown}$"
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(None, {name: wrap(bad)})


@pytest.mark.parametrize("name,value", [
    ("methods", "learned"), ("lambda_grid", 0.5), ("seeds", 3), ("skews", 50),
    ("skew_classes", 1),
])
def test_list_fields_must_be_lists(name, value):
    with pytest.raises(cli.ConfigError, match=f"{name} must be a list"):
        cli.load_config(None, {name: value})
    with pytest.raises(cli.ConfigError, match=f"{name} list is empty"):
        cli.load_config(None, {name: []})


@pytest.mark.parametrize("name,value", [
    ("lambda_grid", [True]), ("lambda_grid", [0.1, "0.5"]),
    ("skews", [True]), ("skews", [20, "50"]),
    ("outer_iters", "3"), ("m", "20"),
    ("sinkhorn_tol", False), ("sinkhorn_tol", [1e-9]),
    ("objective_rtol", True), ("objective_rtol", "0"),
])
def test_number_fields_reject_bools_and_strings(name, value):
    # JSON true/false would otherwise pass as 1 and 0; a string is no number.
    with pytest.raises(cli.ConfigError, match=f"^{name} .*must be"):
        cli.load_config(None, {name: value})


def test_bool_lambda_in_config_exits_one_without_outputs(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "source": "absent.csv", "target": "absent.csv",
        "lambda_grid": [True], "out": str(tmp_path / "out"),
    }))
    assert cli.main(["experiment-skew", "--config", str(config)]) == 1
    assert "config error: lambda_grid entries must be numbers, got True" in (
        capsys.readouterr().err
    )
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("key, value", [("out", 5), ("out", True), ("source", ["a.csv"]),
                                        ("source", 7)])
def test_non_string_path_in_config_exits_one(tmp_path, capsys, key, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"source": "absent.csv", "target": "absent.csv", key: value}))
    assert cli.main(["experiment-skew", "--config", str(config)]) == 1
    assert f"config error: {key} must be a string, got {value!r}" in capsys.readouterr().err


def test_negative_objective_rtol_is_config_error(fit_inputs, tmp_path, capsys):
    src, tgt = fit_inputs
    config = tmp_path / "c.json"
    # Python's json reads NaN and Infinity; neither a non-finite setting
    # nor a non-integral count (which range() rejects) may reach the solver.
    inf = float("inf")
    for bad, key in (({"objective_rtol": -1}, "objective_rtol"),
                     ({"lambda_grid": [float("nan")], "methods": ["euclidean"]}, "lam"),
                     ({"lambda_grid": [inf], "methods": ["euclidean"]}, "lam"),
                     ({"lambda_grid": [inf], "methods": ["learned"]}, "lam"),
                     ({"sinkhorn_tol": inf, "methods": ["euclidean"]}, "tol"),
                     ({"sinkhorn_max_iter": 2.5, "methods": ["euclidean"]}, "max_iter"),
                     ({"outer_iters": 2.5}, "outer_iters")):
        config.write_text(json.dumps(
            {**bad, "source": src, "target": tgt, "out": str(tmp_path / "out")}
        ))
        assert cli.main(["fit", "--config", str(config)]) == 1
        assert f"config error: {key}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")


def test_bad_flag_exits_one(capsys):
    assert cli.main(["fit", "--lambda", "abc"]) == 1
    assert "config error" in capsys.readouterr().err


def test_each_subcommand_has_flags_for_its_keys_only():
    (subparsers,) = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(cli.COMMAND_KEYS)
    for name, parser in subparsers.choices.items():
        flagged = {a.dest for a in parser._actions
                   if a.option_strings and a.dest not in ("help", "config")}
        assert flagged <= cli.COMMAND_KEYS[name], name


@pytest.mark.parametrize("argv", [
    ["summarize", "--method", "euclidean"],
    ["summarize", "--seed", "3"],
    ["fit", "--seed", "3"],
    ["fit", "--m", "20"],
    ["adapt", "--target", "b.csv"],
    ["experiment-skew", "--target-train", "b.csv"],
])
def test_flag_of_an_unread_key_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()


def test_summarize_names_the_flags_it_takes(tmp_path, capsys):
    # The input paths take the value of a stray flag, so argparse's message
    # names the flag only; the flags summarize does take follow it.
    out = tmp_path / "out"
    assert cli.main(["summarize", "--method", "euclidean", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: unrecognized arguments: --method; summarize takes --config, --out\n"
    )
    assert not out.exists()


def test_adapt_has_no_seed_flag(tmp_path, capsys):
    # adapt draws nothing, so a seed could only copy its rows.
    out = tmp_path / "out"
    assert cli.main(["adapt", "--seed", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: unrecognized arguments: --seed 0; adapt takes --config, --method, "
        "--lambda, --outer-iters, --out, --name, --format, --downsample, --source, "
        "--target-train, --target-test\n"
    )
    assert not out.exists()


def test_cli_writes_through_the_data_writer():
    # benchmark/tracing.py times and counts the CLI's writes by this name.
    assert cli._write_bytes_atomic is dt.write_atomic


UNUSABLE_OUTS = {
    "file": lambda tmp: str(tmp / "occupied"),
    "under-a-file": lambda tmp: str(tmp / "occupied" / "sub"),
    "empty": lambda tmp: "",
}


@pytest.mark.parametrize("case", list(UNUSABLE_OUTS))
@pytest.mark.parametrize("command", ["fit", "experiment-skew"])
def test_unusable_out_exits_one_before_any_work(fit_inputs, skew_config, tmp_path,
                                                monkeypatch, capsys, command, case):
    # Found only at the end, such an out used to cost the whole run and
    # end in a traceback.
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(ad, "fit_plan", no_work)
    monkeypatch.setattr(ad, "run_task", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "occupied").write_text("keep")
    before = sorted(os.listdir(tmp_path))
    src, tgt = fit_inputs
    if command == "fit":
        argv = ["fit", "--source", src, "--target", tgt, "--method", "euclidean",
                "--lambda", "0.5"]
    else:
        argv = ["experiment-skew", "--config", skew_config]
    assert cli.main([*argv, "--out", UNUSABLE_OUTS[case](tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("config error: out ")
    assert sorted(os.listdir(tmp_path)) == before
    assert (tmp_path / "occupied").read_text() == "keep"


@pytest.mark.parametrize("flag,values", [("--method", ("euclidean", "gram")),
                                         ("--lambda", ("0.2", "0.5"))])
def test_fit_rejects_repeated_flag(fit_inputs, tmp_path, capsys, flag, values):
    src, tgt = fit_inputs
    out = tmp_path / "out"
    other = ["--lambda", "0.2"] if flag == "--method" else ["--method", "euclidean"]
    argv = ["fit", "--source", src, "--target", tgt, "--out", str(out), *other]
    for v in values:
        argv += [flag, v]
    assert cli.main(argv) == 1
    assert f"config error: fit takes one {flag}, got 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    ([], "fit takes one --method, got 4"),
    (["--method", "euclidean"], "fit takes one --lambda, got 5"),
], ids=["no-method", "no-lambda"])
def test_fit_needs_one_method_and_one_lambda(tmp_path, capsys, argv, message):
    # The defaults hold every method and five lambdas; fit says so before
    # it reads any input (the inputs here do not exist).
    out = tmp_path / "out"
    absent = str(tmp_path / "absent.csv")
    rc = cli.main(["fit", "--source", absent, "--target", absent,
                   "--out", str(out), *argv])
    assert rc == 1
    assert f"config error: {message}\n" == capsys.readouterr().err
    assert not out.exists()


def test_fit_reads_methods_and_lambda_grid_from_config(fit_inputs, tmp_path):
    src, tgt = fit_inputs
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"methods": ["euclidean"], "lambda_grid": [0.5]}))
    trees = []
    for sub, argv in (("config", ["--config", str(cfgfile)]),
                      ("flags", ["--method", "euclidean", "--lambda", "0.5"])):
        out = tmp_path / sub
        assert cli.main(["fit", "--source", src, "--target", tgt,
                         "--out", str(out), *argv]) == 0
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert trees[0] == trees[1]
    assert trees[0]["objective.csv"].count(b"\n") == 2  # header + one sweep


@pytest.mark.parametrize("command", ["fit", "adapt"])
def test_removed_config_keys_exit_one_without_outputs(tmp_path, capsys, command):
    rng = np.random.default_rng(6)
    cloud = write_cloud_csv(tmp_path / "cloud.csv", rng)
    out = tmp_path / "out"
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "method": "euclidean", "lambda": 0.5, "source": cloud, "target": cloud,
        "target_train": cloud, "target_test": cloud, "out": str(out),
    }))
    assert cli.main([command, "--config", str(cfgfile)]) == 1
    assert "config error: unknown config key 'method'" in capsys.readouterr().err
    assert not out.exists()


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
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"sinkhorn_tol": 1e-9}))
    rc = cli.main(
        ["fit", "--config", str(cfgfile), "--method", "euclidean", "--lambda", "0.2",
         "--source", src, "--target", tgt, "--out", out]
    )
    assert rc == 0
    assert "objective=" in capsys.readouterr().out

    plan = dt.load_matrix(os.path.join(out, "gamma.rawf64")).features
    assert plan.shape == (7, 5)
    np.testing.assert_allclose(plan.sum(axis=1), 1 / 7, atol=1e-9)
    np.testing.assert_allclose(plan.sum(axis=0), 1 / 5, atol=1e-9)

    # The metric carries the median normalization of the cost.
    x = dt.load_matrix(src).features
    z = dt.load_matrix(tgt).features
    median = np.median(gml.cost_matrix(x, z, np.eye(2)))
    metric = dt.load_matrix(os.path.join(out, "metric.rawf64")).features
    np.testing.assert_array_equal(metric, np.eye(2) / median)

    with open(os.path.join(out, "objective.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "iteration,objective"
    float(lines[1].split(",")[1])


@pytest.mark.parametrize("method", ad.METHODS)
def test_fit_writes_the_fit_plan_result(tmp_path, capsys, method):
    # Feature scale ~30: without the median normalization the Euclidean
    # solve at lambda 0.2 stopped at max_iter unconverged.
    rng = np.random.default_rng(0)
    x = 30.0 * rng.normal(size=(2, 7))
    z = 30.0 * (rng.normal(size=(2, 5)) + 1.0)
    src = write_matrix_csv(tmp_path / "src.csv", x)
    tgt = write_matrix_csv(tmp_path / "tgt.csv", z)
    out = tmp_path / "out"
    # A tight tol, so that the re-solve below can be held to 1e-8.
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"sinkhorn_tol": 1e-9}))
    assert cli.main(["fit", "--config", str(cfgfile), "--method", method, "--lambda", "0.2",
                     "--source", src, "--target", tgt, "--out", str(out)]) == 0
    assert "converged=True" in capsys.readouterr().out

    x, z = dt.load_matrix(src).features, dt.load_matrix(tgt).features
    p, q = np.full(7, 1 / 7), np.full(5, 1 / 5)
    cfg = cli._gml_config(cli.load_config(str(cfgfile), {}), 0.2)
    (expected,) = ad.fit_plan(x, z, p, q, method, [0.2], cfg)
    plan = dt.load_matrix(str(out / "gamma.rawf64")).features
    metric = dt.load_matrix(str(out / "metric.rawf64")).features
    np.testing.assert_array_equal(plan, expected.plan)
    np.testing.assert_array_equal(metric, expected.metric)
    # The written metric is the one whose cost the plan solves.
    resolved = sk.solve(gml.cost_matrix(x, z, metric), p, q, cfg.sinkhorn)
    np.testing.assert_allclose(resolved.matrix, plan, rtol=0, atol=1e-8)


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
        ["fit", "--method", "learned", "--lambda", "0.1",
         "--source", str(tmp_path / "absent.csv"),
         "--target", str(tmp_path / "absent.csv"), "--out", out]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"data error: {tmp_path / 'absent.csv'}: no such file\n"
    assert not os.path.exists(out)


def test_fit_non_finite_rawf64_exits_two_without_outputs(fit_inputs, tmp_path, capsys):
    src, tgt = fit_inputs
    bad = str(tmp_path / "nan.rawf64")
    dt.save_rawf64(bad, np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 2.0]]))
    out = str(tmp_path / "out")
    rc = cli.main(["fit", "--method", "learned", "--lambda", "0.1",
                   "--source", bad, "--target", tgt, "--out", out])
    assert rc == 2
    assert f"data error: {bad}: non-finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_fit_header_only_csv_exits_two_without_outputs(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("f0,f1\n")
    out = str(tmp_path / "out")
    rc = cli.main(["fit", "--method", "learned", "--lambda", "0.1",
                   "--source", str(empty), "--target", str(empty), "--out", out])
    assert rc == 2
    assert f"data error: {empty}: no points" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("ext", ["rawf64", "csv"])
def test_fit_downsample_on_non_idx_input_exits_two(tmp_path, capsys, ext):
    # Average-pooling applies to idx images only; elsewhere it is refused.
    feats = np.random.default_rng(8).normal(size=(6, 10))
    src = str(tmp_path / f"a.{ext}")
    if ext == "csv":
        write_matrix_csv(tmp_path / "a.csv", feats)
    else:
        dt.save_rawf64(src, feats)
    out = tmp_path / "out"
    rc = cli.main(["fit", "--source", src, "--target", src, "--method", "euclidean",
                   "--lambda", "0.5", "--downsample", "4", "--out", str(out)])
    assert rc == 2
    assert f"data error: {src}: downsample and labels_path apply to idx files only" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_fit_strict_nonconvergence_exits_three(fit_inputs, tmp_path, capsys):
    src, tgt = fit_inputs
    cfgfile = tmp_path / "strict.json"
    cfgfile.write_text(json.dumps(
        {"strict": True, "sinkhorn_max_iter": 1, "lambda_grid": [0.01],
         "methods": ["euclidean"]}
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
# strict


@pytest.mark.parametrize("command", ["adapt", "experiment-skew"])
def test_strict_nonconvergence_exits_three_without_outputs(
    tmp_path, capsys, command
):
    rng = np.random.default_rng(4)
    if command == "adapt":
        cloud = write_cloud_csv(tmp_path / "cloud.csv", rng)
        inputs = {"source": cloud, "target_train": cloud, "target_test": cloud}
    else:
        inputs = {
            "source": write_pool_rawf64(tmp_path / "s.rawf64", rng),
            "target": write_pool_rawf64(tmp_path / "t.rawf64", rng, shift=0.4),
            "m": 20, "n": 20, "skews": [50], "skew_classes": [1], "seeds": [0],
        }
    base = {**inputs, "methods": ["euclidean"], "lambda_grid": [0.01],
            "sinkhorn_max_iter": 1}
    cfgfile = tmp_path / "c.json"
    # Without strict the run goes on and warns; under strict it stops.
    for strict, code, kind in ((False, 0, "warning"), (True, 3, "numerical error")):
        out = tmp_path / f"out-{strict}"
        cfgfile.write_text(json.dumps({**base, "strict": strict, "out": str(out)}))
        assert cli.main([command, "--config", str(cfgfile)]) == code
        assert out.exists() == (not strict)
        err = capsys.readouterr().err
        assert f"{kind}: transport solve did not converge (euclidean)\n" in err


# ---------------------------------------------------------------------------
# adapt


def test_adapt_identical_clouds(tmp_path, capsys):
    rng = np.random.default_rng(1)
    cloud = write_cloud_csv(tmp_path / "cloud.csv", rng)
    out = str(tmp_path / "out")
    rc = cli.main(
        ["adapt", "--source", cloud, "--target-train", cloud,
         "--target-test", cloud, "--method", "euclidean", "--method", "gram",
         "--lambda", "0.01", "--lambda", "1.0", "--out", out, "--name", "self"]
    )
    assert rc == 0

    with open(os.path.join(out, "report.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "task,method,lambda_chosen,train_accuracy,test_accuracy"
    body = [l.split(",") for l in lines[1:]]
    assert [row[:2] for row in body] == [["self", "euclidean"], ["self", "gram"]]
    for row in body:
        assert float(row[4]) == 1.0  # identical clouds classify perfectly

    with open(os.path.join(out, "report.json")) as fh:
        payload = json.load(fh)
    assert [r["method"] for r in payload] == ["euclidean", "gram"]
    for rec in payload:
        assert list(rec) == cli.REPORT_HEADER
        assert isinstance(rec["test_accuracy"], float)
        assert rec["test_accuracy"] == 1.0


@pytest.mark.parametrize("method", ["learned", "euclidean"])
def test_adapt_non_finite_csv_exits_two_without_outputs(tmp_path, capsys, method):
    rng = np.random.default_rng(5)
    cloud = write_cloud_csv(tmp_path / "cloud.csv", rng)
    bad = tmp_path / "nan.csv"
    lines = (tmp_path / "cloud.csv").read_text().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    bad.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    rc = cli.main(
        ["adapt", "--source", str(bad), "--target-train", cloud,
         "--target-test", cloud, "--method", method, "--out", out]
    )
    assert rc == 2
    assert f"data error: {bad}: non-finite" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("label", ["inf", "-inf", "1e300"])
def test_adapt_csv_label_beyond_int64_exits_two_without_outputs(tmp_path, capsys, label):
    # A data error, also where a RuntimeWarning is an error: the label is
    # refused before any cast to int.
    cloud = write_cloud_csv(tmp_path / "cloud.csv", np.random.default_rng(5))
    bad = tmp_path / "label.csv"
    lines = (tmp_path / "cloud.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + "," + label
    bad.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(
            ["adapt", "--source", cloud, "--target-train", str(bad),
             "--target-test", cloud, "--method", "euclidean", "--out", out]
        )
    assert rc == 2
    assert f"data error: {bad}: label not finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_adapt_label_path_on_csv_input_exits_two(tmp_path, capsys):
    # A csv carries its labels in its last column; a label file is refused.
    cloud = write_cloud_csv(tmp_path / "cloud.csv", np.random.default_rng(2))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"target_test_labels": cloud}))
    out = tmp_path / "out"
    rc = cli.main(["adapt", "--config", str(config), "--source", cloud,
                   "--target-train", cloud, "--target-test", cloud,
                   "--method", "euclidean", "--out", str(out)])
    assert rc == 2
    assert "idx files only" in capsys.readouterr().err
    assert not out.exists()


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable, fit
    # and adapt with every method still run.
    cloud = write_cloud_csv(tmp_path / "cloud.csv", np.random.default_rng(6))
    methods = [arg for m in ad.METHODS for arg in ("--method", m)]
    fit = ["fit", "--source", cloud, "--target", cloud, "--method", "learned",
           "--lambda", "0.5", "--out", str(tmp_path / "fit")]
    adapt = ["adapt", "--source", cloud, "--target-train", cloud,
             "--target-test", cloud, *methods, "--out", str(tmp_path / "adapt")]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from otml import cli\n"
        f"sys.exit(cli.main({fit!r}) or cli.main({adapt!r}))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "fit" / "gamma.rawf64").exists()
    lines = (tmp_path / "adapt" / "report.csv").read_text().splitlines()
    assert [l.split(",")[1] for l in lines[1:]] == list(ad.METHODS)  # one row per method


def test_importing_the_layers_loads_neither_numpy_random_nor_statistics():
    # A cold start pays only for what import needs: numpy loads numpy.random
    # on first attribute access, and statistics pulls in random, hashlib,
    # fractions and decimal. Each is loaded where it is used, not at import.
    code = (
        "import sys\n"
        "from otml import adapt, cli, data, gml, sinkhorn, spd\n"
        "print(sorted({'numpy.random', 'statistics'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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


def test_progress_lines_name_each_run(skew_config, tmp_path, capsys):
    cloud = write_cloud_csv(tmp_path / "cloud.csv", np.random.default_rng(1))
    assert cli.main(["adapt", "--source", cloud, "--target-train", cloud,
                     "--target-test", cloud, "--method", "euclidean", "--method", "gram",
                     "--lambda", "1.0", "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == "adapt: method=euclidean\nadapt: method=gram\n"
    assert cli.main(["experiment-skew", "--config", skew_config,
                     "--out", str(tmp_path / "s")]) == 0
    assert capsys.readouterr().err == "".join(
        f"experiment-skew: w={w} class=1 seed={seed} method=euclidean\n"
        for w in (30, 50) for seed in (0, 1)
    )


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


def test_experiment_skew_repeated_method_exits_one(skew_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["experiment-skew", "--config", skew_config, "--out", str(out),
                   "--method", "euclidean", "--method", "euclidean"])
    assert rc == 1
    assert "config error: methods repeats 'euclidean'\n" == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("skew_classes", [None, [1]])
def test_experiment_skew_stray_large_label_exits_two(tmp_path, capsys, skew_classes):
    # The class list and the per-class counts are sized by the largest
    # label + 1; a pool with one label of 2^60 is a data error, before
    # anything that size is allocated.
    rng = np.random.default_rng(5)
    src = write_cloud_csv(tmp_path / "src.csv", rng, per_class=10)
    tgt = tmp_path / "tgt.csv"
    write_cloud_csv(tgt, rng, per_class=10)
    tgt.write_text(tgt.read_text() + f"4.0,4.0,{1 << 60}\n")
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "source": src, "target": str(tgt), "m": 4, "n": 4, "skews": [50],
        "skew_classes": skew_classes, "seeds": [0], "methods": ["euclidean"],
    }))
    out = tmp_path / "out"
    assert cli.main(["experiment-skew", "--config", str(config), "--out", str(out)]) == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


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


def write_three_class_skew_config(tmp_path, **overrides):
    rng = np.random.default_rng(4)
    cfgfile = tmp_path / "exp.json"
    cfgfile.write_text(json.dumps({
        "source": write_pool_rawf64(tmp_path / "src.rawf64", rng, k=3),
        "target": write_pool_rawf64(tmp_path / "tgt.rawf64", rng, k=3, shift=0.4),
        "m": 6, "n": 6, "skews": [50], "seeds": [0], "methods": ["euclidean"],
        "lambda_grid": [1.0], **overrides,
    }))
    return str(cfgfile)


def test_experiment_skew_without_skew_classes_sweeps_every_class(tmp_path):
    out = tmp_path / "out"
    config = write_three_class_skew_config(tmp_path)
    assert cli.main(["experiment-skew", "--config", config, "--out", str(out)]) == 0
    rows = (out / "runs.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["0", "1", "2"]


@pytest.mark.parametrize("overrides, message", [
    ({"skew_classes": [1, 3]}, "skew class 3 out of range"),
    ({"target": "wide"}, "source and target pools have different dimensions"),
])
def test_experiment_skew_bad_pools_exit_two(tmp_path, capsys, overrides, message):
    if overrides.get("target") == "wide":
        rng = np.random.default_rng(4)
        overrides["target"] = write_pool_rawf64(tmp_path / "wide.rawf64", rng, k=3, dim=4)
    out = tmp_path / "out"
    config = write_three_class_skew_config(tmp_path, **overrides)
    assert cli.main(["experiment-skew", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# summarize


def test_summarize_means_match_numpy(tmp_path):
    report = tmp_path / "report.csv"
    rows = [
        ["t", "euclidean", "0", "0.1", "0.5", "0.25"],
        ["t", "euclidean", "1", "0.1", "0.7", "0.85"],
        ["t", "learned", "0", "0.5", "0.9", "0.6"],
    ]
    # adapt's reports once had a seed column; summarize still reads them.
    report.write_text(
        "task,method,seed,lambda_chosen,train_accuracy,test_accuracy\n"
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


def test_summarize_short_row_exits_two(tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_text(
        "task,method,seed,lambda_chosen,train_accuracy,test_accuracy\n"
        "t,euclidean,0,0.1,0.5\n"
    )
    out = tmp_path / "out"
    assert cli.main(["summarize", "--out", str(out), str(report)]) == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["p.rawf64", "long-field.csv"])
def test_summarize_unreadable_csv_exits_two(tmp_path, capsys, name):
    # Undecodable bytes and a field past csv's size limit used to end in
    # a traceback.
    path = tmp_path / name
    if name.endswith(".rawf64"):
        dt.save_rawf64(str(path), np.random.default_rng(0).normal(size=(3, 8)))
    else:
        path.write_text("task,test_accuracy\n" + "t" * 200_000 + ",0.5\n")
    out = tmp_path / "out"
    assert cli.main(["summarize", "--out", str(out), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ")
    assert not out.exists()


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


def test_summarize_reads_past_a_byte_order_mark(tmp_path):
    # Read as plain utf-8, the first column is "\ufefftask": the tasks merge.
    report = tmp_path / "report.csv"
    report.write_bytes(b"\xef\xbb\xbftask,method,test_accuracy\nt,e,0.5\nu,e,0.75\n")
    out = tmp_path / "out"
    assert cli.main(["summarize", "--out", str(out), str(report)]) == 0
    assert (out / "summary.csv").read_text().splitlines() == [
        "task,method,runs,mean_test_accuracy", "t,e,1,0.5", "u,e,1,0.75",
    ]


@pytest.mark.parametrize("header, row, message", [
    ("task,method,test_accuracy", "t,e,0.5,extra", "more cells than the header"),
    ("task,method,test_accuracy", "t,e,nan", "non-finite accuracy value"),
    ("task,method,test_accuracy", "t,e,-inf", "non-finite accuracy value"),
    ("task,method,train_accuracy,test_accuracy", "t,e,inf,0.5", "non-finite accuracy value"),
], ids=["long-row", "nan", "minus-inf", "train-inf"])
def test_summarize_rejects_long_rows_and_non_finite_accuracies(
    tmp_path, capsys, header, row, message
):
    report = tmp_path / "report.csv"
    cells = header.count(",") + 1
    report.write_text(f"{header}\n" + ",".join(["t", "e"] + ["0.5"] * (cells - 2))
                      + f"\n{row}\n")
    out = tmp_path / "out"
    assert cli.main(["summarize", "--out", str(out), str(report)]) == 2
    assert capsys.readouterr().err == f"data error: {report}: line 3: {message}\n"
    assert not out.exists()
