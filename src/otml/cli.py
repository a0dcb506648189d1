"""Command-line front end.

Subcommands
-----------
fit
    Fit a transport plan (and, for the learned method, a ground metric)
    between two point-cloud files through ``adapt.fit_plan``, so lambda
    is normalized as in adapt; writes gamma.rawf64, metric.rawf64 (whose
    cost the plan solves) and objective.csv into the output directory.
    Takes exactly one method and one lambda: ``methods`` and
    ``lambda_grid`` must each hold one entry.
adapt
    Run the adaptation protocol on labeled source / target-train /
    target-test files and write one report row per (seed, method).
experiment-skew
    Full skew sweep: for every (skew percent, skew class, seed) draw a
    uniform source sample and two disjoint skewed target samples from the
    supplied pools, run every method, and write per-run rows plus a
    per-skew mean-accuracy table.
summarize
    Aggregate report CSVs: group rows (over seeds and skew classes) and
    average the accuracy columns.

Configuration is a JSON object whose keys are exactly the field names
of the RunConfig dataclass below. Each flag sets one field and
overrides the file value; repeated ``--method``, ``--lambda`` and
``--seed`` flags make up the ``methods``, ``lambda_grid`` and ``seeds``
lists. Exit codes: 0 success, 1 configuration error, 2 data error,
3 numerical failure (under ``strict`` also an unconverged solve, before
any output).
Results go to stdout, diagnostics to stderr. Output files are written
atomically (temp file then rename).
"""

import argparse
import csv
import io
import json
import numbers
import os
import statistics
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import adapt as ad
from . import data as dt
from . import gml
from . import sinkhorn as sk
from .spd import PositivityError

DEFAULT_LAMBDA_GRID = (0.005, 0.01, 0.05, 0.1, 0.5, 1.0)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)


class ConfigError(ValueError):
    """Bad configuration (exit code 1)."""


class DataError(ValueError):
    """Unreadable or inconsistent input data (exit code 2)."""


class NumericalError(RuntimeError):
    """Numerical failure under the strict flag (exit code 3)."""


@dataclass
class RunConfig:
    """Everything a subcommand needs; mirrors the JSON schema."""

    methods: "list[str]" = field(default_factory=lambda: list(ad.METHODS))
    d_choice: str = "identity"
    lambda_grid: "list[float]" = field(
        default_factory=lambda: list(DEFAULT_LAMBDA_GRID)
    )
    outer_iters: int = 20
    eps: float = 1e-6
    objective_rtol: float = 1e-6
    sinkhorn_tol: float = 1e-9
    sinkhorn_max_iter: int = 10000
    strict: bool = False
    seeds: "list[int]" = field(default_factory=lambda: list(DEFAULT_SEEDS))
    out: str = "out"
    name: str = ""
    format: "str | None" = None
    downsample: int = 1
    source: "str | None" = None
    source_labels: "str | None" = None
    target: "str | None" = None
    target_labels: "str | None" = None
    target_train: "str | None" = None
    target_train_labels: "str | None" = None
    target_test: "str | None" = None
    target_test_labels: "str | None" = None
    m: int = 500
    n: int = 500
    skews: "list[int]" = field(default_factory=lambda: [10, 20, 30, 40, 50])
    skew_classes: "list[int] | None" = None
    inputs: "list[str]" = field(default_factory=list)

    def __post_init__(self):
        for name in ("methods", "lambda_grid", "seeds", "skews", "skew_classes"):
            value = getattr(self, name)
            if name == "skew_classes" and value is None:  # every class
                continue
            if not isinstance(value, list):
                raise ConfigError(f"{name} must be a list, got {value!r}")
            if not value:
                raise ConfigError(f"{name} list is empty")
        for m in self.methods:
            if m not in ad.METHODS:
                raise ConfigError(f"unknown method {m!r}")
        # GmlConfig would take a matrix; JSON can only give a list here.
        if not isinstance(self.d_choice, str):
            raise ConfigError(f"d_choice must be one of {gml.D_CHOICES}")
        # The solver configs own the range checks of their settings.
        try:
            for lam in self.lambda_grid:
                _gml_config(self, lam)
        except ValueError as e:
            raise ConfigError(str(e))
        if not isinstance(self.strict, bool):
            raise ConfigError(f"strict must be true or false, got {self.strict!r}")
        for name in ("m", "n", "downsample"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value}")
        # Seeds feed numpy's seeding, which takes nonnegative integers only.
        for name in ("seeds", "skew_classes"):
            for value in getattr(self, name) or ():
                if not (_is_int(value) and value >= 0):
                    raise ConfigError(
                        f"{name} entries must be integers >= 0, got {value}"
                    )
        if self.format is not None and self.format not in dt.FORMATS:
            raise ConfigError(f"format must be one of {dt.FORMATS}")
        for w in self.skews:
            if not 0 < w < 100:
                raise ConfigError(f"skew percent {w} outside (0, 100)")


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as an integer.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _gml_config(cfg: RunConfig, lam: float) -> gml.GmlConfig:
    return gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(
            lam=lam, max_iter=cfg.sinkhorn_max_iter, tol=cfg.sinkhorn_tol
        ),
        outer_iters=cfg.outer_iters,
        eps=cfg.eps,
        d_choice=cfg.d_choice,
        objective_rtol=cfg.objective_rtol,
    )


def load_config(path: "str | None", overrides: dict) -> RunConfig:
    """Merge a JSON config file (optional) with flag overrides."""
    values = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        values.update(raw)
    values.update(overrides)
    known = {f.name for f in fields(RunConfig)}
    merged = {}
    for key, val in values.items():
        if key not in known or key == "inputs":
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = val
    try:
        return RunConfig(**merged)
    except TypeError as e:
        raise ConfigError(str(e))


# ---------------------------------------------------------------------------
# output helpers


def _write_bytes_atomic(path: str, payload: bytes):
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv_atomic(path: str, header: "list[str]", rows: "list[list]"):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    _write_bytes_atomic(path, buf.getvalue().encode())


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def _json_cell(v):
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    return v


def _print_table(header: "list[str]", rows: "list[list]"):
    cells = [[str(h) for h in header]]
    for row in rows:
        cells.append(
            [f"{v:.4f}" if isinstance(v, (float, np.floating)) else str(v) for v in row]
        )
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        print("  ".join(s.rjust(w) for s, w in zip(r, widths)))


# ---------------------------------------------------------------------------
# data helpers


def _load(path, cfg: RunConfig, labeled: bool, labels_path=None) -> dt.RawDataset:
    if path is None:
        raise DataError("required input path missing from config")
    try:
        return dt.load_matrix(
            path,
            fmt=cfg.format,
            labeled=labeled,
            labels_path=labels_path,
            downsample=cfg.downsample,
        )
    except (OSError, ValueError) as e:
        raise DataError(str(e))


def _load_labeled(path, cfg: RunConfig, labels_path) -> dt.RawDataset:
    ds = _load(path, cfg, labeled=True, labels_path=labels_path)
    if ds.labels is None:
        raise DataError(f"{path}: labels required but not present")
    return ds


def _check_converged(cfg: RunConfig, converged: bool, method: str):
    # Under strict, an unconverged solve ends the run before any output.
    if cfg.strict and not converged:
        raise NumericalError(f"transport solve did not converge ({method})")


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(cfg: RunConfig) -> int:
    """Fit one plan/metric pair and dump it to the output directory."""
    for flag, values in (("--method", cfg.methods), ("--lambda", cfg.lambda_grid)):
        if len(values) != 1:
            raise ConfigError(f"fit takes one {flag}, got {len(values)}")
    (method,), (lam,) = cfg.methods, cfg.lambda_grid
    src = _load(cfg.source, cfg, labeled=False)
    tgt = _load(cfg.target, cfg, labeled=False)
    x, z = src.features, tgt.features
    if x.shape[0] != z.shape[0]:
        raise DataError(
            f"feature dimensions differ: {x.shape[0]} vs {z.shape[0]}"
        )
    m, n = x.shape[1], z.shape[1]
    p = np.full(m, 1.0 / m)
    q = np.full(n, 1.0 / n)
    result = ad.fit_plan(x, z, p, q, method, lam, _gml_config(cfg, lam))
    _check_converged(cfg, result.sinkhorn_converged, method)
    os.makedirs(cfg.out, exist_ok=True)
    for name, mat in (("gamma.rawf64", result.plan), ("metric.rawf64", result.metric)):
        _write_bytes_atomic(os.path.join(cfg.out, name), dt.rawf64_bytes(mat))
    history = result.objective_history
    _write_csv_atomic(
        os.path.join(cfg.out, "objective.csv"),
        ["iteration", "objective"],
        [[i, v] for i, v in enumerate(history)],
    )
    print(
        f"objective={history[-1]!r} iterations={result.iters_run} "
        f"converged={result.sinkhorn_converged}"
    )
    return 0


REPORT_HEADER = [
    "task",
    "method",
    "seed",
    "lambda_chosen",
    "train_accuracy",
    "test_accuracy",
]


def cmd_adapt(cfg: RunConfig) -> int:
    """Adaptation protocol on fixed files; one row per (seed, method).

    The pipeline is deterministic given the input files, so the seed only
    labels the row; each method is computed once and stamped per seed.
    """
    source = _load_labeled(cfg.source, cfg, cfg.source_labels)
    ttrain = _load_labeled(cfg.target_train, cfg, cfg.target_train_labels)
    ttest = _load_labeled(cfg.target_test, cfg, cfg.target_test_labels)
    dims = {ds.features.shape[0] for ds in (source, ttrain, ttest)}
    if len(dims) != 1:
        raise DataError(f"feature dimensions differ across inputs: {sorted(dims)}")
    gcfg = _gml_config(cfg, cfg.lambda_grid[0])
    rows = []
    for method in cfg.methods:
        print(f"adapt: method={method}", file=sys.stderr)
        rep = ad.run_task(source, ttrain, ttest, method, list(cfg.lambda_grid), gcfg)
        _check_converged(cfg, rep.sinkhorn_converged, method)
        for seed in cfg.seeds:
            rows.append(
                [
                    cfg.name,
                    method,
                    seed,
                    rep.lambda_chosen,
                    rep.train_accuracy,
                    rep.test_accuracy,
                ]
            )
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv_atomic(os.path.join(cfg.out, "report.csv"), REPORT_HEADER, rows)
    payload = [dict(zip(REPORT_HEADER, (_json_cell(v) for v in row))) for row in rows]
    _write_bytes_atomic(
        os.path.join(cfg.out, "report.json"),
        (json.dumps(payload, indent=2) + "\n").encode(),
    )
    _print_table(REPORT_HEADER, rows)
    return 0


RUNS_HEADER = [
    "skew_percent",
    "skew_class",
    "seed",
    "method",
    "lambda_chosen",
    "train_accuracy",
    "test_accuracy",
]


def cmd_experiment_skew(cfg: RunConfig) -> int:
    """Skew sweep over (percent, class, seed, method)."""
    src_pool = _load_labeled(cfg.source, cfg, cfg.source_labels)
    tgt_pool = _load_labeled(cfg.target, cfg, cfg.target_labels)
    if src_pool.features.shape[0] != tgt_pool.features.shape[0]:
        raise DataError("source and target pools have different dimensions")
    classes = cfg.skew_classes
    if classes is None:
        classes = list(range(tgt_pool.class_count))
    for c in classes:
        if not 0 <= c < tgt_pool.class_count:
            raise DataError(f"skew class {c} out of range")
    gcfg = _gml_config(cfg, cfg.lambda_grid[0])
    rows = []
    for w in cfg.skews:
        for c in classes:
            for seed in cfg.seeds:
                mix = np.random.SeedSequence([int(seed), int(w), int(c)])
                s_src, s_tgt = (int(v) for v in mix.generate_state(2))
                try:
                    x_cloud = dt.uniform_sample(src_pool, cfg.m, s_src)
                    spec = dt.SkewSpec(c, float(w), cfg.n)
                    ztrain, ztest = dt.disjoint_split(tgt_pool, spec, spec, s_tgt)
                except ValueError as e:
                    raise DataError(str(e))
                for method in cfg.methods:
                    print(
                        f"experiment-skew: w={w} class={c} seed={seed} "
                        f"method={method}",
                        file=sys.stderr,
                    )
                    rep = ad.run_task(
                        x_cloud,
                        ztrain,
                        ztest,
                        method,
                        list(cfg.lambda_grid),
                        gcfg,
                        seed=seed,
                    )
                    _check_converged(cfg, rep.sinkhorn_converged, method)
                    rows.append(
                        [
                            w,
                            c,
                            seed,
                            method,
                            rep.lambda_chosen,
                            rep.train_accuracy,
                            rep.test_accuracy,
                        ]
                    )
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv_atomic(os.path.join(cfg.out, "runs.csv"), RUNS_HEADER, rows)

    table_header = ["skew_percent"] + list(cfg.methods)
    table_rows = []
    for w in cfg.skews:
        row = [w]
        for method in cfg.methods:
            vals = [r[6] for r in rows if r[0] == w and r[3] == method]
            row.append(statistics.fmean(vals))
        table_rows.append(row)
    _write_csv_atomic(os.path.join(cfg.out, "table.csv"), table_header, table_rows)
    _print_table(table_header, table_rows)
    return 0


def cmd_summarize(cfg: RunConfig) -> int:
    """Average accuracy columns of report CSVs over seeds (and skew classes)."""
    if not cfg.inputs:
        raise ConfigError("summarize needs at least one input csv")
    rows = []
    header = None
    for path in cfg.inputs:
        try:
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None:
                    raise DataError(f"{path}: empty csv")
                if header is None:
                    header = reader.fieldnames
                elif reader.fieldnames != header:
                    raise DataError(f"{path}: header differs from first input")
                rows.extend(reader)
        except OSError as e:
            raise DataError(str(e))
    if "test_accuracy" not in header:
        raise DataError("inputs lack a test_accuracy column")
    keys = [k for k in ("task", "skew_percent", "method") if k in header]
    groups = {}
    order = []
    for row in rows:
        key = tuple(row[k] for k in keys)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out_header = keys + ["runs", "mean_test_accuracy"]
    has_train = "train_accuracy" in header
    if has_train:
        out_header.insert(len(keys) + 1, "mean_train_accuracy")
    out_rows = []
    for key in order:
        grp = groups[key]
        try:
            test_mean = statistics.fmean(float(r["test_accuracy"]) for r in grp)
            row = list(key) + [len(grp), test_mean]
            if has_train:
                row.insert(
                    len(keys) + 1,
                    statistics.fmean(float(r["train_accuracy"]) for r in grp),
                )
        except (TypeError, ValueError) as e:  # a short row's cells read None
            raise DataError(f"non-numeric accuracy value: {e}")
        out_rows.append(row)
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv_atomic(os.path.join(cfg.out, "summary.csv"), out_header, out_rows)
    _print_table(out_header, out_rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="otml", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fit", "adapt", "experiment-skew", "summarize"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--method", dest="methods", action="append", default=None)
        sp.add_argument(
            "--lambda", dest="lambda_grid", action="append", type=float, default=None
        )
        sp.add_argument("--outer-iters", type=int, default=None)
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--seed", dest="seeds", action="append", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--name", default=None)
        sp.add_argument("--format", default=None)
        sp.add_argument("--downsample", type=int, default=None)
        sp.add_argument("--source", default=None)
        sp.add_argument("--target", default=None)
        sp.add_argument("--target-train", dest="target_train", default=None)
        sp.add_argument("--target-test", dest="target_test", default=None)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--n", type=int, default=None)
        if name == "summarize":
            sp.add_argument("inputs", nargs="*", default=[])
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    # Each flag's dest is its RunConfig field.
    return {
        key: val
        for key, val in vars(args).items()
        if val is not None and key not in ("command", "config", "inputs")
    }


_COMMANDS = {
    "fit": cmd_fit,
    "adapt": cmd_adapt,
    "experiment-skew": cmd_experiment_skew,
    "summarize": cmd_summarize,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config, _overrides(args))
        if args.command == "summarize":
            cfg = replace(cfg, inputs=list(args.inputs))
        return _COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NumericalError, PositivityError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
