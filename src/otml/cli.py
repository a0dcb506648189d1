"""Command-line front end.

Subcommands
-----------
fit
    Fit a transport plan (and, for the learned method, a ground metric)
    between two point-cloud files through ``adapt.fit_plan`` on a
    one-entry grid, so lambda is normalized as in adapt; writes
    gamma.rawf64, metric.rawf64 (whose cost the plan solves) and
    objective.csv into the output directory. Takes exactly one method
    and one lambda: ``methods`` and ``lambda_grid`` must each hold one
    entry.
adapt
    Run the adaptation protocol on labeled source / target-train /
    target-test files and write one report row per method. Each method
    fits its whole lambda grid through one ``adapt.run_task``.
experiment-skew
    Full skew sweep: for every (skew percent, skew class, seed) draw a
    uniform source sample and two disjoint skewed target samples from the
    supplied pools, run every method, and write per-run rows plus a
    per-skew mean-accuracy table.
summarize
    Aggregate report CSVs: group rows (over seeds and skew classes) and
    average the accuracy columns.

Configuration is a JSON object whose keys are RunConfig field names,
only those the subcommand reads (COMMAND_KEYS); a subcommand has the
flags of those keys only. Each flag sets one field and overrides the file
value; repeated ``--method``, ``--lambda`` and ``--seed`` flags make up
the ``methods``, ``lambda_grid`` and ``seeds`` lists. Numeric fields and
the entries of ``lambda_grid`` must be JSON numbers, the entries of
``skews`` integers in (0, 100) (true/false are rejected), and ``out``,
``name`` and the input paths strings. ``out`` must be a directory or
creatable as one; that is checked before any input is read. Exit codes:
0 success, 1 configuration error, 2 data error, 3 numerical failure (under
``strict`` also an unconverged solve, before any output). RunConfig's solver
defaults are the measured protocol; SinkhornConfig and GmlConfig keep tighter ones.
Results go to stdout, diagnostics to stderr. Output files are written
atomically (temp file then rename).
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import adapt as ad
from . import data as dt
from . import gml
from . import sinkhorn as sk
from .spd import PositivityError

DEFAULT_LAMBDA_GRID = (0.05, 0.2, 0.5, 1.0, 2.0)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
# The RunConfig fields that name input files; null means not given.
_PATH_KEYS = ("source", "source_labels", "target", "target_labels", "target_train",
              "target_train_labels", "target_test", "target_test_labels")


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
    d_choice: str = gml.GmlConfig.d_choice
    lambda_grid: "list[float]" = field(
        default_factory=lambda: list(DEFAULT_LAMBDA_GRID)
    )
    outer_iters: int = 8
    objective_rtol: float = 1e-5
    sinkhorn_tol: float = 1e-7
    sinkhorn_max_iter: int = 2000
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
        for name in ("sinkhorn_tol", "objective_rtol"):
            value = getattr(self, name)
            if not sk._is_number(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        for value in self.lambda_grid:
            if not sk._is_number(value):
                raise ConfigError(f"lambda_grid entries must be numbers, got {value!r}")
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
            if not (sk._is_int(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value}")
        # Seeds feed numpy's seeding, which takes nonnegative integers only.
        for name in ("seeds", "skew_classes"):
            for value in getattr(self, name) or ():
                if not (sk._is_int(value) and value >= 0):
                    raise ConfigError(
                        f"{name} entries must be integers >= 0, got {value}"
                    )
        if self.format is not None and self.format not in dt.FORMATS:
            raise ConfigError(f"format must be one of {dt.FORMATS}")
        # Skews seed their draws too, so 30 and 30.4 would share samples.
        for w in self.skews:
            if not (sk._is_int(w) and 0 < w < 100):
                raise ConfigError(f"skews entries must be integers in (0, 100), got {w!r}")
        for name in ("out", "name") + _PATH_KEYS:
            value = getattr(self, name)
            if not (isinstance(value, str) or value is None and name in _PATH_KEYS):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        # A repeated entry would only redo the same work and rows.
        for name in ("methods", "lambda_grid", "seeds", "skews", "skew_classes"):
            value = getattr(self, name) or []
            for i, v in enumerate(value):
                if v in value[:i]:
                    raise ConfigError(f"{name} repeats {v!r}")


def _gml_config(cfg: RunConfig, lam: float) -> gml.GmlConfig:
    return gml.GmlConfig(
        sinkhorn=sk.SinkhornConfig(
            lam=lam, max_iter=cfg.sinkhorn_max_iter, tol=cfg.sinkhorn_tol
        ),
        outer_iters=cfg.outer_iters,
        d_choice=cfg.d_choice,
        objective_rtol=cfg.objective_rtol,
    )


# The RunConfig fields each subcommand reads; any other key is an error.
_SOLVE_KEYS = set("methods d_choice lambda_grid outer_iters objective_rtol sinkhorn_tol "
                  "sinkhorn_max_iter strict out format downsample source".split())
COMMAND_KEYS = {
    "fit": _SOLVE_KEYS | {"target"},
    "adapt": _SOLVE_KEYS | set("name source_labels target_train target_train_labels "
                               "target_test target_test_labels".split()),
    "experiment-skew": _SOLVE_KEYS | set("seeds source_labels target target_labels m n skews "
                                         "skew_classes".split()),
    "summarize": {"out"},
}


def load_config(path: "str | None", overrides: dict, command: "str | None" = None) -> RunConfig:
    """Merge a JSON config file (optional) with flag overrides for ``command``."""
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
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if command is not None and key not in COMMAND_KEYS[command]:
            raise ConfigError(f"{command} does not read config key {key!r}")
        merged[key] = val
    try:
        return RunConfig(**merged)
    except TypeError as e:
        raise ConfigError(str(e))


# ---------------------------------------------------------------------------
# output helpers


# Every file the CLI writes goes through this name, which
# benchmark/tracing.py (EXTRA_SPANS) wraps to time and count the writes.
_write_bytes_atomic = dt.write_atomic


# Rows hold Python ints, floats and strs only; csv writes a float as its
# shortest repr.
def _write_csv_atomic(path: str, header: "list[str]", rows: "list[list]"):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_bytes_atomic(path, buf.getvalue().encode())


def _group(rows, columns) -> dict:
    """Rows by the tuple of their ``columns`` cells, in order of first appearance."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in columns), []).append(row)
    return groups


def _print_table(header: "list[str]", rows: "list[list]"):
    cells = [[str(h) for h in header]]
    for row in rows:
        cells.append([f"{v:.4f}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        print("  ".join(s.rjust(w) for s, w in zip(r, widths)))


# ---------------------------------------------------------------------------
# data helpers


def _load(path, cfg: RunConfig, labeled: bool, labels_path=None) -> dt.RawDataset:
    if path is None:
        raise DataError("required input path missing from config")
    try:
        ds = dt.load_matrix(
            path,
            fmt=cfg.format,
            labeled=labeled,
            labels_path=labels_path,
            downsample=cfg.downsample,
        )
    except (OSError, ValueError) as e:
        raise DataError(str(e))
    if labeled and ds.labels is None:
        raise DataError(f"{path}: labels required but not present")
    return ds


def _check_converged(cfg: RunConfig, converged: bool, method: str):
    # Under strict, an unconverged solve ends the run before any output;
    # otherwise the run goes on and says so on stderr.
    if not converged:
        message = f"transport solve did not converge ({method})"
        if cfg.strict:
            raise NumericalError(message)
        print(f"warning: {message}", file=sys.stderr)


def _method_reports(cfg: RunConfig, progress: str, source, ttrain, ttest):
    """Run every configured method on one task; yield each method's report.

    ``progress`` prefixes the ``method=...`` line printed to stderr first.
    """
    gcfg = _gml_config(cfg, cfg.lambda_grid[0])
    for method in cfg.methods:
        print(f"{progress}method={method}", file=sys.stderr)
        rep = ad.run_task(source, ttrain, ttest, method, list(cfg.lambda_grid), gcfg)
        _check_converged(cfg, rep.sinkhorn_converged, method)
        yield rep


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
    (result,) = ad.fit_plan(x, z, p, q, method, [lam], _gml_config(cfg, lam))
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
    "lambda_chosen",
    "train_accuracy",
    "test_accuracy",
]


def cmd_adapt(cfg: RunConfig) -> int:
    """Adaptation protocol on fixed files; one row per method.

    The pipeline draws nothing: the input files determine every row.
    """
    source = _load(cfg.source, cfg, labeled=True, labels_path=cfg.source_labels)
    ttrain = _load(cfg.target_train, cfg, labeled=True, labels_path=cfg.target_train_labels)
    ttest = _load(cfg.target_test, cfg, labeled=True, labels_path=cfg.target_test_labels)
    dims = {ds.features.shape[0] for ds in (source, ttrain, ttest)}
    if len(dims) != 1:
        raise DataError(f"feature dimensions differ across inputs: {sorted(dims)}")
    rows = [
        [cfg.name, rep.method, rep.lambda_chosen, rep.train_accuracy, rep.test_accuracy]
        for rep in _method_reports(cfg, "adapt: ", source, ttrain, ttest)
    ]
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv_atomic(os.path.join(cfg.out, "report.csv"), REPORT_HEADER, rows)
    payload = [dict(zip(REPORT_HEADER, row)) for row in rows]
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
    src_pool = _load(cfg.source, cfg, labeled=True, labels_path=cfg.source_labels)
    tgt_pool = _load(cfg.target, cfg, labeled=True, labels_path=cfg.target_labels)
    if src_pool.features.shape[0] != tgt_pool.features.shape[0]:
        raise DataError("source and target pools have different dimensions")
    # The class list and the per-class counts are sized by class_count.
    try:
        for pool in (src_pool, tgt_pool):
            dt._require_labels(pool)
    except ValueError as e:
        raise DataError(str(e))
    classes = cfg.skew_classes
    if classes is None:
        classes = list(range(tgt_pool.class_count))
    for c in classes:
        if not 0 <= c < tgt_pool.class_count:
            raise DataError(f"skew class {c} out of range")
    rows = []
    for w in cfg.skews:
        for c in classes:
            for seed in cfg.seeds:
                entropy = [int(seed), int(w), int(c)]
                try:
                    clouds = dt.skew_round(src_pool, tgt_pool, cfg.m, cfg.n, c, w, entropy)
                except ValueError as e:
                    raise DataError(str(e))
                progress = f"experiment-skew: w={w} class={c} seed={seed} "
                for rep in _method_reports(cfg, progress, *clouds):
                    rows.append([w, c, seed, rep.method, rep.lambda_chosen,
                                 rep.train_accuracy, rep.test_accuracy])
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv_atomic(os.path.join(cfg.out, "runs.csv"), RUNS_HEADER, rows)

    table_header = ["skew_percent"] + list(cfg.methods)
    groups = _group(rows, (0, 3))  # (skew_percent, method)
    means = {key: math.fsum(r[6] for r in grp) / len(grp) for key, grp in groups.items()}
    table_rows = [[w] + [means[w, method] for method in cfg.methods] for w in cfg.skews]
    _write_csv_atomic(os.path.join(cfg.out, "table.csv"), table_header, table_rows)
    _print_table(table_header, table_rows)
    return 0


def cmd_summarize(cfg: RunConfig, inputs: "list[str]") -> int:
    """Average accuracy columns of report CSVs over seeds (and skew classes)."""
    if not inputs:
        raise ConfigError("summarize needs at least one input csv")
    rows = []
    header = None
    for path in inputs:
        try:
            # utf-8-sig drops a byte-order mark, which would rename the first column.
            with open(path, newline="", encoding="utf-8-sig") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None:
                    raise DataError(f"{path}: empty csv")
                if header is None:
                    header = reader.fieldnames
                    if "test_accuracy" not in header:
                        raise DataError("inputs lack a test_accuracy column")
                    scores = [k for k in ("train_accuracy", "test_accuracy") if k in header]
                elif reader.fieldnames != header:
                    raise DataError(f"{path}: header differs from first input")
                for row in reader:
                    where = f"{path}: line {reader.line_num}"
                    if None in row:  # DictReader files surplus cells under the key None
                        raise DataError(f"{where}: more cells than the header")
                    try:
                        row.update((k, float(row[k])) for k in scores)
                    except (TypeError, ValueError) as e:  # a short row's cells read None
                        raise DataError(f"{where}: non-numeric accuracy value: {e}")
                    if not np.isfinite([row[k] for k in scores]).all():
                        raise DataError(f"{where}: non-finite accuracy value")
                    rows.append(row)
        except OSError as e:
            raise DataError(str(e))
        except (UnicodeDecodeError, csv.Error) as e:
            raise DataError(f"{path}: not a readable csv: {e}")
    keys = [k for k in ("task", "skew_percent", "method") if k in header]
    out_header = keys + ["runs"] + [f"mean_{k}" for k in scores]
    out_rows = [
        list(key) + [len(grp)] + [math.fsum(r[k] for r in grp) / len(grp) for k in scores]
        for key, grp in _group(rows, keys).items()
    ]
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv_atomic(os.path.join(cfg.out, "summary.csv"), out_header, out_rows)
    _print_table(out_header, out_rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# The config keys that have a flag: key -> (flag, add_argument options).
_FLAGS = {
    "methods": ("--method", {"action": "append"}),
    "lambda_grid": ("--lambda", {"action": "append", "type": float}),
    "outer_iters": ("--outer-iters", {"type": int}),
    "seeds": ("--seed", {"action": "append", "type": int}),
    "out": ("--out", {}),
    "name": ("--name", {}),
    "format": ("--format", {}),
    "downsample": ("--downsample", {"type": int}),
    "source": ("--source", {}),
    "target": ("--target", {}),
    "target_train": ("--target-train", {}),
    "target_test": ("--target-test", {}),
    "m": ("--m", {"type": int}),
    "n": ("--n", {"type": int}),
}


def _build_parser() -> _Parser:
    # A subcommand gets the flags of the keys it reads; any other flag is
    # an unrecognized argument, which main makes a config error.
    parser = _Parser(prog="otml", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in COMMAND_KEYS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        for key, (flag, options) in _FLAGS.items():
            if key in keys:
                sp.add_argument(flag, dest=key, default=None, **options)
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


def _check_out(out: str):
    # Checked before any input is read, so that an unusable output
    # directory does not surface only after all the work.
    if not out:
        raise ConfigError("out must be a non-empty path")
    probe = out
    while probe and not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe or "."):
        raise ConfigError(f"out {out!r} cannot be a directory: {probe or '.'!r} is not one")


def main(argv=None) -> int:
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:  # summarize's input paths can take a stray flag's value
            flags = ", ".join(f for k, (f, _) in _FLAGS.items() if k in COMMAND_KEYS[args.command])
            raise ConfigError(f"unrecognized arguments: {' '.join(extra)}; "
                              f"{args.command} takes --config, {flags}")
        cfg = load_config(args.config, _overrides(args), args.command)
        _check_out(cfg.out)
        command = _COMMANDS[args.command]
        return command(cfg, args.inputs) if args.command == "summarize" else command(cfg)
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
