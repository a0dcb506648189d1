"""Outside-in tracing of the otml layers for the benchmark.

The program has no tracing of its own, so the benchmark wraps functions
from outside. A name is wrapped on the module where its caller looks it
up: ``gml.fit`` calls ``riccati_solve`` through the ``otml.gml``
namespace (``from .spd import riccati_solve``), so the wrapper goes on
``otml.gml.riccati_solve``, not on ``otml.spd``. Spans are kept in
memory; self times and counts are derived from them after the run.

Hooks see each call's arguments and result, to count work (sweeps, bytes)
and to check outputs. They run in a ``bench.check`` span next to the
wrapped call, so their time is never charged to the wrapped layer.
"""

import functools
import inspect
import time

# Modules whose public functions are wrapped, in import-dependency order.
LAYERS = ("spd", "sinkhorn", "gml", "adapt", "data", "cli")

# Private or foreign names that mark a layer boundary the public API hides.
# The dense Newton polish of the Sinkhorn solver goes through scipy's
# ``root``, which ``otml.sinkhorn`` imports by name. Every file the CLI
# writes goes through ``_write_bytes_atomic``.
EXTRA_SPANS = (
    ("sinkhorn", "root", "sinkhorn.polish"),
    ("cli", "_write_bytes_atomic", "cli.write"),
)

CHECK_SPAN = "bench.check"


class Tracer:
    """Records nested spans of wrapped calls in a single thread.

    ``spans`` holds ``[name, start, end, parent]`` rows; ``parent`` is the
    index of the enclosing span or -1. ``hooks`` maps a span name to a
    callable ``hook(arguments, result)`` run after the call returns, with
    the call's arguments bound to parameter names.
    """

    def __init__(self, hooks=None):
        self.spans = []
        self.hooks = dict(hooks or {})
        self._stack = []
        self._installed = []

    def span(self, name):
        return _Span(self, name)

    def wrap(self, fn, name):
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.span(CHECK_SPAN):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, result)
            return result

        wrapper.bench_wrapped = fn
        return wrapper

    def install(self, modules):
        """Wrap every target found in ``modules`` (short name -> module)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module, attr, name in wrap_targets(modules):
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(original, name))
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else -1
        t.spans.append([self.name, time.perf_counter(), 0.0, parent])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
        return False


def wrap_targets(modules):
    """(module, attribute, span name) for every name the tracer wraps.

    Public functions defined in an otml module are wrapped wherever one
    of the layer modules holds them; the span is named after the module
    that defines the function.
    """
    targets = []
    for short in LAYERS:
        module = modules[short]
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__ or ""
            if not home.startswith("otml."):
                continue
            targets.append((module, attr, f"{home.split('.')[-1]}.{attr}"))
    for short, attr, name in EXTRA_SPANS:
        module = modules[short]
        if inspect.isfunction(getattr(module, attr, None)):
            targets.append((module, attr, name))
    return targets


def installed_wrappers(modules):
    """Names in the layer modules that currently hold a benchmark wrapper."""
    found = []
    for short in LAYERS:
        for attr, obj in vars(modules[short]).items():
            if hasattr(obj, "bench_wrapped"):
                found.append(f"{short}.{attr}")
    return found


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    Calls in one thread nest, so the children of a span never overlap and
    their durations can simply be subtracted.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans):
    """name -> {"calls", "total_s", "self_s"} over all spans."""
    out = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return out


def top_level_seconds(spans, since=0):
    """Summed duration of the spans from index ``since`` on with no parent."""
    return sum(end - start for _, start, end, parent in spans[since:] if parent < 0)
