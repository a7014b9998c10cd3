"""Per-layer tracing from outside the program.

procfair's source stays unchanged. For a traced run, each public function
in ``LAYERS`` is replaced, in every ``procfair`` module namespace that holds
it, by a wrapper that records a span (op, name, start, end, parent, work) in
memory; the spans are written out when the run ends. A layer's self time is
its span minus its child spans. A separate allocation pass wraps the
functions in ``ALLOC_LAYERS`` and records their peak Python allocation with
``tracemalloc``.
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import itertools
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, qualified name) of every traced function; the span is named
# "<module>.<function>", e.g. "population.load_population".
LAYERS = (
    ("procfair.population", "load_population"),
    ("procfair.population", "Population.attribute_values"),
    ("procfair.procedure", "load_procedure"),
    ("procfair.procedure", "exact_rates"),
    ("procfair.procedure", "simulate"),
    ("procfair.procedure", "empirical_rates"),
    ("procfair.fairness", "expected_contingency"),
    ("procfair.fairness", "justice_metrics"),
    ("procfair.fairness", "check_pairwise_fairness"),
    ("procfair.fairness", "check_absolute_fairness"),
    ("procfair.theorem", "construct_witness"),
    ("procfair.theorem", "exhaustive_search"),
    ("procfair.theorem", "verify_theorem"),
    ("procfair.roc", "classify"),
    ("procfair.roc", "export_diagram"),
    ("procfair.demo", "demo_report"),
    ("procfair.cli", "main"),
)
SERIALIZE = "serialize"  # every *_json helper of procfair.serialize, as one layer
ALLOC_LAYERS = ("population.load_population", "procedure.simulate")

# Every per-layer metric: (name, unit, better). Layers absent from a workload read 0.
PER_LAYER = (
    ("population.load_population.s", "s", "lower"),
    ("population.load_population.rows_per_s", "1/s", "higher"),
    ("population.load_population.alloc_mb", "MB", "lower"),
    ("population.attribute_values.s", "s", "lower"),
    ("procedure.load_procedure.s", "s", "lower"),
    ("procedure.exact_rates.s", "s", "lower"),
    ("procedure.exact_rates.calls", "count", "lower"),
    ("procedure.simulate.s", "s", "lower"),
    ("procedure.simulate.member_trials_per_s", "1/s", "higher"),
    ("procedure.simulate.alloc_mb", "MB", "lower"),
    ("procedure.empirical_rates.s", "s", "lower"),
    ("procedure.empirical_rates.calls", "count", "lower"),
    ("fairness.expected_contingency.s", "s", "lower"),
    ("fairness.justice_metrics.s", "s", "lower"),
    ("fairness.check_pairwise_fairness.s", "s", "lower"),
    ("fairness.check_pairwise_fairness.calls", "count", "lower"),
    ("fairness.check_absolute_fairness.s", "s", "lower"),
    ("fairness.check_absolute_fairness.bipartitions_per_s", "1/s", "higher"),
    ("theorem.construct_witness.s", "s", "lower"),
    ("theorem.exhaustive_search.s", "s", "lower"),
    ("theorem.exhaustive_search.bipartitions_per_s", "1/s", "higher"),
    ("theorem.verify_theorem.s", "s", "lower"),
    ("roc.classify.s", "s", "lower"),
    ("roc.export_diagram.s", "s", "lower"),
    ("demo.demo_report.s", "s", "lower"),
    ("serialize.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def _bipartitions(n: int) -> int:
    return (1 << (n - 1)) - 1 if n >= 2 else 0


# Work counted per call, from the bound arguments and the result. A signature
# that no longer names the argument counts no work.
WORK = {
    "population.load_population": lambda a, result: len(result),
    "procedure.simulate": lambda a, result: len(a["pop"]) * a["trials"],
    "fairness.check_absolute_fairness": lambda a, result: (
        _bipartitions(len(a["pop"])) if a.get("mode") == "bipartitions" else 0),
    "theorem.exhaustive_search": lambda a, result: _bipartitions(len(a["pop"])),
}


def _work(name: str, signature, args, kwargs, result) -> int:
    try:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return WORK[name](bound.arguments, result)
    except (KeyError, TypeError):
        return 0


class SpanRecorder:
    """Spans of the traced phase: (op index, name, start, end, parent index, work)."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[tuple[str, int]] = []

    def call(self, name, fn, signature, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == name:  # a helper of the same layer (serialize)
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = stack[-1][1] if stack else -1
        self.spans.append(None)
        stack.append((name, index))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (self.op, name, start, end, parent, 0)
        if name in WORK:
            self.spans[index] = (self.op, name, start, end, parent, _work(name, signature, args, kwargs, result))
        return result


class AllocRecorder:
    """Peak traced allocation above the starting level, per call of ALLOC_LAYERS."""

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [allocated at entry, peak seen]

    def call(self, name, fn, signature, args, kwargs):
        if name not in ALLOC_LAYERS:
            return fn(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        frame = [current, current]
        self._stack.append(frame)
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], frame[1])
            self.peaks[name] = max(self.peaks.get(name, 0), frame[1] - frame[0])


def _wrapper(recorder, name, fn):
    signature = inspect.signature(fn) if name in WORK else None

    def traced(*args, **kwargs):
        return recorder.call(name, fn, signature, args, kwargs)

    return traced


def _targets():
    """(span name, owner to patch or None for every namespace, attribute, function)."""
    out = []
    for module, qualname in LAYERS:
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        name = f"{module.rsplit('.', 1)[-1]}.{attr}"
        out.append((name, owner if path else None, attr, getattr(owner, attr)))
    serialize = importlib.import_module("procfair.serialize")
    for attr, fn in vars(serialize).items():
        if attr.endswith("_json") and inspect.isfunction(fn) and fn.__module__ == serialize.__name__:
            out.append((SERIALIZE, None, attr, fn))
    return out


@contextmanager
def installed(recorder):
    """Route every traced function through ``recorder`` while the block runs."""
    patched = []
    by_id = {}
    for name, owner, attr, fn in _targets():
        wrapper = _wrapper(recorder, name, fn)
        if owner is not None:  # a method: patch its class
            patched.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        else:
            by_id[id(fn)] = (fn, wrapper)
    modules = [m for n, m in sys.modules.items() if n == "procfair" or n.startswith("procfair.")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = by_id.get(id(obj))
            if hit is not None and hit[0] is obj:
                patched.append((module, attr, obj))
                setattr(module, attr, hit[1])
    try:
        yield
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)


def layer_metrics(untraced, traced, traced_rounds: int, spans, pauses, alloc_peaks: dict[str, int]) -> dict[str, float]:
    """Every PER_LAYER metric from the records of both phases and the spans.

    ``untraced`` and ``traced`` are the op records of the two phases (with raw
    and reference seconds); span times leave out the sampler's ``pauses`` and
    are rescaled by their op's factor. ``.s`` is self time per op in
    reference seconds, ``.calls`` calls per round, rates are work per
    reference second of the layer's whole span.
    """
    factor = [r.ref / r.raw if r.raw > 0 else 0.0 for r in traced]
    starts = [p[0] for p in pauses]
    paused = list(itertools.accumulate((end - start for start, end in pauses), initial=0.0))

    def duration(start: float, end: float) -> float:
        return end - start - (paused[bisect.bisect_left(starts, end)] - paused[bisect.bisect_left(starts, start)])

    durations = [duration(start, end) for _, _, start, end, _, _ in spans]
    child = defaultdict(float)
    for i, (op, name, start, end, parent, work) in enumerate(spans):
        if parent >= 0:
            child[parent] += durations[i]
    self_s, incl, calls, work_done = defaultdict(float), defaultdict(float), Counter(), Counter()
    top = 0.0
    for i, (op, name, start, end, parent, work) in enumerate(spans):
        f = factor[op]
        self_s[name] += (durations[i] - child[i]) * f
        incl[name] += durations[i] * f
        calls[name] += 1
        work_done[name] += work
        if parent < 0:
            top += durations[i] * f
    n_ops = len(traced)
    op_time = sum(r.ref for r in traced)
    out = {}
    for metric, _, _ in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "s" and layer != "cli.main":
            out[metric] = self_s[layer] / n_ops
        elif kind == "calls":
            out[metric] = calls[layer] / traced_rounds
        elif kind.endswith("_per_s"):
            out[metric] = work_done[layer] / incl[layer] if incl[layer] else 0.0
        elif kind == "alloc_mb":
            out[metric] = alloc_peaks.get(layer, 0) / 2**20
    cli_ops = [r.ref for r in untraced if r.op.cli]
    out["cli.main.s"] = statistics.median(cli_ops) if cli_ops else 0.0
    out["cli.main.self_s"] = self_s["cli.main"] / n_ops
    out["trace.coverage"] = (top - self_s["cli.main"]) / op_time
    out["trace.overhead_s"] = statistics.median(r.ref for r in traced) - statistics.median(r.ref for r in untraced)
    return out
