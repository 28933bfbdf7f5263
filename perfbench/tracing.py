"""Spans around agrosim's public calls, recorded from outside the package.

While :meth:`Tracer.instrument` is active, each public function in
``_SPANNED`` is replaced, in every agrosim module that holds it, by a
wrapper that records a span: name, start, end, parent span, operation id and
the size of the result (RK4 steps or bytes).  ``NoiseStreams.draw`` runs
once per step, so it is counted rather than spanned.  Nothing in the package
changes; the spans stay in memory until the run writes them out.  Each
operation has a speed factor, set by the caller, that scales its span
durations to the reference machine speed.
"""

from __future__ import annotations

import collections
import contextlib
import cProfile
import functools
import os
import pstats
import statistics
import time

import agrosim
from agrosim import cli, config, presets, sim, svgchart

_MODULES = (agrosim, cli, config, presets, sim, svgchart)


def _csv_bytes(args, result):
    return os.path.getsize(args[1]) if isinstance(args[1], str) else None


#: (owner, attribute, span name, size of the call's result or None)
_SPANNED = (
    (presets, "preset", "presets.preset", None),
    (config, "load_config", "config.load_config", None),
    (sim, "run_scenario", "sim.run_scenario", lambda args, result: len(result[0]) - 1),
    (sim, "compute_metrics", "sim.compute_metrics", None),
    (sim.TrajectoryRecord, "to_csv", "sim.to_csv", _csv_bytes),
    (svgchart, "render_svg", "svgchart.render_svg", lambda args, result: len(result.encode())),
    (cli, "cmd_run", "cli.cmd_run", None),
    (cli, "cmd_sweep", "cli.cmd_sweep", None),
)
_COUNTED = ((sim.NoiseStreams, "draw", "sim.noise_draws"),)

#: Modules whose cProfile self time is reported, as ``self_frac.<module>``.
PROFILED_MODULES = ("sim", "control", "dynamics", "svgchart", "cli", "config", "numpy",
                    "builtins")

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        #: operation id -> factor from host seconds to reference seconds
        self.factor: dict = {}
        self._stack: list[int] = []
        self._op = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self._op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _spanning(self, name, fn, size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.spans[self._open(name)]
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if size is not None:
                span[SIZE] = size(args, result)
            return result
        return wrapper

    def _counting(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self._op, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def operation(self, op_id, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of operation ``op_id``."""
        self._op = op_id
        try:
            return self._spanning(name, fn, None)(*args)
        finally:
            self._op = None

    @contextlib.contextmanager
    def instrument(self):
        """Wrap the public calls for the duration of the block."""
        saved = []
        wrappers = [(o, a, self._spanning(n, getattr(o, a), s)) for o, a, n, s in _SPANNED]
        wrappers += [(o, a, self._counting(n, getattr(o, a))) for o, a, n in _COUNTED]
        try:
            for owner, attr, wrapper in wrappers:
                original = getattr(owner, attr)
                holders = [owner] + [m for m in _MODULES
                                     if m is not owner and getattr(m, attr, None) is original]
                for holder in holders:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def as_records(self) -> list[dict]:
        return [dict(zip(("name", "start", "end", "parent", "op", "size"), s))
                for s in self.spans]


def _median(values):
    return statistics.median(values) if values else 0.0


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(tracer: Tracer, cycle_ops: set) -> dict[str, float]:
    """Per-layer numbers from the spans: medians of call times over every
    span of a layer, scaled by its operation's speed factor, and exact counts
    over the operations in ``cycle_ops`` (one pass over the workload's
    inputs)."""
    spans = tracer.spans
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)

    def dur(s):
        return (s[END] - s[START]) * tracer.factor[s[OP]]

    def named(name):
        return [s for s in spans if s[NAME] == name]

    rollout, per_step = [], []
    for i, s in enumerate(spans):
        if s[NAME] == "sim.run_scenario":
            own = dur(s) - sum(dur(spans[c]) for c in children[i]
                               if spans[c][NAME] == "sim.compute_metrics")
            rollout.append(own)
            per_step.append(own / s[SIZE])
    csv = named("sim.to_csv")
    sweep_per_scenario = []
    sweep_scenarios = 0
    for i, s in enumerate(spans):
        if s[NAME] == "cli.cmd_sweep":
            runs = [c for c in children[i] if spans[c][NAME] == "sim.run_scenario"]
            if runs:
                sweep_per_scenario.append(dur(s) / len(runs))
            if s[OP] in cycle_ops:
                sweep_scenarios += len(runs)
    steps = sum(s[SIZE] for s in named("sim.run_scenario") if s[OP] in cycle_ops)
    return {
        "presets.build_ms": 1e3 * _median([dur(s) for s in named("presets.preset")]),
        "config.parse_ms": 1e3 * _median([dur(s) for s in named("config.load_config")]),
        "sim.rollout_ms": 1e3 * _median(rollout),
        "sim.rollout_us_per_step": 1e6 * _median(per_step),
        "sim.metrics_ms": 1e3 * _median([dur(s) for s in named("sim.compute_metrics")]),
        "sim.csv_ms": 1e3 * _median([dur(s) for s in csv]),
        "sim.csv_bytes": _median([s[SIZE] for s in csv]),
        "sim.csv_MB_per_s": 1e-6 * _median([s[SIZE] / dur(s) for s in csv]),
        "svgchart.render_ms": 1e3 * _median([dur(s) for s in named("svgchart.render_svg")]),
        "svgchart.svg_bytes": _median([s[SIZE] for s in named("svgchart.render_svg")]),
        "cli.sweep_scenarios": sweep_scenarios,
        "cli.sweep_ms_per_scenario": 1e3 * _median(sweep_per_scenario),
        "sim.steps": steps,
        "sim.stage_evals": 4 * steps,
        "sim.noise_draws": sum(n for (op, name), n in tracer.counts.items()
                               if op in cycle_ops and name == "sim.noise_draws"),
    }


def span_coverage(tracer: Tracer, root_name: str) -> list[float]:
    """Per operation, the share of its root span covered by spans of the
    library layers (every span but the root and ``cli.*`` ones)."""
    roots = {s[OP]: s for s in tracer.spans if s[NAME] == root_name}
    inner = collections.defaultdict(list)
    for s in tracer.spans:
        if s[OP] in roots and s[NAME] != root_name and not s[NAME].startswith("cli."):
            inner[s[OP]].append((s[START], s[END]))
    return [_covered(inner[op]) / (r[END] - r[START]) for op, r in roots.items()]


def _module_of(path: str, func: str) -> str:
    if path == "~":  # a C function: numpy's name their module
        return "numpy" if "numpy" in func else "builtins"
    parts = path.replace(os.sep, "/").split("/")
    if "agrosim" in parts:
        return os.path.splitext(parts[-1])[0]
    return "numpy" if "numpy" in parts else "other"


def profile_split(fn, *args) -> dict[str, float]:
    """Run ``fn(*args)`` under cProfile; share of self time per module."""
    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    totals = collections.Counter()
    for (path, _, func), (_, _, self_time, _, _) in pstats.Stats(profile).stats.items():
        totals[_module_of(path, func)] += self_time
    grand = sum(totals.values())
    return {m: totals[m] / grand for m in sorted(totals)}
