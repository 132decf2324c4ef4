"""Spans and counts around glevy's public functions, installed from outside.

:func:`install` replaces every module attribute through which a traced
function is reached (``solve`` is bound in ``glevy``, ``glevy.solver``,
``glevy.engine``, ``glevy.generator``, ``glevy.cli`` and ``glevy.checks``)
with a wrapper that records one span per call: name, start, end and parent.
:meth:`Tracer.restore` puts the original objects back, so an untraced run
pays nothing.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter

import numpy as np

# (metric prefix, module, attribute) of each traced public function.
TRACED = (
    ("cli.parse_config", "glevy.cli", "parse_config"),
    ("cli.run", "glevy.cli", "run"),
    ("engine.expectation", "glevy.engine", "expectation"),
    ("solver.solve", "glevy.solver", "solve"),
    ("solver.apply_generator", "glevy.solver", "apply_generator"),
    ("solver.evaluate", "glevy.solver", "evaluate"),
    ("core.sample_payoff", "glevy.core", "sample_payoff"),
    ("core.interpolate", "glevy.core", "interpolate"),
    ("generator.small_time_quotient", "glevy.generator", "small_time_quotient"),
    ("gpoisson.series_solution", "glevy.gpoisson", "series_solution"),
    ("gpoisson.gpoisson_closed_form", "glevy.gpoisson", "gpoisson_closed_form"),
)


def _solve_counts(a, result):
    nodes = math.prod(a["grid"].shape)
    return {
        "solver.solve.steps": result.steps,
        "solver.solve.node_updates": nodes * result.steps * len(a["uset"].scenarios),
    }


def _sample_counts(a, result):
    return {"core.sample_payoff.nodes": int(np.size(result))}


def _interpolate_counts(a, result):
    return {"core.interpolate.points": int(np.size(a["x"])) // a["g"].spec.dim}


EXTRA_COUNTS = {
    "solver.solve": _solve_counts,
    "core.sample_payoff": _sample_counts,
    "core.interpolate": _interpolate_counts,
}


class Tracer:
    """Span and count recorder; one per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def span_wrapper(self, name: str, fn, extra=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        bind = inspect.signature(fn).bind

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            counts[name + ".calls"] += 1
            if extra is not None:
                counts.update(extra(bind(*args, **kwargs).arguments, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each traced function in every glevy module."""
        modules = [
            m for k, m in sorted(sys.modules.items()) if k == "glevy" or k.startswith("glevy.")
        ]
        for name, module, attr in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self.span_wrapper(name, original, EXTRA_COUNTS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        # GridFunction is counted, not timed, through its __post_init__.
        grid_function = sys.modules["glevy.core"].GridFunction
        post_init = grid_function.__post_init__
        counts = self.counts

        def counted_post_init(obj):
            counts["core.GridFunction.calls"] += 1
            post_init(obj)

        self._patched.append((grid_function, "__post_init__", post_init))
        grid_function.__post_init__ = counted_post_init

    def restore(self) -> None:
        """Put every original object back, in reverse order of patching."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def take_counts(self) -> Counter:
        """Counts since the last call; the wrappers keep the same Counter."""
        out = Counter(self.counts)
        self.counts.clear()
        return out

    def write(self, path) -> None:
        """Write every span as ``index name start end parent`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i} {name} {start:.9f} {end:.9f} {parent}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach, start), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = max(reach, hi)
        out.append((end - start) - covered)
    return out


def layer_times(spans, first: int, last: int, selfs) -> dict[str, float]:
    """Total (``.s``) and self (``.self_s``) seconds per name over spans[first:last]."""
    out: dict[str, float] = {}
    for i in range(first, last):
        name, start, end, _ = spans[i]
        out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + selfs[i]
    return out
