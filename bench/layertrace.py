"""Outside-in layer tracing for kfdr.

Wraps the public names that kfdr modules look up at call time, so every call
that crosses a layer boundary opens a span. Spans nest on one stack; each
span's self time is its duration minus the durations of its direct child
spans. Spans are aggregated per name in memory (calls, total and self
seconds, plus optional work units), which keeps a 1e6-call trace small.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (module, attribute, span name, units per call or None). A caller's lookup
# of ``module.attribute`` is what gets wrapped, so the same function reached
# through two modules is wrapped twice under one span name.
PATCH_POINTS: tuple[tuple[str, str, str, Callable[..., int] | None], ...] = (
    ("kfdr.cli", "make_schedule", "schedules.make_schedule", None),
    ("kfdr.simulation", "make_schedule", "schedules.make_schedule", None),
    ("kfdr.schedules", "fk_invert", "fk_models.fk_invert", None),
    ("kfdr.schedules", "fk_eval", "fk_models.fk_eval", None),
    ("kfdr.fk_models", "fk_eval", "fk_models.fk_eval", None),
    ("kfdr.fk_models", "equicorrelated_min_survivor", "numerics.quadrature", None),
    ("kfdr.simulation", "std_normal_sf_array", "numerics.normal_sf", None),
    ("kfdr.simulation", "run_experiment", "simulation.run_experiment",
     lambda config, *a, **kw: config.iterations),
    ("kfdr.engine", "sample_from", "engine.sample_from", None),
    ("kfdr.engine", "decide", "engine.decide", None),
    ("kfdr.engine", "stepup_count", "engine.count", None),
    ("kfdr.engine", "stepdown_count", "engine.count", None),
)
ROOT_SPAN = "cli.main"
SPAN_NAMES = (ROOT_SPAN,) + tuple(dict.fromkeys(p[2] for p in PATCH_POINTS))


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0


@dataclass
class Tracer:
    """Span aggregates for one traced pass; ``absent`` lists patch points a
    refactor removed, which are reported rather than treated as errors."""

    stats: dict[str, SpanStats] = field(
        default_factory=lambda: {name: SpanStats() for name in SPAN_NAMES}
    )
    absent: list[str] = field(default_factory=list)
    _stack: list[float] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable[..., Any], units: Callable[..., int] | None = None):
        stats, stack, clock = self.stats[name], self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if units is not None:
                    stats.units += units(*args, **kwargs)

        return traced

    def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn`` as the root span with every patch point wrapped; the
        original names are restored afterwards, even if ``fn`` raises."""
        originals = []
        try:
            for module_name, attr, span, units in PATCH_POINTS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original, units))
            return self.wrap(ROOT_SPAN, fn)(*args)
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

