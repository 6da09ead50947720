"""Per-layer tracing of hydrobench from outside the package.

The tracer replaces selected public functions with timing wrappers at every
place they are looked up: the defining module and every hydrobench module that
imported the function by name (``from .dispersion import symbol_matrix``), so
that no call site escapes.  ``scipy.linalg.expm`` is wrapped the same way,
because ``_modal`` and ``secularity`` both call it.

Each wrapped call records a span (name, start, end, parent) in memory.  After
an invocation, :meth:`Tracer.take` turns the spans into the per-layer metrics
of that invocation and clears them.  A span's self time is its duration minus
the durations of its direct children.  A function that no longer exists is
skipped, and the metrics that depend only on it are left out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MARK = "__perfbench_span__"


@dataclass(frozen=True)
class Target:
    """One function to wrap, the span name it records and an optional counter.

    ``count(arguments, result, counts)`` runs after the call with the bound
    arguments; it adds the work the call did to ``counts``.
    """

    module: str
    attr: str
    span: str
    count: Callable[[dict, object, Counter], None] | None = None


def _count_k_points(arguments, result, counts):
    counts["dispersion.k_points"] += len(arguments["k_grid"])


def _count_modes(arguments, result, counts):
    counts["modal.modes_propagated"] += int(arguments["n"])


def _count_emitted(arguments, result, counts):
    counts["cli.rows_emitted"] += len(arguments["rows"])
    counts["cli.bytes_written"] += sum(Path(path).stat().st_size for path in result)


TARGETS = (
    Target("hydrobench.coefficients", "transport_ns", "coefficients"),
    Target("hydrobench.coefficients", "transport_burnett", "coefficients"),
    Target("hydrobench.dispersion", "symbol_matrix", "symbol"),
    Target("hydrobench.moment_reference", "moment_symbol", "symbol"),
    Target("hydrobench.dispersion", "branches", "branches", _count_k_points),
    Target("hydrobench._modal", "mode_propagators", "propagators", _count_modes),
    Target("hydrobench._modal", "inverse_modes", "synthesis"),
    Target("scipy.linalg", "expm", "expm"),
    Target("hydrobench.hydro_spectral", "evolve", "hydro_evolve"),
    Target("hydrobench.moment_reference", "evolve_moments", "moment_evolve"),
    Target("hydrobench.moment_reference", "hydro_projection", "projection"),
    Target("hydrobench.secularity", "secular_ratio_series", "secular_series"),
    Target("hydrobench.cli", "_cmd_dispersion", "command"),
    Target("hydrobench.cli", "_cmd_evolve", "command"),
    Target("hydrobench.cli", "_cmd_compare", "command"),
    Target("hydrobench.cli", "_cmd_secular", "command"),
    Target("hydrobench.cli", "emit_outputs", "emit", _count_emitted),
)

# metric name -> (unit, spans it is computed from)
METRICS = {
    "coefficients.calls": ("count", ("coefficients",)),
    "coefficients.self_s": ("s", ("coefficients",)),
    "dispersion.symbol_calls": ("count", ("symbol",)),
    "dispersion.symbol_self_s": ("s", ("symbol",)),
    "dispersion.k_points": ("count", ("branches",)),
    "dispersion.branches_self_s": ("s", ("branches",)),
    "modal.propagator_builds": ("count", ("propagators",)),
    "modal.modes_propagated": ("count", ("propagators",)),
    "modal.propagators_self_s": ("s", ("propagators",)),
    "modal.expm_fallbacks": ("count", ("propagators", "expm")),
    "modal.expm_fallback_ratio": ("1", ("propagators", "expm")),
    "modal.synthesis_calls": ("count", ("synthesis",)),
    "modal.synthesis_s": ("s", ("synthesis",)),
    "hydro_spectral.evolve_calls": ("count", ("hydro_evolve",)),
    "hydro_spectral.evolve_s": ("s", ("hydro_evolve",)),
    "moment_reference.evolve_calls": ("count", ("moment_evolve",)),
    "moment_reference.evolve_s": ("s", ("moment_evolve",)),
    "moment_reference.projection_s": ("s", ("projection",)),
    "secularity.series_s": ("s", ("secular_series",)),
    "secularity.expm_calls": ("count", ("secular_series", "expm")),
    "cli.command_s": ("s", ("command",)),
    "cli.emit_s": ("s", ("emit",)),
    "cli.rows_emitted": ("count", ("emit",)),
    "cli.bytes_written": ("B", ("emit",)),
}


class Tracer:
    """Installs span-recording wrappers and aggregates their spans per call."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self.last_spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a hydrobench module or scipy.linalg binds it."""
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "hydrobench" or name.startswith("hydrobench."))
        ]
        namespaces.append(sys.modules["scipy.linalg"])
        for target in TARGETS:
            owner = sys.modules.get(target.module)
            original = getattr(owner, target.attr, None)
            if original is None or hasattr(original, MARK):
                continue
            wrapper = self._wrap(target, original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, attr, original))
                        setattr(namespace, attr, wrapper)
            self.installed.add(target.span)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _wrap(self, target: Target, func):
        spans, stack, counts = self.spans, self._stack, self.counts
        name, count = target.span, target.count
        signature = inspect.signature(func) if count is not None else None
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(signature.bind(*args, **kwargs).arguments, result, counts)
            return result

        setattr(traced, MARK, name)
        return traced

    # aggregation ---------------------------------------------------------

    def take(self) -> dict[str, float]:
        """Per-layer metrics of the calls since the last take; clears the spans."""
        spans = list(self.spans)
        self.last_spans = spans
        counts = self.counts.copy()
        self.spans.clear()
        self.counts.clear()

        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        inclusive_s: Counter = Counter()
        outer_calls: Counter = Counter()
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            self_s[name] += duration - child_time[index]
            if parent < 0 or spans[parent][0] != name:
                inclusive_s[name] += duration
                outer_calls[name] += 1
            if name == "expm":
                owner = self._owner(spans, parent, ("propagators", "secular_series"))
                if owner == "propagators":
                    counts["modal.expm_fallbacks"] += 1
                elif owner == "secular_series":
                    counts["secularity.expm_calls"] += 1

        modes = counts["modal.modes_propagated"]
        values = {
            "coefficients.calls": outer_calls["coefficients"],
            "coefficients.self_s": self_s["coefficients"],
            "dispersion.symbol_calls": outer_calls["symbol"],
            "dispersion.symbol_self_s": self_s["symbol"],
            "dispersion.k_points": counts["dispersion.k_points"],
            "dispersion.branches_self_s": self_s["branches"],
            "modal.propagator_builds": outer_calls["propagators"],
            "modal.modes_propagated": modes,
            "modal.propagators_self_s": self_s["propagators"],
            "modal.expm_fallbacks": counts["modal.expm_fallbacks"],
            "modal.expm_fallback_ratio": counts["modal.expm_fallbacks"] / modes if modes else 0.0,
            "modal.synthesis_calls": outer_calls["synthesis"],
            "modal.synthesis_s": inclusive_s["synthesis"],
            "hydro_spectral.evolve_calls": outer_calls["hydro_evolve"],
            "hydro_spectral.evolve_s": inclusive_s["hydro_evolve"],
            "moment_reference.evolve_calls": outer_calls["moment_evolve"],
            "moment_reference.evolve_s": inclusive_s["moment_evolve"],
            "moment_reference.projection_s": inclusive_s["projection"],
            "secularity.series_s": inclusive_s["secular_series"],
            "secularity.expm_calls": counts["secularity.expm_calls"],
            "cli.command_s": inclusive_s["command"],
            "cli.emit_s": inclusive_s["emit"],
            "cli.rows_emitted": counts["cli.rows_emitted"],
            "cli.bytes_written": counts["cli.bytes_written"],
        }
        return {
            metric: value
            for metric, value in values.items()
            if all(span in self.installed for span in METRICS[metric][1])
        }

    @staticmethod
    def _owner(spans, index: int, names: tuple[str, ...]) -> str | None:
        """Name of the nearest enclosing span among ``names``, if any."""
        while index >= 0:
            if spans[index][0] in names:
                return spans[index][0]
            index = spans[index][3]
        return None


def wrapped_name(func) -> str | None:
    """Span name of a tracer wrapper, or None for an unwrapped function."""
    return getattr(func, MARK, None)
