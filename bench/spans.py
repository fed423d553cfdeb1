"""Spans around calls into the program, recorded from the benchmark's side.

A ``Tracer`` replaces public functions of the ``avdcolor`` modules, under
the module attribute their callers look them up by, with pass-through
wrappers that time the call, note the enclosing span as its parent, and
re-raise whatever the call raises.  ``remove()`` puts the originals back,
so untraced passes run the program unchanged.

Spans are aggregated in memory by (name, parent): calls, inclusive time and
self time (inclusive time minus the time of the child spans inside it).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

# (module, attribute, span name): where each layer is entered.  Two entries
# share a span name when two callers bind the same function under their own
# module (``partition.misra_gries`` and ``vizing.misra_gries``).
SETUP_POINTS = [
    ("generators", attr, "generators.generate")
    for attr in ("cycle", "complete", "petersen", "random_regular", "gnp")
]
RUN_POINTS = [
    ("graph_io", "parse_graph", "graph_io.parse_graph"),
    ("partition", "misra_gries", "vizing.misra_gries"),
    ("vizing", "misra_gries", "vizing.misra_gries"),
    ("partition", "partition_p1", "partition.partition_p1"),
    ("partition", "partition_p2", "partition.partition_p2"),
    ("coloring", "partition_p2", "partition.partition_p2"),
    ("coloring", "partition_regular", "partition.partition_regular"),
    ("coloring", "avd_color_budget", "coloring.avd_color_budget"),
    ("coloring", "avd_subcubic", "coloring.avd_subcubic"),
    ("coloring", "compose", "coloring.compose"),
    ("coloring", "avd_color", "coloring.avd_color"),
    ("coloring", "avd_color_regular", "coloring.avd_color_regular"),
    ("verify", "check_proper", "verify.check_proper"),
    ("verify", "check_avd", "verify.check_avd"),
    ("verify", "exact_chi_a", "verify.exact_chi_a"),
    ("verify", "exact_chromatic_index", "verify.exact_chromatic_index"),
    ("verify", "audit", "verify.audit"),
]
# Pipeline entries counted while an audit is open (ROADMAP item 5).
PIPELINE = {"coloring.avd_color", "coloring.avd_color_regular",
            "partition.partition_p1", "partition.partition_p2"}
# The engine's trace= callback is chained in at this entry point.
TRACE_ENTRY = "partition.partition_p1"


@dataclass
class Tracer:
    """Span and counter store, filled by the wrappers ``install`` puts in."""

    # (name, parent) -> [calls, inclusive seconds, self seconds]
    stats: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)  # open spans: [name, child_time]
    _patched: list = field(default_factory=list)

    def install(self, mods, points) -> None:
        for module_name, attr, name in points:
            module = getattr(mods, module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()

    def _moves(self, entry: dict) -> None:
        self.counts["partition.moves"] += 1
        self.counts["partition.moves." + entry["witness"]] += 1

    def _wrap(self, original, name: str):
        stack, stats, counts = self._stack, self.stats, self.counts
        moves = self._moves

        def wrapper(*args, **kwargs):
            if name in PIPELINE and any(s[0] == "verify.audit" for s in stack):
                counts["verify.pipeline_calls"] += 1
            if name == TRACE_ENTRY:
                caller_trace = kwargs.get("trace")
                if caller_trace is None:
                    kwargs["trace"] = moves
                else:
                    def chained(entry):
                        moves(entry)
                        caller_trace(entry)
                    kwargs["trace"] = chained
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent else None)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if result is None:  # avd_color_budget refuted its budget
                counts[f"{name}:None"] += 1
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- aggregates --------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(r[0] for (n, _), r in self.stats.items() if n in names)

    def incl(self, *names, outermost: bool = False) -> float:
        """Inclusive time; ``outermost`` skips spans nested in one of ``names``."""
        return sum(r[1] for (n, p), r in self.stats.items()
                   if n in names and not (outermost and p in names))

    def self_time(self, *names) -> float:
        return sum(r[2] for (n, _), r in self.stats.items() if n in names)

    def table(self) -> list[tuple]:
        """(name, parent, calls, inclusive s, self s), slowest first."""
        return sorted(((n, p, *r) for (n, p), r in self.stats.items()),
                      key=lambda row: -row[3])
