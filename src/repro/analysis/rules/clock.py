"""Rule ``clock-taint``: no wall-clock/RNG value flows into engine state.

The engine's determinism (result parity with the per-tuple oracles, byte-exact
virtual-time accounting, the server's conservative discrete-event
schedule) depends on *no* engine code depending on the machine clock or
an unseeded RNG.  The PR-6 ``wall-clock`` rule flagged the calls
syntactically; this rule subsumes it with a forward taint analysis over
the project call graph: a value produced by ``time.*``, ``random.*``
module functions, ``os.urandom``, or argless ``datetime.now``-family
constructors must not *flow* — through assignments, returns, or call
arguments, across function boundaries — into engine state (attribute or
subscript stores, event constructor arguments).

A tainted value that reaches state is reported at the sink with the
source's provenance; a source call whose value flows nowhere is still
reported at the call (reading the machine clock at all is the hazard),
which preserves the old rule's coverage of bare ``time.sleep()``-style
calls.  Seeded ``random.Random(seed)`` instances are deliberately *not*
sources — deterministic replay is exactly what they are for.

Real time may only be observed by the clock authorities
(``network/simclock.py``, ``server/clock.py``) and benchmark harness
code, whose whole point is measuring wall seconds.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import ModuleSource, ProjectRule

#: ``time.<attr>`` calls that read or depend on the machine clock.
WALL_CLOCK_TIME_NAMES = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    }
)

#: ``datetime``/``date`` constructors that capture "now".
DATETIME_NOW_NAMES = frozenset({"now", "utcnow", "today"})

#: ``random`` module-level functions are unseeded (module-global state);
#: ``random.Random(seed)`` instances are fine and excluded by name.
RANDOM_EXEMPT_NAMES = frozenset({"Random", "SystemRandom", "seed"})

#: Modules that own the clock abstraction and may observe real time.
CLOCK_AUTHORITY_SUFFIXES = (
    "repro/network/simclock.py",
    "repro/server/clock.py",
)

#: Directory names whose code measures real wall seconds by design.
BENCH_DIRECTORIES = ("bench", "benchmarks")


def classify_wall_clock_call(func: ast.expr) -> str | None:
    """Label a call target that reads the machine clock/RNG, or ``None``."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        if value.id == "time" and func.attr in WALL_CLOCK_TIME_NAMES:
            return f"time.{func.attr}"
        if value.id == "random" and func.attr not in RANDOM_EXEMPT_NAMES:
            return f"random.{func.attr}"
        if value.id == "os" and func.attr == "urandom":
            return "os.urandom"
        if value.id in ("datetime", "date") and func.attr in DATETIME_NOW_NAMES:
            return f"{value.id}.{func.attr}"
    elif isinstance(value, ast.Attribute):
        # datetime.datetime.now(...) / datetime.date.today(...)
        if value.attr in ("datetime", "date") and func.attr in DATETIME_NOW_NAMES:
            return f"{value.attr}.{func.attr}"
    return None


def _imported_source_label(name: str, imports: dict[str, str]) -> str | None:
    """``from time import monotonic`` makes a bare ``monotonic()`` a source."""
    target = imports.get(name)
    if target is None or ":" not in target:
        return None
    mod, attr = target.split(":", 1)
    if mod == "time" and attr in WALL_CLOCK_TIME_NAMES:
        return f"time.{attr}"
    if mod == "random" and attr not in RANDOM_EXEMPT_NAMES:
        return f"random.{attr}"
    if mod == "os" and attr == "urandom":
        return "os.urandom"
    return None


def _event_sink_label(func: ast.expr) -> str | None:
    """Event payload sinks: ``emit_event(...)`` and ``*Event(...)`` constructors."""
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name is None:
        return None
    if name == "emit_event":
        return "emit_event payload"
    if name.endswith("Event") and name[:1].isupper():
        return f"{name} payload"
    return None


class ClockTaintRule(ProjectRule):
    rule_id = "clock-taint"
    summary = (
        "no value derived from the machine clock or unseeded RNG (time.*, "
        "random.*, os.urandom, datetime.now) may flow into engine state; "
        "virtual time comes from the context's SimClock/ServerClock"
    )

    @staticmethod
    def _exempt(module: ModuleSource) -> bool:
        return (
            module.matches(*CLOCK_AUTHORITY_SUFFIXES)
            or module.has_role("clock-authority")
            or module.in_directory(*BENCH_DIRECTORIES)
        )

    def check_project(self, project) -> Iterator[tuple[ModuleSource, int, str]]:
        from repro.analysis.dataflow.taint import TaintAnalysis

        graph = project.graph
        exempt_paths = {
            module.posix for module in project.modules if self._exempt(module)
        }

        def classify_source(call: ast.Call, info) -> str | None:
            if info.path in exempt_paths:
                return None
            label = classify_wall_clock_call(call.func)
            if label is not None:
                return label
            if isinstance(call.func, ast.Name):
                facts = graph.modules.get(info.module)
                if facts is not None:
                    return _imported_source_label(call.func.id, facts.imports)
            return None

        result = TaintAnalysis(graph, classify_source, _event_sink_label).run()

        consumed: set[tuple[str, int]] = set()
        findings: list[tuple[str, int, str]] = []
        for (path, line, desc), origins in sorted(
            result.sinks.items(), key=lambda item: (item[0][0], item[0][1], item[0][2])
        ):
            sources = sorted((o[1], o[2], o[3]) for o in origins)
            for src_path, src_line, _label in sources:
                consumed.add((src_path, src_line))
            provenance = ", ".join(
                f"{label} at {src_path}:{src_line}"
                for src_path, src_line, label in sources[:3]
            )
            findings.append(
                (
                    path,
                    line,
                    f"engine state tainted by wall-clock/RNG value ({desc}; "
                    f"from {provenance}); derive times from the context's "
                    "SimClock/ServerClock instead",
                )
            )
        for (path, line), label in sorted(result.occurrences.items()):
            if (path, line) in consumed:
                continue
            findings.append(
                (
                    path,
                    line,
                    f"calls wall-clock/RNG source {label}; use the context's "
                    "SimClock/ServerClock (or a seeded random.Random) instead",
                )
            )
        for path, line, message in findings:
            module = project.module_for(path)
            if module is not None:
                yield (module, line, message)
