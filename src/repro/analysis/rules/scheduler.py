"""Rule ``step-effect``: scheduler probes must be effect-free.

The discrete-event scheduler decides *when* to run a fragment by probing
``peek_arrival()`` and by building ``StepEvent("wait", …)`` records from
wait hints.  Probes run outside the fragment's own virtual-time slice:
if probing mutates a clock, a budget, a cache, or opens a source
connection, the timeline silently diverges between probed and unprobed
runs — the static race-detector analog for the deterministic DES
scheduler, and the property the planned exchange operators will lean on.

The rule finds every *entry* (any definition of a probe-root name —
``peek_arrival``, or the prefetcher's ``prefetch_decision`` hook, which the
server consults on every scheduling quantum — plus every function whose
result feeds a ``StepEvent("wait", …)`` construction, resolved through
local def-use chains), walks the project call graph
from those entries — pruned by the bottom-up effect summaries, so clean
subtrees cost nothing — and reports each *direct* effect reachable from
a probe, at the effect's own line, with the call chain that reaches it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import ModuleSource, ProjectRule


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


#: Function names whose definitions are scheduler probes: called outside any
#: session's virtual-time slice, so everything they reach must be effect-free.
PROBE_ROOT_NAMES = frozenset({"peek_arrival", "prefetch_decision"})

#: Builtins treated as pass-throughs when collecting feeders: the names
#: *inside* ``min(hint, deadline)`` still feed the event.
_PASS_THROUGH_CALLS = frozenset({"min", "max", "abs", "round", "sum", "float", "int"})


def _collect_feeders(
    expr: ast.expr, names: set[str], calls: dict[int, ast.Call]
) -> None:
    """Split an expression into feeding *calls* and feeding bare *names*.

    A call's result feeds the event; its arguments do not (what the
    callee does with them is the callee's summary's business).  Without
    this distinction, ``wait_until = self._wait_hint(root)`` would drag
    the entire construction of ``root`` — the whole operator tree — into
    the probe closure.
    """
    if isinstance(expr, ast.Call):
        name = _call_name(expr.func)
        if name in _PASS_THROUGH_CALLS:
            for arg in expr.args:
                _collect_feeders(arg, names, calls)
        else:
            calls[id(expr)] = expr
        return
    if isinstance(expr, ast.Name):
        names.add(expr.id)
        return
    for child in ast.iter_child_nodes(expr):
        if isinstance(child, ast.expr):
            _collect_feeders(child, names, calls)


def _wait_event_feeders(info, graph) -> list[str]:
    """Qualnames of project functions feeding ``StepEvent("wait", …)`` here."""
    from repro.analysis.dataflow.taint import _site_for

    fn = info.node
    feeder_names: set[str] = set()
    feeder_calls: dict[int, ast.Call] = {}
    found_wait = False
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call) or _call_name(node.func) != "StepEvent":
            continue
        if not node.args:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and first.value == "wait"):
            continue
        found_wait = True
        payload = list(node.args[1:]) + [kw.value for kw in node.keywords]
        for expr in payload:
            _collect_feeders(expr, feeder_names, feeder_calls)
    if not found_wait:
        return []
    # Local def-use: assignments whose target feeds the event pull their
    # right-hand calls (and directly-copied names) in, to a fixpoint.
    changed = True
    while changed:
        changed = False
        for stmt in ast.walk(fn):
            if not isinstance(stmt, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id in feeder_names for t in stmt.targets
            ):
                continue
            before_names = len(feeder_names)
            before_calls = len(feeder_calls)
            _collect_feeders(stmt.value, feeder_names, feeder_calls)
            if len(feeder_names) != before_names or len(feeder_calls) != before_calls:
                changed = True
    targets: list[str] = []
    for call in feeder_calls.values():
        site = _site_for(call)
        if site is not None:
            targets.extend(graph.resolve(info, site))
    return targets


class StepEffectRule(ProjectRule):
    rule_id = "step-effect"
    summary = (
        "functions reachable from peek_arrival/prefetch_decision probes and "
        "StepEvent('wait') construction must be effect-free: no clock "
        "consume_*/advance, no budget mutation, no cache fills, no source "
        "connection opens"
    )

    def check_project(self, project) -> Iterator[tuple[ModuleSource, int, str]]:
        graph = project.graph
        summaries = project.effect_summaries
        direct = project.direct_effects

        entries: dict[str, str] = {}  # qualname -> entry description
        for qualname, info in graph.functions.items():
            if info.name in PROBE_ROOT_NAMES:
                entries.setdefault(qualname, f"probe {qualname}")
        for qualname, info in graph.functions.items():
            for target in _wait_event_feeders(info, graph):
                entries.setdefault(
                    target, f'StepEvent("wait") built in {qualname}'
                )

        reported: dict[tuple[str, int], tuple[ModuleSource, int, str]] = {}
        for entry in sorted(entries):
            if not summaries.get(entry):
                continue  # effect-free subtree: nothing to walk
            chains: dict[str, list[str]] = {entry: [entry]}
            worklist = [entry]
            while worklist:
                current = worklist.pop(0)
                chain = chains[current]
                for effect in direct.get(current, ()):
                    key = (effect.path, effect.line)
                    if key in reported:
                        continue
                    module = project.module_for(effect.path)
                    if module is None:
                        continue
                    info = graph.functions[current]
                    via = " -> ".join(q.rsplit(".", 1)[-1] for q in chain)
                    reported[key] = (
                        module,
                        effect.line,
                        f"{effect.kind} effect `{effect.detail}` in {info.name} "
                        f"is reachable from scheduler {entries[entry]} "
                        f"(via {via}); probes must not mutate engine state",
                    )
                for callee, _site in graph.callees(current):
                    if callee in chains or not summaries.get(callee):
                        continue
                    chains[callee] = chain + [callee]
                    worklist.append(callee)
        for _key, (module, line, message) in sorted(
            reported.items(), key=lambda item: item[0]
        ):
            yield (module, line, message)
