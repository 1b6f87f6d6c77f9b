"""What ``src/`` may hold: definitions the engine uses, or that a tree outside
the tests names, or that :data:`KEPT` keeps on purpose.

The scan parses ``src/repro/**/*.py``.  A non-dunder ``def`` or ``class``
counts as used when its name appears anywhere in ``src`` as an ``ast.Name``,
as an ``ast.Attribute`` attribute, or as an equal string constant; names
listed in an ``__all__`` do not count.  A definition unused in ``src`` passes
only when the same scan finds its name in ``perflab/``, ``examples/`` or
``benchmarks/``, or when :data:`KEPT` lists it under ``"module:name"`` with a
reason of kind ``paper`` (an entry point the paper describes) or
``invariant`` (a probe through which the tests assert an engine invariant).
Anything else fails, named; so does a ``KEPT`` entry whose definition is
gone or no longer needs it.  Test-only behaviour belongs in ``tests/``.
A second scan fails on a ``.next_batch(`` call outside :data:`PULLERS`: a
second loop driving an operator tree.  A third fails on ``EventType.THRESHOLD``
named outside :data:`THRESHOLD_SITES`: a second path raising that event.

The scan matches bare names, so it under-reports: one use of a name anywhere
in ``src`` covers every definition of that name.  ``list.insert`` once hid
``BucketedHashTable.insert``, and ``SourceCache.peek`` hides
``OverflowFile.peek`` today.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUTSIDE = ("perflab", "examples", "benchmarks")

#: ``"module:name" -> (kind, reason)`` for definitions nothing outside the
#: tests uses but that stay in ``src/``.
KEPT = {
    "repro.catalog.statistics:set_join_selectivity": (
        "paper",
        "§3: the optimizer costs joins with catalog selectivity statistics; "
        "this is how they are stated",
    ),
    "repro.core.policies:contact_all_policy": ("paper", "§4.1: collector policy"),
    "repro.core.policies:primary_with_fallback_policy": ("paper", "§4.1: collector policy"),
    "repro.core.policies:race_policy": ("paper", "§4.1: the race example's collector policy"),
    "repro.core.policies:apply_policy": ("paper", "§4.1: installs a collector policy"),
    "repro.plan.physical:select_": ("paper", "§3.1: the physical algebra's selection"),
    "repro.plan.physical:project_": ("paper", "§3.1: the physical algebra's projection"),
    "repro.plan.planio:plan_to_xml": ("paper", "§3: plans are written in an XML plan language"),
    "repro.plan.planio:plan_from_xml": ("paper", "§3: plans are read from that language"),
    "repro.server.scheduler:submit_plan": (
        "paper",
        "§3.1: a whole fragmented plan with its rules, admitted to the server",
    ),
    "repro.server.broker:pools": ("invariant", "broker usage equals the sum of its pools' leases"),
    "repro.server.broker:granted_bytes": ("invariant", "outstanding leases, against capacity"),
    "repro.server.clock:session_clocks": (
        "invariant",
        "a refused submission registers no clock; a lane's clock holds its frontier",
    ),
    "repro.storage.hash_table:bucket_rows": (
        "invariant",
        "a bucket's resident rows, in insertion order, as overflow resolution joins them",
    ),
    "repro.storage.hash_table:check_accounting": (
        "invariant",
        "budget usage equals resident bytes; the key index names each live slot once",
    ),
    "repro.storage.memory:granted_bytes": ("invariant", "a closed operator returns its grant"),
    "repro.storage.relation:multiset": ("invariant", "order-insensitive result equality"),
    "repro.storage.tuples:counting_row_constructions": ("invariant", "hot paths box no Row"),
}


def _listed_in_all(tree: ast.AST) -> set[int]:
    """Ids of the nodes inside every ``__all__`` assignment of ``tree``."""
    listed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            listed.update(map(id, ast.walk(node.value)))
    return listed


def names_used(paths) -> set[str]:
    """Every name ``paths`` mention as a name, an attribute or a string."""
    names: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        listed = _listed_in_all(tree)
        for node in ast.walk(tree):
            if id(node) in listed:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def definitions() -> dict[str, str]:
    """``"module:name" -> name`` for every non-dunder def and class in ``src``."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    found[f"{module}:{name}"] = name
    return found


@pytest.fixture(scope="module")
def scan():
    used = names_used((SRC / "repro").rglob("*.py"))
    outside = names_used(path for tree in OUTSIDE for path in (ROOT / tree).rglob("*.py"))
    return definitions(), used | outside


def test_every_src_definition_is_used_or_kept(scan):
    defined, used = scan
    unexplained = sorted(key for key, name in defined.items() if name not in used and key not in KEPT)
    assert not unexplained, (
        "defined in src/ but used only by the tests: move to tests/, delete, or KEPT: "
        + ", ".join(unexplained)
    )


def test_no_kept_entry_is_stale(scan):
    defined, used = scan
    stale = sorted(key for key in KEPT if key not in defined or defined[key] in used)
    assert not stale, "KEPT entries whose definition is gone or used: " + ", ".join(stale)


def test_kept_reasons_are_paper_or_invariant():
    assert {kind for kind, _ in KEPT.values()} <= {"paper", "invariant"}


#: Where ``src/`` may pull an operator: inside operators (the exchange's
#: lane steps among them), in the ``Operator`` base class, and in the
#: executor's fragment loop — the one loop that drives a plan's root, which
#: server sessions and the figure harness reach with a one-fragment plan.
PULLERS = ("engine/operators/", "engine/iterators.py", "engine/executor.py")


def test_one_drive_loop():
    package = SRC / "repro"
    drivers = set()
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package).as_posix()
        if where.startswith(PULLERS):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "next_batch"
            ):
                drivers.add(where)
    assert not drivers, (
        "a second drive loop pulls batches outside the executor; hand it a "
        "one-fragment QueryPlan instead: " + ", ".join(sorted(drivers))
    )


#: Where ``src/`` may name ``EventType.THRESHOLD``: the rule language that
#: defines it, the policies whose rules trigger on it, the ``Operator`` base
#: class — the one place the event is raised — and the event handler, where
#: the executor derives each watched operator's next trigger count.
THRESHOLD_SITES = (
    "plan/rules.py",
    "core/policies.py",
    "engine/iterators.py",
    "engine/event_handler.py",
)


def test_one_threshold_emitter():
    package = SRC / "repro"
    naming = set()
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package).as_posix()
        if where in THRESHOLD_SITES:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "THRESHOLD"
                and isinstance(node.value, ast.Name)
                and node.value.id == "EventType"
            ):
                naming.add(where)
    assert not naming, (
        "a second threshold path: the Operator base raises the event at the "
        "counts the executor derives from the rules; " + ", ".join(sorted(naming))
    )
