"""Rule ``hot-path-row``: hot-path modules must not box rows.

PR 3's columnar hash tables hold ``no Row objects are constructed on the
insert/probe hot paths`` as a *runtime* assertion (the
``counting_row_constructions`` counter in ``tests/test_hash_table.py``).
This rule is its static twin over the whole storage layer: inside the
hot-path modules (columns, batches, the bucketed hash table, the spill
files), constructing a :class:`Row` (``Row(...)`` / ``Row.make``) or
materializing ``.rows()`` is only legal at the declared row-boundary
methods, each of which carries a ``# repro: allow[hot-path-row]`` pragma
naming why the boxing is the point.  The declared boundaries are
:class:`Batch`'s row accessors (``rows()``, iteration, ``batch[i]``),
``Wrapper.fetch_batch``, and the one-tuple fetch of a source connection and
of a cached extent.  The spill files declare none: every reader is chunked.

Modules opt in by declaring ``# repro: module-role[hot-path]`` — there is
no hardcoded module list, so a new columnar module joins the invariant's
scope by carrying the role marker, not by editing this rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import ModuleSource, Rule

class HotPathRowRule(Rule):
    rule_id = "hot-path-row"
    summary = (
        "modules declaring `# repro: module-role[hot-path]` must not construct "
        "Row objects (Row()/Row.make) or materialize .rows() outside "
        "pragma-declared boundaries"
    )

    def check(self, module: ModuleSource) -> Iterator[tuple[int, str]]:
        if not module.has_role("hot-path"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "Row":
                    yield (
                        node.lineno,
                        "constructs a Row object on a hot-path module; keep data "
                        "columnar (gathers/takes) or move the boxing to a "
                        "declared boundary",
                    )
                elif isinstance(func, ast.Attribute) and func.attr == "rows":
                    yield (
                        node.lineno,
                        "materializes .rows() on a hot-path module; rows() "
                        "boxing belongs at declared tuple-path boundaries only",
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "make":
                if isinstance(node.value, ast.Name) and node.value.id == "Row":
                    yield (
                        node.lineno,
                        "references Row.make on a hot-path module; keep data "
                        "columnar or move the boxing to a declared boundary",
                    )
