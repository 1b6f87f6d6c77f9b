"""The analyzer's control-flow graphs (:mod:`repro.analysis.dataflow.cfg`).

The rule-level behaviour (what fires where) lives in ``test_analysis.py``;
here we pin the *graphs*: which edges a raise, a ``try/finally``, a ``with``
block and a loop contribute.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.dataflow.cfg import EXCEPT, FINALLY, build_cfg


def fn_from(source: str, name: str | None = None):
    """First (or named) function definition parsed from ``source``."""
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if name is None or node.name == name:
                return node
    raise AssertionError("no function definition found")


def node_at_line(cfg, line: int):
    """The statement node whose header starts at ``line`` (1-based in fn)."""
    matches = [
        n
        for n in cfg.statement_nodes()
        if n.stmt is not None and n.stmt.lineno == line
    ]
    assert matches, f"no statement node at line {line}"
    return matches[0]


class TestCfg:
    def test_straight_line_reaches_exit(self):
        cfg = build_cfg(fn_from("def f():\n    x = 1\n    y = 2\n"))
        node = node_at_line(cfg, 3)
        assert (cfg.exit, "normal") in cfg.successors(node.index)

    def test_raising_call_gets_except_edge_to_raise_exit(self):
        cfg = build_cfg(fn_from("def f(s):\n    s.load()\n"))
        node = node_at_line(cfg, 2)
        kinds = {kind for _t, kind in cfg.successors(node.index)}
        assert EXCEPT in kinds
        assert any(t == cfg.raise_exit for t, k in cfg.successors(node.index) if k == EXCEPT)

    def test_nonraising_call_gets_no_except_edge(self):
        cfg = build_cfg(fn_from("def f(xs):\n    xs.append(1)\n"))
        node = node_at_line(cfg, 2)
        assert all(kind != EXCEPT for _t, kind in cfg.successors(node.index))

    def test_try_except_routes_raise_to_handler(self):
        cfg = build_cfg(
            fn_from(
                """
                def f(s):
                    try:
                        s.load()
                    except ValueError:
                        s.recover()
                """
            )
        )
        load = node_at_line(cfg, 4)
        except_targets = [t for t, k in cfg.successors(load.index) if k == EXCEPT]
        assert except_targets
        # The handler body is reachable from the exceptional edge, not from
        # the raise-exit.
        assert cfg.raise_exit not in except_targets

    def test_finally_receives_both_normal_and_exceptional_flow(self):
        cfg = build_cfg(
            fn_from(
                """
                def f(s):
                    try:
                        s.load()
                    finally:
                        s.close()
                """
            )
        )
        load = node_at_line(cfg, 4)
        targets = cfg.successors(load.index)
        # Normal completion and the exception both funnel into the finally
        # placeholder; the finally tail can then fall through *or* re-raise.
        finally_targets = {t for t, _k in targets}
        close = node_at_line(cfg, 6)
        reachable_kinds = set()
        for target in finally_targets:
            for t2, _k2 in cfg.successors(target):
                if t2 == close.index:
                    reachable_kinds.add("found")
        assert "found" in reachable_kinds or close.index in finally_targets
        tail_targets = {t for t, _k in cfg.successors(close.index)}
        assert cfg.exit in tail_targets
        assert cfg.raise_exit in tail_targets

    def test_return_routes_through_enclosing_finally(self):
        cfg = build_cfg(
            fn_from(
                """
                def f(s):
                    try:
                        return s.load()
                    finally:
                        s.close()
                """
            )
        )
        ret = node_at_line(cfg, 4)
        # The return must NOT go straight to exit; it detours via finally.
        kinds = dict()
        for t, k in cfg.successors(ret.index):
            kinds[t] = k
        assert cfg.exit not in kinds
        assert FINALLY in kinds.values()

    def test_with_block_gets_exit_node_on_all_paths(self):
        cfg = build_cfg(
            fn_from(
                """
                def f(s):
                    with s.open() as h:
                        h.read()
                    return 1
                """
            )
        )
        with_exits = [n for n in cfg.nodes if n.kind == "with-exit"]
        assert len(with_exits) == 1
        read = node_at_line(cfg, 4)
        assert any(t == with_exits[0].index for t, _k in cfg.successors(read.index))

    def test_loop_has_back_edge(self):
        cfg = build_cfg(
            fn_from(
                """
                def f(xs):
                    for x in xs:
                        x = x
                    return 1
                """
            )
        )
        header = node_at_line(cfg, 3)
        body = node_at_line(cfg, 4)
        assert any(t == header.index for t, _k in cfg.successors(body.index))

    def test_nested_def_is_a_single_binding_node(self):
        cfg = build_cfg(
            fn_from(
                """
                def f(s):
                    def g():
                        s.load()
                    return g
                """,
                name="f",
            )
        )
        # The nested body contributes no nodes of its own — exactly one
        # statement node for the def plus one for the return.
        assert len(cfg.statement_nodes()) == 2
