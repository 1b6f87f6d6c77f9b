"""Statement-level control-flow graphs for one function body.

The ``lease-lifecycle`` rule needs to reason about *paths*: does every
path out of a function — including the path taken when a call raises
mid-way — pass through a matching release?  The CFG built here is
deliberately small and conservative:

- one node per simple statement (compound statements contribute a *header*
  node plus nodes for their bodies);
- ``normal`` edges for sequential flow, branch arms, and loop back-edges;
- ``except`` edges from every statement that can raise (any statement
  containing a call, plus explicit ``raise``/``assert``) to the innermost
  enclosing handler — or, with no handler, to the synthetic
  :attr:`CFG.raise_exit` node;
- ``finally`` bodies are wired so that both the normal continuation and
  the exceptional exits pass through them, matching the guarantee the
  runtime provides;
- ``with`` blocks get a synthetic *exit* node on every way out of the
  body, modelling the guaranteed ``__exit__`` call.

The graph over-approximates feasible paths (a linter must never miss a
path, and may report a spurious one that a pragma can silence).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Calls assumed not to raise for path-sensitivity purposes.  Without this
#: list every ``dict.get`` or ``list.append`` would spawn an exceptional
#: edge and drown the lease rule in infeasible leak paths.  The names are
#: matched against the called attribute (or plain name) only.
NONRAISING_CALLS = frozenset(
    {
        "append",
        "extend",
        "add",
        "discard",
        "clear",
        "get",
        "pop",
        "popitem",
        "setdefault",
        "items",
        "keys",
        "values",
        "update",
        "len",
        "isinstance",
        "issubclass",
        "hasattr",
        "getattr",
        "id",
        "repr",
        "str",
        "format",
        "min",
        "max",
        "abs",
        "sum",
        "bool",
        "float",
        "int",
        "range",
        "enumerate",
        "zip",
        "list",
        "tuple",
        "dict",
        "set",
        "frozenset",
        "sorted",
        "reversed",
        "join",
        "startswith",
        "endswith",
    }
)

ENTRY = "entry"
EXIT = "exit"
RAISE_EXIT = "raise-exit"
STMT = "stmt"
WITH_EXIT = "with-exit"

NORMAL = "normal"
EXCEPT = "except"
FINALLY = "finally"


@dataclass
class Node:
    """One CFG node; ``stmt`` is None for the synthetic entry/exit nodes."""

    index: int
    kind: str
    stmt: ast.stmt | None = None

    @property
    def line(self) -> int:
        return self.stmt.lineno if self.stmt is not None else 0


@dataclass
class CFG:
    """Control-flow graph of one function body."""

    name: str
    nodes: list[Node] = field(default_factory=list)
    succ: dict[int, list[tuple[int, str]]] = field(default_factory=dict)

    entry: int = 0
    exit: int = 1
    raise_exit: int = 2

    def add_node(self, kind: str, stmt: ast.stmt | None = None) -> int:
        node = Node(len(self.nodes), kind, stmt)
        self.nodes.append(node)
        self.succ[node.index] = []
        return node.index

    def add_edge(self, src: int, dst: int, kind: str = NORMAL) -> None:
        edges = self.succ[src]
        if (dst, kind) not in edges:
            edges.append((dst, kind))

    def successors(self, index: int) -> list[tuple[int, str]]:
        return self.succ[index]

    def statement_nodes(self) -> list[Node]:
        return [node for node in self.nodes if node.kind == STMT]


def _call_may_raise(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr not in NONRAISING_CALLS
    if isinstance(func, ast.Name):
        return func.id not in NONRAISING_CALLS
    return True


def may_raise(stmt: ast.stmt) -> bool:
    """Conservatively: does executing ``stmt``'s own code possibly raise?

    Only the statement's *header* expressions are inspected for compound
    statements — their bodies get nodes of their own.
    """
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for expr in header_exprs(stmt):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call) and _call_may_raise(sub):
                return True
    return False


def header_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions evaluated by the statement itself (not nested bodies)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    out: list[ast.expr] = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            out.append(child)
    return out


class _Frame:
    """One enclosing try/with context during construction."""

    __slots__ = ("handler_entries", "finally_node", "kind")

    def __init__(self, handler_entries, finally_node, kind):
        self.handler_entries = handler_entries  # list[int] — first node of each handler
        self.finally_node = finally_node  # synthetic node id or None
        self.kind = kind  # "try" | "with"


class _Builder:
    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef, name: str):
        self.cfg = CFG(name)
        self.cfg.entry = self.cfg.add_node(ENTRY)
        self.cfg.exit = self.cfg.add_node(EXIT)
        self.cfg.raise_exit = self.cfg.add_node(RAISE_EXIT)
        self.frames: list[_Frame] = []
        self.loop_stack: list[tuple[list[int], list[int]]] = []  # (break-out, continue-back)
        self.fn = fn

    # -- exceptional targets -----------------------------------------------------

    def _exceptional_targets(self, depth: int | None = None) -> list[tuple[int, str]]:
        """Where control can go when a statement raises, for the innermost frame.

        With handlers: each handler's entry.  A ``finally`` also receives
        the exception (and re-raises past it — modelled when the finally
        body is wired).  With no frame at all: the raise-exit node.
        """
        frames = self.frames if depth is None else self.frames[:depth]
        for frame in reversed(frames):
            targets: list[tuple[int, str]] = []
            for handler in frame.handler_entries:
                targets.append((handler, EXCEPT))
            if frame.finally_node is not None:
                targets.append((frame.finally_node, EXCEPT))
            if targets:
                return targets
        return [(self.cfg.raise_exit, EXCEPT)]

    def _wire_raise(self, node: int) -> None:
        for target, kind in self._exceptional_targets():
            self.cfg.add_edge(node, target, kind)

    # -- construction ------------------------------------------------------------

    def build(self) -> CFG:
        preds = self.block(self.fn.body, [(self.cfg.entry, NORMAL)])
        for node, kind in preds:
            self.cfg.add_edge(node, self.cfg.exit, kind)
        return self.cfg

    def block(
        self, stmts: list[ast.stmt], preds: list[tuple[int, str]]
    ) -> list[tuple[int, str]]:
        """Wire ``stmts`` sequentially; returns the open ends."""
        for stmt in stmts:
            preds = self.statement(stmt, preds)
            if not preds:
                break  # unreachable code after return/raise/break
        return preds

    def _link(self, preds: list[tuple[int, str]], node: int) -> None:
        for pred, kind in preds:
            self.cfg.add_edge(pred, node, kind)

    def statement(
        self, stmt: ast.stmt, preds: list[tuple[int, str]]
    ) -> list[tuple[int, str]]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            node = cfg.add_node(STMT, stmt)
            self._link(preds, node)
            if may_raise(stmt):
                self._wire_raise(node)
            out = self.block(stmt.body, [(node, NORMAL)])
            if stmt.orelse:
                out += self.block(stmt.orelse, [(node, NORMAL)])
            else:
                out.append((node, NORMAL))
            return out

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            node = cfg.add_node(STMT, stmt)
            self._link(preds, node)
            if may_raise(stmt):
                self._wire_raise(node)
            breaks: list[int] = []
            continues: list[int] = []
            self.loop_stack.append((breaks, continues))
            body_out = self.block(stmt.body, [(node, NORMAL)])
            self.loop_stack.pop()
            for pred, kind in body_out:
                cfg.add_edge(pred, node, kind)  # back-edge
            for cont in continues:
                cfg.add_edge(cont, node, NORMAL)
            out = [(node, NORMAL)]  # loop test false / iterator exhausted
            if stmt.orelse:
                out = self.block(stmt.orelse, out)
            for brk in breaks:
                out.append((brk, NORMAL))
            return out

        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds)

        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested def/class is just a binding at this level.
            node = cfg.add_node(STMT, stmt)
            self._link(preds, node)
            return [(node, NORMAL)]

        # Simple statement.
        node = cfg.add_node(STMT, stmt)
        self._link(preds, node)
        if isinstance(stmt, ast.Return):
            if may_raise(stmt):
                self._wire_raise(node)
            self._wire_through_finally(node, cfg.exit, NORMAL)
            return []
        if isinstance(stmt, ast.Raise):
            self._wire_raise(node)
            return []
        if isinstance(stmt, ast.Break):
            if self.loop_stack:
                self.loop_stack[-1][0].append(node)
                return []
            return [(node, NORMAL)]
        if isinstance(stmt, ast.Continue):
            if self.loop_stack:
                self.loop_stack[-1][1].append(node)
                return []
            return [(node, NORMAL)]
        if may_raise(stmt):
            self._wire_raise(node)
        return [(node, NORMAL)]

    def _wire_through_finally(self, node: int, final_target: int, kind: str) -> None:
        """Route ``return`` through any enclosing finally bodies."""
        for frame in reversed(self.frames):
            if frame.finally_node is not None:
                self.cfg.add_edge(node, frame.finally_node, FINALLY)
                return
        self.cfg.add_edge(node, final_target, kind)

    def _try(self, stmt: ast.Try, preds: list[tuple[int, str]]) -> list[tuple[int, str]]:
        cfg = self.cfg
        # Build handler entry placeholders first so body statements can
        # target them.  Each handler's first real node links from a
        # synthetic header node carrying the handler's line.
        handler_entries: list[int] = []
        for handler in stmt.handlers:
            entry = cfg.add_node(STMT, handler)
            handler_entries.append(entry)
        finally_node = cfg.add_node(STMT, stmt) if stmt.finalbody else None

        frame = _Frame(handler_entries, finally_node, "try")
        self.frames.append(frame)
        body_out = self.block(stmt.body, preds)
        if stmt.orelse:
            body_out = self.block(stmt.orelse, body_out)
        self.frames.pop()

        out: list[tuple[int, str]] = []
        # Handlers run outside the protection of this try (an exception
        # raised inside a handler propagates outward), but inside the
        # finally if present.
        if finally_node is not None:
            self.frames.append(_Frame([], finally_node, "try"))
        for handler, entry in zip(stmt.handlers, handler_entries):
            handler_out = self.block(handler.body, [(entry, NORMAL)])
            out += handler_out
        if finally_node is not None:
            self.frames.pop()

        if finally_node is not None:
            # Everything funnels through the finally body: normal
            # completion, handler completion, and exceptional exits (the
            # EXCEPT edges added while the frame was active).
            for pred, kind in body_out + out:
                cfg.add_edge(pred, finally_node, kind)
            final_out = self.block(stmt.finalbody, [(finally_node, NORMAL)])
            result: list[tuple[int, str]] = []
            for pred, kind in final_out:
                # The finally may complete normally (fall through) or
                # re-raise a pending exception / propagate a pending
                # return — both exits are modelled.
                result.append((pred, NORMAL))
                for target, tkind in self._exceptional_targets():
                    cfg.add_edge(pred, target, tkind)
                self._propagate_return(pred)
            return result
        return body_out + out

    def _propagate_return(self, node: int) -> None:
        """A finally tail may be completing a ``return`` — wire it to exit."""
        for frame in reversed(self.frames):
            if frame.finally_node is not None:
                self.cfg.add_edge(node, frame.finally_node, FINALLY)
                return
        self.cfg.add_edge(node, self.cfg.exit, NORMAL)

    def _with(
        self, stmt: ast.With | ast.AsyncWith, preds: list[tuple[int, str]]
    ) -> list[tuple[int, str]]:
        cfg = self.cfg
        header = cfg.add_node(STMT, stmt)
        self._link(preds, header)
        if may_raise(stmt):
            self._wire_raise(header)
        # __exit__ runs on every way out of the body.
        exit_node = cfg.add_node(WITH_EXIT, stmt)
        self.frames.append(_Frame([], exit_node, "with"))
        body_out = self.block(stmt.body, [(header, NORMAL)])
        self.frames.pop()
        for pred, kind in body_out:
            cfg.add_edge(pred, exit_node, kind)
        # After __exit__: normal continuation, or re-raise of a pending
        # exception / completion of a pending return.
        for target, tkind in self._exceptional_targets():
            cfg.add_edge(exit_node, target, tkind)
        self._propagate_return(exit_node)
        return [(exit_node, NORMAL)]


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef, name: str | None = None) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(fn, name or fn.name).build()
