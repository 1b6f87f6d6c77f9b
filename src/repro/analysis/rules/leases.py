"""Rule ``lease-lifecycle``: every acquisition reaches a release on all paths.

The server-wide invariant ``broker.used_bytes == sum(resident_bytes)``
only holds if every byte reserved against a :class:`MemoryBudget` — and
every lease granted by a pool or broker — is returned by the same owner
*on every path*, including the path taken when a call in between raises.
The PR-6 ``memory-pairing`` rule checked presence at class granularity;
this rule is path-sensitive over the function CFG and reports *which*
path leaks ("leaks on the except-path at line N").

Three cooperating checks:

1. **Local handles** — an acquisition captured in a local name
   (``budget = pool.grant(...)``, ``broker.lease(budget, n)``,
   ``budget.reserve(n)`` on a local) must, on every CFG path out of the
   function (normal, return, and exception edges), either reach a
   matching release (``release``/``close``/``revoke``/``release_lease``
   on or with the handle) or escape into longer-lived ownership (stored
   to an attribute/subscript, returned).  ``with`` acquisitions count as
   auto-released.

2. **Skippable lease returns** — in a function that *returns* a lease
   (``pool.revoke(...)``/``broker.release_lease(...)``) without locally
   acquiring one (the close/cleanup shape), a statement that can raise
   before the return reaches it must not let the exception bypass it:
   the return belongs in a ``finally``.

   The per-lane variant (2b): a teardown that returns *several* leases —
   one per exchange lane, in sequence or in a loop — must survive any one
   return call raising: the remaining lanes' grants still have to be
   released on the exception edge, or the lanes that were not yet revoked
   leak their budgets.

3. **Attribute-held pairing** — acquisitions held on ``self`` keep the
   old class-granularity presence check: a class that reserves on some
   receiver must release on that receiver somewhere.

The memory-authority modules (``storage/memory.py``, ``server/broker.py``)
implement the protocol itself and are exempt from check 3 (their
primitives delegate to each other), but checks 1 and 2 still apply to
them — the broker's own bookkeeping must not leak either.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.dataflow.cfg import (
    CFG,
    EXCEPT,
    STMT,
    WITH_EXIT,
    build_cfg,
    header_exprs,
    may_raise,
)
from repro.analysis.linter import ModuleSource, Rule

#: Modules that implement the accounting protocol itself.  Their classes
#: delegate between the acquire/release primitives they define (for example
#: ``MemoryBudget.reserve`` calling ``self.try_reserve``), which check 3
#: would misread as client code.
MEMORY_AUTHORITY_SUFFIXES = (
    "repro/storage/memory.py",
    "repro/server/broker.py",
)

ACQUIRE_METHODS = frozenset({"reserve", "try_reserve", "force_reserve"})
RELEASE_METHODS = frozenset({"release", "close", "revoke", "release_lease", "revoke_to"})
GRANT_METHODS = frozenset({"grant"})
LEASE_METHODS = frozenset({"lease"})

#: Calls that return a lease to its pool/broker (check 2's protected set).
LEASE_RETURN_METHODS = frozenset({"revoke", "release_lease"})
_LEASE_RETURN_RECEIVERS = ("pool", "broker")


def _receiver_tail(func: ast.expr) -> str | None:
    """Trailing identifier of a method call's receiver (``self.budget`` -> ``budget``)."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _is_pool_receiver(tail: str | None) -> bool:
    return tail is not None and tail.endswith("pool")


def _is_broker_receiver(tail: str | None) -> bool:
    return tail is not None and "broker" in tail


def _is_lease_return_receiver(tail: str | None) -> bool:
    if tail is None:
        return False
    lowered = tail.lower()
    return any(fragment in lowered for fragment in _LEASE_RETURN_RECEIVERS)


class _Acquire:
    """One local-handle acquisition found in a function body."""

    __slots__ = ("node_index", "handle", "label", "lineno")

    def __init__(self, node_index: int, handle: str, label: str, lineno: int):
        self.node_index = node_index
        self.handle = handle
        self.label = label
        self.lineno = lineno


def _names_in(expr: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _stmt_calls(stmt) -> Iterator[ast.Call]:
    """Calls executed by the statement *itself* (compound bodies excluded).

    CFG nodes for ``try``/``finally``/handler placeholders carry the whole
    compound statement; walking it blindly would attribute body calls to
    the placeholder node.
    """
    for expr in header_exprs(stmt):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                yield sub


def _stmt_releases(stmt, handle: str) -> bool:
    """Does executing ``stmt`` release/return the handle's bytes?"""
    for node in _stmt_calls(stmt):
        if not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr not in RELEASE_METHODS:
            continue
        receiver = node.func.value
        if isinstance(receiver, ast.Name) and receiver.id == handle:
            return True  # budget.release(...) / budget.close()
        for arg in node.args:
            if isinstance(arg, ast.Name) and arg.id == handle:
                return True  # broker.release_lease(budget)
    return False


#: Methods that retain their argument in a longer-lived container — the
#: idiomatic per-lane setup loop (``budgets.append(pool.grant(...))`` or
#: ``handles.append(budget)``) transfers ownership to whoever owns the
#: container, same as an attribute store.
_ESCAPE_SINK_METHODS = frozenset({"append", "add", "insert", "register", "setdefault"})


def _stmt_escapes(stmt: ast.stmt, handle: str) -> bool:
    """Does ``stmt`` hand the handle to longer-lived ownership?"""
    if isinstance(stmt, ast.Return):
        return stmt.value is not None and handle in _names_in(stmt.value)
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        if isinstance(call.func, ast.Attribute) and call.func.attr in _ESCAPE_SINK_METHODS:
            return any(
                isinstance(arg, ast.Name) and arg.id == handle for arg in call.args
            )
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        value = stmt.value
        if value is None or handle not in _names_in(value):
            return False
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                return True
            # Rebinding the local ends tracking (treated as a transfer).
            if isinstance(target, ast.Name) and target.id != handle:
                return True
    return False


def _find_acquires(cfg: CFG) -> list[_Acquire]:
    """Grant/lease acquisitions captured into a function-local handle.

    ``reserve``-family calls are deliberately not tracked here: their
    receiver is usually a borrowed handle (a parameter, or an alias of
    ``self.budget``) whose release legitimately lives elsewhere — those
    stay under the class-granularity pairing of check 3.
    """
    acquires: list[_Acquire] = []
    for node in cfg.statement_nodes():
        stmt = node.stmt
        for call in _stmt_calls(stmt):
            if not isinstance(call.func, ast.Attribute):
                continue
            method = call.func.attr
            tail = _receiver_tail(call.func)
            handle = None
            label = None
            if method in GRANT_METHODS and _is_pool_receiver(tail):
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.value is call
                ):
                    handle = stmt.targets[0].id
                    label = f"{tail}.{method}"
            elif method in LEASE_METHODS and _is_broker_receiver(tail):
                if call.args and isinstance(call.args[0], ast.Name):
                    handle = call.args[0].id
                    label = f"{tail}.{method}"
            if handle is not None:
                acquires.append(_Acquire(node.index, handle, label, call.lineno))
    return acquires


def _leak_path(cfg: CFG, acquire: _Acquire) -> tuple[str, int] | None:
    """A path from the acquisition to an exit with no release/escape.

    Returns ``(path kind, last line)`` for the first leaking path found,
    or ``None`` when every path releases.  The acquiring statement itself
    is assumed to have succeeded (its own exception edge does not leak —
    nothing was acquired).
    """
    start = cfg.nodes[acquire.node_index]
    # If the acquisition happens in a `with handle:`-style header the
    # context manager releases it.
    if isinstance(start.stmt, (ast.With, ast.AsyncWith)):
        return None
    # The acquiring statement's own exception edge does not leak: when
    # the grant/lease call itself raises, nothing was acquired.
    worklist = [
        (succ, kind, start.line)
        for succ, kind in cfg.successors(start.index)
        if kind != EXCEPT
    ]
    seen: set[int] = set()
    while worklist:
        index, kind, from_line = worklist.pop()
        if index in seen:
            continue
        seen.add(index)
        node = cfg.nodes[index]
        if node.index == cfg.raise_exit:
            return ("except", from_line)
        if node.index == cfg.exit:
            return ("normal" if kind != EXCEPT else "except", from_line)
        if node.kind in (STMT, WITH_EXIT) and node.stmt is not None:
            if _stmt_releases(node.stmt, acquire.handle):
                continue  # this path is safe
            if _stmt_escapes(node.stmt, acquire.handle):
                continue
        line = node.line if node.kind == STMT else from_line
        for succ, succ_kind in cfg.successors(index):
            worklist.append((succ, succ_kind, line))
    return None


def _lease_return_nodes(cfg: CFG) -> list[tuple[int, int, str]]:
    """(node index, line, label) of lease-return calls in this function."""
    out: list[tuple[int, int, str]] = []
    for node in cfg.statement_nodes():
        for call in _stmt_calls(node.stmt):
            if not isinstance(call.func, ast.Attribute):
                continue
            tail = _receiver_tail(call.func)
            if call.func.attr in LEASE_RETURN_METHODS and _is_lease_return_receiver(tail):
                out.append((node.index, call.lineno, f"{tail}.{call.func.attr}"))
    return out


def _reaches(cfg: CFG, start: int, goals: set[int], avoid: set[int]) -> bool:
    worklist = [start]
    seen: set[int] = set()
    while worklist:
        index = worklist.pop()
        if index in seen or index in avoid:
            continue
        seen.add(index)
        if index in goals:
            return True
        for succ, _kind in cfg.successors(index):
            worklist.append(succ)
    return False


def _skippable_return(cfg: CFG) -> tuple[int, str, int] | None:
    """Check 2: a raise before the lease return that bypasses it.

    Returns ``(return line, label, raising line)`` or ``None``.
    """
    returns = _lease_return_nodes(cfg)
    if not returns:
        return None
    return_indexes = {index for index, _line, _label in returns}
    exits = {cfg.exit, cfg.raise_exit}
    for node in cfg.statement_nodes():
        if node.index in return_indexes or node.stmt is None:
            continue
        if not may_raise(node.stmt):
            continue
        # The raising statement must sit before the lease return on some
        # normal path (otherwise the lease was already returned)...
        if not _reaches(cfg, node.index, return_indexes, avoid=set()):
            continue
        # ...and its exception edge must be able to leave the function
        # without passing any lease return.
        for succ, kind in cfg.successors(node.index):
            if kind != EXCEPT:
                continue
            if succ in exits or _reaches(cfg, succ, exits, avoid=return_indexes):
                index, line, label = min(returns, key=lambda r: r[1])
                return (line, label, node.line)
    return None


def _reaches_after(cfg: CFG, start: int, goals: set[int], avoid: set[int]) -> bool:
    """Like :func:`_reaches`, but from ``start``'s *normal* successors only
    (so a node can be its own goal — the loop-teardown case)."""
    worklist = [succ for succ, kind in cfg.successors(start) if kind != EXCEPT]
    seen: set[int] = set()
    while worklist:
        index = worklist.pop()
        if index in seen or index in avoid:
            continue
        seen.add(index)
        if index in goals:
            return True
        for succ, _kind in cfg.successors(index):
            worklist.append(succ)
    return False


def _skippable_sibling_return(cfg: CFG) -> tuple[int, str] | None:
    """Check 2b: one lane's lease return raising must not skip another's.

    Multi-lane teardown returns one grant per lane, sequentially or in a
    loop.  A lease-return call is itself a raiser (check 2 deliberately
    exempts it — *its* lease is being returned either way); but when more
    returns are still pending after it on the normal path, its exception
    edge must not exit the function without passing them.  Returns the
    ``(line, label)`` of the return whose failure skips the rest.
    """
    returns = _lease_return_nodes(cfg)
    if not returns:
        return None
    return_indexes = {index for index, _line, _label in returns}
    exits = {cfg.exit, cfg.raise_exit}
    for index, line, label in returns:
        node = cfg.nodes[index]
        if node.stmt is None or not may_raise(node.stmt):
            continue
        # More lease returns run after this one on the normal path (another
        # call site, or this same site on the next loop iteration)...
        if not _reaches_after(cfg, index, return_indexes, avoid=set()):
            continue
        # ...and this call's exception edge can leave the function without
        # passing any lease return at all.
        for succ, kind in cfg.successors(index):
            if kind != EXCEPT:
                continue
            if succ in exits or _reaches(cfg, succ, exits, avoid=return_indexes):
                return (line, label)
    return None


class LeaseLifecycleRule(Rule):
    """Every budget reservation / pool grant reaches a matching release on all
    CFG paths out of the acquiring scope, including exception edges; lease
    returns in cleanup code are ``finally``-protected."""

    rule_id = "lease-lifecycle"

    def check(self, module: ModuleSource) -> Iterator[tuple[int, str]]:
        authority = module.matches(*MEMORY_AUTHORITY_SUFFIXES)
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cfg = build_cfg(fn)
            acquires = _find_acquires(cfg)
            for acquire in acquires:
                leak = _leak_path(cfg, acquire)
                if leak is not None:
                    kind, line = leak
                    where = (
                        f"leaks on the except-path: an exception at line {line} "
                        "exits the scope before any release"
                        if kind == "except"
                        else f"leaks on the path leaving the scope at line {line}"
                    )
                    yield (
                        acquire.lineno,
                        f"{fn.name} acquires via {acquire.label}() into "
                        f"{acquire.handle!r} but {where}; release on every "
                        "path (try/finally) so broker.used == "
                        "sum(resident_bytes) holds",
                    )
            if not acquires:
                skippable = _skippable_return(cfg)
                if skippable is not None:
                    line, label, raising = skippable
                    yield (
                        line,
                        f"{fn.name}'s lease return {label}() can be skipped "
                        f"when line {raising} raises; move it into a finally "
                        "block so revocation cleanup cannot leak the lease",
                    )
                sibling = _skippable_sibling_return(cfg)
                if sibling is not None:
                    line, label = sibling
                    yield (
                        line,
                        f"{fn.name} returns several leases (per-lane teardown "
                        f"shape); if {label}() at line {line} raises, the "
                        "remaining lanes' grants are never released — protect "
                        "the rest with try/finally so every lane's budget is "
                        "returned on every exit path",
                    )
        if not authority:
            yield from self._class_pairing(module)

    # -- check 3: borrowed/attribute-held handles, class-granularity presence ------

    def _class_pairing(self, module: ModuleSource) -> Iterator[tuple[int, str]]:
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            acquires: dict[str, tuple[int, str]] = {}
            grants: list[tuple[int, str]] = []
            release_tails: set[str] = set()
            has_grant_release = False
            for call in ast.walk(cls):
                if not isinstance(call, ast.Call) or not isinstance(
                    call.func, ast.Attribute
                ):
                    continue
                tail = _receiver_tail(call.func)
                if tail is None:
                    continue
                method = call.func.attr
                if method in ACQUIRE_METHODS:
                    acquires.setdefault(tail, (call.lineno, method))
                elif method in RELEASE_METHODS:
                    release_tails.add(tail)
                if method in GRANT_METHODS and _is_pool_receiver(tail):
                    grants.append((call.lineno, f"{tail}.{method}"))
                elif method in LEASE_RETURN_METHODS or method == "close":
                    has_grant_release = True
            for tail, (lineno, method) in sorted(
                acquires.items(), key=lambda kv: kv[1][0]
            ):
                if tail in release_tails:
                    continue
                yield (
                    lineno,
                    f"{cls.name} reserves via {tail}.{method}() but never "
                    f"releases on {tail!r} anywhere in the class; pair every "
                    "reservation with a release path",
                )
            if grants and not has_grant_release:
                lineno, label = grants[0]
                yield (
                    lineno,
                    f"{cls.name} takes a budget via {label}() but never revokes "
                    "or releases the lease; grants must be returned to the pool",
                )
