"""Rules ``bare-except`` and ``swallowed-except``: no silent failure paths.

Operators surface source failures as engine events *and* exceptions so rules
can react and the executor can stop a fragment deterministically; a handler
that silently eats a broad exception class breaks both channels at once (a
timeout that should trigger rescheduling just disappears).  ``bare-except``
flags every ``except:`` — it also catches ``KeyboardInterrupt`` and
``SystemExit``, which nothing in this engine should.  ``swallowed-except``
flags broad handlers (``except Exception``/``BaseException``/bare) whose
body is nothing but ``pass``/``continue``/``...`` — narrow handlers that
deliberately fall through (parser fallbacks, dict-column degradation) stay
legal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import ModuleSource, Rule

BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True
    if isinstance(node, ast.Name):
        return node.id in BROAD_EXCEPTION_NAMES
    if isinstance(node, ast.Tuple):
        return any(
            isinstance(elt, ast.Name) and elt.id in BROAD_EXCEPTION_NAMES
            for elt in node.elts
        )
    return False


def _swallows(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing at all with the error."""
    for statement in handler.body:
        if isinstance(statement, (ast.Pass, ast.Continue)):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True


class BareExceptRule(Rule):
    rule_id = "bare-except"
    summary = (
        "no `except:` — it swallows KeyboardInterrupt/SystemExit; name the "
        "exception classes the handler can actually recover from"
    )

    def check(self, module: ModuleSource) -> Iterator[tuple[int, str]]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield (
                    node.lineno,
                    "bare except: catches everything including KeyboardInterrupt; "
                    "name the recoverable exception classes",
                )


class SwallowedExceptRule(Rule):
    rule_id = "swallowed-except"
    summary = (
        "a broad handler (except Exception/BaseException) must not silently "
        "pass; record, re-raise, or surface the failure as an engine event"
    )

    def check(self, module: ModuleSource) -> Iterator[tuple[int, str]]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                continue  # already reported by bare-except
            if _is_broad(node) and _swallows(node):
                yield (
                    node.lineno,
                    "broad exception handler silently discards the error; "
                    "record it, re-raise, or emit an engine event so rules "
                    "and the executor can react",
                )
