"""The AST lint framework: sources, pragmas, rules, and the lint driver.

Each rule is a named invariant check over one parsed module
(:class:`ModuleSource`).  Rules yield ``(line, message)`` pairs; the driver
turns them into :class:`Finding` records unless a pragma on the offending
line (or the line directly above it) allows the rule:

.. code-block:: python

    handle = pool.grant(name, nbytes)  # repro: allow[lease-lifecycle] released by the owner
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: ``# repro: allow[rule-id, ...]`` — suppress findings on this or the next line.
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\-\* ]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One reported violation: ``path:line rule-id message``."""

    path: str
    line: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line} {self.rule_id} {self.message}"


class ModuleSource:
    """One parsed module plus its pragma annotations."""

    def __init__(self, path: Path | str, text: str | None = None) -> None:
        self.path = Path(path)
        #: POSIX form used for suffix classification.
        self.posix = self.path.as_posix()
        if text is None:
            text = self.path.read_text(encoding="utf-8")
        self.tree = ast.parse(text, filename=str(self.path))
        self._allow: dict[int, set[str]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = PRAGMA_RE.search(line)
            if match:
                self._allow[lineno] = {
                    part.strip() for part in match.group(1).split(",") if part.strip()
                }

    def matches(self, *suffixes: str) -> bool:
        """True when the module path ends with any of ``suffixes``."""
        return any(self.posix.endswith(suffix) for suffix in suffixes)

    def allowed(self, rule_id: str, line: int) -> bool:
        """Whether a pragma on ``line`` or the line above allows ``rule_id``."""
        for candidate in (line, line - 1):
            ids = self._allow.get(candidate)
            if ids is not None and (rule_id in ids or "*" in ids):
                return True
        return False


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id` (the name used in findings and pragmas)
    and implement :meth:`check` to yield ``(line, message)`` pairs for one
    module.
    """

    rule_id: str = ""

    def check(self, module: ModuleSource) -> Iterator[tuple[int, str]]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.rule_id}>"


@dataclass
class LintReport:
    """Outcome of one lint run over a set of files."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    #: Files that could not be parsed, as (path, error message).
    parse_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors


def iter_python_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    """Yield the Python files under ``paths`` (files or directories), sorted."""
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts and not p.name.startswith(".")
            )
        else:
            yield path


def lint_module(module: ModuleSource, rules: Iterable[Rule]) -> tuple[list[Finding], int]:
    """Run ``rules`` over one module; returns (findings, suppressed count)."""
    findings: list[Finding] = []
    suppressed = 0
    for rule in rules:
        for line, message in rule.check(module):
            if module.allowed(rule.rule_id, line):
                suppressed += 1
                continue
            findings.append(Finding(str(module.path), line, rule.rule_id, message))
    return findings, suppressed


def run_lint(
    paths: Sequence[Path | str],
    rules: Iterable[Rule] | None = None,
) -> LintReport:
    """Lint every Python file under ``paths`` with ``rules`` (default: all)."""
    if rules is None:
        from repro.analysis.rules import ALL_RULES

        rules = ALL_RULES
    rules = list(rules)
    report = LintReport()
    for path in iter_python_files(paths):
        try:
            module = ModuleSource(path)
        except (SyntaxError, UnicodeDecodeError) as exc:
            report.parse_errors.append((str(path), str(exc)))
            continue
        report.files_checked += 1
        findings, suppressed = lint_module(module, rules)
        report.findings.extend(findings)
        report.suppressed += suppressed
    report.findings.sort()
    return report
