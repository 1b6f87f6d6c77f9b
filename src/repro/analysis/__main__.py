"""Command-line entry point: ``python -m repro.analysis paths...``.

Lints the given files/directories with the ``lease-lifecycle`` rule and
prints findings as ``path:line rule-id message``, one per line, sorted.
``--format json`` emits a machine-readable report; ``--format github``
emits workflow-annotation lines so CI findings annotate the PR diff.
``--output FILE`` writes the JSON report to a file regardless of the
display format (the CI artifact).
Exit status: 0 when clean, 1 when any finding (or unparsable file) was
reported, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.linter import LintReport, run_lint


def report_document(report: LintReport) -> dict:
    """The JSON document for ``--format json`` and ``--output``."""
    return {
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "rule": finding.rule_id,
                "message": finding.message,
            }
            for finding in sorted(report.findings)
        ],
        "parse_errors": [
            {"path": path, "message": message} for path, message in report.parse_errors
        ],
        "summary": {
            "findings": len(report.findings),
            "suppressed": report.suppressed,
            "files_checked": report.files_checked,
            "clean": report.clean,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Lint pass enforcing the engine's lease lifecycle: every "
        "grant reaches a release on every path, exceptions included.",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        type=Path,
        help="files or directories to lint",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="findings as plain text (default), one JSON document, or GitHub "
        "workflow ::error annotations",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        type=Path,
        help="also write the JSON report to FILE (independent of --format)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the summary line; print findings only",
    )
    options = parser.parse_args(argv)

    paths = options.paths
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2

    report = run_lint(paths)
    document = report_document(report)
    if options.output is not None:
        options.output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")

    if options.format == "json":
        print(json.dumps(document, indent=2))
    elif options.format == "github":
        for finding in sorted(report.findings):
            print(
                f"::error file={finding.path},line={finding.line},"
                f"title={finding.rule_id}::{finding.message}"
            )
        for path, message in report.parse_errors:
            print(f"::error file={path},line=1,title=parse-error::{message}")
    else:
        for finding in sorted(report.findings):
            print(finding.render())
        for path, message in report.parse_errors:
            print(f"{path}:0 parse-error {message}")
    if not options.quiet and options.format != "json":
        summary = (
            f"{len(report.findings)} finding(s), "
            f"{report.suppressed} suppressed, "
            f"{report.files_checked} file(s) checked"
        )
        print(summary, file=sys.stderr)
    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
