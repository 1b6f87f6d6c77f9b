"""The lease-lifecycle analyzer: its rule, pragmas, fixtures, and the real tree.

Three layers of coverage:

* the shipped source tree lints clean (this is the tier-1 gate the CI
  ``analysis`` job also enforces);
* the rule fires on exactly its seeded violation in
  ``tests/analysis_fixtures/`` — a leak only on the exception edge, a lane
  teardown one raise can cut short — and is silenced by the ``# repro:
  allow[rule-id]`` pragma on the suppressed twin;
* the ``python -m repro.analysis`` CLI reports findings, formats, and
  exit codes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.linter import ModuleSource, lint_module, run_lint
from repro.analysis.rules import ALL_RULES
from repro.analysis.rules.leases import LeaseLifecycleRule

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SOURCE_TREE = Path(__file__).parents[1] / "src" / "repro"

#: rule id -> its seeded-violation fixture.  Every registered rule must have
#: one; the completeness test below enforces that.
FIXTURE_FOR_RULE = {"lease-lifecycle": "lease_lifecycle_violation.py"}
LEASE_FIXTURE = FIXTURES / FIXTURE_FOR_RULE["lease-lifecycle"]
LEASES = LeaseLifecycleRule()


def violation_line(fixture: Path) -> int:
    """Line number carrying the fixture's single ``VIOLATION`` marker."""
    lines = fixture.read_text(encoding="utf-8").splitlines()
    marked = [i for i, line in enumerate(lines, start=1) if "VIOLATION" in line]
    assert len(marked) == 1, f"{fixture.name} must carry exactly one VIOLATION marker"
    return marked[0]


class TestRealTree:
    def test_shipped_tree_lints_clean(self):
        report = run_lint([SOURCE_TREE])
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.clean, f"invariant violations in src/repro:\n{rendered}"
        assert report.files_checked > 50  # the whole package was actually walked

    def test_boundary_pragmas_are_exercised(self):
        # The one pragma: the broker lease in MemoryPool.grant, on a path
        # that cannot occur.  If it goes unseen, the pragma (or the rule)
        # went dead.
        report = run_lint([SOURCE_TREE])
        assert report.suppressed == 1


class TestRuleFixtures:
    def test_every_rule_has_a_fixture(self):
        assert {rule.rule_id for rule in ALL_RULES} == set(FIXTURE_FOR_RULE)

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_FOR_RULE))
    def test_rule_fires_exactly_on_seeded_violation(self, rule_id):
        fixture = FIXTURES / FIXTURE_FOR_RULE[rule_id]
        report = run_lint([fixture])
        assert len(report.findings) == 1, [f.render() for f in report.findings]
        finding = report.findings[0]
        assert finding.rule_id == rule_id
        assert finding.line == violation_line(fixture)
        assert report.suppressed == 1  # the pragma'd twin was seen and silenced

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_FOR_RULE))
    def test_no_cross_talk_between_rules(self, rule_id):
        # The default rule set over a fixture reports only that fixture's
        # rule: each fixture seeds exactly one kind of violation.
        fixture = FIXTURES / FIXTURE_FOR_RULE[rule_id]
        report = run_lint([fixture])
        assert {f.rule_id for f in report.findings} == {rule_id}

    def test_finding_render_format(self):
        report = run_lint([LEASE_FIXTURE])
        line = violation_line(LEASE_FIXTURE)
        assert report.findings[0].render().startswith(f"{LEASE_FIXTURE}:{line} lease-lifecycle ")


class TestInterprocedural:
    """The fixture seeds a flow-aware case; assert the *reasoning* surfaced."""

    def test_lease_leak_is_the_exception_path(self):
        # The normal path releases; only the except edge out of load() leaks.
        (finding,) = run_lint([LEASE_FIXTURE]).findings
        assert "except-path" in finding.message
        assert "exception at line 14" in finding.message


class TestLeaseLifecycleInline:
    """Path-sensitivity corners exercised on inline modules."""

    def test_try_finally_release_is_clean(self):
        module = ModuleSource(
            "inline.py",
            "class Build:\n"
            "    def build(self, pool, source):\n"
            "        handle = pool.grant('op', 64)\n"
            "        try:\n"
            "            self.rows = source.load()\n"
            "        finally:\n"
            "            handle.close()\n",
        )
        findings, _ = lint_module(module, [LEASES])
        assert not findings

    def test_escaped_handle_is_not_a_leak(self):
        # Storing the handle on self hands ownership to close(); the local
        # path check must not demand a same-scope release.
        module = ModuleSource(
            "inline.py",
            "class Build:\n"
            "    def build(self, pool):\n"
            "        self.handle = 1\n"
            "        handle = pool.grant('op', 64)\n"
            "        self.handle = handle\n"
            "    def close(self):\n"
            "        self.handle.close()\n",
        )
        findings, _ = lint_module(module, [LEASES])
        assert not findings

    def test_normal_path_leak_is_reported(self):
        # The class *does* release somewhere (presence check passes); the
        # local handle still falls off the end of build() unreleased.
        module = ModuleSource(
            "inline.py",
            "class Build:\n"
            "    def build(self, pool):\n"
            "        handle = pool.grant('op', 64)\n"
            "        self.size = 64\n"
            "    def teardown(self, pool):\n"
            "        pool.revoke('op')\n",
        )
        findings, _ = lint_module(module, [LEASES])
        assert len(findings) == 1 and findings[0].line == 3

    def test_class_without_any_release_is_reported(self):
        module = ModuleSource(
            "inline.py",
            "class Build:\n"
            "    def build(self, pool):\n"
            "        self.handle = pool.grant('op', 64)\n",
        )
        findings, _ = lint_module(module, [LEASES])
        assert len(findings) == 1
        assert "never revokes" in findings[0].message


class TestLaneLeaseTeardown:
    """Check 2b: per-lane budget handles across exchange lane teardown."""

    FIXTURE = FIXTURES / "lane_lease_violation.py"

    def test_skipped_sibling_return_is_reported_once(self):
        # Two sequential revokes, no finally: lane0's revoke raising leaks
        # lane1's grant.  The pragma'd twin is silenced; the finally-protected
        # shape and the append-escaping grant loop in the same file are clean.
        report = run_lint([self.FIXTURE])
        (finding,) = report.findings
        assert finding.line == violation_line(self.FIXTURE)
        assert "per-lane teardown" in finding.message
        assert report.suppressed == 1

    def test_fixture_seeds_only_lease_lifecycle(self):
        report = run_lint([self.FIXTURE])
        assert {f.rule_id for f in report.findings} == {"lease-lifecycle"}

    def test_loop_teardown_is_flagged(self):
        # One revoke site, but a loop makes later iterations pending: a raise
        # mid-loop leaks every lane not yet revoked.
        module = ModuleSource(
            "inline.py",
            "class T:\n"
            "    def close(self, pool, lane_names):\n"
            "        for name in lane_names:\n"
            "            pool.revoke(name)\n",
        )
        findings, _ = lint_module(module, [LEASES])
        assert len(findings) == 1 and findings[0].line == 4

    def test_per_lane_grant_loop_with_append_escape_is_clean(self):
        # Collecting handles into a self-owned container transfers ownership;
        # the setup loop must not read as N leaks.
        module = ModuleSource(
            "inline.py",
            "class T:\n"
            "    def setup(self, pool, lanes):\n"
            "        self.budgets = []\n"
            "        for index in range(lanes):\n"
            "            budget = pool.grant(f'join.lane{index}', 64)\n"
            "            self.budgets.append(budget)\n"
            "    def close(self, pool):\n"
            "        try:\n"
            "            pool.revoke('join.lane0')\n"
            "        finally:\n"
            "            pool.revoke('join.lane1')\n",
        )
        findings, _ = lint_module(module, [LEASES])
        assert not findings


class TestPragmas:
    def test_pragma_on_previous_line(self):
        module = ModuleSource(
            "inline.py",
            "class C:\n"
            "    def f(self, pool):\n"
            "        # repro: allow[lease-lifecycle] next line is sanctioned\n"
            "        handle = pool.grant('op', 64)\n"
            "    def g(self, pool):\n"
            "        pool.revoke('op')\n",
        )
        findings, suppressed = lint_module(module, [LEASES])
        assert not findings and suppressed == 1

    def test_wildcard_pragma(self):
        module = ModuleSource(
            "inline.py",
            "class C:\n"
            "    def f(self, pool):\n"
            "        handle = pool.grant('op', 64)  # repro: allow[*]\n"
            "    def g(self, pool):\n"
            "        pool.revoke('op')\n",
        )
        findings, suppressed = lint_module(module, [LEASES])
        assert not findings and suppressed == 1

    def test_pragma_for_other_rule_does_not_suppress(self):
        module = ModuleSource(
            "inline.py",
            "class C:\n"
            "    def f(self, pool):\n"
            "        handle = pool.grant('op', 64)  # repro: allow[other-rule]\n"
            "    def g(self, pool):\n"
            "        pool.revoke('op')\n",
        )
        findings, _ = lint_module(module, [LEASES])
        assert len(findings) == 1

class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert analysis_main([str(SOURCE_TREE), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one_and_print(self, capsys):
        assert analysis_main([str(LEASE_FIXTURE)]) == 1
        out = capsys.readouterr().out
        assert f"{LEASE_FIXTURE}:" in out and "lease-lifecycle" in out

    def test_json_format(self, capsys):
        fixture = LEASE_FIXTURE
        assert analysis_main([str(fixture), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["findings"] == 1
        assert document["summary"]["clean"] is False
        (entry,) = document["findings"]
        assert entry["rule"] == "lease-lifecycle"
        assert entry["line"] == violation_line(fixture)

    def test_github_format(self, capsys):
        fixture = LEASE_FIXTURE
        assert analysis_main([str(fixture), "--format", "github", "--quiet"]) == 1
        out = capsys.readouterr().out
        line = violation_line(fixture)
        assert out.startswith(f"::error file={fixture},line={line},title=lease-lifecycle::")

    def test_output_writes_json_report(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert analysis_main([str(LEASE_FIXTURE), "--output", str(target), "--quiet"]) == 1
        capsys.readouterr()
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["summary"]["findings"] == 1
        assert document["findings"][0]["rule"] == "lease-lifecycle"

    def test_missing_path_is_usage_error(self, capsys):
        assert analysis_main(["definitely/not/here.py"]) == 2
        assert "no such path" in capsys.readouterr().err
