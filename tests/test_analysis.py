"""The engine invariant analyzer: rules, pragmas, fixtures, and the real tree.

Three layers of coverage:

* the shipped source tree lints clean (this is the tier-1 gate the CI
  ``analysis`` job also enforces);
* every registered rule fires on exactly its seeded violation in
  ``tests/analysis_fixtures/`` and is silenced by the ``# repro:
  allow[rule-id]`` pragma on the suppressed twin — including the three
  flow-aware rules whose fixtures seed *interprocedural* violations
  (taint through a helper, a leak only on the exception edge, an effect
  two calls below a probe);
* the ``python -m repro.analysis`` CLI reports findings, formats, and
  exit codes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, run_lint
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.linter import ModuleSource, lint_module
from repro.analysis.rules import rule_by_id

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SOURCE_TREE = Path(__file__).parents[1] / "src" / "repro"

#: rule id -> its seeded-violation fixture.  Every registered rule must have
#: one; the completeness test below enforces that.
FIXTURE_FOR_RULE = {
    "clock-taint": "clock_taint_violation.py",
    "lease-lifecycle": "lease_lifecycle_violation.py",
    "step-effect": "step_effect_violation.py",
    "budget-mutation": "budget_mutation_violation.py",
    "hot-path-row": "hot_path_row_violation.py",
    "conftest-import": "conftest_import_violation.py",
    "bare-except": "bare_except_violation.py",
    "swallowed-except": "swallowed_except_violation.py",
}


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
        # The hot-path modules box rows only at pragma-declared boundaries;
        # if this drops to zero the pragmas (or the rules) went dead.
        report = run_lint([SOURCE_TREE])
        assert report.suppressed >= 10


class TestRuleFixtures:
    def test_every_rule_has_a_fixture(self):
        assert {rule.rule_id for rule in ALL_RULES} == set(FIXTURE_FOR_RULE)

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_FOR_RULE))
    def test_rule_fires_exactly_on_seeded_violation(self, rule_id):
        fixture = FIXTURES / FIXTURE_FOR_RULE[rule_id]
        report = run_lint([fixture], rules=(rule_by_id(rule_id),))
        assert len(report.findings) == 1, [f.render() for f in report.findings]
        finding = report.findings[0]
        assert finding.rule_id == rule_id
        assert finding.line == violation_line(fixture)
        assert report.suppressed == 1  # the pragma'd twin was seen and silenced

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_FOR_RULE))
    def test_no_cross_talk_between_rules(self, rule_id):
        # Running *all* rules over a fixture reports only that fixture's rule:
        # each fixture seeds exactly one kind of violation.
        fixture = FIXTURES / FIXTURE_FOR_RULE[rule_id]
        report = run_lint([fixture])
        assert {f.rule_id for f in report.findings} == {rule_id}

    def test_finding_render_format(self):
        fixture = FIXTURES / FIXTURE_FOR_RULE["bare-except"]
        report = run_lint([fixture])
        line = violation_line(fixture)
        assert report.findings[0].render().startswith(f"{fixture}:{line} bare-except ")


class TestInterprocedural:
    """The fixtures seed flow-aware cases; assert the *reasoning* surfaced."""

    def test_clock_taint_reports_sink_with_source_provenance(self):
        # The source (time.time() in a helper) and the sink (attribute store
        # in a caller) are in different functions; the finding lands on the
        # sink and names where the value came from.
        fixture = FIXTURES / FIXTURE_FOR_RULE["clock-taint"]
        report = run_lint([fixture], rules=(rule_by_id("clock-taint"),))
        (finding,) = report.findings
        assert "attribute store to .started_at_ms" in finding.message
        assert "time.time at" in finding.message  # provenance, not just "tainted"

    def test_lease_leak_is_the_exception_path(self):
        # The normal path releases; only the except edge out of load() leaks.
        fixture = FIXTURES / FIXTURE_FOR_RULE["lease-lifecycle"]
        report = run_lint([fixture], rules=(rule_by_id("lease-lifecycle"),))
        (finding,) = report.findings
        assert "except-path" in finding.message
        assert "exception at line 14" in finding.message

    def test_step_effect_reports_call_chain(self):
        # The clock mutation sits two calls below peek_arrival; the finding
        # reconstructs the chain from the probe to the effect.
        fixture = FIXTURES / FIXTURE_FOR_RULE["step-effect"]
        report = run_lint([fixture], rules=(rule_by_id("step-effect"),))
        (finding,) = report.findings
        assert "peek_arrival -> _peek_helper -> _advance_and_read" in finding.message
        assert "consume_cpu" in finding.message


class TestPrefetchDecisionProbe:
    """``prefetch_decision`` is a step-effect probe root like ``peek_arrival``."""

    FIXTURE = FIXTURES / "prefetch_decision_violation.py"

    def test_decision_hook_effect_is_reported_with_chain(self):
        # The source open sits two calls below prefetch_decision; the
        # bottom-up summaries reach it and the pragma'd twin is silenced.
        report = run_lint([self.FIXTURE], rules=(rule_by_id("step-effect"),))
        (finding,) = report.findings
        assert finding.line == violation_line(self.FIXTURE)
        assert "prefetch_decision -> _best_candidate -> _warm_and_score" in finding.message
        assert report.suppressed == 1

    def test_fixture_seeds_only_step_effect(self):
        report = run_lint([self.FIXTURE])
        assert {f.rule_id for f in report.findings} == {"step-effect"}

    def test_shipped_prefetcher_decision_is_effect_free(self):
        # The real hook (and everything it reaches: cache peeks, free-slot
        # counts, catalog lookups) must stay clean under the rule.
        prefetch = SOURCE_TREE / "server" / "prefetch.py"
        report = run_lint([SOURCE_TREE], rules=(rule_by_id("step-effect"),))
        assert not [f for f in report.findings if f.path == str(prefetch)]


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
        findings, _ = lint_module(module, [rule_by_id("lease-lifecycle")])
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
        findings, _ = lint_module(module, [rule_by_id("lease-lifecycle")])
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
        findings, _ = lint_module(module, [rule_by_id("lease-lifecycle")])
        assert len(findings) == 1 and findings[0].line == 3

    def test_class_without_any_release_is_reported(self):
        module = ModuleSource(
            "inline.py",
            "class Build:\n"
            "    def build(self, pool):\n"
            "        self.handle = pool.grant('op', 64)\n",
        )
        findings, _ = lint_module(module, [rule_by_id("lease-lifecycle")])
        assert len(findings) == 1
        assert "never revokes" in findings[0].message


class TestLaneLeaseTeardown:
    """Check 2b: per-lane budget handles across exchange lane teardown."""

    FIXTURE = FIXTURES / "lane_lease_violation.py"

    def test_skipped_sibling_return_is_reported_once(self):
        # Two sequential revokes, no finally: lane0's revoke raising leaks
        # lane1's grant.  The pragma'd twin is silenced; the finally-protected
        # shape and the append-escaping grant loop in the same file are clean.
        report = run_lint([self.FIXTURE], rules=(rule_by_id("lease-lifecycle"),))
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
        findings, _ = lint_module(module, [rule_by_id("lease-lifecycle")])
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
        findings, _ = lint_module(module, [rule_by_id("lease-lifecycle")])
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
        findings, suppressed = lint_module(module, [rule_by_id("lease-lifecycle")])
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
        findings, suppressed = lint_module(module, [rule_by_id("lease-lifecycle")])
        assert not findings and suppressed == 1

    def test_pragma_for_other_rule_does_not_suppress(self):
        module = ModuleSource(
            "inline.py",
            "class C:\n"
            "    def f(self, pool):\n"
            "        handle = pool.grant('op', 64)  # repro: allow[bare-except]\n"
            "    def g(self, pool):\n"
            "        pool.revoke('op')\n",
        )
        findings, _ = lint_module(module, [rule_by_id("lease-lifecycle")])
        assert len(findings) == 1

    def test_module_role_widens_rule_scope(self):
        body = "def f(Row, s, v):\n    return Row(s, v)\n"
        neutral = ModuleSource("somewhere.py", body)
        findings, _ = lint_module(neutral, [rule_by_id("hot-path-row")])
        assert not findings  # not a hot-path module, rule does not apply
        hot = ModuleSource("somewhere.py", "# repro: module-role[hot-path]\n" + body)
        findings, _ = lint_module(hot, [rule_by_id("hot-path-row")])
        assert len(findings) == 1

    def test_hot_path_modules_opt_in_via_role(self):
        # The storage hot paths carry the module-role marker; none of the
        # old path-based suffix list remains.
        for name in ("columns.py", "batch.py", "hash_table.py", "disk.py"):
            text = (SOURCE_TREE / "storage" / name).read_text(encoding="utf-8")
            assert "# repro: module-role[hot-path]" in text, name


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert analysis_main([str(SOURCE_TREE), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one_and_print(self, capsys):
        fixture = FIXTURES / FIXTURE_FOR_RULE["bare-except"]
        assert analysis_main([str(fixture)]) == 1
        out = capsys.readouterr().out
        assert f"{fixture}:" in out and "bare-except" in out

    def test_select_restricts_rules(self, capsys):
        fixture = FIXTURES / FIXTURE_FOR_RULE["bare-except"]
        assert analysis_main([str(fixture), "--select", "clock-taint", "--quiet"]) == 0
        assert analysis_main([str(fixture), "--select", "bare-except", "--quiet"]) == 1
        capsys.readouterr()

    def test_ignore_relaxes_rules(self, capsys):
        fixture = FIXTURES / FIXTURE_FOR_RULE["clock-taint"]
        assert analysis_main([str(fixture), "--quiet"]) == 1
        assert analysis_main([str(fixture), "--ignore", "clock-taint", "--quiet"]) == 0
        capsys.readouterr()

    def test_ignore_composes_with_select(self, capsys):
        fixture = FIXTURES / FIXTURE_FOR_RULE["clock-taint"]
        code = analysis_main(
            [str(fixture), "--select", "clock-taint", "--ignore", "clock-taint"]
        )
        assert code == 2
        assert "removed every rule" in capsys.readouterr().err

    def test_json_format(self, capsys):
        fixture = FIXTURES / FIXTURE_FOR_RULE["clock-taint"]
        assert analysis_main([str(fixture), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["findings"] == 1
        assert document["summary"]["clean"] is False
        (entry,) = document["findings"]
        assert entry["rule"] == "clock-taint"
        assert entry["line"] == violation_line(fixture)

    def test_github_format(self, capsys):
        fixture = FIXTURES / FIXTURE_FOR_RULE["step-effect"]
        assert analysis_main([str(fixture), "--format", "github", "--quiet"]) == 1
        out = capsys.readouterr().out
        line = violation_line(fixture)
        assert out.startswith(f"::error file={fixture},line={line},title=step-effect::")

    def test_output_writes_json_report(self, tmp_path, capsys):
        fixture = FIXTURES / FIXTURE_FOR_RULE["lease-lifecycle"]
        target = tmp_path / "report.json"
        assert analysis_main([str(fixture), "--output", str(target), "--quiet"]) == 1
        capsys.readouterr()
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["summary"]["findings"] == 1
        assert document["findings"][0]["rule"] == "lease-lifecycle"

    def test_unknown_rule_is_usage_error(self, capsys):
        assert analysis_main([str(FIXTURES), "--select", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert analysis_main(["definitely/not/here.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert f"{rule.rule_id}:" in out
