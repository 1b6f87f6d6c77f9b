"""The lease-lifecycle lint rule and the static plan check.

* :mod:`repro.analysis.linter` — an AST lint framework that walks the source
  tree and reports violations as ``file:line rule-id message`` findings, with
  ``# repro: allow[rule-id]`` pragmas for the deliberate exceptions.  Its one
  rule, ``lease-lifecycle`` (:mod:`repro.analysis.rules.leases`), walks each
  function's control-flow graph (:mod:`repro.analysis.dataflow.cfg`, with
  exception, ``finally`` and ``with`` edges) and reports a grant that can
  leave its scope unreleased, or a lease return a raise can skip.  No runtime
  test can see that leak: it needs the release before it to raise.
* :mod:`repro.analysis.plan_check` — the static check of physical operator
  trees, always run before execution: ``check_tree`` in the builder and at
  ``QueryServer.submit``, ``check_plan`` at ``QueryServer.submit_plan``.
  It is the one module here the engine imports, which is why this package
  re-exports nothing: loading the check must not load the linter.

The engine's other disciplines — probes that change nothing, pool accounting,
virtual time only, no row boxing on hot paths — are checked at runtime by the
tests (``tests/invariants.py`` among them); ``docs/engine.md``'s "Static
analysis & invariants" section lists which test catches which mutation.

Run the linter from the repo root with ``python -m repro.analysis src/repro``
(exit status 0 = clean); the same pass runs as a tier-1 test and a CI job.
"""
