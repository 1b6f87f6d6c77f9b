"""Engine invariant analysis: AST lint rules and the static plan check.

The engine's correctness rests on conventions that no type checker enforces:
all time flows through the virtual clocks, every memory reservation is paired
with a release so ``broker.used == sum(resident_bytes)`` holds, hot paths
never box :class:`~repro.storage.tuples.Row` objects, and a plan's joins only
consume bindings their inputs actually produce.  This package turns those
conventions into checked invariants:

* :mod:`repro.analysis.linter` — an AST lint framework that walks the source
  tree and reports violations as ``file:line rule-id message`` findings, with
  ``# repro: allow[rule-id]`` pragmas for the deliberate exceptions.  The
  project rules live in :mod:`repro.analysis.rules`.
* :mod:`repro.analysis.dataflow` — the shared flow-analysis core: per-function
  CFGs (with exception/finally/``with`` edges), a project-wide call graph
  resolved over the import structure, bottom-up effect summaries (cached
  per-module by content hash), and a forward taint engine.  The flow-aware
  rules (``clock-taint``, ``lease-lifecycle``, ``step-effect``) are built
  on it via the :class:`~repro.analysis.linter.ProjectRule` interface.
* :mod:`repro.analysis.plan_check` — the static check of physical operator
  trees, always run before execution: ``check_tree`` in the builder and at
  ``QueryServer.submit``, ``check_plan`` at ``QueryServer.submit_plan``.
  It is the one module here the engine imports, which is why this package
  re-exports nothing: loading the check must not load the analyzer.

Run the linter from the repo root with ``python -m repro.analysis src/repro``
(exit status 0 = clean); the same pass runs as a tier-1 test and a CI job.
"""
