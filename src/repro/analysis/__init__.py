"""The static plan check (:mod:`repro.analysis.plan_check`).

The check of physical operator trees always runs before execution:
``check_tree`` in the builder and at ``QueryServer.submit``, ``check_plan``
at ``QueryServer.submit_plan``.  It lives under this name because the
tracer in ``perflab`` wraps its two entry points by this import path.

The engine's runtime disciplines — probes that change nothing, pool
accounting, leases returned on every close path, virtual time only, no row
boxing on hot paths — are checked by the tests (``tests/invariants.py``
among them); ``docs/engine.md``'s "Static analysis & invariants" section
lists which test catches which mutation.
"""
