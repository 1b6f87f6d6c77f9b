"""The figure harness: simulated deployments, one-tree runs and reporting.

The paper's experiments themselves live in :mod:`repro.bench.figures`.
"""

from repro.bench.harness import (
    Deployment,
    RunResult,
    build_deployment,
    run_operator_tree,
)
from repro.bench.reporting import (
    SeriesPoint,
    ascii_chart,
    format_table,
    speedup,
    timeline_series,
)

__all__ = [
    "Deployment",
    "RunResult",
    "SeriesPoint",
    "ascii_chart",
    "build_deployment",
    "format_table",
    "run_operator_tree",
    "speedup",
    "timeline_series",
]
