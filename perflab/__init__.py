"""perflab: the repository's one benchmark.

Five workloads, six bounded end-to-end metrics (plus the failure count the
driver contract carries as ``failed``/``attempted``) and 77 per-layer
metrics, all declared in :mod:`perflab.registry` and mirrored in
``BENCHMARK.json``.  Run it from the repository root::

    python3 -m perflab                       # all five workloads, both passes
    python3 -m perflab --workload fig3a_dpj --seed 7 --seconds 10 --trace 0
    python3 -m perflab compare A.json B.json

The engine lives in ``src/repro``; the benchmark must run from a bare
checkout with no ``PYTHONPATH``, so the package puts ``src`` on the import
path itself when ``repro`` is not already importable.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Everything a run leaves behind (detail reports, traces, ``latest.json``).
OUT_DIR = REPO_ROOT / "perflab" / "out"

if importlib.util.find_spec("repro") is None and (REPO_ROOT / "src" / "repro").is_dir():
    sys.path.insert(0, str(REPO_ROOT / "src"))
