"""``python3 -m perflab compare A.json B.json [A2.json B2.json ...]``

Files alternate parent, change, parent, change, ...; each holds one or more
sets (``latest.json`` or a committed baseline).  One row per (workload,
end-to-end metric): both medians, the ratio with its base, the benchmark's
bound, and a verdict —

* ``worse``: the change's median is worse than the parent's by more than the bound;
* ``unresolved``: the parent's own spread (quartile distance over its median)
  is wider than the bound, or — for real-time metrics — ``harness.calib_s``
  drifted more than :data:`CALIB_DRIFT` between the sides;
* ``better``: only with at least :data:`MIN_PAIRS` alternating pairs, when the
  change wins nine tenths of all pairs (ties count for neither) and the
  medians differ by more than the parent's quartile distance;
* ``ok`` otherwise.

Every ratio is printed with its base; a zero base prints ``n/a``, never a
clamped value.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from perflab.registry import END_TO_END, WORKLOADS

CALIB_DRIFT = 0.15
MIN_PAIRS = 10
WIN_SHARE = 0.9
REAL_TIME_UNITS = ("ku", "s")


def load_sets(path: str) -> list[dict]:
    document = json.loads(Path(path).read_text())
    sets = document.get("sets")
    if not sets:
        raise ValueError(f"{path}: no measured sets")
    return sets


def quartile_distance(values: list[float]) -> float | None:
    """Q3 - Q1 as ``statistics.quantiles`` gives them; ``None`` below two values."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def ratio_text(value: float, base: float) -> str:
    """``value / base`` with its base, or ``n/a`` on a zero base."""
    if base == 0:
        return "n/a"
    return f"{value / base:.4f}x of {base:.6g}"


def verdict(metric, parent: list[float], change: list[float], pairs, drift: float | None) -> str:
    """``ok`` / ``worse`` / ``unresolved`` / ``better`` for one row.

    ``pairs`` are per-file ``(parent, change)`` values for the win rule.
    """
    base, new = statistics.median(parent), statistics.median(change)
    sign = 1.0 if metric.better == "lower" else -1.0
    if base == 0:
        return "ok" if new == 0 else "n/a"
    spread = quartile_distance(parent)
    if spread is not None and spread / abs(base) > metric.bound:
        return "unresolved"
    if metric.unit in REAL_TIME_UNITS and drift is not None and drift > CALIB_DRIFT:
        return "unresolved"
    if sign * (new - base) / abs(base) > metric.bound:
        return "worse"
    if len(pairs) >= MIN_PAIRS:
        wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
        if wins >= WIN_SHARE * len(pairs) and abs(new - base) > (spread or 0.0):
            return "better"
    return "ok"


def _values(files_sets: list[list[dict]], workload: str, *keys: str) -> list[list[float]]:
    """Per file, per set: the value at ``keys`` under one workload."""
    out = []
    for sets in files_sets:
        values = []
        for measured in sets:
            value = measured["workloads"][workload]
            for key in keys:
                value = value[key]
            values.append(value)
        out.append(values)
    return out


def _flat(per_file: list[list[float]]) -> list[float]:
    return [value for values in per_file for value in values]


def compare(files: list[str]) -> list[dict]:
    """Rows for every (workload, end-to-end metric) plus a ``fail_share`` row each."""
    loaded = [load_sets(path) for path in files]
    parents, changes = loaded[0::2], loaded[1::2]
    rows = []
    for info in WORKLOADS:
        name = info.name
        calib_a = statistics.median(_flat(_values(parents, name, "calib_s")))
        calib_b = statistics.median(_flat(_values(changes, name, "calib_s")))
        drift = abs(calib_b / calib_a - 1.0) if calib_a else None
        for metric in END_TO_END:
            per_file_a = _values(parents, name, "end_to_end", metric.name)
            per_file_b = _values(changes, name, "end_to_end", metric.name)
            parent, change = _flat(per_file_a), _flat(per_file_b)
            pairs = [
                (statistics.median(a), statistics.median(b)) for a, b in zip(per_file_a, per_file_b)
            ]
            rows.append(
                {
                    "workload": name,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "parent": statistics.median(parent),
                    "change": statistics.median(change),
                    "bound": metric.bound,
                    "verdict": verdict(metric, parent, change, pairs, drift),
                }
            )
        shares = []
        for side in (parents, changes):
            attempted = sum(_flat(_values(side, name, "attempted")))
            failed = sum(_flat(_values(side, name, "failed")))
            shares.append(failed / attempted if attempted else 0.0)
        rows.append(
            {
                "workload": name, "metric": "fail_share", "unit": "ratio",
                "parent": shares[0], "change": shares[1], "bound": 0.0,
                "verdict": "worse" if shares[1] > shares[0] else "ok",
            }
        )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("compare: give parent and change files in alternating pairs", file=sys.stderr)
        return 2
    rows = compare(argv)
    print(
        f"{'workload':<15} {'metric':<16} {'unit':<10} {'parent':>12} {'change':>12} "
        f"{'change/parent':<28} {'bound':>6}  verdict   ({len(argv) // 2} pair(s))"
    )
    for row in rows:
        print(
            f"{row['workload']:<15} {row['metric']:<16} {row['unit']:<10} "
            f"{row['parent']:>12.6g} {row['change']:>12.6g} "
            f"{ratio_text(row['change'], row['parent']):<28} {row['bound']:>6.3f}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
