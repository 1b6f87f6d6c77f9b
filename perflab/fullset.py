"""The full set: five workloads, two passes each, every pass in a fresh child.

``python3 -m perflab`` with no ``--workload`` lands here.  Each pass is the
same command the driver runs (``--workload W --trace 0|1``) in its own child
interpreter, one after another — nothing runs beside a measurement.  The set
is printed metric by metric and written to ``perflab/out/latest.json``;
``--sets N`` measures N sets into the one file (a committed baseline is such
a file with two sets).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

from perflab import OUT_DIR, REPO_ROOT
from perflab.registry import END_TO_END_BY_NAME, PER_LAYER_BY_NAME, WORKLOADS


def print_run(report: dict) -> None:
    """Every metric of one pass by name, with its unit and sample count."""
    result = report["result"]
    kinds = {**END_TO_END_BY_NAME, **PER_LAYER_BY_NAME}
    print(
        f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
        f"ops={result['attempted']} failed={result['failed']} "
        f"fail_share={result['failed'] / result['attempted']:.4f}"
    )
    for name, metric in result["metrics"].items():
        if name == "setup_s":
            samples = len(report["setups_s"])
        elif name == "peak_rss_mb" or getattr(kinds[name], "kind", "") == "micro":
            samples = 1
        else:
            samples = report["samples"]
        print(
            f"{report['workload']:<15} {name:<50} {metric['value']:>16.6g} "
            f"{metric['unit']:<10} n={samples}"
        )
    for claim in report.get("claims", ()):
        print(f"CLAIM VIOLATED {report['workload']}: {claim}")


def run_child(workload: str, trace: int, args) -> dict:
    """One pass in a fresh interpreter; returns its detail report."""
    command = [
        sys.executable, "-m", "perflab",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale-factor", str(args.scale_factor),
    ]
    if args.ops is not None:
        command += ["--ops", str(args.ops)]
    child = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=False)
    detail = OUT_DIR / f"run-{workload}-trace{trace}.json"
    lines = child.stdout.strip().splitlines()
    if not lines or not detail.exists():
        raise RuntimeError(f"{' '.join(command)} exited {child.returncode} without a result")
    report = json.loads(detail.read_text())
    if report["result"] != json.loads(lines[-1]):
        raise RuntimeError(f"{detail} does not match the result line of {' '.join(command)}")
    return report


def measure_set(args) -> tuple[dict, bool]:
    """One full set; returns ``(set, everything passed)``."""
    workloads = {}
    passed = True
    for info in WORKLOADS:
        end_to_end = run_child(info.name, 0, args)
        print_run(end_to_end)
        per_layer = run_child(info.name, 1, args)
        print_run(per_layer)
        for report in (end_to_end, per_layer):
            passed = passed and report["result"]["correct"] and not report.get("claims")
        workloads[info.name] = {
            "end_to_end": {k: v["value"] for k, v in end_to_end["result"]["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in per_layer["result"]["metrics"].items()},
            "samples": end_to_end["samples"],
            "attempted": end_to_end["result"]["attempted"] + per_layer["result"]["attempted"],
            "failed": end_to_end["result"]["failed"] + per_layer["result"]["failed"],
            "calib_s": end_to_end["harness"]["harness.calib_s"],
            "claims": per_layer["claims"],
        }
    return {"workloads": workloads}, passed


def main(args) -> int:
    started = time.perf_counter()
    sets = []
    passed = True
    for _ in range(args.sets):
        measured, ok = measure_set(args)
        sets.append(measured)
        passed = passed and ok
    document = {
        "meta": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "seed": args.seed,
            "seconds": args.seconds,
            "ops": args.ops,
            "scale_factor": args.scale_factor,
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "sets": sets,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "latest.json").write_text(json.dumps(document, indent=1) + "\n")
    failed = sum(w["failed"] for s in sets for w in s["workloads"].values())
    print(
        f"# {len(sets)} set(s) in {time.perf_counter() - started:.0f} s -> "
        f"{OUT_DIR / 'latest.json'}; failed ops: {failed}; "
        f"{'all checks passed' if passed else 'CHECKS FAILED'}"
    )
    return 0 if passed else 1
