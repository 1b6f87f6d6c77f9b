"""Command line: one workload (the driver's contract), the full set, or compare.

``python3 -m perflab --workload NAME --seed N --seconds S --trace 0|1`` runs
one workload in this process and prints, as the last line of standard
output, one JSON object with exactly ``correct``, ``attempted``, ``failed``
and ``metrics``.  Without ``--workload`` the five workloads run one after
another, each pass in its own fresh child interpreter, and the set is
written to ``perflab/out/latest.json``.  ``compare`` reads such sets back.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m perflab", description=__doc__)
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=42, help="data seed (default 42)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring window per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0 = end to end, 1 = per layer")
    parser.add_argument("--ops", type=int, help="exact op count (local use; not recorded)")
    parser.add_argument("--scale-factor", type=float, default=1.0, help="local use; not recorded")
    parser.add_argument("--sets", type=int, default=1, help="full sets to measure (no --workload)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        from perflab import compare

        return compare.main(argv[1:])
    args = parse(argv)
    if importlib.util.find_spec("repro") is None:
        print("perflab: the engine (src/repro) is not importable from here", file=sys.stderr)
        return 2
    from perflab import fullset, runner
    from perflab.workloads import WORKLOAD_CLASSES

    if args.workload is None:
        return fullset.main(args)

    if args.workload not in WORKLOAD_CLASSES:
        print(f"perflab: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    report = runner.run(
        runner.RunConfig(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            ops=args.ops,
            scale_factor=args.scale_factor,
        )
    )
    fullset.print_run(report)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
