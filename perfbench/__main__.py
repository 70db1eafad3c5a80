"""``python3 -m perfbench``: one command for every number.

    python3 -m perfbench                    every workload, tracing off
    python3 -m perfbench --trace            the separate traced run
    python3 -m perfbench --check            exit non-zero on any failed op
    python3 -m perfbench --repeat 2 --out perfbench/out/base
    python3 -m perfbench --compare perfbench/out/base/set_0.json \\
                                   perfbench/out/base/set_1.json
    python3 -m perfbench --workload cg_serial_512 --seed 7 --seconds 15 --trace 0

The last form is the driver's: one workload, and the last line of output
is one JSON object ``{correct, attempted, failed, metrics}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench.spec import (DEFAULT_SEED, OUT, benchmark_spec,
                            use_program_source, with_units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this workload only and end "
                        "with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="64² meshes and a few ops (the self-test's mode)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if any op failed verification")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="write K result sets")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result sets "
                        "(default perfbench/out/results)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files or directories")
    args = parser.parse_args(argv)

    if args.compare:
        from perfbench.compare import compare
        return 1 if compare(*args.compare) else 0

    use_program_source()
    from perfbench import harness
    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload:
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"one of {', '.join(names)}")
        run = harness.run_workload(args.workload, args.seed, seconds,
                                   trace=args.trace, quick=args.quick)
        harness.print_run(run)
        kind = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({"correct": run["failed"] == 0,
                          "attempted": run["attempted"],
                          "failed": run["failed"],
                          "metrics": with_units(run["values"], kind)}))
        return 1 if args.check and run["failed"] else 0

    out = args.out if args.out is not None else OUT / "results"
    out.mkdir(parents=True, exist_ok=True)
    failed = 0
    for k in range(args.repeat):
        result_set = harness.run_all(args.seed, seconds, trace=args.trace,
                                     quick=args.quick)
        path = out / f"set_{k}.json"
        path.write_text(json.dumps(result_set, indent=1, sort_keys=True))
        print(f"result set written to {path}")
        failed += sum(run["failed"] for run in result_set["runs"])
    return 1 if args.check and failed else 0


if __name__ == "__main__":
    sys.exit(main())
