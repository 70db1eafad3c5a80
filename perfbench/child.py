"""The workload subprocess: set up, measure, verify, print one JSON line.

The harness starts this module fresh for every measurement
(``python -m perfbench.child``), so imports, system assembly and warm-up
are paid — and reported as ``setup_s`` — every time, and nothing leaks
from one workload into the next.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

from perfbench.spec import OUT, SIZING, metric_units, use_program_source


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True, choices=sorted(SIZING))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True,
                        help="timed ops (service_mixed: per client)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before the harness started us")
    args = parser.parse_args(argv)

    use_program_source()
    from perfbench.service import ServiceWorkload
    from perfbench.solve import SOLVE_WORKLOADS, SolveWorkload

    if args.workload in SOLVE_WORKLOADS:
        workload = SolveWorkload(args.workload, args.quick)
    else:
        workload = ServiceWorkload(args.seed, OUT / f"tmp-{args.workload}",
                                   args.quick)
    workload.setup()
    setup_s = time.time() - args.spawned_at
    try:
        if args.trace:
            m, measured = workload.layers(args.ops)
            layers = dict.fromkeys(metric_units("per_layer"), 0.0)
            layers.update(measured)
        else:
            m, _ = workload.measure(args.ops)
    finally:
        workload.close()
    out = dataclasses.asdict(m)
    out.update(workload=args.workload, seed=args.seed, setup_s=setup_s)
    if args.trace:
        # ``measured``: the names this workload measured itself; the
        # rest read 0 (the workload does not exercise that layer).
        out.update(layers=layers, measured=sorted(measured))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
