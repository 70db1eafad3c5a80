"""perfbench — the repository's benchmark.

Drives the program only through its public functions and times it from
outside: four workloads, end-to-end metrics with tracing off, and a
separate traced run for the per-layer numbers.  ``BENCHMARK.json`` at the
repository root is the contract (names, units, bounds); ``README.md`` in
this directory says why each workload and metric exists.

Run ``python3 -m perfbench --help`` from the repository root.
"""
