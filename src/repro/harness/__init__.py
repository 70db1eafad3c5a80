"""Experiment harness: one entry point per paper table and figure.

Each ``figN`` module exposes a ``run_figN(...)`` function returning a
structured result (series data plus provenance) and a ``main()`` that
prints the paper-style table; the corresponding ``benchmarks/test_figN_*``
regenerates and shape-checks it.  See DESIGN.md §4 for the index.

The six campaign modules (``chaos_sweep``, ``soak``, ``service_sweep``,
``service_soak``, ``resilience_sweep``, ``stability_sweep``) hold each
campaign's ``render`` and, but for the chaos campaign and the soak (whose
``run_campaign``/``run_soak`` live in :mod:`repro.resilience.chaos`), its
``run_*`` function.  They have no command line of their own: ``repro
<campaign>`` (:mod:`repro.cli.main`) declares the flags, runs the
campaign, prints the rendered result and writes the ledger.  They are
imported from their modules, not re-exported here.
"""

from repro.harness.common import (
    BENCH_MESH,
    BENCH_STEPS,
    FigureSeries,
    gpu_node_counts,
    iteration_model_for,
    spruce_node_counts,
)
from repro.harness.breakdown import run_breakdown
from repro.harness.depth_sweep import run_depth_sweep
from repro.harness.future_solvers import run_future_solvers
from repro.harness.table1 import run_table1
from repro.harness.fig3 import run_fig3
from repro.harness.fig4 import run_fig4
from repro.harness.fig5 import run_fig5
from repro.harness.fig6 import run_fig6
from repro.harness.fig7 import run_fig7
from repro.harness.fig8 import run_fig8

__all__ = [
    "BENCH_MESH",
    "BENCH_STEPS",
    "FigureSeries",
    "gpu_node_counts",
    "spruce_node_counts",
    "iteration_model_for",
    "run_table1",
    "run_breakdown",
    "run_depth_sweep",
    "run_future_solvers",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
]
