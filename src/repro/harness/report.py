"""Table I and Figs. 3-8, each rendered once: the one writer of ``results/``.

:data:`FIGURES` maps a name to a function that runs that figure once,
with its one fixed set of parameters (the ``run_*`` defaults), and
returns ``{filename: text}``; its first file is the one ``repro figure
NAME`` prints.  :func:`write_report` (``repro report``, ``make report``)
writes every figure's files plus ``trace_summary.txt``, and nothing
else: the ``ablation_*.csv`` files are their ``benchmarks/test_ablation_*``
benches', the campaign ledgers their ``repro <campaign>``'s, the span
dumps ``repro trace``'s (EXPERIMENTS.md lists who writes what).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.harness.breakdown import run_breakdown
from repro.harness.common import FigureSeries
from repro.harness.depth_sweep import DEPTHS, run_depth_sweep
from repro.harness.fig3 import run_fig3
from repro.harness.fig4 import run_fig4
from repro.harness.fig5 import run_fig5
from repro.harness.fig6 import run_fig6
from repro.harness.fig7 import run_fig7
from repro.harness.fig8 import run_fig8
from repro.harness.future_solvers import run_future_solvers
from repro.harness.table1 import run_table1
from repro.io.tables import format_table
from repro.observe import metrics_table, summary_table, traced_crooked_pipe
from repro.perfmodel.machines import MACHINES, TITAN
from repro.perfmodel.profiles import SolverConfig
from repro.solvers import SolverOptions


def _series(stem: str, fig: FigureSeries, tail: str = "",
            value_fmt: str = "{:.2f}") -> dict[str, str]:
    return {f"{stem}.txt": fig.to_text(value_fmt) + tail,
            f"{stem}.csv": fig.to_csv()}


def _table1() -> dict[str, str]:
    rows = run_table1()
    headers = list(rows[0])
    return {"table1.txt": format_table(
        headers, [[r[h] for h in headers] for r in rows])}


def _fig3() -> dict[str, str]:
    result = run_fig3()
    T = result.temperature
    return {
        "fig3.txt": result.render()
        + f"\nmin={T.min():.4g} max={T.max():.4g} mean={T.mean():.4g}",
        "fig3_temperature.csv": "\n".join(
            ",".join(f"{v:.10e}" for v in row) for row in T),
    }


def _fig4() -> dict[str, str]:
    result = run_fig4()
    return {"fig4.csv": "mesh_n,mean_temperature\n" + "\n".join(
        f"{n},{t:.8f}"
        for n, t in zip(result.mesh_sizes, result.mean_temperatures))}


def _fig6() -> dict[str, str]:
    fig = run_fig6()
    ratio = run_fig5().value("PPCG - 16", 2048) / fig.value("PPCG - 16", 2048)
    return _series("fig6", fig, f"\nTitan/PizDaint at 2048 nodes: "
                                f"{ratio:.2f}x (paper 1.47x)")


def _depth_sweep() -> dict[str, str]:
    lines = []
    for name, rpn in (("Titan", 1), ("Piz Daint", 1), ("Spruce", 20)):
        sweep = run_depth_sweep(MACHINES[name], ranks_per_node=rpn)
        lines.append(f"== {name} (rpn={rpn}): best PPCG halo depth ==")
        for i, (nodes, best) in enumerate(zip(sweep.node_counts,
                                              sweep.best_depths())):
            row = "  ".join(f"d{d}={sweep.seconds[d][i]:.2f}s" for d in DEPTHS)
            lines.append(f"  {nodes:5d} nodes: best depth {best:2d}   {row}")
    return {"depth_sweep.txt": "\n".join(lines)}


def _breakdown() -> dict[str, str]:
    texts = []
    for config in (SolverConfig("cg"),
                   SolverConfig("ppcg", inner_steps=10, halo_depth=16)):
        result = run_breakdown(TITAN, config)
        totals = result.totals()
        knee = result.node_counts[totals.index(min(totals))]
        texts += [result.to_text(), f"knee at {knee} nodes; dominant term "
                                    f"there: {result.dominant(knee)}\n"]
    return {"breakdown.txt": "\n".join(texts)}


def _future_solvers() -> dict[str, str]:
    fig = run_future_solvers()
    best = "\n".join(f"{label:12s}: best {secs:7.2f} s at {nodes} nodes"
                     for label in fig.series
                     for nodes, secs in [fig.best(label)])
    return _series("future_solvers", fig, "\n\n" + best)


#: name -> the function that runs it once and returns ``{filename: text}``
FIGURES: dict[str, Callable[[], dict[str, str]]] = {
    "table1": _table1,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": lambda: _series("fig5", run_fig5()),
    "fig6": _fig6,
    "fig7": lambda: _series("fig7", run_fig7()),
    "fig8": lambda: _series("fig8", run_fig8(), value_fmt="{:.3f}"),
    "depth-sweep": _depth_sweep,
    "breakdown": _breakdown,
    "future-solvers": _future_solvers,
}


def trace_summary() -> str:
    """Where the time of one traced CPPCG crooked-pipe solve goes, as
    text tables (docs/observability.md); its time columns are wall clock."""
    run = traced_crooked_pipe(24, SolverOptions(
        solver="ppcg", eps=1e-10, ppcg_inner_steps=4, eigen_warmup_iters=10))
    return ("== traced cppcg solve: crooked pipe n=24 ==\n"
            + run.result.summary() + "\n\n"
            + summary_table(run.spans) + "\n\n"
            + metrics_table(run.metrics.snapshot()))


def write_report(out_dir: Path) -> list[Path]:
    """Write every figure's files and ``trace_summary.txt`` to ``out_dir``;
    returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {name: text for render in FIGURES.values()
             for name, text in render().items()}
    files["trace_summary.txt"] = trace_summary()
    paths = []
    for name, text in files.items():
        path = out_dir / name
        path.write_text(text + "\n", encoding="utf-8")
        paths.append(path)
    return paths
