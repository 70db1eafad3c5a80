"""Write every table and figure to a results directory."""

from __future__ import annotations

from pathlib import Path

from repro.harness import fig3, fig4, fig5, fig6, fig7, fig8, table1


def write_report(out_dir: Path, fig3_mesh: int = 48) -> list[Path]:
    """Regenerate all experiments; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []

    def write(name: str, text: str) -> None:
        p = out_dir / name
        p.write_text(text + "\n", encoding="utf-8")
        paths.append(p)

    rows = table1.run_table1()
    headers = list(rows[0])
    from repro.io.tables import format_table
    write("table1.txt",
          format_table(headers, [[r[h] for h in headers] for r in rows]))

    r3 = fig3.run_fig3(fig3_mesh)
    write("fig3.txt", r3.render())
    from repro.io.snapshots import save_field_csv
    paths.append(save_field_csv(out_dir / "fig3_temperature.csv",
                                r3.temperature))

    r4 = fig4.run_fig4()
    write("fig4.csv", "mesh_n,mean_temperature\n" + "\n".join(
        f"{n},{t:.8f}" for n, t in zip(r4.mesh_sizes, r4.mean_temperatures)))

    for name, runner in (("fig5", fig5.run_fig5), ("fig6", fig6.run_fig6),
                         ("fig7", fig7.run_fig7), ("fig8", fig8.run_fig8)):
        fig = runner()
        write(f"{name}.csv", fig.to_csv())
        write(f"{name}.txt", fig.to_text())

    from repro.harness import stability_sweep
    sweep = stability_sweep.run_stability_sweep(
        n=16, jumps=(1e8,),
        cells=(("cg[depth=1]", "cg", 1), ("cppcg[depth=16]", "ppcg", 16)))
    write("stability_sweep.txt", stability_sweep.render(sweep))

    from repro.harness import chaos_sweep
    from repro.harness.ledger import write_ledger
    from repro.resilience.chaos import run_campaign
    chaos = run_campaign(trials=50, fixtures_dir=out_dir / "chaos" / "fixtures")
    write("chaos_campaign.txt", chaos_sweep.render(chaos))
    paths.append(write_ledger(chaos.as_dict(), out_dir / "chaos", "CHAOS"))

    paths.extend(write_trace_profile(out_dir))
    return paths


def write_trace_profile(out_dir: Path, n: int = 24) -> list[Path]:
    """Traced CPPCG crooked-pipe solve: summary, JSONL and Chrome trace.

    The observability artefact of the report: where the time of one
    communication-avoiding solve goes, as a text table plus machine-read
    trace files (see docs/observability.md).
    """
    from repro.observe import (
        metrics_table,
        summary_table,
        traced_crooked_pipe,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.solvers import SolverOptions

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = traced_crooked_pipe(n, SolverOptions(
        solver="ppcg", eps=1e-10, ppcg_inner_steps=4, eigen_warmup_iters=10))
    spans = run.spans
    summary = out_dir / "trace_summary.txt"
    summary.write_text(
        f"== traced cppcg solve: crooked pipe n={n} ==\n"
        + run.result.summary() + "\n\n"
        + summary_table(spans) + "\n\n"
        + metrics_table(run.metrics.snapshot()) + "\n",
        encoding="utf-8")
    return [summary,
            write_jsonl(spans, out_dir / "trace.jsonl"),
            write_chrome_trace(spans, out_dir / "trace.chrome.json")]
