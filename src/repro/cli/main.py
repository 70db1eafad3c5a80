"""repro command-line interface."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


#: CLI flags that override a deck's solver options; each flag's ``dest``
#: is the :class:`~repro.solvers.options.SolverOptions` field it sets.
_OPTION_FLAGS = ("solver", "halo_depth", "dtype", "true_residual",
                 "comm_timeout", "checkpoint_dir", "checkpoint_interval")


#: Deck flags of the resilient stack (:func:`~repro.resilience.runner.
#: run_resilient`); ``solve``, ``trace`` and ``tealeaf`` run on the bare or
#: counting stack, so they refuse a deck that sets one.
_RESILIENCE_FLAGS = ("tl_enable_checksums", "tl_enable_recovery")


def _solver_options(deck, args):
    """The deck's solver options with this subcommand's flags applied: a
    flag left at its falsy default keeps the deck's value.  Raises
    :class:`~repro.utils.errors.ConfigurationError` on an inconsistent
    combination or a resilience flag this subcommand cannot honour."""
    from repro.physics.deck import deck_solver_options
    from repro.utils.errors import ConfigurationError

    for flag in _RESILIENCE_FLAGS:
        if getattr(deck, flag):
            raise ConfigurationError(
                f"{flag} needs the resilient stack; 'repro "
                f"{args.command}' does not run on it")
    given = {flag: getattr(args, flag) for flag in _OPTION_FLAGS
             if getattr(args, flag, None)}
    if given.get("solver") == "cppcg":
        # The paper's name for the Chebyshev-preconditioned solver.
        given["solver"] = "ppcg"
    return deck_solver_options(deck, **given)


def _print_run(report, args) -> None:
    """What ``tealeaf`` and ``restart`` print of a stepping run: one line
    per step (and its field summary, when one is attached), then
    ``--show`` and ``--out``."""
    for s in report.steps:
        true = (f" true={s.true_residual_norm:.3e}"
                if s.true_residual_norm is not None else "")
        print(f"  step {s.step:4d} t={s.time:8.3f} iters={s.iterations:5d}"
              f" (+{s.inner_iterations} inner) residual={s.residual_norm:.3e}"
              f"{true} mean T={s.mean_temperature:.6f}")
        if s.summary is not None:
            print(f"    summary {s.summary}")
    if args.show:
        from repro.io.ascii_viz import render_heatmap
        print(render_heatmap(report.temperature, width=args.width))
    if args.out:
        from repro.io.snapshots import save_field_npy
        path = save_field_npy(args.out, report.temperature)
        print(f"temperature field written to {path}")


def _cmd_tealeaf(args) -> int:
    from repro.physics.deck import deck_to_problem, parse_deck
    from repro.physics.simulation import run_simulation
    from repro.utils.errors import ConfigurationError

    deck = parse_deck(args.deck)
    options = _solver_options(deck, args)
    if deck.visit_frequency:
        raise ConfigurationError(
            "visit_frequency asks for a VTK dump every few steps; 'repro "
            "tealeaf' has no directory to write them to (--vtk writes the "
            "final state)")
    n_steps = args.steps if args.steps else deck.n_steps
    report = run_simulation(
        deck.grid, deck_to_problem(deck), options,
        dt=deck.initial_timestep, n_steps=n_steps, nranks=args.ranks,
        conductivity=deck.tl_coefficient,
        summary_frequency=deck.summary_frequency)
    print(f"TeaLeaf: {deck.x_cells}x{deck.y_cells} mesh, solver={deck.solver}, "
          f"{n_steps} steps on {args.ranks} rank(s)")
    _print_run(report, args)
    if args.vtk:
        from repro.io.vtk import write_vtk
        density, _ = deck_to_problem(deck).paint(deck.grid)
        path = write_vtk(args.vtk, deck.grid,
                         {"temperature": report.temperature,
                          "density": density})
        print(f"VTK file written to {path}")
    return 0


def _cmd_restart(args) -> int:
    """Resume a checkpointed run from its newest committed checkpoint."""
    from repro.physics.simulation import restart_simulation
    from repro.utils.errors import CheckpointError

    try:
        report = restart_simulation(
            args.from_dir,
            extra_steps=args.steps or None,
            nranks=args.ranks or None,
        )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"restarted from {args.from_dir}: "
          f"{len(report.steps)} step(s) resumed")
    _print_run(report, args)
    return 0


def _cmd_solve(args) -> int:
    """One-shot linear solve of a deck's first implicit step."""
    from repro.physics.deck import deck_system, parse_deck
    from repro.solvers.ranks import instrumented_stack, solve_on_ranks

    deck = parse_deck(args.deck)
    grid, *faces, u0 = deck_system(deck)
    run = solve_on_ranks(grid, faces, u0, _solver_options(deck, args),
                         args.ranks, stack=instrumented_stack)
    result, log = run.result, run.events
    print(result.summary())
    print(f"matvecs={log.count('matvec')} "
          f"reductions={log.count_kind('allreduce')} "
          f"halo exchanges={log.count_kind('halo_exchange')} "
          f"({log.total('halo_exchange', 'bytes') / 1024:.1f} KiB)")
    return 0 if result.converged else 1


def _cmd_trace(args) -> int:
    """Traced one-shot solve: JSONL + Chrome trace + text summaries."""
    from repro.observe import (
        metrics_table,
        summary_table,
        traced_solve,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.physics.deck import deck_system, parse_deck

    deck = parse_deck(args.deck)
    options = _solver_options(deck, args)
    clock_factory = None
    if args.virtual_clock:
        from repro.resilience import VirtualClock
        clock_factory = lambda rank: VirtualClock(tick=1e-6)  # noqa: E731
    grid, kxg, kyg, bg = deck_system(deck)
    run = traced_solve(grid, kxg, kyg, bg, options, size=args.ranks,
                       clock_factory=clock_factory, capacity=args.capacity)

    out = Path(args.out)
    spans = run.spans
    jsonl_path = write_jsonl(spans, out / "trace.jsonl")
    chrome_path = write_chrome_trace(spans, out / "trace.chrome.json")
    print(run.result.summary())
    print(summary_table(spans))
    print(metrics_table(run.metrics.snapshot()))
    dropped = sum(t.dropped for t in run.tracers)
    if dropped:
        print(f"note: ring buffer dropped {dropped} span(s) "
              f"(capacity {args.capacity}/rank)")
    print(f"trace written to {jsonl_path}")
    print(f"chrome trace written to {chrome_path} "
          "(open in chrome://tracing or ui.perfetto.dev)")
    return 0 if run.result.converged else 1


def _cmd_figure(args) -> int:
    from repro.harness import fig3, fig4, fig5, fig6, fig7, fig8, table1
    from repro.harness import breakdown, depth_sweep, future_solvers
    mains = {
        "table1": table1.main, "fig3": fig3.main, "fig4": fig4.main,
        "fig5": fig5.main, "fig6": fig6.main, "fig7": fig7.main,
        "fig8": fig8.main, "depth-sweep": depth_sweep.main,
        "future-solvers": future_solvers.main, "breakdown": breakdown.main,
    }
    mains[args.name]()
    return 0


def _finish(result, text: str, out: str = "", prefix: str = "",
            index: int = -1) -> int:
    """Every campaign's tail: print its rendered result, write its ledger
    ``<out>/<prefix>_<n>.json`` when it keeps one (``index`` pins
    ``<n>``; -1 takes the next free slot), return its exit code."""
    print(text)
    if prefix:
        from repro.harness.ledger import write_ledger
        path = write_ledger(result.as_dict(), Path(out), prefix,
                            index if index >= 0 else None)
        print(f"ledger written to {path}")
    return result.exit_code


def _cmd_chaos(args) -> int:
    """Seeded chaos campaign against the composed resilient stack."""
    from repro.harness.chaos_sweep import render
    from repro.resilience.chaos import run_campaign
    result = run_campaign(args.seed, args.trials, n=args.n,
                          fixtures_dir=Path(args.out) / "fixtures")
    return _finish(result, render(result), args.out, "CHAOS")


def _cmd_soak(args) -> int:
    """Kill/restart soak of the mini-app under periodic fault storms."""
    from repro.harness.soak import render
    from repro.resilience.chaos import run_soak
    report = run_soak(seed=args.seed, cycles=args.cycles,
                      steps_per_cycle=args.steps_per_cycle, n=args.n,
                      nranks=args.nranks,
                      checkpoint_root=Path(args.out) / "checkpoints")
    return _finish(report, render(report), args.out, "SOAK")


def _cmd_service_soak(args) -> int:
    """SIGKILL/replay soak of the journaled solve service."""
    import tempfile

    from repro.harness.service_soak import render, run_service_soak
    with tempfile.TemporaryDirectory(prefix="service-soak-") as work_dir:
        result = run_service_soak(args.seed, args.count,
                                  kill_seed=args.kill_seed,
                                  work_dir=Path(work_dir))
    return _finish(result, render(result), args.out, "SOAK_SERVICE")


def _cmd_serve(args) -> int:
    """Multi-tenant solve service: load sweep or interactive demo."""
    if args.demo:
        import asyncio
        return asyncio.run(_serve_demo())
    from repro.harness.service_sweep import render, run_service_sweep
    result = run_service_sweep(args.seed, args.count, chaos=args.chaos,
                               workers=args.workers,
                               group_size=args.group_size)
    return _finish(result, render(result), args.out, "SERVICE", args.index)


def _cmd_resilience(args) -> int:
    """Fault rate x solver sweep through the injection stack."""
    from dataclasses import replace

    from repro.harness.resilience_sweep import (
        SOLVERS,
        render,
        run_resilience_sweep,
    )
    solvers = SOLVERS
    if args.integrity:
        solvers = [(name, replace(options, integrity=True))
                   for name, options in SOLVERS]
    sweep = run_resilience_sweep(n=args.n, seed=args.seed, size=args.size,
                                 solvers=solvers)
    return _finish(sweep, render(sweep))


def _cmd_stability(args) -> int:
    """Solver x dtype x depth sweep over the ill-conditioned battery."""
    from repro.harness.stability_sweep import render, run_stability_sweep
    sweep = run_stability_sweep(n=args.n, eps=args.eps,
                                max_iters=args.max_iters,
                                jumps=tuple(args.jumps), size=args.size)
    return _finish(sweep, render(sweep))


async def _serve_demo() -> int:
    """Tiny real-time front-end demo: mixed outcomes from one gather."""
    import asyncio

    from repro.physics.deck import CROOKED_PIPE_DECK
    from repro.service import SolveService

    deck = CROOKED_PIPE_DECK.format(n=12)
    with SolveService(workers=2, quota_rate=50.0, quota_burst=4.0) as svc:
        jobs = [svc.submit(deck, tenant="demo", n=12)
                for _ in range(3)]
        jobs.append(svc.submit(deck, tenant="demo", n=12,
                               deadline_s=1e-4))
        jobs.append(svc.submit("*tea\nbogus=1\n*endtea\n", tenant="demo"))
        outcomes = await asyncio.gather(*jobs)
    for o in outcomes:
        extra = f" [{o.error_class}]" if o.error_class else ""
        print(f"  {o.request_id} {o.status:<17} solver={o.solver or '-':<9} "
              f"iters={o.iterations:<4} {o.latency_s * 1e3:7.1f} ms{extra}")
    statuses = {o.status for o in outcomes}
    ok = statuses <= {"completed", "degraded", "deadline_exceeded",
                      "failed", "shed"} and \
        any(s in ("completed", "degraded") for s in statuses)
    print(f"  demo {'PASS' if ok else 'FAIL'}: statuses={sorted(statuses)}")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    from repro.harness.report import write_report
    paths = write_report(Path(args.out))
    for p in paths:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TeaLeaf reproduction: solvers, mini-app, paper figures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tea = sub.add_parser("tealeaf", help="run an input deck")
    p_tea.add_argument("--deck", required=True, help="tea.in-style deck file")
    p_tea.add_argument("--ranks", type=int, default=1,
                       help="SPMD world size (thread ranks)")
    p_tea.add_argument("--steps", type=int, default=0,
                       help="override step count (0: from deck end_time)")
    p_tea.add_argument("--show", action="store_true",
                       help="render the final temperature as ASCII")
    p_tea.add_argument("--width", type=int, default=72)
    p_tea.add_argument("--out", default="",
                       help="write the final field to this .npy path")
    p_tea.add_argument("--vtk", default="",
                       help="write the final state to this legacy-VTK path")
    p_tea.add_argument("--checkpoint-dir", default="",
                       help="commit durable checkpoints into this directory "
                            "(overrides the deck's tl_checkpoint_dir)")
    p_tea.add_argument("--checkpoint-interval", type=int, default=0,
                       help="checkpoint every N completed steps "
                            "(overrides the deck's tl_checkpoint_interval)")
    p_tea.add_argument("--comm-timeout", type=float, default=0.0,
                       help="per-attempt receive timeout in seconds "
                            "(deck: tl_comm_timeout; 0: library default)")
    p_tea.set_defaults(func=_cmd_tealeaf)

    p_restart = sub.add_parser(
        "restart", help="resume a run from its newest durable checkpoint")
    p_restart.add_argument("--from", dest="from_dir", required=True,
                           help="checkpoint directory written by a previous "
                                "'repro tealeaf --checkpoint-dir' run")
    p_restart.add_argument("--ranks", type=int, default=0,
                           help="world size (0: from the checkpoint manifest)")
    p_restart.add_argument("--steps", type=int, default=0,
                           help="override the remaining step count "
                                "(0: finish the original run)")
    p_restart.add_argument("--show", action="store_true",
                           help="render the final temperature as ASCII")
    p_restart.add_argument("--width", type=int, default=72)
    p_restart.add_argument("--out", default="",
                           help="write the final field to this .npy path")
    p_restart.set_defaults(func=_cmd_restart)

    p_solve = sub.add_parser("solve",
                             help="one-shot linear solve of a deck's first step")
    p_solve.add_argument("--deck", required=True)
    p_solve.add_argument("--ranks", type=int, default=1)
    p_solve.add_argument("--solver", default="",
                         help="override the deck's solver (accepts 'cppcg')")
    p_solve.add_argument("--halo-depth", type=int, default=0,
                         help="override the matrix-powers halo depth")
    p_solve.add_argument("--dtype", default="",
                         choices=["", "float32", "float64"],
                         help="override the working precision "
                              "(deck: tl_working_dtype)")
    p_solve.add_argument("--true-residual", action="store_true",
                         help="recompute ||b - A x|| after the solve and "
                              "report it next to the recurrence residual")
    p_solve.add_argument("--comm-timeout", type=float, default=0.0,
                         help="per-attempt receive timeout in seconds "
                              "(deck: tl_comm_timeout; 0: library default)")
    p_solve.set_defaults(func=_cmd_solve)

    p_trace = sub.add_parser(
        "trace", help="traced one-shot solve of a deck's first step")
    p_trace.add_argument("--deck", required=True)
    p_trace.add_argument("--ranks", type=int, default=1)
    p_trace.add_argument("--solver", default="",
                         help="override the deck's solver (accepts 'cppcg')")
    p_trace.add_argument("--halo-depth", type=int, default=0,
                         help="override the matrix-powers halo depth")
    p_trace.add_argument("--out", default="results/trace",
                         help="directory for trace.jsonl / trace.chrome.json")
    p_trace.add_argument("--capacity", type=int, default=1 << 16,
                         help="per-rank span ring-buffer bound")
    p_trace.add_argument("--virtual-clock", action="store_true",
                         help="deterministic virtual timestamps "
                              "(byte-identical traces across runs)")
    p_trace.set_defaults(func=_cmd_trace)

    p_fig = sub.add_parser("figure", help="regenerate one paper figure/table")
    p_fig.add_argument("name", choices=["table1", "fig3", "fig4", "fig5",
                                        "fig6", "fig7", "fig8",
                                        "depth-sweep", "future-solvers",
                                        "breakdown"])
    p_fig.set_defaults(func=_cmd_figure)

    # The campaigns.  Each flag's dest is the parameter of the run_*
    # function it feeds, and its default that parameter's default.
    p_chaos = sub.add_parser(
        "chaos", help="seeded chaos campaign against the resilient stack")
    p_chaos.add_argument("--seed", type=int, default=20170905)
    p_chaos.add_argument("--trials", type=int, default=200)
    p_chaos.add_argument("--n", type=int, default=12, help="mesh size")
    p_chaos.add_argument("--out", default="results/chaos",
                         help="directory for CHAOS_<n>.json + fixtures/")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_soak = sub.add_parser(
        "soak", help="kill/restart soak under periodic fault storms")
    p_soak.add_argument("--seed", type=int, default=11)
    p_soak.add_argument("--cycles", type=int, default=3)
    p_soak.add_argument("--steps-per-cycle", type=int, default=2)
    p_soak.add_argument("--n", type=int, default=16, help="mesh size")
    p_soak.add_argument("--ranks", dest="nranks", type=int, default=2,
                        help="SPMD world size (thread ranks)")
    p_soak.add_argument("--out", default="results/soak",
                        help="directory for checkpoints + SOAK_<n>.json")
    p_soak.set_defaults(func=_cmd_soak)

    p_ssoak = sub.add_parser(
        "service-soak", help="SIGKILL/replay soak of the journaled solve "
                             "service -> SOAK_SERVICE_<n>.json")
    p_ssoak.add_argument("--seed", type=int, default=424243)
    p_ssoak.add_argument("--requests", dest="count", type=int, default=30,
                         help="workload size")
    p_ssoak.add_argument("--kill-seed", type=int, default=7,
                         help="seed for the SIGKILL points")
    p_ssoak.add_argument("--out", default="results/service",
                         help="directory for SOAK_SERVICE_<n>.json")
    p_ssoak.set_defaults(func=_cmd_service_soak)

    p_serve = sub.add_parser(
        "serve", help="multi-tenant solve service: deterministic load "
                      "sweep -> SERVICE_<n>.json (or --demo)")
    p_serve.add_argument("--seed", type=int, default=20170905)
    p_serve.add_argument("--requests", dest="count", type=int, default=200)
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument("--group-size", type=int, default=2,
                         help="SPMD ranks per worker group")
    p_serve.add_argument("--no-chaos", dest="chaos", action="store_false",
                         help="disable fault storms / crashes")
    p_serve.add_argument("--out", default="results/service",
                         help="directory for SERVICE_<n>.json")
    p_serve.add_argument("--index", type=int, default=-1,
                         help="pin the ledger index (-1: next free slot)")
    p_serve.add_argument("--demo", action="store_true",
                         help="run the asyncio front-end demo instead")
    p_serve.set_defaults(func=_cmd_serve)

    p_res = sub.add_parser(
        "resilience", help="fault rate x solver sweep through the "
                           "fault-injection stack")
    p_res.add_argument("--n", type=int, default=24, help="mesh size")
    p_res.add_argument("--seed", type=int, default=7)
    p_res.add_argument("--size", type=int, default=1, help="world size")
    p_res.add_argument("--integrity", action="store_true",
                       help="enable the checksummed-envelope comm layer")
    p_res.set_defaults(func=_cmd_resilience)

    p_stab = sub.add_parser(
        "stability", help="solver x dtype x depth sweep over the "
                          "ill-conditioned crooked-pipe battery")
    p_stab.add_argument("--n", type=int, default=24, help="mesh size")
    p_stab.add_argument("--eps", type=float, default=1e-8)
    p_stab.add_argument("--max-iters", type=int, default=600)
    p_stab.add_argument("--size", type=int, default=1, help="world size")
    p_stab.add_argument("--jumps", type=float, nargs="+", default=(1e4, 1e8),
                        help="conductivity jumps of the battery")
    p_stab.set_defaults(func=_cmd_stability)

    p_rep = sub.add_parser("report", help="write all figures/tables to a directory")
    p_rep.add_argument("--out", default="results")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.utils.errors import ConfigurationError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        # a deck and flags that cannot run together, e.g.
        # --checkpoint-interval with no checkpoint directory anywhere
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
