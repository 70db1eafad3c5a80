"""Deterministic fault injection and self-healing solves.

Walks the repro.resilience subsystem end to end:

1. a CG solve through the resilient stack with transient wire faults and
   a corrupted allreduce — retried and rolled back to the fault-free
   answer, deterministically (same seed => same fault log, same iteration
   count);
2. graceful degradation — CPPCG handed unusable spectrum bounds falls
   back to plain CG instead of failing;
3. a crashed rank in a 4-rank SPMD world — survivable when the crash
   window is shorter than the retry budget;
4. step-level checkpoint/restart of the full mini-app time loop.

Run:  python examples/fault_tolerance.py
"""

from repro.comm import SerialComm
from repro.physics import crooked_pipe
from repro.mesh.grid import Grid2D
from repro.physics.simulation import Simulation
from repro.resilience import (
    CrashWindow,
    FaultPlan,
    FaultRule,
    run_resilient,
)
from repro.solvers import EigenBounds, SolverOptions
from repro.solvers.driver import SolveSetup
from repro.solvers.ranks import solve_on_ranks
from repro.testing import crooked_pipe_system
from repro.utils.errors import ConvergenceError


def demo_transient_faults():
    print("1) CG through 2% transient faults + corrupted reductions")
    plan = FaultPlan(seed=7, rules=(
        FaultRule(mode="error", probability=0.02,
                  ops=("send", "recv", "allreduce")),
        FaultRule(mode="corrupt_nan", probability=0.02, ops=("allreduce",)),
    ))
    options = SolverOptions(solver="cg", eps=1e-10, max_iters=600,
                            guard_interval=5)
    clean = run_resilient(options, FaultPlan.disabled(), n=24)
    faulty = run_resilient(options, plan, n=24)
    rerun = run_resilient(options, plan, n=24)
    print(f"   fault-free: {clean.summary()}")
    print(f"   injected  : {faulty.summary()}")
    for ev in faulty.fault_events:
        print(f"     {ev}")
    same = (faulty.fault_events == rerun.fault_events
            and faulty.iterations == rerun.iterations)
    print(f"   deterministic rerun identical: {same}")


def demo_degradation():
    print("\n2) CPPCG degrading to plain CG on unusable spectrum bounds")
    grid, *faces, bg = crooked_pipe_system(32)
    # Degenerate spectrum estimate: passes EigenBounds validation but a
    # zero-width ellipse is unusable for the Chebyshev preconditioner.
    bad = EigenBounds(1.0, 1.0)
    result = solve_on_ranks(
        grid, faces, bg,
        SolverOptions(solver="ppcg", eps=1e-10, eigen_warmup_iters=10,
                      degrade=True),
        setup=SolveSetup(bounds=bad)).result
    print(f"   converged={result.converged} in {result.iterations} iters; "
          f"degraded={result.degraded} ({result.degraded_reason})")


def demo_crash_window():
    print("\n3) rank 1 unresponsive for 3 ops in a 4-rank world")
    plan = FaultPlan(seed=3, crashes=(CrashWindow(rank=1, start=40, length=3),))
    options = SolverOptions(solver="cg", eps=1e-10, max_iters=600,
                            guard_interval=5)
    report = run_resilient(options, plan, n=24, size=4)
    crashed = [ev for ev in report.fault_events if ev.rule == -1]
    print(f"   {report.summary()}")
    print(f"   crash events (all on rank 1): "
          f"{[(ev.rank, ev.op) for ev in crashed]}")


def demo_step_retry():
    print("\n4) mini-app time loop: checkpoint every step, retry failures")
    grid = Grid2D(24, 24)
    options = SolverOptions(solver="cg", eps=1e-10, max_iters=400)
    sim = Simulation(SerialComm(), grid, crooked_pipe(), options)
    step = sim.step
    armed = [True]

    def flaky_step():
        if sim.step_index == 1 and armed[0]:
            armed[0] = False
            raise ConvergenceError("injected step failure")
        return step()

    sim.step = flaky_step
    stats = sim.run(3, checkpoint_interval=1, max_step_retries=2)
    print(f"   completed {len(stats)} steps despite one injected failure; "
          f"final mean temperature {stats[-1].mean_temperature:.6f}")


if __name__ == "__main__":
    demo_transient_faults()
    demo_degradation()
    demo_crash_window()
    demo_step_retry()
