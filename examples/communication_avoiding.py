"""Beyond CPPCG: the paper's §VII roadmap, implemented.

Demonstrates the follow-on communication-avoiding techniques the paper
sketches as future work, on real instrumented solves plus the machine
model:

1. single-reduction (Chronopoulos-Gear) CG — "multiple dot products
   combined into a single communication step";
2. deflated CG (Frank & Vuik, the paper's ref [27]) — removing low-energy
   modes via subdomain deflation;
3. the hybrid domain-decomposition + agglomeration multigrid;
4. what-if sensitivity analysis of future machines.

Run:  python examples/communication_avoiding.py
"""

from repro import Grid2D, SolverOptions, crooked_pipe
from repro.physics import first_step_system
from repro.solvers.ranks import instrumented_stack, solve_on_ranks


def solve(n, options, dt=0.04, size=1):
    """The crooked-pipe first step at ``n``^2 on the rank program."""
    grid, *faces, u0 = first_step_system(Grid2D(n, n), crooked_pipe(), dt)
    return solve_on_ranks(grid, faces, u0, options, size,
                          stack=instrumented_stack)


def demo_fused_cg():
    print("1) single-reduction CG (Chronopoulos-Gear)")
    for name, solver in (("classic", "cg"), ("fused", "cg_fused")):
        run = solve(96, SolverOptions(solver=solver, eps=1e-9))
        print(f"   {name:8s}: {run.result.iterations:4d} iterations, "
              f"{run.events.count_kind('allreduce'):4d} global reductions")


def demo_deflation():
    print("\n2) deflated CG on increasingly stiff steps (dt sweep)")
    cg = SolverOptions(solver="cg", eps=1e-9)
    dcg = SolverOptions(solver="dcg", eps=1e-9, deflation_blocks=(8, 8))
    for dt in (0.04, 10.0, 50.0):
        plain = solve(48, cg, dt).result.iterations
        defl = solve(48, dcg, dt).result.iterations
        print(f"   dt={dt:6.2f}: CG {plain:5d} -> deflated (8x8) {defl:5d} "
              f"iterations ({plain / defl:.2f}x)")


def demo_hybrid_mg():
    print("\n3) hybrid DD + agglomeration multigrid (4 SPMD ranks)")
    result = solve(64, SolverOptions(solver="mgcg", eps=1e-10),
                   size=4).result
    print(f"   {result.iterations} outer iterations over "
          f"{result.n_levels} levels (decomposed + agglomerated coarse)")


def demo_sensitivity():
    print("\n4) what binds at 8192 Titan nodes? (2x degradation per knob)")
    from repro.perfmodel import TITAN, SolverConfig
    from repro.perfmodel.sensitivity import sensitivities
    for label, config, iters in (
        ("CG-1", SolverConfig("cg"), 8556.0),
        ("PPCG-16", SolverConfig("ppcg", inner_steps=10, halo_depth=16),
         934.0),
    ):
        s = sensitivities(TITAN, config, nodes=8192, outer_iters=iters)
        ranked = sorted(s.items(), key=lambda kv: -kv[1])
        pretty = ", ".join(f"{k}={v:.2f}x" for k, v in ranked)
        print(f"   {label:8s}: {pretty}")


if __name__ == "__main__":
    demo_fused_cg()
    demo_deflation()
    demo_hybrid_mg()
    demo_sensitivity()
