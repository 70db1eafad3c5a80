"""Deck-driven runs: the TeaLeaf ``tea.in`` workflow.

Writes a benchmark input deck, parses it, runs the simulation on a
multi-rank in-process world, and — as a bonus — solves a 3D (7-point)
problem (the paper mentions the 3D path in §II) with the same operator,
fields and solvers, on two ranks.

Run:  python examples/deck_driven.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import Grid3D
from repro.physics import face_coefficients, parse_deck
from repro.physics.deck import (CROOKED_PIPE_DECK, deck_solver_options,
                                deck_to_problem)
from repro.physics.simulation import run_simulation
from repro.solvers import SolverOptions
from repro.solvers.ranks import solve_on_ranks


def run_deck() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        deck_path = Path(tmp) / "tea.in"
        deck_path.write_text(CROOKED_PIPE_DECK.format(n=48))
        deck = parse_deck(deck_path)

    options = deck_solver_options(deck)
    print(f"deck: {deck.x_cells}x{deck.y_cells}, solver={deck.solver}, "
          f"dt={deck.initial_timestep}, {len(deck.states)} states")
    report = run_simulation(deck.grid, deck_to_problem(deck), options,
                            dt=deck.initial_timestep, n_steps=5, nranks=4)
    for s in report.steps:
        print(f"  step {s.step} t={s.time:.2f}: {s.iterations} outer "
              f"+ {s.inner_iterations} inner, mean T={s.mean_temperature:.6f}")


def run_3d() -> None:
    print("\n3D (7-point) solve on 2 ranks:")
    grid = Grid3D(24, 24, 24)
    rng = np.random.default_rng(42)
    kappa = np.where(rng.random(grid.shape) < 0.2, 10.0, 0.01)
    rx = 0.04 / grid.dx ** 2
    u0 = np.full(grid.shape, 0.01)
    u0[10:14, 10:14, 10:14] = 25.0
    options = SolverOptions(solver="cg", eps=1e-10, true_residual=True)
    run = solve_on_ranks(grid, face_coefficients(kappa, rx, rx, rx), u0,
                         options, 2)
    result, u1 = run.result, run.x
    print(f"  {grid.nx}^3 mesh: CG converged in {result.iterations} "
          f"iterations (relative residual "
          f"{result.true_relative_residual:.2e})")
    print(f"  heat conserved: {u0.sum():.6f} -> {u1.sum():.6f}")


if __name__ == "__main__":
    run_deck()
    run_3d()
