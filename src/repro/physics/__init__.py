"""TeaLeaf physics: heat-conduction state, coefficients, problems, decks.

TeaLeaf advances the linear heat-conduction equation with an implicit time
step: each step builds face conduction coefficients from the (static) density
field and solves the SPD system ``A u_new = u_old`` with one of the iterative
solvers in :mod:`repro.solvers`.
"""

from repro.physics.conduction import (
    Conductivity,
    cell_conductivity,
    face_coefficients,
)
from repro.physics.problems import (
    RegionSpec,
    ProblemSpec,
    STABILITY_JUMPS,
    crooked_duct_3d,
    crooked_pipe,
    crooked_pipe_jump,
    stability_battery,
    uniform_problem,
    hot_square,
)
from repro.physics.state import (build_fields, crooked_pipe_system,
                                 first_step_system, global_initial_state)
from repro.physics.deck import (
    Deck,
    deck_solver_options,
    deck_system,
    deck_to_problem,
    parse_deck,
    parse_deck_text,
)
from repro.physics.simulation import Simulation, SimulationReport, run_simulation
from repro.physics.summary import FieldSummary, field_summary

__all__ = [
    "Conductivity",
    "cell_conductivity",
    "face_coefficients",
    "RegionSpec",
    "ProblemSpec",
    "STABILITY_JUMPS",
    "crooked_duct_3d",
    "crooked_pipe",
    "crooked_pipe_jump",
    "stability_battery",
    "uniform_problem",
    "hot_square",
    "build_fields",
    "crooked_pipe_system",
    "first_step_system",
    "global_initial_state",
    "Deck",
    "parse_deck",
    "parse_deck_text",
    "deck_to_problem",
    "deck_solver_options",
    "deck_system",
    "Simulation",
    "SimulationReport",
    "run_simulation",
    "FieldSummary",
    "field_summary",
]
