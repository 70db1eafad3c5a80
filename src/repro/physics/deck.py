"""TeaLeaf input-deck (``tea.in``) parsing.

The deck dialect is the one TeaLeaf ships: a ``*tea`` ... ``*endtea`` block of
``key=value`` settings, ``state N key=value ...`` lines defining the initial
regions, and bare flags such as ``use_cg`` selecting the solver.  Lines
starting with ``!`` or ``#`` are comments.

Example::

    *tea
    state 1 density=100.0 energy=0.0001
    state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=1.0 ymin=1.0 ymax=2.0
    x_cells=512
    y_cells=512
    initial_timestep=0.04
    end_time=15.0
    use_ppcg
    tl_ppcg_inner_steps=10
    tl_max_iters=10000
    tl_eps=1e-10
    *endtea
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mesh.grid import Grid2D
from repro.physics.conduction import Conductivity
from repro.physics.problems import ProblemSpec, RegionSpec
from repro.physics.state import first_step_system
from repro.utils.errors import ConfigurationError

#: Bare-flag solver selectors, in TeaLeaf's spelling.
_SOLVER_FLAGS = {
    "use_jacobi": "jacobi",
    "tl_use_jacobi": "jacobi",
    "use_cg": "cg",
    "tl_use_cg": "cg",
    "use_chebyshev": "chebyshev",
    "tl_use_chebyshev": "chebyshev",
    "use_ppcg": "ppcg",
    "tl_use_ppcg": "ppcg",
    # library extensions (paper §VII future work)
    "use_cg_fused": "cg_fused",
    "use_dpcg": "dcg",
}

_PRECONDITIONERS = {"none": "none", "jac_diag": "diagonal",
                    "jac_block": "block_jacobi"}

#: Bare-flag toggles, each the :class:`Deck` attribute it sets: resilience
#: (see :mod:`repro.resilience`), then numerics (see :mod:`repro.numerics`).
_TOGGLE_FLAGS = ("tl_enable_recovery", "tl_enable_checksums",
                 "tl_enable_refinement", "tl_check_true_residual")


@dataclass
class Deck:
    """Parsed input deck with TeaLeaf defaults."""

    x_cells: int = 10
    y_cells: int = 10
    xmin: float = 0.0
    xmax: float = 10.0
    ymin: float = 0.0
    ymax: float = 10.0
    initial_timestep: float = 0.04
    end_time: float = 15.0
    states: list[RegionSpec] = field(default_factory=list)
    solver: str = "cg"
    tl_eps: float = 1e-10
    tl_max_iters: int = 10_000
    tl_ppcg_inner_steps: int = 10
    tl_ppcg_halo_depth: int = 1
    tl_preconditioner_type: str = "none"
    tl_coefficient: Conductivity = Conductivity.RECIP_DENSITY
    tl_eigen_warmup_iters: int = 25
    tl_checkpoint_interval: int = 0
    tl_checkpoint_dir: str = ""
    tl_abft_interval: int = 0
    tl_enable_recovery: bool = False
    tl_enable_checksums: bool = False
    tl_working_dtype: str = "float64"
    tl_kernel_backend: str = "numpy"
    tl_replace_interval: int = 0
    tl_comm_timeout: float = 0.0
    tl_enable_refinement: bool = False
    tl_check_true_residual: bool = False
    summary_frequency: int = 0
    visit_frequency: int = 0

    @property
    def grid(self) -> Grid2D:
        return Grid2D(self.x_cells, self.y_cells,
                      (self.xmin, self.xmax, self.ymin, self.ymax))

    @property
    def n_steps(self) -> int:
        return max(1, round(self.end_time / self.initial_timestep))


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _parse_state(tokens: list[str], lineno: int) -> tuple[int, RegionSpec]:
    try:
        index = int(tokens[1])
    except (IndexError, ValueError):
        raise ConfigurationError(f"line {lineno}: malformed state line")
    kv = {}
    for tok in tokens[2:]:
        if "=" not in tok:
            raise ConfigurationError(
                f"line {lineno}: expected key=value in state, got {tok!r}")
        key, val = tok.split("=", 1)
        key = key.strip()
        if key in kv:
            raise ConfigurationError(
                f"line {lineno}: duplicate key {key!r} in state {index}")
        kv[key] = _coerce(val.strip())
    geometry = kv.pop("geometry", "background" if index == 1 else None)
    if geometry is None:
        raise ConfigurationError(
            f"line {lineno}: state {index} needs geometry=")

    def _pop_float(name: str) -> float:
        try:
            value = kv.pop(name)
        except KeyError:
            raise ConfigurationError(
                f"line {lineno}: state {index} ({geometry}) "
                f"missing {name!r}") from None
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"line {lineno}: state {index}: bad value for "
                f"{name}: {value!r}") from None

    density = _pop_float("density")
    energy = _pop_float("energy")
    needed = {"rectangle": ("xmin", "xmax", "ymin", "ymax"),
              "circle": ("xcentre", "ycentre", "radius"),
              "point": ("xcentre", "ycentre")}.get(geometry, ())
    bounds = tuple(_pop_float(b) for b in needed)
    if kv:
        raise ConfigurationError(
            f"line {lineno}: unknown state keys {sorted(kv)}")
    return index, RegionSpec(density=density, energy=energy,
                             geometry=geometry, bounds=bounds)


def parse_deck_text(text: str) -> Deck:
    """Parse deck text (with or without the ``*tea`` wrapper).

    Every malformed input — unknown keys, wrong-typed values, duplicate
    settings or state indices, conflicting solver flags — raises a
    :class:`~repro.utils.errors.ConfigurationError` naming the key and
    the line number; no raw ``ValueError``/``KeyError`` ever escapes.
    """
    deck = Deck()
    states: dict[int, RegionSpec] = {}
    seen: dict[str, int] = {}

    def _first_use(key: str, lineno: int, what: str = "setting") -> None:
        if key in seen:
            raise ConfigurationError(
                f"line {lineno}: duplicate {what} {key!r} "
                f"(first set on line {seen[key]})")
        seen[key] = lineno

    in_block = "*tea" not in text
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("!")[0].split("#")[0].strip()
        if not line:
            continue
        low = line.lower()
        if low == "*tea":
            in_block = True
            continue
        if low == "*endtea":
            in_block = False
            continue
        if not in_block:
            continue
        tokens = line.split()
        if tokens[0].lower() == "state":
            index, spec = _parse_state(tokens, lineno)
            _first_use(f"state {index}", lineno, what="state")
            states[index] = spec
            continue
        if low in _SOLVER_FLAGS:
            _first_use("solver flag", lineno, what="solver selection")
            deck.solver = _SOLVER_FLAGS[low]
            continue
        if low in _TOGGLE_FLAGS:
            _first_use(low, lineno, what="flag")
            setattr(deck, low, True)
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: unrecognised entry {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        _first_use(key.lower(), lineno)
        _apply_setting(deck, key.lower(), val, lineno)

    if states:
        ordered = [states[i] for i in sorted(states)]
        if sorted(states) != list(range(1, len(states) + 1)):
            raise ConfigurationError(
                f"state indices must be 1..N, got {sorted(states)}")
        deck.states = ordered
    return deck


def _apply_setting(deck: Deck, key: str, val: str, lineno: int) -> None:
    simple = {
        "x_cells": ("x_cells", int),
        "y_cells": ("y_cells", int),
        "xmin": ("xmin", float),
        "xmax": ("xmax", float),
        "ymin": ("ymin", float),
        "ymax": ("ymax", float),
        "initial_timestep": ("initial_timestep", float),
        "end_time": ("end_time", float),
        "tl_eps": ("tl_eps", float),
        "tl_max_iters": ("tl_max_iters", int),
        "tl_ppcg_inner_steps": ("tl_ppcg_inner_steps", int),
        "tl_ppcg_halo_depth": ("tl_ppcg_halo_depth", int),
        "tl_eigen_warmup_iters": ("tl_eigen_warmup_iters", int),
        "tl_checkpoint_interval": ("tl_checkpoint_interval", int),
        "tl_checkpoint_dir": ("tl_checkpoint_dir", str),
        "tl_abft_interval": ("tl_abft_interval", int),
        "tl_replace_interval": ("tl_replace_interval", int),
        "tl_comm_timeout": ("tl_comm_timeout", float),
        "summary_frequency": ("summary_frequency", int),
        "visit_frequency": ("visit_frequency", int),
    }
    if key in simple:
        attr, cast = simple[key]
        try:
            setattr(deck, attr, cast(val))
        except ValueError:
            raise ConfigurationError(f"line {lineno}: bad value for {key}: {val!r}")
        return
    if key == "tl_preconditioner_type":
        if val not in _PRECONDITIONERS:
            raise ConfigurationError(
                f"line {lineno}: unknown preconditioner {val!r}; "
                f"expected one of {sorted(_PRECONDITIONERS)}")
        deck.tl_preconditioner_type = _PRECONDITIONERS[val]
        return
    if key == "tl_coefficient":
        try:
            deck.tl_coefficient = Conductivity(val.lower())
        except ValueError:
            raise ConfigurationError(
                f"line {lineno}: unknown tl_coefficient {val!r}")
        return
    if key == "tl_working_dtype":
        from repro.solvers.options import WORKING_DTYPES
        if val not in WORKING_DTYPES:
            raise ConfigurationError(
                f"line {lineno}: unknown tl_working_dtype {val!r}; "
                f"expected one of {list(WORKING_DTYPES)}")
        deck.tl_working_dtype = val
        return
    if key == "tl_kernel_backend":
        from repro.solvers.options import KERNEL_BACKENDS
        if val not in KERNEL_BACKENDS:
            raise ConfigurationError(
                f"line {lineno}: unknown tl_kernel_backend {val!r}; "
                f"expected one of {list(KERNEL_BACKENDS)}")
        deck.tl_kernel_backend = val
        return
    raise ConfigurationError(f"line {lineno}: unknown setting {key!r}")


def parse_deck(path) -> Deck:
    """Parse a deck file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_deck_text(fh.read())


def deck_to_problem(deck: Deck, name: str = "deck") -> ProblemSpec:
    """Convert a deck's state list into a :class:`ProblemSpec`."""
    if not deck.states:
        raise ConfigurationError("deck defines no states")
    return ProblemSpec(regions=tuple(deck.states), name=name)


def deck_system(deck: Deck) -> tuple:
    """Global ``(grid, kx, ky, u0)`` of a deck's first implicit step (its
    painted states, conductivity model and initial timestep) — what
    ``repro solve`` and ``repro trace`` solve."""
    return first_step_system(deck.grid, deck_to_problem(deck),
                             deck.initial_timestep, deck.tl_coefficient)


def deck_solver_options(deck: Deck, **overrides):
    """The :class:`~repro.solvers.options.SolverOptions` a deck selects.

    The one place a ``tl_*`` key becomes an options field.  ``overrides``
    are options fields that win over the deck's (the CLI's flags); the
    result is validated as a whole, so a deck that sets
    ``tl_checkpoint_interval`` may leave the directory to
    ``--checkpoint-dir``, and an inconsistent combination raises
    :class:`ConfigurationError` here rather than mid-solve.
    """
    from repro.solvers.options import SolverOptions
    return SolverOptions(**(dict(
        solver=deck.solver,
        eps=deck.tl_eps,
        max_iters=deck.tl_max_iters,
        preconditioner=deck.tl_preconditioner_type,
        ppcg_inner_steps=deck.tl_ppcg_inner_steps,
        halo_depth=deck.tl_ppcg_halo_depth,
        eigen_warmup_iters=deck.tl_eigen_warmup_iters,
        checkpoint_interval=deck.tl_checkpoint_interval,
        checkpoint_dir=deck.tl_checkpoint_dir,
        recovery=deck.tl_enable_recovery,
        integrity=deck.tl_enable_checksums,
        abft_interval=deck.tl_abft_interval,
        dtype=deck.tl_working_dtype,
        refine=deck.tl_enable_refinement,
        replace_interval=deck.tl_replace_interval,
        true_residual=deck.tl_check_true_residual,
        kernel_backend=deck.tl_kernel_backend,
        comm_timeout=deck.tl_comm_timeout,
    ) | overrides))


#: The paper's crooked-pipe benchmark as deck text (mesh size is a template).
CROOKED_PIPE_DECK = """\
*tea
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=1.0 ymin=1.0 ymax=2.0
state 3 density=0.1 energy=0.1 geometry=rectangle xmin=1.0 xmax=6.0 ymin=1.0 ymax=2.0
state 4 density=0.1 energy=0.1 geometry=rectangle xmin=5.0 xmax=6.0 ymin=1.0 ymax=8.0
state 5 density=0.1 energy=0.1 geometry=rectangle xmin=5.0 xmax=10.0 ymin=7.0 ymax=8.0
x_cells={n}
y_cells={n}
xmin=0.0
xmax=10.0
ymin=0.0
ymax=10.0
initial_timestep=0.04
end_time=15.0
tl_coefficient=recip_conductivity
use_ppcg
tl_ppcg_inner_steps=10
tl_max_iters=10000
tl_eps=1e-10
*endtea
"""


def crooked_pipe_deck(n: int = 512) -> Deck:
    """The crooked-pipe benchmark deck at mesh size ``n`` x ``n``."""
    return parse_deck_text(CROOKED_PIPE_DECK.format(n=n))
