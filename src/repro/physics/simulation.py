"""Time-stepping driver: the TeaLeaf mini-app main loop.

Each step solves ``A u_new = u_old`` where ``A = I + dt * L`` is the implicit
(backward-Euler) discretisation of the heat equation — implicit because "of
the severe time step limitations imposed by the stability criteria of an
explicit solution for a parabolic partial differential equation" (§II).

:class:`Simulation` is the rank-local (SPMD) view; :func:`run_simulation`
launches one per rank over the in-process world and gathers the results.
Both take a :class:`~repro.mesh.grid.Grid2D` or ``Grid3D`` ("two and three
dimensions via five and seven point finite difference stencils", §II): one
driver, so 3-D stepping has the event log, tracer, step retry and durable
checkpoint/restart of the 2-D mini-app.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.comm.base import Communicator
from repro.comm.spmd import launch_spmd
from repro.mesh.decomposition import Tile, decompose
from repro.mesh.field import Field
from repro.mesh.grid import Grid2D, Grid3D
from repro.mesh.halo import HaloExchanger
from repro.physics.conduction import Conductivity
from repro.physics.problems import ProblemSpec, RegionSpec
from repro.physics.state import build_coefficient_fields, build_fields, global_initial_state
from repro.solvers.driver import solve_linear
from repro.solvers.operator import StencilOperator
from repro.solvers.options import (SolverOptions, options_from_dict,
                                   options_to_dict)
from repro.solvers.ranks import Stack
from repro.utils.errors import (CheckpointError, CommunicationError,
                                ConvergenceError)
from repro.utils.events import EventLog, recovery_scope
from repro.utils.validation import check_positive


@dataclass
class StepStats:
    """Per-step solver statistics (the fields the harness aggregates)."""

    step: int
    time: float
    iterations: int
    inner_iterations: int
    warmup_iterations: int
    converged: bool
    residual_norm: float
    mean_temperature: float
    #: attached when run(summary_frequency=...) hits this step
    summary: object = None
    #: true residual ``||b - A u_new||`` — None unless the deck/options
    #: requested it (``SolverOptions.true_residual`` or refinement)
    true_residual_norm: float | None = None


@dataclass
class SimulationReport:
    """Gathered outcome of a full run."""

    grid: Grid2D | Grid3D
    dt: float
    steps: list[StepStats]
    temperature: np.ndarray | None  # global, of grid.shape, on the caller
    events: EventLog
    #: per-rank stack objects when run_simulation was given a stack factory
    #: (index = rank; a traced run reads ``stacks[rank].tracer``)
    stacks: list = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def final_mean_temperature(self) -> float:
        return self.steps[-1].mean_temperature if self.steps else float("nan")

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations + s.inner_iterations + s.warmup_iterations
                   for s in self.steps)


class Simulation:
    """One rank's share of the mini-app: fields, operator, stepping."""

    def __init__(
        self,
        comm: Communicator,
        grid: Grid2D | Grid3D,
        problem: ProblemSpec,
        options: SolverOptions | None = None,
        dt: float = 0.04,
        conductivity: Conductivity | str = Conductivity.RECIP_DENSITY,
        face_mean: str = "harmonic",
        warm_start: bool = True,
        tracer=None,
    ):
        check_positive("dt", dt)
        self.events = EventLog()
        if tracer is None:
            # Deferred import: the physics driver stays importable without
            # loading the observability package.
            from repro.observe.trace import NULL_TRACER
            tracer = NULL_TRACER
        self.tracer = tracer
        # Wrap the communicator so reductions/messages land in the event log
        # alongside the mesh-level halo-exchange events.
        from repro.comm.instrument import InstrumentedComm
        comm = InstrumentedComm(comm, self.events, tracer=tracer)
        self.comm = comm
        self.grid = grid
        self.options = options if options is not None else SolverOptions()
        self.dt = dt
        self.warm_start = warm_start
        self.time = 0.0
        self.step_index = 0

        self.tile: Tile = decompose(grid, comm.size)[comm.rank]
        halo = self.options.required_field_halo
        self.exchanger = HaloExchanger(comm, events=self.events,
                                       tracer=tracer)

        density_g, energy_g, _ = global_initial_state(grid, problem)
        self.fields = build_fields(self.tile, halo, density_g, energy_g)

        faces = build_coefficient_fields(
            self.fields["density"], *(dt / d ** 2 for d in grid.spacing),
            self.exchanger, model=conductivity, mean=face_mean)
        self.op = StencilOperator(**dict(zip(("kx", "ky", "kz"), faces)),
                                  comm=comm, exchanger=self.exchanger,
                                  events=self.events, tracer=tracer)

    @property
    def u(self) -> Field:
        """The temperature field (the solved variable)."""
        return self.fields["u"]

    def mean_temperature(self) -> float:
        """Globally averaged temperature (one allreduce)."""
        total = self.comm.allreduce(self.u.local_sum())
        return float(total) / self.grid.n_cells

    def summary(self):
        """TeaLeaf-style field summary (volume/mass/energy/temperature)."""
        from repro.physics.summary import field_summary
        return field_summary(self.grid, self.fields["density"], self.u,
                             self.comm)

    def checkpoint(self) -> dict:
        """Snapshot the evolving state (temperature, clock, step index).

        Only ``u`` evolves between steps — density and the operator
        coefficients are fixed after construction — so a checkpoint is one
        array copy plus two scalars.  Restoring with :meth:`restore`
        rewinds the simulation to exactly this point; a re-run from there
        is bit-identical in a fault-free world.
        """
        return {
            "u": np.array(self.u.data, copy=True),
            "time": self.time,
            "step_index": self.step_index,
        }

    def restore(self, snapshot: dict) -> None:
        """Rewind to a :meth:`checkpoint` (in place, no allocation)."""
        self.u.data[...] = snapshot["u"]
        self.time = snapshot["time"]
        self.step_index = snapshot["step_index"]

    def save_checkpoint(self, root, config: dict | None = None):
        """Commit a durable on-disk checkpoint (SPMD-collective).

        Each rank writes its temperature interior into a per-rank shard
        under ``root/step-NNNNNN`` with the atomic commit protocol of
        :func:`~repro.resilience.checkpoint.commit_checkpoint`; a crash at
        any instant leaves the previous checkpoint intact.  The interior
        suffices for a bit-identical restart: every halo cell any kernel
        reads is freshly exchanged before the read.  Returns the committed
        directory.

        The commit's collectives (barrier/gather) run under the recovery
        scope so they land in
        :data:`~repro.utils.events.RECOVERY_KIND`, keeping per-step comm
        counts contract-clean.
        """
        from repro.resilience.checkpoint import commit_checkpoint
        with self.tracer.span("checkpoint", "simulation"), \
                recovery_scope(self.events):
            return commit_checkpoint(
                Path(root), self.step_index, self.comm,
                arrays={"u": np.array(self.u.interior, copy=True)},
                scalars={"time": self.time, "step_index": self.step_index},
                config=config)

    def restore_from_checkpoint(self, step_dir) -> int:
        """Restore state from a committed checkpoint directory.

        Validates the manifest's rank count and this rank's shard CRCs,
        then reinstates the temperature interior, clock and step index.
        Returns the restored step index.
        """
        from repro.resilience.checkpoint import load_rank_checkpoint
        with self.tracer.span("recover", "simulation"), \
                recovery_scope(self.events):
            arrays, scalars, _manifest = load_rank_checkpoint(
                step_dir, self.comm.rank, self.comm.size)
            u = arrays.get("u")
            if u is None or u.shape != self.u.interior.shape:
                raise CheckpointError(
                    f"rank {self.comm.rank}: checkpoint {step_dir} holds "
                    f"temperature {None if u is None else u.shape}, tile "
                    f"needs {self.u.interior.shape}")
            self.u.interior = u
            self.time = float(scalars["time"])
            self.step_index = int(scalars["step_index"])
        return self.step_index

    def step(self) -> StepStats:
        """Advance one implicit step: solve ``A u_new = u_old``."""
        with self.tracer.span("step", self.step_index):
            b = self.u.copy()
            x0 = self.u if self.warm_start else None
            result = solve_linear(self.op, b, x0, options=self.options)
            if not result.converged:
                raise ConvergenceError(
                    f"step {self.step_index}: {result.summary()}",
                    result=result)
            self.fields["u"] = result.x
            self.step_index += 1
            self.time += self.dt
        return StepStats(
            step=self.step_index,
            time=self.time,
            iterations=result.iterations,
            inner_iterations=result.inner_iterations,
            warmup_iterations=result.warmup_iterations,
            converged=result.converged,
            residual_norm=result.residual_norm,
            mean_temperature=self.mean_temperature(),
            true_residual_norm=result.true_residual_norm,
        )

    def run(self, n_steps: int,
            summary_frequency: int = 0,
            visit_frequency: int = 0,
            output_dir=None,
            checkpoint_interval: int = 0,
            max_step_retries: int = 0,
            checkpoint_dir=None,
            checkpoint_config: dict | None = None) -> list[StepStats]:
        """Advance ``n_steps``, optionally emitting TeaLeaf-style output.

        ``summary_frequency``: every k steps, attach a
        :class:`~repro.physics.summary.FieldSummary` to the step record
        (``stats.summary``).  ``visit_frequency``: every k steps, rank 0
        writes a legacy-VTK dump of the gathered temperature/density into
        ``output_dir`` (named ``tea.<step>.vtk`` as TeaLeaf does).

        Resilience (both default off, preserving historical behaviour):
        with ``checkpoint_interval = k`` the state is checkpointed every
        ``k`` steps, and with ``max_step_retries = m`` a step that fails
        with :class:`ConvergenceError` or :class:`CommunicationError` is
        retried up to ``m`` times from the last checkpoint instead of
        aborting the run.  Convergence failures are globally coherent
        (the residual check is an allreduce), so every SPMD rank rolls
        back together; communication failures are only guaranteed
        coherent when the fault affects collectives symmetrically (as the
        resilient stack's collective faults do) or in serial runs.

        With ``checkpoint_dir`` set (and ``checkpoint_interval = k``), a
        *durable* checkpoint is additionally committed to disk after every
        ``k``-th completed step (see :meth:`save_checkpoint`) — each
        committed ``step-NNNNNN`` directory records "step N finished", so
        a killed run restarts from the last completed cadence boundary.
        ``checkpoint_config`` is stored in the manifest for
        :func:`restart_simulation` to rebuild the run from.
        """
        check_positive("n_steps", n_steps)
        check_positive("checkpoint_interval", checkpoint_interval,
                       allow_zero=True)
        check_positive("max_step_retries", max_step_retries, allow_zero=True)
        stats: list[StepStats] = []
        snapshot = None
        n_kept = 0
        retries_left = max_step_retries
        while len(stats) < n_steps:
            if checkpoint_interval \
                    and self.step_index % checkpoint_interval == 0:
                snapshot = self.checkpoint()
                n_kept = len(stats)
            try:
                s = self.step()
            except (ConvergenceError, CommunicationError):
                if snapshot is None or retries_left <= 0:
                    raise
                retries_left -= 1
                self.restore(snapshot)
                del stats[n_kept:]
                continue
            if checkpoint_dir is not None and checkpoint_interval \
                    and self.step_index % checkpoint_interval == 0:
                self.save_checkpoint(checkpoint_dir, checkpoint_config)
            if summary_frequency and self.step_index % summary_frequency == 0:
                s.summary = self.summary()
            if visit_frequency and self.step_index % visit_frequency == 0:
                self._visit_dump(output_dir)
            stats.append(s)
        return stats

    def _visit_dump(self, output_dir) -> None:
        from repro.io.vtk import write_vtk

        temperature = self.gather_temperature(root=0)
        density = self._gather(self.fields["density"], root=0)
        if temperature is None:
            return  # not rank 0
        out = Path(output_dir) if output_dir is not None else Path(".")
        write_vtk(out / f"tea.{self.step_index}.vtk", self.grid,
                  {"temperature": temperature, "density": density})

    def _gather(self, field: Field, root: int) -> np.ndarray | None:
        """Assemble ``field``'s global array on ``root`` (one gather)."""
        pieces = self.comm.gather((self.tile, field.interior.copy()), root)
        if pieces is None:
            return None
        out = np.zeros(self.grid.shape)
        for tile, interior in pieces:
            out[tile.global_slices] = interior
        return out

    def gather_temperature(self, root: int = 0) -> np.ndarray | None:
        """Assemble the global temperature array on ``root``."""
        return self._gather(self.u, root)


def checkpoint_config(grid: Grid2D | Grid3D,
                      problem: ProblemSpec,
                      options: SolverOptions,
                      *,
                      dt: float,
                      n_steps: int,
                      nranks: int,
                      conductivity: Conductivity | str,
                      face_mean: str,
                      warm_start: bool,
                      checkpoint_interval: int) -> dict:
    """JSON-ready run description stored in every checkpoint manifest.

    Everything :func:`restart_simulation` needs to rebuild the run without
    the original deck: grid geometry, problem regions, solver options and
    the stepping parameters.  ``n_steps`` is the run's *total* step count,
    so a restart knows how many steps remain.
    """
    cond = conductivity.value if isinstance(conductivity, Conductivity) \
        else str(conductivity)
    return {
        # nx, ny[, nz], extent: an ``nz`` marks a 3-D grid
        "grid": dict(asdict(grid), extent=list(grid.extent)),
        "problem": {
            "name": problem.name,
            "regions": [
                {"density": r.density, "energy": r.energy,
                 "geometry": r.geometry, "bounds": list(r.bounds)}
                for r in problem.regions
            ],
        },
        "options": options_to_dict(options),
        "dt": dt,
        "n_steps": n_steps,
        "nranks": nranks,
        "conductivity": cond,
        "face_mean": face_mean,
        "warm_start": warm_start,
        "checkpoint_interval": checkpoint_interval,
    }


def _config_from_manifest(config: dict):
    """Invert :func:`checkpoint_config` → (grid, problem, options, kwargs)."""
    g = dict(config["grid"], extent=tuple(config["grid"]["extent"]))
    grid = (Grid3D if "nz" in g else Grid2D)(**g)
    problem = ProblemSpec(
        regions=tuple(
            RegionSpec(density=r["density"], energy=r["energy"],
                       geometry=r["geometry"], bounds=tuple(r["bounds"]))
            for r in config["problem"]["regions"]),
        name=config["problem"]["name"])
    return grid, problem, options_from_dict(config["options"])


def run_simulation(
    grid: Grid2D | Grid3D,
    problem: ProblemSpec,
    options: SolverOptions | None = None,
    *,
    dt: float = 0.04,
    n_steps: int = 1,
    nranks: int = 1,
    conductivity: Conductivity | str = Conductivity.RECIP_DENSITY,
    face_mean: str = "harmonic",
    warm_start: bool = True,
    gather_temperature: bool = True,
    checkpoint_interval: int = 0,
    max_step_retries: int = 0,
    checkpoint_dir=None,
    restore_from=None,
    total_steps: int | None = None,
    stack=None,
) -> SimulationReport:
    """Run the mini-app over an ``nranks``-rank in-process world.

    Returns the rank-0 view: per-step statistics, merged event log of rank 0
    (representative — the perfmodel scales by topology), and the gathered
    global temperature field.  ``checkpoint_interval``/``max_step_retries``
    enable step-level checkpoint/retry (see :meth:`Simulation.run`).

    Durable checkpoint/restart: ``checkpoint_dir`` commits an atomic
    on-disk checkpoint every ``checkpoint_interval`` completed steps
    (defaulting to the options' ``checkpoint_dir``/``checkpoint_interval``
    knobs when those are set); ``restore_from`` restores every rank from a
    committed ``step-*`` directory before stepping, so the run continues
    bit-identically from that checkpoint.  ``total_steps`` (default
    ``n_steps``) is what the manifest records as the run's full length —
    a restart passes the original total so further restarts stay possible.

    ``stack``: optional stack factory, the one
    :func:`~repro.solvers.ranks.solve_on_ranks` takes — ``(raw comm,
    recv_timeout) -> Stack``; each rank's :class:`Simulation` runs on
    ``stack.comm`` (e.g. the fault-injecting resilient stack), is
    instrumented with ``stack.tracer`` when it has one, and the report's
    ``stacks`` list carries the stack objects back.
    """
    opts = options if options is not None else SolverOptions()
    if checkpoint_dir is None and opts.checkpoint_dir \
            and opts.checkpoint_interval > 0:
        checkpoint_dir = opts.checkpoint_dir
    if checkpoint_dir is not None and checkpoint_interval <= 0:
        checkpoint_interval = opts.checkpoint_interval or 1
    config = None
    if checkpoint_dir is not None:
        config = checkpoint_config(
            grid, problem, opts, dt=dt,
            n_steps=total_steps if total_steps is not None else n_steps,
            nranks=nranks, conductivity=conductivity, face_mean=face_mean,
            warm_start=warm_start, checkpoint_interval=checkpoint_interval)

    timeout = opts.comm_timeout or None

    def rank_main(comm):
        stk = stack(comm, timeout) if stack is not None else Stack(comm)
        sim = Simulation(stk.comm, grid, problem, opts, dt=dt,
                         conductivity=conductivity, face_mean=face_mean,
                         warm_start=warm_start, tracer=stk.tracer)
        if restore_from is not None:
            sim.restore_from_checkpoint(restore_from)
        steps = sim.run(n_steps, checkpoint_interval=checkpoint_interval,
                        max_step_retries=max_step_retries,
                        checkpoint_dir=checkpoint_dir,
                        checkpoint_config=config)
        temp = sim.gather_temperature(root=0) if gather_temperature else None
        return steps, temp, sim.events, stk

    results = launch_spmd(rank_main, nranks, recv_timeout=timeout)
    steps0, temp0, events0, _ = results[0]
    stacks = [r[3] for r in results] if stack is not None else []
    return SimulationReport(grid=grid, dt=dt, steps=steps0,
                            temperature=temp0, events=events0,
                            stacks=stacks)


def restart_simulation(root,
                       *,
                       extra_steps: int | None = None,
                       nranks: int | None = None,
                       gather_temperature: bool = True,
                       stack=None) -> SimulationReport:
    """Resume a checkpointed run from the newest committed checkpoint.

    Rebuilds the grid, problem and solver options from the manifest's
    stored config (no deck needed), restores every rank from its shard,
    and advances the remaining ``n_steps - step`` steps — bit-identically
    to the uninterrupted run.  ``extra_steps`` overrides the remaining
    count; ``nranks`` must match the checkpoint's decomposition when
    given; ``stack`` is :func:`run_simulation`'s stack factory.  Raises
    :class:`CheckpointError` when no committed checkpoint exists or the
    run already finished.
    """
    from repro.resilience.checkpoint import latest_checkpoint, read_manifest
    step_dir = latest_checkpoint(root)
    if step_dir is None:
        raise CheckpointError(f"no committed checkpoint under {root}")
    manifest = read_manifest(step_dir)
    config = manifest.get("config") or {}
    if "grid" not in config:
        raise CheckpointError(
            f"checkpoint {step_dir} carries no run config; it was not "
            "written by run_simulation")
    grid, problem, options = _config_from_manifest(config)
    done = int(manifest["step"])
    total = int(config["n_steps"])
    remaining = extra_steps if extra_steps is not None else total - done
    if remaining < 1:
        raise CheckpointError(
            f"checkpoint {step_dir} is at step {done} of {total}: nothing "
            "left to run (pass extra_steps to continue past the end)")
    world = nranks if nranks is not None else int(manifest["nranks"])
    return run_simulation(
        grid, problem, options,
        dt=float(config["dt"]),
        n_steps=remaining,
        nranks=world,
        conductivity=config["conductivity"],
        face_mean=config["face_mean"],
        warm_start=bool(config["warm_start"]),
        gather_temperature=gather_temperature,
        checkpoint_interval=int(config["checkpoint_interval"]),
        checkpoint_dir=Path(root),
        restore_from=step_dir,
        total_steps=total,
        stack=stack,
    )
