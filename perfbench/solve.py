"""The three solver workloads: one op is one converged ``solve_linear``.

Every op runs the way ``repro.testing.distributed_solve`` does — a rank
function under ``launch_spmd`` that builds the rank-local operator from
the global face coefficients and solves — so the 2-rank ops include the
thread spawn and join a caller pays, and the 1-rank op runs inline on a
``SerialComm`` with no thread at all.
"""

from __future__ import annotations

import functools
import json
import resource
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.comm import launch_spmd
from repro.kernels import get_backend
from repro.mesh import Field, decompose
from repro.solvers import (SolverOptions, StencilOperator2D, embed_global,
                           solve_linear)
from repro.testing import crooked_pipe_system

from perfbench import ladder
from perfbench.proxies import (Recorder, TracedComm, TracedExchanger,
                               TracedKernels)
from perfbench.spec import EPS, OUT, QUICK_MESH, median
from perfbench.verify import Referee

#: name -> (mesh, ranks, solver options, warm-up ops, their iteration cap)
SOLVE_WORKLOADS = {
    # A full 512² warm-up would cost a whole op (12 s); 50 iterations
    # touch every array and fill the allocator's pools just as well.
    "cg_serial_512": (512, 1, {"solver": "cg"}, 1, 50),
    "cg_ranks2_256": (256, 2, {"solver": "cg"}, 2, None),
    "cppcg_ranks2_256": (256, 2, {"solver": "ppcg", "ppcg_inner_steps": 10,
                                  "halo_depth": 4}, 2, None),
}


@dataclass
class Measured:
    """What one timed region produced, before any metric is derived."""

    op_seconds: list = field(default_factory=list)
    window_s: float = 0.0
    #: ops that passed the correctness gate
    ok_ops: int = 0
    #: Σ mesh cells × total iterations, and Σ op time, over verified solves
    cell_updates: float = 0.0
    solve_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    failures: list = field(default_factory=list)
    #: exact, non-timing facts (must repeat run to run)
    counts: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Op:
    seconds: float
    x: np.ndarray
    result: object            #: rank 0's SolveResult
    rank_seconds: list        #: each rank's time inside solve_linear
    minor_faults: int = 0


class SolveWorkload:
    def __init__(self, name: str, quick: bool = False):
        mesh, self.ranks, options, warmups, cap = SOLVE_WORKLOADS[name]
        self.name = name
        self.mesh = QUICK_MESH if quick else mesh
        self.options = SolverOptions(eps=EPS, **options)
        self.warmup_ops = 1 if quick else warmups
        self.warmup_options = self.options if cap is None else \
            SolverOptions(eps=EPS, max_iters=cap, **options)
        self.ladder_calls = 5 if quick else ladder.CALLS
        self.referee = Referee()

    def setup(self) -> None:
        self.grid, self.kxg, self.kyg, self.bg = crooked_pipe_system(self.mesh)
        self.tiles = decompose(self.grid, self.ranks)
        for _ in range(self.warmup_ops):
            self.solve(options=self.warmup_options)

    def close(self) -> None:
        pass

    # -- one op -----------------------------------------------------------------

    def solve(self, recorders=None, options=None) -> Op:
        """One op; with ``recorders`` (one per rank) it is traced."""
        options = options if options is not None else self.options
        halo = options.required_field_halo

        def rank_main(comm):
            tile = self.tiles[comm.rank]
            rec = recorders[comm.rank] if recorders is not None else None
            if rec is None:
                solve = solve_linear
                op = StencilOperator2D.from_global_faces(
                    tile, halo, self.kxg, self.kyg, comm)
            else:
                solve = functools.partial(rec.call, "solve", "solvers",
                                          solve_linear)
                traced = TracedComm(comm, rec)
                kernels = TracedKernels(
                    get_backend(options.kernel_backend), rec)
                kx, ky = Field(tile, halo), Field(tile, halo)
                embed_global(kx.data, self.kxg, tile.y0 - halo, tile.x0 - halo)
                embed_global(ky.data, self.kyg, tile.y0 - halo, tile.x0 - halo)
                op = StencilOperator2D(
                    kx=kx, ky=ky, comm=traced, kernels=kernels,
                    exchanger=TracedExchanger(traced, kernels=kernels,
                                              rec=rec))
            b = Field.from_global(tile, halo, self.bg)
            t0 = perf_counter()
            result = solve(op, b, options=options)
            return result, perf_counter() - t0

        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = perf_counter()
        out = launch_spmd(rank_main, self.ranks)
        seconds = perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        x = np.zeros(self.grid.shape)
        for tile, (result, _) in zip(self.tiles, out):
            x[tile.global_slices] = result.x.interior
        return Op(seconds, x, out[0][0], [s for _, s in out], faults)

    # -- the untraced, timed region -----------------------------------------------

    def measure(self, n_ops: int) -> tuple[Measured, list]:
        m, ops = self.timed_ops(n_ops)
        self.judge(ops, m)
        return m, ops

    def timed_ops(self, n_ops: int) -> tuple[Measured, list]:
        m = Measured()
        t0 = perf_counter()
        ops = [self.solve() for _ in range(n_ops)]
        m.window_s = perf_counter() - t0
        m.peak_rss_mb = peak_rss_mb()
        m.op_seconds = [op.seconds for op in ops]
        return m, ops

    def judge(self, ops: list, m: Measured) -> float:
        """Verify ``ops`` into ``m``; returns the worst true residual."""
        worst = 0.0
        iterations = set()
        for i, op in enumerate(ops):
            r = op.result
            why, residual = self.referee.check(self.mesh, op.x)
            worst = max(worst, residual)
            if not why and not r.converged:
                why = "solver reports not converged"
            iterations.add((r.iterations, r.inner_iterations,
                            r.warmup_iterations))
            if why:
                m.failures.append(f"{self.name} op {i}: {why}")
                continue
            m.ok_ops += 1
            m.cell_updates += self.grid.nx * self.grid.ny * r.total_iterations
            m.solve_seconds += op.seconds
        if len(iterations) != 1:
            m.failures.append(f"{self.name}: iteration counts differ "
                              f"between ops: {sorted(iterations)}")
        outer, inner, warmup = sorted(iterations)[0]
        m.counts.update(ops=len(ops), outer_iterations=outer,
                        inner_iterations=inner, warmup_iterations=warmup)
        return worst

    # -- the traced run -----------------------------------------------------------

    def layers(self, n_ops: int) -> tuple[Measured, dict]:
        """Untraced ops, then traced ops, then the ladder, then the referee."""
        # The traced ops and the ladder must find the heap as the plain
        # ops did (see Recorder): recorders are allocated before any op,
        # and nothing is verified until all is measured — the referee's
        # assembly frees blocks big enough to raise glibc's trim
        # threshold, after which cg_serial_512 runs 40 % faster.
        recorders = [Recorder(rank) for rank in range(self.ranks)]
        n_plain = max(1, n_ops // 3)
        m, plain = self.timed_ops(n_plain)
        traced = []
        for op_id in range(max(2, n_ops - n_plain)):
            for rec in recorders:
                rec.op_id = op_id
            traced.append(self.solve(recorders))
        m.op_seconds += [op.seconds for op in traced]
        rungs = ladder.tile_rungs(
            self.mesh, self.ranks, self.options.required_field_halo,
            self.ladder_calls)
        worst = self.judge(plain + traced, m)
        write_trace(self.name, recorders)

        rank0 = span_totals(recorders[0])
        for t, op in zip(rank0, traced):
            # the exchanger's own account of what it moved (send + recv)
            t["halo_bytes"] = int(op.result.events.total("halo_exchange",
                                                         "bytes"))
        exact_keys = ("kernel_calls", "kernel_bytes", "halo_calls",
                      "halo_bytes", "allreduces", "p2p_msgs", "p2p_bytes")
        one = rank0[0]
        if any(t[k] != one[k] for t in rank0 for k in exact_keys):
            m.failures.append(f"{self.name}: per-op counts differ between ops")
        m.counts.update({k: one[k] for k in exact_keys})

        def per_op(key):
            return median([t[key] for t in rank0])

        traced_p50 = median([op.seconds for op in traced])
        total_iterations = traced[0].result.total_iterations
        values = {
            "kernels.calls_per_op": one["kernel_calls"],
            "kernels.busy_s_per_op": per_op("kernel_s"),
            "kernels.bytes_computed_per_op": one["kernel_bytes"],
            "kernels.minor_faults_per_op":
                median([op.minor_faults for op in traced]),
            "kernels.pack_unpack_s_per_op": per_op("pack_unpack_s"),
            "halo.exchanges_per_op": one["halo_calls"],
            "halo.bytes_per_op": one["halo_bytes"],
            "halo.busy_s_per_op": per_op("halo_s"),
            "comm.allreduces_per_op": one["allreduces"],
            "comm.p2p_msgs_per_op": one["p2p_msgs"],
            "comm.p2p_bytes_per_op": one["p2p_bytes"],
            "comm.allreduce_s_per_op": per_op("allreduce_s"),
            "comm.p2p_s_per_op": per_op("p2p_s"),
            "comm.wait_frac": median(
                [(t["allreduce_s"] + t["p2p_s"]) / t["solve_s"]
                 for t in rank0]),
            "comm.rank_skew_s": median(
                [max(op.rank_seconds) - min(op.rank_seconds)
                 for op in traced]),
            "solvers.outer_iterations": m.counts["outer_iterations"],
            "solvers.inner_iterations": m.counts["inner_iterations"],
            "solvers.warmup_iterations": m.counts["warmup_iterations"],
            "solvers.s_per_matvec": traced_p50 / total_iterations,
            "solvers.loop_self_s_per_op": per_op("self_s"),
            "solvers.loop_self_frac": median(
                [t["self_s"] / t["solve_s"] for t in rank0]),
            "solvers.true_rel_residual_max": worst,
            "trace.overhead_frac":
                traced_p50 / median([op.seconds for op in plain]) - 1.0,
        }
        values.update(rungs)
        return m, values


def span_totals(rec: Recorder) -> list:
    """Per op of one rank: time and calls in each layer, and self time.

    A layer's busy time is the sum of its spans; the solver loop's self
    time is the op's root span minus the spans it called directly.
    """
    per_op: dict = {}
    spans = rec.spans
    for name, layer, _rank, op_id, parent, t0, t1 in spans:
        t = per_op.setdefault(op_id, dict(
            solve_s=0.0, children_s=0.0, kernel_s=0.0, kernel_calls=0,
            pack_unpack_s=0.0, halo_s=0.0, halo_calls=0, allreduce_s=0.0,
            allreduces=0, p2p_s=0.0, p2p_msgs=0))
        d = t1 - t0
        if layer == "solvers":
            t["solve_s"] = d
        elif layer == "kernels":
            t["kernel_s"] += d
            t["kernel_calls"] += 1
            if name in ("pack_halo", "unpack_halo"):
                t["pack_unpack_s"] += d
        elif layer == "halo":
            t["halo_s"] += d
            t["halo_calls"] += 1
        elif name == "allreduce":
            t["allreduce_s"] += d
            t["allreduces"] += 1
        elif name in ("send", "recv"):
            t["p2p_s"] += d
            t["p2p_msgs"] += name == "send"
        if parent >= 0 and spans[parent][1] == "solvers":
            t["children_s"] += d
    for op_id, t in per_op.items():
        t["self_s"] = t["solve_s"] - t["children_s"]
        t["kernel_bytes"] = int(rec.kernel_bytes[op_id])
        t["p2p_bytes"] = int(rec.p2p_bytes[op_id])
    return [per_op[op_id] for op_id in sorted(per_op)]


def write_trace(name: str, recorders: list) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    keys = ("name", "layer", "rank", "op_id", "parent", "t_start", "t_end")
    with open(OUT / f"trace_{name}.jsonl", "w") as fh:
        for rec in recorders:
            for sid, span in enumerate(rec.spans):
                fh.write(json.dumps({"id": sid, **dict(zip(keys, span))}))
                fh.write("\n")
