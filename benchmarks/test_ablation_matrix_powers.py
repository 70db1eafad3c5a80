"""Ablation: the matrix powers kernel trade (paper §IV-C2, Figs. 1-2).

On a real decomposed run, deeper halos must cut the exchange count by the
depth factor while adding redundant stencil work and larger messages —
"we communicate approximately n times as much data at halo exchange, but we
do this n times less frequently, so the total amount of data communicated
will be the same while messages become larger".
"""

import math

import pytest

from repro.solvers import SolverOptions
from repro.solvers.ranks import instrumented_stack, solve_on_ranks

from benchmarks.conftest import write_result
from tests.helpers import crooked_pipe_system

N = 64
INNER = 16
DEPTHS = (1, 2, 4, 8)
_rows = {}


def run_depth(depth):
    g, *faces, bg = crooked_pipe_system(N)
    run = solve_on_ranks(
        g, faces, bg,
        SolverOptions(solver="ppcg", eps=1e-9, ppcg_inner_steps=INNER,
                      halo_depth=depth),
        4, factors=(2, 2), stack=instrumented_stack)
    return run.result, run.events


@pytest.mark.parametrize("depth", DEPTHS)
def test_depth(benchmark, depth):
    result, log = benchmark.pedantic(run_depth, args=(depth,),
                                     iterations=1, rounds=1)
    assert result.converged
    _rows[depth] = {
        "outer": result.iterations,
        "deep_exchanges": log.count("halo_exchange", depth),
        "bytes": log.total("halo_exchange", "bytes"),
        "matvec_cells": log.total("matvec", "cells"),
    }


def test_matrix_powers_trade(benchmark):
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    assert set(_rows) == set(DEPTHS)
    outers = {d: _rows[d]["outer"] for d in DEPTHS}
    # identical algebra at every depth: same outer iteration counts
    assert len(set(outers.values())) == 1

    # exchange count drops ~ by the depth factor.  (At depth 1 the counter
    # also catches the outer/warm-up depth-1 exchanges, so it is a lower
    # bound there; deeper halos are uniquely tagged by their depth.)
    applies = outers[1] + 1
    per_apply = {d: _rows[d]["deep_exchanges"] / applies for d in DEPTHS}
    assert per_apply[1] >= INNER
    for d in DEPTHS[1:]:
        assert per_apply[d] == pytest.approx(math.ceil(INNER / d), abs=0.01)

    # total bytes roughly conserved (within 2x: corner overhead + 2-field
    # blocks), while redundant compute grows with depth
    assert _rows[8]["bytes"] < 2.5 * _rows[1]["bytes"]
    cells = [_rows[d]["matvec_cells"] for d in DEPTHS]
    assert all(a < b for a, b in zip(cells, cells[1:]))

    lines = ["depth,outer,deep_exchanges,halo_bytes,matvec_cells"]
    for d in DEPTHS:
        r = _rows[d]
        lines.append(f"{d},{r['outer']},{r['deep_exchanges']},"
                     f"{r['bytes']:.0f},{r['matvec_cells']:.0f}")
    write_result("ablation_matrix_powers.csv", "\n".join(lines))
    print("\n" + "\n".join(lines))
