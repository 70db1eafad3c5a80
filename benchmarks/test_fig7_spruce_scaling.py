"""Fig. 7 shape check: MPI and hybrid strong scaling on Spruce (CPU).

Paper findings encoded below:
- "The PETSc CG with BoomerAMG preconditioner implementation is the fastest
  at low node counts (1-8 for hybrid, 1-64 for flat MPI)";
- "our CPPCG solver's communication avoiding approach provides greater
  strong scaling capability from 128 nodes onwards";
- "PETSc+BoomerAMG's strong scaling performance peaks at just 32 nodes";
- "TeaLeaf's CPPCG solver continues to improve in performance all the way
  up to 512 nodes";
- "its hybrid and flat MPI versions delivering near identical performance";
- "At 512 nodes the CPPCG implementation delivers twice the performance of
  the best PETSc+BoomerAMG configuration".
"""

import numpy as np

from repro.harness.fig7 import run_fig7


def test_fig7_spruce_scaling(benchmark):
    fig = benchmark.pedantic(run_fig7, iterations=1, rounds=1)
    nodes = fig.node_counts

    # baseline fastest at low node counts
    for n in (1, 2, 4, 8):
        assert fig.value("BoomerAMG (MPI)", n) < fig.value("CG - 1 (MPI)", n)
        assert fig.value("BoomerAMG (MPI)", n) < fig.value("PPCG - 1 (MPI)", n)

    # CPPCG overtakes the baseline by 128 nodes and keeps scaling
    assert fig.value("PPCG - 1 (MPI)", 128) < fig.value("BoomerAMG (MPI)", 128)
    ppcg = fig.series["PPCG - 1 (MPI)"]
    assert nodes[int(np.argmin(ppcg))] >= 512

    # the baseline's best configuration peaks early (paper: 32 nodes)
    amg_h = fig.series["BoomerAMG (Hybrid)"]
    assert nodes[int(np.argmin(amg_h))] <= 64
    assert amg_h[-1] > min(amg_h) * 1.5

    # hybrid ~ flat MPI for CPPCG
    for n in (64, 256, 1024):
        h = fig.value("PPCG - 1 (Hybrid)", n)
        f = fig.value("PPCG - 1 (MPI)", n)
        assert 0.5 < h / f < 2.0

    # ~2x over the best baseline at 512 nodes
    best_amg_512 = min(fig.value("BoomerAMG (Hybrid)", 512),
                       fig.value("BoomerAMG (MPI)", 512))
    best_ppcg_512 = min(fig.value("PPCG - 1 (Hybrid)", 512),
                        fig.value("PPCG - 1 (MPI)", 512))
    assert 1.5 < best_amg_512 / best_ppcg_512 < 4.0
