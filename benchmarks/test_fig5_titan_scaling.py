"""Fig. 5 shape check: CUDA strong scaling on Titan (1-8192 nodes).

Series: CG-1, PPCG-1/4/8/16 on the 4000x4000 crooked pipe.  Iteration counts
are measured from real solves and extrapolated; wall-clock comes from the
calibrated Titan model.  Shape assertions encode the paper's findings.
"""

import numpy as np

from repro.harness.fig5 import run_fig5


def test_fig5_titan_scaling(benchmark):
    fig = benchmark.pedantic(run_fig5, iterations=1, rounds=1)
    nodes = fig.node_counts

    # "the CPPCG method strong scales significantly better than CG"
    assert fig.value("PPCG - 16", 8192) < fig.value("CG - 1", 8192) / 2

    # "improvements in performance still increasing at halo depths of 16"
    at_scale = {d: fig.value(f"PPCG - {d}", 8192) for d in (1, 4, 8, 16)}
    assert at_scale[16] < at_scale[8] < at_scale[4] < at_scale[1]

    # "TeaLeaf scaling plateaued once we reached 1,024 nodes on Titan":
    # the CG knee sits around 512-1024 and adding nodes then hurts
    cg = fig.series["CG - 1"]
    knee = nodes[int(np.argmin(cg))]
    assert 256 <= knee <= 2048
    assert cg[-1] > min(cg)

    # every line strong-scales well in the early regime (1 -> 64 nodes)
    for label, vals in fig.series.items():
        assert vals[0] / vals[nodes.index(64)] > 20

    # anchor: "4.26 seconds at 8,192 nodes" for the best CUDA config
    assert abs(fig.value("PPCG - 16", 8192) - 4.26) / 4.26 < 0.2
