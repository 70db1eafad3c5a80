"""Fig. 6 shape check: CUDA strong scaling on Piz Daint (1-2048 nodes).

The paper's headline comparison: at 2048 nodes Piz Daint runs in 2.79 s vs
Titan's 4.09 s on identical GPUs — "this 47% strong scaling performance
improvement can be attributed to the fully connected network on Piz Daint".
"""

from repro.harness.fig5 import run_fig5
from repro.harness.fig6 import run_fig6


def test_fig6_pizdaint_scaling(benchmark):
    fig = benchmark.pedantic(run_fig6, iterations=1, rounds=1)

    # same qualitative ordering as Titan
    at_scale = {d: fig.value(f"PPCG - {d}", 2048) for d in (1, 4, 8, 16)}
    assert at_scale[16] < at_scale[1]
    assert fig.value("PPCG - 16", 2048) < fig.value("CG - 1", 2048)

    # anchor: 2.79 s at 2048 nodes
    assert abs(fig.value("PPCG - 16", 2048) - 2.79) / 2.79 < 0.2

    # the interconnect effect: Titan slower at the same node count
    titan = run_fig5()
    ratio = titan.value("PPCG - 16", 2048) / fig.value("PPCG - 16", 2048)
    assert 1.2 < ratio < 1.9  # paper: 1.47
