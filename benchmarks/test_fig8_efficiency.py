"""Fig. 8 shape check: scaling efficiency of the best config per machine.

Paper: Spruce's CPPCG "maintains super linear scaling up to 512 nodes,
beating both Piz Daint and Titan in terms of ... scaling efficiency", and
"the scaling on Piz Daint is consistently higher than Titan on higher node
counts" (Aries vs Gemini).
"""

import math

from repro.harness.fig8 import run_fig8


def test_fig8_efficiency(benchmark):
    fig = benchmark.pedantic(run_fig8, iterations=1, rounds=1)
    nodes = fig.node_counts

    spruce = fig.series["Spruce - PPCG - 1 (MPI)"]
    piz = fig.series["Piz Daint - PPCG - 16 (CUDA)"]
    titan = fig.series["Titan - PPCG - 16 (CUDA)"]

    # Spruce super-linear (cache effect) and sustained through 512 nodes
    finite_spruce = [v for v in spruce if not math.isnan(v)]
    assert max(finite_spruce) > 1.3
    assert spruce[nodes.index(512)] > 0.9

    # Spruce efficiency beats both GPU machines where it exists
    for i, v in enumerate(spruce):
        if not math.isnan(v) and nodes[i] >= 32:
            assert v > titan[i]

    # Piz Daint >= Titan at every shared node count (interconnect effect),
    # with a visible gap at high node counts
    for i, p in enumerate(piz):
        if not math.isnan(p):
            assert p >= titan[i] - 1e-9
    assert piz[nodes.index(2048)] > 1.15 * titan[nodes.index(2048)]
