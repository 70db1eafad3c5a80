"""Fig. 4 shape check: mean temperature at convergence vs mesh size.

Paper: "as the size of the mesh increases, the average temperature that the
mesh converges to stops changing" — the justification for fixing the
strong-scaling study at 4000x4000.  We assert the refinement deltas shrink.
"""

from repro.harness.fig4 import run_fig4


def test_fig4_mesh_convergence(benchmark):
    result = benchmark.pedantic(run_fig4, iterations=1, rounds=1)
    deltas = result.deltas()

    # successive refinement changes the answer less and less
    assert deltas[-1] < deltas[0]
    late = sum(deltas[-2:]) / 2
    early = sum(deltas[:2]) / 2
    assert late < early
