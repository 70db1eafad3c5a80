"""Fig. 3 shape check: the crooked-pipe temperature field at t = 15.

Paper: 4000x4000 after 15 us, rendered as a heat map — "heat travels faster
along this [pipe] area than elsewhere in the domain".  We run the same
physics at a reduced mesh (Fig. 4 shows the field is mesh-converged far
below 4000) and assert the structural facts the figure communicates.
"""

import numpy as np

from repro.harness.fig3 import run_fig3


def test_fig3_crooked_pipe(benchmark):
    result = benchmark.pedantic(run_fig3, iterations=1, rounds=1)
    T = result.temperature
    pipe = result.pipe_mask()

    # heat races down the pipe: pipe is much hotter than the dense material
    assert T[pipe].mean() > 3 * T[~pipe].mean()

    # the source region (pipe inlet) is the hottest area
    n = result.mesh_n
    inlet = T[int(0.15 * n), : int(0.1 * n)].mean()
    assert inlet >= 0.9 * T.max()

    # heat decays along the pipe path (inlet -> first kink -> exit arm)
    first_leg = T[int(0.15 * n), int(0.3 * n)]
    exit_leg = T[int(0.75 * n), int(0.9 * n)]
    assert inlet > first_leg > exit_leg

    # insulated box: the domain mean equals the initial mean
    from repro.mesh import Grid2D
    from repro.physics import crooked_pipe, global_initial_state
    _, _, u0 = global_initial_state(Grid2D(n, n), crooked_pipe())
    assert T.mean() == np.float64(T.mean())
    assert abs(T.mean() - u0.mean()) < 1e-6 * u0.mean() + 1e-12
