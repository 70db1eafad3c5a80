"""The correctness gate: every op's solution is checked, outside timing.

The referee is independent of the solve being judged: the global CSR
matrix comes from ``StencilOperator2D.assemble_sparse`` on freshly built
coefficients, and for meshes up to 128² the answer is also compared with
scipy's direct solve (``repro.testing.reference_solution``).
"""

from __future__ import annotations

import numpy as np

from repro.solvers import StencilOperator2D
from repro.testing import crooked_pipe_system, reference_solution

from perfbench.spec import EPS

#: ``‖b − A x‖ / ‖b‖`` may exceed the solver's tolerance by this factor
#: (the solver stops on the recurrence residual, which drifts slightly).
RESIDUAL_SLACK = 10.0
#: meshes up to this size are also compared with the direct solve
DIRECT_MAX_MESH = 128
#: ``‖x − x_direct‖ / ‖x_direct‖`` allowed at EPS = 1e-10; the measured
#: value is below 1e-9 on every mesh the benchmark uses.
DIRECT_TOLERANCE = 1e-7


class Referee:
    """Checks solutions of the crooked-pipe system at any mesh size."""

    def __init__(self):
        self._systems: dict = {}

    def _system(self, mesh: int):
        if mesh not in self._systems:
            _, kxg, kyg, bg = crooked_pipe_system(mesh)
            matrix = StencilOperator2D.assemble_sparse(kxg, kyg)
            direct = (reference_solution(kxg, kyg, bg)
                      if mesh <= DIRECT_MAX_MESH else None)
            self._systems[mesh] = (matrix, bg, direct)
        return self._systems[mesh]

    def check(self, mesh: int, x) -> tuple[str, float]:
        """``(why it fails or "", true relative residual)`` for ``x``."""
        matrix, bg, direct = self._system(mesh)
        if x is None or np.shape(x) != bg.shape:
            return f"solution missing or of shape {np.shape(x)}", float("inf")
        residual = float(np.linalg.norm(bg.ravel() - matrix @ x.ravel())
                         / np.linalg.norm(bg))
        if not residual <= RESIDUAL_SLACK * EPS:
            return f"true relative residual {residual:.3e}", residual
        if direct is not None:
            error = float(np.linalg.norm(x - direct)
                          / np.linalg.norm(direct))
            if not error <= DIRECT_TOLERANCE:
                return f"differs from the direct solve by {error:.3e}", residual
        return "", residual
