"""Problem specifications: initial density/energy regions.

TeaLeaf initialises its state from a list of regions ("states" in the input
deck): state 1 is the background, later states paint rectangles, circles or
points over it.  The paper's benchmark is the **crooked pipe** (Fig. 3): a
dense, poorly conducting material crossed by a low-density, highly conducting
pipe with two kinks, with a hot source at the pipe inlet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.mesh.grid import Grid2D, Grid3D
from repro.utils.validation import check_in, check_positive, require


@dataclass(frozen=True)
class RegionSpec:
    """One "state" line of a TeaLeaf deck.

    ``geometry`` is ``"background"`` (fills everything; must be first),
    ``"rectangle"`` (``bounds = (xmin, xmax, ymin, ymax[, zmin, zmax])``:
    a box when painted on a 3-D grid), ``"circle"`` (``bounds = (cx, cy,
    radius)``) or ``"point"`` (``bounds = (x, y)``); circles and points
    are 2-D.  Cells are painted when their centre lies inside the region,
    matching TeaLeaf's cell-centred initialisation.
    """

    density: float
    energy: float
    geometry: str = "background"
    bounds: tuple = ()

    def __post_init__(self):
        check_positive("density", self.density)
        check_positive("energy", self.energy)
        check_in("geometry", self.geometry,
                 ("background", "rectangle", "circle", "point"))
        need = {"background": (0,), "rectangle": (4, 6), "circle": (3,),
                "point": (2,)}[self.geometry]
        require(len(self.bounds) in need,
                f"{self.geometry} region needs "
                f"{' or '.join(map(str, need))} bounds, "
                f"got {len(self.bounds)}")

    def mask(self, grid: Grid2D | Grid3D) -> np.ndarray:
        """Boolean array of cells whose centres fall inside this region."""
        if self.geometry == "background":
            return np.ones(grid.shape, dtype=bool)
        centers = grid.cell_centers()
        if self.geometry == "rectangle":
            require(len(self.bounds) == 2 * len(centers),
                    f"a rectangle on a {len(centers)}-D grid needs "
                    f"{2 * len(centers)} bounds, got {len(self.bounds)}")
            inside = np.ones(grid.shape, dtype=bool)
            for C, lo, hi in zip(centers, self.bounds[::2], self.bounds[1::2]):
                inside &= (C >= lo) & (C < hi)
            return inside
        require(len(centers) == 2,
                f"{self.geometry} regions are 2-D; paint a 3-D grid with "
                "rectangles")
        X, Y = centers
        if self.geometry == "circle":
            cx, cy, r = self.bounds
            return (X - cx) ** 2 + (Y - cy) ** 2 <= r * r
        # point: the single cell containing (x, y)
        x, y = self.bounds
        j = min(int((x - grid.extent[0]) / grid.dx), grid.nx - 1)
        k = min(int((y - grid.extent[2]) / grid.dy), grid.ny - 1)
        m = np.zeros(grid.shape, dtype=bool)
        m[k, j] = True
        return m


@dataclass(frozen=True)
class ProblemSpec:
    """An ordered list of regions; later regions overwrite earlier ones."""

    regions: tuple[RegionSpec, ...]
    name: str = "problem"

    def __post_init__(self):
        require(len(self.regions) >= 1, "at least one region required")
        require(self.regions[0].geometry == "background",
                "first region must be the background state")

    def paint(self, grid: Grid2D | Grid3D) -> tuple[np.ndarray, np.ndarray]:
        """Rasterise to global ``(density, energy)`` arrays of grid shape."""
        density = np.empty(grid.shape)
        energy = np.empty(grid.shape)
        for region in self.regions:
            m = region.mask(grid)
            density[m] = region.density
            energy[m] = region.energy
        return density, energy


def crooked_pipe() -> ProblemSpec:
    """The paper's benchmark problem (TeaLeaf ``tea_bm_5``-style deck).

    A 10x10 box of dense material (rho = 100, kappa = 1/rho = 0.01) crossed by a
    low-density pipe (rho = 0.1, kappa = 10) running (0,1.5)->(6,1.5) up to
    (5.5,7.5) and out to (10,7.5); a hot source (energy 25) fills the first
    pipe segment.  Use with ``Conductivity.RECIP_DENSITY``.
    """
    return ProblemSpec(
        name="crooked_pipe",
        regions=(
            RegionSpec(density=100.0, energy=0.0001),
            RegionSpec(density=0.1, energy=25.0,
                       geometry="rectangle", bounds=(0.0, 1.0, 1.0, 2.0)),
            RegionSpec(density=0.1, energy=0.1,
                       geometry="rectangle", bounds=(1.0, 6.0, 1.0, 2.0)),
            RegionSpec(density=0.1, energy=0.1,
                       geometry="rectangle", bounds=(5.0, 6.0, 1.0, 8.0)),
            RegionSpec(density=0.1, energy=0.1,
                       geometry="rectangle", bounds=(5.0, 10.0, 7.0, 8.0)),
        ),
    )


def crooked_duct_3d() -> ProblemSpec:
    """A 3-D analogue of the crooked pipe: the same kinked low-density
    duct, extruded over ``1 <= z < 2``, through the dense block."""
    background, *pipe = crooked_pipe().regions
    return ProblemSpec(
        name="crooked_duct_3d",
        regions=(background, *(
            RegionSpec(r.density, r.energy, "rectangle",
                       r.bounds + (1.0, 2.0)) for r in pipe)))


#: Conductivity jumps of the numerical-stability battery (paper §VIII asks
#: how the solver family behaves "at extreme condition numbers"; these
#: decks answer it for the numerics layer).
STABILITY_JUMPS = (1e4, 1e6, 1e8, 1e10)


def crooked_pipe_jump(jump: float = 1e3) -> ProblemSpec:
    """Crooked pipe with a parameterised conductivity jump.

    The stock :func:`crooked_pipe` has a fixed pipe/background conductivity
    ratio of 1e3 (rho 100 vs 0.1 under ``RECIP_DENSITY``).  This variant
    keeps the same geometry but splits a requested ``jump`` symmetrically
    about the stock geometric mean (rho = sqrt(10)): densities
    ``sqrt(10) * sqrt(jump)`` (background) and ``sqrt(10) / sqrt(jump)``
    (pipe), so the
    face-coefficient contrast — and with it the spread of the operator
    spectrum — scales directly with ``jump``.  ``crooked_pipe_jump(1e3)``
    reproduces the benchmark densities exactly.  Jumps of 1e4-1e10
    (:data:`STABILITY_JUMPS`) drive the ill-conditioned battery behind
    :mod:`repro.harness.stability_sweep`.
    """
    check_positive("jump", jump)
    s = float(np.sqrt(jump))
    mean = float(np.sqrt(10.0))
    background, *pipe = crooked_pipe().regions
    return ProblemSpec(
        name=f"crooked_pipe[jump={jump:g}]",
        regions=(replace(background, density=mean * s),
                 *(replace(r, density=mean / s) for r in pipe)))


def stability_battery(jumps: tuple = STABILITY_JUMPS) -> tuple[ProblemSpec, ...]:
    """The ill-conditioned problem battery: one crooked pipe per jump."""
    return tuple(crooked_pipe_jump(j) for j in jumps)


def uniform_problem(density: float = 1.0, energy: float = 1.0) -> ProblemSpec:
    """Homogeneous medium — the simplest well-conditioned test problem."""
    return ProblemSpec(name="uniform",
                       regions=(RegionSpec(density=density, energy=energy),))


def hot_square(background_density: float = 1.0,
               square_density: float = 1.0,
               energy: float = 10.0,
               bounds: tuple = (4.0, 6.0, 4.0, 6.0)) -> ProblemSpec:
    """A hot square in a cold box — a quick visual diffusion demo."""
    return ProblemSpec(
        name="hot_square",
        regions=(
            RegionSpec(density=background_density, energy=0.01),
            RegionSpec(density=square_density, energy=energy,
                       geometry="rectangle", bounds=bounds),
        ),
    )
