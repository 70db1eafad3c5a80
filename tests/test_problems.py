"""Unit tests: problem specifications and region painting."""

import numpy as np
import pytest

from repro.mesh import Grid2D, Grid3D
from repro.physics import ProblemSpec, RegionSpec, crooked_pipe, hot_square, uniform_problem
from repro.utils import ConfigurationError


class TestRegionSpec:
    def test_background_mask_everywhere(self):
        m = RegionSpec(1.0, 1.0).mask(Grid2D(4, 4))
        assert m.all()

    def test_rectangle_mask_cell_centres(self):
        g = Grid2D(10, 10)  # dx=1, centres at 0.5..9.5
        r = RegionSpec(1.0, 1.0, "rectangle", (2.0, 5.0, 0.0, 10.0))
        m = r.mask(g)
        assert m[:, 2].all() and m[:, 4].all()
        assert not m[:, 1].any() and not m[:, 5].any()
        # a box on a 3-D grid: the same rectangle over 1 <= z < 3
        box = RegionSpec(1.0, 1.0, "rectangle", r.bounds + (1.0, 3.0))
        assert np.array_equal(box.mask(Grid3D(10, 10, 10)),
                              np.stack([m & (1 <= z < 3) for z in range(10)]))

    def test_circle_mask(self):
        g = Grid2D(10, 10)
        r = RegionSpec(1.0, 1.0, "circle", (5.0, 5.0, 2.0))
        m = r.mask(g)
        assert m[5, 5] and m[5, 3]
        assert not m[0, 0]

    def test_point_mask_single_cell(self):
        g = Grid2D(10, 10)
        r = RegionSpec(1.0, 1.0, "point", (3.7, 8.2))
        m = r.mask(g)
        assert m.sum() == 1
        assert m[8, 3]

    def test_point_clamped_to_grid(self):
        g = Grid2D(4, 4)
        m = RegionSpec(1.0, 1.0, "point", (10.0, 10.0)).mask(g)
        assert m[3, 3]

    def test_wrong_bounds_count(self):
        with pytest.raises(ConfigurationError):
            RegionSpec(1.0, 1.0, "rectangle", (0.0, 1.0))
        with pytest.raises(ConfigurationError):
            RegionSpec(1.0, 1.0, "circle", (0.0, 1.0))
        # the bounds count must match the grid painted: 4 in 2-D, 6 in 3-D
        flat = RegionSpec(1.0, 1.0, "rectangle", (0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ConfigurationError):
            flat.mask(Grid3D(4, 4, 4))
        with pytest.raises(ConfigurationError):   # circles are 2-D
            RegionSpec(1.0, 1.0, "circle", (5.0, 5.0, 2.0)).mask(
                Grid3D(4, 4, 4))

    def test_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            RegionSpec(1.0, 1.0, "triangle", ())

    def test_nonpositive_density_energy(self):
        with pytest.raises(ConfigurationError):
            RegionSpec(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            RegionSpec(1.0, -1.0)


class TestProblemSpec:
    def test_later_regions_overwrite(self):
        spec = ProblemSpec(regions=(
            RegionSpec(1.0, 1.0),
            RegionSpec(5.0, 2.0, "rectangle", (0.0, 5.0, 0.0, 10.0)),
        ))
        density, energy = spec.paint(Grid2D(10, 10))
        assert np.all(density[:, :5] == 5.0)
        assert np.all(density[:, 5:] == 1.0)
        assert np.all(energy[:, :5] == 2.0)

    def test_first_must_be_background(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec(regions=(
                RegionSpec(1.0, 1.0, "rectangle", (0, 1, 0, 1)),))

    def test_needs_regions(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec(regions=())


class TestCannedProblems:
    def test_crooked_pipe_structure(self):
        spec = crooked_pipe()
        density, energy = spec.paint(Grid2D(100, 100))
        # dense background, low-density pipe
        assert density.max() == 100.0
        assert density.min() == pytest.approx(0.1)
        # the pipe spans the domain: low density at entry and exit rows
        assert density[15, 0] == pytest.approx(0.1)   # y~1.5, x~0 entry
        assert density[75, 99] == pytest.approx(0.1)  # y~7.5, x~10 exit
        # hot source in the first segment only
        assert energy[15, 5] == pytest.approx(25.0)
        assert energy[15, 30] == pytest.approx(0.1)

    def test_crooked_pipe_is_connected(self):
        density, _ = crooked_pipe().paint(Grid2D(200, 200))
        pipe = density < 1.0
        # flood fill from the entry cell; must reach the exit
        from collections import deque

        seen = np.zeros_like(pipe)
        q = deque([(30, 0)])  # a pipe cell on the left edge
        assert pipe[30, 0]
        seen[30, 0] = True
        while q:
            k, j = q.popleft()
            for dk, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                kk, jj = k + dk, j + dj
                if (0 <= kk < 200 and 0 <= jj < 200 and pipe[kk, jj]
                        and not seen[kk, jj]):
                    seen[kk, jj] = True
                    q.append((kk, jj))
        assert seen[150, 199]  # exit cell (y=7.5, x right edge)

    def test_uniform(self):
        density, energy = uniform_problem(2.0, 3.0).paint(Grid2D(4, 4))
        assert np.all(density == 2.0) and np.all(energy == 3.0)

    def test_hot_square(self):
        density, energy = hot_square().paint(Grid2D(10, 10))
        assert energy[5, 5] == 10.0
        assert energy[0, 0] == pytest.approx(0.01)
