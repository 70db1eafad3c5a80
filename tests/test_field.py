"""Unit tests: halo-padded fields, 2-D and 3-D (one class: the in-place
update tests run on a tile of each dimension)."""

import copy
import pickle

import numpy as np
import pytest

from repro.kernels import get_backend
from repro.mesh import Field, Grid2D, Grid3D, decompose
from repro.utils import ConfigurationError

from tests.helpers import bits


def tile_1rank(nx=8, ny=6):
    return decompose(Grid2D(nx, ny), 1)[0]


class TestFieldConstruction:
    def test_allocates_padded_zeros(self):
        f = Field(tile_1rank(), halo=2)
        assert f.data.shape == (6 + 4, 8 + 4)
        assert np.all(f.data == 0)
        f = Field(decompose(Grid3D(8, 6, 5), 1)[0], halo=2, dtype=np.float32)
        assert f.data.shape == (5 + 4, 6 + 4, 8 + 4)
        assert f.dtype == np.float32 and f.interior.shape == (5, 6, 8)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ConfigurationError):
            Field(tile_1rank(), halo=2, data=np.zeros((6, 8)))

    def test_rejects_nonpositive_halo(self):
        with pytest.raises(ConfigurationError):
            Field(tile_1rank(), halo=0)

    def test_from_global(self):
        g = Grid2D(8, 6)
        glob = np.arange(48.0).reshape(6, 8)
        t = decompose(g, 4)[2]
        f = Field.from_global(t, 1, glob)
        assert np.array_equal(f.interior, glob[t.global_slices])

    def test_like_and_copy(self):
        f = Field(tile_1rank(), halo=3)
        f.interior[...] = 7.0
        g = Field.like(f)
        assert g.halo == 3 and np.all(g.data == 0)
        c = f.copy()
        c.interior[...] = 1.0
        assert np.all(f.interior == 7.0)  # deep copy


class TestViews:
    def test_interior_is_view(self):
        f = Field(tile_1rank(), halo=1)
        f.interior[...] = 5.0
        assert f.data[1:-1, 1:-1].sum() == 5.0 * 48
        assert f.data[0, :].sum() == 0

    def test_interior_setter_augmented(self):
        f = Field(tile_1rank(), halo=1)
        f.interior += 2.0
        f.interior *= 3.0
        assert np.all(f.interior == 6.0)

    def test_region_uniform_int(self):
        g = Grid2D(8, 8)
        t = decompose(g, 4, factors=(2, 2))[0]  # bottom-left tile
        f = Field(t, halo=2)
        rows, cols = f.region(2)
        # no left/down neighbours -> no extension on those sides
        assert rows == slice(2, 2 + t.ny + 2)
        assert cols == slice(2, 2 + t.nx + 2)

    def test_region_dict(self):
        t = decompose(Grid2D(9, 9), 9, factors=(3, 3))[4]  # center
        f = Field(t, halo=2)
        rows, cols = f.region({"left": 1, "right": 2, "down": 0, "up": 2})
        assert rows == slice(2, 2 + t.ny + 2)
        assert cols == slice(1, 2 + t.nx + 2)
        t = decompose(Grid3D(9, 9, 9), 27, factors=(3, 3, 3))[13]
        f = Field(t, halo=2)
        assert f.region({"left": 1, "up": 2, "back": 2, "front": 1}) == (
            slice(0, 2 + t.nz + 1), slice(2, 2 + t.ny + 2),
            slice(1, 2 + t.nx))
        assert f.region(1) == (slice(1, 3 + t.nz),) * 3

    def test_region_exceeding_halo_raises(self):
        t = decompose(Grid2D(9, 9), 9, factors=(3, 3))[4]
        f = Field(t, halo=2)
        with pytest.raises(ConfigurationError):
            f.region(3)

    def test_extended_shape(self):
        t = decompose(Grid2D(9, 9), 9, factors=(3, 3))[4]
        f = Field(t, halo=2)
        assert f.extended(2).shape == (t.ny + 4, t.nx + 4)


class TestReductionsAndMutation:
    def test_local_dot_and_norm(self):
        f = Field(tile_1rank(4, 4), halo=1)
        g = Field.like(f)
        f.interior[...] = 2.0
        g.interior[...] = 3.0
        assert f.local_dot(g) == pytest.approx(2 * 3 * 16)
        assert f.local_norm2() == pytest.approx(4 * 16)
        assert f.local_sum() == pytest.approx(32)

    def test_halo_excluded_from_reductions(self):
        f = Field(tile_1rank(4, 4), halo=2)
        f.data[...] = 1.0
        assert f.local_sum() == pytest.approx(16)

    def test_fill_and_zero_halos(self):
        f = Field(tile_1rank(4, 4), halo=1)
        f.fill(3.0)
        assert np.all(f.data == 3.0)
        f.zero_halos()
        assert np.all(f.interior == 3.0)
        assert f.data.sum() == pytest.approx(3.0 * 16)


def _pair(tile, halo=2, other_halo=None, seed=0):
    """Two fields of random cells, halos included."""
    rng = np.random.default_rng(seed)
    fields = []
    for h in (halo, halo if other_halo is None else other_halo):
        f = Field(tile, h)
        f.data[...] = rng.standard_normal(f.data.shape)
        fields.append(f)
    return fields


class TestRegionUpdates:
    """``Field.axpy``/``Field.aypx``: in place, on the region's span,
    with the halo cells the span crosses put back (the exhaustive
    shape x halo x dtype x poison battery is in
    ``test_kernels_equivalence.py``)."""

    KERNELS = get_backend("numpy")

    #: The centre tile of a 3x3 and of a 3x3x3 decomposition: regions
    #: grow on every side.
    CENTERS = (decompose(Grid2D(18, 15), 9, factors=(3, 3))[4],
               decompose(Grid3D(18, 15, 12), 27, factors=(3, 3, 3))[13])

    def center(self):
        return self.CENTERS[0]

    def test_axpy_and_aypx_match_the_whole_array_expressions(self):
        for tile in self.CENTERS:
            y, x = _pair(tile)
            for ext in (0, 1, 2):
                region = y.region(ext)
                ref = y.data.copy()
                ref[region] += 0.375 * x.data[region]
                y.axpy(0.375, x, self.KERNELS, ext)
                assert np.array_equal(bits(y.data), bits(ref))
                ref[region] *= -0.75
                ref[region] += x.data[region]
                y.aypx(-0.75, x, self.KERNELS, ext)
                assert np.array_equal(bits(y.data), bits(ref))

    def test_other_may_be_self(self):
        for tile in self.CENTERS:
            y, _ = _pair(tile)
            ref = y.data.copy()
            ref[y.region(0)] += 0.5 * ref[y.region(0)]
            y.axpy(0.5, y, self.KERNELS)
            assert np.array_equal(bits(y.data), bits(ref))

    def test_gaps_restored_when_the_kernel_raises(self):
        class Scribbler:
            def axpy(self, y, alpha, x):
                y[...] = 7.0
                raise FloatingPointError("mid-update")

        for tile in self.CENTERS:
            y, x = _pair(tile)
            before = y.data.copy()
            with pytest.raises(FloatingPointError):
                y.axpy(1.0, x, Scribbler())
            halo = np.ones(y.data.shape, dtype=bool)
            halo[y.region(0)] = False
            assert np.array_equal(bits(y.data)[halo], bits(before)[halo])
            assert np.all(y.interior == 7.0)

    def test_span_views_are_built_once_per_buffer(self):
        y, x = _pair(self.center())
        y.axpy(1.0, x, self.KERNELS)
        span = y._span(0)
        y.data[...] = 3.0          # writing through the buffer keeps them
        y.axpy(1.0, x, self.KERNELS)
        assert y._span(0) is span and span.cells.base is not None
        assert np.shares_memory(span.cells, y.data)

    def test_rebinding_data_invalidates_the_cached_views(self):
        y, x = _pair(self.center())
        y.axpy(1.0, x, self.KERNELS)
        old = y.data
        kept = old.copy()
        y.data = old.copy()
        ref = y.data.copy()
        ref[y.region(0)] += 2.0 * x.interior
        y.axpy(2.0, x, self.KERNELS)
        assert np.array_equal(bits(y.data), bits(ref))
        assert np.array_equal(bits(old), bits(kept))
        assert np.shares_memory(y._span(0).cells, y.data)

    @pytest.mark.parametrize("duplicate", [
        copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["deepcopy", "pickle"])
    def test_a_copied_field_builds_its_own_views(self, duplicate):
        """``comm`` deep-copies what it transports and the service pickles
        it: a copy taken after the views exist must update *its* buffer."""
        y, x = _pair(self.center())
        y.axpy(1.0, x, self.KERNELS)
        y.aypx(0.5, x, self.KERNELS, 1)
        twin = duplicate(y)
        assert np.array_equal(bits(twin.data), bits(y.data))
        ref = y.data.copy()
        ref[y.region(0)] += 2.0 * x.interior
        twin.axpy(2.0, x, self.KERNELS)
        assert np.array_equal(bits(twin.data), bits(ref))
        assert np.shares_memory(twin._span(0).cells, twin.data)
        assert not np.shares_memory(twin.data, y.data)
        ref[y.region(1)] *= 0.5
        ref[y.region(1)] += x.data[x.region(1)]
        twin.aypx(0.5, x, self.KERNELS, 1)
        assert np.array_equal(bits(twin.data), bits(ref))

    def test_buffers_that_do_not_share_a_layout_take_the_2d_path(self):
        """... the strided-view path, in either dimension."""
        cases = []
        for tile in self.CENTERS:
            cases += [
                _pair(tile, halo=2, other_halo=3),             # pitch differs
                [Field(tile, 2, np.asfortranarray(f.data))     # not C-order
                 for f in _pair(tile)],
            ]
        for y, x in cases:
            buffer = y.data
            ref = y.data.copy()
            ref[y.region(1)] += 0.25 * x.data[x.region(1)]
            y.axpy(0.25, x, self.KERNELS, 1)
            assert y.data is buffer
            assert np.array_equal(bits(y.data), bits(ref))
            ref[y.region(1)] *= 0.5
            ref[y.region(1)] += x.data[x.region(1)]
            y.aypx(0.5, x, self.KERNELS, 1)
            assert np.array_equal(bits(y.data), bits(ref))

    def test_field3d_carries_the_same_methods(self):
        """A 3-D field is the same class: ``dtype=``, the constructors
        and the cached span views all reach it."""
        tile = decompose(Grid3D(12, 10, 8), 8)[0]
        glob = np.random.default_rng(5).standard_normal((8, 10, 12))
        y = Field.from_global(tile, 2, glob, dtype=np.float32)
        assert y.dtype == np.float32 and Field.like(y).dtype == np.float32
        assert np.array_equal(y.interior,
                              glob[tile.global_slices].astype(np.float32))
        x = y.copy()
        y.axpy(0.5, x, self.KERNELS, 1)
        span = y._span(1)
        assert len(span.gaps) == 2 and y._span(1) is span
        region = np.zeros(y.data.shape, dtype=bool)
        region[y.region(1)] = True
        assert np.array_equal(y.data[region], np.float32(1.5) * x.data[region])
        assert np.array_equal(bits(y.data)[~region], bits(x.data)[~region])
