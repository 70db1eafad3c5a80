"""Unit tests: rectangular decomposition and neighbour topology, for
2-D and 3-D grids (one ``decompose``, one ``Tile``)."""

from itertools import product

import pytest

from repro.comm.base import payload_bytes
from repro.mesh import Grid2D, Grid3D, choose_factors, decompose, tile_for_rank
from repro.utils import DecompositionError


class TestChooseFactors:
    def test_square_mesh_square_ranks(self):
        assert choose_factors(4, 100, 100) == (2, 2)
        assert choose_factors(16, 100, 100) == (4, 4)

    def test_elongated_mesh_prefers_matching_split(self):
        # Wide mesh: cut fewer columns (large px) to minimise perimeter.
        px, py = choose_factors(4, 1000, 10)
        assert px == 4 and py == 1
        px, py = choose_factors(4, 10, 1000)
        assert px == 1 and py == 4

    def test_prime_rank_count(self):
        assert choose_factors(7, 100, 100) in ((7, 1), (1, 7))

    def test_one_rank(self):
        assert choose_factors(1, 8, 8) == (1, 1)

    def test_invalid(self):
        with pytest.raises(DecompositionError):
            choose_factors(0, 8, 8)


class TestDecompose:
    def test_partition_covers_grid_exactly(self):
        for g in (Grid2D(17, 13), Grid3D(7, 5, 6)):
            for nranks in (1, 2, 3, 4, 6, 12):
                tiles = decompose(g, nranks)
                assert len(tiles) == nranks
                seen = set()
                for t in tiles:
                    for cell in product(*map(range, t.lo, t.hi)):
                        assert cell not in seen
                        seen.add(cell)
                assert len(seen) == g.n_cells

    def test_rank_ordering_row_major(self):
        tiles = decompose(Grid2D(8, 8), 4, factors=(2, 2))
        assert [t.rank for t in tiles] == [0, 1, 2, 3]
        assert (tiles[1].cx, tiles[1].cy) == (1, 0)
        assert (tiles[2].cx, tiles[2].cy) == (0, 1)
        tiles = decompose(Grid3D(4, 4, 4), 8, factors=(2, 2, 2))
        assert [t.rank for t in tiles] == list(range(8))
        assert [(t.cx, t.cy, t.cz) for t in tiles[1:5:3]] == [(1, 0, 0),
                                                              (0, 0, 1)]

    def test_neighbors(self):
        tiles = decompose(Grid2D(9, 9), 9, factors=(3, 3))
        center = tiles[4]
        assert center.left == 3
        assert center.right == 5
        assert center.down == 1
        assert center.up == 7
        assert center.n_neighbors == 4
        corner = tiles[0]
        assert corner.left is None
        assert corner.down is None
        assert corner.right == 1
        assert corner.up == 3
        assert corner.n_neighbors == 2
        # a tile is a plain object to the byte counters, not a sequence
        assert payload_bytes(center) == 8
        with pytest.raises(AttributeError, match="2-D tile has no 'front'"):
            center.front

    def test_uneven_split_sizes(self):
        tiles = decompose(Grid2D(10, 1), 3, factors=(3, 1))
        assert [t.nx for t in tiles] == [4, 3, 3]
        assert all(t.ny == 1 for t in tiles)

    def test_explicit_factors_mismatch(self):
        with pytest.raises(DecompositionError):
            decompose(Grid2D(8, 8), 4, factors=(3, 2))
        with pytest.raises(DecompositionError):   # one factor per axis
            decompose(Grid3D(8, 8, 8), 4, factors=(2, 2))

    def test_too_many_ranks(self):
        with pytest.raises(DecompositionError):
            decompose(Grid2D(2, 2), 8)

    def test_global_slices(self):
        import numpy as np
        g = Grid2D(8, 6)
        arr = np.arange(48).reshape(6, 8)
        tiles = decompose(g, 4)
        parts = [arr[t.global_slices] for t in tiles]
        assert sum(p.size for p in parts) == 48

    def test_extension_clips_at_boundaries(self):
        tiles = decompose(Grid2D(9, 9), 9, factors=(3, 3))
        assert tiles[4].extension(3) == {"left": 3, "right": 3,
                                         "down": 3, "up": 3}
        assert tiles[0].extension(3) == {"left": 0, "right": 3,
                                         "down": 0, "up": 3}


class TestTileForRank:
    def test_matches_decompose(self):
        g = Grid2D(12, 12)
        tiles = decompose(g, 6)
        for r in range(6):
            assert tile_for_rank(g, 6, r) == tiles[r]

    def test_out_of_range(self):
        with pytest.raises(DecompositionError):
            tile_for_rank(Grid2D(8, 8), 4, 4)
        with pytest.raises(DecompositionError):
            tile_for_rank(Grid2D(8, 8), 4, -1)
