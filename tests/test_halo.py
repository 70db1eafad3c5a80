"""Unit tests: halo exchange (depths, corners, reflection), 2-D and 3-D."""

import math

import numpy as np
import pytest

from repro.comm import SerialComm, launch_spmd
from repro.kernels import NumpyBackend
from repro.mesh import Field, Grid2D, Grid3D, HaloExchanger, decompose
from repro.mesh.halo import reflect_boundaries
from repro.utils import CommunicationError, EventLog

from tests.helpers import check_exchange_fills_ghosts


def exchange_and_check(size, depth, halo=None, factors=None,
                       grid=Grid2D(16, 12)):
    """Exchange depth-`depth` halos and verify every filled ghost cell."""
    check_exchange_fills_ghosts(HaloExchanger, grid, size, depth, halo,
                                factors)


class _Recording:
    """What an exchanger needs of a communicator — ``send``/``recv`` —
    noting every call as ``(op, peer, tag)``."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def send(self, obj, dest, tag=0):
        self.calls.append(("send", dest, tag))
        self.inner.send(obj, dest, tag)

    def recv(self, source, tag=0, **kwargs):
        self.calls.append(("recv", source, tag))
        return self.inner.recv(source, tag, **kwargs)


class TestExchange:
    @pytest.mark.parametrize("size", [2, 3, 4, 6])
    def test_depth1(self, size):
        exchange_and_check(size, depth=1)
        exchange_and_check(size, depth=1, grid=Grid3D(16, 12, 6))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_deep_halos_with_corners(self, depth):
        exchange_and_check(4, depth, halo=4, factors=(2, 2))
        exchange_and_check(8, depth, halo=4, factors=(2, 2, 2),
                           grid=Grid3D(8, 8, 8))

    def test_depth_smaller_than_halo(self):
        exchange_and_check(4, depth=2, halo=5, factors=(2, 2))

    def test_nine_rank_center_tile(self):
        exchange_and_check(9, depth=2, factors=(3, 3), grid=Grid2D(18, 18))

    def test_messages_keep_their_order_and_tags(self):
        """Phases run fastest axis first: both sends, the receive from the
        low side, then from the high side, tagged 101/102 (x), 103/104 (y),
        105/106 (z) by direction of travel.  Fault plans draw per operation
        index, so this sequence is part of every committed chaos ledger."""
        def calls_of(grid, factors):
            def rank_main(comm):
                t = decompose(grid, comm.size, factors)[comm.rank]
                recording = _Recording(comm)
                HaloExchanger(recording).exchange([Field(t, 1), Field(t, 1)])
                return recording.calls
            return launch_spmd(rank_main, math.prod(factors))

        # 3x2 layout: rank 0 has neighbours right (1) and up (3); rank 4,
        # top middle, has left (3), right (5) and down (1).
        calls = calls_of(Grid2D(12, 8), (3, 2))
        assert calls[0] == 2 * [("send", 1, 102), ("recv", 1, 101)] \
            + 2 * [("send", 3, 104), ("recv", 3, 103)]
        assert calls[4] == 2 * [("send", 3, 101), ("send", 5, 102),
                                ("recv", 3, 102), ("recv", 5, 101)] \
            + 2 * [("send", 1, 103), ("recv", 1, 104)]
        calls = calls_of(Grid3D(4, 4, 4), (1, 2, 2))
        assert calls[0] == 2 * [("send", 1, 104), ("recv", 1, 103)] \
            + 2 * [("send", 2, 106), ("recv", 2, 105)]

    def test_pack_unpack_go_through_the_backend_and_the_tracer(self):
        """In 3-D as in 2-D: every strip is copied by ``kernels.pack_halo``
        / ``unpack_halo`` and the exchange is one ``halo_exchange`` span."""
        from repro.observe.trace import Tracer

        class Counting(NumpyBackend):
            packed = unpacked = 0

            def pack_halo(self, a, *region):
                self.packed += 1
                return super().pack_halo(a, *region)

            def unpack_halo(self, a, *region_buf):
                self.unpacked += 1
                super().unpack_halo(a, *region_buf)

        def rank_main(comm):
            t = decompose(Grid3D(6, 6, 6), comm.size, (2, 2, 2))[comm.rank]
            k, tracer = Counting(), Tracer(rank=comm.rank)
            HaloExchanger(comm, kernels=k, tracer=tracer).exchange(
                Field(t, 2), depth=2)
            return k.packed, k.unpacked, tracer.counts()

        # Every tile of a 2x2x2 layout has one neighbour per axis.
        assert launch_spmd(rank_main, 8) == 8 * [(3, 3, {"halo_exchange": 1})]

    def test_serial_noop(self):
        g = Grid2D(8, 8)
        t = decompose(g, 1)[0]
        f = Field.from_global(t, 2, np.ones((8, 8)))
        HaloExchanger(SerialComm()).exchange(f, depth=2)
        assert np.all(f.interior == 1.0)

    def test_depth_exceeding_halo_raises(self):
        g = Grid2D(8, 8)
        t = decompose(g, 1)[0]
        f = Field(t, halo=1)
        with pytest.raises(CommunicationError):
            HaloExchanger(SerialComm()).exchange(f, depth=2)

    def test_multi_field_exchange_records_one_event(self):
        g = Grid2D(8, 8)

        def rank_main(comm):
            t = decompose(g, comm.size)[comm.rank]
            f1 = Field.from_global(t, 2, np.ones((8, 8)))
            f2 = Field.from_global(t, 2, np.full((8, 8), 2.0))
            log = EventLog()
            HaloExchanger(comm, events=log).exchange([f1, f2], depth=2)
            return log

        logs = launch_spmd(rank_main, 2)
        for log in logs:
            assert log.count("halo_exchange", 2) == 1
            assert log.total("halo_exchange", "bytes", key=2) > 0

    def test_empty_field_list_noop(self):
        HaloExchanger(SerialComm()).exchange([], depth=1)

    def test_bytes_accounting_scales_with_depth(self):
        g = Grid2D(16, 16)

        def rank_main(comm, depth):
            t = decompose(g, comm.size)[comm.rank]
            f = Field.from_global(t, 4, np.ones((16, 16)))
            log = EventLog()
            HaloExchanger(comm, events=log).exchange(f, depth=depth)
            return log.total("halo_exchange", "bytes", key=depth)

        b1 = launch_spmd(rank_main, 2, rank_args=[(1,), (1,)])[0]
        b4 = launch_spmd(rank_main, 2, rank_args=[(4,), (4,)])[0]
        assert b4 >= 3.9 * b1  # ~4x payload at 4x depth


class TestReflectBoundaries:
    def test_serial_reflection_mirrors_interior(self):
        """On one rank every side is physical: each halo mirrors the
        cells next to it, edges and corners included (phase order x,
        then y, then z) — NumPy's symmetric padding."""
        for grid in (Grid2D(6, 4), Grid3D(5, 4, 3)):
            glob = np.random.default_rng(0).standard_normal(grid.shape)
            f = Field.from_global(decompose(grid, 1)[0], 2, glob)
            reflect_boundaries(f)
            assert np.array_equal(f.data, np.pad(glob, 2, mode="symmetric"))
            assert np.array_equal(f.data[..., 2:-2, 1], f.data[..., 2:-2, 2])

    def test_reflection_only_on_physical_sides(self):
        g = Grid2D(8, 8)

        def rank_main(comm):
            t = decompose(g, comm.size, factors=(2, 1))[comm.rank]
            f = Field.from_global(t, 1, np.arange(64.0).reshape(8, 8))
            HaloExchanger(comm).exchange(f, depth=1)
            before = f.data.copy()
            reflect_boundaries(f, depth=1)
            h = f.halo
            if t.left is not None:
                # rank-interior side untouched by reflection
                assert np.array_equal(f.data[h:h + t.ny, h - 1],
                                      before[h:h + t.ny, h - 1])
            return True

        assert all(launch_spmd(rank_main, 2))

    def test_depth_exceeding_halo_raises(self):
        t = decompose(Grid2D(4, 4), 1)[0]
        f = Field(t, halo=1)
        with pytest.raises(CommunicationError):
            reflect_boundaries(f, depth=2)
