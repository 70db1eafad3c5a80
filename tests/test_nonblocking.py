"""Tests: non-blocking point-to-point requests."""

import pytest

from repro.comm import SerialComm, launch_spmd
from repro.comm.base import CompletedRequest
from repro.utils import CommunicationError


class TestRequests:
    def test_isend_completes_immediately(self):
        def rank_main(comm):
            peer = 1 - comm.rank
            req = comm.isend(comm.rank * 10, dest=peer, tag=7)
            assert req.test()
            req.wait()
            return comm.recv(source=peer, tag=7)

        assert launch_spmd(rank_main, 2) == [10, 0]

    def test_irecv_wait(self):
        def rank_main(comm):
            peer = 1 - comm.rank
            req = comm.irecv(source=peer, tag=9)
            comm.send(f"msg-{comm.rank}", dest=peer, tag=9)
            return req.wait()

        assert launch_spmd(rank_main, 2) == ["msg-1", "msg-0"]

    def test_irecv_test_polls_without_blocking(self):
        def rank_main(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=4)
                first = req.test()  # nothing sent yet (rank 1 is barriered)
                comm.barrier()      # rank 1 sends before this barrier
                comm.barrier()
                while not req.test():
                    pass
                return (first, req.wait())
            comm.send("late", dest=0, tag=4)
            comm.barrier()
            comm.barrier()
            return None

        out = launch_spmd(rank_main, 2)
        first, value = out[0]
        assert value == "late"

    def test_wait_idempotent(self):
        def rank_main(comm):
            peer = 1 - comm.rank
            comm.send([1, 2], dest=peer, tag=2)
            req = comm.irecv(source=peer, tag=2)
            a = req.wait()
            b = req.wait()
            return a is b

        assert all(launch_spmd(rank_main, 2))

    def test_completed_request(self):
        r = CompletedRequest("x")
        assert r.test() and r.wait() == "x"

    def test_serial_irecv_raises(self):
        with pytest.raises(CommunicationError):
            SerialComm().irecv(source=0)
