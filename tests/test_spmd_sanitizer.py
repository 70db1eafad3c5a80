"""Tests for the runtime SPMD sanitizer (:mod:`repro.comm.sanitize`).

Every divergence scenario here would deadlock a plain MPI program; the
sanitizer must instead fail *fast* with a structured
:class:`SanitizerError` naming the offending call-sites.  The
transparency half proves the off-path cost is zero: a solve under the
sanitizer is bit-identical, event-count-identical and contract-exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import (
    InstrumentedComm,
    SanitizerComm,
    SanitizerError,
    SanitizerState,
    SerialComm,
    launch_spmd,
)

pytestmark = pytest.mark.distributed


def sanitized(comm, state, **kwargs):
    return SanitizerComm(comm, state=state, **kwargs)


# -- collective fingerprint cross-check ----------------------------------------


class TestCollectiveFingerprints:
    def test_matching_collectives_pass(self):
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state)
            total = c.allreduce(float(c.rank + 1))
            c.barrier()
            return total

        assert launch_spmd(rank_main, 2) == [3.0, 3.0]

    def test_divergent_kinds_fail_fast_naming_both_sites(self):
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state)
            if c.rank == 0:
                return c.allreduce(1.0)  # repro: ignore[RPR009]
            return c.bcast(None)  # repro: ignore[RPR009]

        with pytest.raises(SanitizerError) as exc:
            launch_spmd(rank_main, 2)
        msg = str(exc.value)
        assert "divergent collectives" in msg
        assert "allreduce" in msg and "bcast" in msg
        # Both offending call-sites are named with file:line provenance.
        assert msg.count("test_spmd_sanitizer.py") == 2

    def test_divergent_reduce_op_detected(self):
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state)
            op = "sum" if c.rank == 0 else "max"
            return c.allreduce(1.0, op)

        with pytest.raises(SanitizerError, match="op=sum"):
            launch_spmd(rank_main, 2)

    def test_divergent_payload_shape_detected(self):
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state)
            x = np.ones(4 if c.rank == 0 else 5)
            return c.allreduce(x)

        with pytest.raises(SanitizerError, match="divergent collectives"):
            launch_spmd(rank_main, 2)

    def test_root_switched_bcast_is_legal(self):
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state)
            payload = {"v": 42} if c.rank == 0 else None
            return c.bcast(payload)

        assert launch_spmd(rank_main, 2) == [{"v": 42}, {"v": 42}]

    def test_skipped_collective_trips_watchdog(self):
        state = SanitizerState(2, collective_timeout=1.0)

        def rank_main(comm):
            c = sanitized(comm, state)
            if c.rank == 1:
                return None  # never posts the barrier
            c.barrier()  # repro: ignore[RPR009]
            return None

        with pytest.raises(SanitizerError) as exc:
            launch_spmd(rank_main, 2)
        msg = str(exc.value)
        assert "deadlock watchdog" in msg
        assert "rank 0: in collective barrier" in msg
        assert "rank 1:" in msg


# -- p2p epoch tracking and deadlock enrichment --------------------------------


class TestPointToPoint:
    def test_matched_sends_and_recvs_pass(self):
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state)
            peer = 1 - c.rank
            c.send(np.full(3, float(c.rank)), peer, 5)
            got = c.recv(peer, 5)
            c.barrier()
            return float(got[0])

        assert launch_spmd(rank_main, 2) == [1.0, 0.0]
        state.check_quiescent()

    def test_write_epoch_race_names_both_sites(self):
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state, p2p_timeout=2.0)
            if c.rank == 0:
                c.send(1.0, 1, 5)
                c.send(2.0, 1, 5)  # overlaps the undrained send above
                c.send(0.0, 1, 99)
                return None
            return c.recv(0, 99)  # never drains tag 5

        with pytest.raises(SanitizerError) as exc:
            launch_spmd(rank_main, 2)
        msg = str(exc.value)
        assert "write-epoch race" in msg
        assert "tag=5" in msg
        assert msg.count("test_spmd_sanitizer.py") == 2

    def test_same_site_resends_are_legal(self):
        # A loop re-sending from one call-site is pipelining, not a race.
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state)
            if c.rank == 0:
                for i in range(4):
                    c.send(float(i), 1, 5)
                return None
            return [c.recv(0, 5) for _ in range(4)]

        assert launch_spmd(rank_main, 2)[1] == [0.0, 1.0, 2.0, 3.0]
        state.check_quiescent()

    def test_mistagged_recv_names_undelivered_send(self):
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state, p2p_timeout=1.0)
            if c.rank == 1:
                c.send("hello", 0, 8)  # tagged 8 ...
                return None
            return c.recv(1, 7)  # ... awaited on 7

        with pytest.raises(SanitizerError) as exc:
            launch_spmd(rank_main, 2)
        msg = str(exc.value)
        assert "deadlock watchdog" in msg
        assert "from rank 1 on tag 8" in msg
        assert "still undelivered" in msg

    def test_crossed_messages_detected(self):
        # Two sends on one channel from one site, received in an order
        # whose payloads no longer match their stamps.
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state)
            if c.rank == 0:
                for payload in (np.ones(3), 2.5):
                    c.send(payload, 1, 5)
                return None
            first = c.recv(0, 5)
            second = c.recv(0, 5)
            return first, second

        # FIFO mailboxes deliver in order here, so this passes — the
        # stamp check is exercised by the unit test below instead.
        out = launch_spmd(rank_main, 2)
        assert isinstance(out[1][0], np.ndarray)
        state.check_quiescent()

    def test_stamp_mismatch_unit(self):
        state = SanitizerState(1)
        state.record_send(0, 0, 5, np.ones(3), "a.py:1")
        with pytest.raises(SanitizerError, match="crossed message"):
            state.record_recv(0, 0, 5, 2.5, "a.py:2")

    def test_quiescence_check_reports_orphans(self):
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state)
            if c.rank == 0:
                c.send(1.0, 1, 3)  # never received
            c.barrier()
            return None

        launch_spmd(rank_main, 2)
        with pytest.raises(SanitizerError) as exc:
            state.check_quiescent()
        msg = str(exc.value)
        assert "orphaned" in msg
        assert "src=0 dst=1 tag=3" in msg

    def test_typeerror_inside_inner_recv_surfaces_once(self):
        """A genuine ``TypeError`` raised inside an inner ``recv`` — after
        a message was consumed — used to be mistaken for "no ``timeout``
        parameter" and retried, silently receiving the *next* message."""
        class Consuming(SerialComm):
            queue = ["first", "second"]

            def recv(self, source, tag=0, timeout=None):
                msg = self.queue.pop(0)
                if msg == "first":
                    raise TypeError("bug inside the transport")
                return msg

        inner = Consuming()
        with pytest.raises(TypeError, match="inside the transport"):
            SanitizerComm(inner).recv(0, tag=1)
        assert inner.queue == ["second"]

    def test_irecv_wait_completes_and_records(self):
        state = SanitizerState(2)

        def rank_main(comm):
            c = sanitized(comm, state)
            peer = 1 - c.rank
            req = c.irecv(peer, 9)
            c.send(f"msg-{c.rank}", peer, 9)
            return req.wait()

        assert launch_spmd(rank_main, 2) == ["msg-1", "msg-0"]
        state.check_quiescent()


# -- transparency --------------------------------------------------------------


class TestTransparency:
    @staticmethod
    def _solve(wrap):
        from repro.solvers import SolverOptions
        from repro.solvers.ranks import instrumented_stack, solve_on_ranks
        from repro.testing import crooked_pipe_system

        def stack(comm, _):
            stk = instrumented_stack(comm)
            if wrap:
                stk.comm = SanitizerComm(stk.comm)
            return stk

        grid, *faces, bg = crooked_pipe_system(16)
        run = solve_on_ranks(
            grid, faces, bg,
            SolverOptions(solver="cg", eps=1e-300, max_iters=12), stack=stack)
        if wrap:
            run.ranks[0].stack.comm.check_quiescent()
        return run.result, dict(run.events.as_dict())

    def test_sanitizer_is_bit_identical_and_event_silent(self):
        plain, plain_counts = self._solve(wrap=False)
        wrapped, wrapped_counts = self._solve(wrap=True)
        assert wrapped.iterations == plain.iterations
        assert np.array_equal(wrapped.x.data, plain.x.data)
        assert wrapped_counts == plain_counts

    def test_sanitizer_delegates_unknown_attributes(self):
        from repro.utils import EventLog

        log = EventLog()
        comm = SanitizerComm(InstrumentedComm(SerialComm(), log))
        assert comm.events is log

    def test_verify_contracts_sanitized_cg(self):
        from repro.analysis import verify_contracts

        reports = verify_contracts(n=24, names=["cg"], sanitize=True)
        assert [r.name for r in reports] == ["cg", "cg[3d]"]
        for report in reports:
            assert report.ok
            assert "sanitized" in report.detail
            assert "residual replacement" in report.detail

    def test_state_size_must_match_world(self):
        from repro.utils.errors import CommunicationError

        with pytest.raises(CommunicationError, match="sized for 3"):
            SanitizerComm(SerialComm(), state=SanitizerState(3))
