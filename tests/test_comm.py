"""Unit tests: communicators (serial, threaded, instrumented, spmd)."""

import functools
import random
import sys
import time
from collections import defaultdict, deque

import numpy as np
import pytest

from repro.comm import (
    InstrumentedComm,
    SerialComm,
    ThreadWorld,
    launch_spmd,
)
from repro.comm import threaded
from repro.utils import CommunicationError, EventLog


class TestSerialComm:
    def test_identity_collectives(self):
        c = SerialComm()
        assert c.rank == 0 and c.size == 1
        assert c.allreduce(5.0) == 5.0
        assert c.allreduce(3.0, op="max") == 3.0
        assert c.bcast("x") == "x"
        assert c.gather(7) == [7]
        assert c.allgather(7) == [7]
        c.barrier()

    def test_allgather_isolates(self):
        c = SerialComm()
        a = np.ones(3)
        out = c.allgather(a)[0]
        out[0] = 99
        assert a[0] == 1.0

    def test_p2p_raises(self):
        c = SerialComm()
        with pytest.raises(CommunicationError):
            c.send(1, dest=0)
        with pytest.raises(CommunicationError):
            c.recv(source=0)

    def test_bad_root(self):
        with pytest.raises(CommunicationError):
            SerialComm().bcast("x", root=1)

    def test_unknown_reduce_op(self):
        with pytest.raises(CommunicationError):
            SerialComm().allreduce(1.0, op="median")


class TestThreadComm:
    def test_send_recv_pairs(self):
        def rank_main(comm):
            peer = 1 - comm.rank
            comm.send(f"from-{comm.rank}", dest=peer, tag=5)
            return comm.recv(source=peer, tag=5)

        out = launch_spmd(rank_main, 2)
        assert out == ["from-1", "from-0"]

    def test_messages_fifo_per_tag(self):
        def rank_main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=9)
                return None
            return [comm.recv(source=0, tag=9) for _ in range(5)]

        out = launch_spmd(rank_main, 2)
        assert out[1] == [0, 1, 2, 3, 4]

    def test_tags_do_not_cross(self):
        def rank_main(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            b = comm.recv(source=0, tag=2)
            a = comm.recv(source=0, tag=1)
            return (a, b)

        assert launch_spmd(rank_main, 2)[1] == ("a", "b")

    def test_send_copies_arrays(self):
        def rank_main(comm):
            if comm.rank == 0:
                a = np.ones(4)
                comm.send(a, dest=1)
                a[...] = -1  # mutate after send
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(source=0)

        out = launch_spmd(rank_main, 2)
        assert np.all(out[1] == 1.0)

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_allreduce_sum_deterministic(self, size):
        def rank_main(comm):
            return comm.allreduce(float(comm.rank + 1))

        out = launch_spmd(rank_main, size)
        expect = sum(range(1, size + 1))
        assert all(v == expect for v in out)

    def test_allreduce_ops(self):
        def rank_main(comm):
            v = float(comm.rank + 1)
            return (comm.allreduce(v, "max"), comm.allreduce(v, "min"),
                    comm.allreduce(v, "prod"))

        out = launch_spmd(rank_main, 3)
        assert all(o == (3.0, 1.0, 6.0) for o in out)

    def test_allreduce_arrays(self):
        def rank_main(comm):
            return comm.allreduce(np.array([comm.rank, 1.0]))

        out = launch_spmd(rank_main, 4)
        for v in out:
            assert np.array_equal(v, [6.0, 4.0])

    def test_bcast(self):
        def rank_main(comm):
            data = {"k": [1, 2]} if comm.rank == 1 else None
            got = comm.bcast(data, root=1)
            got["k"].append(comm.rank)  # isolation: no cross-rank bleed
            return got["k"][:2]

        out = launch_spmd(rank_main, 3)
        assert all(v == [1, 2] for v in out)

    def test_gather(self):
        def rank_main(comm):
            return comm.gather(comm.rank * 10, root=2)

        out = launch_spmd(rank_main, 4)
        assert out[2] == [0, 10, 20, 30]
        assert out[0] is None and out[3] is None

    def test_allgather(self):
        def rank_main(comm):
            return comm.allgather(comm.rank)

        out = launch_spmd(rank_main, 3)
        assert all(v == [0, 1, 2] for v in out)

    def test_repeated_collectives_no_slot_clobber(self):
        def rank_main(comm):
            vals = [comm.allreduce(float(i * (comm.rank + 1)))
                    for i in range(20)]
            return vals

        out = launch_spmd(rank_main, 3)
        expect = [float(i * 6) for i in range(20)]
        assert all(v == expect for v in out)

    def test_self_send_rejected(self):
        def rank_main(comm):
            if comm.rank == 0:
                with pytest.raises(CommunicationError):
                    comm.send(1, dest=0)
            comm.barrier()
            return True

        assert all(launch_spmd(rank_main, 2))

    def test_bad_peer_rejected(self):
        def rank_main(comm):
            with pytest.raises(CommunicationError):
                comm.recv(source=5)
            comm.barrier()
            return True

        assert all(launch_spmd(rank_main, 2))

    def test_world_invalid_size(self):
        with pytest.raises(CommunicationError):
            ThreadWorld(0)

    def test_world_invalid_rank(self):
        with pytest.raises(CommunicationError):
            ThreadWorld(2).comm(2)


class TestFailurePropagation:
    def test_exception_aborts_world(self):
        def rank_main(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            # rank 0 would block forever without the abort
            return comm.recv(source=1, tag=0)

        with pytest.raises(ValueError, match=r"\[rank 1\] rank 1 exploded"):
            launch_spmd(rank_main, 2)

    def test_exception_during_collective(self):
        def rank_main(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            # Deliberate RPR009 divergence: this test proves the world
            # aborts blocked collectives instead of deadlocking.
            return comm.allreduce(1.0)  # repro: ignore[RPR009]

        with pytest.raises(RuntimeError, match="boom"):
            launch_spmd(rank_main, 3)

    def test_rank_args(self):
        def rank_main(comm, base, mult):
            return base + mult * comm.rank

        out = launch_spmd(rank_main, 3, rank_args=[(10, 2)] * 3)
        assert out == [10, 12, 14]

    def test_rank_args_length_mismatch(self):
        with pytest.raises(CommunicationError):
            launch_spmd(lambda c: None, 2, rank_args=[()])

    def test_size_one_runs_inline_serial(self):
        out = launch_spmd(lambda c: type(c).__name__, 1)
        assert out == ["SerialComm"]


# -- the mailbox transport under races -----------------------------------------

#: an independent serial fold for every reduce op
_FOLD = {"sum": np.add, "max": np.maximum, "min": np.minimum,
         "prod": np.multiply}
_KINDS = ("allreduce", "bcast", "gather", "allgather", "barrier",
          "p2p", "post", "drain")


def _contribution(i: int, rank: int, array: bool):
    # inexact values, so a fold out of rank order changes the bits
    v = np.sqrt(2.0 + (i + 3 * rank) % 11) / 3.0
    return np.array([v, -v, v * v]) if array else float(v)


def _jittered_rank(comm, seed: int, n_ops: int):
    """One rank of a seeded script of every primitive, with 0–200 µs sleeps.

    Every rank draws the same script from ``seed``; each sleeps on its own
    stream.  Received messages are checked against a per-``(src, tag)``
    FIFO model, collectives against a serial fold.
    """
    script = random.Random(seed)
    pause = random.Random(seed * 7919 + comm.rank)
    size, me = comm.size, comm.rank
    expected = defaultdict(deque)      # (src, tag) -> payloads still owed

    def receive(src, tag, mode):
        if mode == 0:
            got = comm.recv(src, tag)
        else:
            req, deadline = comm.irecv(src, tag), time.monotonic() + 30.0
            while mode == 2 and not req.test():
                assert time.monotonic() < deadline, "test() never succeeded"
                time.sleep(0)
            got = req.wait()
        assert got == expected[src, tag].popleft(), (me, src, tag, got)

    for i in range(n_ops):
        kind = script.choice(_KINDS)
        shift = 1 + script.randrange(size - 1)
        tag = script.randrange(4)
        op = script.choice(sorted(_FOLD))
        array = script.random() < 0.5
        mode = script.randrange(3)     # recv, irecv().wait(), test() polls
        time.sleep(pause.uniform(0.0, 200e-6))
        root = i % size
        if kind == "allreduce":
            got = comm.allreduce(_contribution(i, me, array), op)
            want = functools.reduce(
                _FOLD[op], [_contribution(i, r, array) for r in range(size)])
            assert np.array_equal(got, want), (me, i, op, got, want)
        elif kind == "bcast":
            got = comm.bcast(("bcast", i) if me == root else None, root=root)
            assert got == ("bcast", i)
        elif kind == "gather":
            got = comm.gather(("gather", i, me), root=root)
            assert got == ([("gather", i, r) for r in range(size)]
                           if me == root else None)
        elif kind == "allgather":
            got = comm.allgather(("allgather", i, me))
            assert got == [("allgather", i, r) for r in range(size)]
        elif kind == "barrier":
            comm.barrier()
        elif kind == "drain":
            for (src, t), owed in sorted(expected.items()):
                while owed:
                    receive(src, t, mode)
        else:
            dest, src = (me + shift) % size, (me - shift) % size
            comm.send(("p2p", i, me, tag), dest=dest, tag=tag)
            expected[src, tag].append(("p2p", i, src, tag))
            if kind == "p2p":
                receive(src, tag, mode)
    for (src, t), owed in sorted(expected.items()):
        while owed:
            receive(src, t, 0)
    comm.barrier()
    return comm.world


class TestMailboxRaces:
    @pytest.mark.parametrize("size", [2, 3, 4, 8])
    def test_jittered_battery(self, size):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)      # switch threads far more often
        try:
            for seed in (size, 100 + size, 200 + size):
                worlds = launch_spmd(_jittered_rank, size,
                                     rank_args=[(seed, 300)] * size,
                                     recv_timeout=30.0)
                # every deposit was consumed where it belonged: nothing
                # is left in a user mailbox nor in a collective one
                assert all(box.empty()
                           for box in worlds[0]._mailboxes.values())
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _lazy_abort_run(kind: str, j: int, seed: int):
        """Rank 1 dies after its ``j``-th ``kind`` op; what rank 0 saw."""
        rounds, seen = 8, {}
        pause = random.Random(seed)
        sleeps = [pause.uniform(0.0, 300e-6) for _ in range(4 * rounds)]

        def rank_main(comm):
            done = {"send": 0, "collective": 0}
            if comm.rank == 1:
                def step(what):
                    done[what] += 1
                    if what == kind and done[what] == j:
                        raise ValueError(f"rank 1 died after {kind} {j}")
                if j == 0:
                    raise ValueError("rank 1 died at once")
                for k in range(rounds):
                    time.sleep(sleeps[4 * k])
                    comm.send(("m", k), dest=0, tag=k % 2)
                    step("send")
                    time.sleep(sleeps[4 * k + 1])
                    comm.allreduce(float(k))
                    step("collective")
                return None
            received, index = [], 0
            try:
                for k in range(rounds):
                    time.sleep(sleeps[4 * k + 2])
                    received.append(comm.recv(source=1, tag=k % 2))
                    index += 1
                    time.sleep(sleeps[4 * k + 3])
                    assert comm.allreduce(float(k)) == 2.0 * k
                    index += 1
            except CommunicationError as exc:
                seen.update(index=index, received=received, error=str(exc))
                raise
            return None

        with pytest.raises(ValueError, match="rank 1 died"):
            launch_spmd(rank_main, 2)
        return seen

    @pytest.mark.parametrize("kind", ["send", "collective"])
    def test_lazy_abort_is_a_function_of_the_death_position(self, kind):
        for j in (0, 1, 2, 5):
            # rank 0's op sequence is recv k (index 2k), allreduce k (2k+1)
            if j == 0:
                index = 0
            else:
                index = 2 * j - 1 if kind == "send" else 2 * j
            messages = [("m", k) for k in range(j)]
            for rep in range(20):
                seen = self._lazy_abort_run(kind, j, seed=1000 * j + rep)
                assert seen["index"] == index, (kind, j, rep, seen)
                assert seen["received"] == messages, (kind, j, rep, seen)
                what = ("rank 1 in allreduce" if index % 2
                        else f"src=1 tag={j % 2}")
                assert f"world aborted while rank 0 awaited {what}" \
                    in seen["error"], seen

    def test_abort_wakes_blocked_ranks_at_once(self, monkeypatch):
        # With the poll stretched to 5 s, only the abort's wake tokens
        # can end these waits within the bound.
        monkeypatch.setattr(threaded, "_POLL_S", 5.0)
        stamps = {}

        def rank_main(comm):
            try:
                if comm.rank == 3:
                    time.sleep(0.2)
                    stamps["died"] = time.monotonic()
                    raise ValueError("rank 3 died")
                if comm.rank == 0:
                    comm.recv(source=3, tag=0)
                elif comm.rank == 1:
                    # Deliberate RPR009 divergence: rank 1 alone blocks in
                    # a collective until the abort wakes it.
                    comm.allreduce(1.0)  # repro: ignore[RPR009]
                else:
                    comm.irecv(source=3, tag=0).wait()
            except CommunicationError:
                stamps[comm.rank] = time.monotonic()
                raise

        with pytest.raises(ValueError, match="rank 3 died"):
            launch_spmd(rank_main, 4)
        for rank in (0, 1, 2):
            assert stamps[rank] - stamps["died"] < 1.0, (rank, stamps)

    def test_abort_free_collective_timeout_names_rank_and_collective(self):
        def rank_main(comm):
            if comm.rank == 0:
                # Deliberate RPR009 divergence: rank 1 never arrives.
                return comm.allreduce(1.0)  # repro: ignore[RPR009]
            return None

        start = time.monotonic()
        with pytest.raises(CommunicationError) as info:
            launch_spmd(rank_main, 2, recv_timeout=0.3)
        assert 0.3 <= time.monotonic() - start < 5.0
        message = str(info.value)
        assert ("collective timeout after 0.3s: rank 0 awaiting rank 1 "
                "in allreduce") in message, message
        assert "tag=None" not in message


class TestInstrumentedComm:
    def test_counts_p2p(self):
        def rank_main(comm):
            log = EventLog()
            ic = InstrumentedComm(comm, log)
            peer = 1 - ic.rank
            ic.send(np.zeros(10), dest=peer, tag=3)
            ic.recv(source=peer, tag=3)
            return log

        logs = launch_spmd(rank_main, 2)
        for log in logs:
            assert log.count("p2p_send", 3) == 1
            assert log.count("p2p_recv", 3) == 1
            assert log.total("p2p_send", "bytes", key=3) == 80

    def test_counts_collectives(self):
        def rank_main(comm):
            ic = InstrumentedComm(comm)
            ic.allreduce(1.0)
            ic.allreduce(np.zeros(2), op="max")
            ic.bcast("x", root=0)
            ic.gather(1)
            ic.allgather(1)
            ic.barrier()
            return ic.events

        logs = launch_spmd(rank_main, 2)
        for log in logs:
            assert log.count("allreduce", "sum") == 1
            assert log.count("allreduce", "max") == 1
            assert log.count("bcast") == 1
            assert log.count("gather") == 1
            assert log.count("allgather") == 1
            assert log.count("barrier") == 1

    def test_transparent_results(self):
        def rank_main(comm):
            ic = InstrumentedComm(comm)
            return ic.allreduce(float(ic.rank))

        assert launch_spmd(rank_main, 3) == [3.0, 3.0, 3.0]

    def test_serial_wrapping(self):
        ic = InstrumentedComm(SerialComm())
        assert ic.allreduce(2.0) == 2.0
        assert ic.rank == 0 and ic.size == 1
        assert ic.events.count("allreduce", "sum") == 1


# -- ForwardingComm: a wrapper is only its interceptions -----------------------


class _Loopback(SerialComm):
    """One-rank inner comm that records every call and loops sends back."""

    def __init__(self):
        self.calls, self.boxes = [], {}

    def send(self, obj, dest, tag=0):
        self.calls.append(("send", (obj, dest, tag)))
        self.boxes.setdefault(tag, []).append(obj)

    def recv(self, source, tag=0, timeout=None):
        self.calls.append(("recv", (source, tag, timeout)))
        return self.boxes[tag].pop(0)

    def _collective(name):
        def method(self, *args):
            self.calls.append((name, args))
            return (name, "result")
        return method

    allreduce = _collective("allreduce")
    bcast = _collective("bcast")
    gather = _collective("gather")
    allgather = _collective("allgather")
    barrier = _collective("barrier")


def _wrappers():
    from repro.comm import SanitizerComm
    from repro.resilience import (ChecksumComm, FaultPlan, FaultyComm,
                                  RetryingComm)
    return {
        InstrumentedComm: lambda inner: InstrumentedComm(inner, EventLog()),
        RetryingComm: lambda inner: RetryingComm(inner),
        ChecksumComm: lambda inner: ChecksumComm(inner),
        FaultyComm: lambda inner: FaultyComm(inner, FaultPlan.disabled()),
        SanitizerComm: lambda inner: SanitizerComm(inner),
    }


#: primitive -> the arguments the transparency test calls it with
_PRIMITIVES = {
    "send": ("payload", 0, 7), "recv": (0, 7, 1.5),
    "allreduce": (2.0, "max"), "bcast": ("obj", 0), "gather": ("obj", 0),
    "allgather": ("obj",), "barrier": (),
}


class TestForwardingComm:
    def test_every_wrapper_is_registered_here(self):
        from repro.comm.base import ForwardingComm
        assert set(ForwardingComm.__subclasses__()) == set(_wrappers())

    @pytest.mark.parametrize("cls", list(_wrappers()), ids=lambda c: c.__name__)
    def test_undefined_methods_reach_inner_with_their_arguments(self, cls):
        inner = _Loopback()
        inner.boxes[7] = ["queued"]
        wrapper = _wrappers()[cls](inner)
        assert "rank" not in vars(cls) and "size" not in vars(cls)
        assert (wrapper.rank, wrapper.size) == (0, 1)
        assert wrapper.inner is inner
        for name, args in _PRIMITIVES.items():
            if name in vars(cls):
                continue          # an interception: covered by its own tests
            del inner.calls[:]
            out = getattr(wrapper, name)(*args)
            assert inner.calls == [(name, args)], (cls.__name__, name)
            if name == "recv":
                assert out == "queued"
            elif name not in ("send", "barrier"):
                assert out == (name, "result")

    def test_isend_irecv_stay_on_the_wrappers_own_send_recv(self):
        """Forwarding isend/irecv to ``inner`` would bypass every
        interception; the ABC defaults route them through the wrapper."""
        from repro.resilience import (ChecksumComm, FaultPlan, FaultRule,
                                      FaultyComm, RetryingComm)
        from repro.resilience.integrity import CHANNEL_OFFSET
        from repro.utils.errors import TransientCommError

        # event counts observed
        ic = InstrumentedComm(_Loopback(), EventLog())
        ic.isend("m", 0, tag=3).wait()
        assert ic.irecv(0, tag=3).wait() == "m"
        assert ic.events.count("p2p_send", 3) == 1
        assert ic.events.count("p2p_recv", 3) == 1

        # retries observed
        class Flaky(_Loopback):
            failed = set()

            def _once(self, name):
                if name not in self.failed:
                    self.failed.add(name)
                    raise TransientCommError(f"first {name} fails")

            def send(self, obj, dest, tag=0):
                self._once("send")
                super().send(obj, dest, tag)

            def recv(self, source, tag=0, timeout=None):
                self._once("recv")
                return super().recv(source, tag, timeout)

        rc = RetryingComm(Flaky())
        rc.isend("m", 0, tag=3).wait()
        assert rc.irecv(0, tag=3).wait() == "m"
        assert rc.retries == 2

        # fault consult observed
        fc = FaultyComm(_Loopback(), FaultPlan(seed=1, rules=(
            FaultRule(mode="delay", ops=("send", "recv")),)))
        fc.isend("m", 0, tag=3).wait()
        assert fc.irecv(0, tag=3).wait() == "m"
        assert [ev.op for ev in fc.log] == ["send", "recv"]

        # checksum framing observed: two framed copies on two channels
        inner = _Loopback()
        cc = ChecksumComm(inner)
        cc.isend(np.arange(3.0), 0, tag=3).wait()
        sends = [args for name, args in inner.calls if name == "send"]
        assert [tag for _obj, _dest, tag in sends] == [3, 3 + CHANNEL_OFFSET]
        assert all(obj.shape != (3,) for obj, _dest, _tag in sends)
        assert np.array_equal(cc.irecv(0, tag=3).wait(), np.arange(3.0))
