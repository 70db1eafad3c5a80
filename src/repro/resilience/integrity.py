"""Silent-data-corruption detection at the communication layer.

:class:`ChecksumComm` wraps any :class:`~repro.comm.base.Communicator` and
turns the fault injector's silent payload corruptions (NaN/Inf/sign/scale —
see :mod:`repro.resilience.faults`) into *detected, retryable* faults:

- **point-to-point** — every logical ``send`` posts ``copies`` redundant
  envelopes on per-copy channels (``tag + k * CHANNEL_OFFSET``).  Each
  envelope is a flat ``float64`` frame ``[seq, ndim, *shape, *data, crc]``
  whose CRC32 covers the sequence number *and* the data, so any corrupted
  element — including the metadata — fails verification.  The receiver
  consumes one message per channel, discards stale duplicates left behind
  by retried sends (``seq`` below the expected counter), and returns the
  first copy that verifies; if *every* copy is bad it raises
  :class:`~repro.utils.errors.ChecksumError`.
- **allreduce** — float payloads are reduced in two identical lanes
  (the contribution concatenated with itself).  The fold is an elementwise,
  fixed-rank-order reduction, so the lanes of an uncorrupted result are
  bitwise identical; any single-element corruption makes them disagree.
  Since the injector corrupts collective results rank-coherently, every
  rank raises the same :class:`ChecksumError` and the retry layer re-issues
  the collective coherently.
- **bcast** — the root broadcasts a framed envelope; receivers verify the
  CRC and raise coherently on corruption so the root re-broadcasts.

``ChecksumError`` derives from ``TransientCommError``, so composing with
:class:`~repro.resilience.retry.RetryingComm` in any order converts
detections into retries.  The canonical resilient stack places it *between*
the retry and fault layers::

    InstrumentedComm(RetryingComm(ChecksumComm(FaultyComm(base))))

keeping the instrument layer's logical counts (and hence the COMM_CONTRACT
verifier) oblivious to both the redundancy and the retries.

Payloads that are not ``float64`` arrays or float scalars are wrapped as
``("__raw__", seq, obj)`` sentinels — tuples pass through the injector's
corruption untouched, so the sentinel always survives; it keeps the
per-(peer, tag) sequence stream uniform across raw and enveloped traffic.

Known limitation: a *corrupted stale duplicate* (a retried copy that was
also corrupted) cannot be identified as stale and consumes one candidate
slot for the current receive; as long as any valid copy exists the receive
still succeeds, and the next receive on that channel re-aligns by
discarding the now-stale leftover.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.comm.base import Communicator, ForwardingComm
from repro.utils.errors import ChecksumError
from repro.utils.events import EventLog

#: Event kind under which detections/repairs are recorded.
INTEGRITY_KIND = "integrity"

#: Channel stride separating redundant copies of one logical tag.  Real tags
#: in this codebase are small (halo exchange uses 101-104), so copies never
#: collide with logical traffic.
CHANNEL_OFFSET = 1 << 16

_RAW_SENTINEL = "__raw__"


@dataclass(frozen=True)
class IntegrityEvent:
    """One detection made by the integrity layer."""

    op: str            #: "recv", "allreduce" or "bcast"
    kind: str          #: "detect" (bad copy seen) or "repair" (redundancy saved the op)
    peer: int | None   #: source rank for p2p, None for collectives
    tag: int | None    #: logical tag for p2p, None for collectives
    detail: str


def _encode_frame(seq: int, obj) -> np.ndarray | None:
    """Frame a float payload as ``[seq, ndim, *shape, *data, crc]``.

    Returns ``None`` for payloads the envelope cannot represent (anything
    but ``float64`` arrays and float scalars).
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64:
            return None
        data = np.ascontiguousarray(obj).ravel()
        shape: tuple[int, ...] = obj.shape
    elif isinstance(obj, (float, np.floating)) and not isinstance(obj, bool):
        data = np.array([float(obj)])
        shape = ()
    else:
        return None
    head = np.empty(2 + len(shape))
    head[0] = seq
    head[1] = len(shape)
    head[2:] = shape
    crc = zlib.crc32(np.concatenate(([float(seq)], data)).tobytes())
    return np.concatenate((head, data, [crc]))


def _decode_frame(frame) -> tuple[int, object] | None:
    """Verify + unpack a frame; ``None`` if it is invalid or corrupted."""
    if not isinstance(frame, np.ndarray) or frame.dtype != np.float64 \
            or frame.ndim != 1 or frame.size < 3:
        return None
    try:
        seq_f, nd_f = frame[0], frame[1]
        if not (np.isfinite(seq_f) and np.isfinite(nd_f)):
            return None
        seq, nd = int(seq_f), int(nd_f)
        if seq != seq_f or nd != nd_f or seq < 0 or not 0 <= nd <= 8:
            return None
        shape_f = frame[2:2 + nd]
        if not np.all(np.isfinite(shape_f)):
            return None
        shape = tuple(int(s) for s in shape_f)
        if any(s != f or s < 0 for s, f in zip(shape, shape_f)):
            return None
        count = 1 if nd == 0 else int(np.prod(shape))
        if frame.size != 2 + nd + count + 1:
            return None
        data = frame[2 + nd:-1]
        crc_f = frame[-1]
        if not np.isfinite(crc_f) or int(crc_f) != crc_f:
            return None
        crc = zlib.crc32(np.concatenate(([float(seq)], data)).tobytes())
        if crc != int(crc_f):
            return None
    except (ValueError, OverflowError):
        return None
    if nd == 0:
        return seq, float(data[0])
    return seq, data.copy().reshape(shape)


class ChecksumComm(ForwardingComm):
    """Checksummed redundant-envelope wrapper over an inner communicator.

    Point-to-point and broadcast payloads travel in CRC32-verified frames;
    float allreduce runs in duplicate lanes.  Detected corruption raises
    :class:`ChecksumError` (retryable) unless a redundant copy repairs it
    in place.  ``gather``/``allgather``/``barrier`` pass through unchanged
    (the injector does not corrupt them).
    """

    def __init__(self, inner: Communicator, events: EventLog | None = None,
                 copies: int = 2):
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        super().__init__(inner)
        self.events = events
        self.copies = copies
        self.detections = 0
        self.repairs = 0
        self.integrity_events: list[IntegrityEvent] = []
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_seq: dict[tuple[int, int], int] = {}
        # Mid-protocol receive state per (source, tag): a transient error
        # on one copy's channel must not discard the copies already
        # consumed and verified — the retry layer re-enters recv() and
        # resumes at the channel that failed (see recv()).
        self._recv_partial: dict[tuple[int, int], dict] = {}

    def _note(self, op: str, kind: str, detail: str,
              peer: int | None = None, tag: int | None = None) -> None:
        if kind == "detect":
            self.detections += 1
        else:
            self.repairs += 1
        self.integrity_events.append(
            IntegrityEvent(op=op, kind=kind, peer=peer, tag=tag, detail=detail))
        if self.events is not None:
            self.events.record(INTEGRITY_KIND, kind)

    # -- point to point -----------------------------------------------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        key = (dest, tag)
        seq = self._send_seq.get(key, 0)
        frame = _encode_frame(seq, obj)
        payload = (_RAW_SENTINEL, seq, obj) if frame is None else frame
        for k in range(self.copies):
            # A mid-loop transient error leaves earlier copies on the wire
            # with this same seq; the retried send re-posts them and the
            # receiver drops the duplicates (seq already consumed).
            self.inner.send(payload, dest, tag + k * CHANNEL_OFFSET)
        self._send_seq[key] = seq + 1

    def recv(self, source: int, tag: int = 0, timeout: float | None = None):
        """Receive one logical message (first verifying copy wins).

        The copy loop is *resumable*: consuming and verifying a copy
        advances durable per-key state, so when a transient error fires on
        a later copy's channel and the retry layer re-enters this method,
        it resumes at the channel that failed instead of re-consuming the
        earlier channels — re-consuming would deliver the *next* logical
        message's envelope for the current receive and silently shift the
        whole sequence stream (a cross-mechanism bug the chaos campaigns
        caught: retry x redundant envelopes).
        """
        key = (source, tag)
        expected = self._recv_seq.get(key, 0)
        state = self._recv_partial.setdefault(key, {"next_copy": 0,
                                                    "good": None, "bad": 0})
        while state["next_copy"] < self.copies:
            k = state["next_copy"]
            chan = tag + k * CHANNEL_OFFSET
            while True:
                # May raise TransientCommError *before* consuming (the
                # injector fails operations pre-wire): `state` still
                # points at this channel for the retried attempt.
                msg = self.inner.recv(source, chan, timeout=timeout)
                if (isinstance(msg, tuple) and len(msg) == 3
                        and msg[0] == _RAW_SENTINEL):
                    decoded: tuple[int, object] | None = (msg[1], msg[2])
                else:
                    decoded = _decode_frame(msg)
                if decoded is not None and decoded[0] < expected:
                    continue  # stale duplicate from a retried send
                break
            if decoded is None:
                state["bad"] += 1
                self._note("recv", "detect",
                           f"corrupted copy {k} on channel {chan}",
                           peer=source, tag=tag)
            elif state["good"] is None:
                state["good"] = decoded
            state["next_copy"] = k + 1
        good, bad = state["good"], state["bad"]
        del self._recv_partial[key]
        if good is None:
            raise ChecksumError(
                f"rank {self.rank}: all {self.copies} copies of message "
                f"(source={source}, tag={tag}, seq>={expected}) failed "
                f"checksum verification")
        if bad:
            self._note("recv", "repair",
                       f"{bad} bad cop{'ies' if bad > 1 else 'y'} outvoted",
                       peer=source, tag=tag)
        self._recv_seq[key] = good[0] + 1
        return good[1]

    # -- collectives -----------------------------------------------------------------

    def allreduce(self, value, op: str = "sum"):
        if isinstance(value, np.ndarray) and value.dtype == np.float64:
            flat = np.ascontiguousarray(value).ravel()
            n = flat.size
            lanes = self.inner.allreduce(np.concatenate((flat, flat)), op)
            a, b = lanes[:n], lanes[n:]
            if not np.array_equal(a, b, equal_nan=True):
                self._note("allreduce", "detect",
                           f"duplicate lanes disagree (op={op}, n={n})")
                raise ChecksumError(
                    f"rank {self.rank}: allreduce(op={op}) duplicate lanes "
                    f"disagree — corrupted reduction result")
            return a.copy().reshape(value.shape)
        if isinstance(value, (float, np.floating)) \
                and not isinstance(value, bool):
            lanes = self.inner.allreduce(
                np.array([float(value), float(value)]), op)
            if not np.array_equal(lanes[:1], lanes[1:], equal_nan=True):
                self._note("allreduce", "detect",
                           f"duplicate lanes disagree (op={op}, scalar)")
                raise ChecksumError(
                    f"rank {self.rank}: scalar allreduce(op={op}) duplicate "
                    f"lanes disagree — corrupted reduction result")
            return float(lanes[0])
        return self.inner.allreduce(value, op)

    def bcast(self, obj, root: int = 0):
        if self.rank == root:
            frame = _encode_frame(0, obj)
            payload = (_RAW_SENTINEL, 0, obj) if frame is None else frame
        else:
            payload = None
        out = self.inner.bcast(payload, root)
        if isinstance(out, tuple) and len(out) == 3 and out[0] == _RAW_SENTINEL:
            return out[2]
        decoded = _decode_frame(out)
        if decoded is None:
            self._note("bcast", "detect", f"corrupted broadcast from {root}")
            raise ChecksumError(
                f"rank {self.rank}: broadcast envelope from root {root} "
                f"failed checksum verification")
        return decoded[1]
