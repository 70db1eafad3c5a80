"""Deterministic, seeded communication-fault injection.

At Titan/Piz Daint scale transient link failures, corrupted reductions and
straggling ranks are the norm, not the exception — and
communication-reduced CG variants are exactly the solvers known to be
numerically fragile under perturbed reductions (Bernaschi et al.).  This
module turns those hazards into *reproducible experiments*:

- a :class:`FaultPlan` declares what can go wrong (rules matching
  operations by kind/tag/rank/payload size, plus one-shot rank crash
  windows);
- :class:`FaultyComm` wraps any :class:`~repro.comm.base.Communicator`
  and consults the plan on every operation, injecting the declared faults
  from a seeded generator;
- every injected fault is logged as a :class:`FaultEvent` carrying the
  rank, operation, per-rank operation index and (when a
  :class:`~repro.resilience.guard.SolverGuard` shares an
  :class:`IterationCell`) the solver iteration — two runs with the same
  plan produce byte-identical fault logs.

Determinism and SPMD coherence
------------------------------
Fault decisions never consult wall-clock time or global RNG state.  Each
decision is a single uniform draw from ``np.random.default_rng`` seeded by
``(plan.seed, rule_index, op_code, rank_component, op_count)``:

- **point-to-point** operations include the rank, so each rank's link
  faults are independent — but fixed for a given seed regardless of
  thread scheduling;
- **collective** operations use a rank-*independent* seed keyed by the
  per-rank collective sequence number, which is identical on every rank
  of an SPMD program.  All ranks therefore take the same decision at the
  same collective: a corrupted allreduce is corrupted *identically*
  everywhere (as a faulty reduction tree would), and a transient error on
  a collective raises on every rank before any rank enters the barrier —
  so retries stay coherent and the world never deadlocks.

Fault modes
-----------
``error``
    Raise :class:`~repro.utils.errors.TransientCommError` *before* the
    operation touches the wire; a retry re-issues it cleanly.
``drop``
    Silently discard a ``send`` payload.  This is a *hard* fault: the
    receiver's ``recv`` can only fail by timeout, and retrying the
    receive cannot resurrect the message — it exists to exercise the
    timeout and solver-level degradation paths.
``delay``
    Deliver normally but charge ``delay_s`` to the injected virtual
    clock (see :class:`~repro.resilience.retry.VirtualClock`).
``corrupt_nan`` / ``corrupt_inf`` / ``corrupt_sign`` / ``corrupt_scale``
    Perturb the payload: NaN/Inf injection into one deterministic element
    of an array (or the scalar itself), sign flip, or magnitude scaling —
    the bit-flip-style corruptions that silently break Chebyshev's
    spectrum bounds and CG's recurrences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.comm.base import Communicator, ForwardingComm, payload_bytes
from repro.utils.errors import ConfigurationError, TransientCommError
from repro.utils.events import EventLog

#: Operation names a rule may match.
OPS = ("send", "recv", "allreduce", "bcast", "gather", "allgather",
       "barrier")
#: Operations whose fault decisions must coincide on every rank.
COLLECTIVE_OPS = frozenset({"allreduce", "bcast", "gather", "allgather",
                            "barrier"})
#: Stable integer codes folded into the seed (order = OPS).
_OP_CODE = {name: i for i, name in enumerate(OPS)}

MODES = ("error", "drop", "delay",
         "corrupt_nan", "corrupt_inf", "corrupt_sign", "corrupt_scale")
#: Modes that perturb the payload instead of failing the operation.
CORRUPTION_MODES = frozenset({"corrupt_nan", "corrupt_inf",
                              "corrupt_sign", "corrupt_scale"})


class IterationCell:
    """Mutable solver-iteration marker shared between guard and injector.

    A :class:`~repro.resilience.guard.SolverGuard` advances ``value`` each
    iteration; :class:`FaultyComm` stamps it into every
    :class:`FaultEvent`, so fault logs read "rank 1, op 37, iteration 12"
    instead of leaving the reader to reconstruct solver phase.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = -1):
        self.value = value


@dataclass(frozen=True)
class FaultRule:
    """One class of injectable fault.

    Parameters
    ----------
    mode:
        One of :data:`MODES` (see module docstring).
    probability:
        Per-matching-operation firing probability in ``[0, 1]``.
    ops:
        Operation kinds the rule applies to.
    ranks:
        Restrict to these ranks (``None`` = every rank).  Ignored for
        collective operations, whose decisions are rank-coherent by
        construction.
    tags:
        Point-to-point tag filter (halo traffic uses tags 101-104).
    min_bytes:
        Only operations whose payload is at least this large match — a
        size-based filter that singles out deep-halo exchanges (the
        matrix-powers kernel's big messages) without the comm layer
        knowing about halos.
    window:
        Half-open operation-index range ``[start, stop)`` in which the
        rule is live (``None`` = always).  Point-to-point operations are
        indexed by the per-rank global op counter; collectives by their
        per-kind collective sequence number, which is identical on every
        rank — so a windowed collective rule stays SPMD-coherent.
    max_faults:
        Cap on how many times this rule fires per communicator endpoint.
    delay_s / scale:
        Mode parameters for ``delay`` and ``corrupt_scale``.
    """

    mode: str
    probability: float = 1.0
    ops: tuple = ("send", "recv", "allreduce")
    ranks: tuple | None = None
    tags: tuple | None = None
    min_bytes: int = 0
    window: tuple | None = None
    max_faults: int | None = None
    delay_s: float = 1e-3
    scale: float = 100.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r}; expected one of {MODES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {self.probability}")
        unknown = set(self.ops) - set(OPS)
        if unknown:
            raise ConfigurationError(
                f"unknown op(s) {sorted(unknown)}; expected from {OPS}")

    def to_dict(self) -> dict:
        """JSON-ready description; inverse of :meth:`from_dict`.

        Tuples become lists (JSON has no tuple type); ``None`` filters stay
        ``None``.  The chaos shrinker serializes minimized plans through
        this so regression fixtures are plain JSON files.
        """
        return {
            "mode": self.mode,
            "probability": self.probability,
            "ops": list(self.ops),
            "ranks": None if self.ranks is None else list(self.ranks),
            "tags": None if self.tags is None else list(self.tags),
            "min_bytes": self.min_bytes,
            "window": None if self.window is None else list(self.window),
            "max_faults": self.max_faults,
            "delay_s": self.delay_s,
            "scale": self.scale,
        }

    @staticmethod
    def from_dict(data: dict) -> "FaultRule":
        """Rebuild a rule from :meth:`to_dict` output (validates fields)."""
        def tup(value):
            return None if value is None else tuple(value)
        return FaultRule(
            mode=data["mode"],
            probability=data.get("probability", 1.0),
            ops=tuple(data.get("ops", ("send", "recv", "allreduce"))),
            ranks=tup(data.get("ranks")),
            tags=tup(data.get("tags")),
            min_bytes=data.get("min_bytes", 0),
            window=tup(data.get("window")),
            max_faults=data.get("max_faults"),
            delay_s=data.get("delay_s", 1e-3),
            scale=data.get("scale", 100.0),
        )

    def matches(self, op: str, rank: int, tag: int | None,
                nbytes: int, op_index: int) -> bool:
        if op not in self.ops:
            return False
        if (self.ranks is not None and op not in COLLECTIVE_OPS
                and rank not in self.ranks):
            return False
        if self.tags is not None and tag is not None and tag not in self.tags:
            return False
        if nbytes < self.min_bytes:
            return False
        if self.window is not None \
                and not self.window[0] <= op_index < self.window[1]:
            return False
        return True


@dataclass(frozen=True)
class CrashWindow:
    """A one-shot rank "crash": ``length`` consecutive operations fail.

    The rank is modelled as unresponsive-then-rebooted: every operation it
    attempts while ``start <= op_index < start + length`` raises
    :class:`TransientCommError`.  From its peers' perspective the rank's
    messages simply arrive late — a retrying caller rides out the window
    (each retry advances the operation index) and completes normally,
    provided ``length`` is smaller than the retry layer's ``max_attempts``;
    longer crashes exhaust the budget and surface as a hard failure, which
    is the intended model for a rank that never comes back.
    """

    rank: int
    start: int
    length: int

    def __post_init__(self):
        if self.length < 1 or self.start < 0 or self.rank < 0:
            raise ConfigurationError(
                f"invalid crash window (rank={self.rank}, start={self.start},"
                f" length={self.length})")

    def covers(self, rank: int, op_index: int) -> bool:
        return (rank == self.rank
                and self.start <= op_index < self.start + self.length)

    def to_dict(self) -> dict:
        """JSON-ready description; inverse of :meth:`from_dict`."""
        return {"rank": self.rank, "start": self.start,
                "length": self.length}

    @staticmethod
    def from_dict(data: dict) -> "CrashWindow":
        """Rebuild a crash window from :meth:`to_dict` output."""
        return CrashWindow(rank=data["rank"], start=data["start"],
                           length=data["length"])


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, seeded description of everything that may go wrong.

    ``FaultPlan.disabled()`` is the identity plan used to prove the
    resilience stack adds zero contract drift when faults are off.
    """

    seed: int = 0
    rules: tuple = ()
    crashes: tuple = ()
    enabled: bool = True

    def __post_init__(self):
        for r in self.rules:
            if not isinstance(r, FaultRule):
                raise ConfigurationError(
                    f"rules must be FaultRule instances, got {type(r).__name__}")
        for c in self.crashes:
            if not isinstance(c, CrashWindow):
                raise ConfigurationError(
                    f"crashes must be CrashWindow instances, got {type(c).__name__}")

    @staticmethod
    def disabled() -> "FaultPlan":
        """A plan that injects nothing (zero-overhead passthrough)."""
        return FaultPlan(enabled=False)

    @staticmethod
    def transient(rate: float, seed: int = 0,
                  ops: tuple = ("send", "recv", "allreduce")) -> "FaultPlan":
        """Uniform transient-error plan: each op fails with ``rate``."""
        return FaultPlan(seed=seed,
                         rules=(FaultRule("error", probability=rate, ops=ops),))

    def active(self) -> bool:
        return self.enabled and bool(self.rules or self.crashes)

    def to_dict(self) -> dict:
        """JSON-ready plan description (schema ``repro.fault_plan/v1``).

        Round-trips exactly through :meth:`from_dict`:
        ``FaultPlan.from_dict(plan.to_dict()) == plan`` for every legal
        plan, which is what lets the chaos shrinker persist minimized
        plans as regression fixtures under ``tests/fixtures/chaos/``.
        """
        return {
            "schema": "repro.fault_plan/v1",
            "seed": self.seed,
            "enabled": self.enabled,
            "rules": [r.to_dict() for r in self.rules],
            "crashes": [c.to_dict() for c in self.crashes],
        }

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output.

        Raises :class:`ConfigurationError` on an unknown schema tag or any
        invalid rule/window field (the dataclass validators re-run).
        """
        schema = data.get("schema", "repro.fault_plan/v1")
        if schema != "repro.fault_plan/v1":
            raise ConfigurationError(
                f"unknown fault-plan schema {schema!r}; expected "
                "'repro.fault_plan/v1'")
        return FaultPlan(
            seed=data.get("seed", 0),
            rules=tuple(FaultRule.from_dict(r)
                        for r in data.get("rules", ())),
            crashes=tuple(CrashWindow.from_dict(c)
                          for c in data.get("crashes", ())),
            enabled=data.get("enabled", True),
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, fully identifying its position in the run."""

    rank: int
    op: str
    op_index: int
    iteration: int
    rule: int          # index into plan.rules, or -1 for a crash window
    mode: str
    detail: str = ""

    def __str__(self) -> str:
        where = f"rank {self.rank} op#{self.op_index} ({self.op})"
        it = f" iter {self.iteration}" if self.iteration >= 0 else ""
        return f"[fault {self.mode}] {where}{it}: {self.detail}"


def _corrupt(obj: Any, mode: str, scale: float,
             rng: np.random.Generator) -> tuple[Any, str]:
    """Return a perturbed copy of a payload plus a human-readable note."""
    if isinstance(obj, np.ndarray):
        out = obj.copy()
        flat = out.reshape(-1)
        if flat.size == 0:
            return out, "empty payload untouched"
        i = int(rng.integers(flat.size))
        if mode == "corrupt_nan":
            flat[i] = np.nan
        elif mode == "corrupt_inf":
            flat[i] = np.inf
        elif mode == "corrupt_sign":
            flat[i] = -flat[i]
        else:
            flat[i] = flat[i] * scale
        return out, f"element {i}/{flat.size} perturbed ({mode})"
    if isinstance(obj, (int, float, np.floating, np.integer)):
        v = float(obj)
        if mode == "corrupt_nan":
            return float("nan"), "scalar -> NaN"
        if mode == "corrupt_inf":
            return float("inf"), "scalar -> Inf"
        if mode == "corrupt_sign":
            return -v, "scalar sign flipped"
        return v * scale, f"scalar scaled by {scale}"
    # Structured payloads (tuples from gathers, ...) are left intact:
    # corrupting pickled control data would model a different failure
    # class (software bugs) than the bit-flips this module injects.
    return obj, "non-numeric payload untouched"


class FaultyComm(ForwardingComm):
    """Communicator decorator injecting faults from a :class:`FaultPlan`.

    Composes with the existing wrappers; the canonical resilient stack is
    ``InstrumentedComm(RetryingComm(FaultyComm(base)))`` so instrument
    counts stay first-attempt counts (see
    :data:`repro.comm.instrument.RETRY_KIND`).

    Parameters
    ----------
    inner:
        The wrapped communicator.
    plan:
        The fault plan; ``FaultPlan.disabled()`` makes this a passthrough.
    events:
        Optional :class:`EventLog`; each injected fault records a
        ``("fault", mode)`` event.
    clock:
        Optional clock (``sleep(seconds)``) charged by ``delay`` faults.
    iteration:
        Optional :class:`IterationCell` stamped into fault events.
    """

    def __init__(self, inner: Communicator, plan: FaultPlan,
                 events: EventLog | None = None,
                 clock=None,
                 iteration: IterationCell | None = None):
        super().__init__(inner)
        self.plan = plan
        self.events = events
        self.clock = clock
        self.iteration = iteration if iteration is not None else IterationCell()
        #: chronological per-endpoint fault log (reproducible across runs)
        self.log: list[FaultEvent] = []
        self._op_index = 0
        self._op_counts: dict[str, int] = {}
        self._rule_fires: dict[int, int] = {}

    # -- fault decision --------------------------------------------------------

    def _consult(self, op: str, obj: Any = None,
                 tag: int | None = None) -> list[tuple[int, FaultRule]]:
        """Advance counters and return the corruption rules that fired.

        ``error``/``drop``/``delay`` effects are applied in here (raise,
        log, or charge the clock); corruption rules are returned so the
        caller can apply them to its payload or result.
        """
        if not self.plan.active():
            return []
        idx = self._op_index
        self._op_index += 1
        seq = self._op_counts.get(op, 0)
        self._op_counts[op] = seq + 1

        for cw in self.plan.crashes:
            if cw.covers(self.rank, idx):
                self._record(op, idx, -1, "error",
                             f"rank crash window [{cw.start},"
                             f"{cw.start + cw.length})")
                raise TransientCommError(
                    f"injected crash: rank {self.rank} unresponsive at "
                    f"op#{idx} ({op})")

        nbytes = payload_bytes(obj) if obj is not None else 0
        collective = op in COLLECTIVE_OPS
        # Window matching must be rank-coherent for collectives: the
        # per-rank global op index drifts between ranks as their p2p
        # counts differ, so a windowed collective rule matched on it
        # would fire on a strict subset of ranks — an incoherent
        # collective fault that desyncs the world (one rank retries the
        # reduction, its peers move on; found by the chaos campaigns).
        # Collectives therefore match windows on their per-kind sequence
        # number, which is identical on every rank of an SPMD program.
        match_idx = seq if collective else idx
        fired: list[tuple[int, FaultRule]] = []
        for i, rule in enumerate(self.plan.rules):
            if not rule.matches(op, self.rank, tag, nbytes, match_idx):
                continue
            cap = rule.max_faults
            if cap is not None and self._rule_fires.get(i, 0) >= cap:
                continue
            if rule.probability < 1.0:
                rng = self._rng(i, op, seq, collective)
                if rng.random() >= rule.probability:
                    continue
            self._rule_fires[i] = self._rule_fires.get(i, 0) + 1
            if rule.mode == "error":
                self._record(op, idx, i, "error",
                             f"transient link error (p={rule.probability})")
                raise TransientCommError(
                    f"injected transient error: rank {self.rank} op#{idx} "
                    f"({op}, rule {i})")
            if rule.mode == "delay":
                self._record(op, idx, i, "delay", f"+{rule.delay_s}s")
                if self.clock is not None:
                    self.clock.sleep(rule.delay_s)
                continue
            # drop and corruptions are applied by the caller
            fired.append((i, rule))
        return fired

    def _rng(self, rule_index: int, op: str, seq: int,
             collective: bool) -> np.random.Generator:
        rank_component = 0 if collective else self.rank + 1
        return np.random.default_rng(
            (self.plan.seed, rule_index, _OP_CODE[op], rank_component, seq))

    def _payload_rng(self, rule_index: int, op: str,
                     seq: int, collective: bool) -> np.random.Generator:
        # A distinct stream from the decision draw, same determinism rules.
        rank_component = 0 if collective else self.rank + 1
        return np.random.default_rng(
            (self.plan.seed, 7919 + rule_index, _OP_CODE[op],
             rank_component, seq))

    def _record(self, op: str, op_index: int, rule: int, mode: str,
                detail: str) -> None:
        ev = FaultEvent(rank=self.rank, op=op, op_index=op_index,
                        iteration=self.iteration.value, rule=rule,
                        mode=mode, detail=detail)
        self.log.append(ev)
        if self.events is not None:
            self.events.record("fault", mode)

    def _apply_corruptions(self, op: str, obj: Any,
                           fired: list[tuple[int, FaultRule]],
                           op_index: int) -> Any:
        collective = op in COLLECTIVE_OPS
        for i, rule in fired:
            if rule.mode not in CORRUPTION_MODES:
                continue
            seq = self._op_counts[op] - 1
            rng = self._payload_rng(i, op, seq, collective)
            obj, note = _corrupt(obj, rule.mode, rule.scale, rng)
            self._record(op, op_index, i, rule.mode, note)
        return obj

    # -- point to point --------------------------------------------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        idx = self._op_index
        fired = self._consult("send", obj, tag)
        for i, rule in fired:
            if rule.mode == "drop":
                self._record("send", idx, i, "drop",
                             f"payload to rank {dest} tag {tag} discarded")
                return
        obj = self._apply_corruptions("send", obj, fired, idx)
        self.inner.send(obj, dest, tag)

    def recv(self, source: int, tag: int = 0,
             timeout: float | None = None):
        idx = self._op_index
        fired = self._consult("recv", None, tag)
        obj = self.inner.recv(source, tag, timeout=timeout)
        return self._apply_corruptions("recv", obj, fired, idx)

    # -- collectives -----------------------------------------------------------

    def allreduce(self, value, op: str = "sum"):
        idx = self._op_index
        fired = self._consult("allreduce", value)
        out = self.inner.allreduce(value, op)
        # Corrupt the *result*, identically on every rank (coherent SPMD
        # decision) — modelling a faulty reduction tree, not divergent
        # per-rank contributions that would deadlock the control flow.
        return self._apply_corruptions("allreduce", out, fired, idx)

    def bcast(self, obj, root: int = 0):
        idx = self._op_index
        fired = self._consult("bcast", obj)
        out = self.inner.bcast(obj, root)
        return self._apply_corruptions("bcast", out, fired, idx)

    def gather(self, obj, root: int = 0):
        self._consult("gather", obj)
        return self.inner.gather(obj, root)

    def allgather(self, obj) -> list:
        self._consult("allgather", obj)
        return self.inner.allgather(obj)

    def barrier(self) -> None:
        self._consult("barrier", None)
        self.inner.barrier()
