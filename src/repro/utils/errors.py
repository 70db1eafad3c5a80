"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish configuration mistakes from runtime failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """Invalid user-supplied configuration (options, decks, parameters)."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to reach the requested tolerance.

    The partially converged result is attached so callers can inspect it.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class DecompositionError(ReproError, ValueError):
    """A domain decomposition request cannot be satisfied."""


class CommunicationError(ReproError, RuntimeError):
    """Misuse of, or failure inside, the SPMD communication layer."""


class TransientCommError(CommunicationError):
    """A communication failure expected to succeed when re-issued.

    Raised by the fault-injection layer (:mod:`repro.resilience.faults`) for
    transient link errors and crash windows;
    :class:`~repro.resilience.retry.RetryingComm` retries exactly this
    class — plain :class:`CommunicationError` (misuse, timeouts on dropped
    messages) fails fast because re-issuing cannot help.
    """


class ChecksumError(TransientCommError):
    """A checksummed message envelope failed verification.

    Raised by :class:`~repro.resilience.integrity.ChecksumComm` when every
    redundant copy of a payload arrives corrupted (or a duplicate-lane
    reduction disagrees with itself).  Derives from
    :class:`TransientCommError` so the retry layer treats detected silent
    corruption exactly like a flaky wire: re-issue the operation.
    """


class SanitizerError(CommunicationError):
    """The SPMD sanitizer detected a correctness violation.

    Raised by :class:`~repro.comm.sanitize.SanitizerComm` when ranks issue
    divergent collectives, a point-to-point channel shows a write-epoch
    race or crossed message, or the deadlock watchdog trips.  Derives from
    plain :class:`CommunicationError` (not the transient flavour): the
    program is wrong, so re-issuing the operation cannot help and the
    retry layer must fail fast.
    """


class CheckpointError(ReproError, RuntimeError):
    """A durable checkpoint could not be written, read or validated.

    Covers missing/truncated shard files, manifest mismatches and CRC32
    failures detected by :mod:`repro.resilience.checkpoint`.
    """


class JournalError(ReproError, RuntimeError):
    """The write-ahead request journal is unusable or inconsistent.

    Raised by :mod:`repro.service.journal` for corruption in a *sealed*
    segment (sealed segments were fsynced before their atomic rename, so
    damage there is real bit rot, not a torn tail) and for replay
    divergence — a deterministic re-run producing a record that disagrees
    with what the journal already holds.  A torn tail on the *active*
    segment is expected after SIGKILL and is healed silently, never
    raised.
    """


class Cancelled(ReproError, RuntimeError):
    """A cooperative cancellation request stopped a solve mid-flight.

    Raised at an iteration boundary by a solver holding a fired
    :class:`~repro.service.cancel.CancelToken`.  Deliberately *not* a
    :class:`CommunicationError`: :func:`~repro.comm.spmd.launch_spmd`
    prefers non-communication errors as the primary failure, so the
    cancellation (and not the peers' secondary abort fallout) is what
    surfaces to the caller.  ``iteration`` is the boundary the solve
    stopped at — identical on every rank by construction (see
    :meth:`~repro.service.cancel.CancelToken.check`).
    """

    def __init__(self, message: str, iteration: int = -1):
        super().__init__(message)
        self.iteration = iteration


class WorkerStuck(Cancelled):
    """A worker supervisor declared a dispatch stuck and cancelled it.

    Raised at an iteration boundary by a solve holding a tripped
    :class:`~repro.service.supervisor.SupervisedToken`: either the
    iteration count blew past the supervisor's liveness budget (virtual
    clock) or the wall-clock watchdog fired (asyncio front-end).
    Subclass of :class:`Cancelled` so the abort stays rank-coherent and
    quiescent; the service classifies it separately and redispatches
    under the breaker/hedging machinery instead of failing the request.
    """


class WorkerDied(CommunicationError):
    """A service worker process exited while it held a dispatch.

    Never raised: the asyncio front-end names it as the ``error_class``
    of the ``retryable`` reply it synthesizes when a worker's socket
    reads EOF (SIGKILL, OOM kill, interpreter crash).  A
    :class:`CommunicationError` because that is how the service treats
    it — the worker's breaker counts it and the request is hedged onto
    another worker.
    """


class DeadlineExceeded(Cancelled):
    """A per-request deadline expired before the solve converged.

    Subclass of :class:`Cancelled` so callers can treat client
    cancellation and deadline expiry uniformly while the service
    classifies them separately.  ``deadline_s`` is the (virtual-clock)
    absolute deadline the request carried, when known.
    """

    def __init__(self, message: str, iteration: int = -1,
                 deadline_s: float | None = None):
        super().__init__(message, iteration=iteration)
        self.deadline_s = deadline_s


def stall_error(solver: str, iterations: int, residual_norm: float,
                reference_norm: float, eps: float,
                result=None) -> ConvergenceError:
    """Uniform non-convergence error shared by every ``raise_on_stall`` path.

    The message always names the solver and reports the final *relative*
    residual and the iteration count, so harnesses can parse stalls the
    same way regardless of which solver stalled.
    """
    rel = (residual_norm / reference_norm if reference_norm
           else float("inf"))
    return ConvergenceError(
        f"{solver} did not converge in {iterations} iterations: "
        f"relative residual {rel:.3e} > eps {eps:.3e}",
        result=result)
