"""Worker groups: SPMD solver backends of the service engine.

A :class:`WorkerGroup` owns one ThreadComm SPMD world configuration (a
``group_size``-rank solve slot) plus its :class:`CircuitBreaker` and
busy-until bookkeeping.  :meth:`WorkerGroup.execute` runs one request's
solve through the canonical resilient stack
(:func:`~repro.resilience.runner.run_resilient`) with the request's
fault plan, cancel token and cached setup, and classifies the raised
exception — the engine turns the classification into a terminal
:class:`~repro.service.requests.RequestOutcome` or a re-dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.faults import FaultPlan
from repro.resilience.runner import ResilienceReport, run_resilient
from repro.service.breaker import CircuitBreaker
from repro.solvers.options import SolverOptions
from repro.utils.errors import (
    Cancelled,
    CommunicationError,
    ConfigurationError,
    ConvergenceError,
    DeadlineExceeded,
    WorkerStuck,
)


@dataclass
class ExecutionResult:
    """Classified outcome of one worker execution attempt."""

    #: "ok" | "deadline_exceeded" | "cancelled" | "stuck" | "retryable"
    #: | "fatal"
    kind: str
    report: ResilienceReport | None = None
    error: BaseException | None = None
    iterations: int = 0

    @property
    def error_class(self) -> str:
        return type(self.error).__name__ if self.error is not None else ""

    @property
    def error_message(self) -> str:
        """``str(error)``, cut to what journal records and replies carry."""
        return str(self.error)[:200] if self.error is not None else ""


def _iteration_of(exc: BaseException) -> int:
    """The iteration a Cancelled/DeadlineExceeded stopped at.

    :func:`~repro.comm.spmd.launch_spmd` re-wraps a rank's error as
    ``type(exc)(f"[rank r] ...")``, which loses the ``iteration``
    attribute to its default — the original error survives as
    ``__cause__``, so look there too.
    """
    for err in (exc, exc.__cause__):
        iteration = getattr(err, "iteration", -1)
        if iteration is not None and iteration >= 0:
            return iteration
    return -1


class WorkerGroup:
    """One solve slot: a ``group_size``-rank SPMD world per execution."""

    def __init__(self, wid: int, group_size: int = 1,
                 max_attempts: int = 5,
                 breaker: CircuitBreaker | None = None):
        self.wid = wid
        self.group_size = group_size
        self.max_attempts = max_attempts
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: virtual time until which this worker is occupied
        self.busy_until = 0.0

    def execute(self, options: SolverOptions, n: int,
                plan: FaultPlan | None = None,
                cancel=None, setup=None,
                checkpoint_dir=None,
                resume: bool | str = False) -> ExecutionResult:
        """Run one solve and classify how it ended.

        Classification drives the engine's terminal-status guarantee:

        - ``ok`` — converged (possibly internally degraded) result;
        - ``deadline_exceeded`` / ``cancelled`` — the cancel token fired
          at an iteration boundary; every rank stopped coherently;
        - ``stuck`` — the supervisor declared the dispatch dead
          (:class:`~repro.utils.errors.WorkerStuck`): re-dispatch
          elsewhere, and count it against the breaker;
        - ``retryable`` — comm-level failure (crash storm, exhausted
          retry budget, recv timeout): worth re-dispatching elsewhere,
          and what the breaker counts;
        - ``fatal`` — structured non-retryable failure (poison options,
          breakdown, stalled convergence): re-dispatching cannot help.

        ``checkpoint_dir`` makes guard snapshots durable (per-rank
        solver shards); ``resume`` restores from them first — the
        crash-recovery engine passes ``resume="exact"`` to continue the
        interrupted CG recurrence bit-identically (see
        :func:`~repro.resilience.runner.run_resilient`).
        """
        run_plan = plan if plan is not None else FaultPlan.disabled()
        try:
            report = run_resilient(options, run_plan, n=n,
                                   size=self.group_size,
                                   max_attempts=self.max_attempts,
                                   cancel=cancel, setup=setup,
                                   checkpoint_dir=checkpoint_dir,
                                   resume=resume)
        except DeadlineExceeded as exc:
            return ExecutionResult("deadline_exceeded", error=exc,
                                   iterations=max(0, _iteration_of(exc)))
        except WorkerStuck as exc:
            # Before Cancelled: WorkerStuck subclasses it (same coherent
            # iteration-boundary abort, different disposition).
            return ExecutionResult("stuck", error=exc,
                                   iterations=max(0, _iteration_of(exc)))
        except Cancelled as exc:
            return ExecutionResult("cancelled", error=exc,
                                   iterations=max(0, _iteration_of(exc)))
        except CommunicationError as exc:
            return ExecutionResult("retryable", error=exc)
        except (ConfigurationError, ConvergenceError, ArithmeticError,
                ValueError) as exc:
            # BreakdownError subclasses ArithmeticError; a poison deck's
            # options error and a genuinely stalled solve both land here.
            return ExecutionResult("fatal", error=exc)
        if not report.converged:
            return ExecutionResult(
                "fatal",
                report=report,
                error=ConvergenceError(
                    f"{options.solver} exhausted {options.max_iters} "
                    f"iterations (residual {report.relative_residual:.3e})"),
                iterations=report.iterations)
        return ExecutionResult("ok", report=report,
                               iterations=report.iterations)
