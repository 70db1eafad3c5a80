"""Instrumentation hooks: attaching a tracer to a live operator.

Spans come out of a run through the constructors that take a
:class:`~repro.observe.trace.Tracer`
(:class:`~repro.comm.instrument.InstrumentedComm`,
:class:`~repro.solvers.operator.StencilOperator2D`,
:class:`~repro.mesh.halo.HaloExchanger`,
:class:`~repro.physics.simulation.Simulation`); :func:`attach_tracer`
installs one on an already-built operator and its comm context.
"""

from __future__ import annotations

from repro.observe.trace import Tracer

__all__ = ["attach_tracer"]


def attach_tracer(op, tracer: Tracer) -> Tracer:
    """Install ``tracer`` on an operator and its comm context, in place.

    Sets the tracer on the operator (``stencil`` spans), its halo
    exchanger (``halo_exchange`` spans) and — when the communicator is an
    :class:`~repro.comm.instrument.InstrumentedComm` — the comm layer
    (``allreduce``/``p2p_*`` spans).  All three share the one tracer so
    comm spans nest correctly under solver spans.  Returns the tracer.
    """
    op.tracer = tracer
    if op.exchanger is not None:
        op.exchanger.tracer = tracer
    if hasattr(op.comm, "tracer"):
        op.comm.tracer = tracer
    return tracer
