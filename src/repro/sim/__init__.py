"""Minimal discrete-event simulation engine and execution traces.

The RDU and IPU runtimes (:mod:`repro.sambanova.runtime`,
:mod:`repro.graphcore.pipeline`) share this engine to execute workloads
event-by-event: operators/stages fire when their inputs are available —
the data-driven execution model that defines dataflow architectures
(paper Sec. I). The WSE pipeline (:mod:`repro.cerebras.runtime`) has
the same semantics but is computed by its closed-form recurrence. All
runtimes record what ran in a :class:`Trace`.
"""

from repro.sim.engine import Resource, Simulator
from repro.sim.trace import Trace, TraceRecord

__all__ = ["Simulator", "Resource", "Trace", "TraceRecord"]
