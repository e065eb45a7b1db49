"""repro.obs: cross-layer tracing, metrics, and cycle profiling.

The paper's evaluation is observability done by hand: cycle-timing two
AES implementations, sweeping compiler knobs, watching the redirector
saturate at its three-costatement ceiling.  This package makes all of
that first-class:

* :mod:`repro.obs.trace` -- nestable spans over simulated time, with
  JSON-lines and Chrome ``trace_event`` export.
* :mod:`repro.obs.metrics` -- counters, gauges, fixed-bucket histograms.
* :mod:`repro.obs.profile` -- per-routine cycle attribution on the
  Rabbit core (PC sampling plus call/return tracking).
* :mod:`repro.obs.timeseries` -- ``(t, value)`` samples over simulated
  time (queue depths, xmem high-water, cycle rates), mergeable and
  byte-identical across ``--jobs`` fan-out.
* :mod:`repro.obs.diff` -- run-to-run forensics: signed per-routine
  cycle deltas and the first simulated-time divergence between two
  runs' telemetry (attached by ``repro.bench compare``), and
  trace-tree duration deltas (``python -m repro.obs diff``).

One :class:`Obs` handle bundles a tracer and a metrics registry and is
threaded (optionally) through the simulator, the TCP stack, the
costatement scheduler, issl, and the services.  The default everywhere
is :data:`NULL_OBS`, whose tracer and registry are no-ops, so
uninstrumented runs pay one attribute lookup per site.

``python -m repro.obs`` runs a scenario and emits a report, a Chrome
trace, or collapsed flame stacks; see :mod:`repro.obs.cli`.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    QuantileSketch,
)
from repro.obs.recorder import (
    DEFAULT_TAIL,
    FlightRecorder,
    NullFlightRecorder,
)
from repro.obs.timeseries import (
    NullTelemetryStore,
    TelemetryStore,
    TimeSeries,
)
from repro.obs.trace import (
    CAT_COSTATE,
    CAT_CPU,
    CAT_ISSL,
    CAT_SERVICE,
    CAT_TCP,
    CAT_XALLOC,
    NEW_TRACE,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    context_of,
)


class Obs:
    """A tracer + metrics registry + flight recorder: the one handle
    layers accept."""

    def __init__(self, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 recorder: FlightRecorder | None = None,
                 telemetry: TelemetryStore | None = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.telemetry = (telemetry if telemetry is not None
                          else TelemetryStore())

    @property
    def enabled(self) -> bool:
        return (self.tracer.enabled or self.metrics.enabled
                or self.recorder.enabled or self.telemetry.enabled)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer, recorder, and telemetry store at a time
        source (the simulator's ``now``).

        First binding wins: an Obs normally belongs to one simulation.
        """
        if self.tracer.enabled and self.tracer.clock is None:
            self.tracer.clock = clock
        if self.recorder.enabled and self.recorder.clock is None:
            self.recorder.clock = clock
        if self.telemetry.enabled and self.telemetry.clock is None:
            self.telemetry.clock = clock

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "null"
        return f"Obs({state}, spans={len(self.tracer.spans)})"


#: The shared disabled handle; ``obs or NULL_OBS`` is the idiom at every
#: instrumentation seam.
NULL_OBS = Obs(NullTracer(), NullMetricsRegistry(), NullFlightRecorder(),
               NullTelemetryStore())


__all__ = [
    "CAT_COSTATE",
    "CAT_CPU",
    "CAT_ISSL",
    "CAT_SERVICE",
    "CAT_TCP",
    "CAT_XALLOC",
    "Counter",
    "DEFAULT_TAIL",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NEW_TRACE",
    "NULL_OBS",
    "NullFlightRecorder",
    "NullMetricsRegistry",
    "NullTelemetryStore",
    "NullTracer",
    "Obs",
    "QuantileSketch",
    "Span",
    "TelemetryStore",
    "TimeSeries",
    "TraceContext",
    "Tracer",
    "context_of",
]
