"""Observability: tracing, metrics, profiling, spans, heartbeats.

Independent facilities, all strictly opt-in:

* :mod:`repro.obs.tracer` — a ring-buffered, sampling-capable event
  tracer recording each prefetch's lifecycle (requested -> enqueued or
  dropped -> issued -> filled -> useful / late / wrong) plus L1I demand
  accesses, and the :class:`~repro.obs.tracer.TimelinessReport` derived
  from it (the paper's Figure 5/13 style analysis).
* :mod:`repro.obs.registry` — a unified metrics registry turning the
  ``SimStats`` / ``EntanglingStats`` / ``TableStats`` counter dataclasses
  into named, typed metrics with JSON, CSV and Prometheus-text exporters.
* :mod:`repro.obs.profiler` — wall-clock phase profiling for the
  simulator's four phases (fills / predict / issue / retire) and the
  analysis pipeline stages.
* :mod:`repro.obs.events` / :mod:`repro.obs.exporthttp` — the unified
  telemetry layer: one versioned :class:`TelemetryEvent` schema that is
  also the only worker->parent wire format, one drain loop publishing
  it on the event bus, and what the bus feeds — the append-only JSONL
  run ledger, the crash flight recorder, the one status aggregator (live
  status line, stale-task flags, ``repro top``) and the stdlib HTTP
  endpoint serving live engine gauges as Prometheus text.
* :mod:`repro.obs.heartbeat` — the worker-side heartbeat pulse and its
  ``REPRO_HEARTBEAT_*`` knobs.
* :mod:`repro.obs.spans` / :mod:`repro.obs.chrometrace` — cross-process
  span tracing of the evaluation engine (suite → task → attempt →
  backoff / cache lookup / pipeline stages): spans ride the bus as
  ``span`` events and a bus subscriber merges them into Chrome
  trace-event JSON loadable in Perfetto.

Overhead contract: a simulation constructed without a tracer or profiler
executes the exact pre-observability code paths — every hook site is a
single attribute-is-None check — and its ``SimStats.signature()`` is
bit-identical to a process that never imported this package.  The span
and heartbeat submodules are *not* imported here (they resolve lazily
via ``__getattr__``): the analysis layer imports ``repro.obs.profiler``
on every run, and an untraced process must never load the span machinery
(``tests/test_obs.py`` pins this with a subprocess check).
"""

from repro.obs.profiler import (
    PhaseProfiler,
    get_stage_profiler,
    set_stage_profiler,
    stage,
)
from repro.obs.registry import Metric, MetricsRegistry, registry_for_run
from repro.obs.tracer import (
    EVENT_KINDS,
    PrefetchTracer,
    TimelinessReport,
    TraceEvent,
)

__all__ = [
    "EVENT_KINDS",
    "EventBus",
    "EventLedger",
    "FlightRecorder",
    "Metric",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "PhaseProfiler",
    "PrefetchTracer",
    "Span",
    "SpanRecorder",
    "StatusAggregator",
    "TelemetryEvent",
    "TimelinessReport",
    "TraceEvent",
    "get_stage_profiler",
    "open_bus",
    "read_events",
    "registry_for_run",
    "set_stage_profiler",
    "stage",
    "write_chrome_trace",
]

#: Lazily resolved exports (PEP 562): importing repro.obs must not load
#: the span/heartbeat machinery — the zero-cost contract's subprocess
#: test asserts repro.obs.spans stays out of untraced processes.
_LAZY = {
    "Span": ("repro.obs.spans", "Span"),
    "SpanRecorder": ("repro.obs.spans", "SpanRecorder"),
    "write_chrome_trace": ("repro.obs.chrometrace", "write_chrome_trace"),
    "EventBus": ("repro.obs.events", "EventBus"),
    "EventLedger": ("repro.obs.events", "EventLedger"),
    "FlightRecorder": ("repro.obs.events", "FlightRecorder"),
    "StatusAggregator": ("repro.obs.events", "StatusAggregator"),
    "TelemetryEvent": ("repro.obs.events", "TelemetryEvent"),
    "open_bus": ("repro.obs.events", "open_bus"),
    "read_events": ("repro.obs.events", "read_events"),
    "MetricsHTTPServer": ("repro.obs.exporthttp", "MetricsHTTPServer"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
