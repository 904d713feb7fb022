"""Cross-process span tracing for the evaluation engine.

Where :mod:`repro.obs.tracer` answers *what did one prefetcher do inside
one simulation*, this module answers *where did a 100-run evaluation
campaign spend its wall-clock*: every unit of engine work — the suite,
each (config, workload) task, each executor attempt, retry backoff,
cache lookup, and the worker-side pipeline stages — is recorded as a
:class:`Span` with epoch timestamps and a pid, and the parent merges the
per-worker span batches into one timeline that
:mod:`repro.obs.chrometrace` renders as Chrome trace-event JSON
(loadable in Perfetto / ``chrome://tracing``).

Mechanics mirror the rest of ``repro.obs``:

* **Zero cost when off.**  Nothing in the engine imports this module
  unless tracing was requested (``run_suite(..., trace_path=...)``,
  ``repro sweep --trace``); the engine discovers an installed recorder
  through ``sys.modules`` so an untraced process never pays the import.
  ``tests/test_obs.py`` asserts bit-identity against a process that
  never imports ``repro.obs.spans``.
* **Spans ride the one telemetry channel.**  A worker records its
  attempt and bridges the pipeline ``stage()`` blocks via
  :class:`SpanStages`; a successful attempt sends one ``span`` event
  per closed span over the worker channel (:mod:`repro.obs.events`).
  The parent's :class:`SuiteSpanCollector` subscribes to the bus and
  normalizes each worker's spans against the attempt window the parent
  observed (see :func:`normalize_batch`), so skewed worker clocks
  cannot produce spans outside their enclosing task.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "SpanStages",
    "SuiteSpanCollector",
    "get_span_recorder",
    "normalize_batch",
    "set_span_recorder",
    "span",
]


@dataclass
class Span:
    """One timed unit of work.

    ``start``/``end`` are epoch seconds (``time.time`` domain) so spans
    from different processes share one axis after normalization; ``tid``
    is a *display lane*, not an OS thread id (the Chrome trace format
    groups events into per-``(pid, tid)`` tracks).
    """

    name: str
    cat: str = "suite"
    start: float = 0.0
    end: float = 0.0
    pid: int = 0
    tid: int = 1
    status: str = "ok"  # "ok" | "error"
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def shifted(self, offset: float) -> "Span":
        if not offset:
            return self
        return replace(self, start=self.start + offset, end=self.end + offset)


class SpanRecorder:
    """Collects spans for one process.

    Recording is append-only and cheap (one list append per span); a
    worker's spans reach the parent as ``span`` events.
    """

    def __init__(self, role: str = "suite") -> None:
        self.role = role
        self.pid = os.getpid()
        self.spans: List[Span] = []

    def __len__(self) -> int:
        return len(self.spans)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        cat: str = "suite",
        status: str = "ok",
        tid: int = 1,
        **args: Any,
    ) -> Span:
        recorded = Span(
            name=name, cat=cat, start=start, end=end, pid=self.pid,
            tid=tid, status=status, args=dict(args),
        )
        self.spans.append(recorded)
        return recorded

    @contextmanager
    def span(
        self, name: str, cat: str = "suite", tid: int = 1, **args: Any
    ) -> Iterator[Dict[str, Any]]:
        """Time a ``with`` block as one span.

        Yields the args dict, so the block can attach results discovered
        mid-flight; an exception marks the span ``status="error"`` (with
        the exception text in ``args["error"]``) and propagates.
        """
        extra = dict(args)
        started = time.time()
        try:
            yield extra
        except BaseException as exc:
            extra.setdefault("error", f"{type(exc).__name__}: {exc}")
            self.add(
                name, started, time.time(), cat=cat, status="error",
                tid=tid, **extra,
            )
            raise
        self.add(name, started, time.time(), cat=cat, tid=tid, **extra)


# -- the process-wide recorder slot -----------------------------------------
#
# Like the stage-profiler slot in repro.obs.profiler, but discovered by
# the engine via sys.modules (see repro.analysis.experiments) so a
# process that never traces never imports this module.

_recorder: Optional[SpanRecorder] = None


def get_span_recorder() -> Optional[SpanRecorder]:
    """The installed process-wide recorder, or None (the default)."""
    return _recorder


def set_span_recorder(recorder: Optional[SpanRecorder]) -> Optional[SpanRecorder]:
    """Install (or clear, with None) the process-wide span recorder.

    Returns the previous recorder so callers can restore it.
    """
    global _recorder
    previous = _recorder
    _recorder = recorder
    return previous


@contextmanager
def span(name: str, cat: str = "suite", **args: Any) -> Iterator[Dict[str, Any]]:
    """Record a span against the installed recorder, if any (else no-op)."""
    recorder = _recorder
    if recorder is None:
        yield dict(args)
        return
    with recorder.span(name, cat=cat, **args) as extra:
        yield extra


class SpanStages:
    """Bridge: records pipeline ``stage()`` blocks as spans.

    Installable in the :func:`repro.obs.profiler.set_stage_profiler`
    slot (it duck-types the ``stage(name)`` context manager), so
    ``run_single``'s phases — workload build, fetch-unit preprocessing,
    simulation — become spans without the analysis layer importing this
    module.  ``chain`` forwards to a real :class:`PhaseProfiler` (or a
    previously installed bridge) so timing telemetry keeps accumulating.
    """

    def __init__(self, recorder: SpanRecorder, chain: Optional[Any] = None) -> None:
        self.recorder = recorder
        self.chain = chain

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        if self.chain is not None:
            with self.chain.stage(name):
                with self.recorder.span(name, cat="stage"):
                    yield
        else:
            with self.recorder.span(name, cat="stage"):
                yield


@contextmanager
def worker_span_scope(role: str = "worker") -> Iterator[SpanRecorder]:
    """Worker-side recording scope: a fresh recorder + stage bridge.

    Installs a :class:`SpanStages` bridge (chaining any existing stage
    profiler) for the duration of the block and restores the previous
    slot on exit, so pipeline stages inside the block land in the
    yielded recorder.
    """
    from repro.obs.profiler import get_stage_profiler, set_stage_profiler

    recorder = SpanRecorder(role=role)
    previous = set_stage_profiler(SpanStages(recorder, chain=get_stage_profiler()))
    try:
        yield recorder
    finally:
        set_stage_profiler(previous)


# -- merge / clock normalization --------------------------------------------


def normalize_batch(
    batch: List[Span],
    window_start: Optional[float] = None,
    window_end: Optional[float] = None,
) -> Tuple[List[Span], float]:
    """Shift one worker attempt's spans into the parent's observation window.

    Processes on one host *should* agree on ``time.time``, but NTP
    steps, container clock namespaces, and coarse clock sources all
    produce worker timestamps that fall outside the parent-observed
    attempt window — and a span that starts before its parent dispatched
    the task renders as garbage in the merged trace.  The rule:

    * spans starting before ``window_start`` shift forward to it;
    * otherwise spans ending after ``window_end`` shift back to it —
      unless that would push the batch before ``window_start``, in which
      case the start anchors (the window can be shorter than the batch
      when the parent's collection loop observed the result late).

    Returns the shifted spans and the offset applied (seconds; 0.0 for
    a well-behaved clock).
    """
    if not batch:
        return [], 0.0
    earliest = min(s.start for s in batch)
    latest = max(s.end for s in batch)
    offset = 0.0
    if window_start is not None and earliest < window_start:
        offset = window_start - earliest
    elif window_end is not None and latest > window_end:
        offset = window_end - latest
        if window_start is not None and earliest + offset < window_start:
            offset = window_start - earliest
    return [s.shifted(offset) for s in batch], offset


class SuiteSpanCollector:
    """Parent-side span assembly: a bus subscriber (``handle``).

    Every ``span`` event becomes a :class:`Span`.  The parent's own
    spans are recorded as they arrive: each executor attempt —
    including ones that crashed, timed out, or returned a corrupt
    result — error-tagged with the failure text, so the merged trace
    matches the :class:`~repro.analysis.parallel.FaultReport`.  Spans
    from another process are held back until :meth:`finish`, which
    merges those of each task's accepted attempt via
    :func:`normalize_batch` against the attempt window the parent
    observed, then adds one summary span per task.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.clock_offsets: Dict[int, float] = {}
        self._windows: Dict[str, Tuple[int, float, float]] = {}
        self._worker_spans: Dict[Tuple[str, Optional[int], int], List[Span]] = {}
        self._tasks: Dict[str, Dict[str, Any]] = {}
        self._lanes: Dict[str, int] = {}
        self._roles: Dict[int, str] = {recorder.pid: recorder.role}

    def _lane(self, label: str) -> int:
        # One display lane per task label, so concurrent attempt windows
        # render as parallel tracks instead of overlapping on one row.
        if label not in self._lanes:
            self._lanes[label] = 2 + len(self._lanes)
        return self._lanes[label]

    def handle(self, event: Any) -> None:
        if event.type != "span":
            return
        span = Span(pid=event.pid, **event.payload)
        label = event.label
        if event.pid != self.recorder.pid:
            key = (label, event.attempt, event.pid)
            self._worker_spans.setdefault(key, []).append(span)
            return
        if span.cat == "executor" and span.name == "attempt":
            span.tid = self._lane(label)
            ok = span.status == "ok"
            if ok:
                self._windows[label] = (event.attempt, span.start, span.end)
            task = self._tasks.setdefault(
                label, {"start": span.start, "end": span.end, "attempts": 0},
            )
            task["start"] = min(task["start"], span.start)
            task["end"] = max(task["end"], span.end)
            task["attempts"] += 1
            task["ok"] = ok
        elif span.cat == "cache" and span.args.get("hit"):
            self._tasks.setdefault(
                label, {"start": span.start, "end": span.end, "attempts": 0,
                        "ok": True, "cached": True},
            )
        self.recorder.spans.append(span)

    def finish(self) -> None:
        """Merge worker spans and emit the per-task summary spans.

        Call after all attempts resolved.  Only the spans of the attempt
        the executor accepted are merged, as one batch per worker.
        """
        for (label, attempt, pid), spans in self._worker_spans.items():
            window = self._windows.get(label)
            if window is None or window[0] != attempt:
                continue  # a late worker of an abandoned attempt
            shifted, offset = normalize_batch(spans, window[1], window[2])
            self.recorder.spans.extend(shifted)
            self.clock_offsets[pid] = offset
            self._roles.setdefault(pid, "worker")
        self._worker_spans.clear()
        for label in sorted(self._tasks):
            task = self._tasks[label]
            args: Dict[str, Any] = {"label": label, "attempts": task["attempts"]}
            if task.get("cached"):
                args["cached"] = True
            self.recorder.add(
                "task", task["start"], task["end"], cat="executor",
                status="ok" if task["ok"] else "error",
                tid=self._lane(label), **args,
            )

    def process_names(self) -> Dict[int, str]:
        """pid -> display name for the Chrome trace process metadata."""
        return {
            pid: f"{role} (pid {pid})" for pid, role in sorted(self._roles.items())
        }
