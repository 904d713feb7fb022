"""Tests for suite-level span tracing (repro.obs.spans + chrometrace).

Covers the span recorder and its process-wide slot, the worker-side
stage bridge, the bus-subscribed collector (``span`` events, lanes,
clock-offset normalization of worker spans), Chrome trace-event
rendering, and the end-to-end contract: a traced parallel ``run_suite``
writes a valid merged trace containing spans from multiple worker pids,
and a fault-injected run still produces a well-formed trace whose
error-tagged spans match the ``FaultReport``.
"""

import io
import json
import os
import time

import pytest

from repro.analysis.experiments import run_suite
from repro.analysis.parallel import FaultInjector, RetryPolicy
from repro.obs.chrometrace import to_chrome_trace, write_chrome_trace
from repro.obs.events import EventBus, EventObserver, make_event, span_payload
from repro.obs.spans import (
    Span,
    SpanRecorder,
    SpanStages,
    SuiteSpanCollector,
    get_span_recorder,
    normalize_batch,
    set_span_recorder,
    span,
    worker_span_scope,
)
from repro.workloads.generators import WorkloadSpec

SUITE = [
    WorkloadSpec(name="span_int", category="int", seed=3, n_instructions=20_000),
    WorkloadSpec(name="span_srv", category="srv", seed=4, n_instructions=20_000),
    WorkloadSpec(name="span_fp", category="fp", seed=5, n_instructions=20_000),
]


@pytest.fixture(autouse=True)
def _clean_recorder_slot():
    previous = set_span_recorder(None)
    yield
    set_span_recorder(previous)


class TestSpanRecorder:
    def test_add_and_duration(self):
        recorder = SpanRecorder(role="suite")
        s = recorder.add("work", 10.0, 10.5, cat="executor", label="x")
        assert len(recorder) == 1
        assert s.duration == pytest.approx(0.5)
        assert s.pid == os.getpid()
        assert s.args == {"label": "x"}
        assert s.status == "ok"

    def test_span_context_manager_records_ok(self):
        recorder = SpanRecorder()
        with recorder.span("block", cat="stage", answer=42) as args:
            args["found"] = True
        (s,) = recorder.spans
        assert s.name == "block"
        assert s.cat == "stage"
        assert s.status == "ok"
        assert s.args == {"answer": 42, "found": True}
        assert s.end >= s.start

    def test_span_context_manager_marks_error_and_reraises(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("doomed"):
                raise ValueError("boom")
        (s,) = recorder.spans
        assert s.status == "error"
        assert "ValueError: boom" in s.args["error"]

    def test_shifted(self):
        s = Span(name="x", start=5.0, end=6.0)
        assert s.shifted(0.0) is s
        moved = s.shifted(2.5)
        assert (moved.start, moved.end) == (7.5, 8.5)
        assert s.start == 5.0  # original untouched


class TestRecorderSlot:
    def test_module_level_span_is_noop_without_recorder(self):
        assert get_span_recorder() is None
        with span("nothing", detail=1) as args:
            args["ignored"] = True  # must not raise

    def test_module_level_span_records_when_installed(self):
        recorder = SpanRecorder()
        previous = set_span_recorder(recorder)
        try:
            with span("unit", cat="cache", hit=False):
                pass
        finally:
            set_span_recorder(previous)
        (s,) = recorder.spans
        assert (s.name, s.cat, s.args["hit"]) == ("unit", "cache", False)

    def test_set_returns_previous(self):
        first = SpanRecorder()
        second = SpanRecorder()
        assert set_span_recorder(first) is None
        assert set_span_recorder(second) is first
        assert set_span_recorder(None) is second


class _FakeProfiler:
    def __init__(self):
        self.stages = []

    def stage(self, name):
        from contextlib import contextmanager

        @contextmanager
        def _cm():
            self.stages.append(name)
            yield

        return _cm()


class TestSpanStages:
    def test_stage_blocks_become_spans(self):
        recorder = SpanRecorder()
        bridge = SpanStages(recorder)
        with bridge.stage("simulate"):
            pass
        (s,) = recorder.spans
        assert (s.name, s.cat) == ("simulate", "stage")

    def test_chain_forwards_to_existing_profiler(self):
        recorder = SpanRecorder()
        chained = _FakeProfiler()
        bridge = SpanStages(recorder, chain=chained)
        with bridge.stage("fetch_units"):
            pass
        assert chained.stages == ["fetch_units"]
        assert [s.name for s in recorder.spans] == ["fetch_units"]

    def test_worker_span_scope_installs_and_restores_bridge(self):
        from repro.obs.profiler import get_stage_profiler, set_stage_profiler, stage

        previous_profiler = _FakeProfiler()
        outer = set_stage_profiler(previous_profiler)
        try:
            with worker_span_scope() as recorder:
                with stage("simulate"):
                    pass
            assert get_stage_profiler() is previous_profiler
        finally:
            set_stage_profiler(outer)
        assert [s.name for s in recorder.spans] == ["simulate"]
        assert previous_profiler.stages == ["simulate"]  # chained through


class TestNormalizeBatch:
    def _batch(self, spans):
        return spans

    def test_empty(self):
        assert normalize_batch(self._batch([]), 0.0, 1.0) == ([], 0.0)

    def test_well_behaved_clock_zero_offset(self):
        batch = self._batch([Span(name="a", start=10.0, end=11.0)])
        spans, offset = normalize_batch(batch, 9.0, 12.0)
        assert offset == 0.0
        assert spans[0].start == 10.0

    def test_starts_before_window_shifts_forward(self):
        batch = self._batch([Span(name="a", start=5.0, end=6.0)])
        spans, offset = normalize_batch(batch, 9.0, 12.0)
        assert offset == pytest.approx(4.0)
        assert (spans[0].start, spans[0].end) == (9.0, 10.0)

    def test_ends_after_window_shifts_back(self):
        batch = self._batch([Span(name="a", start=11.0, end=14.0)])
        spans, offset = normalize_batch(batch, 9.0, 12.0)
        assert offset == pytest.approx(-2.0)
        assert (spans[0].start, spans[0].end) == (9.0, 12.0)

    def test_start_anchor_wins_when_batch_longer_than_window(self):
        # Shifting the end back would push the start before the window;
        # the start anchors instead.
        batch = self._batch([Span(name="a", start=9.5, end=14.0)])
        spans, offset = normalize_batch(batch, 9.0, 12.0)
        assert offset == pytest.approx(-0.5)
        assert spans[0].start == pytest.approx(9.0)


class TestChromeTrace:
    def _spans(self):
        return [
            Span(name="suite", cat="suite", start=100.0, end=101.0, pid=1),
            Span(
                name="attempt", cat="executor", start=100.2, end=100.4,
                pid=1, tid=2, status="error", args={"error": "boom"},
            ),
        ]

    def test_structure_and_timestamps(self):
        trace = to_chrome_trace(self._spans(), process_names={1: "suite (pid 1)"})
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        meta = [e for e in events if e["ph"] == "M"]
        assert meta == [
            {
                "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                "args": {"name": "suite (pid 1)"},
            }
        ]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete[0]["ts"] == 0.0  # origin defaults to earliest start
        assert complete[0]["dur"] == pytest.approx(1e6)
        assert complete[1]["ts"] == pytest.approx(0.2e6)

    def test_error_spans_are_marked(self):
        trace = to_chrome_trace(self._spans())
        error = [e for e in trace["traceEvents"] if e.get("cname")]
        assert len(error) == 1
        assert error[0]["cname"] == "terrible"
        assert error[0]["args"]["status"] == "error"
        assert error[0]["args"]["error"] == "boom"

    def test_write_to_path_and_file_object(self, tmp_path):
        path = tmp_path / "trace.json"
        returned = write_chrome_trace(self._spans(), str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(returned))
        buffer = io.StringIO()
        write_chrome_trace(self._spans(), buffer)
        assert json.loads(buffer.getvalue())["traceEvents"]


def _traced_bus(recorder):
    """A tracing bus with a collector subscribed, plus its observer."""
    bus = EventBus()
    bus.tracing = True
    collector = SuiteSpanCollector(recorder)
    bus.subscribe(collector.handle)
    return bus, collector, EventObserver(bus)


def _worker_span(bus, label, attempt, pid, name, start, end):
    """Publish a span as if it arrived from worker ``pid``."""
    bus.publish(make_event(
        "span", label=label, attempt=attempt, pid=pid,
        payload=span_payload(name, "worker", start, end),
    ))


class TestSuiteSpanCollector:
    def test_attempt_lifecycle_and_task_summary(self):
        recorder = SpanRecorder()
        _bus, collector, observer = _traced_bus(recorder)
        observer.attempt_started("no/w", 0)
        observer.attempt_finished("no/w", 0, False, "RuntimeError: injected")
        observer.attempt_started("no/w", 1)
        observer.attempt_finished("no/w", 1, True)
        collector.finish()
        by_name = {}
        for s in recorder.spans:
            by_name.setdefault(s.name, []).append(s)
        assert [s.status for s in by_name["attempt"]] == ["error", "ok"]
        assert by_name["attempt"][0].args["error"] == "RuntimeError: injected"
        (task,) = by_name["task"]
        assert task.status == "ok"  # last attempt succeeded
        assert task.args["attempts"] == 2
        # Both attempts and the summary share the label's display lane.
        assert {s.tid for s in recorder.spans} == {by_name["task"][0].tid}

    def test_distinct_lanes_per_label(self):
        collector = SuiteSpanCollector(SpanRecorder())
        assert collector._lane("a") != collector._lane("b")
        assert collector._lane("a") == collector._lane("a")

    def test_failed_every_attempt_yields_error_task_span(self):
        recorder = SpanRecorder()
        _bus, collector, observer = _traced_bus(recorder)
        observer.attempt_started("cfg/w", 0)
        observer.attempt_finished("cfg/w", 0, False, "timed out")
        collector.finish()
        task = [s for s in recorder.spans if s.name == "task"][0]
        assert task.status == "error"

    def test_add_batch_normalizes_against_attempt_window(self):
        recorder = SpanRecorder()
        bus, collector, observer = _traced_bus(recorder)
        observer.attempt_started("cfg/w", 0)
        time.sleep(0.01)
        observer.attempt_finished("cfg/w", 0, True)
        _attempt, window_start, _window_end = collector._windows["cfg/w"]
        # A worker whose clock runs a year behind.
        skew = -365 * 24 * 3600.0
        _worker_span(bus, "cfg/w", 0, 777, "attempt",
                     window_start + skew, window_start + skew + 0.005)
        collector.finish()
        assert collector.clock_offsets[777] == pytest.approx(-skew)
        merged = [s for s in recorder.spans if s.pid == 777]
        assert merged[0].start >= window_start

    def test_spans_of_unaccepted_attempts_are_dropped(self):
        # Attempt 0 timed out but its worker finished late; only the
        # accepted attempt 1's spans belong in the trace.
        recorder = SpanRecorder()
        bus, collector, observer = _traced_bus(recorder)
        observer.attempt_started("cfg/w", 0)
        observer.attempt_finished("cfg/w", 0, False, "timed out")
        observer.attempt_started("cfg/w", 1)
        observer.attempt_finished("cfg/w", 1, True)
        now = time.time()
        _worker_span(bus, "cfg/w", 0, 777, "late", now, now + 0.001)
        _worker_span(bus, "cfg/w", 1, 778, "kept", now, now + 0.001)
        collector.finish()
        assert [s.name for s in recorder.spans if s.cat == "worker"] == [
            "kept"
        ]
        assert set(collector.process_names()) == {recorder.pid, 778}

    def test_cache_lookup_and_process_names(self):
        recorder = SpanRecorder(role="suite")
        bus, collector, observer = _traced_bus(recorder)
        bus.emit("span", label="cfg/w", payload=span_payload(
            "cache_lookup", "cache", 1.0, 1.001,
            args={"label": "cfg/w", "hit": True},
        ))
        observer.attempt_started("cfg/x", 0)
        observer.attempt_finished("cfg/x", 0, True)
        now = time.time()
        _worker_span(bus, "cfg/x", 0, 999, "x", now, now + 0.1)
        collector.finish()
        names = collector.process_names()
        assert names[recorder.pid].startswith("suite")
        assert names[999].startswith("worker")
        lookups = [s for s in recorder.spans if s.name == "cache_lookup"]
        assert lookups and lookups[0].args["hit"] is True
        cached = [s for s in recorder.spans
                  if s.name == "task" and s.args["label"] == "cfg/w"]
        assert cached and cached[0].args["cached"] is True


def _load_trace(path):
    trace = json.loads(path.read_text())
    assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]
    return trace


class TestRunSuiteTracing:
    def test_parallel_traced_run_writes_merged_trace(self, tmp_path):
        """The headline integration: jobs=2 + trace_path produces a valid
        Chrome trace with suite/task/attempt spans and worker-side spans
        from at least two worker pids."""
        trace_path = tmp_path / "suite_trace.json"
        evaluation = run_suite(
            SUITE, ["next_line"], jobs=2, cache=None,
            trace_path=str(trace_path),
        )
        assert evaluation.is_complete()
        trace = _load_trace(trace_path)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert {"suite", "task", "attempt"} <= names
        # Worker-side spans (the picklable batches) made it back, were
        # merged, and came from worker processes — not the parent.
        worker_events = [
            e for e in events if e["cat"] in ("worker", "stage")
        ]
        worker_pids = {e["pid"] for e in worker_events}
        assert os.getpid() not in worker_pids
        assert len(worker_pids) >= 2, worker_pids
        # 2 configs (baseline + next_line) x 3 workloads = 6 tasks.
        tasks = [e for e in events if e["name"] == "task"]
        assert len(tasks) == 6
        assert all(e["args"]["status"] == "ok" for e in tasks)
        # Process metadata names every participating pid.
        meta_pids = {
            e["pid"] for e in trace["traceEvents"] if e["ph"] == "M"
        }
        assert worker_pids <= meta_pids

    def test_serial_traced_run_also_produces_trace(self, tmp_path):
        trace_path = tmp_path / "serial_trace.json"
        evaluation = run_suite(
            SUITE[:1], ["next_line"], jobs=1, cache=None,
            trace_path=str(trace_path),
        )
        assert evaluation.is_complete()
        trace = _load_trace(trace_path)
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"suite", "task", "attempt", "simulate"} <= names

    def test_cache_hits_become_cache_lookup_spans(self, tmp_path):
        from repro.analysis.runcache import RunCache

        cache = RunCache()
        run_suite(
            SUITE[:1], ["next_line"], jobs=1, cache=cache,
        )
        trace_path = tmp_path / "cached_trace.json"
        run_suite(
            SUITE[:1], ["next_line"], jobs=1, cache=cache,
            trace_path=str(trace_path),
        )
        trace = _load_trace(trace_path)
        lookups = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "cache_lookup"
        ]
        assert lookups and all(e["args"]["hit"] for e in lookups)

    def test_fault_injected_run_trace_matches_fault_report(
        self, tmp_path, monkeypatch
    ):
        """A crash-injected 3-job traced run: the merged trace is valid
        and its error-tagged spans match the FaultReport exactly."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0:first")
        monkeypatch.setenv("REPRO_TASK_BACKOFF", "0.01")
        trace_path = tmp_path / "faulted_trace.json"
        evaluation = run_suite(
            SUITE, ["next_line"], jobs=3, cache=None,
            retry_policy=RetryPolicy(retries=2, backoff_base=0.01),
            trace_path=str(trace_path),
        )
        # Every task crashed once (scope=first) and recovered on retry.
        assert evaluation.is_complete()
        faults = evaluation.faults
        assert faults.task_errors == 6
        trace = _load_trace(trace_path)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        error_attempts = [
            e for e in events
            if e["name"] == "attempt" and e["cat"] == "executor"
            and e["args"]["status"] == "error"
        ]
        assert len(error_attempts) == faults.task_errors
        assert all("injected crash" in e["args"]["error"]
                   for e in error_attempts)
        assert all(e.get("cname") == "terrible" for e in error_attempts)
        # Retry backoffs between rounds appear as spans too.
        assert any(e["name"] == "backoff" for e in events)
        # Tasks all recovered, so every task summary is ok.
        tasks = [e for e in events if e["name"] == "task"]
        assert len(tasks) == 6
        assert all(e["args"]["status"] == "ok" for e in tasks)

    def test_quarantined_tasks_are_error_tagged_in_trace(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0:all")
        trace_path = tmp_path / "quarantined_trace.json"
        evaluation = run_suite(
            SUITE[:2], ["next_line"], include_baseline=False, jobs=2,
            cache=None,
            retry_policy=RetryPolicy(retries=1, backoff_base=0.01),
            trace_path=str(trace_path),
        )
        faults = evaluation.faults
        assert len(faults.quarantined) == 2
        trace = _load_trace(trace_path)
        tasks = {
            e["args"]["label"]: e
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "task"
        }
        assert set(tasks) == {f.label for f in faults.quarantined}
        assert all(e["args"]["status"] == "error" for e in tasks.values())

    def test_fault_injector_fraction_one_selects_everything(self):
        injector = FaultInjector(mode="crash", fraction=1.0)
        assert injector.selects("anything/at_all")
