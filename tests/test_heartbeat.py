"""Tests for heartbeats and the live status line.

Worker heartbeats (:mod:`repro.obs.heartbeat`) and the live status line
both run on the one telemetry channel: worker event dicts go through a
:class:`~repro.obs.events.TelemetryDrain` onto the bus, whose
:class:`~repro.obs.events.StatusAggregator` counts the task lifecycle,
flags stale tasks and renders the throttled ``progress:`` line.  The
state machine is driven with a fake clock and a plain ``queue.Queue``
so transitions, staleness, and throttled rendering are deterministic;
integration tests check the status line surfaces through
``run_suite(..., progress=...)`` and that stale flags fold into the
``FaultReport`` as advisory telemetry.
"""

import io
import os
import queue
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.experiments import run_suite
from repro.obs.events import (
    EventBus,
    StatusAggregator,
    TelemetryDrain,
    TelemetryEvent,
    WorkerEventRelay,
    make_event,
    stream_supports_rewrite,
)
from repro.obs.heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    HeartbeatPulse,
    heartbeat_interval_from_env,
    stale_after_from_env,
)
from repro.workloads.generators import WorkloadSpec

SPEC = WorkloadSpec(name="hb_wl", category="int", seed=9, n_instructions=20_000)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FakeTTY(io.StringIO):
    """A StringIO that claims to be an interactive terminal."""

    def isatty(self):
        return True


class Channel:
    """A status aggregator fed through the real drain loop.

    ``put`` enqueues a worker event dict exactly as a worker would;
    ``pump`` runs one drain pass (publish + status tick).
    """

    def __init__(self, total=3, stream=None, stale_after=10.0,
                 throttle=0.0):
        self.clock = FakeClock()
        self.status = StatusAggregator(
            stream=stream, stale_after=stale_after, throttle=throttle,
            clock=self.clock,
        )
        self.bus = EventBus(status=self.status)
        self.queue = queue.Queue()
        self.drain = TelemetryDrain(self.queue, self.bus)
        self.bus.emit("suite_started", payload={"n_tasks": total})

    def put(self, type_, label, attempt=None):
        self.queue.put(make_event(
            type_, label=label, attempt=attempt, ts=self.clock.now,
            pid=12345,
        ).to_dict())

    def pump(self):
        self.drain.pump()


class TestEmitEvent:
    def test_broken_queue_is_swallowed(self):
        class Broken:
            def put(self, item):
                raise RuntimeError("queue torn down")

        # The worker relay must not raise.
        WorkerEventRelay(Broken(), "cfg/w").emit("heartbeat")


class TestEnvParsing:
    def test_interval_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT_INTERVAL", raising=False)
        assert heartbeat_interval_from_env() == DEFAULT_HEARTBEAT_INTERVAL
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.25")
        assert heartbeat_interval_from_env() == 0.25
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "-3")
        assert heartbeat_interval_from_env() == DEFAULT_HEARTBEAT_INTERVAL
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "soon")
        with pytest.raises(ValueError):
            heartbeat_interval_from_env()

    def test_stale_after_prefers_env_then_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT_STALE", raising=False)
        # Half the task timeout, floored at two beats.
        assert stale_after_from_env(1.0, task_timeout=60.0) == 30.0
        assert stale_after_from_env(1.0, task_timeout=1.0) == 2.0
        # No timeout: four beats.
        assert stale_after_from_env(0.5) == 2.0
        monkeypatch.setenv("REPRO_HEARTBEAT_STALE", "7.5")
        assert stale_after_from_env(1.0, task_timeout=60.0) == 7.5


class TestHeartbeatPulse:
    def test_beats_until_stopped(self):
        q = queue.Queue()
        pulse = HeartbeatPulse(
            WorkerEventRelay(q, "cfg/w", attempt=1), "cfg/w", interval=0.01
        )
        pulse.start()
        event = TelemetryEvent.from_dict(q.get(timeout=2.0))
        assert (event.type, event.label, event.attempt) == (
            "heartbeat", "cfg/w", 1,
        )
        assert event.pid == os.getpid()
        pulse.stop()
        assert not pulse.is_alive()


class TestHeartbeatMonitor:
    def test_lifecycle_counters_and_status_line(self):
        ch = Channel(total=3)
        ch.put("task_started", "a", attempt=0)
        ch.put("task_started", "b", attempt=0)
        ch.pump()
        assert ch.status.running == 2
        ch.clock.advance(2.0)
        ch.put("task_finished", "a")
        ch.pump()
        status = ch.status
        assert (status.done, status.running, status.failed) == (1, 1, 0)
        line = status.status_line("progress")
        assert line.startswith("progress: 1/3 done, 1 running, 0 failed")
        # ETA: 1 done in 2s -> 2 remaining at 2s each.
        assert "ETA 4s" in line

    def test_failed_attempt_returns_task_to_pending(self):
        ch = Channel()
        ch.put("task_started", "a", attempt=0)
        ch.put("task_failed", "a", attempt=0)
        ch.pump()
        assert ch.status.running == 0
        assert ch.status.failed == 0  # the executor may still retry it
        ch.put("task_started", "a", attempt=1)
        ch.put("task_finished", "a", attempt=1)
        ch.pump()
        assert ch.status.done == 1

    def test_cache_hits_and_quarantine_are_parent_side(self):
        ch = Channel(total=2)
        ch.bus.emit("cache_hit", label="a")
        ch.bus.emit("quarantined", label="b")
        status = ch.status
        assert (status.done, status.cached, status.failed) == (1, 1, 1)
        assert "1 cached" in status.status_line("progress")
        ch.bus.emit("quarantined", label="b")  # idempotent
        assert status.failed == 1

    def test_duplicate_finished_counts_once(self):
        ch = Channel()
        ch.put("task_finished", "a")
        ch.put("task_finished", "a")
        ch.pump()
        assert ch.status.done == 1

    def test_eta_unknown_before_first_completion(self):
        ch = Channel()
        assert ch.status.eta_seconds() is None
        assert "ETA ?" in ch.status.status_line("progress")

    def test_stale_detection_and_heartbeat_refresh(self):
        ch = Channel(stale_after=5.0)
        ch.put("task_started", "slow", attempt=0)
        ch.pump()
        ch.clock.advance(4.0)
        ch.put("heartbeat", "slow")
        ch.pump()
        assert ch.status.stale_tasks == []  # the beat refreshed last_seen
        ch.clock.advance(5.1)
        ch.pump()
        assert ch.status.stale_tasks == ["slow"]
        assert "1 stale (slow)" in ch.status.status_line("progress")
        ch.clock.advance(10.0)
        ch.pump()
        assert ch.status.stale_tasks == ["slow"]  # flagged once, not per pump

    def test_done_tasks_never_go_stale(self):
        ch = Channel(stale_after=5.0)
        ch.put("task_started", "quick", attempt=0)
        ch.put("task_finished", "quick")
        ch.pump()
        ch.clock.advance(60.0)
        ch.pump()
        assert ch.status.stale_tasks == []

    def test_render_is_throttled_and_change_only(self):
        stream = io.StringIO()
        ch = Channel(total=2, stream=stream, stale_after=60.0, throttle=1.0)
        ch.put("task_started", "a", attempt=0)
        ch.pump()
        ch.clock.advance(0.1)
        ch.pump()  # inside the throttle window: no second line
        assert stream.getvalue().count("progress:") == 1
        ch.clock.advance(2.0)
        ch.pump()  # outside the window but the line is unchanged
        assert stream.getvalue().count("progress:") == 1
        ch.put("task_finished", "a")
        ch.clock.advance(2.0)
        ch.pump()
        assert stream.getvalue().count("progress:") == 2

    def test_malformed_event_is_ignored(self):
        ch = Channel()
        ch.queue.put("not-an-event")
        ch.queue.put({"type": "task_started"})  # no schema_version
        ch.pump()  # must not raise
        assert ch.status.running == 0
        assert ch.status.counts == {"suite_started": 1}

    def test_closed_stream_does_not_raise(self):
        stream = io.StringIO()
        ch = Channel(total=1, stream=stream)
        stream.close()
        ch.put("task_started", "a", attempt=0)
        ch.pump()


class TestStreamRewrite:
    def test_tty_gets_carriage_return_rewriting(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setenv("TERM", "xterm-256color")
        stream = FakeTTY()
        assert stream_supports_rewrite(stream)
        ch = Channel(total=2, stream=stream)
        ch.put("task_started", "a", attempt=0)
        ch.pump()
        ch.clock.advance(1.0)
        ch.put("task_finished", "a")
        ch.pump()
        out = stream.getvalue()
        assert out.startswith("\r")
        assert out.count("\r") == 2  # rewritten in place, not stacked
        assert "\n" not in out  # the newline belongs to close()
        ch.status.close()
        assert stream.getvalue().endswith("\n")

    def test_rewrite_pads_over_longer_previous_line(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setenv("TERM", "xterm")
        stream = FakeTTY()
        status = Channel(total=2, stream=stream).status
        status._line_width = 0
        status._render(force=True)
        first_len = len(status._last_line)
        status._last_line = ""  # force a re-render of a shorter line
        status._line_width = first_len + 20
        status._render(force=True)
        chunks = stream.getvalue().split("\r")
        assert len(chunks[-1]) >= first_len + 20  # blank-padded residue

    def test_non_tty_gets_newline_lines(self):
        stream = io.StringIO()  # isatty() is False
        assert not stream_supports_rewrite(stream)
        ch = Channel(total=1, stream=stream)
        ch.put("task_started", "a", attempt=0)
        ch.pump()
        ch.status.close()
        out = stream.getvalue()
        assert "\r" not in out
        assert all(line.startswith("progress:")
                   for line in out.strip().splitlines())

    def test_no_color_and_dumb_term_disable_rewrite(self, monkeypatch):
        stream = FakeTTY()
        monkeypatch.setenv("NO_COLOR", "1")
        assert not stream_supports_rewrite(stream)
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setenv("TERM", "dumb")
        assert not stream_supports_rewrite(stream)
        monkeypatch.setenv("TERM", "xterm")
        assert stream_supports_rewrite(stream)

    def test_exotic_isatty_failure_is_not_a_tty(self):
        class Exotic:
            def isatty(self):
                raise OSError("no fd")

        assert not stream_supports_rewrite(Exotic())

    def test_close_always_emits_final_summary(self):
        # Throttling suppressed every intermediate render; the final
        # summary line must still appear so logs record the outcome.
        stream = io.StringIO()
        ch = Channel(total=1, stream=stream, throttle=1e9)
        ch.put("task_started", "a", attempt=0)
        ch.put("task_finished", "a")
        ch.pump()
        ch.pump()
        ch.status.close()
        out = stream.getvalue()
        assert "1/1 done" in out


class TestMonitorSink:
    def test_sink_sees_every_drained_event(self):
        # Every drained worker event reaches bus subscribers, in order,
        # sequenced by the parent bus.
        ch = Channel()
        seen = []
        ch.bus.subscribe(seen.append)
        ch.put("task_started", "cfg/a", attempt=0)
        ch.put("task_finished", "cfg/a", attempt=0)
        ch.pump()
        assert [(e.type, e.label, e.pid) for e in seen] == [
            ("task_started", "cfg/a", 12345),
            ("task_finished", "cfg/a", 12345),
        ]
        assert seen[0].seq < seen[1].seq

    def test_sink_failure_never_breaks_the_pump(self):
        # A failing subscriber never breaks the drain loop.
        ch = Channel()

        def explode(event):
            raise RuntimeError("subscriber bug")

        ch.bus.subscribe(explode)
        ch.put("task_finished", "a")
        ch.put("task_finished", "b")
        ch.pump()  # must not raise
        assert ch.status.done == 2


class TestCleanShutdown:
    def test_close_tolerates_dead_queue_and_closed_stream(self):
        stream = io.StringIO()
        status = StatusAggregator(stream=stream, throttle=0.0,
                                  clock=FakeClock())

        class DeadQueue:
            def get_nowait(self):
                raise ConnectionResetError("manager is gone")

        drain = TelemetryDrain(DeadQueue(), EventBus(status=status))
        stream.close()
        drain.close()  # must not raise
        status.close()

    def test_sigint_mid_suite_exits_without_tracebacks(self, tmp_path):
        """A parent killed mid-``run_suite`` must shut the Manager queue
        down cleanly: no atexit tracebacks from the manager process, no
        BrokenPipe noise from the monitor thread."""
        script = tmp_path / "victim.py"
        script.write_text(textwrap.dedent(
            """
            import io, sys
            from repro.analysis.experiments import run_suite
            from repro.workloads.generators import WorkloadSpec

            specs = [
                WorkloadSpec(name=f"sig_{i}", category="srv", seed=i,
                             n_instructions=800_000)
                for i in range(4)
            ]
            print("READY", flush=True)
            try:
                run_suite(
                    specs, ["no", "next_line"], warmup_instructions=100_000,
                    include_baseline=False, jobs=2, cache=None,
                    progress=io.StringIO(),
                )
            except KeyboardInterrupt:
                print("interrupted", file=sys.stderr, flush=True)
                sys.exit(130)
            sys.exit(0)
            """
        ))
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            import time

            time.sleep(1.5)  # let the suite get into flight
            proc.send_signal(signal.SIGINT)
            _out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        # Finishing before the signal (rc 0) is acceptable on a very
        # fast machine; an interrupt must exit 130 with clean stderr.
        assert proc.returncode in (0, 130), err
        assert "Traceback" not in err, err


class TestRunSuiteProgress:
    def test_progress_stream_gets_status_lines(self):
        stream = io.StringIO()
        evaluation = run_suite(
            [SPEC], ["next_line"], jobs=1, cache=None,
            progress=stream,
        )
        assert evaluation.is_complete()
        output = stream.getvalue()
        assert "progress:" in output
        # The final (forced) render reports everything done.
        assert "2/2 done" in output.splitlines()[-1]

    def test_progress_env_var_enables_monitor(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        evaluation = run_suite(
            [SPEC], ["next_line"], include_baseline=False, jobs=1,
            cache=None,
        )
        assert evaluation.is_complete()
        assert "progress:" in capsys.readouterr().err

    def test_progress_off_by_default_no_heartbeat_import_needed(self):
        stream = io.StringIO()
        evaluation = run_suite(
            [SPEC], ["next_line"], include_baseline=False, jobs=1,
            cache=None,
        )
        assert evaluation.is_complete()
        assert stream.getvalue() == ""

    def test_stale_flags_fold_into_fault_report(self):
        """Deterministic fold check: a task the bus's aggregator flags as
        stale during the dispatch lands in the FaultReport as advisory
        fields."""
        from repro.analysis.parallel import run_tasks_parallel

        clock = FakeClock()
        status = StatusAggregator(stale_after=60.0, clock=clock)
        bus = EventBus(status=status)

        def go_silent(event):
            # The worker "goes silent" for 100s right after starting.
            if event.type == "task_started":
                clock.advance(100.0)
                status.tick()

        bus.subscribe(go_silent)
        outcome = run_tasks_parallel(
            [SPEC], ["next_line"], jobs=1, cache=None, bus=bus,
        )
        report = outcome.report
        assert report.heartbeat_stale == 1
        assert report.stale_tasks == ["next_line/hb_wl"]
        # Advisory only: a stale flag alone does not dirty the report.
        assert report.clean
        assert "1 stale heartbeats" in report.summary_line()

    def test_monitored_run_signature_matches_unmonitored(self):
        baseline = run_suite(
            [SPEC], ["next_line"], include_baseline=False, jobs=1,
            cache=None,
        )
        monitored = run_suite(
            [SPEC], ["next_line"], include_baseline=False, jobs=1,
            cache=None, progress=io.StringIO(),
        )
        a = baseline.runs["next_line"]["hb_wl"].stats.signature()
        b = monitored.runs["next_line"]["hb_wl"].stats.signature()
        assert a == b
