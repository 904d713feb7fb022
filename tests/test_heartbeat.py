"""Tests for live progress heartbeats (repro.obs.heartbeat).

The monitor's state machine is driven with a fake clock and a plain
``queue.Queue`` so transitions, staleness, and throttled rendering are
deterministic; integration tests check the status line surfaces through
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
from repro.obs.heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    HeartbeatMonitor,
    HeartbeatPulse,
    emit_event,
    heartbeat_interval_from_env,
    stale_after_from_env,
    stream_supports_rewrite,
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


def _event(kind, label, when, **payload):
    return (kind, label, 12345, when, payload)


class FakeTTY(io.StringIO):
    """A StringIO that claims to be an interactive terminal."""

    def isatty(self):
        return True


class TestEmitEvent:
    def test_puts_tuple_on_queue(self):
        q = queue.Queue()
        emit_event(q, "started", "cfg/w", attempt=1)
        kind, label, pid, when, payload = q.get_nowait()
        assert (kind, label, payload) == ("started", "cfg/w", {"attempt": 1})
        assert pid > 0 and when > 0

    def test_broken_queue_is_swallowed(self):
        class Broken:
            def put(self, item):
                raise RuntimeError("queue torn down")

        emit_event(Broken(), "heartbeat", "cfg/w")  # must not raise


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
        pulse = HeartbeatPulse(q, "cfg/w", interval=0.01)
        pulse.start()
        kind, label, _pid, _when, _payload = q.get(timeout=2.0)
        assert (kind, label) == ("heartbeat", "cfg/w")
        pulse.stop()
        assert not pulse.is_alive()


class TestHeartbeatMonitor:
    def _monitor(self, total=3, stream=None, stale_after=10.0):
        clock = FakeClock()
        monitor = HeartbeatMonitor(
            total, stream=stream, stale_after=stale_after,
            throttle=0.0, clock=clock,
        )
        monitor.attach_queue(queue.Queue())
        return monitor, clock

    def test_lifecycle_counters_and_status_line(self):
        monitor, clock = self._monitor(total=3)
        monitor.queue.put(_event("started", "a", clock.now, attempt=0))
        monitor.queue.put(_event("started", "b", clock.now, attempt=0))
        monitor.pump()
        assert monitor.running == 2
        clock.advance(2.0)
        monitor.queue.put(_event("finished", "a", clock.now))
        monitor.pump()
        assert (monitor.done, monitor.running, monitor.failed) == (1, 1, 0)
        line = monitor.status_line()
        assert line.startswith("progress: 1/3 done, 1 running, 0 failed")
        # ETA: 1 done in 2s -> 2 remaining at 2s each.
        assert "ETA 4s" in line

    def test_failed_attempt_returns_task_to_pending(self):
        monitor, clock = self._monitor()
        monitor.queue.put(_event("started", "a", clock.now, attempt=0))
        monitor.queue.put(_event("failed", "a", clock.now, attempt=0))
        monitor.pump()
        assert monitor.running == 0
        assert monitor.failed == 0  # the executor may still retry it
        monitor.queue.put(_event("started", "a", clock.now, attempt=1))
        monitor.queue.put(_event("finished", "a", clock.now, attempt=1))
        monitor.pump()
        assert monitor.done == 1

    def test_cache_hits_and_quarantine_are_parent_side(self):
        monitor, _clock = self._monitor(total=2)
        monitor.note_cache_hit("a")
        monitor.note_quarantined("b")
        assert (monitor.done, monitor.cache_hits, monitor.failed) == (1, 1, 1)
        assert "1 cached" in monitor.status_line()
        monitor.note_quarantined("b")  # idempotent
        assert monitor.failed == 1

    def test_duplicate_finished_counts_once(self):
        monitor, clock = self._monitor()
        monitor.queue.put(_event("finished", "a", clock.now))
        monitor.queue.put(_event("finished", "a", clock.now))
        monitor.pump()
        assert monitor.done == 1

    def test_eta_unknown_before_first_completion(self):
        monitor, _clock = self._monitor()
        assert monitor.eta_seconds() is None
        assert "ETA ?" in monitor.status_line()

    def test_stale_detection_and_heartbeat_refresh(self):
        monitor, clock = self._monitor(stale_after=5.0)
        monitor.queue.put(_event("started", "slow", clock.now, attempt=0))
        monitor.pump()
        clock.advance(4.0)
        monitor.queue.put(_event("heartbeat", "slow", clock.now))
        monitor.pump()
        assert monitor.stale_tasks == []  # the beat refreshed last_seen
        clock.advance(5.1)
        monitor.pump()
        assert monitor.stale_tasks == ["slow"]
        assert "1 stale (slow)" in monitor.status_line()
        clock.advance(10.0)
        monitor.pump()
        assert monitor.stale_tasks == ["slow"]  # flagged once, not per pump

    def test_done_tasks_never_go_stale(self):
        monitor, clock = self._monitor(stale_after=5.0)
        monitor.queue.put(_event("started", "quick", clock.now, attempt=0))
        monitor.queue.put(_event("finished", "quick", clock.now))
        monitor.pump()
        clock.advance(60.0)
        monitor.pump()
        assert monitor.stale_tasks == []

    def test_render_is_throttled_and_change_only(self):
        stream = io.StringIO()
        clock = FakeClock()
        monitor = HeartbeatMonitor(
            2, stream=stream, stale_after=60.0, throttle=1.0, clock=clock
        )
        monitor.attach_queue(queue.Queue())
        monitor.queue.put(_event("started", "a", clock.now, attempt=0))
        monitor.pump()
        clock.advance(0.1)
        monitor.pump()  # inside the throttle window: no second line
        assert stream.getvalue().count("progress:") == 1
        clock.advance(2.0)
        monitor.pump()  # outside the window but the line is unchanged
        assert stream.getvalue().count("progress:") == 1
        monitor.queue.put(_event("finished", "a", clock.now))
        clock.advance(2.0)
        monitor.pump()
        assert stream.getvalue().count("progress:") == 2

    def test_malformed_event_is_ignored(self):
        monitor, _clock = self._monitor()
        monitor.queue.put("not-an-event")
        monitor.queue.put(("started",))
        monitor.pump()  # must not raise
        assert monitor.running == 0

    def test_closed_stream_does_not_raise(self):
        stream = io.StringIO()
        clock = FakeClock()
        monitor = HeartbeatMonitor(1, stream=stream, throttle=0.0, clock=clock)
        stream.close()
        monitor.queue = queue.Queue()
        monitor.queue.put(_event("started", "a", clock.now, attempt=0))
        monitor.pump()


class TestStreamRewrite:
    def test_tty_gets_carriage_return_rewriting(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setenv("TERM", "xterm-256color")
        stream = FakeTTY()
        assert stream_supports_rewrite(stream)
        clock = FakeClock()
        monitor = HeartbeatMonitor(2, stream=stream, throttle=0.0,
                                   clock=clock)
        monitor.attach_queue(queue.Queue())
        monitor.queue.put(_event("started", "a", clock.now, attempt=0))
        monitor.pump()
        clock.advance(1.0)
        monitor.queue.put(_event("finished", "a", clock.now))
        monitor.pump()
        out = stream.getvalue()
        assert out.startswith("\r")
        assert out.count("\r") == 2  # rewritten in place, not stacked
        assert "\n" not in out  # the newline belongs to close()
        monitor.close()
        assert stream.getvalue().endswith("\n")

    def test_rewrite_pads_over_longer_previous_line(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setenv("TERM", "xterm")
        stream = FakeTTY()
        clock = FakeClock()
        monitor = HeartbeatMonitor(2, stream=stream, throttle=0.0,
                                   clock=clock)
        monitor.attach_queue(queue.Queue())
        monitor._line_width = 0
        monitor._render(force=True)
        first_len = len(monitor._last_line)
        monitor._last_line = ""  # force a re-render of a shorter line
        monitor._line_width = first_len + 20
        monitor._render(force=True)
        chunks = stream.getvalue().split("\r")
        assert len(chunks[-1]) >= first_len + 20  # blank-padded residue

    def test_non_tty_gets_newline_lines(self):
        stream = io.StringIO()  # isatty() is False
        assert not stream_supports_rewrite(stream)
        clock = FakeClock()
        monitor = HeartbeatMonitor(1, stream=stream, throttle=0.0,
                                   clock=clock)
        monitor.attach_queue(queue.Queue())
        monitor.queue.put(_event("started", "a", clock.now, attempt=0))
        monitor.pump()
        monitor.close()
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
        clock = FakeClock()
        monitor = HeartbeatMonitor(1, stream=stream, throttle=1e9,
                                   clock=clock)
        monitor.attach_queue(queue.Queue())
        monitor.queue.put(_event("started", "a", clock.now, attempt=0))
        monitor.queue.put(_event("finished", "a", clock.now))
        monitor.pump()
        monitor.pump()
        monitor.close()
        out = stream.getvalue()
        assert "1/1 done" in out


class TestMonitorSink:
    def test_sink_sees_every_drained_event(self):
        monitor, clock = TestHeartbeatMonitor()._monitor()
        seen = []
        monitor.sink = seen.append
        started = _event("started", "a", clock.now, attempt=0)
        finished = _event("finished", "a", clock.now)
        monitor.queue.put(started)
        monitor.queue.put(finished)
        monitor.pump()
        assert seen == [started, finished]

    def test_sink_failure_never_breaks_the_pump(self):
        monitor, clock = TestHeartbeatMonitor()._monitor()

        def explode(event):
            raise RuntimeError("sink bug")

        monitor.sink = explode
        monitor.queue.put(_event("finished", "a", clock.now))
        monitor.pump()  # must not raise
        assert monitor.done == 1

    def test_note_shortcuts_bypass_the_sink(self):
        monitor, _clock = TestHeartbeatMonitor()._monitor()
        seen = []
        monitor.sink = seen.append
        monitor.note_cache_hit("a")
        monitor.note_quarantined("b")
        assert seen == []  # parent-side notes have their own publishers


class TestCleanShutdown:
    def test_close_tolerates_dead_queue_and_closed_stream(self):
        stream = io.StringIO()
        clock = FakeClock()
        monitor = HeartbeatMonitor(1, stream=stream, throttle=0.0,
                                   clock=clock)

        class DeadQueue:
            def get_nowait(self):
                raise ConnectionResetError("manager is gone")

        monitor.attach_queue(DeadQueue())
        stream.close()
        monitor.close()  # must not raise

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
        """Deterministic fold check: a monitor that has flagged stale
        tasks contributes them to the FaultReport as advisory fields."""
        from repro.analysis.parallel import run_tasks_parallel

        clock = FakeClock()
        monitor = HeartbeatMonitor(
            1, stream=None, stale_after=60.0, throttle=0.0, clock=clock
        )
        monitor.stale_tasks.append("next_line/hb_wl")
        outcome = run_tasks_parallel(
            [SPEC], ["next_line"], jobs=1, cache=None,
            monitor=monitor,
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
