"""Worker heartbeats for the evaluation engine.

While a task attempt runs, a :class:`HeartbeatPulse` daemon thread in
the worker publishes a ``heartbeat`` event every
``REPRO_HEARTBEAT_INTERVAL`` seconds over the telemetry channel (see
:mod:`repro.obs.events`).  The parent's
:class:`~repro.obs.events.StatusAggregator` flags a running task whose
events stop for ``REPRO_HEARTBEAT_STALE`` seconds as *stale*: the
worker was killed, its interpreter wedged or its pulse died, but the
executor's ``REPRO_TASK_TIMEOUT`` has not fired yet.  Stale flags are
advisory early warnings — they feed the
:class:`~repro.analysis.parallel.FaultReport` (``heartbeat_stale`` /
``stale_tasks``) without failing the evaluation; the retry/timeout
machinery still decides the task's fate.

Everything here is opt-in (``run_suite(..., progress=True)``,
``REPRO_PROGRESS=1``, an event ledger or a trace) and touches no
architectural state: a monitored run's ``SimStats.signature()`` is
identical to an unmonitored one.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Optional

__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "HeartbeatPulse",
    "heartbeat_interval_from_env",
    "stale_after_from_env",
]

#: Seconds between worker heartbeats (``REPRO_HEARTBEAT_INTERVAL``).
DEFAULT_HEARTBEAT_INTERVAL = 1.0


def _positive_float_env(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        raise ValueError(
            f"{name} must be a number of seconds, got {raw!r}"
        ) from None
    return value if value > 0 else default


def heartbeat_interval_from_env() -> float:
    return _positive_float_env(
        "REPRO_HEARTBEAT_INTERVAL", DEFAULT_HEARTBEAT_INTERVAL
    )


def stale_after_from_env(
    interval: float, task_timeout: Optional[float] = None
) -> float:
    """When a silent running task counts as stale.

    ``REPRO_HEARTBEAT_STALE`` overrides; otherwise half the task timeout
    (so the flag raises *before* the executor's timeout fires, which is
    the point) floored at two beats, or four beats when no timeout is
    configured.
    """
    override = os.environ.get("REPRO_HEARTBEAT_STALE")
    if override is not None and override.strip():
        return _positive_float_env("REPRO_HEARTBEAT_STALE", 4.0 * interval)
    if task_timeout is not None and task_timeout > 0:
        return max(2.0 * interval, 0.5 * task_timeout)
    return 4.0 * interval


class HeartbeatPulse(threading.Thread):
    """Worker-side daemon thread beating while a task runs.

    ``publisher`` is the worker's bus stand-in (a
    :class:`~repro.obs.events.WorkerEventRelay`), whose ``emit`` never
    raises.  The pulse proves the *process* is alive; a wedged worker
    whose interpreter still schedules threads keeps beating, but an
    OOM-killed or ``os._exit``-ed worker goes silent — exactly the case
    the parent wants to flag before its task timeout expires.
    """

    def __init__(self, publisher: Any, label: str, interval: float) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{label}")
        self.publisher = publisher
        self.label = label
        self.interval = interval
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(self.interval):
            self.publisher.emit("heartbeat", label=self.label)

    def stop(self) -> None:
        self._done.set()
        self.join(timeout=2.0)
