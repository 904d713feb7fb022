"""Deterministic filesystem fault injection + the store chaos harness.

Shared-store bugs hide behind filesystem behaviour that never happens on
a developer laptop: the disk fills mid-publish, a rename lands after the
staging file was torn, a write hangs for seconds.  This module makes
those failures *reproducible*: ``REPRO_FSFAULT`` arms seeded, hash-based
fault rules at the store's IO seams (the same selection discipline as
``REPRO_FAULT_INJECT`` in :mod:`repro.analysis.parallel`), so the exact
same faults fire on the exact same operations every run.

Syntax (comma-separated rules)::

    REPRO_FSFAULT=enospc:0.05,torn-rename:0.05
    REPRO_FSFAULT=eio:0.1:ledger
    REPRO_FSFAULT=slow:0.2:cache

Each rule is ``mode:fraction[:scope]`` with mode one of

* ``enospc`` / ``eio`` — raise ``OSError(ENOSPC/EIO)`` at the seam
  (write, rename, lease-create, ledger append);
* ``torn-rename`` — truncate the staging file to half before the
  ``os.replace``, simulating a crash between write and rename: the
  destination ends up torn and the store's checksum must catch it;
* ``slow`` — sleep at the seam, widening race windows.

``scope`` restricts a rule to one seam family (``cache``, ``ledger``,
``artifact``); omitted means all.  Selection hashes
``(seed, mode, op, basename, per-(op,basename) counter)`` — deterministic
per process, independent of wall clock and interleaving.  The seed comes
from ``REPRO_FSFAULT_SEED`` (default 0).

The seams themselves are zero-cost when chaos is off: callers check
``"repro.check.fsfault" not in sys.modules and not REPRO_FSFAULT``
before importing anything from here (the observability contract from
DESIGN §8).

The bottom half is the chaos harness the CI ``chaos-smoke`` job and
``repro chaos`` drive: a multi-process stress test (N writers × M
readers × eviction × injected faults) over one shared
:class:`~repro.analysis.store.ShardedRunStore`, asserting the store
invariants — a torn entry is never *served*, the byte budget holds, and
injected ENOSPC degrades workers to read-only instead of killing them —
plus :func:`lease_steal_check`, which SIGKILLs a lease owner and proves
a follower steals the orphaned claim.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

logger = logging.getLogger(__name__)

_MODES = ("enospc", "eio", "torn-rename", "slow")
_SCOPES = ("cache", "ledger", "artifact")

#: How long a ``slow`` rule sleeps at a selected seam (seconds).
SLOW_SECONDS = 0.05


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: ``mode:fraction[:scope]``."""

    mode: str
    fraction: float
    scope: Optional[str] = None


def parse_rules(raw: str) -> List[FaultRule]:
    """Parse a comma-separated ``REPRO_FSFAULT`` value (strict)."""
    rules: List[FaultRule] = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"REPRO_FSFAULT rule {chunk!r} must be mode:fraction[:scope]"
            )
        mode = parts[0].strip().lower()
        if mode not in _MODES:
            raise ValueError(
                f"REPRO_FSFAULT mode {mode!r} not in {_MODES}"
            )
        try:
            fraction = float(parts[1])
        except ValueError:
            raise ValueError(
                f"REPRO_FSFAULT fraction {parts[1]!r} is not a number"
            ) from None
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"REPRO_FSFAULT fraction {fraction} must be in [0, 1]"
            )
        scope = parts[2].strip().lower() if len(parts) == 3 else ""
        if scope and scope not in _SCOPES:
            raise ValueError(
                f"REPRO_FSFAULT scope {scope!r} not in {_SCOPES}"
            )
        rules.append(FaultRule(mode, fraction, scope or None))
    return rules


class FsFaultInjector:
    """Seeded, deterministic fault selection over IO seams.

    Selection is a pure function of ``(seed, mode, op, basename, n)``
    where ``n`` is this process's running count of ``(op, basename)``
    seam crossings — two runs with the same seed and the same per-file
    operation sequence inject identical faults.
    """

    def __init__(self, rules: List[FaultRule], seed: int = 0) -> None:
        self.rules = rules
        self.seed = seed
        self._counts: Dict[Tuple[str, str], int] = {}
        self.injected: Dict[str, int] = {mode: 0 for mode in _MODES}

    def _selects(self, rule: FaultRule, op: str, name: str, n: int) -> bool:
        digest = hashlib.sha256(
            f"{self.seed}:{rule.mode}:{op}:{name}:{n}".encode("utf-8")
        ).digest()
        bucket = int.from_bytes(digest[:4], "big") % 10_000
        return bucket < int(rule.fraction * 10_000)

    def check(
        self,
        op: str,
        path: str,
        scope: str = "artifact",
        tmp: Optional[str] = None,
    ) -> None:
        """Cross one seam: maybe raise, sleep, or tear the staging file.

        ``op`` names the operation (``write``, ``rename``, ``append``,
        ``lease``); ``tmp`` is the staging file a ``rename`` is about to
        publish (the torn-rename target).
        """
        name = os.path.basename(path)
        n = self._counts.get((op, name), 0)
        self._counts[(op, name)] = n + 1
        for rule in self.rules:
            if rule.scope is not None and rule.scope != scope:
                continue
            if rule.mode == "torn-rename" and (op != "rename" or tmp is None):
                continue
            if not self._selects(rule, op, name, n):
                continue
            self.injected[rule.mode] += 1
            if rule.mode == "enospc":
                raise OSError(errno.ENOSPC, "injected: no space left on device", path)
            if rule.mode == "eio":
                raise OSError(errno.EIO, "injected: input/output error", path)
            if rule.mode == "slow":
                time.sleep(SLOW_SECONDS)
                continue
            if rule.mode == "torn-rename":
                _tear(tmp)
                continue


def _tear(tmp: str) -> None:
    """Truncate a staging file to half, as a crash mid-write would."""
    try:
        size = os.path.getsize(tmp)
        with open(tmp, "rb+") as fh:
            fh.truncate(size // 2)
    except OSError:
        pass


_injector: Optional[FsFaultInjector] = None
_env_injector: Optional[FsFaultInjector] = None
_injector_env: Optional[str] = None


def active_injector() -> Optional[FsFaultInjector]:
    """The armed injector: programmatic if installed, else from env.

    The env-derived injector is cached per ``REPRO_FSFAULT`` value so
    counters persist across seams within one process, and re-arms when
    the variable changes (tests flip it).
    """
    global _injector, _env_injector, _injector_env
    if _injector is not None:
        return _injector
    raw = os.environ.get("REPRO_FSFAULT", "").strip()
    if not raw:
        _env_injector = None
        _injector_env = None
        return None
    if raw != _injector_env:
        seed_raw = os.environ.get("REPRO_FSFAULT_SEED", "0").strip() or "0"
        try:
            seed = int(seed_raw)
        except ValueError:
            raise ValueError(
                f"REPRO_FSFAULT_SEED must be an integer, got {seed_raw!r}"
            ) from None
        _env_injector = FsFaultInjector(parse_rules(raw), seed)
        _injector_env = raw
    return _env_injector


def fault_check(
    op: str, path: str, scope: str = "artifact", tmp: Optional[str] = None
) -> None:
    """The seam entry point callers invoke once chaos might be armed."""
    injector = active_injector()
    if injector is not None:
        injector.check(op, path, scope=scope, tmp=tmp)


def set_fsfault(
    injector: Optional[FsFaultInjector],
) -> Optional[FsFaultInjector]:
    """Install a programmatic injector (tests); returns the previous."""
    global _injector
    previous = _injector
    _injector = injector
    return previous


def reset_fault_state() -> None:
    """Drop all injector state (programmatic and env-cached)."""
    global _injector, _env_injector, _injector_env
    _injector = None
    _env_injector = None
    _injector_env = None


# ---------------------------------------------------------------------------
# chaos harness: multi-process store stress
# ---------------------------------------------------------------------------


def _stress_key(seed: int, i: int) -> str:
    return hashlib.sha256(f"stress:{seed}:{i}".encode("utf-8")).hexdigest()[:32]


def _stress_blob(seed: int, i: int, payload_bytes: int) -> str:
    unit = hashlib.sha256(f"blob:{seed}:{i}".encode("utf-8")).hexdigest()
    reps = max(1, payload_bytes // len(unit) + 1)
    return (unit * reps)[:payload_bytes]


def _stress_payload(seed: int, i: int, payload_bytes: int) -> Dict[str, Any]:
    return {
        "trace_name": f"stress-{i}",
        "category": "stress",
        "prefetcher_name": "none",
        "stats": {"i": i, "blob": _stress_blob(seed, i, payload_bytes)},
    }


def _report_path(root: str, name: str) -> str:
    return os.path.join(root, "_reports", f"{name}.json")


def _write_report(root: str, name: str, report: Dict[str, Any]) -> None:
    # Plain (unfaulted) IO on purpose: the harness's own bookkeeping must
    # survive the chaos it injects into the store.
    path = _report_path(root, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh)
    os.replace(tmp, path)


def _stress_writer(
    root: str,
    name: str,
    seed: int,
    entries: int,
    payload_bytes: int,
    max_bytes: Optional[int],
    deadline: float,
) -> None:
    from repro.analysis.store import ShardedRunStore

    store = ShardedRunStore(root, max_bytes=max_bytes, reap_on_open=False)
    report = {
        "simulated": 0,
        "published": 0,
        "publish_failed": 0,
        "coalesced": 0,
        "steals": 0,
        "degraded": False,
        "verify_failures": 0,
    }
    for i in range(entries):
        key = _stress_key(seed, i)
        expected = _stress_blob(seed, i, payload_bytes)
        while time.time() < deadline:
            data, status = store.load(key)
            if status == "ok":
                blob = data.get("stats", {}).get("blob")
                if blob != expected:
                    report["verify_failures"] += 1
                else:
                    report["coalesced"] += 1
                break
            lease = store.claim(key) or store.steal(key)
            if lease is not None:
                # Post-claim re-probe, same as the engine: the previous
                # owner may have published between our miss and this
                # claim — serving that entry instead of re-simulating is
                # what makes the dedup count exact.
                data, status = store.load(key)
                if status == "ok":
                    blob = data.get("stats", {}).get("blob")
                    if blob != expected:
                        report["verify_failures"] += 1
                    else:
                        report["coalesced"] += 1
                    store.release(lease)
                    break
                # "Simulate" (construct the deterministic payload) and
                # publish; a degraded store returns False and the result
                # simply stays unshared — exactly the production path.
                report["simulated"] += 1
                if store.publish(key, _stress_payload(seed, i, payload_bytes)):
                    report["published"] += 1
                else:
                    report["publish_failed"] += 1
                store.release(lease)
                break
            time.sleep(0.01)
    report["steals"] = store.lease_steals
    report["degraded"] = store.read_only
    _write_report(root, name, report)


def _stress_reader(
    root: str,
    name: str,
    seed: int,
    entries: int,
    payload_bytes: int,
    deadline: float,
) -> None:
    from repro.analysis.store import ShardedRunStore

    store = ShardedRunStore(root, reap_on_open=False)
    report = {"served": 0, "missing": 0, "rejected": 0, "verify_failures": 0}
    i = 0
    while time.time() < deadline:
        key = _stress_key(seed, i % entries)
        data, status = store.load(key)
        if status == "ok":
            blob = data.get("stats", {}).get("blob")
            expected = _stress_blob(seed, i % entries, payload_bytes)
            if blob != expected:
                report["verify_failures"] += 1
            else:
                report["served"] += 1
        elif status == "missing":
            report["missing"] += 1
        else:
            # corrupt/stale: *detected* damage is the contract under
            # torn-rename injection — never served, so not a violation.
            report["rejected"] += 1
        i += 1
        time.sleep(0.002)
    _write_report(root, name, report)


def run_store_stress(
    root: str,
    writers: int = 2,
    readers: int = 2,
    entries: int = 50,
    seconds: float = 20.0,
    payload_bytes: int = 2048,
    max_bytes: Optional[int] = None,
    seed: int = 0,
    expect_degraded: bool = False,
) -> Dict[str, Any]:
    """Run the multi-process stress and check the store invariants.

    Returns a report dict with ``ok`` plus per-invariant fields.  Faults
    are armed by the *environment* (``REPRO_FSFAULT``), inherited by the
    worker processes — the harness itself stays deterministic either way.
    """
    from repro.analysis.store import ShardedRunStore

    os.makedirs(root, exist_ok=True)
    deadline = time.time() + seconds
    ctx = multiprocessing.get_context()
    procs = []
    names = []
    for w in range(writers):
        name = f"writer-{w}"
        names.append(name)
        procs.append(
            ctx.Process(
                target=_stress_writer,
                args=(root, name, seed, entries, payload_bytes, max_bytes,
                      deadline),
                name=name,
            )
        )
    for r in range(readers):
        name = f"reader-{r}"
        names.append(name)
        procs.append(
            ctx.Process(
                target=_stress_reader,
                args=(root, name, seed, entries, payload_bytes, deadline),
                name=name,
            )
        )
    for proc in procs:
        proc.start()
    # Workers inherited the armed REPRO_FSFAULT at start(); disarm the
    # parent so its final accounting pass below is genuinely fault-free.
    armed = os.environ.pop("REPRO_FSFAULT", None)
    reset_fault_state()
    for proc in procs:
        proc.join(timeout=seconds + 60.0)
        if proc.is_alive():  # pragma: no cover — hung worker
            proc.terminate()
            proc.join(timeout=5.0)
    worker_failures = [p.name for p in procs if p.exitcode != 0]

    reports: Dict[str, Dict[str, Any]] = {}
    for name in names:
        try:
            with open(_report_path(root, name)) as fh:
                reports[name] = json.load(fh)
        except (OSError, ValueError):
            reports[name] = {}

    verify_failures = sum(
        r.get("verify_failures", 0) for r in reports.values()
    )
    degraded = [n for n, r in reports.items() if r.get("degraded")]
    simulated = sum(r.get("simulated", 0) for r in reports.values())
    served = sum(r.get("served", 0) for r in reports.values())
    rejected = sum(r.get("rejected", 0) for r in reports.values())

    # Final accounting from a fresh, disarmed store view in the parent.
    store = ShardedRunStore(root, max_bytes=max_bytes, reap_on_open=True)
    if max_bytes is not None:
        store.maintain()
    final_bytes = store.total_bytes()
    budget_ok = max_bytes is None or final_bytes <= max_bytes
    degrade_ok = bool(degraded) if expect_degraded else True
    if armed is not None:
        os.environ["REPRO_FSFAULT"] = armed

    ok = (
        not worker_failures
        and verify_failures == 0
        and budget_ok
        and degrade_ok
    )
    return {
        "ok": ok,
        "worker_failures": worker_failures,
        "verify_failures": verify_failures,
        "torn_rejected": rejected,
        "served": served,
        "simulated": simulated,
        "degraded_workers": degraded,
        "expect_degraded": expect_degraded,
        "final_bytes": final_bytes,
        "max_bytes": max_bytes,
        "budget_ok": budget_ok,
        "reports": reports,
    }


# ---------------------------------------------------------------------------
# lease steal check: SIGKILLed owner
# ---------------------------------------------------------------------------


def _doomed_owner(root: str, key: str) -> None:  # pragma: no cover — dies
    from repro.analysis.store import ShardedRunStore

    store = ShardedRunStore(root, reap_on_open=False)
    lease = store.claim(key)
    assert lease is not None and lease.path is not None
    os.kill(os.getpid(), signal.SIGKILL)


def lease_steal_check(root: str, timeout: float = 30.0) -> Dict[str, Any]:
    """Prove a follower steals the lease of a SIGKILLed owner.

    A child process claims a key and is SIGKILLed holding the lease; the
    parent must observe the lease as stale (dead pid on this host) and
    win the steal race.  Returns ``{"ok": bool, ...}``.
    """
    from repro.analysis.store import ShardedRunStore

    os.makedirs(root, exist_ok=True)
    key = _stress_key(0, 999_999)
    ctx = multiprocessing.get_context()
    child = ctx.Process(target=_doomed_owner, args=(root, key))
    child.start()
    child.join(timeout=timeout)
    killed = child.exitcode == -signal.SIGKILL
    store = ShardedRunStore(root, reap_on_open=False)
    state_seen = None
    stolen = False
    deadline = time.time() + timeout
    while time.time() < deadline:
        state_seen, _info = store.lease_state(key)
        if state_seen in ("stale", "free"):
            lease = store.steal(key)
            if lease is not None:
                stolen = True
                store.release(lease)
            break
        time.sleep(0.05)
    return {
        "ok": killed and stolen,
        "owner_sigkilled": killed,
        "lease_state_seen": state_seen,
        "stolen": stolen,
    }
