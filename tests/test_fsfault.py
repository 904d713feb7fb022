"""Tests for the deterministic filesystem fault injector.

The contract under test: ``REPRO_FSFAULT`` rules parse strictly (a typo
must fail loudly, not silently disable chaos); fault selection is a pure
function of ``(seed, mode, op, basename, count)`` — two identical runs
inject identical faults; each mode does what it says at the seam
(enospc/eio raise, torn-rename tears the staging file so the checksum
catches it downstream, slow only sleeps); scopes restrict rules to one
seam family; and the seams in :mod:`repro.check.artifacts`,
the store, and the event ledger all actually
cross the injector — plus the zero-cost contract: chaos off means the
module is never even imported.
"""

import errno
import json
import os
import subprocess
import sys

import pytest

from repro.check.fsfault import (
    FaultRule,
    FsFaultInjector,
    active_injector,
    parse_rules,
    reset_fault_state,
    set_fsfault,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(autouse=True)
def _clean_injector():
    reset_fault_state()
    yield
    reset_fault_state()


class TestParseRules:
    def test_single_rule(self):
        assert parse_rules("enospc:0.05") == [FaultRule("enospc", 0.05)]

    def test_multiple_rules_with_scope(self):
        rules = parse_rules("enospc:0.05,torn-rename:0.1:cache")
        assert rules == [
            FaultRule("enospc", 0.05),
            FaultRule("torn-rename", 0.1, "cache"),
        ]

    def test_blank_chunks_skipped(self):
        assert parse_rules(" , enospc:1.0 ,") == [FaultRule("enospc", 1.0)]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            parse_rules("rm-rf:0.5")

    @pytest.mark.parametrize(
        "raw", ("enospc:1.0:cahce", "enospc:1.0:checkpoint")
    )
    def test_unknown_scope_rejected(self, raw):
        # A typo or an unknown seam family must fail loudly instead of
        # arming a rule that never fires.
        with pytest.raises(
            ValueError, match=r"scope .*'cache', 'ledger', 'artifact'"
        ):
            parse_rules(raw)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_rules("eio:lots")

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            parse_rules("eio:1.5")

    def test_missing_fraction_rejected(self):
        with pytest.raises(ValueError, match="mode:fraction"):
            parse_rules("enospc")


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        decisions = []
        for _round in range(2):
            injector = FsFaultInjector(parse_rules("eio:0.3"), seed=7)
            fired = []
            for i in range(200):
                try:
                    injector.check("write", f"/x/{i % 5}.json")
                    fired.append(False)
                except OSError:
                    fired.append(True)
            decisions.append(fired)
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_different_seed_different_sequence(self):
        def run(seed):
            injector = FsFaultInjector(parse_rules("eio:0.3"), seed=seed)
            out = []
            for i in range(200):
                try:
                    injector.check("write", f"/x/{i % 5}.json")
                    out.append(False)
                except OSError:
                    out.append(True)
            return out

        assert run(1) != run(2)

    def test_fraction_roughly_respected(self):
        injector = FsFaultInjector(parse_rules("eio:0.2"), seed=0)
        fired = 0
        for i in range(1000):
            try:
                injector.check("write", f"/x/{i}.json")
            except OSError:
                fired += 1
        assert 100 < fired < 300  # 20% +- generous slop, deterministic


class TestModes:
    def test_enospc_raises_with_errno(self):
        injector = FsFaultInjector(parse_rules("enospc:1.0"))
        with pytest.raises(OSError) as excinfo:
            injector.check("write", "/x/a.json")
        assert excinfo.value.errno == errno.ENOSPC
        assert injector.injected["enospc"] == 1

    def test_eio_raises_with_errno(self):
        injector = FsFaultInjector(parse_rules("eio:1.0"))
        with pytest.raises(OSError) as excinfo:
            injector.check("write", "/x/a.json")
        assert excinfo.value.errno == errno.EIO

    def test_torn_rename_truncates_staging_file(self, tmp_path):
        tmp = os.path.join(str(tmp_path), "entry.json.1.2.tmp")
        with open(tmp, "w") as fh:
            fh.write("A" * 100)
        injector = FsFaultInjector(parse_rules("torn-rename:1.0"))
        injector.check("rename", os.path.join(str(tmp_path), "entry.json"),
                       tmp=tmp)
        assert os.path.getsize(tmp) == 50
        assert injector.injected["torn-rename"] == 1

    def test_torn_rename_ignores_non_rename_ops(self, tmp_path):
        injector = FsFaultInjector(parse_rules("torn-rename:1.0"))
        injector.check("write", "/x/a.json")  # no tmp, no raise, no count
        assert injector.injected["torn-rename"] == 0

    def test_slow_sleeps_but_never_raises(self):
        injector = FsFaultInjector(parse_rules("slow:1.0"))
        injector.check("write", "/x/a.json")
        assert injector.injected["slow"] == 1

    def test_scope_restricts_rule(self):
        injector = FsFaultInjector(parse_rules("enospc:1.0:ledger"))
        injector.check("write", "/x/a.json", scope="cache")  # no raise
        with pytest.raises(OSError):
            injector.check("append", "/x/events.jsonl", scope="ledger")


class TestEnvArming:
    def test_env_arms_and_caches_injector(self, monkeypatch):
        monkeypatch.setenv("REPRO_FSFAULT", "slow:0.0")
        first = active_injector()
        assert first is not None
        assert active_injector() is first  # cached per env value
        monkeypatch.setenv("REPRO_FSFAULT", "slow:0.1")
        assert active_injector() is not first  # re-armed on change

    def test_programmatic_injector_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FSFAULT", "slow:0.0")
        mine = FsFaultInjector([], seed=0)
        set_fsfault(mine)
        assert active_injector() is mine
        set_fsfault(None)
        assert active_injector() is not mine

    def test_no_env_no_injector(self, monkeypatch):
        monkeypatch.delenv("REPRO_FSFAULT", raising=False)
        assert active_injector() is None

    def test_bad_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FSFAULT", "eio:0.1")
        monkeypatch.setenv("REPRO_FSFAULT_SEED", "yesterday")
        with pytest.raises(ValueError, match="REPRO_FSFAULT_SEED"):
            active_injector()


class TestSeams:
    def test_atomic_write_enospc_raises(self, tmp_path, monkeypatch):
        from repro.check.artifacts import atomic_write_bytes

        monkeypatch.setenv("REPRO_FSFAULT", "enospc:1.0")
        path = os.path.join(str(tmp_path), "out.json")
        with pytest.raises(OSError) as excinfo:
            atomic_write_bytes(path, b"{}")
        assert excinfo.value.errno == errno.ENOSPC
        assert not os.path.exists(path)

    def test_atomic_write_torn_rename_caught_by_store(self, tmp_path,
                                                      monkeypatch):
        """The end-to-end chaos contract: a torn rename publishes a
        damaged entry, and the store's checksum refuses to serve it."""
        from repro.analysis.store import ShardedRunStore

        monkeypatch.setenv("REPRO_FSFAULT", "torn-rename:1.0:cache")
        store = ShardedRunStore(str(tmp_path), reap_on_open=False)
        key = "ab" + "0" * 30
        assert store.publish(key, {"stats": {"x": 1}})  # write "succeeds"
        monkeypatch.delenv("REPRO_FSFAULT")
        reset_fault_state()
        data, status = store.load(key)
        assert (data, status) == (None, "corrupt")

    def test_ledger_append_survives_eio(self, tmp_path, monkeypatch):
        from repro.obs.events import EventLedger, TelemetryEvent

        monkeypatch.setenv("REPRO_FSFAULT", "eio:1.0:ledger")
        ledger = EventLedger(os.path.join(str(tmp_path), "events.jsonl"))
        ledger.append(TelemetryEvent(type="run_started", seq=1, ts=0.0, pid=1))
        assert ledger.dropped == 1
        assert ledger.appended == 0

    def test_zero_cost_when_disarmed(self):
        """Chaos off => repro.check.fsfault is never imported, even
        after a full cached run (the observability zero-cost contract)."""
        code = (
            "import sys, repro.analysis.store as s, tempfile\n"
            "st = s.ShardedRunStore(tempfile.mkdtemp())\n"
            "st.publish('a'*32, {'stats': {}})\n"
            "st.load('a'*32)\n"
            "assert 'repro.check.fsfault' not in sys.modules\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FSFAULT"}
        env["PYTHONPATH"] = SRC
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestStressHelpers:
    def test_stress_payload_is_deterministic(self):
        from repro.check.fsfault import _stress_key, _stress_payload

        assert _stress_key(0, 1) == _stress_key(0, 1)
        assert _stress_key(0, 1) != _stress_key(0, 2)
        a = _stress_payload(3, 4, 256)
        b = _stress_payload(3, 4, 256)
        assert a == b
        assert len(a["stats"]["blob"]) == 256
        assert json.dumps(a)  # JSON-serializable
