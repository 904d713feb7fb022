"""Tests for the benchmark-regression sentinel (repro.analysis.regression).

Covers the versioned trajectory file (legacy + v2 envelope loading,
atomic capped writes), the regression/drift checks against synthetic
trajectories, and the ``repro bench-check`` CLI exit codes the CI gate
relies on.
"""

import json

import pytest

from repro.analysis.regression import (
    AGGREGATE,
    DEFAULT_RETENTION,
    DEFAULT_THRESHOLD,
    DEFAULT_WINDOW,
    TRAJECTORY_SCHEMA_VERSION,
    Finding,
    check_trajectory,
    load_trajectory,
    parse_trajectory,
    retention_from_env,
    save_trajectory,
)
from repro.cli import main


def entry(ips=100_000.0, cycles=1_000, instructions=5_000, agg_ips=None):
    """One synthetic trajectory record with two (config, workload) runs."""
    runs = [
        {
            "config": config,
            "workload": workload,
            "instrs_per_sec": ips,
            "cycles_per_sec": ips * 0.2,
            "cycles": cycles,
            "instructions": instructions,
            "wall_seconds": instructions / ips,
        }
        for config, workload in (("no", "bench_int"), ("ent", "bench_srv"))
    ]
    return {
        "timestamp": "2026-01-01T00:00:00",
        "runs": runs,
        "aggregate": {
            "instrs_per_sec": agg_ips if agg_ips is not None else ips,
            "total_wall_seconds": 1.0,
        },
    }


class TestTrajectoryIO:
    def test_parse_legacy_bare_list(self):
        entries = parse_trajectory([entry(), "junk", entry()])
        assert len(entries) == 2  # non-dict rows dropped

    def test_parse_v2_envelope(self):
        data = {
            "schema_version": TRAJECTORY_SCHEMA_VERSION,
            "max_entries": 50,
            "entries": [entry()],
        }
        assert len(parse_trajectory(data)) == 1

    def test_parse_rejects_unknown_version_and_shape(self):
        with pytest.raises(ValueError, match="schema_version"):
            parse_trajectory({"schema_version": 99, "entries": []})
        with pytest.raises(ValueError, match="unrecognized"):
            parse_trajectory("not a trajectory")

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_trajectory(str(tmp_path / "absent.json")) == []

    def test_load_corrupt_file_raises_value_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ValueError, match="unreadable"):
            load_trajectory(str(path))

    def test_save_writes_v2_envelope_and_round_trips(self, tmp_path):
        path = tmp_path / "traj.json"
        entries = [entry(ips=float(i)) for i in range(1, 4)]
        kept = save_trajectory(str(path), entries)
        assert kept == entries
        on_disk = json.loads(path.read_text())
        assert on_disk["schema_version"] == TRAJECTORY_SCHEMA_VERSION
        assert on_disk["max_entries"] == DEFAULT_RETENTION
        assert load_trajectory(str(path)) == entries

    def test_save_caps_to_newest_retention_entries(self, tmp_path):
        path = tmp_path / "traj.json"
        entries = [entry(ips=float(i + 1)) for i in range(60)]
        kept = save_trajectory(str(path), entries, retention=5)
        assert len(kept) == 5
        reloaded = load_trajectory(str(path))
        assert [e["runs"][0]["instrs_per_sec"] for e in reloaded] == [
            56.0, 57.0, 58.0, 59.0, 60.0
        ]

    def test_save_upgrades_legacy_file(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps([entry()]))
        entries = load_trajectory(str(path))
        entries.append(entry())
        save_trajectory(str(path), entries)
        assert json.loads(path.read_text())["schema_version"] == 2

    def test_retention_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_KEEP", raising=False)
        assert retention_from_env() == DEFAULT_RETENTION
        monkeypatch.setenv("REPRO_BENCH_KEEP", "7")
        assert retention_from_env() == 7
        monkeypatch.setenv("REPRO_BENCH_KEEP", "0")
        assert retention_from_env() == 1  # floored
        monkeypatch.setenv("REPRO_BENCH_KEEP", "many")
        with pytest.raises(ValueError):
            retention_from_env()


class TestCheckTrajectory:
    def test_too_short_history_gates_nothing(self):
        report = check_trajectory([entry()])
        assert report.ok
        assert report.baseline_entries == 0
        assert "nothing to gate" in report.format()

    def test_clean_trajectory_is_ok(self):
        report = check_trajectory([entry(), entry(), entry()])
        assert report.ok
        assert report.baseline_entries == 2
        assert report.checked == 3  # two pairs + the aggregate
        assert "OK: no throughput regression, no drift" in report.format()

    def test_exactly_threshold_drop_trips(self):
        """A 30% instrs_per_sec drop is a regression at threshold=0.30 —
        the boundary must trip, not squeak by on float error."""
        entries = [entry(ips=100_000.0)] * 3 + [
            entry(ips=70_000.0, agg_ips=70_000.0)
        ]
        report = check_trajectory(entries)
        kinds = {(f.kind, f.config) for f in report.findings}
        assert ("throughput", "no") in kinds
        assert ("throughput", "ent") in kinds
        assert ("throughput", AGGREGATE) in kinds
        assert not report.ok

    def test_drop_below_threshold_passes(self):
        entries = [entry(ips=100_000.0)] * 3 + [
            entry(ips=71_000.0, agg_ips=71_000.0)
        ]
        assert check_trajectory(entries).ok

    def test_median_absorbs_one_noisy_baseline_entry(self):
        # One slow CI machine in the history must not poison the baseline.
        entries = [
            entry(ips=100_000.0),
            entry(ips=10_000.0),  # outlier
            entry(ips=100_000.0),
            entry(ips=95_000.0, agg_ips=95_000.0),
        ]
        assert check_trajectory(entries).ok

    def test_cycle_drift_is_a_finding(self):
        entries = [entry(cycles=1_000), entry(cycles=1_001)]
        report = check_trajectory(entries)
        assert not report.ok
        assert {f.kind for f in report.findings} == {"cycle_drift"}
        assert len(report.drifts) == 2  # both pairs drifted
        assert report.regressions == []

    def test_instruction_drift_is_a_finding(self):
        entries = [entry(instructions=5_000), entry(instructions=4_999)]
        report = check_trajectory(entries)
        assert {f.kind for f in report.findings} == {"instruction_drift"}

    def test_drift_compares_against_most_recent_prior_only(self):
        # An old behaviour change (alarm fired then) must not re-fire now.
        entries = [entry(cycles=900), entry(cycles=1_000), entry(cycles=1_000)]
        assert check_trajectory(entries).ok

    def test_pairs_without_history_are_skipped_not_failed(self):
        newest = entry()
        newest["runs"].append(
            {
                "config": "brand_new", "workload": "bench_fp",
                "instrs_per_sec": 1.0, "cycles": 1, "instructions": 1,
            }
        )
        report = check_trajectory([entry(), newest])
        assert report.ok
        assert report.skipped == ["brand_new/bench_fp"]
        assert "no history for" in report.format()

    def test_window_limits_baseline(self):
        # Ancient fast entries outside the window can't cause a regression.
        entries = [entry(ips=1_000_000.0)] * 5 + [
            entry(ips=100.0, agg_ips=100.0)
        ] * 11 + [entry(ips=100.0, agg_ips=100.0)]
        report = check_trajectory(entries, window=DEFAULT_WINDOW)
        assert report.baseline_entries == DEFAULT_WINDOW
        assert report.ok

    def test_finding_describe_strings(self):
        regression = Finding("throughput", "no", "bench_int", 100_000.0, 60_000.0)
        assert regression.describe().startswith("REGRESSION no/bench_int:")
        assert "-40.0%" in regression.describe()
        drift = Finding("cycle_drift", "no", "bench_int", 1_000, 1_010)
        assert drift.describe().startswith("DRIFT no/bench_int: cycles")
        assert regression.delta == pytest.approx(-0.4)


class TestBenchCheckCli:
    def _write(self, tmp_path, entries):
        path = tmp_path / "BENCH_throughput.json"
        save_trajectory(str(path), entries)
        return str(path)

    def test_clean_trajectory_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, [entry(), entry()])
        assert main(["bench-check", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            [entry(ips=100_000.0)] * 3 + [entry(ips=50_000.0, agg_ips=50_000.0)],
        )
        assert main(["bench-check", path]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cycle_drift_exits_nonzero(self, tmp_path, capsys):
        path = self._write(tmp_path, [entry(cycles=1_000), entry(cycles=999)])
        assert main(["bench-check", path]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_allow_cycle_drift_acknowledges_drift_only(self, tmp_path, capsys):
        path = self._write(tmp_path, [entry(cycles=1_000), entry(cycles=999)])
        assert main(["bench-check", path, "--allow-cycle-drift"]) == 0
        assert "acknowledged" in capsys.readouterr().out

    def test_allow_cycle_drift_does_not_mask_regressions(self, tmp_path):
        path = self._write(
            tmp_path,
            [entry(ips=100_000.0, cycles=1_000)] * 3
            + [entry(ips=50_000.0, agg_ips=50_000.0, cycles=999)],
        )
        assert main(["bench-check", path, "--allow-cycle-drift"]) == 1

    def test_corrupt_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "BENCH_throughput.json"
        path.write_text("][")
        assert main(["bench-check", str(path)]) == 2
        assert "bench-check:" in capsys.readouterr().err

    def test_missing_file_exits_zero_nothing_to_gate(self, tmp_path, capsys):
        assert main(["bench-check", str(tmp_path / "absent.json")]) == 0
        assert "nothing to gate" in capsys.readouterr().out

    def test_custom_threshold(self, tmp_path):
        path = self._write(
            tmp_path,
            [entry(ips=100_000.0)] * 3 + [entry(ips=85_000.0, agg_ips=85_000.0)],
        )
        assert main(["bench-check", path]) == 0  # 15% < default 30%
        assert main(["bench-check", path, "--threshold", "0.10"]) == 1


def backend_entry(backends_ips, cycles=1_000):
    """One record with a no/bench_int run per backend.

    ``backends_ips`` maps backend name -> instrs_per_sec; the reference
    backend anchors the per-run ``speedup_vs_reference`` ratios.
    """
    ref_ips = backends_ips.get("reference")
    runs = []
    for backend, ips in backends_ips.items():
        run = {
            "config": "no",
            "workload": "bench_int",
            "backend": backend,
            "instrs_per_sec": ips,
            "cycles": cycles,
            "instructions": 5_000,
            "wall_seconds": 5_000 / ips,
        }
        if ref_ips:
            run["speedup_vs_reference"] = ips / ref_ips
        runs.append(run)
    return {
        "timestamp": "2026-01-01T00:00:00",
        "runs": runs,
        "aggregate": {"instrs_per_sec": ref_ips or 1.0},
    }


class TestBackendAwareSentinel:
    def test_backendless_history_compares_as_reference(self):
        # Pre-backend records (no "backend" field) must keep gating new
        # reference runs: a 2x reference slowdown still fires.
        old = entry(ips=100_000.0)
        new = entry(ips=100_000.0)
        for run in new["runs"]:
            run["backend"] = "reference"
            run["instrs_per_sec"] = 40_000.0
        report = check_trajectory([old, old, new])
        assert any(f.kind == "throughput" for f in report.findings)

    def test_like_backend_comparisons_only(self):
        # A staged run 4x faster than the reference history is NOT a
        # regression signal for reference, and reference history gives
        # staged runs nothing to compare against (skipped, not checked).
        old = backend_entry({"reference": 100_000.0})
        new = backend_entry({"reference": 100_000.0, "staged": 400_000.0})
        report = check_trajectory([old, old, new])
        assert report.ok
        assert "no/bench_int@staged" in report.skipped

    def test_staged_regression_fires_against_staged_history(self):
        old = backend_entry({"reference": 100_000.0, "staged": 400_000.0})
        new = backend_entry({"reference": 100_000.0, "staged": 150_000.0})
        report = check_trajectory([old, old, new])
        regressions = report.regressions
        assert len(regressions) == 1
        assert regressions[0].backend == "staged"
        assert "@staged" in regressions[0].describe()

    def test_drift_reported_per_backend(self):
        old = backend_entry({"reference": 100_000.0, "staged": 300_000.0})
        new = backend_entry(
            {"reference": 100_000.0, "staged": 300_000.0}, cycles=999
        )
        report = check_trajectory([old, new])
        assert {f.backend for f in report.drifts} == {"reference", "staged"}


class TestSpeedupGate:
    def test_parse_speedup_requirements(self):
        from repro.analysis.regression import parse_speedup_requirements

        assert parse_speedup_requirements([]) == {}
        assert parse_speedup_requirements(["staged:1.8", "NumPy: 2"]) == {
            "staged": 1.8,
            "numpy": 2.0,
        }
        for bad in ("staged", "staged:", "staged:zero", ":1.8", "staged:-1"):
            with pytest.raises(ValueError, match="BACKEND:FACTOR"):
                parse_speedup_requirements([bad])

    def test_gate_passes_and_fails_on_geomean(self):
        new = backend_entry({"reference": 100_000.0, "staged": 200_000.0})
        ok = check_trajectory([new], require_speedups={"staged": 1.8})
        assert ok.ok
        bad = check_trajectory([new], require_speedups={"staged": 2.5})
        assert not bad.ok
        finding = bad.speedup_failures[0]
        assert finding.backend == "staged"
        assert finding.current == pytest.approx(2.0)
        assert "SPEEDUP GATE" in finding.describe()

    def test_gate_applies_to_first_record(self):
        # Unlike the history checks, the speedup gate must fire on a
        # single-entry trajectory (fresh CI checkout).
        new = backend_entry({"reference": 100_000.0, "staged": 110_000.0})
        report = check_trajectory([new], require_speedups={"staged": 1.8})
        assert not report.ok
        assert "SPEEDUP GATE" in report.format()

    def test_committed_trajectory_accepts_reference_staged_record(self):
        """History written while a third backend existed must not trip
        the gate for a record that benches only reference and staged."""
        import copy
        import os

        committed = os.path.join(
            os.path.dirname(__file__), "..", "BENCH_throughput.json"
        )
        history = load_trajectory(committed)
        assert any(
            run.get("backend") not in (None, "reference", "staged")
            for record in history
            for run in record["runs"]
        )
        new = copy.deepcopy(history[-1])
        new["runs"] = [
            run for run in new["runs"]
            if run.get("backend") in ("reference", "staged")
        ]
        new["backends"] = {
            name: stats for name, stats in new.get("backends", {}).items()
            if name in ("reference", "staged")
        }
        # The oldest records come from a faster host; measure the new one
        # on a host twice as fast as the newest record's so throughput is
        # not what this test checks (speedup ratios are unchanged).
        for run in new["runs"]:
            run["instrs_per_sec"] *= 2
            run["wall_seconds"] /= 2
        new["aggregate"]["instrs_per_sec"] *= 2
        report = check_trajectory(
            history + [new], require_speedups={"staged": 1.8}
        )
        assert report.ok, report.format()

    def test_missing_backend_fails_the_gate(self):
        new = backend_entry({"reference": 100_000.0})
        report = check_trajectory([new], require_speedups={"numpy": 1.5})
        assert not report.ok
        assert report.speedup_failures[0].current == 0.0

    def test_cache_served_runs_do_not_enter_the_gate(self):
        """A run served by the run cache carries the *original*
        simulation's wall-clock (possibly from another backend); its
        speedup ratio is fiction and must be skipped, not averaged."""
        new = backend_entry({"reference": 100_000.0, "staged": 200_000.0})
        phantom = {
            "config": "no",
            "workload": "bench_fp",
            "backend": "staged",
            "instrs_per_sec": 100_000_000.0,
            "cycles": 1_000,
            "instructions": 5_000,
            "wall_seconds": 0.00005,
            "speedup_vs_reference": 1000.0,  # absurd: cached wall-clock
            "from_cache": True,
        }
        new["runs"].append(phantom)
        # Gate at 2.5x: the honest run is 2.0x, so the gate must fail —
        # if the cached 1000x entered the geomean it would pass easily.
        report = check_trajectory([new], require_speedups={"staged": 2.5})
        assert not report.ok
        assert report.speedup_failures[0].current == pytest.approx(2.0)
        # And the honest 2.0x still passes a 1.8x requirement.
        assert check_trajectory([new], require_speedups={"staged": 1.8}).ok

    def test_all_cached_backend_counts_as_missing(self):
        new = backend_entry({"reference": 100_000.0, "staged": 200_000.0})
        for run in new["runs"]:
            if run["backend"] == "staged":
                run["from_cache"] = True
        report = check_trajectory([new], require_speedups={"staged": 1.8})
        assert not report.ok
        assert report.speedup_failures[0].current == 0.0

    def test_cli_require_speedup(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_throughput.json")
        save_trajectory(
            path,
            [backend_entry({"reference": 100_000.0, "staged": 300_000.0})],
        )
        assert main(["bench-check", path, "--require-speedup", "staged:1.8"]) == 0
        assert main(["bench-check", path, "--require-speedup", "staged:9"]) == 1
        assert "SPEEDUP GATE" in capsys.readouterr().out
        assert main(["bench-check", path, "--require-speedup", "bogus"]) == 2
        assert "BACKEND:FACTOR" in capsys.readouterr().err
