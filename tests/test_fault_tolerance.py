"""Fault-tolerance tests for the resilient evaluation engine.

The contract under test: with worker faults injected (crash, hang,
corrupt result, pool-killing exit), ``run_suite`` still returns a
complete — or explicitly partial — ``EvaluationResult`` whose stats are
bit-identical to a clean serial run, and an interrupted evaluation
rerun on the same disk run store re-simulates only missing pairs.

Fault injection is driven by ``REPRO_FAULT_INJECT=mode:fraction[:scope]``
(see :class:`repro.analysis.parallel.FaultInjector`); victims are chosen
by hashing the task label, so every process and attempt agrees on them.
"""

import pytest

from repro.analysis.experiments import run_suite
from repro.analysis.parallel import (
    FaultInjector,
    RetryPolicy,
    map_resilient,
)
from repro.analysis.reporting import format_timing_table
from repro.analysis.runcache import RunCache
from repro.workloads.generators import WorkloadSpec

SMALL_SUITE = [
    WorkloadSpec(name="ft_int", category="int", seed=21, n_instructions=12_000),
    WorkloadSpec(name="ft_srv", category="srv", seed=22, n_instructions=12_000),
]
CONFIGS = ["next_line"]
#: (config, workload) pairs run_suite evaluates (includes the "no" baseline).
ALL_PAIRS = [
    (config, spec.name)
    for config in ["no"] + CONFIGS
    for spec in SMALL_SUITE
]

FAST_BACKOFF = RetryPolicy(retries=2, timeout=None, backoff_base=0.01)


@pytest.fixture(scope="module")
def clean_eval():
    return run_suite(SMALL_SUITE, CONFIGS, jobs=1, cache=None)


def assert_identical(evaluation, reference):
    assert list(evaluation.runs) == list(reference.runs)
    for config in reference.runs:
        assert list(evaluation.runs[config]) == list(reference.runs[config])
        for workload in reference.runs[config]:
            assert (
                evaluation.runs[config][workload].stats.signature()
                == reference.runs[config][workload].stats.signature()
            ), (config, workload)


class TestFaultInjection:
    def test_crash_20_percent_first_attempt(self, monkeypatch, clean_eval):
        """The acceptance scenario: 20% of pairs crash on attempt 0."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0.2")
        evaluation = run_suite(
            SMALL_SUITE, CONFIGS, jobs=2, cache=None,
            retry_policy=FAST_BACKOFF,
        )
        assert evaluation.is_complete()
        assert_identical(evaluation, clean_eval)
        injector = FaultInjector.from_env()
        victims = [
            f"{config}/{workload}"
            for config, workload in ALL_PAIRS
            if injector.selects(f"{config}/{workload}")
        ]
        assert evaluation.faults.task_errors == len(victims)
        assert evaluation.faults.retries == len(victims)

    def test_crash_every_pair_retried_to_success(self, monkeypatch, clean_eval):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0")
        evaluation = run_suite(
            SMALL_SUITE, CONFIGS, jobs=2, cache=None,
            retry_policy=FAST_BACKOFF,
        )
        assert evaluation.is_complete()
        assert_identical(evaluation, clean_eval)
        assert evaluation.faults.task_errors == len(ALL_PAIRS)
        assert len(evaluation.faults.quarantined) == 0
        # retried runs record their attempt count as telemetry
        assert all(
            evaluation.runs[c][w].stats.attempts == 2 for c, w in ALL_PAIRS
        )

    def test_corrupt_results_rejected_and_retried(self, monkeypatch, clean_eval):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "corrupt:1.0")
        evaluation = run_suite(
            SMALL_SUITE, CONFIGS, jobs=2, cache=None,
            retry_policy=FAST_BACKOFF,
        )
        assert evaluation.is_complete()
        assert_identical(evaluation, clean_eval)
        assert evaluation.faults.invalid_results == len(ALL_PAIRS)

    def test_hung_worker_times_out_and_retries(self, monkeypatch, clean_eval):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang:1.0")
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "3")
        evaluation = run_suite(
            SMALL_SUITE, CONFIGS, jobs=2, cache=None,
            retry_policy=RetryPolicy(retries=2, timeout=0.5, backoff_base=0.01),
        )
        assert evaluation.is_complete()
        assert_identical(evaluation, clean_eval)
        assert evaluation.faults.timeouts >= 1

    def test_broken_pool_degrades_to_serial(self, monkeypatch, clean_eval):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "exit:1.0")
        evaluation = run_suite(
            SMALL_SUITE, CONFIGS, jobs=2, cache=None,
            retry_policy=FAST_BACKOFF,
        )
        assert evaluation.is_complete()
        assert_identical(evaluation, clean_eval)
        assert evaluation.faults.pool_breaks >= 1
        assert evaluation.faults.serial_fallback

    def test_persistent_failures_quarantined_not_fatal(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0:all")
        evaluation = run_suite(
            SMALL_SUITE, CONFIGS, jobs=2, cache=None,
            retry_policy=RetryPolicy(retries=1, backoff_base=0.01),
        )
        assert not evaluation.is_complete()
        assert sorted(evaluation.missing_pairs()) == sorted(ALL_PAIRS)
        assert len(evaluation.faults.quarantined) == len(ALL_PAIRS)
        for failure in evaluation.faults.quarantined:
            assert failure.attempts == 2
            assert "injected crash" in failure.error

    def test_injection_selection_is_deterministic(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0.5")
        injector = FaultInjector.from_env()
        labels = [f"{c}/{w}" for c, w in ALL_PAIRS]
        assert [injector.selects(l) for l in labels] == [
            injector.selects(l) for l in labels
        ]
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0.0")
        assert not any(
            FaultInjector.from_env().selects(l) for l in labels
        )
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0")
        assert all(FaultInjector.from_env().selects(l) for l in labels)

    def test_bad_injection_spec_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "meltdown:1.0")
        with pytest.raises(ValueError, match="REPRO_FAULT_INJECT"):
            FaultInjector.from_env()
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0:sometimes")
        with pytest.raises(ValueError, match="scope"):
            FaultInjector.from_env()


class TestRetryPolicy:
    def test_policy_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "12.5")
        policy = RetryPolicy.from_env()
        assert policy.retries == 5
        assert policy.timeout == 12.5

    def test_policy_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        policy = RetryPolicy.from_env()
        assert policy.retries == 2
        assert policy.timeout is None

    def test_bad_env_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "lots")
        with pytest.raises(ValueError, match="REPRO_TASK_RETRIES"):
            RetryPolicy.from_env()
        monkeypatch.delenv("REPRO_TASK_RETRIES")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_TASK_TIMEOUT"):
            RetryPolicy.from_env()

    def test_backoff_caps(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_cap=2.0)
        assert policy.backoff(1) == 0.5
        assert policy.backoff(2) == 1.0
        assert policy.backoff(3) == 2.0
        assert policy.backoff(10) == 2.0


def _flaky_square(task, attempt, in_process=False):
    if task % 2 and attempt == 0:
        raise RuntimeError("first-attempt failure")
    return task * task


class TestMapResilient:
    def test_serial_retries(self):
        outcome = map_resilient(
            _flaky_square, [1, 2, 3], ["a", "b", "c"], jobs=1,
            policy=RetryPolicy(retries=1, backoff_base=0.0),
        )
        assert outcome.results == [1, 4, 9]
        assert outcome.attempts == [2, 1, 2]
        assert outcome.report.task_errors == 2

    def test_serial_quarantine(self):
        outcome = map_resilient(
            lambda t, a, in_process=False: 1 / 0, [1], ["boom"], jobs=1,
            policy=RetryPolicy(retries=1, backoff_base=0.0),
        )
        assert outcome.results == [None]
        assert len(outcome.report.quarantined) == 1
        assert "ZeroDivisionError" in outcome.report.quarantined[0].error

    def test_validator_rejections_counted(self):
        outcome = map_resilient(
            lambda t, a, in_process=False: t, [1, 2], ["x", "y"], jobs=1,
            policy=RetryPolicy(retries=0, backoff_base=0.0),
            validate=lambda r: r != 2,
        )
        assert outcome.results == [1, None]
        assert outcome.report.invalid_results == 1


class TestCheckpointResume:
    """Resume is the run store's job: a pair is finished exactly when its
    entry is published, so a rerun on the same disk dir serves it."""

    def test_interrupted_run_resumes_only_missing_pairs(self, tmp_path):
        """The acceptance scenario: interrupt, rerun, re-simulate only
        the pairs the first run never finished."""
        cache_dir = str(tmp_path / "cache")

        # "Interrupted" first run: only the baseline config completed.
        cache = RunCache(disk_dir=cache_dir)
        partial = run_suite(
            SMALL_SUITE, [], include_baseline=True, jobs=1, cache=cache,
        )
        assert partial.is_complete()
        done_first = cache.stores
        assert done_first == len(SMALL_SUITE)  # the "no" pairs

        # Rerun with the full config set: a fresh process builds a fresh
        # cache object over the same disk entries.
        cache2 = RunCache(disk_dir=cache_dir)
        full = run_suite(SMALL_SUITE, CONFIGS, jobs=1, cache=cache2)
        assert full.is_complete()
        # only the missing (next_line, *) pairs re-simulated ...
        assert cache2.stores == len(SMALL_SUITE) * len(CONFIGS)
        # ... and every finished pair was served from disk.
        assert cache2.disk_hits == done_first

        # A third run finds everything published: zero new simulations.
        cache3 = RunCache(disk_dir=cache_dir)
        again = run_suite(SMALL_SUITE, CONFIGS, jobs=1, cache=cache3)
        assert again.is_complete()
        assert cache3.stores == 0
        assert cache3.disk_hits == len(ALL_PAIRS)

    def test_checkpointed_results_identical_to_clean_run(
        self, tmp_path, clean_eval
    ):
        # Half the pairs come back from disk, half are simulated by
        # workers: the merged evaluation must equal a clean serial run.
        cache_dir = str(tmp_path / "cache")
        run_suite(SMALL_SUITE, [], jobs=1, cache=RunCache(disk_dir=cache_dir))
        cache = RunCache(disk_dir=cache_dir)
        evaluation = run_suite(SMALL_SUITE, CONFIGS, jobs=2, cache=cache)
        assert cache.disk_hits == len(SMALL_SUITE)
        assert_identical(evaluation, clean_eval)

    def test_checkpoint_keyword_accepts_only_none(self, tmp_path):
        with pytest.raises(TypeError, match="RunCache"):
            run_suite(
                SMALL_SUITE, CONFIGS, jobs=1, cache=None,
                checkpoint=str(tmp_path / "checkpoint.json"),
            )


class TestFaultReporting:
    def test_timing_table_includes_fault_summary(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0")
        evaluation = run_suite(
            SMALL_SUITE[:1], CONFIGS, jobs=2, cache=None,
            retry_policy=FAST_BACKOFF,
        )
        text = format_timing_table(
            evaluation.timing_entries(), faults=evaluation.faults
        )
        assert "tries" in text
        assert "faults:" in text
        assert "2 retries" in text

    def test_clean_run_renders_no_fault_footer(self, clean_eval):
        text = format_timing_table(clean_eval.timing_entries())
        assert "faults:" not in text
