"""Tests for the multi-objective configuration tuner (``repro tune``).

Three guarantees matter most and are asserted end-to-end on tiny
workloads: seeded searches are bit-reproducible, a rerun on the same disk
cache serves every previously finished genome without re-simulating,
and the emitted front is mutually nondominated.
"""

import pytest

from repro.analysis.pareto import dominates
from repro.analysis.runcache import RunCache
from repro.analysis.tune import (
    DEFAULT_SPACE,
    GeneticTuner,
    GridTuner,
    RandomTuner,
    TunableParam,
    genome_configs,
    genome_name,
    make_tuner,
    split_suite,
)
from repro.check.errors import ConfigError
from repro.sim.config import SimConfig
from repro.workloads.generators import WorkloadSpec

TINY = [
    WorkloadSpec(name="tn_srv", category="srv", seed=3, n_instructions=12_000),
    WorkloadSpec(name="tn_int", category="int", seed=5, n_instructions=12_000),
]

#: Small space so grid/genetic tests stay fast while still exercising
#: both parameter kinds (entangling + sim).
SMALL_SPACE = (
    TunableParam("entries", "entangling", (1024, 4096)),
    TunableParam("history_size", "entangling", (8, 16)),
    TunableParam("prefetch_queue_size", "sim", (16, 32)),
)


class TestGenomeName:
    def test_stable_and_prefixed(self):
        genome = {"entries": 2048, "allowed_modes": (1, 2, 3, 4)}
        name = genome_name(genome)
        assert name.startswith("tuned:")
        assert len(name) == len("tuned:") + 16
        assert genome_name(genome) == name

    def test_key_order_irrelevant(self):
        a = genome_name({"entries": 2048, "ways": 8})
        b = genome_name({"ways": 8, "entries": 2048})
        assert a == b

    def test_tuple_and_list_values_agree(self):
        # JSON has no tuples; both spellings must hash identically or a
        # resumed search (JSON round-trip) would rename every genome.
        a = genome_name({"allowed_modes": (1, 3, 6)})
        b = genome_name({"allowed_modes": [1, 3, 6]})
        assert a == b

    def test_distinct_genomes_distinct_names(self):
        assert genome_name({"entries": 1024}) != genome_name({"entries": 2048})


class TestGenomeConfigs:
    def test_split_by_kind(self):
        ent, sim = genome_configs(
            {"entries": 4096, "prefetch_queue_size": 64},
            SimConfig(),
        )
        assert ent.entries == 4096
        assert sim.prefetch_queue_size == 64

    def test_pq_and_mshr_mirrored_into_entangling(self):
        ent, sim = genome_configs(
            {"prefetch_queue_size": 64, "l1i_mshrs": 16}, SimConfig()
        )
        assert ent.pq_entries == sim.prefetch_queue_size == 64
        assert ent.mshr_entries == sim.l1i_mshrs == 16

    def test_unset_params_keep_defaults(self):
        default = SimConfig()
        ent, sim = genome_configs({"entries": 1024}, default)
        assert sim.l1i_mshrs == default.l1i_mshrs
        assert ent.history_size == type(ent)().history_size

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="not in the space"):
            genome_configs({"flux_capacitor": 1}, SimConfig())

    def test_invalid_combination_rejected(self):
        space = (TunableParam("entries", "entangling", (999,)),)
        with pytest.raises(ConfigError):
            genome_configs({"entries": 999}, SimConfig(), space)


class TestSplitSuite:
    def _suite(self, n):
        return [
            WorkloadSpec(
                name=f"w{i:02d}", category="srv", seed=i, n_instructions=1_000
            )
            for i in range(n)
        ]

    def test_deterministic_and_order_independent(self):
        suite = self._suite(8)
        a = split_suite(suite, 0.75, seed=7)
        b = split_suite(list(reversed(suite)), 0.75, seed=7)
        assert [s.name for s in a[0]] == [s.name for s in b[0]]
        assert [s.name for s in a[1]] == [s.name for s in b[1]]

    def test_partition_covers_suite(self):
        suite = self._suite(8)
        train, test = split_suite(suite, 0.75, seed=0)
        assert len(train) == 6 and len(test) == 2
        assert sorted(s.name for s in train + test) == [
            s.name for s in suite
        ]

    def test_different_seeds_differ(self):
        suite = self._suite(10)
        names = {
            tuple(s.name for s in split_suite(suite, 0.5, seed)[0])
            for seed in range(6)
        }
        assert len(names) > 1

    def test_full_fraction_tests_in_sample(self):
        suite = self._suite(4)
        train, test = split_suite(suite, 1.0, seed=0)
        assert [s.name for s in train] == [s.name for s in test]

    def test_single_workload_tests_in_sample(self):
        suite = self._suite(1)
        train, test = split_suite(suite, 0.75, seed=0)
        assert train == test
        assert len(train) == 1

    def test_train_side_never_empty(self):
        suite = self._suite(2)
        train, _test = split_suite(suite, 0.01, seed=0)
        assert len(train) >= 1


class TestTunerEvaluation:
    def test_grid_covers_the_whole_space(self):
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=SMALL_SPACE,
            seed=1, train_fraction=1.0,
        )
        result = tuner.search()
        assert result.evaluated == 2 * 2 * 2
        assert result.front, "a full grid always yields a front"

    def test_grid_max_evals_truncates(self):
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=SMALL_SPACE,
            seed=1, train_fraction=1.0, max_evals=3,
        )
        assert tuner.search().evaluated == 3

    def test_duplicate_genomes_share_one_evaluation(self):
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=SMALL_SPACE,
            seed=1, train_fraction=1.0,
        )
        genome = {"entries": 1024, "history_size": 8}
        first, second = tuner.evaluate([genome, dict(genome)])
        assert first is second

    def test_invalid_genome_counted_not_fatal(self):
        space = SMALL_SPACE + (
            TunableParam("ways", "entangling", (8, 3)),  # 3 : not a power of two
        )
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=space,
            seed=1, train_fraction=1.0,
        )
        good = {"entries": 1024, "history_size": 8, "ways": 8}
        bad = {"entries": 1024, "history_size": 8, "ways": 3}
        results = tuner.evaluate([good, bad])
        assert results[0] is not None
        assert results[1] is None
        assert tuner.invalid == 1

    def test_storage_objective_tracks_entries(self):
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=SMALL_SPACE,
            seed=1, train_fraction=1.0,
        )
        small, large = tuner.evaluate(
            [
                {"entries": 1024, "history_size": 8},
                {"entries": 4096, "history_size": 8},
            ]
        )
        assert 0 < small.storage_bits < large.storage_bits


class TestDeterminism:
    def test_same_seed_same_front(self):
        fronts = []
        for _ in range(2):
            tuner = GeneticTuner(
                TINY, space=SMALL_SPACE, seed=7, train_fraction=1.0,
                cache=RunCache(), population=4, generations=2,
            )
            result = tuner.search()
            fronts.append(
                [(r.name, sorted(r.genome.items()), r.speedup, r.energy,
                  r.storage_bits) for r in result.front]
            )
        assert fronts[0] == fronts[1]

    def test_different_seeds_explore_differently(self):
        evaluated = set()
        for seed in (1, 2, 3):
            tuner = RandomTuner(
                TINY, space=SMALL_SPACE, seed=seed, train_fraction=1.0,
                cache=RunCache(), samples=4,
            )
            tuner._search()
            evaluated.add(tuple(sorted(tuner._results)))
        assert len(evaluated) > 1


class TestFrontQuality:
    def test_genetic_front_mutually_nondominated(self):
        tuner = GeneticTuner(
            TINY, space=SMALL_SPACE, seed=7, train_fraction=1.0,
            cache=RunCache(), population=4, generations=2,
        )
        result = tuner.search()
        assert len(result.front) >= 1
        vectors = [
            r.objective_vector(result.objectives) for r in result.front
        ]
        for a in vectors:
            for b in vectors:
                assert not dominates(a, b)
        # Front points carry held-out scores; here test == train.
        assert all(r.test_speedup is not None for r in result.front)

    def test_nothing_evaluated_dominates_the_front(self):
        tuner = GridTuner(
            TINY, objectives=("ipc", "storage"), space=SMALL_SPACE,
            seed=1, train_fraction=1.0,
        )
        result = tuner.search()
        front_vectors = [
            r.objective_vector(result.objectives) for r in result.front
        ]
        for scored in tuner._results.values():
            vector = scored.objective_vector(result.objectives)
            assert not any(dominates(vector, f) for f in front_vectors)


class _Killed(BaseException):
    """Stands in for SIGKILL: escapes every ``except Exception``."""


class _DyingCache(RunCache):
    """A disk-backed cache whose process "dies" before publishing the
    ``limit + 1``-th result."""

    def __init__(self, disk_dir, limit):
        super().__init__(disk_dir=disk_dir)
        self.limit = limit

    def put(self, key, result, **kwargs):
        if self.stores >= self.limit:
            raise _Killed()
        super().put(key, result, **kwargs)


class TestResume:
    """The disk run store is the only record of finished runs: a rerun on
    the same dir serves every published genome, re-simulating none."""

    @staticmethod
    def _search(cache):
        tuner = GeneticTuner(
            TINY, space=SMALL_SPACE, seed=7, train_fraction=1.0,
            cache=cache, population=4, generations=2,
        )
        return tuner.search()

    def test_second_run_resimulates_nothing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cache1 = RunCache(disk_dir=cache_dir)
        first = self._search(cache1)
        assert cache1.stores > 0

        cache2 = RunCache(disk_dir=cache_dir)
        second = self._search(cache2)
        assert cache2.stores == 0, "a rerun must not re-simulate"
        assert cache2.disk_hits == cache1.stores

        key = lambda r: (r.name, r.speedup, r.energy, r.storage_bits)
        assert [key(r) for r in first.front] == [key(r) for r in second.front]

    def test_killed_search_resimulates_only_missing_pairs(self, tmp_path):
        total = RunCache(disk_dir=str(tmp_path / "reference"))
        self._search(total)
        assert total.stores >= 4

        cache_dir = str(tmp_path / "cache")
        dying = _DyingCache(cache_dir, limit=total.stores // 2)
        with pytest.raises(_Killed):
            self._search(dying)
        done_first = dying.stores
        assert done_first == total.stores // 2

        rerun = RunCache(disk_dir=cache_dir)
        self._search(rerun)
        assert rerun.stores == total.stores - done_first
        assert rerun.disk_hits == done_first

        third = RunCache(disk_dir=cache_dir)
        self._search(third)
        assert third.stores == 0
        assert third.disk_hits == total.stores


class TestMakeTuner:
    def test_known_strategies(self):
        for strategy, cls in (
            ("grid", GridTuner),
            ("random", RandomTuner),
            ("genetic", GeneticTuner),
        ):
            tuner = make_tuner(strategy, TINY, space=SMALL_SPACE)
            assert isinstance(tuner, cls)
            assert tuner.strategy == strategy

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_tuner("simulated-annealing", TINY)

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objectives"):
            make_tuner("grid", TINY, objectives=("ipc", "latency"))

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError, match="at least one workload"):
            make_tuner("grid", [])


class TestDefaultSpace:
    def test_covers_both_kinds(self):
        kinds = {param.kind for param in DEFAULT_SPACE}
        assert kinds == {"entangling", "sim"}

    def test_every_param_has_choices(self):
        for param in DEFAULT_SPACE:
            assert len(param.values) >= 2, param.name

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TunableParam("entries", "quantum", (1,))
        with pytest.raises(ValueError):
            TunableParam("entries", "entangling", ())
