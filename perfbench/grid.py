"""The suite benchmark's workloads: which traces, which prefetchers, how run.

Everything here is the benchmark's own definition of a workload.  The
program under test is reached only through its public functions
(``make_workload``, ``file_workload_spec``, ``run_suite``, ``RunCache``,
``format_table``), imported lazily so that ``run.py`` can read the
workload table without importing the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, List, NamedTuple, Sequence, Tuple

#: Seed whose reference-engine signatures are pinned in data/signatures.json.
PINNED_SEED = 0
#: Simulator engine every timed run uses (set explicitly, never from the env).
BACKEND = "staged"
#: Engine that produces the signatures a timed run is checked against.
REFERENCE_BACKEND = "reference"

CVP_CATEGORIES = ("crypto", "int", "fp", "srv")
CVP_INSTRUCTIONS = 100_000
CVP_CONFIGS = (
    "no", "next_line", "mana_4k", "djolt", "entangling_2k", "entangling_4k",
)

#: (suite workload name, benchmark name) of the microservice traces replayed.
MSVC_WORKLOADS = (
    ("msvc_social_00", "msvc_social"),
    ("msvc_mix2_00", "msvc_mix2"),
    ("msvc_mix4_02", "msvc_mix4"),
)
MSVC_INSTRUCTIONS = 200_000
MSVC_CONFIGS = ("no", "next_line", "entangling_4k")

#: Configuration whose geomean normalized IPC is the headline result.
HEADLINE_CONFIG = "entangling_4k"


class Workload(NamedTuple):
    grid: str          # "cvp" or "msvc"
    jobs: int          # worker processes passed to run_suite
    events: bool       # event ledger on
    warm: bool         # served from a store filled during setup
    replay: bool       # traces loaded from .trc files via file_workload_spec


WORKLOADS: Dict[str, Workload] = {
    "cvp_cold": Workload("cvp", 1, False, False, False),
    "cvp_cold_jobs2": Workload("cvp", 2, True, False, False),
    "cvp_warm": Workload("cvp", 1, False, True, False),
    "msvc_replay": Workload("msvc", 1, False, False, True),
}


def configs(grid: str) -> Tuple[str, ...]:
    return CVP_CONFIGS if grid == "cvp" else MSVC_CONFIGS


def n_pairs(grid: str) -> int:
    n_workloads = len(CVP_CATEGORIES) if grid == "cvp" else len(MSVC_WORKLOADS)
    return n_workloads * len(configs(grid))


def cvp_specs(seed: int) -> List:
    """One CVP-like workload per category; ``seed`` shifts every program."""
    from repro.workloads.generators import WorkloadSpec

    return [
        WorkloadSpec(
            name=f"{category}_00",
            category=category,
            seed=1000 * (i + 1) + seed,
            n_instructions=CVP_INSTRUCTIONS,
        )
        for i, category in enumerate(CVP_CATEGORIES)
    ]


def msvc_generator_specs(seed: int) -> List:
    """The microservice suite's social, 2-way and 4-way mix workloads,
    renamed and with ``seed`` added to each generator seed."""
    from repro.workloads.microservice import microservice_suite

    by_name = {
        spec.name: spec
        for spec in microservice_suite(n_instructions=MSVC_INSTRUCTIONS)
    }
    return [
        dataclasses.replace(by_name[source], name=name, seed=by_name[source].seed + seed)
        for source, name in MSVC_WORKLOADS
    ]


def trace_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}.trc")


def replay_specs(directory: str) -> List:
    """Specs for the microservice traces written under ``directory``."""
    from repro.workloads import importers

    return [
        importers.file_workload_spec(trace_path(directory, name), name=name)
        for _source, name in MSVC_WORKLOADS
    ]


def run_grid(specs: Sequence, grid: str, jobs: int, cache, events_path=None,
             backend: str = BACKEND):
    """One suite evaluation, every argument explicit."""
    from repro.analysis import run_suite
    from repro.sim.config import SimConfig

    return run_suite(
        specs,
        configs(grid),
        base_config=SimConfig(backend=backend),
        jobs=jobs,
        cache=cache,
        checkpoint=None,
        progress=False,
        events_path=events_path,
    )


def render(evaluation, grid: str) -> str:
    """The geomean normalized-IPC table a user of the grid reads."""
    from repro.analysis import reporting

    workloads = evaluation.workloads()
    rows = []
    for name in configs(grid):
        per = evaluation.normalized_ipc(name)
        rows.append(
            [name, evaluation.geomean_speedup(name)]
            + [per.get(w, 0.0) for w in workloads]
        )
    return reporting.format_table(["config", "geomean"] + workloads, rows)


def digest(stats) -> str:
    """Fingerprint of a run's architectural counters (``signature()``)."""
    text = json.dumps(stats.signature(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def signatures(evaluation) -> Dict[str, str]:
    return {
        f"{config}/{workload}": digest(result.stats)
        for config, per in evaluation.runs.items()
        for workload, result in per.items()
    }


def check(evaluation, expected: Dict[str, str]) -> List[str]:
    """Every expected pair must be present with its pinned digest.

    Returns one message per failed pair (missing, quarantined or
    mismatched); an empty list means the evaluation is correct.
    """
    got = signatures(evaluation)
    errors = []
    for key, want in sorted(expected.items()):
        have = got.get(key)
        if have is None:
            errors.append(f"{key}: missing (quarantined or not run)")
        elif have != want:
            errors.append(f"{key}: signature {have} != expected {want}")
    return errors
