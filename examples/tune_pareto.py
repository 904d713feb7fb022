#!/usr/bin/env python3
"""Search the Entangling design space and print the Pareto front.

The paper fixes one design point per storage budget (Entangling-2K/4K/8K,
Figure 6); this driver searches the joint knob space instead — table
geometry, history size, merge distance, confidence-counter width,
compression-mode whitelist, and PQ/MSHR sizing — scoring every candidate
on geomean normalized IPC, storage bits, and normalized energy at once,
and reports the nondominated frontier.

The search is deterministic in ``--seed`` (equal seeds reproduce the
front bit-for-bit) and resumable: with ``--cache-dir`` every simulation
persists to a disk run store, so a killed search rerun with the same
``--cache-dir`` re-simulates only what never finished.

Usage::

    python examples/tune_pareto.py [--strategy genetic|random|grid]
        [--population N] [--generations N] [--objectives ipc,storage,energy]
        [--per-category N] [--instructions N] [--seed N] [--jobs N]
        [--cache-dir DIR] [--out PREFIX]
"""

import argparse
import json
import sys

from repro.analysis.export import export_pareto_csv
from repro.analysis.runcache import RunCache
from repro.analysis.tune import OBJECTIVES, make_tuner
from repro.check.artifacts import atomic_write_text
from repro.workloads import cvp_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--strategy", default="genetic",
                        choices=("genetic", "random", "grid"))
    parser.add_argument("--population", type=int, default=12)
    parser.add_argument("--generations", type=int, default=4)
    parser.add_argument("--objectives", default="ipc,storage,energy",
                        help=f"comma-separated; available: "
                             f"{', '.join(sorted(OBJECTIVES))}")
    parser.add_argument("--per-category", type=int, default=1)
    parser.add_argument("--instructions", type=int, default=None)
    parser.add_argument("--train-fraction", type=float, default=0.75)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for simulation fan-out")
    parser.add_argument("--cache-dir", default=None,
                        help="persist results here (resumable)")
    parser.add_argument("--out", default=None, metavar="PREFIX",
                        help="write the front to PREFIX.json / PREFIX.csv")
    args = parser.parse_args()

    suite = cvp_suite(per_category=args.per_category,
                      n_instructions=args.instructions)
    cache = RunCache(disk_dir=args.cache_dir)

    kwargs = {}
    if args.strategy == "genetic":
        kwargs = dict(population=args.population,
                      generations=args.generations)
    elif args.strategy == "random":
        kwargs = dict(samples=args.population * args.generations)
    tuner = make_tuner(
        args.strategy, suite,
        objectives=[o.strip() for o in args.objectives.split(",") if o.strip()],
        seed=args.seed, train_fraction=args.train_fraction,
        cache=cache, jobs=args.jobs, **kwargs,
    )
    print(f"searching with {args.strategy} (seed {args.seed}) over "
          f"{len(tuner.train)} training / {len(tuner.test)} held-out "
          f"workloads...")
    result = tuner.search()

    print()
    print(result.render())
    print(result.cache_line)

    if args.out:
        atomic_write_text(args.out + ".json",
                          json.dumps(result.to_dict(), indent=2) + "\n")
        export_pareto_csv(result, args.out + ".csv")
        print(f"front written to {args.out}.json / {args.out}.csv",
              file=sys.stderr)
    return 0 if result.front else 1


if __name__ == "__main__":
    sys.exit(main())
