"""Regenerate data/signatures.json: the pinned digests of the default seed.

The digests come from the reference engine on traces generated in memory.
They are written only if the staged engine reproduces every one of them,
both on the in-memory traces and on the microservice traces replayed
from ``.trc`` files.  Run from the repository root:

    PYTHONPATH=src python3 -B perfbench/pin_signatures.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    import grid
    from repro.workloads.generators import make_workload
    from repro.workloads.trace import write_trace

    seed = grid.PINNED_SEED
    inputs = {"cvp": grid.cvp_specs(seed), "msvc": grid.msvc_generator_specs(seed)}
    pinned = {}
    for name, specs in inputs.items():
        reference = grid.signatures(grid.run_grid(
            specs, name, 2, None, backend=grid.REFERENCE_BACKEND))
        staged = grid.signatures(grid.run_grid(specs, name, 2, None))
        if len(reference) != grid.n_pairs(name) or staged != reference:
            print(f"{name}: staged signatures differ from the reference engine",
                  file=sys.stderr)
            return 1
        pinned[name] = reference
    with tempfile.TemporaryDirectory() as tmp:
        for spec in inputs["msvc"]:
            write_trace(make_workload(spec), grid.trace_path(tmp, spec.name))
        replayed = grid.signatures(grid.run_grid(grid.replay_specs(tmp), "msvc", 2, None))
    if replayed != pinned["msvc"]:
        print("msvc: replayed .trc signatures differ from the generated traces",
              file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "data", "signatures.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {sum(len(v) for v in pinned.values())} signatures for seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
