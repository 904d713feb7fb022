"""Suite benchmark: one named workload, end to end or by layer.

    python3 perfbench/run.py --workload cvp_cold --seed 0 --seconds 15 --trace 0

Runs repetitions of the workload (each in a fresh interpreter started by
``rep.py``) for ``--seconds``, checks every (config, workload) pair's
signature digest, prints every metric by name with its unit, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see README.md).  The workload seed defaults to the
pinned seed; any other seed has its reference signatures computed
during setup and cached under ``perfbench/.cache``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REP = os.path.join(HERE, "rep.py")
CACHE = os.path.join(HERE, ".cache")
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)
import grid  # noqa: E402  (stdlib-only at import time)
import hostspeed  # noqa: E402

#: Fresh interpreters timed for setup_s.
SETUP_PROBES = 5
#: A run must finish within this many seconds, fixtures included.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "ipc_gain_entangling_4k": "x",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "workloads.build_s": "s",
    "workloads.build_calls": "count",
    "workloads.decode_s": "s",
    "workloads.decode_calls": "count",
    "fetchunits.build_s": "s",
    "fetchunits.calls": "count",
    "fetchunits.units": "count",
    "sim.simulate_s": "s",
    "sim.calls": "count",
    "sim.instrs_per_s": "1/s",
    "sim.cycles": "count",
    "prefetch.host_overhead_s": "s",
    "prefetch.accuracy": "ratio",
    "prefetch.coverage": "ratio",
    "l1i.mpki": "MPKI",
    "store.key_s": "s",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.hits": "count",
    "store.put_s": "s",
    "store.put_calls": "count",
    "store.bytes": "B",
    "dispatch.overhead_s": "s",
    "dispatch.worker_busy_frac": "ratio",
    "report.render_s": "s",
    "obs.events": "count",
    "obs.ledger_bytes": "B",
    "process.import_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_frac": "ratio",
}


class ChildError(RuntimeError):
    pass


def clean_env() -> dict:
    """The parent environment minus every REPRO_* and PYTHON* setting."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("REPRO_", "PYTHON"))
    }
    env.update(PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env


def run_child(args: list, deadline: float) -> dict:
    """Run ``rep.py`` in its own session; return the JSON it printed last.

    On timeout the whole process group (pool workers included) is killed
    and reaped before the error propagates.
    """
    cmd = [sys.executable, "-B", REP] + [str(a) for a in args]
    proc = subprocess.Popen(cmd, env=clean_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{args[0]} timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray grandchildren, if any
        except ProcessLookupError:
            pass
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    """Hash of the program and the fixture-building sources: the cache key."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    files.append(os.path.join(HERE, "grid.py"))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "none (not a git checkout)"


def ensure_fixture(grid_name: str, seed: int, key: str, deadline: float) -> str:
    path = os.path.join(CACHE, f"{key}-{grid_name}-seed{seed}")
    if not os.path.isdir(path):
        os.makedirs(CACHE, exist_ok=True)
        run_child(["fixture", "--grid", grid_name, "--seed", seed, "--fixture", path],
                  deadline)
    return path


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reqs: list, reps: list, setup_s: float) -> dict:
    walls = [r["wall"] for r in reqs]
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8] \
        if len(walls) > 1 else walls[0]
    return {
        "wall_s": median(walls),
        "cpu_s": median([r["cpu"] for r in reqs]),
        "peak_rss_mb": median([rep["rss_mb"] for rep in reps]),
        "requests_per_s": len(walls) / sum(walls),
        "request_p50_ms": 1000.0 * median(walls),
        "request_p90_ms": 1000.0 * p90,
        "ipc_gain_entangling_4k": reps[0]["gain"],
        "setup_s": setup_s,
    }


def per_layer(traced: list, untraced: list, reps: list, import_s: float) -> dict:
    layers = [r["layers"] for r in traced]
    out = {name: median([layer[name] for layer in layers]) for name in layers[0]}
    out.update({
        "prefetch.accuracy": reps[0]["accuracy"],
        "prefetch.coverage": reps[0]["coverage"],
        "l1i.mpki": reps[0]["mpki"],
        "store.bytes": median([rep["store_bytes"] for rep in reps]),
        "obs.events": median([rep.get("events", 0) for rep in reps]),
        "obs.ledger_bytes": median([rep.get("ledger_bytes", 0) for rep in reps]),
        "process.import_s": import_s,
        "trace.overhead_s": median([r["wall"] for r in traced])
        - median([r["wall"] for r in untraced]),
    })
    return out


def measure(args, deadline: float) -> tuple:
    workload = grid.WORKLOADS[args.workload]
    key = source_digest()
    fixture = ensure_fixture(workload.grid, args.seed, key, deadline)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        ready, imports = [], []
        # The probes run pinned to this thread's CPU, so the bursts beside
        # them measure the CPU they run on.
        cpus = os.sched_getaffinity(0)
        hostspeed.pin_here()
        try:
            for _ in range(SETUP_PROBES):
                before = hostspeed.burst()
                spawned = time.monotonic()
                probe = run_child(["probe"], deadline)
                ready.append((probe["ready"] - spawned)
                             * hostspeed.scale([before, hostspeed.burst()]))
                imports.append(probe["import_s"])
        finally:
            os.sched_setaffinity(0, cpus)
        setup_s, import_s = median(ready), median(imports)
        common = ["--workload", args.workload, "--seed", args.seed, "--fixture", fixture]
        traces = None
        if workload.replay:
            staged = run_child(["stage", "--fixture", fixture, "--work", work], deadline)
            setup_s += staged["write_s"]
            traces = staged["traces"]

        reps = []
        if workload.warm:
            reps.append(run_child(
                ["loop", *common, "--work", os.path.join(work, "loop"),
                 "--seconds", args.seconds] + (["--trace"] if args.trace else []),
                deadline))
        else:
            start = time.monotonic()
            i, last = 0, 0.0
            # Start another request while, judged by the last one, it
            # should end within --seconds.  Traced runs alternate untraced
            # and traced requests.
            while i < (2 if args.trace else 1) or (
                time.monotonic() - start + last <= args.seconds
            ):
                began = time.monotonic()
                extra = ["--traces", traces] if traces else []
                if args.trace and i % 2:
                    extra.append("--trace")
                try:
                    reps.append(run_child(
                        ["request", *common, "--work", os.path.join(work, f"rep-{i}"),
                         *extra], deadline))
                except ChildError as exc:
                    reps.append({"requests": [{
                        "wall": None, "traced": "--trace" in extra,
                        "attempted": grid.n_pairs(workload.grid),
                        "failed": grid.n_pairs(workload.grid), "errors": [str(exc)],
                    }]})
                last = time.monotonic() - began
                i += 1
        return reps, setup_s, import_s
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(grid.WORKLOADS))
    parser.add_argument("--seed", type=int, default=grid.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: the program's sources ({SRC}/repro) are missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    load_before = os.getloadavg()
    reps, setup_s, import_s = measure(args, deadline)

    reqs = [r for rep in reps for r in rep["requests"]]
    reps = [rep for rep in reps if "gain" in rep]
    ok = [r for r in reqs if r["wall"] is not None]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    attempted = sum(r["attempted"] for r in reqs)
    failed = sum(r["failed"] for r in reqs)
    for r in reqs:
        for error in r["errors"]:
            print(f"# FAILED {error}")
    if not reps or not untraced or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        metrics = per_layer(traced, untraced, reps, import_s)
    else:
        metrics = end_to_end(untraced, reps, setup_s)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# python {platform.python_version()} nproc {os.cpu_count()} "
          f"commit {commit()} source {source_digest()} "
          f"loadavg {load_before[0]:.2f} -> {os.getloadavg()[0]:.2f}")
    print(f"# requests {len(untraced)} untraced, {len(traced)} traced; "
          f"pairs checked {attempted}, failed {failed}, "
          f"error_rate {failed / attempted if attempted else 1.0:.4f}")
    if untraced:
        print(f"# as measured: wall_s {median([r['raw_wall'] for r in untraced]):.6g} "
              f"cpu_s {median([r['raw_cpu'] for r in untraced]):.6g}; "
              f"host scale {median([r['scale'] for r in untraced]):.4f} "
              f"(reference seconds per measured second)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
