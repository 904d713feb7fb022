"""One repetition of the suite benchmark, in a fresh interpreter.

``run.py`` starts this script once per repetition with a scrubbed
environment and reads the JSON object it prints last.  Modes:

* ``probe``   — import the program's public API; report how long it took.
* ``fixture`` — build one seed's inputs: microservice ``.trc`` files, a
  filled store for the warm workload, and (for a seed whose signatures
  are not pinned) the reference engine's signature digests.
* ``stage``   — write the microservice traces for one run, timed.
* ``request`` — one cold suite evaluation (cvp_cold, cvp_cold_jobs2,
  msvc_replay).
* ``loop``    — the cvp_warm closed loop: one client, back-to-back
  requests against a filled store, for ``--seconds``.

With ``--trace`` the layer wrappers of :mod:`tracing` are installed
before the first request; without it the program runs untouched.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
SIGNATURES = os.path.join(HERE, "data", "signatures.json")
#: Times the microservice traces are written during setup (median reported).
STAGE_WRITES = 3


def import_program() -> float:
    """Import the public API every mode uses; returns the seconds spent."""
    start = time.perf_counter()
    import repro.analysis  # noqa: F401
    import repro.sim.config  # noqa: F401
    import repro.workloads.importers  # noqa: F401
    import repro.workloads.microservice  # noqa: F401
    return time.perf_counter() - start


def pinned(grid_name: str):
    with open(SIGNATURES, encoding="utf-8") as fh:
        return json.load(fh)[grid_name]


def expected_digests(grid_name: str, seed: int, fixture: str):
    import grid

    if seed == grid.PINNED_SEED:
        return pinned(grid_name)
    with open(os.path.join(fixture, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def cpu_now() -> float:
    """CPU seconds of this process (ns clock) plus its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class ChildPeaks(threading.Thread):
    """Peak resident set (VmHWM) of every direct child, sampled from /proc."""

    def __init__(self, interval: float = 0.05) -> None:
        super().__init__(daemon=True)
        self.interval = interval
        self.peaks_kb = {}
        self._stop_event = threading.Event()

    def run(self) -> None:
        me = str(os.getpid())
        while not self._stop_event.wait(self.interval):
            for pid in os.listdir("/proc"):
                if not pid.isdigit():
                    continue
                try:
                    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                        ppid = fh.read().rsplit(")", 1)[1].split()[1]
                    if ppid != me:
                        continue
                    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                        for line in fh:
                            if line.startswith("VmHWM:"):
                                kb = int(line.split()[1])
                                self.peaks_kb[pid] = max(kb, self.peaks_kb.get(pid, 0))
                except (OSError, IndexError, ValueError):
                    continue

    def stop(self) -> int:
        self._stop_event.set()
        self.join()
        return sum(self.peaks_kb.values())


def peak_rss_mb(children_kb: int = 0) -> float:
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + children_kb) / 1024.0


def modelled(evaluation) -> dict:
    """Simulated (host-independent) results of one evaluation."""
    import grid

    head = grid.HEADLINE_CONFIG
    accuracy = list(evaluation.accuracy(head).values())
    coverage = list(evaluation.coverage(head).values())
    baseline = evaluation.runs.get("no", {})
    mpki = [r.stats.l1i_mpki for r in baseline.values()]
    return {
        "gain": evaluation.geomean_speedup(head),
        "accuracy": statistics.fmean(accuracy) if accuracy else 0.0,
        "coverage": statistics.fmean(coverage) if coverage else 0.0,
        "mpki": statistics.fmean(mpki) if mpki else 0.0,
    }


def one_request(workload, specs_for, cache_for, jobs_events, tracer, sample=True):
    """Time one suite evaluation plus its table; returns (record, evaluation).

    With ``sample``, :mod:`hostspeed` samplers run beside the request (a
    jobs=1 request is first pinned to its CPU) and their bursts set the
    record's ``scale``.  The record's ``wall`` and ``cpu`` are then in
    reference seconds; ``raw_wall`` and ``raw_cpu`` are as measured, the
    samplers' own CPU time left out of ``raw_cpu``.
    """
    import grid
    import hostspeed

    samplers = hostspeed.start_samplers(workload.jobs) if sample else []
    cpu0 = cpu_now()
    start = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span("request"):
                evaluation = grid.run_grid(specs_for(), workload.grid, workload.jobs,
                                           cache_for(), events_path=jobs_events)
                grid.render(evaluation, workload.grid)
        else:
            evaluation = grid.run_grid(specs_for(), workload.grid, workload.jobs,
                                       cache_for(), events_path=jobs_events)
            grid.render(evaluation, workload.grid)
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu0
    finally:
        bursts = hostspeed.stop_samplers(samplers)
    cpu -= sum(bursts)
    scale = hostspeed.scale(bursts)
    return {"wall": wall * scale, "cpu": cpu * scale, "raw_wall": wall, "raw_cpu": cpu,
            "scale": scale, "traced": tracer is not None}, evaluation


def checked(record: dict, evaluation, expected: dict) -> dict:
    import grid

    errors = grid.check(evaluation, expected)
    record["attempted"] = len(expected)
    record["failed"] = len(errors)
    record["errors"] = errors[:5]
    return record


def failed_record(expected: dict, exc: BaseException, traced: bool) -> dict:
    return {
        "wall": None, "cpu": None, "traced": traced,
        "attempted": len(expected), "failed": len(expected),
        "errors": [f"{type(exc).__name__}: {exc}"],
    }


def mode_probe(args) -> dict:
    import_s = import_program()
    return {"ready": time.monotonic(), "import_s": import_s}


def mode_fixture(args) -> dict:
    import_program()
    import grid
    from repro.analysis import RunCache
    from repro.workloads.generators import make_workload
    from repro.workloads.trace import write_trace

    seed = args.seed
    need_reference = seed != grid.PINNED_SEED
    tmp = f"{args.fixture}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if args.grid == "cvp":
        # The warm workload's store; on a held-out seed the reference
        # engine fills it, which also yields the signatures to check.
        backend = grid.REFERENCE_BACKEND if need_reference else grid.BACKEND
        cache = RunCache(disk_dir=os.path.join(tmp, "store"))
        evaluation = grid.run_grid(grid.cvp_specs(seed), "cvp", 2, cache,
                                   backend=backend)
    else:
        traces = os.path.join(tmp, "traces")
        os.makedirs(traces)
        for spec in grid.msvc_generator_specs(seed):
            write_trace(make_workload(spec), grid.trace_path(traces, spec.name))
        evaluation = None
        if need_reference:
            evaluation = grid.run_grid(grid.replay_specs(traces), "msvc", 2, None,
                                       backend=grid.REFERENCE_BACKEND)
    if need_reference:
        digests = grid.signatures(evaluation)
        if len(digests) != grid.n_pairs(args.grid):
            raise SystemExit(f"fixture: reference run incomplete: {sorted(digests)}")
        with open(os.path.join(tmp, "digests.json"), "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
    os.rename(tmp, args.fixture)
    return {"fixture": args.fixture}


def mode_stage(args) -> dict:
    """Write the run's trace files STAGE_WRITES times; report the median,
    in reference seconds (:mod:`hostspeed`)."""
    import_program()
    import grid
    import hostspeed
    from repro.workloads.trace import read_trace, write_trace

    hostspeed.pin_here()
    source = os.path.join(args.fixture, "traces")
    traces = [read_trace(grid.trace_path(source, name)) for _s, name in grid.MSVC_WORKLOADS]
    samples = []
    for k in range(STAGE_WRITES):
        out = os.path.join(args.work, f"traces-{k}")
        os.makedirs(out)
        before = hostspeed.burst()
        start = time.perf_counter()
        for trace in traces:
            write_trace(trace, grid.trace_path(out, trace.name))
        elapsed = time.perf_counter() - start
        samples.append(elapsed * hostspeed.scale([before, hostspeed.burst()]))
    return {"write_s": statistics.median(samples), "traces": out}


def mode_request(args) -> dict:
    import_s = import_program()
    import grid
    from repro.analysis import RunCache

    workload = grid.WORKLOADS[args.workload]
    expected = expected_digests(workload.grid, args.seed, args.fixture)
    os.makedirs(args.work)
    tracer = None
    if args.trace:
        import tracing

        span_dir = os.path.join(args.work, "spans")
        os.makedirs(span_dir)
        tracer = tracing.LayerTracer(span_dir)
        tracer.install(grid)
    store = os.path.join(args.work, "store")
    ledger = os.path.join(args.work, "events.jsonl") if workload.events else None
    if workload.replay:
        specs_for = lambda: grid.replay_specs(args.traces)  # noqa: E731
    else:
        specs_for = lambda: grid.cvp_specs(args.seed)  # noqa: E731
    sampler = ChildPeaks() if workload.jobs > 1 else None
    if sampler is not None:
        sampler.start()
    out = {"import_s": import_s}
    try:
        record, evaluation = one_request(
            workload, specs_for, lambda: RunCache(disk_dir=store), ledger, tracer
        )
        record = checked(record, evaluation, expected)
        out.update(modelled(evaluation))
    except Exception as exc:  # noqa: BLE001 — reported as failed pairs
        record = failed_record(expected, exc, tracer is not None)
    children_kb = sampler.stop() if sampler is not None else 0
    out["rss_mb"] = peak_rss_mb(children_kb)
    out["store_bytes"] = dir_bytes(store)
    if ledger is not None and os.path.exists(ledger):
        with open(ledger, "rb") as fh:
            data = fh.read()
        out["events"] = data.count(b"\n")
        out["ledger_bytes"] = len(data)
    if tracer is not None:
        import tracing

        tracer.flush()
        record["layers"] = tracing.summarize(tracing.load_spans(tracer.out_dir))
    out["requests"] = [record]
    return out


def mode_loop(args) -> dict:
    """cvp_warm: one client sends its next request when the last returns."""
    import_s = import_program()
    import grid
    import hostspeed
    from repro.analysis import RunCache

    workload = grid.WORKLOADS[args.workload]
    expected = expected_digests(workload.grid, args.seed, args.fixture)
    store = os.path.join(args.work, "store")
    shutil.copytree(os.path.join(args.fixture, "store"), store)
    specs = grid.cvp_specs(args.seed)
    out = {"import_s": import_s, "requests": []}
    hostspeed.pin_here()
    tracer = None
    start = time.monotonic()
    # A traced run spends its first half untraced, its second half traced.
    phases = [(start + args.seconds / 2, False), (start + args.seconds, True)] \
        if args.trace else [(start + args.seconds, False)]
    for deadline, traced in phases:
        if traced:
            import tracing

            tracer = tracing.LayerTracer(args.work)
            tracer.install(grid)
        # A request lasts about four bursts, too short for a sampler: a
        # burst follows each request, and the bursts on either side of a
        # request set its scale.  Averaging more of them tracked the host
        # worse (its speed changes within a few requests).
        records, bursts = [], [hostspeed.burst()]
        first = True
        while first or time.monotonic() < deadline:
            first = False
            try:
                record, evaluation = one_request(
                    workload, lambda: specs, lambda: RunCache(disk_dir=store),
                    None, tracer, sample=False,
                )
                record = checked(record, evaluation, expected)
                if "gain" not in out:
                    out.update(modelled(evaluation))
            except Exception as exc:  # noqa: BLE001 — reported as failed pairs
                record = failed_record(expected, exc, traced)
            bursts.append(hostspeed.burst())
            if tracer is not None:
                import tracing

                record["layers"] = tracing.summarize(tracer.spans)
                tracer.spans = []
            records.append(record)
        for i, record in enumerate(records):
            if record["wall"] is not None:
                record["scale"] = hostspeed.scale(bursts[i:i + 2])
                record["wall"] *= record["scale"]
                record["cpu"] *= record["scale"]
        out["requests"].extend(records)
    out["rss_mb"] = peak_rss_mb()
    out["store_bytes"] = dir_bytes(store)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "fixture", "stage", "request", "loop"))
    parser.add_argument("--workload")
    parser.add_argument("--grid")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fixture")
    parser.add_argument("--work")
    parser.add_argument("--traces")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    handler = {
        "probe": mode_probe, "fixture": mode_fixture, "stage": mode_stage,
        "request": mode_request, "loop": mode_loop,
    }[args.mode]
    result = handler(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
