"""Layer spans recorded from outside the program.

``LayerTracer.install`` replaces the program's layer entry points with
timing wrappers.  It runs before ``run_suite`` starts its worker pool,
so forked workers inherit the wrappers and their calls are timed too.
Each process keeps its spans in memory: a worker appends its buffer to
``spans-<pid>.jsonl`` whenever its outermost span closes, the driving
process writes its own at the end, and :func:`summarize` merges them.

A span is ``[pid, id, parent, layer, start, end, attrs]``.  A layer's
self time is its spans' duration minus the part covered by their child
spans in the same process.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Layer names; the per-layer metrics are named after them.
BUILD = "workloads.build"
DECODE = "workloads.decode"
FETCHUNITS = "fetchunits"
SIM = "sim"
KEY = "store.key"
GET = "store.get"
PUT = "store.put"
DISPATCH = "dispatch"
TASK = "dispatch.task"
RENDER = "report.render"
REQUEST = "request"


class LayerTracer:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.next_id = 0

    @contextlib.contextmanager
    def span(self, layer: str):
        span_id = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, layer, start, {})

    def _open(self) -> int:
        span_id = self.next_id
        self.next_id += 1
        self.stack.append(span_id)
        return span_id

    def _close(self, span_id: int, layer: str, start: float, attrs: Dict) -> None:
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.pid, span_id, parent, layer, start, end, attrs])
        if not self.stack and self.pid != self.root_pid:
            self.flush()

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(self, owner: Any, attr: str, layer: str,
             describe: Optional[Callable[[tuple, Any], Dict]] = None) -> None:
        """Time every call of ``owner.attr`` as a ``layer`` span.

        ``functools.wraps`` keeps the name and module, so a wrapped
        function still pickles by reference into worker processes.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = tracer._open()
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                attrs = describe(args, result) if describe and result is not None else {}
                tracer._close(span_id, layer, start, attrs)

        setattr(owner, attr, wrapper)

    def install(self, grid_module: Any) -> None:
        """Wrap the entry point of every layer the benchmark reports."""
        from repro.analysis import experiments, parallel, runcache
        from repro.workloads import importers

        self.wrap(experiments, "make_workload", BUILD)
        self.wrap(importers, "file_workload_spec", BUILD)
        self.wrap(importers, "load_external_trace", DECODE)
        self.wrap(experiments, "build_fetch_units", FETCHUNITS,
                  lambda args, units: {"units": len(units)})
        self.wrap(experiments, "simulate", SIM, _describe_sim)
        self.wrap(experiments, "run_key", KEY)
        self.wrap(parallel, "run_key", KEY)
        self.wrap(runcache.RunCache, "get", GET, lambda args, hit: {"hit": 1})
        self.wrap(runcache.RunCache, "wait_probe", GET, lambda args, hit: {"hit": 1})
        self.wrap(runcache.RunCache, "put", PUT)
        self.wrap(parallel, "map_resilient", DISPATCH)
        self.wrap(parallel, "execute_task", TASK)
        self.wrap(grid_module, "render", RENDER)


def _describe_sim(args: tuple, result: Any) -> Dict:
    trace, prefetcher = args[0], args[1]
    return {
        "trace": trace.name,
        "prefetcher": prefetcher.name,
        "instrs": len(trace),
        "cycles": result.stats.cycles,
    }


def load_spans(out_dir: str) -> List[list]:
    spans: List[list] = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def summarize(spans: List[list]) -> Dict[str, float]:
    """Per-layer self time, call counts and derived ratios of one request."""
    children: Dict[tuple, float] = defaultdict(float)
    for pid, _sid, parent, _layer, start, end, _attrs in spans:
        if parent is not None:
            children[(pid, parent)] += end - start
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for pid, sid, _parent, layer, start, end, _attrs in spans:
        self_s[layer] += (end - start) - children[(pid, sid)]
        calls[layer] += 1

    def total(layer: str, attr: str) -> int:
        return sum(s[6].get(attr, 0) for s in spans if s[3] == layer)

    sims = [s for s in spans if s[3] == SIM]
    no_time = {s[6]["trace"]: s[5] - s[4] for s in sims if s[6]["prefetcher"] == "no"}
    host_overhead = sum(
        (s[5] - s[4]) - no_time[s[6]["trace"]]
        for s in sims
        if s[6]["prefetcher"] != "no" and s[6]["trace"] in no_time
    )
    sim_s = self_s[SIM]

    # Dispatch: the parent's map_resilient window against worker busy time.
    window = sum(s[5] - s[4] for s in spans if s[3] == DISPATCH)
    busy: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s[3] == TASK:
            busy[s[0]] += s[5] - s[4]
    overhead = window - max(busy.values()) if window and busy else 0.0
    busy_frac = sum(busy.values()) / (len(busy) * window) if window and busy else 0.0

    request_s = sum(s[5] - s[4] for s in spans if s[3] == REQUEST)
    return {
        "workloads.build_s": self_s[BUILD],
        "workloads.build_calls": calls[BUILD],
        "workloads.decode_s": self_s[DECODE],
        "workloads.decode_calls": calls[DECODE],
        "fetchunits.build_s": self_s[FETCHUNITS],
        "fetchunits.calls": calls[FETCHUNITS],
        "fetchunits.units": total(FETCHUNITS, "units"),
        "sim.simulate_s": sim_s,
        "sim.calls": calls[SIM],
        "sim.instrs_per_s": total(SIM, "instrs") / sim_s if sim_s else 0.0,
        "sim.cycles": total(SIM, "cycles"),
        "prefetch.host_overhead_s": host_overhead,
        "store.key_s": self_s[KEY],
        "store.get_s": self_s[GET],
        "store.get_calls": calls[GET],
        "store.hits": total(GET, "hit"),
        "store.put_s": self_s[PUT],
        "store.put_calls": calls[PUT],
        "dispatch.overhead_s": overhead,
        "dispatch.worker_busy_frac": busy_frac,
        "report.render_s": self_s[RENDER],
        "trace.unattributed_frac": self_s[REQUEST] / request_s if request_s else 0.0,
    }
