"""Host speed probe: takes a shared host's speed drift out of request times.

A vCPU of a shared VM does not run at one speed.  Whatever shares its
physical core changes from one stretch of seconds to the next, and
while it is busy the program runs up to 1.8 times slower (CPU time
grows with wall time, so this is not stolen time).  Between runs that
drift is larger than any bound the benchmark could keep.

The probe is a fixed pure-Python workload in two parts: a two-level
set-associative LRU cache model fed with a seeded address stream (shaped
like the simulator's inner loop) and seeded random reads from a table
larger than a core's L2 cache (the request path's object and JSON work
is slowed more by a busy neighbour than the cache model alone).  It does
not call the program, so a change to the program cannot change it.  Its thread CPU time is taken in short
bursts next to the timed work (or, while a request runs, from a sampler
thread every ``INTERVAL_S``).  A time ``t`` measured while the bursts
took ``b`` seconds is reported as ``t * REF_BURST_S / b``: seconds on a
host where one burst takes ``REF_BURST_S``.  :func:`scale` averages
``REF_BURST_S / b`` over the bursts taken while the work ran, which
weights each stretch of the run by its length.
"""

from __future__ import annotations

import array
import os
import random
import statistics
import threading
import time
from typing import List, Optional, Sequence

#: CPU seconds of one burst, beside the timed work, on an undisturbed
#: 2-vCPU Sapphire Rapids VM (Python 3.11).  Only the unit of the
#: reported times depends on it.
REF_BURST_S = 0.0024
#: Seconds between a sampler thread's bursts (about 3% of its CPU).
INTERVAL_S = 0.1
#: Addresses one burst feeds through the cache model.
BURST_ACCESSES = 1200
#: Random reads one burst makes from a 4 MiB table.
TABLE_READS = 3000


class _Cache:
    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [dict() for _ in range(sets)]
        self.ways = ways
        self.clock = 0
        self.hits = 0

    def access(self, line: int) -> bool:
        self.clock += 1
        ways = self.sets[line % len(self.sets)]
        if line in ways:
            self.hits += 1
            ways[line] = self.clock
            return True
        if len(ways) >= self.ways:
            del ways[min(ways, key=ways.get)]
        ways[line] = self.clock
        return False


def _stream(n: int) -> List[int]:
    """Mostly sequential fetch lines with near and far jumps (fixed seed)."""
    rng = random.Random(20210614)
    line, out = 0, []
    for _ in range(n):
        r = rng.random()
        if r < 0.7:
            line += 1
        elif r < 0.9:
            line = rng.randrange(2048)
        else:
            line = rng.randrange(1 << 18)
        out.append(line)
    return out


_STREAM = _stream(BURST_ACCESSES)
_TABLE = array.array("i", range(1 << 20))
_OFFSETS = random.Random(1).choices(range(len(_TABLE)), k=TABLE_READS)


def burst() -> float:
    """Run the probe once; returns the calling thread's CPU seconds."""
    start = time.thread_time()
    l1, l2 = _Cache(16, 4), _Cache(128, 8)
    for line in _STREAM:
        if not l1.access(line):
            l2.access(line)
    table, total = _TABLE, 0
    for offset in _OFFSETS:
        total += table[offset]
    return time.thread_time() - start


def scale(bursts: Sequence[float]) -> float:
    """Factor that turns a time measured during ``bursts`` into reference
    seconds: the mean of ``REF_BURST_S / b``."""
    bursts = [b for b in bursts if b > 0]
    if not bursts:
        return 1.0
    return statistics.fmean(REF_BURST_S / b for b in bursts)


def pin_here() -> int:
    """Pin the calling thread to the CPU it is running on; returns the CPU.

    Threads and processes it starts later inherit the pin.  A sampler
    thread must run on the CPU whose speed it is to measure: left free,
    the scheduler wakes it on the idle vCPU, not the busy one.
    """
    with open("/proc/thread-self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler(threading.Thread):
    """Takes a burst every ``INTERVAL_S`` until stopped, on ``cpu`` if given.

    The bursts hold the GIL for about 3% of the time; their CPU time is
    the sampler thread's own, so waiting for the GIL does not count.
    """

    def __init__(self, cpu: Optional[int] = None) -> None:
        super().__init__(daemon=True)
        self.cpu = cpu
        self.bursts: List[float] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop_event.wait(INTERVAL_S):
            self.bursts.append(burst())

    def stop(self) -> List[float]:
        self._stop_event.set()
        self.join()
        return self.bursts


def start_samplers(jobs: int) -> List[Sampler]:
    """Samplers for work about to run in this thread (``jobs`` 1) or in
    ``jobs`` worker processes free to use every CPU of this process."""
    if jobs == 1:
        pin_here()
        samplers = [Sampler()]
    else:
        samplers = [Sampler(cpu) for cpu in sorted(os.sched_getaffinity(0))]
    for sampler in samplers:
        sampler.start()
    return samplers


def stop_samplers(samplers: Sequence[Sampler]) -> List[float]:
    return [b for sampler in samplers for b in sampler.stop()]
