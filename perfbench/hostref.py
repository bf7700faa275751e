"""Host-speed reference: fixed tasks timed beside the program.

The benchmark box is a 2-vCPU VM on a shared host, and its speed drifts
by 10–40% over minutes, slower than a run.  Raw wall times of ten runs
therefore spread as widely as a regression bound, whatever the run
length.  The drift hits fixed pieces of Python start-up and
pointer-chasing work much as it hits the program, so each run also
times such tasks (:data:`TASKS`) between its operations and scales its
timing metrics to the host speed at which they take their nominal time:

    value in ref-ms = wall ms × nominal / median(reference samples)

The tasks import and run only the standard library, in isolated mode,
so no change to this repository can move them; a program that gets
faster or slower shows in full.  Memory stays raw.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List, Sequence

#: Reference tasks: name -> (stdlib-only script, its median seconds on
#: the benchmark box).  Each runs in a fresh ``python -I`` interpreter
#: and stays well below the benchmark process's own resident set, so
#: ``peak_rss_mb`` still measures the program.
TASKS = {
    # Interpreter start-up plus imports: what the CLI spends its time on.
    "startup": (
        """
import argparse, asyncio, concurrent.futures, dataclasses, decimal, email.parser
import fractions, hashlib, http.server, json, logging, statistics, typing
import unittest, urllib.request, xml.dom.minidom
""",
        0.15,
    ),
    # A small object-per-line cache model (attribute reads, method calls,
    # list scans): what the simulator spends its time on.
    "cache-model": (
        """
import random

class Line:
    __slots__ = ("valid", "tag", "dirty", "lru")

    def __init__(self):
        self.valid, self.tag, self.dirty, self.lru = False, 0, False, 0

class CacheSet:
    def __init__(self, ways):
        self.lines = [Line() for _ in range(ways)]

    def access(self, tag, now, write):
        for line in self.lines:
            if line.valid and line.tag == tag:
                line.lru = now
                line.dirty |= write
                return True
        victim = min(self.lines, key=lambda line: line.lru)
        victim.valid, victim.tag, victim.lru, victim.dirty = True, tag, now, write
        return False

sets = [CacheSet(8) for _ in range(4096)]
rng = random.Random(1)
hits = 0
for now in range(60000):
    address = rng.getrandbits(22)
    hits += sets[address & 4095].access(address >> 12, now, now % 3 == 0)
assert hits > 0
assert sum(line.dirty for s in sets for line in s.lines if line.valid) > 0
""",
        0.20,
    ),
}

#: Seconds between reference samples inside a measured loop.
INTERVAL_S = 1.5

#: Samples every measured phase takes at least.
MIN_SAMPLES = 5


def sample(tasks: Sequence[str], width: int = 1) -> float:
    """Run each named task once, ``width`` copies at a time; wall seconds.

    A workload that keeps both vCPUs busy is held back by the slower of
    them, so its reference runs as wide as it does.
    """
    elapsed = 0.0
    for name in tasks:
        start = time.perf_counter()
        processes = [
            subprocess.Popen(
                [sys.executable, "-I", "-c", TASKS[name][0]],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            for _ in range(width)
        ]
        failures = []
        try:
            for process in processes:
                _, stderr = process.communicate(timeout=60)
                if process.returncode != 0:
                    failures.append(stderr.decode()[-500:])
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                    process.wait()
        elapsed += time.perf_counter() - start
        if failures:
            raise RuntimeError(f"reference task {name} failed: {failures[0]}")
    return elapsed


class HostReference:
    """Reference samples of one measured phase."""

    def __init__(self, tasks: Sequence[str] = tuple(TASKS), width: int = 1) -> None:
        self.tasks = tuple(tasks)
        self.width = width
        #: Wall seconds a sample takes on the benchmark box.
        self.nominal_s = sum(TASKS[name][1] for name in self.tasks)
        self.samples: List[float] = []
        #: Wall time spent on samples since :meth:`start`, to keep out of
        #: the measured loop's elapsed time.
        self.spent = 0.0
        self._last = float("-inf")

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self.samples.append(sample(self.tasks, self.width))
            self._last = time.perf_counter()
            self.spent += self._last - start

    def start(self) -> float:
        """Start of a measured loop: from here on, samples count as spent."""
        self.spent = 0.0
        return time.perf_counter()

    def tick(self) -> None:
        """Between two operations: sample if :data:`INTERVAL_S` has passed."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.take()

    def finish(self) -> None:
        """After the loop: top up to :data:`MIN_SAMPLES`."""
        self.take(max(MIN_SAMPLES - len(self.samples), 0))

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor from wall time to ref time (ref-ms = wall ms × scale)."""
        return self.nominal_s / self.median_s()
