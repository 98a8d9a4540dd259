"""The host's speed, read from two fixed reference kernels.

The benchmark runs on a few cores of a shared host, and other tenants'
load changes how fast those cores run by tens of percent for minutes at
a time.  That drift moves every timing of a run, so each run also times
two fixed pure-Python kernels, which are no code of the program, in
short probes interleaved with the measured work:

* the compute kernel hashes string and tuple keys into a dict and groups
  them into sets, all within a small working set;
* the memory kernel looks up keys, in a shuffled order, in a table of
  ``TABLE_SIZE`` entries built once, so most lookups miss the caches.

The host's load slows the first more than the second, and the program
in between, so the probes' speed is the geometric mean of the two.  A
gated time is reported at reference speed: the measured time, times
``REFERENCE_S`` over that mean in the same stretch of the run.

The kernels run in a helper process (``python3 perfbench/speed.py``),
so that the table adds nothing to the memory of the benchmark or of the
processes it forks.  The helper builds the table, prints ``ready``, and
then answers each line ``N`` with N lines ``compute_s memory_s``.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from pathlib import Path

from common import BenchmarkError, median

#: Each kernel's fastest time seen on the reference host (2 vCPUs of a
#: shared host, Python 3.11.7); their geometric mean is the reference
#: speed.  Only a scale: on that host, adjusted times read about as
#: seconds.
REFERENCE_COMPUTE_S = 0.0051
REFERENCE_MEMORY_S = 0.0060
REFERENCE_S = (REFERENCE_COMPUTE_S * REFERENCE_MEMORY_S) ** 0.5
#: Probes taken at each point of a run where the host's speed is read.
PROBES = 2
COMPUTE_SIZE = 8000
TABLE_SIZE = 200_000
LOOKUPS = 10_000


def compute_kernel() -> int:
    table: dict = {}
    for i in range(COMPUTE_SIZE):
        key = (f"p{i % 50}", i % 997, (i * 7919) % 1000)
        table[key] = table.get(key, 0) + 1
    groups: dict = {}
    for (group, left, right), count in table.items():
        groups.setdefault(group, set()).add((left, right, count))
    return sum(len(members) for members in groups.values())


def build_table() -> tuple[dict, list]:
    table = {(f"k{i}", i % 1013): [i, str(i)] for i in range(TABLE_SIZE)}
    keys = list(table)
    random.Random(0).shuffle(keys)
    return table, keys[:LOOKUPS]


def memory_kernel(table: dict, keys: list) -> int:
    total = 0
    for key in keys:
        total += table[key][0]
    return total


class Speed:
    """The helper process, and the probes of one run: ``(taken, compute_s,
    memory_s)``.  Use as a context manager, which stops the helper."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float, float]] = []
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.process.stdout.readline().strip() != "ready":
            self.close()
            raise BenchmarkError("the speed probe helper did not start")

    def __enter__(self) -> Speed:
        return self

    def __exit__(self, *_) -> None:
        self.close()

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
        self.process.wait()
        self.process.stdout.close()

    def probe(self, count: int = PROBES) -> None:
        taken = time.perf_counter()
        self.process.stdin.write(f"{count}\n")
        self.process.stdin.flush()
        for _ in range(count):
            compute, memory = (float(value) for value in self.process.stdout.readline().split())
            self.probes.append((taken, compute, memory))

    def factor(self, since: float = float("-inf"), until: float = float("inf")) -> float:
        """``REFERENCE_S`` over the probes' speed in ``[since, until]``."""
        chosen = [(compute, memory) for taken, compute, memory in self.probes
                  if since <= taken <= until]
        compute = median([compute for compute, _ in chosen])
        memory = median([memory for _, memory in chosen])
        return REFERENCE_S / (compute * memory) ** 0.5

    def durations(self) -> dict[str, list[float]]:
        """The probe times in ms, per kernel."""
        return {"compute": [compute * 1e3 for _, compute, _ in self.probes],
                "memory": [memory * 1e3 for _, _, memory in self.probes]}


def _serve() -> None:
    table, keys = build_table()
    print("ready", flush=True)
    for line in sys.stdin:
        for _ in range(int(line)):
            started = time.perf_counter()
            compute_kernel()
            compute = time.perf_counter() - started
            started = time.perf_counter()
            memory_kernel(table, keys)
            print(compute, time.perf_counter() - started, flush=True)


if __name__ == "__main__":
    _serve()
