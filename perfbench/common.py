"""Shared helpers of the benchmark: statistics, machine shape, output.

Every workload module returns a :class:`Outcome`; ``run.py`` turns it into
the printed report and the final one-line JSON result.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root: the benchmark is run from it and only reads and
#: writes below it.
ROOT = Path.cwd()
SOURCE = ROOT / "src"
#: Scratch space of one run (stores, server caches, trace files); removed
#: when the run ends.
WORK_ROOT = ROOT / ".perfbench-work"
#: The benchmark drives at most this many concurrent connections and
#: expects at least this many usable CPUs.
CONFIGURED_CPUS = 2


#: Per-layer counts and ratios of the serving tier (``serve_bench``); a
#: workload that runs no server reports them as 0.
SERVING_LAYER_COUNTS = (
    ("serving.source.engine", "count"),
    ("serving.source.memory", "count"),
    ("serving.source.store", "count"),
    ("scheduling.auto.parallel_generations", "count"),
    ("scheduling.auto.sequential_generations", "count"),
    ("backends.answer_cache_hit_ratio", "ratio"),
    ("backends.memory.executes", "count"),
    ("backends.sqlite.executes", "count"),
    ("backends.prepares", "count"),
    ("backends.sqlite.full_loads", "count"),
    ("backends.sqlite.incremental_loads", "count"),
    ("database.mutations", "count"),
    ("incremental.full_refresh_ratio", "ratio"),
    ("incremental.delta_rows_per_poll", "rows"),
)


class BenchmarkError(RuntimeError):
    """The run cannot produce trustworthy numbers (no result is printed)."""


def usable_cpus() -> int:
    """What ``nproc`` prints: the CPUs this process may be scheduled on."""
    return len(os.sched_getaffinity(0))


def require_source() -> None:
    """Put the program's sources on the import path, or fail."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def require_cpus() -> int:
    """The usable CPU count; fewer than configured is an error."""
    cpus = usable_cpus()
    if cpus < CONFIGURED_CPUS:
        raise BenchmarkError(
            f"found {cpus} usable CPUs, the benchmark is configured for "
            f"{CONFIGURED_CPUS}"
        )
    return cpus


def source_commit() -> str:
    """The git commit of the checkout, read without running git.

    Checkouts that are not git repositories report ``"unknown"``; the
    source digest identifies the measured code either way.
    """
    head = ROOT / ".git" / "HEAD"
    try:
        reference = head.read_text().strip()
    except OSError:
        return "unknown"
    if reference.startswith("ref: "):
        try:
            return (ROOT / ".git" / reference[5:]).read_text().strip()
        except OSError:
            return "unknown"
    return reference


def source_digest() -> str:
    """SHA-256 over the program's Python sources (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_shape(seed: int) -> dict:
    """The tags every result carries."""
    return {
        "nproc": usable_cpus(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "commit": source_commit(),
        "source_digest": source_digest(),
    }


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak resident set size in MiB of the largest child waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for process {pid}")


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process (all its threads)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def quantile(samples: list[float], q: float) -> float:
    """The *q*-quantile of *samples*, by linear interpolation."""
    if not samples:
        raise BenchmarkError("quantile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples: list[float]) -> float:
    return quantile(samples, 0.5)


def has_tail(samples: list[float], q: float) -> bool:
    """Whether at least ten of *samples* fall beyond their *q*-quantile."""
    return len(samples) * (1.0 - q) >= 10


def tail_quantile(samples: list[float], q: float) -> float:
    """The *q*-quantile, refusing samples too small to put ten beyond it."""
    if not has_tail(samples, q):
        raise BenchmarkError(
            f"p{q * 100:g} needs at least {int(10 / (1.0 - q) + 0.5)} samples, "
            f"got {len(samples)}"
        )
    return quantile(samples, q)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


@dataclass
class Metric:
    """One reported number, with the samples it summarises."""

    value: float
    unit: str
    samples: int | None = None
    note: str = ""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, Metric] = field(default_factory=dict)
    per_layer: dict[str, Metric] = field(default_factory=dict)
    #: Per-layer numbers printed with a traced run but not reported to the
    #: result line (serving-side layer times; see WORKLOADS.md).
    layer_report: dict[str, Metric] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, message: str = "") -> None:
        """Record an output check; a failed one makes the run incorrect."""
        self.checks[name] = bool(passed) and self.checks.get(name, True)
        if not passed:
            print(f"# CHECK FAILED {name}: {message}", flush=True)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def print_table(title: str, metrics: dict[str, Metric]) -> None:
    """Human-readable metric lines (everything before the result line)."""
    print(f"# {title}")
    for name, metric in metrics.items():
        samples = f" n={metric.samples}" if metric.samples is not None else ""
        note = f"  ({metric.note})" if metric.note else ""
        print(f"#   {name:<40} {metric.value:>14.6g} {metric.unit}{samples}{note}")


def result_line(outcome: Outcome, trace: bool) -> str:
    """The final JSON object: the metrics ``BENCHMARK.json`` names.

    The end-to-end table also holds report-only numbers; the result
    carries exactly the metrics listed under ``end_to_end`` (or, traced,
    ``per_layer``), and a listed metric the run did not measure is an
    error.
    """
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = outcome.per_layer if trace else outcome.end_to_end
    names = [entry["name"] for entry in listed["per_layer" if trace else "end_to_end"]]
    missing = [name for name in names if name not in measured]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    metrics = {name: measured[name] for name in names}
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": metric.value, "unit": metric.unit}
                for name, metric in metrics.items()
            },
        }
    )
