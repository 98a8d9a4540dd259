"""The repository's benchmark of record.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``table1-compile``, ``serve-read``, ``serve-churn`` (see
``BENCHMARK.json`` and ``perfbench/WORKLOADS.md``).  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` runs the same topology
with spans installed around the program's public callables and reports
the per-layer metrics, plus the tracing overhead against an untraced
pass run just before it.  Every line but the last is a human-readable report; the last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
A run that cannot produce trustworthy numbers exits non-zero without it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback

from common import (
    WORK_ROOT,
    BenchmarkError,
    machine_shape,
    print_table,
    require_cpus,
    require_source,
    result_line,
)

WORKLOADS = ("table1-compile", "serve-read", "serve-churn")


def run_workload(name: str, seed: int, seconds: float, trace: bool, work):
    if name == "table1-compile":
        import compile_bench

        return compile_bench.run(seed, seconds, trace, work)
    import serve_bench

    return serve_bench.run(name, seed, seconds, trace, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        require_source()
        cpus = require_cpus()
        shape = machine_shape(arguments.seed)
        print(f"# run {json.dumps({'workload': arguments.workload, **shape})}", flush=True)
        work = WORK_ROOT / f"{arguments.workload}-{arguments.seed}-{arguments.trace}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            untraced = None
            if arguments.trace:
                # Tracing overhead: the same workload untraced, then traced.
                untraced = run_workload(arguments.workload, arguments.seed,
                                        arguments.seconds, False, work / "untraced")
                outcome = run_workload(arguments.workload, arguments.seed,
                                       arguments.seconds, True, work / "traced")
            else:
                outcome = run_workload(arguments.workload, arguments.seed,
                                       arguments.seconds, False, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()  # only when no other run is using it
            except OSError:
                pass
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - any failure means no trustworthy result
        traceback.print_exc()
        return 2

    print_table(f"end-to-end ({arguments.workload}, seed {arguments.seed}, nproc {cpus})",
                outcome.end_to_end)
    if untraced is not None:
        print_table("untraced end-to-end (same run)", untraced.end_to_end)
        print("# tracing overhead (traced - untraced)")
        for metric_name, metric in outcome.end_to_end.items():
            if metric_name not in untraced.end_to_end:
                continue
            base = untraced.end_to_end[metric_name].value
            share = (metric.value - base) / base if base else 0.0
            print(f"#   {metric_name:<40} {metric.value - base:>+14.6g} {metric.unit}"
                  f" ({share:+.1%})")
        outcome.attempted += untraced.attempted
        outcome.failed += untraced.failed
        for check, passed in untraced.checks.items():
            outcome.check(check, passed)
        print_table("per-layer (traced)", outcome.per_layer)
        if outcome.layer_report:
            print_table("per-layer, report only (traced)", outcome.layer_report)
        layers = outcome.details.get("layers", {})
        print("# spans: name, calls, total ms, self ms")
        for layer_name, layer in sorted(layers.items()):
            print(f"#   {layer_name:<40} {layer['calls']:>8} {layer['total_ms']:>12.3f}"
                  f" {layer['self_ms']:>12.3f}")
    print(f"# checks {json.dumps(outcome.checks, sort_keys=True)}")
    print(f"# details {json.dumps(outcome.details, sort_keys=True, default=str)}")
    try:
        result = result_line(outcome, bool(arguments.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
