"""``table1-compile``: batch compilation of the Table 1 workloads.

Each pass compiles the five Table 1 ontologies (V, S, U, A, P5), q1-q5
each, under NY* (``OBDASystem`` defaults: elimination and NC pruning)
and plain NY, through ``OBDASystem.compile_many`` with its default
arguments (one worker process per CPU) into ten empty stores: the 50
rewritings ``repro compile --workload X --cache DIR [--no-elimination]``
produces.  After ``PASSES`` passes, fresh systems reopen the last
pass's stores and serve all 50 rewritings, for as long as the measured
seconds allow and at least once.  The seed orders the ten batches.

Times are reported at reference speed (``speed.py``): a pass's or a
reload's times are scaled by the host speed its probes read.  Each
batch (one ontology under one engine) is timed on its own; its cold
cost is the faster of its passes, which leaves out the first pass's
warm-up, and ``cold_s`` sums those.  ``op_cpu_ms`` is the median reload.
"""

from __future__ import annotations

import gc
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    SERVING_LAYER_COUNTS,
    Metric,
    Outcome,
    children_peak_rss_mb,
    has_tail,
    median,
    own_peak_rss_mb,
    ratio,
    tail_quantile,
)
from speed import Speed

ONTOLOGIES = ("V", "S", "U", "A", "P5")
#: Engine label -> ``use_elimination``.
ENGINES = (("NY*", True), ("NY", False))
#: Table 1 sizes: ontology -> query -> (NY, NY*).
TABLE1_SIZES = {
    "V": {"q1": (15, 15), "q2": (16, 16), "q3": (84, 84), "q4": (138, 138), "q5": (120, 120)},
    "S": {"q1": (7, 7), "q2": (35, 1), "q3": (295, 1), "q4": (70, 1), "q5": (590, 1)},
    "U": {"q1": (3, 3), "q2": (105, 1), "q3": (270, 1), "q4": (827, 3), "q5": (130, 3)},
    "A": {"q1": (92, 13), "q2": (49, 4), "q3": (13, 1), "q4": (141, 12), "q5": (78, 6)},
    "P5": {"q1": (4, 4), "q2": (9, 9), "q3": (25, 24), "q4": (77, 72), "q5": (247, 226)},
}
#: Set-ups timed per run; the median is reported.
SETUP_REPEATS = 5
#: Cold passes per run: the same number in every run, so that the
#: fastest of them is the same statistic whatever the host's speed.
PASSES = 2
TAIL = 0.95


def _timed_setups(speed: Speed) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes importing and building the ten engines,
    as measured and at reference speed."""
    samples, adjusted = [], []
    for _ in range(SETUP_REPEATS):
        probed = time.perf_counter()
        speed.probe()
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py"))],
            check=True,
        )
        samples.append(time.perf_counter() - started)
        speed.probe()
        adjusted.append(samples[-1] * speed.factor(since=probed))
    return samples, adjusted


def _store_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.glob("*/rewritings.jsonl"))


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    with Speed() as speed:
        return _run(seed, seconds, trace, work, speed)


def _run(seed: int, seconds: float, trace: bool, work: Path, speed: Speed) -> Outcome:
    from repro import OBDASystem
    from repro.core.rewriter import RewritingStatistics
    from repro.scheduling import resolve_workers
    from repro.workloads import get_workload

    outcome = Outcome()
    workloads = {name: get_workload(name) for name in ONTOLOGIES}
    batches = [(name, label, elimination) for name in ONTOLOGIES for label, elimination in ENGINES]
    random.Random(seed).shuffle(batches)
    workers = resolve_workers(None)

    tracer = None
    if trace:
        from tracing import Tracer, install_compile_spans

        tracer = Tracer()
        install_compile_spans(tracer)

    keys = [(name, label) for name, label, _ in batches]
    #: Per batch: wall time of each compile_many into empty stores, and
    #: CPU time of each warm reload (open the store, serve five rewritings),
    #: as measured and at reference speed.
    cold_times: dict[tuple[str, str], list[float]] = {key: [] for key in keys}
    warm_cpu: dict[tuple[str, str], list[float]] = {key: [] for key in keys}
    cold_adjusted: dict[tuple[str, str], list[float]] = {key: [] for key in keys}
    #: Per warm reload: CPU time over all ten batches, as measured and at
    #: reference speed.
    warm_totals: list[float] = []
    warm_adjusted: list[float] = []
    cold_factors: list[float] = []
    warm_factors: list[float] = []
    cold_samples: list[float] = []
    warm_samples: list[float] = []
    served_latencies: list[float] = []
    engine_seconds: list[float] = []
    counter_totals: list[dict] = []
    store_sizes: list[int] = []
    stored_cqs = 0

    def warm_reload(directory: Path, expected: dict) -> None:
        """Fresh systems reopen the stores and serve all 50 rewritings."""
        gc.collect()
        started = time.perf_counter()
        speed.probe()
        for name, label, elimination in batches:
            workload = workloads[name]
            cpu = time.process_time()
            system = OBDASystem(workload.theory, use_elimination=elimination,
                                cache=directory / f"{name}-{label}")
            served = []
            for query in workload.query_names:
                served_started = time.perf_counter()
                served.append(system.compile(workload.query(query)))
                served_latencies.append(time.perf_counter() - served_started)
            warm_cpu[name, label].append(time.process_time() - cpu)
            speed.probe()
            for query, result, members in zip(workload.query_names, served,
                                              expected[name, label]):
                outcome.check(
                    "warm-equals-cold",
                    result.statistics.persistent_cache_hits == 1
                    and [repr(cq) for cq in result.ucq] == members,
                    f"{name} {query} {label}: warm rewriting differs from cold",
                )
        warm_samples.append(time.perf_counter() - started)
        factor = speed.factor(since=started)
        warm_factors.append(factor)
        warm_totals.append(sum(times[-1] for times in warm_cpu.values()))
        warm_adjusted.append(warm_totals[-1] * factor)
        outcome.attempted += 1

    started_run = time.perf_counter()

    def fits(duration: float) -> bool:
        return time.perf_counter() - started_run + duration <= seconds

    directory = None
    for index in range(PASSES):
        pass_started = time.perf_counter()
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
        directory = work / f"stores-{index}"
        systems = [
            (name, label, OBDASystem(workloads[name].theory, use_elimination=elimination,
                                     cache=directory / f"{name}-{label}"))
            for name, label, elimination in batches
        ]
        cold: dict[tuple[str, str], list] = {}
        # Every pass starts from the same heap: the last pass's results
        # are gone, and so is their garbage.
        gc.collect()
        speed.probe()
        for name, label, system in systems:
            workload = workloads[name]
            started = time.perf_counter()
            cold[name, label] = system.compile_many(
                [workload.query(query) for query in workload.query_names]
            )
            cold_times[name, label].append(time.perf_counter() - started)
            speed.probe()
        factor = speed.factor(since=pass_started)
        cold_factors.append(factor)
        for key in keys:
            cold_adjusted[key].append(cold_times[key][-1] * factor)
        cold_samples.append(sum(times[-1] for times in cold_times.values()))
        outcome.attempted += len(batches)

        statistics = [result.statistics for results in cold.values() for result in results]
        fresh = [item for item in statistics if item.persistent_cache_misses]
        outcome.check("cold-compiles-fresh", len(fresh) == 50,
                      f"{len(fresh)} of 50 rewritings were compiled fresh")
        engine_seconds.append(sum(item.elapsed_seconds for item in fresh))
        totals = RewritingStatistics.merge_all(statistics)
        memo_totals = (totals.unification_memo_hits, totals.unification_memo_misses)
        counter_totals.append({
            key: value for key, value in vars(totals).items()
            if key not in RewritingStatistics.VOLATILE_FIELDS
        })
        store_sizes.append(_store_bytes(directory))
        stored_cqs = sum(result.size for results in cold.values() for result in results)
        for (name, label), results in cold.items():
            column = 1 if label == "NY*" else 0
            for query, result in zip(workloads[name].query_names, results):
                expected = TABLE1_SIZES[name][query][column]
                outcome.check("table1-sizes", result.size == expected,
                              f"{name} {query} {label}: {result.size} CQs, pinned {expected}")

        # The warm reloads compare against the members' text only, so the
        # benchmark holds no rewriting objects while it measures.
        expected = {key: [[repr(cq) for cq in result.ucq] for result in results]
                    for key, results in cold.items()}
        del systems, cold, statistics, fresh
    # The time left goes to warm reloads of the last pass's stores.
    warm_reload(directory, expected)
    while fits(max(warm_samples)):
        warm_reload(directory, expected)
    shutil.rmtree(work, ignore_errors=True)
    # The engine runs in compile_many's worker processes, which have all
    # ended by now; the set-up probes, also children, run only after this.
    peak_rss = {"benchmark": own_peak_rss_mb(), "workers": children_peak_rss_mb()}
    setups, setups_adjusted = _timed_setups(speed)

    outcome.check("counter-totals-repeat", all(item == counter_totals[0] for item in counter_totals),
                  "RewritingStatistics counter totals differ between passes")
    outcome.check("store-bytes-repeat", len(set(store_sizes)) == 1,
                  f"store sizes differ between passes: {store_sizes}")

    served = len(served_latencies)
    outcome.end_to_end = {
        "setup_s": Metric(median(setups_adjusted), "s", len(setups),
                          "fresh process: imports and ten engines, at reference speed"),
        "setup_raw_s": Metric(median(setups), "s", len(setups), "the same as measured"),
        "peak_rss_mb": Metric(peak_rss["workers"], "MB", note="largest compile_many worker"),
        "cold_s": Metric(sum(min(times) for times in cold_adjusted.values()), "s", PASSES,
                         "10 compile_many calls, 50 rewritings: each batch's fastest pass,"
                         " at reference speed"),
        "cold_raw_s": Metric(sum(min(times) for times in cold_times.values()), "s", PASSES,
                             "the same as measured"),
        "op_p50_ms": Metric(median(served_latencies) * 1e3, "ms", served,
                            "one rewriting served from a reopened store"),
        "ops_per_s": Metric(served / sum(warm_samples), "1/s", len(warm_samples),
                            "rewritings served per second of warm reload"),
        "op_cpu_ms": Metric(median(warm_adjusted) * 1e3 / 50, "ms", len(warm_samples),
                            "CPU per rewriting served, median warm reload, at reference speed"),
        "op_cpu_raw_ms": Metric(median(warm_totals) * 1e3 / 50, "ms", len(warm_samples),
                                "the same as measured"),
    }
    if has_tail(served_latencies, TAIL):
        outcome.end_to_end["op_tail_ms"] = Metric(
            tail_quantile(served_latencies, TAIL) * 1e3, "ms", served, f"p{TAIL * 100:g}")
    outcome.details = {
        "warm_load_s": median(warm_samples),
        "speed_probes_ms": speed.durations(),
        "warm_load_samples_s": warm_samples,
        "peak_rss_mb": peak_rss,
        "cold_compile_samples_s": cold_samples,
        "cold_batch_samples_s": {f"{name}-{label}": times
                                 for (name, label), times in cold_times.items()},
        "warm_batch_cpu_s": {f"{name}-{label}": times
                             for (name, label), times in warm_cpu.items()},
        "cold_speed_factors": cold_factors,
        "warm_speed_factors": warm_factors,
        "counter_totals": counter_totals[0],
        "store_bytes": store_sizes[0],
        "workers": workers,
        "batch_order": [f"{name}-{label}" for name, label, _ in batches],
    }

    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        events = tracer.totals()
        outcome.per_layer = compile_layer_metrics(
            totals=counter_totals[0],
            memo=memo_totals,
            engine_s=sum(engine_seconds),
            entry_s=layers["api.compile_many"]["total_ms"] / 1e3,
            workers=workers,
            layers=layers,
            events=events,
            phases=PASSES,
            store_bytes=store_sizes[0],
            stored_cqs=stored_cqs,
        )
        outcome.per_layer.update(
            (name, Metric(0, unit)) for name, unit in SERVING_LAYER_COUNTS
        )
        outcome.details["layers"] = layers
    return outcome


def compile_layer_metrics(*, totals, memo, engine_s, entry_s, workers, layers, events,
                          phases, store_bytes, stored_cqs) -> dict[str, Metric]:
    """The compile-side per-layer metrics every workload reports.

    *totals* are the non-volatile ``RewritingStatistics`` counter totals
    of one cold phase; *memo* the unification memo ``(hits, misses)``.
    Times and event counts are per cold phase (*phases* of them ran,
    each with the reloads or requests that follow it).
    """
    def seconds(name: str) -> float:
        return layers.get(name, {}).get("total_ms", 0.0) / 1e3 / phases

    gets = events.get("cache.gets", 0)
    generated = totals["generated_by_rewriting"] + totals["generated_by_factorization"]
    return {
        "compile.entry_s": Metric(entry_s / phases, "s"),
        "core.engine_s": Metric(engine_s / phases, "s"),
        "parallel.efficiency": Metric(ratio(engine_s, entry_s * workers), "ratio"),
        "core.processed_queries": Metric(totals["processed_queries"], "count"),
        "core.generated_cqs": Metric(generated, "count"),
        "core.eliminated_atoms": Metric(totals["eliminated_atoms"], "count"),
        "core.pruned_by_constraints": Metric(totals["pruned_by_constraints"], "count"),
        "queries.interned_queries": Metric(totals["interned_queries"], "count"),
        "queries.variant_hit_ratio": Metric(
            ratio(totals["variant_cache_hits"], totals["variant_lookups"]), "ratio"),
        "core.rules_skipped_ratio": Metric(
            ratio(totals["rules_skipped_by_index"],
                  totals["rules_skipped_by_index"] + totals["rules_considered"]), "ratio"),
        "core.unification_memo_hit_ratio": Metric(ratio(memo[0], memo[0] + memo[1]), "ratio"),
        "core.final_ratio": Metric(ratio(stored_cqs, totals["interned_queries"]), "ratio"),
        "cache.put_s": Metric(seconds("cache.put"), "s"),
        "cache.puts": Metric(events.get("cache.puts", 0) / phases, "count"),
        "cache.open_s": Metric(seconds("cache.open"), "s"),
        "cache.get_s": Metric(seconds("cache.get"), "s"),
        "cache.gets": Metric(gets / phases, "count"),
        "cache.get_hit_ratio": Metric(ratio(events.get("cache.get_hits", 0), gets), "ratio"),
        "cache.store_bytes": Metric(store_bytes, "B"),
        "cache.bytes_per_cq": Metric(ratio(store_bytes, stored_cqs), "B"),
    }
