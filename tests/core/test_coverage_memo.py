"""The coverage memo and its filters agree with the unmemoised reference.

``CoverageChecker.cover_set`` rejects atom pairs by predicate reachability
and condition (i) and memoises the chain search by pair shape;
``CoverageChecker.covers`` is the per-pair search without either.  Every
pair the Table 1 NY* runs and seeded linear fuzz cases put through
elimination must get the same answer from both.
"""

import sys
import threading

import pytest

from repro.core.coverage import CoverageChecker
from repro.core.rewriter import TGDRewriter
from repro.fuzzing.generator import GeneratorConfig, WorkloadGenerator
from repro.workloads import get_workload

TABLE1 = ("V", "S", "U", "A", "P5")


def reference_cover_set(checker, target, query):
    return frozenset(
        atom
        for atom in query.body
        if atom != target and checker.covers(atom, target, query) is not None
    )


def checked_engine(rules):
    """An NY* engine that compares every candidate's cover sets with the reference.

    Both the per-query form elimination calls (``cover_sets``) and the
    per-target form (``cover_set``) are checked on every body atom.
    """
    engine = TGDRewriter(rules, use_elimination=True)
    checker = engine.eliminator.checker
    memoised = checker.cover_sets
    checked = []

    def cover_sets(query):
        produced = memoised(query)
        for target in query.body:
            expected = reference_cover_set(checker, target, query)
            assert produced[target] == expected, (target, query)
            assert checker.cover_set(target, query) == expected, (target, query)
        checked.append(query)
        return produced

    checker.cover_sets = cover_sets
    return engine, checked


class TestMemoAgreesWithReference:
    @pytest.mark.parametrize("name", TABLE1)
    def test_table1_ny_star_candidates(self, name):
        workload = get_workload(name)
        engine, checked = checked_engine(workload.theory.tgds)
        for query_name in workload.query_names:
            engine.rewrite(workload.query(query_name))
        assert checked  # every workload puts candidates through elimination

    def test_seeded_linear_cases(self):
        generator = WorkloadGenerator(seed=7, config=GeneratorConfig(fragment="linear"))
        eliminated = memo_hits = 0
        for case in generator.cases(40):
            rules = list(case.theory.tgds)
            checked_engine(rules)[0].rewrite(case.query)
            plain = TGDRewriter(rules, use_elimination=True)
            eliminated += plain.rewrite(case.query).statistics.eliminated_atoms
            memo_hits += plain.eliminator.checker.hits
        # The window exercises both covered pairs and memo hits.
        assert eliminated > 0 and memo_hits > 0


class TestMemoCounters:
    """The filters and the memo are deterministic: counters repeat exactly."""

    @staticmethod
    def counters():
        workload = get_workload("P5")
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        for query_name in ("q1", "q2", "q3", "q4", "q5"):
            engine.rewrite(workload.query(query_name))
        checker = engine.eliminator.checker
        return {
            "memo_size": checker.memo_size,
            "hits": checker.hits,
            "misses": checker.misses,
            "unreachable_pairs": checker.unreachable_pairs,
            "condition_i_pairs": checker.condition_i_pairs,
        }

    def test_p5_counters_are_pinned_and_repeat(self):
        first = self.counters()
        assert first == {
            "memo_size": 22,
            "hits": 1096,
            "misses": 22,
            "unreachable_pairs": 53100,
            "condition_i_pairs": 12078,
        }
        assert self.counters() == first


class TestSharedAcrossThreads:
    def test_threads_lose_no_counter_update_and_agree(self):
        workload = get_workload("P5")
        engine = TGDRewriter(workload.theory.tgds)
        queries = list(engine.rewrite(workload.query("q3")).ucq)
        checker = CoverageChecker(engine.rules)
        expected = [CoverageChecker(engine.rules).cover_sets(q) for q in queries]
        workers, rounds = 8, 40
        results: dict[int, list] = {}

        def work(index):
            for _ in range(rounds):
                results[index] = [checker.cover_sets(q) for q in queries]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(results[i] == expected for i in range(workers))
        pairs = workers * rounds * sum(len(q.body) * (len(q.body) - 1) for q in queries)
        counted = (
            checker.hits
            + checker.misses
            + checker.unreachable_pairs
            + checker.condition_i_pairs
        )
        assert counted == pairs
