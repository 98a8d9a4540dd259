"""The differential oracles: clean cases pass, planted bugs are caught."""

import pytest

from repro.core import nc_pruning
from repro.core.coverage import CoverageChecker
from repro.core.rewriter import TGDRewriter
from repro.fuzzing.generator import GeneratorConfig, WorkloadGenerator
from repro.fuzzing.oracle import (
    DifferentialOracle,
    answer_diff,
    derive_constraints,
    format_answer_diff,
)
from repro.queries.ucq import UnionOfConjunctiveQueries


@pytest.fixture(scope="module")
def oracle():
    return DifferentialOracle()


class TestCleanCases:
    @pytest.mark.parametrize("fragment", ["linear", "sticky", "sticky-join"])
    def test_generated_cases_pass_all_oracles(self, oracle, fragment):
        config = GeneratorConfig(fragment=fragment)
        for case in WorkloadGenerator(seed=0, config=config).cases(3):
            verdict = oracle.check(case)
            assert verdict.skipped is None, verdict.summary()
            assert verdict.ok, verdict.summary()

    def test_verdict_carries_measurements(self, oracle):
        verdict = oracle.check(WorkloadGenerator(seed=0).case(0))
        assert verdict.generations >= 1
        assert verdict.rewriting_size >= 1

    def test_failure_predicate_none_on_clean_case(self, oracle):
        assert oracle.failure(WorkloadGenerator(seed=0).case(0)) is None


class TestPlantedBug:
    def _mutator(self, ucq: UnionOfConjunctiveQueries):
        # Drop the last CQ of any multi-CQ rewriting: an unsound
        # rewriting that loses certain answers but stays deterministic.
        queries = list(ucq.queries)
        if len(queries) > 1:
            queries = queries[:-1]
        return UnionOfConjunctiveQueries(queries)

    def _failing_case(self, buggy):
        for index in range(20):
            case = WorkloadGenerator(seed=42).case(index)
            verdict = buggy.check(case)
            if not verdict.ok:
                return case, verdict
        pytest.fail("no generated case exposed the planted bug in 20 tries")

    def test_chase_oracle_catches_dropped_cq(self):
        buggy = DifferentialOracle(rewriting_mutator=self._mutator)
        case, verdict = self._failing_case(buggy)
        assert any(f.oracle == "chase" for f in verdict.failures), (
            verdict.summary()
        )
        # The mutation is uniform, so determinism must NOT fire: the bug
        # is in the rewriting, not in the scheduling.
        assert not any(f.oracle == "determinism" for f in verdict.failures)
        # And the clean oracle agrees the same case is fine.
        assert DifferentialOracle().check(case).ok

    def test_failure_predicate_reports_planted_bug(self):
        buggy = DifferentialOracle(rewriting_mutator=self._mutator)
        case, _ = self._failing_case(buggy)
        failure = buggy.failure(case)
        assert failure is not None and failure.oracle == "chase"


class TestEliminationLeg:
    def test_unsound_elimination_is_caught_by_the_elimination_oracle(self, monkeypatch):
        # Plant a bug only TGD-rewrite* can see: coverage decided by
        # condition (i) alone, without the chain of condition (ii).
        def condition_i_only(self, target, query):
            shared = self._relevant_terms(target, query)
            return frozenset(
                atom
                for atom in query.body
                if atom != target and all(term in atom.terms for term in shared)
            )

        monkeypatch.setattr(CoverageChecker, "cover_set", condition_i_only)
        oracle = DifferentialOracle(strategies=("sequential",))
        config = GeneratorConfig(fragment="linear")
        for case in WorkloadGenerator(seed=42, config=config).cases(20):
            verdict = oracle.check(case)
            if not verdict.ok:
                assert {f.oracle for f in verdict.failures} == {"elimination"}, (
                    verdict.summary()
                )
                return
        pytest.fail("no generated case exposed the planted elimination bug")


class TestConstraintLeg:
    @pytest.mark.parametrize("fragment", ["linear", "sticky", "sticky-join"])
    def test_fuzz_smoke_cases_prune(self, oracle, fragment):
        # Table 1 never prunes, so the derived constraints must: the
        # `make fuzz-smoke` cases (seed 0, five per fragment) do.
        config = GeneratorConfig(fragment=fragment)
        pruned = 0
        for case in WorkloadGenerator(seed=0, config=config).cases(5):
            verdict = oracle.check(case)
            assert verdict.ok, verdict.summary()
            pruned += verdict.pruned_by_constraints
        assert pruned > 0

    def test_derivation_is_deterministic_and_leaves_the_case_alone(self):
        generator = WorkloadGenerator(seed=3, config=GeneratorConfig(fragment="sticky"))
        for index in range(5):
            case = generator.case(index)
            facts = sorted(case.instance.facts, key=repr)
            ucq = TGDRewriter(case.theory.tgds).rewrite(case.query).ucq
            first = derive_constraints(case, ucq)
            assert len(first) <= 2
            assert derive_constraints(case, ucq) == first
            assert case == generator.case(index)
            assert sorted(case.instance.facts, key=repr) == facts
            assert not case.theory.negative_constraints

    def test_predicate_filter_alone_is_caught_by_the_constraint_oracle(self, monkeypatch):
        # Plant a bug only NC pruning can see: a constraint "embeds" into
        # any query holding its predicates, joined or not.
        def predicates_only(source, target, source_predicates, target_predicates):
            return source_predicates <= target_predicates

        monkeypatch.setattr(nc_pruning, "body_maps_into", predicates_only)
        oracle = DifferentialOracle(strategies=("sequential",))
        for fragment in ("linear", "sticky", "sticky-join"):
            config = GeneratorConfig(fragment=fragment)
            for case in WorkloadGenerator(seed=42, config=config).cases(20):
                verdict = oracle.check(case)
                if not verdict.ok:
                    assert {f.oracle for f in verdict.failures} == {"constraints"}, (
                        verdict.summary()
                    )
                    return
        pytest.fail("no generated case exposed the planted pruning bug")


class TestOracleConfig:
    def test_needs_a_strategy_and_a_backend(self):
        with pytest.raises(ValueError, match="strategy"):
            DifferentialOracle(strategies=())
        with pytest.raises(ValueError, match="backend"):
            DifferentialOracle(backends=())

    def test_tiny_budget_skips_not_fails(self):
        tight = DifferentialOracle(max_queries=1)
        verdict = tight.check(WorkloadGenerator(seed=0).case(2))
        if verdict.skipped is not None:
            assert "budget" in verdict.skipped
            assert verdict.ok  # a skip is not a failure


class TestAnswerDiff:
    def test_diff_is_minimal_and_sorted(self):
        left = frozenset({("a",), ("b",), ("c",)})
        right = frozenset({("b",), ("d",)})
        only_left, only_right = answer_diff(left, right)
        assert only_left == [("a",), ("c",)]
        assert only_right == [("d",)]

    def test_format_shows_only_differences(self):
        left = frozenset({(i,) for i in range(100)})
        right = frozenset(left - {(7,)})
        text = format_answer_diff("memory", left, "sqlite", right)
        assert "only in memory: (7,)" in text
        assert "(8,)" not in text  # shared tuples never printed

    def test_format_truncates_long_diffs(self):
        left = frozenset({(i,) for i in range(50)})
        text = format_answer_diff("l", left, "r", frozenset(), limit=3)
        assert "(50 total)" in text

    def test_format_reports_agreement(self):
        same = frozenset({("x",)})
        assert "agree" in format_answer_diff("l", same, "r", same)
