"""Tests for conjunctive queries."""

import pytest
from hypothesis import given

from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.queries.conjunctive_query import ConjunctiveQuery, boolean_query

from ..conftest import boolean_queries

A, B, C, D = Variable("A"), Variable("B"), Variable("C"), Variable("D")
a, b = Constant("a"), Constant("b")


class TestConstruction:
    def test_duplicate_body_atoms_are_collapsed(self):
        query = ConjunctiveQuery([Atom.of("r", A, B), Atom.of("r", A, B)], ())
        assert len(query.body) == 1

    def test_body_order_is_preserved(self):
        query = ConjunctiveQuery([Atom.of("p", A), Atom.of("q", A, B)], ())
        assert [atom.name for atom in query.body] == ["p", "q"]

    def test_answer_variable_must_occur_in_body(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([Atom.of("p", A)], (B,))

    def test_missing_answer_variable_is_rejected_among_several(self):
        body = [Atom.of("r", A, B), Atom.of("p", C)]
        for answer in ((A, D), (D, A), (A, b, D), (A, B, C, D)):
            with pytest.raises(ValueError, match="does not occur"):
                ConjunctiveQuery(body, answer)
        assert ConjunctiveQuery(body, (C, a, A, B, A)).answer_terms == (C, a, A, B, A)

    def test_answer_constant_need_not_occur_in_body(self):
        assert ConjunctiveQuery([Atom.of("p", A)], (b, A)).answer_terms == (b, A)

    def test_duplicates_keep_the_first_occurrence_in_order(self):
        first, second = Atom.of("r", A, B), Atom.of("p", A)
        again = Atom.of("r", A, B)
        query = ConjunctiveQuery([first, second, again, second], (A,))
        assert query.body == (first, second)
        assert query.body[0] is first

    def test_answer_constants_are_allowed(self):
        query = ConjunctiveQuery([Atom.of("p", A)], (a,))
        assert query.answer_terms == (a,)

    def test_boolean_query_helper(self):
        query = boolean_query([Atom.of("p", A)])
        assert query.is_boolean
        assert query.arity == 0

    def test_head_atom(self):
        query = ConjunctiveQuery([Atom.of("r", A, B)], (A, B), head_name="ans")
        assert query.head == Atom.of("ans", A, B)


class TestVariableClassification:
    def setup_method(self):
        # q(A) <- r(A, B), s(B, C), p(a)
        self.query = ConjunctiveQuery(
            [Atom.of("r", A, B), Atom.of("s", B, C), Atom.of("p", a)], (A,)
        )

    def test_variables(self):
        assert self.query.variables == {A, B, C}

    def test_answer_and_existential_variables(self):
        assert self.query.answer_variables == {A}
        assert self.query.existential_variables == {B, C}

    def test_constants(self):
        assert self.query.constants == {a}

    def test_shared_variables_count_head_occurrences(self):
        # A occurs once in the body and once in the head -> shared (the paper
        # counts head occurrences for non-Boolean CQs).
        assert self.query.is_shared(A)
        assert self.query.is_shared(B)
        assert not self.query.is_shared(C)
        assert not self.query.is_shared(a)

    def test_variable_occurrences(self):
        occurrences = self.query.variable_occurrences
        assert occurrences[A] == 2
        assert occurrences[B] == 2
        assert occurrences[C] == 1

    def test_boolean_query_sharing_ignores_missing_head(self):
        query = ConjunctiveQuery([Atom.of("r", A, B), Atom.of("s", B, C)], ())
        assert query.is_shared(B)
        assert not query.is_shared(A)


class TestTransformations:
    def test_apply_substitutes_body_and_head(self):
        query = ConjunctiveQuery([Atom.of("r", A, B)], (A,))
        image = query.apply(Substitution({A: C}))
        assert image.body == (Atom.of("r", C, B),)
        assert image.answer_terms == (C,)

    def test_apply_accepts_plain_mappings(self):
        query = ConjunctiveQuery([Atom.of("r", A, B)], ())
        assert query.apply({A: a}).body == (Atom.of("r", a, B),)

    def test_replace_atoms(self):
        query = ConjunctiveQuery([Atom.of("r", A, B), Atom.of("p", A)], (A,))
        replaced = query.replace_atoms([Atom.of("p", A)], [Atom.of("q", A, C)])
        assert Atom.of("q", A, C) in replaced.body
        assert Atom.of("p", A) not in replaced.body

    def test_drop_atoms(self):
        query = ConjunctiveQuery([Atom.of("r", A, B), Atom.of("p", A)], (A,))
        assert query.drop_atoms([Atom.of("p", A)]).body == (Atom.of("r", A, B),)

    def test_with_body(self):
        query = ConjunctiveQuery([Atom.of("r", A, B)], (A,))
        rebuilt = query.with_body([Atom.of("s", A, C)])
        assert rebuilt.body == (Atom.of("s", A, C),)
        assert rebuilt.answer_terms == (A,)

    def test_rename_variables_produces_variant(self):
        query = ConjunctiveQuery([Atom.of("r", A, B), Atom.of("s", B, C)], (A,))
        renamed = query.rename_variables(prefix="N")
        assert renamed.is_variant_of(query)
        assert renamed.variables.isdisjoint({B, C}) or renamed.variables == query.variables

    def test_freeze_produces_ground_body(self):
        query = ConjunctiveQuery([Atom.of("r", A, B)], (A,))
        frozen_body, freezing = query.freeze()
        assert all(atom.is_fact() for atom in frozen_body)
        assert freezing.apply_term(A) != A


class TestVariants:
    def test_renamed_queries_are_variants(self):
        first = ConjunctiveQuery([Atom.of("r", A, B)], (A,))
        second = ConjunctiveQuery([Atom.of("r", C, D)], (C,))
        assert first.is_variant_of(second)
        assert second.is_variant_of(first)

    def test_head_must_be_mapped_positionally(self):
        first = ConjunctiveQuery([Atom.of("r", A, B)], (A,))
        second = ConjunctiveQuery([Atom.of("r", C, D)], (D,))
        assert not first.is_variant_of(second)

    def test_different_arities_are_never_variants(self):
        first = ConjunctiveQuery([Atom.of("r", A, B)], (A,))
        second = ConjunctiveQuery([Atom.of("r", A, B)], (A, B))
        assert not first.is_variant_of(second)

    def test_structurally_different_bodies_are_not_variants(self):
        first = ConjunctiveQuery([Atom.of("r", A, A)], ())
        second = ConjunctiveQuery([Atom.of("r", A, B)], ())
        assert not first.is_variant_of(second)

    def test_constants_distinguish_variants(self):
        first = ConjunctiveQuery([Atom.of("r", A, a)], ())
        second = ConjunctiveQuery([Atom.of("r", A, b)], ())
        assert not first.is_variant_of(second)

    def test_signature_is_invariant_under_renaming(self):
        first = ConjunctiveQuery([Atom.of("r", A, B), Atom.of("p", B)], (A,))
        second = first.rename_variables(prefix="Z")
        assert first.signature == second.signature


class TestVariantProperties:
    @given(boolean_queries())
    def test_every_query_is_a_variant_of_itself(self, query):
        assert query.is_variant_of(query)

    @given(boolean_queries())
    def test_renaming_preserves_variance(self, query):
        assert query.rename_variables(prefix="H").is_variant_of(query)
