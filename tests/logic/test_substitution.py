"""Tests for substitutions."""

import pytest
from hypothesis import given

from repro.logic.atoms import Atom
from repro.logic.substitution import EMPTY_SUBSTITUTION, Substitution
from repro.logic.terms import Constant, Variable

from ..conftest import atoms as atoms_strategy

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = Constant("a"), Constant("b")


class TestConstruction:
    def test_identity_bindings_are_dropped(self):
        substitution = Substitution({X: X, Y: a})
        assert len(substitution) == 1
        assert X not in substitution

    def test_constants_cannot_be_remapped(self):
        with pytest.raises(ValueError):
            Substitution({a: b})

    def test_constant_identity_binding_is_allowed(self):
        assert len(Substitution({a: a})) == 0

    def test_empty_substitution_singleton_behaviour(self):
        assert len(EMPTY_SUBSTITUTION) == 0
        assert EMPTY_SUBSTITUTION.apply_term(X) == X


class TestApplication:
    def test_unmapped_terms_are_fixed_points(self):
        substitution = Substitution({X: a})
        assert substitution.apply_term(Y) == Y
        assert substitution.apply_term(b) == b

    def test_apply_atom(self):
        substitution = Substitution({X: a, Y: Z})
        assert substitution.apply_atom(Atom.of("r", X, Y)) == Atom.of("r", a, Z)

    def test_apply_atom_keeps_an_untouched_atom(self):
        atom = Atom.of("r", Y, b)
        assert Substitution({X: a}).apply_atom(atom) is atom
        assert EMPTY_SUBSTITUTION.apply_atom(atom) is atom

    def test_apply_atom_builds_a_new_atom_when_a_term_is_mapped(self):
        atom = Atom.of("r", Y, X)
        image = Substitution({X: a}).apply_atom(atom)
        assert image is not atom
        assert image == Atom.of("r", Y, a)
        assert hash(image) == hash(Atom.of("r", Y, a))

    @given(atoms_strategy())
    def test_apply_atom_agrees_with_termwise_image(self, atom):
        substitution = Substitution({X: a, Y: Z})
        expected = Atom(atom.predicate, tuple(substitution.apply_term(t) for t in atom.terms))
        image = substitution.apply_atom(atom)
        assert image == expected
        assert (image is atom) == (expected == atom)

    def test_apply_atoms_preserves_order(self):
        substitution = Substitution({X: a})
        atoms = (Atom.of("p", X), Atom.of("q", X, Y))
        assert substitution.apply_atoms(atoms) == (Atom.of("p", a), Atom.of("q", a, Y))

    def test_callable_dispatch(self):
        substitution = Substitution({X: a})
        assert substitution(X) == a
        assert substitution(Atom.of("p", X)) == Atom.of("p", a)
        assert substitution([X, Y]) == [a, Y]
        assert substitution((X,)) == (a,)
        assert substitution({Atom.of("p", X)}) == {Atom.of("p", a)}


class TestAlgebra:
    def test_compose_applies_left_then_right(self):
        first = Substitution({X: Y})
        second = Substitution({Y: a})
        composed = first.compose(second)
        assert composed.apply_term(X) == a
        assert composed.apply_term(Y) == a

    def test_compose_keeps_right_only_bindings(self):
        composed = Substitution({X: Y}).compose(Substitution({Z: b}))
        assert composed.apply_term(Z) == b

    def test_extend_conflicting_binding_is_rejected(self):
        substitution = Substitution({X: a})
        with pytest.raises(ValueError):
            substitution.extend(X, b)

    def test_extend_same_binding_is_idempotent(self):
        substitution = Substitution({X: a})
        assert substitution.extend(X, a) == substitution

    def test_restrict(self):
        substitution = Substitution({X: a, Y: b})
        restricted = substitution.restrict([X])
        assert restricted.domain() == {X}

    def test_domain_and_range(self):
        substitution = Substitution({X: a, Y: Z})
        assert substitution.domain() == {X, Y}
        assert substitution.range() == {a, Z}

    def test_is_renaming(self):
        assert Substitution({X: Y, Z: Variable("W")}).is_renaming()
        assert not Substitution({X: Y, Z: Y}).is_renaming()
        assert not Substitution({X: a}).is_renaming()

    def test_equality_and_hash(self):
        assert Substitution({X: a}) == Substitution({X: a})
        assert hash(Substitution({X: a})) == hash(Substitution({X: a}))
        assert Substitution({X: a}) == {X: a}

    def test_as_dict_copies(self):
        substitution = Substitution({X: a})
        mapping = substitution.as_dict()
        mapping[Y] = b
        assert Y not in substitution


class TestProperties:
    @given(atoms_strategy())
    def test_empty_substitution_is_identity_on_atoms(self, atom):
        assert EMPTY_SUBSTITUTION.apply_atom(atom) == atom

    @given(atoms_strategy())
    def test_application_is_deterministic(self, atom):
        substitution = Substitution({Variable("X"): Constant("a")})
        assert substitution.apply_atom(atom) == substitution.apply_atom(atom)
