"""The unfrozen NC check gives the verdict of the frozen one.

``NegativeConstraintPruner.violated_by`` and
``repro.queries.containment.body_maps_into`` search the query body as it
is, after a predicate filter.  The check they replaced froze the query
first (its variables became fresh constants) and searched every
constraint.  That check is kept here, as the oracle, and both must agree
on every candidate of the Table 1 runs with constraints and on a
hand-built set of positives.
"""

import pytest
from hypothesis import given, settings

from repro.core.nc_pruning import NegativeConstraintPruner
from repro.core.rewriter import TGDRewriter
from repro.dependencies.constraints import NegativeConstraint
from repro.logic.atoms import Atom
from repro.logic.homomorphism import has_homomorphism
from repro.logic.terms import Constant, Variable
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.queries.containment import body_maps_into
from repro.workloads import get_workload

from ..conftest import atom_sets, boolean_queries

A, B, C, D = Variable("A"), Variable("B"), Variable("C"), Variable("D")
X, Y = Variable("X"), Variable("Y")
c, d = Constant("c"), Constant("d")


def frozen_verdict(constraints, query):
    """The first constraint whose body maps into the frozen query body."""
    frozen_body, _ = query.freeze()
    for constraint in constraints:
        if has_homomorphism(constraint.body, frozen_body):
            return constraint
    return None


def checked_engine(theory, use_elimination):
    """An engine whose pruner checks every verdict against the oracle."""
    engine = TGDRewriter(
        theory, use_elimination=use_elimination, use_nc_pruning=True
    )
    pruner = engine.pruner
    unfrozen = pruner.violated_by
    checked = []

    def violated_by(query):
        verdict = unfrozen(query)
        assert verdict is frozen_verdict(pruner.constraints, query), query
        checked.append(verdict)
        return verdict

    pruner.violated_by = violated_by
    return engine, checked


class TestTable1Candidates:
    @pytest.mark.parametrize("use_elimination", [False, True], ids=["NY", "NY*"])
    @pytest.mark.parametrize("name", ["V", "S", "U", "A"])
    def test_every_candidate_agrees_with_the_frozen_check(self, name, use_elimination):
        workload = get_workload(name)
        assert workload.theory.negative_constraints
        engine, checked = checked_engine(workload.theory, use_elimination)
        for query_name in ("q1", "q2", "q3", "q4", "q5"):
            result = engine.rewrite(workload.query(query_name))
            assert result.statistics.pruned_by_constraints == 0
        assert checked and not any(checked)  # Table 1 prunes nothing


def nc(*atoms):
    return NegativeConstraint(atoms)


def cq(body, answer=()):
    return ConjunctiveQuery(body, answer)


#: (constraint, query, violated): each pair exercises one way an unfrozen
#: target could differ from a frozen one.
POSITIVES = [
    # A repeated NC variable needs a repeated query term.
    (nc(Atom.of("r", X, X)), cq([Atom.of("r", A, A), Atom.of("s", A)]), True),
    (nc(Atom.of("r", X, X)), cq([Atom.of("r", A, B), Atom.of("s", A)]), False),
    (nc(Atom.of("r", X, X)), cq([Atom.of("r", c, c)]), True),
    # An NC constant maps to itself only, never to a query variable.
    (nc(Atom.of("p", X, c)), cq([Atom.of("p", A, c)]), True),
    (nc(Atom.of("p", X, c)), cq([Atom.of("p", A, d)]), False),
    (nc(Atom.of("p", X, c)), cq([Atom.of("p", A, B)], (B,)), False),
    # NC variables named like the query's, in swapped roles.
    (nc(Atom.of("r", A, B), Atom.of("s", B)), cq([Atom.of("r", B, A), Atom.of("s", A)]), True),
    (nc(Atom.of("r", A, B), Atom.of("s", B)), cq([Atom.of("r", B, A), Atom.of("s", B)]), False),
    (nc(Atom.of("r", A, A)), cq([Atom.of("r", A, B), Atom.of("r", B, C)]), False),
    # Constants and answer variables in the candidate.
    (nc(Atom.of("t", X, Y), Atom.of("u", Y)), cq([Atom.of("t", A, c), Atom.of("u", c)], (A,)), True),
    (nc(Atom.of("t", X, Y), Atom.of("u", X)), cq([Atom.of("t", A, c), Atom.of("u", c)], (A,)), False),
    (nc(Atom.of("t", X, c), Atom.of("u", X)), cq([Atom.of("t", A, c), Atom.of("u", A)], (A,)), True),
    (nc(Atom.of("t", A, c)), cq([Atom.of("t", c, A)], (A,)), False),
    # Every NC predicate present, but no join between them.
    (nc(Atom.of("r", X, Y), Atom.of("s", Y)), cq([Atom.of("r", A, B), Atom.of("s", C)]), False),
    (nc(Atom.of("r", X, Y), Atom.of("s", Y)), cq([Atom.of("r", A, B), Atom.of("s", C), Atom.of("s", B)]), True),
    # A missing predicate: the filter's case.
    (nc(Atom.of("r", X, Y), Atom.of("s", Y)), cq([Atom.of("r", A, B), Atom.of("t", B)]), False),
]


class TestHandBuiltPositives:
    @pytest.mark.parametrize("constraint, query, violated", POSITIVES)
    def test_verdict_matches_the_frozen_check(self, constraint, query, violated):
        pruner = NegativeConstraintPruner([constraint])
        expected = constraint if violated else None
        assert frozen_verdict([constraint], query) is expected
        assert pruner.violated_by(query) is expected
        assert body_maps_into(constraint, query) is violated
        assert body_maps_into(constraint.as_query(), query) is violated

    def test_first_violated_constraint_is_reported(self):
        constraints = [constraint for constraint, _, _ in POSITIVES]
        pruner = NegativeConstraintPruner(constraints)
        for _, query, _ in POSITIVES:
            assert pruner.violated_by(query) is frozen_verdict(constraints, query)


@settings(max_examples=300, deadline=None)
@given(atom_sets(max_size=3), boolean_queries(max_atoms=5))
def test_random_bodies_agree_with_the_frozen_check(constraint_body, query):
    """Constraint and query draw from one pool of names, so they share variables."""
    constraint = NegativeConstraint(constraint_body)
    expected = frozen_verdict([constraint], query) is constraint
    assert body_maps_into(constraint, query) is expected
    assert NegativeConstraintPruner([constraint]).is_unsatisfiable(query) is expected
