"""Pruning the rewriting with negative constraints (Section 5.1).

Under the standing assumption that the theory ``D ∪ Σ ∪ Σ⊥`` is consistent,
any CQ generated during the rewriting whose body embeds the body of a
negative constraint can never be entailed by ``chase(D, Σ)`` — evaluating it
would witness a violation of the constraint.  Such queries (and everything
that would be generated from them) can therefore be dropped from the
rewriting without affecting completeness, further shrinking the output.

If the *input* query itself embeds a constraint body, the rewriting is the
empty UCQ: the query is unsatisfiable w.r.t. every consistent database.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..dependencies.constraints import NegativeConstraint
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.containment import body_maps_into, body_predicates


class NegativeConstraintPruner:
    """Checks queries against a set of negative constraints."""

    def __init__(self, constraints: Iterable[NegativeConstraint]) -> None:
        self._constraints = tuple(constraints)
        self._checks = tuple(
            (constraint, body_predicates(constraint.body))
            for constraint in self._constraints
        )

    @property
    def constraints(self) -> tuple[NegativeConstraint, ...]:
        """The negative constraints used for pruning."""
        return self._constraints

    def violated_by(self, query: ConjunctiveQuery) -> NegativeConstraint | None:
        """Return a constraint whose body maps into ``body(query)``, if any.

        This answers the constraint's BCQ on the canonical database of the
        query, through :func:`repro.queries.containment.body_maps_into`:
        the query body is searched unfrozen (exact, see there), and only
        for constraints whose body predicates, precomputed here, all occur
        in it — the query's predicate set is built once per call.
        """
        present = body_predicates(query.body)
        for constraint, predicates in self._checks:
            if body_maps_into(constraint, query, predicates, present):
                return constraint
        return None

    def is_unsatisfiable(self, query: ConjunctiveQuery) -> bool:
        """``True`` iff the query can be pruned (it embeds some constraint body)."""
        return self.violated_by(query) is not None


def prune_unsatisfiable(
    queries: Sequence[ConjunctiveQuery],
    constraints: Iterable[NegativeConstraint],
) -> list[ConjunctiveQuery]:
    """Filter out the queries that embed the body of some negative constraint."""
    pruner = NegativeConstraintPruner(constraints)
    return [query for query in queries if not pruner.is_unsatisfiable(query)]
