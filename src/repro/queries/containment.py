"""Conjunctive-query containment and equivalence.

The classical Chandra–Merlin characterisation: ``q1 ⊑ q2`` (every answer of
``q1`` over every database is an answer of ``q2``) iff there is a
*containment mapping* from ``q2`` to ``q1``: a homomorphism from
``body(q2)`` to ``body(q1)`` that maps the answer terms of ``q2``
position-wise onto the answer terms of ``q1``.

Containment is used to

* remove subsumed CQs from a UCQ rewriting (for a fair size comparison with
  systems that prune subsumed queries),
* implement the chase & back-chase baseline (Section 2), and
* state the correctness tests of the rewriting algorithms.

Because subsumption removal probes the *same* target query against many
candidate subsumers (quadratically many pairs over a rewriting), the hot
path is index-guided: a :class:`ContainmentIndex` freezes a query once and
pre-computes predicate buckets and argument signatures, so every probe

1. runs a cheap *necessary-condition pre-filter* — the candidate's
   predicates must all occur in the target, its answer-term constants must
   match position-wise, and every candidate atom must have at least one
   signature-compatible target atom under the answer-variable anchoring —
   before any backtracking homomorphism search starts, and
2. reuses the frozen body and its predicate→atoms hash index inside the
   search itself (most-constrained-atom-first ordering is applied by
   :func:`repro.logic.homomorphism.homomorphisms`).

The pre-filters only ever skip pairs for which the homomorphism search
would fail, so indexed and naive containment agree everywhere; the
:class:`SubsumptionStatistics` counters make the saved searches
observable (and are pinned by the regression tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable

from ..logic.atoms import Atom, Predicate
from ..logic.flat import FlatTarget
from ..logic.homomorphism import find_homomorphism, has_homomorphism
from ..logic.substitution import Substitution
from ..logic.terms import Term, is_constant
from .conjunctive_query import ConjunctiveQuery


@dataclass
class SubsumptionStatistics:
    """Counters describing containment probes (see ``remove_subsumed``).

    ``pairs_considered`` counts every containment question asked;
    ``canonical_fast_paths`` the ones answered by canonical-key equality
    alone; ``skipped_by_prefilter`` the ones refuted by the
    necessary-condition pre-filters; ``homomorphism_searches`` the ones
    that actually reached the backtracking search.  The whole point of
    the index is ``homomorphism_searches < pairs_considered``.
    """

    pairs_considered: int = 0
    canonical_fast_paths: int = 0
    skipped_by_prefilter: int = 0
    homomorphism_searches: int = 0


class ContainmentIndex:
    """Target-side index of one CQ, reused across many containment probes.

    Freezing the query (replacing its variables by fresh constants — the
    canonical-database construction) and indexing the frozen body are
    done once here instead of once per probed pair.  The index also
    carries the argument signatures used by the pre-filter:
    ``(predicate, position, frozen term)`` triples, probed by hash.
    """

    __slots__ = (
        "query",
        "frozen_body",
        "frozen_answer",
        "unfreeze",
        "atoms_by_predicate",
        "argument_signatures",
        "predicate_set",
        "flat_target",
    )

    def __init__(self, query: ConjunctiveQuery) -> None:
        self.query = query
        frozen_body, freezing = query.freeze()
        self.frozen_body: tuple[Atom, ...] = frozen_body
        self.frozen_answer: tuple[Term, ...] = tuple(
            freezing.apply_term(term) for term in query.answer_terms
        )
        self.unfreeze: dict[Term, Term] = {
            value: key for key, value in freezing.as_dict().items()
        }
        atoms_by_predicate: dict[Predicate, list[Atom]] = {}
        signatures: set[tuple[Predicate, int, Term]] = set()
        for atom in frozen_body:
            atoms_by_predicate.setdefault(atom.predicate, []).append(atom)
            for position, term in enumerate(atom.terms):
                signatures.add((atom.predicate, position, term))
        self.atoms_by_predicate: dict[Predicate, tuple[Atom, ...]] = {
            predicate: tuple(atoms)
            for predicate, atoms in atoms_by_predicate.items()
        }
        self.argument_signatures = signatures
        self.predicate_set: frozenset[Predicate] = frozenset(self.atoms_by_predicate)
        # Interned once with the rest of the index: subsumption removal
        # probes this target quadratically often, and the flat search
        # reuses the encoding on every probe (it is frozen, so sharing is
        # safe even across threads).
        self.flat_target = FlatTarget(self.atoms_by_predicate)

    # -- the necessary-condition pre-filter --------------------------------

    def _seed(self, container: ConjunctiveQuery) -> dict[Term, Term] | None:
        """The partial mapping forced by the answer terms, or ``None``.

        A containment mapping must send ``container``'s answer terms
        position-wise onto this query's (frozen) answer terms; constants
        must match and a repeated answer variable must map consistently.
        """
        partial: dict[Term, Term] = {}
        for source_term, frozen_target in zip(
            container.answer_terms, self.frozen_answer
        ):
            if is_constant(source_term):
                if source_term != frozen_target:
                    return None
                continue
            existing = partial.get(source_term)
            if existing is not None and existing != frozen_target:
                return None
            partial[source_term] = frozen_target
        return partial

    def admits_mapping_from(
        self, container: ConjunctiveQuery, partial: dict[Term, Term]
    ) -> bool:
        """Cheap necessary condition for a containment mapping to exist.

        ``True`` is inconclusive; ``False`` proves there is no
        homomorphism from ``container.body`` into the frozen body that
        extends *partial*: some container atom has no target atom of the
        same predicate that agrees with the atom's constants, its
        repeated variables, and the answer-variable anchoring.  Runs in
        time linear in ``container``'s body (hash probes only, no
        backtracking).
        """
        for atom in container.body:
            candidates = self.atoms_by_predicate.get(atom.predicate)
            if not candidates:
                return False
            compatible = False
            for candidate in candidates:
                bound = dict(partial)
                matches = True
                for source_term, target_term in zip(atom.terms, candidate.terms):
                    if is_constant(source_term):
                        if source_term != target_term:
                            matches = False
                            break
                        continue
                    existing = bound.get(source_term)
                    if existing is None:
                        bound[source_term] = target_term
                    elif existing != target_term:
                        matches = False
                        break
                if matches:
                    compatible = True
                    break
            if not compatible:
                return False
        return True


def containment_mapping(
    container: ConjunctiveQuery,
    contained: ConjunctiveQuery,
    *,
    index: ContainmentIndex | None = None,
    statistics: SubsumptionStatistics | None = None,
    prefilter: bool = True,
) -> Substitution | None:
    """Find a containment mapping from *container* into *contained*.

    Returns a homomorphism ``h`` with ``h(body(container)) ⊆ body(contained)``
    and ``h(head(container)) = head(contained)``, witnessing
    ``contained ⊑ container``; ``None`` if no such mapping exists.

    The terms of *contained* are treated as frozen (its variables play the
    role of constants), which is exactly the canonical-database argument.

    *index* may carry a pre-built :class:`ContainmentIndex` of *contained*
    (one is built on the fly otherwise); *statistics* records how the
    probe was resolved; ``prefilter=False`` disables the
    necessary-condition filters (the naive search used for differential
    testing — the outcome is identical either way, only the number of
    backtracking searches differs).
    """
    if container.arity != contained.arity:
        return None
    if index is None:
        index = ContainmentIndex(contained)
    partial = index._seed(container)
    if partial is None:
        # The answer-term anchoring is part of the containment-mapping
        # definition, not an optimisation: both the naive and the indexed
        # path stop here without a search, but only the indexed one books
        # the refutation as a pre-filter skip.
        if statistics is not None and prefilter:
            statistics.skipped_by_prefilter += 1
        return None
    if prefilter and not index.admits_mapping_from(container, partial):
        if statistics is not None:
            statistics.skipped_by_prefilter += 1
        return None
    if statistics is not None:
        statistics.homomorphism_searches += 1
    hom = find_homomorphism(
        container.body,
        index.frozen_body,
        partial=partial,
        index=index.atoms_by_predicate,
        flat_target=index.flat_target,
    )
    if hom is None:
        return None
    # Translate frozen constants back to the original terms of *contained*.
    unfreeze = index.unfreeze
    mapping = {
        key: unfreeze.get(value, value) for key, value in hom.as_dict().items()
    }
    return Substitution(mapping)


def is_contained_in(
    query: ConjunctiveQuery,
    other: ConjunctiveQuery,
    *,
    index: ContainmentIndex | None = None,
    statistics: SubsumptionStatistics | None = None,
    prefilter: bool = True,
) -> bool:
    """``True`` iff ``query ⊑ other`` (every answer of *query* is one of *other*).

    *index*, when given, must be the :class:`ContainmentIndex` of *query*
    (the containment target).  With ``prefilter`` on, equal *exact*
    canonical fingerprints short-circuit the probe: two exact queries
    with one canonical key are variants, hence equivalent, hence
    mutually contained — no search needed.
    """
    if statistics is not None:
        statistics.pairs_considered += 1
    if prefilter and query.arity == other.arity:
        query_key, query_exact = query.canonical_fingerprint
        other_key, other_exact = other.canonical_fingerprint
        if query_exact and other_exact and query_key == other_key:
            if statistics is not None:
                statistics.canonical_fast_paths += 1
            return True
    return (
        containment_mapping(
            other, query, index=index, statistics=statistics, prefilter=prefilter
        )
        is not None
    )


def are_equivalent(query: ConjunctiveQuery, other: ConjunctiveQuery) -> bool:
    """``True`` iff the two CQs are logically equivalent."""
    return is_contained_in(query, other) and is_contained_in(other, query)


def body_predicates(atoms: Iterable[Atom]) -> set[Predicate]:
    """The predicates of *atoms* (the filter sets of :func:`body_maps_into`)."""
    return {atom.predicate for atom in atoms}


def body_maps_into(
    source,
    target: ConjunctiveQuery,
    source_predicates: AbstractSet[Predicate] | None = None,
    target_predicates: AbstractSet[Predicate] | None = None,
) -> bool:
    """``True`` iff ``body(source)`` has a homomorphism into ``body(target)``.

    *source* is anything with a ``body`` — a CQ, or a negative constraint
    when pruning (Section 5.1).  The answer terms are ignored.

    The target is searched as it is, not frozen, and the verdict is the
    frozen one: the search keys its mapping on source terms only, a source
    constant must map to itself, and a constant never equals a variable, so
    the target's variables admit exactly the images the fresh constants of
    its canonical database would.  Before searching, the predicate filter
    rejects a pair when some source predicate is missing from the target:
    that source atom has no candidate, so the search would fail anyway.
    Callers probing many pairs pass the two predicate sets (see
    :func:`body_predicates`) instead of having them rebuilt per call.
    """
    if source_predicates is None:
        source_predicates = body_predicates(source.body)
    if target_predicates is None:
        target_predicates = body_predicates(target.body)
    if not source_predicates <= target_predicates:
        return False
    return has_homomorphism(source.body, target.body)
