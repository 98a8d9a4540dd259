"""Atom coverage (Definition 5) — the heart of query elimination.

An atom ``a`` of a query *covers* another atom ``b`` (``a ≺ b``) when ``b``
is logically implied by ``a`` with respect to the given set of **linear**
TGDs, as witnessed by

* condition (i): every shared variable / constant of ``b`` also occurs in
  ``a`` (so dropping ``b`` loses no constant and no join except the one with
  ``a``), and
* condition (ii): a chain of TGDs ``σ1, ..., σk−1`` whose equality types
  propagate (``eq(body(σ1)) ⊆ eq(a)`` and
  ``eq(body(σj+1)) ⊆ eq(head(σj))``) and whose dependency-graph paths carry
  every shared term of ``b`` from its positions in ``a`` to its positions in
  ``b``.

We require a *single common chain* for all shared terms of ``b``, and some
chain from ``pred(a)`` to ``pred(b)`` even when ``b`` has no shared terms;
``docs/ARCHITECTURE.md`` (query elimination) gives the reasons.

:meth:`CoverageChecker.cover_set` decides each atom pair behind two exact
filters — predicate reachability and condition (i) — and memoises the chain
search by the renaming-invariant shape of the pair;
:meth:`CoverageChecker.covers` is the unmemoised per-pair reference that
also returns the witness chain.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..logic.atoms import Atom, Position, Predicate
from ..logic.terms import Term, is_constant
from ..logic.unification import AtomProfile, atom_sequence_profile
from ..dependencies.tgd import TGD
from ..dependencies.classifiers import is_linear
from ..queries.conjunctive_query import ConjunctiveQuery
from .dependency_graph import DependencyGraph
from .equality_types import equality_type


@dataclass(frozen=True)
class CoverageWitness:
    """A chain of TGDs witnessing ``a ≺ b``."""

    source: Atom
    target: Atom
    chain: tuple[TGD, ...]


class CoverageChecker:
    """Decides the coverage relation ``≺`` for a fixed set of linear TGDs.

    The dependency graph, the per-rule equality types and the predicate
    reachability closure are computed once.  ``covers(a, b, query)`` runs a
    breadth-first search over chain states, polynomial for a fixed rule set;
    ``cover_set`` answers most pairs without one (the filters and the memo
    below), which is what makes the paper's constant-time-per-pair reading
    hold in practice.

    ``hits``/``misses`` count chain searches answered from the shape memo /
    actually run; ``unreachable_pairs`` and ``condition_i_pairs`` count
    pairs the two filters rejected before any search.  The memo and the
    counters are shared by every thread expanding with this checker, so
    they are updated under a lock.
    """

    def __init__(self, rules: Sequence[TGD], max_states: int = 100_000) -> None:
        rules = list(rules)
        if not is_linear(rules):
            raise ValueError(
                "query elimination (atom coverage) is only sound for linear TGDs"
            )
        for rule in rules:
            if not rule.is_normalized:
                raise ValueError(f"rule {rule!r} must be normalised first")
        self._rules = tuple(rules)
        self._graph = DependencyGraph(rules)
        self._max_states = max_states
        # Chain steps per body predicate, in rule order: the rule, the
        # equalities of eq(body(rule)), its head predicate and the
        # equalities of eq(head(rule)).
        self._steps: dict[Predicate, list[tuple[TGD, frozenset, Predicate, frozenset]]] = {}
        for rule in self._rules:
            body_atom, head_atom = rule.body[0], rule.head[0]
            self._steps.setdefault(body_atom.predicate, []).append(
                (
                    rule,
                    equality_type(body_atom).equalities,
                    head_atom.predicate,
                    equality_type(head_atom).equalities,
                )
            )
        # _reaching[p]: the predicates from which a chain of one or more
        # rules leads to p (transitive closure of the body -> head edges).
        heads = {
            body: {head for _, _, head, _ in steps} for body, steps in self._steps.items()
        }
        reaching: dict[Predicate, set[Predicate]] = {}
        for source in heads:
            pending, seen = [source], set()
            while pending:
                for head in heads.get(pending.pop(), ()):
                    if head not in seen:
                        seen.add(head)
                        pending.append(head)
            for target in seen:
                reaching.setdefault(target, set()).add(source)
        self._reaching = {target: frozenset(sources) for target, sources in reaching.items()}
        self._memo: dict[AtomProfile, bool] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.unreachable_pairs = 0
        self.condition_i_pairs = 0

    @property
    def graph(self) -> DependencyGraph:
        """The dependency graph of the rule set."""
        return self._graph

    @property
    def rules(self) -> tuple[TGD, ...]:
        """The rule set."""
        return self._rules

    @property
    def memo_size(self) -> int:
        """Number of distinct pair shapes in the memo."""
        return len(self._memo)

    # -- the coverage relation ---------------------------------------------------

    def covers(
        self, source: Atom, target: Atom, query: ConjunctiveQuery
    ) -> CoverageWitness | None:
        """Return a witness for ``source ≺ target`` w.r.t. *query*, or ``None``.

        *source* and *target* must be distinct atoms of ``body(query)``.
        Never memoised: this is the reference :meth:`cover_set` must agree with.
        """
        if source == target:
            return None
        shared_terms = self._relevant_terms(target, query)
        # Condition (i): every shared term of the target occurs in the source.
        source_terms = set(source.terms)
        for term in shared_terms:
            if term not in source_terms:
                return None
        chain = self._find_chain(source, target, shared_terms)
        if chain is None:
            return None
        return CoverageWitness(source, target, chain)

    def cover_set(
        self, target: Atom, query: ConjunctiveQuery
    ) -> frozenset[Atom]:
        """``cover(target)``: the body atoms of *query* that cover *target*.

        Equal to ``{a ≠ target | covers(a, target, query)}``.  A pair is
        rejected without search when no rule chain leads from ``pred(a)``
        to ``pred(target)`` or when ``a`` misses a shared term of *target*
        (condition (i)); otherwise the search outcome is memoised under
        :func:`~repro.logic.unification.atom_sequence_profile` of
        ``(a, target)`` with the query's shared variables marked, which
        fixes every input the search reads.
        """
        sources = self._reaching.get(target.predicate, frozenset())
        shared_terms: tuple[Term, ...] | None = None
        covering: list[Atom] = []
        unreachable = condition_i = hits = 0
        for atom in query.body:
            if atom == target:
                continue
            if atom.predicate not in sources:
                unreachable += 1
                continue
            if shared_terms is None:
                shared_terms = self._relevant_terms(target, query)
            if not all(term in atom.terms for term in shared_terms):
                condition_i += 1
                continue
            key = atom_sequence_profile((atom, target), marked=query.shared_variables)
            covered = self._memo.get(key)
            if covered is None:
                covered = self._find_chain(atom, target, shared_terms) is not None
                with self._lock:
                    self._memo[key] = covered
                    self.misses += 1
            else:
                hits += 1
            if covered:
                covering.append(atom)
        with self._lock:
            self.hits += hits
            self.unreachable_pairs += unreachable
            self.condition_i_pairs += condition_i
        return frozenset(covering)

    def cover_sets(self, query: ConjunctiveQuery) -> dict[Atom, frozenset[Atom]]:
        """The cover set of every body atom of *query*.

        A target whose predicate no body predicate reaches gets the empty
        set without visiting its pairs one by one.
        """
        body_predicates = {atom.predicate for atom in query.body}
        others = len(query.body) - 1
        cover: dict[Atom, frozenset[Atom]] = {}
        unreachable = 0
        for target in query.body:
            sources = self._reaching.get(target.predicate)
            if sources is None or sources.isdisjoint(body_predicates):
                cover[target] = frozenset()
                unreachable += others
            else:
                cover[target] = self.cover_set(target, query)
        with self._lock:
            self.unreachable_pairs += unreachable
        return cover

    # -- internals -------------------------------------------------------------------

    def _relevant_terms(
        self, target: Atom, query: ConjunctiveQuery
    ) -> tuple[Term, ...]:
        """Shared variables and constants of *target* (the ``t1, ..., tn`` of Def. 5)."""
        shared = query.shared_variables
        return tuple(
            dict.fromkeys(t for t in target.terms if is_constant(t) or t in shared)
        )

    def _find_chain(
        self, source: Atom, target: Atom, shared_terms: Sequence[Term]
    ) -> tuple[TGD, ...] | None:
        """Breadth-first search for a common TGD chain witnessing condition (ii)."""
        target_positions: dict[Term, frozenset[Position]] = {
            term: target.positions_of(term) for term in shared_terms
        }
        start_positions: dict[Term, frozenset[Position]] = {
            term: source.positions_of(term) for term in shared_terms
        }
        source_eq = equality_type(source).equalities

        def accepts(head: Predicate, reachable: dict[Term, frozenset[Position]]) -> bool:
            if head != target.predicate:
                return False
            return all(
                target_positions[term] <= reachable[term] for term in shared_terms
            )

        # Initial expansion: chains of length one.
        queue: deque[
            tuple[Predicate, frozenset, dict[Term, frozenset[Position]], tuple[TGD, ...]]
        ] = deque()
        visited: set[tuple[TGD, tuple[frozenset[Position], ...]]] = set()
        explored = 0
        for rule, body_eq, head, head_eq in self._steps.get(source.predicate, ()):
            if not body_eq <= source_eq:
                continue
            reachable = {
                term: self._graph.successors(start_positions[term], rule)
                for term in shared_terms
            }
            state_key = (rule, tuple(reachable[t] for t in shared_terms))
            if state_key in visited:
                continue
            visited.add(state_key)
            chain = (rule,)
            if accepts(head, reachable):
                return chain
            queue.append((head, head_eq, reachable, chain))

        while queue:
            last_head, last_eq, reachable, chain = queue.popleft()
            explored += 1
            if explored > self._max_states:
                return None
            for rule, body_eq, head, head_eq in self._steps.get(last_head, ()):
                if not body_eq <= last_eq:
                    continue
                next_reachable = {
                    term: self._graph.successors(reachable[term], rule)
                    for term in shared_terms
                }
                if shared_terms and any(not next_reachable[t] for t in shared_terms):
                    # Some shared term cannot be propagated any further, so no
                    # extension of this chain can ever reach its target
                    # positions; the chain is dead.
                    continue
                state_key = (rule, tuple(next_reachable[t] for t in shared_terms))
                if state_key in visited:
                    continue
                visited.add(state_key)
                next_chain = chain + (rule,)
                if accepts(head, next_reachable):
                    return next_chain
                queue.append((head, head_eq, next_reachable, next_chain))
        return None


def covers(
    source: Atom,
    target: Atom,
    query: ConjunctiveQuery,
    rules: Iterable[TGD],
) -> bool:
    """One-shot convenience wrapper around :class:`CoverageChecker`."""
    checker = CoverageChecker(list(rules))
    return checker.covers(source, target, query) is not None
