"""The differential harness: the oracles every generated triple must pass.

For a triple ``(theory, query, instance)`` the :class:`DifferentialOracle`
asserts:

1. **chase agreement** — rewrite-then-evaluate returns exactly the
   certain answers the chase computes.  The chase is depth-bounded by the
   number of frontier generations ``D`` the rewriting itself took: a CQ
   produced by ``k ≤ D`` backward steps maps into the database, so the
   forward (oblivious) chase reproduces its image within ``k`` levels —
   depth ``D`` therefore captures every rewrite answer, while *any*
   truncated chase only derives certain answers (soundness).  Equality at
   depth ``D`` is exact; only when the atom cap cuts the chase short does
   the check weaken to ``chase ⊆ rewrite``.
2. **backend agreement** — every :class:`~repro.backends.base.
   ExecutionBackend` returns the same answer set for the rewriting.
3. **determinism** — every :class:`~repro.scheduling.SchedulingStrategy`,
   plus a persistent-store round-trip, produces a byte-identical
   rewriting (canonical JSON of the serialised result).
4. **elimination** — on linear theories, ``TGD-rewrite*`` (query
   elimination on) returns the same answers as ``TGD-rewrite`` on the
   case instance, with no more CQs, and byte-identically under every
   compared strategy.
5. **constraints** — with up to two negative constraints derived from the
   case (:func:`derive_constraints`; each one the case instance
   satisfies), NC pruning (Section 5.1) keeps the answers on the case
   instance, returns no more CQs, and is byte-identical under every
   compared strategy.

Fault injection: a ``rewriting_mutator`` hook transforms every computed
``TGD-rewrite`` rewriting *uniformly* (so the determinism oracle stays
quiet) before the answers are computed — a planted bug in the rewriting is
then caught by the chase oracle, which is how
``tests/fuzzing/test_shrink.py`` exercises the shrinker end to end.  The
elimination and constraint oracles' runs are never mutated: they are the
independent side of their comparisons.
"""

from __future__ import annotations

import dataclasses
import json
import random
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..backends import create_backend
from ..cache.fingerprint import theory_fingerprint
from ..cache.serialization import UnserializableQueryError, result_to_json
from ..cache.store import RewritingStore
from ..chase.chase import chase
from ..core.rewriter import RewritingBudgetExceeded, RewritingResult, TGDRewriter
from ..dependencies.constraints import NegativeConstraint
from ..dependencies.theory import OntologyTheory
from ..database.evaluator import evaluate_ucq
from ..database.instance import RelationalInstance
from ..incremental import MaintainedAnswerSet
from ..logic.atoms import Atom
from ..logic.homomorphism import homomorphisms
from ..logic.terms import Constant, is_constant
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from ..scheduling import SequentialStrategy, create_strategy
from .generator import GeneratedCase

#: Strategies the determinism oracle compares by default.  ``chunked`` is
#: correct too but spawns a process pool per case; opt in via the
#: constructor (or ``repro fuzz --strategies``) when the cost is wanted.
#: ``auto`` rides along so the tuner's per-generation choices are fuzzed
#: against the sequential baseline on every case.
DEFAULT_STRATEGIES = ("sequential", "threaded", "auto")

#: Backends the agreement oracle compares by default.
DEFAULT_BACKENDS = ("memory", "sqlite")


@dataclass(frozen=True)
class OracleFailure:
    """One oracle's disagreement on one case."""

    oracle: str  # "chase" | "backends" | "determinism" | "elimination" | "constraints" | "maintenance"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.oracle}] {self.detail}"


@dataclass
class OracleVerdict:
    """Outcome of running all oracles on one case."""

    case: GeneratedCase
    failures: list[OracleFailure] = field(default_factory=list)
    skipped: str | None = None
    generations: int = 0
    rewriting_size: int = 0
    rewrite_answers: int = 0
    #: CQs the constraint oracle's derived NCs pruned (0 when none was kept).
    pruned_by_constraints: int = 0

    @property
    def ok(self) -> bool:
        """``True`` iff no oracle disagreed (a skipped case is not a failure)."""
        return not self.failures

    def summary(self) -> str:
        """One line for progress output."""
        if self.skipped is not None:
            return f"SKIP ({self.skipped}) {self.case.describe()}"
        status = "ok" if self.ok else "FAIL " + "; ".join(map(str, self.failures))
        return (
            f"{status} — {self.case.describe()}, {self.rewriting_size} CQs in "
            f"{self.generations} generations, {self.rewrite_answers} answers"
        )


def answer_diff(
    left: frozenset[tuple], right: frozenset[tuple]
) -> tuple[list[tuple], list[tuple]]:
    """The minimal differing tuple sets: ``(only in left, only in right)``.

    Both sides are sorted (by ``repr``, which is total over constant
    tuples) so diff output is deterministic.
    """
    only_left = sorted(left - right, key=repr)
    only_right = sorted(right - left, key=repr)
    return only_left, only_right


def format_answer_diff(
    left_name: str,
    left: frozenset[tuple],
    right_name: str,
    right: frozenset[tuple],
    limit: int = 5,
) -> str:
    """Human-readable minimal diff of two answer sets.

    Shows only the differing tuples (up to *limit* per side), never the
    full answer dumps — the point of the helper is that a disagreement on
    a 10⁴-tuple answer set prints the three tuples that differ.
    """
    only_left, only_right = answer_diff(left, right)
    if not only_left and not only_right:
        return f"{left_name} and {right_name} agree ({len(left)} answers)"
    parts = []
    for name, missing in ((left_name, only_left), (right_name, only_right)):
        if not missing:
            continue
        shown = ", ".join(repr(t) for t in missing[:limit])
        suffix = "" if len(missing) <= limit else f", … ({len(missing)} total)"
        parts.append(f"only in {name}: {shown}{suffix}")
    return "; ".join(parts)


class GenerationCountingStrategy(SequentialStrategy):
    """A sequential strategy that counts the frontier generations it ran.

    The count is the depth bound the chase oracle needs; measuring it
    through a strategy keeps the kernel untouched (the same pattern the
    checkpoint tests use to kill a run mid-flight).
    """

    def __init__(self) -> None:
        self.generations = 0

    def expand_generation(self, engine, batch):
        self.generations += 1
        return super().expand_generation(engine, batch)


def _canonical_bytes(result: RewritingResult) -> str:
    """The byte-identity channel: canonical JSON of the serialised result."""
    return json.dumps(result_to_json(result), sort_keys=True)


def _chase_answers(query: ConjunctiveQuery, atoms) -> frozenset[tuple]:
    """Evaluate *query* over a chase instance, keeping all-constant tuples."""
    answers: set[tuple] = set()
    for hom in homomorphisms(query.body, atoms):
        answer = tuple(hom.apply_term(term) for term in query.answer_terms)
        if all(is_constant(value) for value in answer):
            answers.add(answer)
    return frozenset(answers)


#: Candidate NC bodies tried per case, and NCs kept at most.
CONSTRAINT_CANDIDATES = 6
MAX_CONSTRAINTS = 2


def derive_constraints(
    case: GeneratedCase, ucq: UnionOfConjunctiveQueries
) -> list[NegativeConstraint]:
    """Up to two negative constraints the case instance satisfies.

    Candidate bodies come from *ucq*, the case's ``TGD-rewrite``
    rewriting, last CQ first: every pair of atoms of a CQ that share a
    variable, or the CQ's first atom when no pair does.  A CQ embedding
    such a body is exactly what pruning drops, so kept constraints do
    prune.  A candidate is kept only if
    :meth:`repro.api.OBDASystem.check_consistency` accepts the case
    instance under the case's TGDs plus that constraint — the standing
    assumption under which pruning keeps the answers.  The derivation
    reads the case and its rewriting only (lists, in order), so it is
    deterministic and leaves ``case(i)`` as generated.
    """
    from ..api import OBDASystem

    candidates: list[tuple[Atom, ...]] = []
    for query in reversed(list(ucq)):
        body = query.body
        pairs = [
            (first, second)
            for index, first in enumerate(body)
            for second in body[index + 1:]
            if first.variables() & second.variables()
        ]
        for candidate in pairs or [body[:1]]:
            if candidate and candidate not in candidates:
                candidates.append(candidate)
        if len(candidates) >= CONSTRAINT_CANDIDATES:
            break
    kept: list[NegativeConstraint] = []
    for index, body in enumerate(candidates[:CONSTRAINT_CANDIDATES]):
        constraint = NegativeConstraint(body, label=f"fuzz{index}")
        theory = OntologyTheory(
            tgds=list(case.theory.tgds), negative_constraints=[constraint]
        )
        with OBDASystem(theory, database=case.instance, use_elimination=False) as system:
            if system.is_consistent():
                kept.append(constraint)
        if len(kept) == MAX_CONSTRAINTS:
            break
    return kept


class DifferentialOracle:
    """Runs the oracles of the fuzzing gate on generated cases.

    Parameters
    ----------
    strategies:
        Scheduling strategies the determinism oracle compares (the first
        one's output is the reference).
    backends:
        Execution backends the agreement oracle compares (the first one's
        answers are the "rewrite answers" the chase oracle checks).
    max_queries:
        Rewriting budget; exceeding it *skips* the case (FO-rewritable
        fragments always terminate, but a generated theory can still be
        expensive — a skip is reported, never silently dropped).
    max_chase_atoms:
        Atom cap on the chase oracle.  When the cap fires before the
        depth bound, the chase answers are only a sound under-
        approximation and the oracle weakens to a subset check.
    rewriting_mutator:
        Optional fault-injection hook ``UCQ -> UCQ`` applied uniformly to
        every computed ``TGD-rewrite`` rewriting (see the module docstring).
    mutation_steps:
        Length of the seeded insert/delete mutation sequence the
        incremental-maintenance oracle drives per case (0 disables it).
        At every step the delta-maintained answer set — once over a
        default change log and once over a 2-entry log that forces the
        truncation fallback — must be byte-identical to full
        re-execution of the same rewriting.
    """

    def __init__(
        self,
        strategies: Sequence[str] = DEFAULT_STRATEGIES,
        backends: Sequence[str] = DEFAULT_BACKENDS,
        max_queries: int = 50_000,
        max_chase_atoms: int = 20_000,
        rewriting_mutator: Callable[
            [UnionOfConjunctiveQueries], UnionOfConjunctiveQueries
        ]
        | None = None,
        mutation_steps: int = 0,
    ) -> None:
        if not strategies:
            raise ValueError("the determinism oracle needs at least one strategy")
        if not backends:
            raise ValueError("the agreement oracle needs at least one backend")
        self._strategies = tuple(strategies)
        self._backends = tuple(backends)
        self._max_queries = max_queries
        self._max_chase_atoms = max_chase_atoms
        self._mutator = rewriting_mutator
        self._mutation_steps = mutation_steps

    @property
    def strategies(self) -> tuple[str, ...]:
        """Strategy names the determinism oracle compares."""
        return self._strategies

    @property
    def backends(self) -> tuple[str, ...]:
        """Backend names the agreement oracle compares."""
        return self._backends

    # -- the oracles -------------------------------------------------------

    def check(self, case: GeneratedCase) -> OracleVerdict:
        """Run all oracles on one case."""
        verdict = OracleVerdict(case=case)
        rules = list(case.theory.tgds)

        counting = GenerationCountingStrategy()
        try:
            plain = self._rewrite(rules, case.query, counting)
        except RewritingBudgetExceeded:
            verdict.skipped = f"rewriting budget ({self._max_queries}) exceeded"
            return verdict
        reference = self._mutated(plain)
        verdict.generations = counting.generations
        verdict.rewriting_size = len(reference.ucq)

        backend_answers = self._backend_oracle(verdict, reference.ucq, case)
        if backend_answers is not None:
            verdict.rewrite_answers = len(backend_answers)
            self._chase_oracle(verdict, backend_answers, case)
        self._determinism_oracle(verdict, reference, rules, case)
        if backend_answers is not None:
            if case.theory.classification.linear:
                self._optimisation_oracle(
                    verdict, "elimination", "TGD-rewrite*", len(plain.ucq),
                    backend_answers, rules, case, use_elimination=True,
                )
            constraints = derive_constraints(case, plain.ucq)
            if constraints:
                pruned = self._optimisation_oracle(
                    verdict, "constraints", "NC-pruned TGD-rewrite",
                    len(plain.ucq), backend_answers, rules, case,
                    negative_constraints=constraints,
                )
                if pruned is not None:
                    verdict.pruned_by_constraints = (
                        pruned.statistics.pruned_by_constraints
                    )
        if self._mutation_steps > 0:
            self._maintenance_oracle(verdict, reference.ucq, case)
        return verdict

    def check_many(self, cases: Sequence[GeneratedCase]) -> list[OracleVerdict]:
        """Run the oracles on every case, in order."""
        return [self.check(case) for case in cases]

    def failure(self, case: GeneratedCase) -> OracleFailure | None:
        """The first failure of *case*, or ``None`` — the shrinker's predicate."""
        verdict = self.check(case)
        return verdict.failures[0] if verdict.failures else None

    # -- internals ---------------------------------------------------------

    def _rewrite(
        self,
        rules,
        query,
        strategy,
        use_elimination: bool = False,
        negative_constraints: Sequence[NegativeConstraint] = (),
    ) -> RewritingResult:
        engine = TGDRewriter(
            rules,
            negative_constraints=negative_constraints,
            max_queries=self._max_queries,
            use_elimination=use_elimination,
            use_nc_pruning=bool(negative_constraints),
        )
        return engine.rewrite(query, strategy=strategy)

    def _mutated(self, result: RewritingResult) -> RewritingResult:
        if self._mutator is None:
            return result
        return dataclasses.replace(result, ucq=self._mutator(result.ucq))

    def _backend_oracle(
        self,
        verdict: OracleVerdict,
        ucq: UnionOfConjunctiveQueries,
        case: GeneratedCase,
    ) -> frozenset[tuple] | None:
        """All backends agree; returns the first backend's answers."""
        answers = [
            (name, self._answers(name, ucq, case)) for name in self._backends
        ]
        reference_name, reference = answers[0]
        for name, other in answers[1:]:
            if other != reference:
                verdict.failures.append(
                    OracleFailure(
                        "backends",
                        format_answer_diff(reference_name, reference, name, other),
                    )
                )
        return reference

    @staticmethod
    def _answers(
        backend_name: str, ucq: UnionOfConjunctiveQueries, case: GeneratedCase
    ) -> frozenset[tuple]:
        backend = create_backend(backend_name)
        try:
            return backend.prepare(ucq).execute(case.instance)
        finally:
            backend.close()

    def _chase_oracle(
        self,
        verdict: OracleVerdict,
        rewrite_answers: frozenset[tuple],
        case: GeneratedCase,
    ) -> None:
        """Rewrite-then-evaluate equals the depth-D oblivious chase."""
        depth = max(1, verdict.generations)
        result = chase(
            case.instance.facts,
            case.theory.tgds,
            variant="oblivious",
            max_depth=depth,
            max_atoms=self._max_chase_atoms,
        )
        chase_answers = _chase_answers(case.query, result.atoms)
        atom_capped = (
            not result.exhausted and len(result.atoms) >= self._max_chase_atoms
        )
        if atom_capped:
            # Truncated-by-atoms chase only under-approximates: soundness
            # (chase ⊆ rewrite) is all that can be checked.
            if not chase_answers <= rewrite_answers:
                verdict.failures.append(
                    OracleFailure(
                        "chase",
                        "rewriting misses certain answers: "
                        + format_answer_diff(
                            "chase", chase_answers, "rewriting", rewrite_answers
                        ),
                    )
                )
            return
        if chase_answers != rewrite_answers:
            verdict.failures.append(
                OracleFailure(
                    "chase",
                    format_answer_diff(
                        "rewriting", rewrite_answers, "chase", chase_answers
                    )
                    + f" (chase depth {depth})",
                )
            )

    def _determinism_oracle(
        self,
        verdict: OracleVerdict,
        reference: RewritingResult,
        rules,
        case: GeneratedCase,
    ) -> None:
        """Every strategy and a store round-trip reproduce the same bytes."""
        try:
            expected = _canonical_bytes(reference)
        except UnserializableQueryError:
            verdict.failures.append(
                OracleFailure(
                    "determinism", "generated rewriting is not serialisable"
                )
            )
            return
        for name in self._strategies:
            strategy = create_strategy(name)
            try:
                result = self._mutated(self._rewrite(rules, case.query, strategy))
            finally:
                strategy.close()
            produced = _canonical_bytes(result)
            if produced != expected:
                verdict.failures.append(
                    OracleFailure(
                        "determinism",
                        f"strategy {name!r} produced a different rewriting "
                        f"({len(result.ucq)} CQs vs {len(reference.ucq)})",
                    )
                )
        self._store_round_trip(verdict, reference, rules, case, expected)

    def _optimisation_oracle(
        self,
        verdict: OracleVerdict,
        oracle: str,
        label: str,
        plain_size: int,
        reference_answers: frozenset[tuple],
        rules,
        case: GeneratedCase,
        **options,
    ) -> RewritingResult | None:
        """An optimised rewriting agrees with ``TGD-rewrite``.

        *options* switch the optimisation on in the engine:
        ``use_elimination`` (the ``elimination`` oracle, linear theories
        only) or ``negative_constraints`` (the ``constraints`` oracle).
        Query elimination drops only atoms implied by another atom of the
        same query (Lemma 8); NC pruning drops only CQs embedding a
        constraint body, which a consistent instance never matches, nor
        any rewriting of them (§5.1).  So the answers on the case instance
        must not change and the rewriting must not grow past the
        unmutated ``TGD-rewrite`` size *plain_size*; the optimised
        rewriting must also be byte-identical under every compared
        strategy.  Returns the first strategy's result, or ``None`` when
        a failure cut the comparison short.
        """
        produced: list[tuple[str, str]] = []
        first: RewritingResult | None = None
        for name in self._strategies:
            strategy = create_strategy(name)
            try:
                result = self._rewrite(rules, case.query, strategy, **options)
            except RewritingBudgetExceeded:
                verdict.failures.append(
                    OracleFailure(
                        oracle,
                        f"strategy {name!r} exceeded the rewriting budget "
                        f"({self._max_queries}) that TGD-rewrite met",
                    )
                )
                return None
            finally:
                strategy.close()
            if first is None:
                first = result
                if len(result.ucq) > plain_size:
                    verdict.failures.append(
                        OracleFailure(
                            oracle,
                            f"{label} produced {len(result.ucq)} CQs, "
                            f"more than TGD-rewrite's {plain_size}",
                        )
                    )
                answers = self._answers(self._backends[0], result.ucq, case)
                if answers != reference_answers:
                    verdict.failures.append(
                        OracleFailure(
                            oracle,
                            format_answer_diff(
                                label, answers, "TGD-rewrite", reference_answers
                            ),
                        )
                    )
            try:
                produced.append((name, _canonical_bytes(result)))
            except UnserializableQueryError:
                verdict.failures.append(
                    OracleFailure(oracle, f"{label} rewriting is not serialisable")
                )
                return None
        expected = produced[0][1]
        for name, other in produced[1:]:
            if other != expected:
                verdict.failures.append(
                    OracleFailure(
                        oracle,
                        f"strategy {name!r} produced a different {label} "
                        f"rewriting than {produced[0][0]!r}",
                    )
                )
        return first

    def _maintenance_oracle(
        self,
        verdict: OracleVerdict,
        ucq: UnionOfConjunctiveQueries,
        case: GeneratedCase,
    ) -> None:
        """Delta-maintained answers == full re-execution, per mutation step.

        Drives a seeded interleaved insert/delete sequence over a copy of
        the case's instance.  Two maintainers track the same rewriting:
        one over a default change log (exercising the semi-naive /
        DRed incremental path) and one whose instance keeps *no* log
        entries (so every genuine mutation exercises the truncation
        fallback).  After every step both must be byte-identical — via
        the serving tier's ``encode_answers`` — to a from-scratch
        evaluation, and the reported delta must compose:
        previous ∪ added − removed = current.
        """
        from ..serving.app import encode_answers

        rng = random.Random(case.seed * 1_000_003 + self._mutation_steps)
        tracked = RelationalInstance(facts=case.instance.facts)
        truncated = RelationalInstance(
            facts=case.instance.facts, max_tracked_changes=0
        )
        maintainers = (
            ("tracked", tracked, MaintainedAnswerSet(ucq)),
            ("truncated-log", truncated, MaintainedAnswerSet(ucq)),
        )
        predicates = sorted(
            {fact.predicate for fact in case.instance.facts}
            | {atom.predicate for query in ucq for atom in query.body},
            key=lambda p: (p.name, p.arity),
        )
        constants = sorted(
            case.instance.constants(), key=lambda c: repr(c.value)
        ) or [Constant("m0")]
        constants = constants + [Constant(f"m{i}") for i in range(3)]
        for name, instance, maintainer in maintainers:
            maintainer.refresh(instance)
        for step in range(self._mutation_steps):
            facts = sorted(tracked.facts, key=repr)
            if facts and rng.random() < 0.4:
                mutation = ("remove", rng.choice(facts))
            else:
                predicate = rng.choice(predicates)
                mutation = (
                    "add",
                    Atom(
                        predicate,
                        tuple(
                            rng.choice(constants) for _ in range(predicate.arity)
                        ),
                    ),
                )
            for name, instance, maintainer in maintainers:
                kind, fact = mutation
                if kind == "add":
                    instance.add(fact)
                else:
                    instance.remove(fact)
                previous = maintainer.tuples
                delta = maintainer.refresh(instance)
                maintained = maintainer.tuples
                if (previous | delta.added) - delta.removed != maintained:
                    verdict.failures.append(
                        OracleFailure(
                            "maintenance",
                            f"step {step} ({name}): reported delta does not "
                            f"compose to the maintained set (mode {delta.mode})",
                        )
                    )
                    return
                expected = evaluate_ucq(ucq, instance)
                if json.dumps(encode_answers(maintained)) != json.dumps(
                    encode_answers(expected)
                ):
                    verdict.failures.append(
                        OracleFailure(
                            "maintenance",
                            f"step {step} ({name}, {kind} {fact}, mode "
                            f"{delta.mode}): "
                            + format_answer_diff(
                                "maintained", maintained, "re-executed", expected
                            ),
                        )
                    )
                    return
        counters = maintainers[1][2].counters
        if counters.truncation_fallbacks == 0 and self._mutation_steps > 3:
            verdict.failures.append(
                OracleFailure(
                    "maintenance",
                    "the zero-entry change log never forced a truncation "
                    "fallback — the fallback path went unexercised",
                )
            )

    def _store_round_trip(
        self,
        verdict: OracleVerdict,
        reference: RewritingResult,
        rules,
        case: GeneratedCase,
        expected: str,
    ) -> None:
        fingerprint = theory_fingerprint(rules)
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-store-") as directory:
            store = RewritingStore(directory)
            if not store.put(case.query, fingerprint, reference):
                verdict.failures.append(
                    OracleFailure("determinism", "store refused a fresh rewriting")
                )
                return
            # A fresh store instance reloads from disk: the round trip
            # actually exercises the serialisation, not the in-memory index.
            reloaded = RewritingStore(directory).get(
                case.query, fingerprint, tuple(rules)
            )
        if reloaded is None:
            verdict.failures.append(
                OracleFailure("determinism", "store lost a just-written rewriting")
            )
            return
        if _canonical_bytes(reloaded) != expected:
            verdict.failures.append(
                OracleFailure(
                    "determinism", "store round-trip changed the rewriting bytes"
                )
            )
