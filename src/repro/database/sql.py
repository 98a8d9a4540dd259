"""SQL generation for CQs and UCQs.

First-order rewritability matters in practice because the perfect rewriting
can be handed to an ordinary RDBMS as SQL and optimised there (Section 1).
This module renders a CQ as a ``SELECT``–``FROM``–``WHERE`` block and a UCQ
as a ``UNION`` of such blocks, using the attribute names of a
:class:`repro.database.schema.RelationalSchema` when available.

Two forms are produced:

* :func:`cq_to_sql` / :func:`ucq_to_sql` — self-contained SQL text with
  constants inlined as literals, for export to an external RDBMS;
* :func:`ucq_to_parameterized_sql` — SQL with every constant replaced by a
  ``?`` placeholder plus the ordered parameter list, the form executed by
  :class:`repro.backends.sqlite.SQLiteBackend` (placeholders sidestep
  literal quoting entirely and let a prepared statement be re-executed
  under new constant bindings).

``ucq_to_sql`` emits set semantics exactly where it is needed: identical
disjunct blocks are deduplicated, a single surviving block is returned
without any ``UNION``, and multiple blocks are combined with ``UNION``
(never ``UNION ALL``) because distinct disjuncts of a perfect rewriting
routinely produce overlapping answers — ``UNION ALL`` would leak
duplicates to the consumer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

from ..logic.terms import Constant, Term, is_constant, is_variable
from ..queries.conjunctive_query import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from .schema import RelationalSchema

#: Identifiers that can be emitted bare; anything else is double-quoted.
_PLAIN_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: Reserved words that must be quoted even though they look plain.  Kept to
#: the words that plausibly clash with ontology predicate names.
_RESERVED = frozenset(
    w.upper()
    for w in (
        "all", "and", "as", "by", "case", "distinct", "exists", "from",
        "group", "in", "is", "join", "limit", "not", "null", "on", "or",
        "order", "select", "set", "table", "to", "union", "values", "where",
    )
)


def _identifier(name: str) -> str:
    """Render a relation / attribute name, quoting it when necessary.

    Ontology predicate names are not guaranteed to be plain SQL
    identifiers (URIs, hyphens, reserved words); quoting with doubled
    ``"`` keeps the generated SQL valid on any standard engine.
    """
    if _PLAIN_IDENTIFIER.match(name) and name.upper() not in _RESERVED:
        return name
    return '"' + name.replace('"', '""') + '"'


def _literal(term: Term) -> str:
    """Render a constant as an SQL literal.

    Booleans become ``1`` / ``0`` (matching how dynamically typed engines
    store them — and how Python equates ``True == 1``), ``None`` becomes
    ``NULL``, numbers are emitted bare and everything else is a
    single-quoted string with embedded ``'`` doubled.
    """
    value = term.value  # type: ignore[union-attr]
    if isinstance(value, bool):
        return "1" if value else "0"
    if value is None:
        return "NULL"
    if isinstance(value, (int, float)):
        return str(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def _attribute(schema: RelationalSchema | None, relation: str, position: int) -> str:
    """Attribute name for a 1-based position, falling back to ``argN``."""
    if schema is not None:
        stored = schema.get(relation)
        if stored is not None:
            return _identifier(stored.attribute_of(position))
    return f"arg{position}"


def _render_cq(
    query: ConjunctiveQuery,
    schema: RelationalSchema | None,
    answer_names: Iterable[str] | None,
    render_constant: Callable[[Constant], str],
) -> str:
    """Shared SELECT-FROM-WHERE renderer behind both public forms.

    *render_constant* is called for every constant occurrence in the order
    the rendered text shows them — the answer terms (the ``SELECT`` list)
    first, then the query body left to right — because the parameterized
    form relies on that order to line up its ``?`` placeholders with the
    collected parameter list.
    """
    if not query.body:
        raise ValueError("cannot translate a query with an empty body to SQL")
    names = list(answer_names) if answer_names is not None else [
        f"a{i}" for i in range(1, query.arity + 1)
    ]
    if len(names) != query.arity:
        raise ValueError("answer_names must match the query arity")
    answer_constants = {
        index: render_constant(term)
        for index, term in enumerate(query.answer_terms)
        if is_constant(term)
    }
    aliases: list[tuple[str, str]] = []  # (alias, relation name)
    variable_columns: dict[Term, str] = {}
    conditions: list[str] = []

    for index, atom in enumerate(query.body):
        alias = f"t{index}"
        aliases.append((alias, atom.name))
        for position, term in enumerate(atom.terms, start=1):
            column = f"{alias}.{_attribute(schema, atom.name, position)}"
            if is_constant(term):
                rendered = render_constant(term)
                if rendered == "NULL":
                    # SQL three-valued logic: `col = NULL` is never true;
                    # matching a None constant needs IS NULL.
                    conditions.append(f"{column} IS NULL")
                else:
                    conditions.append(f"{column} = {rendered}")
            elif is_variable(term):
                first = variable_columns.get(term)
                if first is None:
                    variable_columns[term] = column
                else:
                    conditions.append(f"{first} = {column}")

    select_items: list[str] = []
    for index, (name, term) in enumerate(zip(names, query.answer_terms)):
        if is_constant(term):
            select_items.append(f"{answer_constants[index]} AS {_identifier(name)}")
        else:
            column = variable_columns.get(term)
            if column is None:
                raise ValueError(f"answer variable {term!r} not bound in the body")
            select_items.append(f"{column} AS {_identifier(name)}")
    select_clause = ", ".join(select_items) if select_items else "1 AS answer"

    from_clause = ", ".join(
        f"{_identifier(relation)} AS {alias}" for alias, relation in aliases
    )
    sql = f"SELECT DISTINCT {select_clause} FROM {from_clause}"
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    return sql


def cq_to_sql(
    query: ConjunctiveQuery,
    schema: RelationalSchema | None = None,
    answer_names: Iterable[str] | None = None,
) -> str:
    """Translate a single CQ into a ``SELECT`` statement.

    Each body atom becomes an aliased relation in the ``FROM`` clause; shared
    variables become equality join predicates, constants become selection
    predicates, and the answer terms populate the ``SELECT`` list.
    """
    return _render_cq(query, schema, answer_names, _literal)


def ucq_to_sql(
    ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery],
    schema: RelationalSchema | None = None,
    answer_names: Iterable[str] | None = None,
) -> str:
    """Translate a UCQ into SQL with set semantics where required.

    Disjuncts that render to identical SQL (e.g. variants that differ only
    in variable names) are emitted once; a single surviving block stands
    alone.  Multiple blocks are combined with ``UNION`` — not ``UNION
    ALL`` — because disjuncts of a rewriting may overlap on any given
    database, so cross-block deduplication is part of the query's set
    semantics.
    """
    queries = list(ucq)
    if not queries:
        raise ValueError("cannot translate an empty UCQ to SQL")
    names = list(answer_names) if answer_names is not None else None
    blocks: list[str] = []
    seen: set[str] = set()
    for query in queries:
        block = cq_to_sql(query, schema=schema, answer_names=names)
        if block not in seen:
            seen.add(block)
            blocks.append(block)
    return "\nUNION\n".join(blocks)


@dataclass(frozen=True)
class ParameterizedSQL:
    """A UCQ rendered with ``?`` placeholders plus its ordered parameters.

    ``parameters`` holds the original :class:`Constant` objects, in
    placeholder order; an executor encodes them to engine values — and may
    substitute *bound* replacements first — before running the statement.
    """

    sql: str
    parameters: tuple[Constant, ...]


def ucq_to_parameterized_sql(
    ucq: UnionOfConjunctiveQueries | Iterable[ConjunctiveQuery],
    schema: RelationalSchema | None = None,
    answer_names: Iterable[str] | None = None,
) -> ParameterizedSQL:
    """Render a UCQ with every constant as a ``?`` placeholder.

    This is the backend-facing form: quoting issues cannot arise, and the
    same prepared statement serves any rebinding of the constants.
    Deduplication keys on the *(block, parameters)* pair — two disjuncts
    that differ only in their constants render to the same placeholder SQL
    but must both survive.
    """
    queries = list(ucq)
    if not queries:
        raise ValueError("cannot translate an empty UCQ to SQL")
    names = list(answer_names) if answer_names is not None else None
    blocks: list[str] = []
    parameters: list[Constant] = []
    seen: set[tuple[str, tuple[Constant, ...]]] = set()
    for query in queries:
        collected: list[Constant] = []

        def placeholder(constant: Constant) -> str:
            collected.append(constant)
            return "?"

        block = _render_cq(query, schema, names, placeholder)
        key = (block, tuple(collected))
        if key not in seen:
            seen.add(key)
            blocks.append(block)
            parameters.extend(collected)
    return ParameterizedSQL("\nUNION\n".join(blocks), tuple(parameters))
