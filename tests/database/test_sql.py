"""Tests for SQL generation from CQs and UCQs."""

import pytest

from repro.database.schema import RelationalSchema
from repro.database.sql import (
    cq_to_sql,
    ucq_to_parameterized_sql,
    ucq_to_sql,
)
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries

A, B, C = Variable("A"), Variable("B"), Variable("C")

SCHEMA = RelationalSchema.from_spec(
    {
        "stock": ["id", "name", "unit_price"],
        "list_comp": ["stock", "list"],
    }
)


class TestCQToSQL:
    def test_single_atom_query(self):
        sql = cq_to_sql(ConjunctiveQuery([Atom.of("stock", A, B, C)], (A,)), SCHEMA)
        assert sql.startswith("SELECT DISTINCT t0.id AS a1 FROM stock AS t0")

    def test_join_condition_is_emitted(self):
        query = ConjunctiveQuery(
            [Atom.of("stock", A, B, C), Atom.of("list_comp", A, Variable("L"))], (A,)
        )
        sql = cq_to_sql(query, SCHEMA)
        assert "t0.id = t1.stock" in sql
        assert "FROM stock AS t0, list_comp AS t1" in sql

    def test_constant_selection_is_emitted(self):
        query = ConjunctiveQuery([Atom.of("list_comp", A, Constant("nasdaq"))], (A,))
        sql = cq_to_sql(query, SCHEMA)
        assert "t0.list = 'nasdaq'" in sql

    def test_numeric_constants_are_not_quoted(self):
        query = ConjunctiveQuery([Atom.of("stock", A, B, Constant(42))], (A,))
        assert "t0.unit_price = 42" in cq_to_sql(query, SCHEMA)

    def test_quotes_are_escaped(self):
        query = ConjunctiveQuery([Atom.of("list_comp", A, Constant("o'hare"))], (A,))
        assert "'o''hare'" in cq_to_sql(query, SCHEMA)

    def test_boolean_query_selects_a_constant(self):
        sql = cq_to_sql(ConjunctiveQuery([Atom.of("stock", A, B, C)], ()), SCHEMA)
        assert "SELECT DISTINCT 1 AS answer" in sql

    def test_missing_schema_falls_back_to_positional_names(self):
        sql = cq_to_sql(ConjunctiveQuery([Atom.of("unknown", A, B)], (A,)))
        assert "t0.arg1" in sql

    def test_answer_names_can_be_customised(self):
        sql = cq_to_sql(
            ConjunctiveQuery([Atom.of("stock", A, B, C)], (A, B)),
            SCHEMA,
            answer_names=["stock_id", "stock_name"],
        )
        assert "AS stock_id" in sql and "AS stock_name" in sql

    def test_wrong_number_of_answer_names_is_rejected(self):
        with pytest.raises(ValueError):
            cq_to_sql(
                ConjunctiveQuery([Atom.of("stock", A, B, C)], (A,)),
                SCHEMA,
                answer_names=["x", "y"],
            )

    def test_empty_body_is_rejected(self):
        with pytest.raises(ValueError):
            cq_to_sql(ConjunctiveQuery([Atom.of("stock", A, B, C)], ()).with_body([]), SCHEMA)

    def test_constant_answer_term(self):
        sql = cq_to_sql(ConjunctiveQuery([Atom.of("stock", A, B, C)], (Constant("x"),)), SCHEMA)
        assert "'x' AS a1" in sql


class TestUCQToSQL:
    def test_union_of_blocks(self):
        ucq = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery([Atom.of("stock", A, B, C)], (A,)),
                ConjunctiveQuery([Atom.of("list_comp", A, B)], (A,)),
            ]
        )
        sql = ucq_to_sql(ucq, SCHEMA)
        assert sql.count("SELECT DISTINCT") == 2
        assert "\nUNION\n" in sql

    def test_empty_ucq_is_rejected(self):
        with pytest.raises(ValueError):
            ucq_to_sql([], SCHEMA)

    def test_single_disjunct_has_no_union(self):
        ucq = UnionOfConjunctiveQueries(
            [ConjunctiveQuery([Atom.of("stock", A, B, C)], (A,))]
        )
        assert "UNION" not in ucq_to_sql(ucq, SCHEMA)

    def test_identical_disjunct_sql_is_deduplicated(self):
        # Variants differ only in variable names, so they render to the
        # same block; set semantics needs it only once.
        D, E, F = Variable("D"), Variable("E"), Variable("F")
        ucq = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery([Atom.of("stock", A, B, C)], (A,)),
                ConjunctiveQuery([Atom.of("stock", D, E, F)], (D,)),
            ]
        )
        sql = ucq_to_sql(ucq, SCHEMA)
        assert sql.count("SELECT DISTINCT") == 1
        assert "UNION" not in sql

    def test_disjuncts_differing_in_constants_are_kept(self):
        ucq = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery([Atom.of("list_comp", A, Constant("nasdaq"))], (A,)),
                ConjunctiveQuery([Atom.of("list_comp", A, Constant("nyse"))], (A,)),
            ]
        )
        sql = ucq_to_sql(ucq, SCHEMA)
        assert sql.count("SELECT DISTINCT") == 2
        assert "\nUNION\n" in sql


class TestLiteralsAndIdentifiers:
    def test_boolean_constants_are_rendered_numerically(self):
        query = ConjunctiveQuery([Atom.of("stock", A, B, Constant(True))], (A,))
        assert "t0.unit_price = 1" in cq_to_sql(query, SCHEMA)
        query = ConjunctiveQuery([Atom.of("stock", A, B, Constant(False))], (A,))
        assert "t0.unit_price = 0" in cq_to_sql(query, SCHEMA)

    def test_none_selection_uses_is_null(self):
        # `col = NULL` is never true under SQL three-valued logic.
        query = ConjunctiveQuery([Atom.of("stock", A, B, Constant(None))], (A,))
        sql = cq_to_sql(query, SCHEMA)
        assert "t0.unit_price IS NULL" in sql
        assert "= NULL" not in sql

    def test_none_answer_term_renders_as_null(self):
        query = ConjunctiveQuery([Atom.of("stock", A, B, C)], (Constant(None),))
        assert "NULL AS a1" in cq_to_sql(query, SCHEMA)

    def test_multiple_quotes_are_each_escaped(self):
        query = ConjunctiveQuery(
            [Atom.of("list_comp", A, Constant("a'b'c"))], (A,)
        )
        assert "'a''b''c'" in cq_to_sql(query, SCHEMA)

    def test_non_identifier_relation_names_are_quoted(self):
        query = ConjunctiveQuery([Atom.of("ex:Stock-Item", A)], (A,))
        sql = cq_to_sql(query)
        assert '"ex:Stock-Item" AS t0' in sql

    def test_reserved_word_relation_names_are_quoted(self):
        query = ConjunctiveQuery([Atom.of("order", A)], (A,))
        assert '"order" AS t0' in cq_to_sql(query)


class TestParameterizedSQL:
    def test_constants_become_placeholders_in_order(self):
        ucq = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery(
                    [Atom.of("list_comp", A, Constant("nasdaq"))], (A,)
                ),
                ConjunctiveQuery(
                    [Atom.of("stock", A, Constant("acme"), Constant(12))], (A,)
                ),
            ]
        )
        statement = ucq_to_parameterized_sql(ucq, SCHEMA)
        assert statement.sql.count("?") == 3
        assert statement.parameters == (
            Constant("nasdaq"),
            Constant("acme"),
            Constant(12),
        )

    def test_blocks_identical_up_to_constants_survive_dedup(self):
        ucq = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery([Atom.of("list_comp", A, Constant("x"))], (A,)),
                ConjunctiveQuery([Atom.of("list_comp", A, Constant("y"))], (A,)),
            ]
        )
        statement = ucq_to_parameterized_sql(ucq, SCHEMA)
        assert statement.sql.count("SELECT DISTINCT") == 2
        assert statement.parameters == (Constant("x"), Constant("y"))

    def test_truly_identical_blocks_are_deduplicated(self):
        ucq = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery([Atom.of("list_comp", A, Constant("x"))], (A,)),
                ConjunctiveQuery([Atom.of("list_comp", B, Constant("x"))], (B,)),
            ]
        )
        statement = ucq_to_parameterized_sql(ucq, SCHEMA)
        assert statement.sql.count("SELECT DISTINCT") == 1
        assert statement.parameters == (Constant("x"),)

    def test_constant_answer_terms_are_parameterized(self):
        ucq = UnionOfConjunctiveQueries(
            [ConjunctiveQuery([Atom.of("stock", A, B, C)], (Constant("fixed"),))]
        )
        statement = ucq_to_parameterized_sql(ucq, SCHEMA)
        assert "? AS a1" in statement.sql
        assert statement.parameters == (Constant("fixed"),)

    def test_answer_constants_precede_body_constants(self):
        # The SELECT list is rendered before the WHERE clause, so its
        # placeholders must come first in the parameter list too.
        ucq = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery(
                    [Atom.of("list_comp", A, Constant("nasdaq"))],
                    (Constant("fixed"),),
                )
            ]
        )
        statement = ucq_to_parameterized_sql(ucq, SCHEMA)
        assert statement.sql.index("? AS a1") < statement.sql.index("= ?")
        assert statement.parameters == (Constant("fixed"), Constant("nasdaq"))

    def test_empty_ucq_is_rejected(self):
        with pytest.raises(ValueError):
            ucq_to_parameterized_sql([], SCHEMA)
