"""Tests for the RA text DSL: lexer and parser."""

import pytest

from repro.datagen import toy_university_instance
from repro.errors import ParseError
from repro.parser import parse_predicate, parse_query, tokenize
from repro.ra import (
    Difference,
    GroupBy,
    Intersection,
    Join,
    NaturalJoin,
    Projection,
    RelationRef,
    Rename,
    Selection,
    Union,
    evaluate,
)


class TestLexer:
    def test_keywords_and_blocks(self):
        tokens = tokenize("\\select_{a = 1} R")
        kinds = [t.kind for t in tokens]
        assert kinds == ["KEYWORD", "BLOCK", "IDENT"]
        assert tokens[1].value == "a = 1"

    def test_nested_blocks(self):
        tokens = tokenize("\\project_{a} (\\select_{x = '}'} R)")
        assert tokens[0].kind == "KEYWORD"
        # The brace inside the string literal must not close the block.
        assert tokens[1].value == "a"

    def test_string_and_number_literals(self):
        tokens = tokenize("x = 'CS' and y >= 3.5")
        values = [t.value for t in tokens]
        assert "CS" in values and "3.5" in values

    def test_dotted_identifiers(self):
        tokens = tokenize("s.name = r.name")
        assert tokens[0].value == "s.name"

    def test_unknown_keyword(self):
        with pytest.raises(ParseError):
            tokenize("\\frobnicate R")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("x = 'CS")

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            tokenize("\\select_{a = 1 R")

    def test_comments_are_skipped(self):
        tokens = tokenize("R # this is a comment\n")
        assert len(tokens) == 1


class TestParser:
    def test_relation_reference(self):
        assert isinstance(parse_query("Student"), RelationRef)

    def test_unary_operators(self):
        query = parse_query("\\project_{name} \\select_{major = 'CS'} Student")
        assert isinstance(query, Projection)
        assert isinstance(query.child, Selection)

    def test_binary_operators_left_associative(self):
        query = parse_query("Student \\union Student \\diff Student")
        assert isinstance(query, Difference)
        assert isinstance(query.left, Union)

    def test_theta_vs_natural_join(self):
        theta = parse_query("Student \\join_{name = name} Registration")
        natural = parse_query("Student \\join Registration")
        assert isinstance(theta, Join)
        assert isinstance(natural, NaturalJoin)

    def test_cross_and_intersect(self):
        assert isinstance(parse_query("Student \\cross Registration"), Join)
        assert isinstance(parse_query("Student \\intersect Student"), Intersection)

    def test_rename_prefix_and_mapping(self):
        prefixed = parse_query("\\rename_{prefix: s} Student")
        mapped = parse_query("\\rename_{name -> who} Student")
        assert isinstance(prefixed, Rename) and prefixed.prefix == "s"
        assert isinstance(mapped, Rename) and mapped.attribute_mapping == (("name", "who"),)

    def test_aggregate(self):
        query = parse_query("\\aggr_{group: name; count(*) -> n, avg(grade) -> g} Registration")
        assert isinstance(query, GroupBy)
        assert query.group_by == ("name",)
        assert [spec.alias for spec in query.aggregates] == ["n", "g"]

    def test_aggregate_without_group(self):
        query = parse_query("\\aggr_{; count(*) -> n} Registration")
        assert isinstance(query, GroupBy)
        assert query.group_by == ()

    def test_projection_aliases(self):
        query = parse_query("\\project_{name -> student, major} Student")
        assert query.output_names() == ("student", "major")

    def test_parenthesised_expression(self):
        query = parse_query("(Student \\union Student) \\intersect Student")
        assert isinstance(query, Intersection)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_query("Student Student")

    def test_missing_block(self):
        with pytest.raises(ParseError):
            parse_query("\\select Student")

    def test_cross_with_block_rejected(self):
        with pytest.raises(ParseError):
            parse_query("Student \\cross_{x = 1} Student")

    def test_unknown_aggregate_function(self):
        with pytest.raises(ParseError):
            parse_query("\\aggr_{group: name; median(grade) -> m} Registration")

    def test_parse_roundtrip_evaluates(self, example1_q1, example1_q2):
        instance = toy_university_instance()
        assert set(evaluate(example1_q1, instance).rows) == {("John", "ECON")}
        assert len(evaluate(example1_q2, instance)) == 3


class TestPredicateParser:
    def test_precedence_and_or_not(self):
        predicate = parse_predicate("a = 1 or b = 2 and not c = 3")
        # AND binds tighter than OR.
        from repro.ra.predicates import Or

        assert isinstance(predicate, Or)

    def test_parentheses(self):
        predicate = parse_predicate("(a = 1 or b = 2) and c = 3")
        from repro.ra.predicates import And

        assert isinstance(predicate, And)

    def test_comparison_operators(self):
        assert parse_predicate("a <> 3").op == "!="
        assert parse_predicate("a <= 3").op == "<="

    def test_parameters_and_booleans(self):
        predicate = parse_predicate("n >= @k and flag = true")
        assert predicate.referenced_params() == {"k"}

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_predicate("a = ")
