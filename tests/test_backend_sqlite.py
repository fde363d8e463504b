"""The SQLite differential oracle: semantics units plus workload SQL round trips.

Two layers of guarantees:

* every course/beers/TPC-H workload query — correct references *and* wrong
  variants — (a) evaluates identically on the plan engine and on the oracle
  running the engine's optimized plan, and (b) has ``to_sql`` output (the
  unoptimized plan's SQL) that executes verbatim on a loaded SQLite database
  and returns the same rows;
* targeted unit tests for the dialect corners where SQL and the engine
  disagree by default: two-valued NULL logic under ``NOT``, null-safe join
  keys, Python division, BOOL round trips, quoting of reserved/dotted
  identifiers, parameter binding, empty-input aggregates, data-version
  reloads, and the refusal protocol for inexpressible plans (the oracle
  raises :class:`BackendUnsupportedError`; it never answers through the
  Python operators).
"""

from __future__ import annotations

import pytest

from repro.catalog.instance import DatabaseInstance
from repro.catalog.schema import Attribute, DatabaseSchema, RelationSchema
from repro.catalog.types import DataType
from repro.engine.backends.sqlite import (
    BackendUnsupportedError,
    SqliteBackend,
    compile_plan_to_sql,
    connect_instance,
    sql_literal,
    to_sql,
)
from repro.engine.logical import compile_plan
from repro.engine.session import EngineSession
from repro.errors import QueryEvaluationError
from repro.datagen import (
    tpch_instance,
    toy_beers_instance,
    toy_university_instance,
)
from repro.parser import parse_query
from repro.ra.ast import RelationRef, Selection
from repro.ra.predicates import (
    Arithmetic,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Param,
    Predicate,
)
from repro.workload import beers_problems, course_questions, tpch_queries
from repro.workload.fuzz import QueryFuzzer, perturb_instance


def _engine_and_oracle(instance, query, params=None):
    """Rows from the engine and from the oracle running the engine's plan."""
    session = EngineSession(instance)
    oracle = SqliteBackend(instance)
    return (
        session.evaluate(query, params).rows,
        oracle.evaluate(session, query, params).rows,
    )


def _oracle(instance, query, params=None):
    return SqliteBackend(instance).evaluate(EngineSession(instance), query, params)


def _workloads():
    university = toy_university_instance()
    beers = toy_beers_instance()
    tpch = tpch_instance(0.01, seed=3)
    cases = []
    for question in course_questions():
        for text in (question.correct_text, *question.wrong_texts):
            cases.append(("course", university, text))
    for problem in beers_problems():
        for text in (problem.correct_text, *problem.wrong_texts):
            cases.append(("beers", beers, text))
    for query in tpch_queries():
        for text in (query.correct_text, *query.wrong_texts):
            cases.append(("tpch", tpch, text))
    return cases


_WORKLOADS = _workloads()


class TestWorkloadRoundTrips:
    """Acceptance: every workload query's SQL executes on SQLite."""

    @pytest.fixture(scope="class")
    def connections(self):
        cache = {}

        def connection_for(instance):
            key = id(instance)
            if key not in cache:
                cache[key] = connect_instance(instance)
            return cache[key]

        yield connection_for
        for conn in cache.values():
            conn.close()

    @pytest.fixture(scope="class")
    def sessions(self):
        cache = {}

        def session_for(instance):
            key = id(instance)
            if key not in cache:
                cache[key] = (EngineSession(instance), SqliteBackend(instance))
            return cache[key]

        return session_for

    @pytest.mark.parametrize(
        "workload,instance,text",
        _WORKLOADS,
        ids=[f"{w}-{i}" for i, (w, _, _) in enumerate(_WORKLOADS)],
    )
    def test_sql_text_executes_and_matches_engine(
        self, workload, instance, text, connections, sessions
    ):
        expression = parse_query(text)
        sql = to_sql(expression, instance.schema)
        fetched = frozenset(
            tuple(row) for row in connections(instance).execute(sql).fetchall()
        )
        session, _ = sessions(instance)
        assert fetched == session.evaluate(expression).rows

    @pytest.mark.parametrize(
        "workload,instance,text",
        _WORKLOADS,
        ids=[f"{w}-{i}" for i, (w, _, _) in enumerate(_WORKLOADS)],
    )
    def test_sqlite_backend_matches_python_backend(
        self, workload, instance, text, sessions
    ):
        expression = parse_query(text)
        session, oracle = sessions(instance)
        expected = session.evaluate(expression)
        actual = oracle.evaluate(session, expression)
        assert actual.rows == expected.rows


def _runs_like_engine(instance, query, params=None):
    """``to_sql`` text for ``query``, asserted to fetch the engine's rows."""
    sql = to_sql(query, instance.schema)
    binding = {f"p_{name}": value for name, value in (params or {}).items()}
    conn = connect_instance(instance)
    try:
        fetched = frozenset(tuple(row) for row in conn.execute(sql, binding).fetchall())
    finally:
        conn.close()
    assert fetched == EngineSession(instance).evaluate(query, params).rows
    return sql


class TestToSql:
    """``to_sql``: the plan compiler's executable text for a query as written."""

    def test_cte_per_operator(self, toy_university, example1_q2):
        sql = _runs_like_engine(toy_university, example1_q2)
        assert sql.startswith("WITH")
        assert "JOIN" in sql and "SELECT DISTINCT" in sql

    def test_difference_renders_except(self, toy_university, example1_q1):
        assert "EXCEPT" in _runs_like_engine(toy_university, example1_q1)

    def test_group_by_executes(self, toy_university):
        query = parse_query("\\aggr_{group: name; count(*) -> n} Registration")
        sql = _runs_like_engine(toy_university, query)
        assert "GROUP BY" in sql and "COUNT(*)" in sql

    def test_base_relation_scan_deduplicates(self):
        # The storage layer allows duplicate value rows; the scan must not
        # return them twice.
        instance = toy_university_instance()
        student = instance.relation("Student")
        student.insert(next(iter(student.tuples()))[1])
        _runs_like_engine(instance, parse_query("Student"))

    def test_comparison_renders_not_equal(self, toy_university):
        query = parse_query("\\project_{name} \\select_{dept <> 'CS'} Registration")
        assert "<> 'CS'" in _runs_like_engine(toy_university, query)

    def test_string_literal_quotes_are_escaped(self):
        assert sql_literal("O'Brien") == "'O''Brien'"
        instance = toy_university_instance()
        instance.relation("Student").insert(("O'Brien", "CS"))
        query = Selection(
            RelationRef("Student"),
            Comparison("=", ColumnRef("name"), Literal("O'Brien")),
        )
        _runs_like_engine(instance, query)
        assert EngineSession(instance).evaluate(query).rows == {("O'Brien", "CS")}

    def test_null_literal_renders_as_null(self, toy_university):
        assert sql_literal(None) == "NULL"
        query = Selection(
            RelationRef("Student"), Comparison("=", ColumnRef("name"), Literal(None))
        )
        sql = _runs_like_engine(toy_university, query)
        assert "None" not in sql and "''" not in sql

    def test_dotted_and_reserved_identifiers(self, toy_university):
        query = parse_query("\\project_{s.name -> name} \\rename_{prefix: s} Student")
        _runs_like_engine(toy_university, query)

    def test_set_operands_use_explicit_column_lists(self, toy_university, example1_q1):
        sql = _runs_like_engine(toy_university, example1_q1)
        assert "EXCEPT" in sql
        assert "SELECT *" not in sql

    def test_hoisted_equijoin_keys_are_null_safe(self, toy_university, example1_q2):
        assert " IS " in _runs_like_engine(toy_university, example1_q2)

    def test_parameters_bind_as_p_names(self, toy_university):
        query = parse_query("\\project_{name} \\select_{grade >= @cutoff} Registration")
        sql = _runs_like_engine(toy_university, query, {"cutoff": 95})
        assert ":p_cutoff" in sql and "@cutoff" not in sql

    def test_fuzzed_queries_with_parameters_match_engine(self):
        instance = perturb_instance(toy_university_instance(), seed=42)
        fuzzer = QueryFuzzer(instance.schema, instance=instance)
        with_params = [q for q in fuzzer.queries(200) if q.params]
        assert len(with_params) >= 20
        for fuzz_query in with_params:
            try:
                _runs_like_engine(instance, fuzz_query.expression, fuzz_query.params)
            except AssertionError as exc:
                raise AssertionError(f"reproduce with: {fuzz_query.repro()}") from exc


class TestNullSemantics:
    @pytest.fixture(scope="class")
    def instance(self):
        schema = DatabaseSchema.of(
            [
                RelationSchema.of(
                    "T",
                    [
                        Attribute("k", DataType.INT, nullable=True),
                        Attribute("v", DataType.STRING),
                    ],
                ),
                RelationSchema.of(
                    "U",
                    [
                        Attribute("k", DataType.INT, nullable=True),
                        Attribute("w", DataType.STRING),
                    ],
                ),
            ]
        )
        instance = DatabaseInstance(schema)
        instance.relation("T").insert_all([(1, "a"), (None, "b"), (2, "c")])
        instance.relation("U").insert_all([(None, "x"), (2, "y")])
        return instance

    def test_not_over_null_comparison_is_true(self, instance):
        # Engine logic: k = 1 is False when k IS NULL, so NOT(k = 1) keeps
        # the row.  Plain SQL three-valued logic would drop it.
        query = parse_query("\\select_{not (k = 1)} T")
        python, sqlite = _engine_and_oracle(instance, query)
        assert python == sqlite
        assert (None, "b") in python

    def test_null_join_keys_match_like_dict_keys(self, instance):
        # The hash join's dict lookup matches NULL with NULL; the compiled
        # SQL must use IS, not =, for hoisted key conjuncts.
        query = parse_query(
            "(\\rename_{prefix: a} T) \\join_{a.k = b.k} (\\rename_{prefix: b} U)"
        )
        python, sqlite = _engine_and_oracle(instance, query)
        assert python == sqlite
        assert any(row[0] is None for row in python)


class TestDialectCorners:
    def test_division_matches_python_semantics(self):
        instance = toy_university_instance()
        predicate = Comparison(
            ">",
            Arithmetic("/", ColumnRef("grade"), Literal(2)),
            Literal(44.0),
        )
        query = Selection(RelationRef("Registration"), predicate)
        python, sqlite = _engine_and_oracle(instance, query)
        assert python == sqlite

    def test_division_by_zero_raises_on_both_backends(self):
        instance = toy_university_instance()
        predicate = Comparison(
            ">", Arithmetic("/", ColumnRef("grade"), Literal(0)), Literal(1)
        )
        query = Selection(RelationRef("Registration"), predicate)
        with pytest.raises(QueryEvaluationError):
            EngineSession(instance).evaluate(query)
        with pytest.raises(QueryEvaluationError):
            _oracle(instance, query)

    def test_cross_type_ordering_comparison_is_refused(self):
        # SQLite would order 'Mary' < 5 by storage class; the Python
        # operators raise TypeError.  The oracle must refuse rather than
        # answer.
        instance = toy_university_instance()
        query = parse_query("\\select_{name < 5} Student")
        with pytest.raises(TypeError):
            EngineSession(instance).evaluate(query)
        with pytest.raises(BackendUnsupportedError):
            _oracle(instance, query)

    def test_cross_type_equality_is_refused(self):
        # name = 5 is simply false everywhere in Python; SQLite's comparison
        # affinity could coerce and match — so it must not run on SQLite.
        instance = toy_university_instance()
        query = parse_query("\\select_{name = 5} Student")
        assert EngineSession(instance).evaluate(query).rows == frozenset()
        with pytest.raises(BackendUnsupportedError):
            _oracle(instance, query)

    def test_cross_type_grading_is_an_internal_error(self):
        from repro.api import GradingService

        instance = toy_university_instance()
        correct = "\\project_{name} Student"
        broken = "\\select_{name < 5} \\project_{name} Student"
        graded = GradingService.for_instance(instance, name="h").check(correct, broken)
        assert graded.error_kind == "internal_error"
        with pytest.raises(BackendUnsupportedError):
            _oracle(instance, parse_query(broken))

    def test_string_division_is_not_compiled(self):
        instance = toy_university_instance()
        predicate = Comparison(
            "=", Arithmetic("/", ColumnRef("name"), Literal(2)), Literal(1.0)
        )
        plan = compile_plan(
            Selection(RelationRef("Student"), predicate), instance.schema
        )
        with pytest.raises(BackendUnsupportedError):
            compile_plan_to_sql(plan, instance.schema)

    def test_string_typed_parameter_division_is_refused(self):
        # A parameter used in arithmetic must be bound to a number: the
        # engine raises Python's TypeError, and the oracle refuses the
        # binding instead of letting SQLite coerce the string.
        instance = toy_university_instance()
        predicate = Comparison(
            ">", Arithmetic("/", ColumnRef("grade"), Param("d")), Literal(1)
        )
        query = Selection(RelationRef("Registration"), predicate)
        with pytest.raises(TypeError):
            EngineSession(instance).evaluate(query, {"d": "oops"})
        with pytest.raises(BackendUnsupportedError, match="SQLite would coerce"):
            _oracle(instance, query, {"d": "oops"})

    def test_bool_columns_round_trip(self):
        schema = DatabaseSchema.of(
            [
                RelationSchema.of(
                    "Flags",
                    [("name", DataType.STRING), ("active", DataType.BOOL)],
                )
            ]
        )
        instance = DatabaseInstance(schema)
        instance.relation("Flags").insert_all([("a", True), ("b", False)])
        query = parse_query("\\select_{active = true} Flags")
        python, sqlite = _engine_and_oracle(instance, query)
        assert python == sqlite == frozenset({("a", True)})
        (row,) = sqlite
        assert row[1] is True  # int 1 would break bit-identical serialization

    def test_reserved_and_dotted_identifiers(self):
        schema = DatabaseSchema.of(
            [
                RelationSchema.of(
                    "order",
                    [("group", DataType.STRING), ("select", DataType.INT)],
                )
            ]
        )
        instance = DatabaseInstance(schema)
        instance.relation("order").insert_all([("g1", 1), ("g2", 2)])
        query = parse_query('\\project_{p.group -> g} \\select_{p.select > 1} \\rename_{prefix: p} order')
        python, sqlite = _engine_and_oracle(instance, query)
        assert python == sqlite == frozenset({("g2",)})
        sql = to_sql(query, schema)
        conn = connect_instance(instance)
        assert frozenset(conn.execute(sql).fetchall()) == {("g2",)}
        conn.close()

    def test_parameter_binding(self):
        instance = toy_university_instance()
        query = parse_query("\\project_{name} \\select_{grade >= @cutoff} Registration")
        session = EngineSession(instance)
        oracle = SqliteBackend(instance)
        python = session.evaluate(query, {"cutoff": 95})
        sqlite = oracle.evaluate(session, query, {"cutoff": 95})
        assert python.rows == sqlite.rows
        assert oracle.stats["statements"] == 1
        # Unbound parameters are an error for the engine and unsupported
        # for the oracle.
        with pytest.raises(QueryEvaluationError, match="unbound query parameter"):
            session.evaluate(query, {})
        with pytest.raises(BackendUnsupportedError, match="unbound"):
            oracle.evaluate(session, query, {})

    def test_string_valued_parameter_against_numeric_column_is_refused(self):
        # SQLite's cross-type ordering would happily answer grade < 'abc';
        # the binding check must refuse it where Python raises TypeError.
        instance = toy_university_instance()
        query = parse_query("\\select_{grade < @p} Registration")
        with pytest.raises(TypeError):
            EngineSession(instance).evaluate(query, {"p": "abc"})
        with pytest.raises(BackendUnsupportedError):
            _oracle(instance, query, {"p": "abc"})

    def test_unbound_parameter_over_empty_input_is_refused(self):
        # The Python operators resolve parameters lazily: if the filter's
        # input is empty the parameter is never read, so no error.  Only
        # they can tell, so the oracle refuses to bind rather than guess.
        instance = toy_university_instance()
        query = parse_query(
            "\\select_{grade < @p} \\select_{dept = 'NOPE'} Registration"
        )
        assert EngineSession(instance).evaluate(query, {}).rows == frozenset()
        with pytest.raises(BackendUnsupportedError):
            _oracle(instance, query, {})

    def test_ungrouped_aggregate_over_empty_input_yields_no_rows(self):
        instance = toy_university_instance()
        query = parse_query("\\aggr_{ ; count(*) -> n} \\select_{dept = 'NOPE'} Registration")
        python, sqlite = _engine_and_oracle(instance, query)
        assert python == sqlite == frozenset()


class TestBackendLifecycle:
    def test_data_version_reload(self):
        instance = toy_university_instance()
        session = EngineSession(instance)
        oracle = SqliteBackend(instance)
        query = parse_query("\\project_{name} Student")
        before = oracle.evaluate(session, query).rows
        instance.relation("Student").insert(("Zoe", "ART"))
        after = oracle.evaluate(session, query).rows
        assert ("Zoe",) in after and ("Zoe",) not in before
        assert oracle.stats["loads"] == 2

    def test_compiled_sql_is_cached_per_plan(self):
        instance = toy_university_instance()
        backend = SqliteBackend(instance)
        plan = compile_plan(parse_query("\\select_{dept = 'CS'} Registration"), instance.schema)
        backend.execute_plan(plan)
        backend.execute_plan(plan)
        assert backend.stats["compile_misses"] == 1
        assert backend.stats["statements"] == 2
        assert backend.stats["loads"] == 1

    def test_unsupported_plan_raises(self):
        class OpaquePredicate(Predicate):
            """Not a member of the compilable predicate grammar."""

            def evaluate(self, schema, row, params):
                return row[schema.index_of("dept")] == "CS"

            def referenced_columns(self):
                return {"dept"}

            def __eq__(self, other):
                return isinstance(other, OpaquePredicate)

            def __hash__(self):
                return hash("OpaquePredicate")

        instance = toy_university_instance()
        query = Selection(RelationRef("Registration"), OpaquePredicate())
        session = EngineSession(instance)
        oracle = SqliteBackend(instance)
        assert session.evaluate(query).rows
        with pytest.raises(BackendUnsupportedError):
            oracle.evaluate(session, query)
        assert oracle.stats["statements"] == 0

    def test_compile_rejects_opaque_scalars(self):
        instance = toy_university_instance()
        predicate = Comparison(
            "=", ColumnRef("dept"), Arithmetic("-", Literal("x"), Literal("y"))
        )
        plan = compile_plan(
            Selection(RelationRef("Registration"), predicate), instance.schema
        )
        with pytest.raises(BackendUnsupportedError):
            compile_plan_to_sql(plan, instance.schema)

    def test_nan_data_is_refused_instead_of_becoming_null(self):
        # sqlite3 binds NaN as NULL, which would silently change results;
        # the loader must refuse.
        schema = DatabaseSchema.of(
            [RelationSchema.of("M", [("k", DataType.INT), ("x", DataType.FLOAT)])]
        )
        instance = DatabaseInstance(schema)
        instance.relation("M").insert_all([(1, 1.5), (2, float("nan"))])
        python = EngineSession(instance).evaluate(parse_query("M"))
        assert len(python.rows) == 2
        oracle = SqliteBackend(instance)
        with pytest.raises(BackendUnsupportedError):
            oracle.evaluate(EngineSession(instance), parse_query("M"))
        assert oracle.stats["loads"] == 0

    def test_oversized_integers_are_refused(self):
        instance = toy_university_instance()
        predicate = Comparison("<", ColumnRef("grade"), Literal(2**70))
        query = Selection(RelationRef("Registration"), predicate)
        assert EngineSession(instance).evaluate(query).rows
        with pytest.raises(BackendUnsupportedError):
            _oracle(instance, query)

    def test_provenance_candidates_match_oracle_rows(self):
        # Provenance runs on the engine only; for a plain selection every
        # annotated candidate row is a result row, so the oracle's set
        # semantics must see the same rows.
        instance = toy_university_instance()
        query = parse_query("\\select_{dept = 'CS'} Registration")
        session = EngineSession(instance)
        _, rows = session.annotated_rows(query)
        assert frozenset(rows) == _oracle(instance, query).rows


def test_grading_never_imports_the_oracle():
    """The serving path grades on the plan engine alone: no SQLite module."""
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys\n"
        "import repro.api\n"
        "outcome = repro.api.GradingService().check("
        "\"\\\\project_{name} \\\\select_{dept = 'ECON'} Registration\", "
        "'\\\\project_{name} Registration')\n"
        "assert outcome.report is not None, outcome\n"
        "print(sorted(name for name in sys.modules if name.startswith('repro.engine.backends')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert loaded == "[]"
