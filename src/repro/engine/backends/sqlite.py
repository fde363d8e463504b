"""SQLite differential oracle: logical plans compiled to SQL.

The original RATest translated relational algebra into SQL CTEs and ran them
on SQL Server; this module does the same against SQLite — the one production
engine every Python install ships with.  :func:`compile_plan_to_sql` is the
codebase's only SQL emitter: a :class:`SqliteBackend` runs it on the
engine's optimized plans over a cached ``:memory:`` database per bound
instance (reloaded whenever the instance's ``data_version`` changes),
returning exactly the annotated row dict the Python operators would produce
under the set domain, and :func:`to_sql` runs it on an expression's
unoptimized plan to give executable text for a query as written.  Every
statement is a ``WITH`` chain, one CTE per plan operator.

Faithfulness to the in-process engine is the whole point, so the generated
SQL mirrors its semantics rather than idiomatic SQL:

* set semantics via ``SELECT DISTINCT`` on scans and projections and plain
  ``UNION``/``EXCEPT``/``INTERSECT`` for the set operators;
* hoisted equi-join keys compare with ``IS`` (null-safe), because the hash
  join's dictionary lookup treats ``NULL`` as equal to ``NULL``;
* comparisons wrap in ``COALESCE(..., 0)`` so a comparison against ``NULL``
  is *false* (and ``NOT`` of it *true*) — the engine's two-valued logic;
* strings only compare with strings (:func:`comparable_in_sql`): SQLite's
  comparison affinity and cross-type ordering would otherwise answer
  questions the Python operators raise ``TypeError`` for;
* division renders as the ``repro_div`` user function (Python true division,
  raises on zero); string ``+`` becomes ``||`` only when both sides are
  strings; boolean arithmetic is refused;
* every CTE exposes positional columns ``c1..cN``, sidestepping quoting and
  duplicate-name questions for plan-internal columns (renames compile away
  in plans; callers re-attach the expression's output schema);
* parameters bind as ``:p_<name>``, and bindings whose runtime type would
  change a comparison's meaning (a string where a number is compared) are
  refused, because only the Python operators raise their usual
  ``TypeError`` there.

Anything the dialect cannot express faithfully raises
:class:`BackendUnsupportedError`.  The oracle never answers through the
Python operators instead: a differential check either compares two
independent engines or fails loudly.
"""

from __future__ import annotations

import math
import sqlite3
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.catalog.instance import DatabaseInstance, ResultSet, Values
from repro.catalog.schema import DatabaseSchema, RelationSchema
from repro.catalog.types import DataType
from repro.engine.logical import (
    AggregateOp,
    CrossOp,
    DifferenceOp,
    FilterOp,
    IntersectOp,
    JoinOp,
    PlanNode,
    ProjectOp,
    ScanOp,
    SemiJoinOp,
    UnionOp,
    compile_plan,
)
from repro.errors import QueryEvaluationError, ReproError, UnknownAttributeError
from repro.ra.ast import AggregateFunction, RAExpression
from repro.ra.predicates import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    Param,
    Predicate,
    Scalar,
    TruePredicate,
)

if TYPE_CHECKING:
    from repro.engine.session import EngineSession

ParamValues = Mapping[str, Any]


class BackendUnsupportedError(ReproError):
    """The construct (or its data) cannot be expressed faithfully in SQLite.

    It signals that no faithful SQL exists, never a wrong answer: the oracle
    raises it instead of running anything.
    """


# ---------------------------------------------------------------------------
# Identifiers, literals and types
# ---------------------------------------------------------------------------


def quote_identifier(name: str) -> str:
    """``name`` as a double-quoted SQLite identifier (reserved words included)."""
    return '"' + name.replace('"', '""') + '"'


def sql_literal(value: Any) -> str:
    """Render a Python constant as a SQLite literal (``None`` is ``NULL``)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        if not -(2**63) <= value < 2**63:
            raise BackendUnsupportedError(f"integer literal {value} exceeds 64 bits")
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise BackendUnsupportedError(f"non-finite float literal {value!r}")
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise BackendUnsupportedError(f"cannot render literal {value!r} as SQL")


def literal_type(value: Any) -> DataType | None:
    """Best-effort :class:`DataType` of a constant (``None`` when unknown)."""
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.STRING
    return None


def comparable_in_sql(left: DataType | None, right: DataType | None) -> bool:
    """Whether a comparison of these types means the same thing in SQLite.

    Unknown types (parameters, NULL literals) pass.  Strings only compare
    with strings: SQLite's comparison affinity can coerce a numeric operand
    to text against a TEXT column (``name = 5`` may match ``'5'``), and its
    cross-type ordering would silently answer ordering comparisons the
    Python operators raise ``TypeError`` for.  INT/FLOAT/BOOL inter-compare
    identically on both sides (Python ``True == 1`` ≡ SQLite ``1 = 1``).
    """
    if left is None or right is None or left is right:
        return True
    non_text = (DataType.INT, DataType.FLOAT, DataType.BOOL)
    return left in non_text and right in non_text


#: RA comparison operators → their SQL spelling (``!=`` renders as ``<>``).
_COMPARISON_SQL = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class _PythonDivision:
    """``repro_div`` UDF: Python true-division semantics inside SQLite.

    sqlite3 flattens every UDF exception into an opaque
    ``OperationalError("user-defined function raised exception")``, so the
    callable records the real exception for the backend to re-raise — a
    division by zero must surface as the engine's error, and anything else
    (say, a string-typed parameter value) as the same exception the Python
    operators would have raised.
    """

    def __init__(self) -> None:
        self.last_error: BaseException | None = None

    def __call__(self, a: Any, b: Any) -> Any:
        if a is None or b is None:
            return None
        try:
            return a / b
        except BaseException as exc:
            self.last_error = exc
            raise

    def take_error(self) -> BaseException | None:
        error, self.last_error = self.last_error, None
        return error


def prepare_connection(
    conn: sqlite3.Connection, *, division: _PythonDivision | None = None
) -> sqlite3.Connection:
    """Register the engine-compatibility functions on a connection.

    ``division`` lets a backend supply its own recorder instance so UDF
    failures can be re-raised as their real exceptions.
    """
    conn.create_function(
        "repro_div", 2, division or _PythonDivision(), deterministic=True
    )
    return conn


_SQL_TYPES = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.STRING: "TEXT",
    DataType.BOOL: "INTEGER",
}


def create_table_sql(schema: RelationSchema) -> str:
    """``CREATE TABLE`` statement for one relation schema."""
    columns = ", ".join(
        f"{quote_identifier(attr.name)} {_SQL_TYPES[attr.dtype]}"
        for attr in schema.attributes
    )
    return f"CREATE TABLE {quote_identifier(schema.name)} ({columns})"


def load_instance(conn: sqlite3.Connection, instance: DatabaseInstance) -> None:
    """Create and populate one table per relation of ``instance``.

    Raises :class:`BackendUnsupportedError` when a value cannot be stored
    faithfully (integers beyond 64 bits; NaN, which sqlite3 would silently
    bind as ``NULL``).
    """

    def checked_rows(relation):
        for _, values in relation.tuples():
            for value in values:
                if isinstance(value, float) and math.isnan(value):
                    raise BackendUnsupportedError(
                        f"relation {relation.schema.name!r} contains NaN, "
                        "which SQLite stores as NULL"
                    )
            yield values

    for name, relation in instance.relations.items():
        conn.execute(create_table_sql(relation.schema))
        placeholders = ", ".join("?" * relation.schema.arity)
        insert = f"INSERT INTO {quote_identifier(name)} VALUES ({placeholders})"
        try:
            conn.executemany(insert, checked_rows(relation))
        except (OverflowError, sqlite3.Error) as exc:
            raise BackendUnsupportedError(
                f"cannot load relation {name!r} into SQLite: {exc}"
            ) from exc
    conn.commit()


def connect_instance(instance: DatabaseInstance) -> sqlite3.Connection:
    """A fresh prepared ``:memory:`` connection with ``instance`` loaded.

    Used by tests and tooling that execute SQL text directly (such as
    :func:`to_sql` output, with parameters bound as ``{"p_<name>": value}``);
    the backend itself keeps a cached connection keyed by the instance's
    data version.
    """
    conn = sqlite3.connect(":memory:", check_same_thread=False)
    prepare_connection(conn)
    load_instance(conn, instance)
    return conn


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledPlan:
    """A plan compiled to one executable statement.

    ``params`` are the query-parameter names the statement binds (as
    ``:p_<name>``); ``param_types`` records, per parameter, the column/
    literal types it is compared or combined with (bindings of an
    incompatible runtime type are refused at execution time); ``dtypes``
    are the positional output types, used to convert fetched rows back to
    engine values (``BOOL`` columns come back from SQLite as 0/1 integers).
    """

    sql: str
    params: tuple[str, ...]
    dtypes: tuple[DataType, ...]
    param_types: tuple[tuple[str, tuple[DataType, ...]], ...] = ()


_AGGREGATE_SQL = {
    AggregateFunction.COUNT: "COUNT",
    AggregateFunction.SUM: "SUM",
    AggregateFunction.AVG: "AVG",
    AggregateFunction.MIN: "MIN",
    AggregateFunction.MAX: "MAX",
}


class _PlanCompiler:
    """Single-use compiler turning one plan tree into a CTE chain."""

    def __init__(self, db: DatabaseSchema) -> None:
        self.db = db
        self.ctes: list[str] = []
        self.params: dict[str, None] = {}  # ordered set of parameter names
        self.param_types: dict[str, set[DataType]] = {}
        self._counter = 0

    # -- CTE plumbing ------------------------------------------------------

    def _add_cte(self, body: str, arity: int) -> str:
        self._counter += 1
        name = f"s{self._counter}"
        columns = ", ".join(f"c{i + 1}" for i in range(arity))
        self.ctes.append(f"{name}({columns}) AS (\n  {body}\n)")
        return name

    @staticmethod
    def _column_list(arity: int) -> str:
        return ", ".join(f"c{i + 1}" for i in range(arity))

    # -- scalar / predicate rendering --------------------------------------

    def _param_sql(self, param: Param) -> str:
        if not param.name.isidentifier():
            raise BackendUnsupportedError(
                f"parameter name {param.name!r} is not bindable in SQLite"
            )
        self.params[param.name] = None
        return f":p_{param.name}"

    def _expect(self, name: str, dtype: DataType) -> None:
        self.param_types.setdefault(name, set()).add(dtype)

    def _scalar(
        self, scalar: Scalar, schema: RelationSchema, positions: list[str]
    ) -> tuple[str, DataType | None]:
        """SQL text plus (best-effort) type of a scalar expression."""
        if isinstance(scalar, Literal):
            return sql_literal(scalar.value), literal_type(scalar.value)
        if isinstance(scalar, ColumnRef):
            try:
                index = schema.index_of(scalar.name)
            except UnknownAttributeError as exc:
                raise BackendUnsupportedError(str(exc)) from exc
            return positions[index], schema.attributes[index].dtype
        if isinstance(scalar, Param):
            return self._param_sql(scalar), None
        if isinstance(scalar, Arithmetic):
            left, left_type = self._scalar(scalar.left, schema, positions)
            right, right_type = self._scalar(scalar.right, schema, positions)
            # Type guards come first: a string or boolean operand must stay
            # with the Python operators (which concatenate, raise, or
            # bool-arithmetic as Python defines) for *every* operator,
            # including division.
            if DataType.STRING in (left_type, right_type):
                if scalar.op == "+" and left_type == right_type:
                    return f"({left} || {right})", DataType.STRING
                raise BackendUnsupportedError(
                    f"string arithmetic {scalar.op!r} has no SQLite equivalent"
                )
            if DataType.BOOL in (left_type, right_type):
                raise BackendUnsupportedError("boolean arithmetic is not compiled")
            # A parameter used in arithmetic must be bound to a number;
            # SQLite's text-to-number coercion would otherwise disagree with
            # Python's TypeError.
            for operand in (scalar.left, scalar.right):
                if isinstance(operand, Param):
                    self._expect(operand.name, DataType.FLOAT)
            if scalar.op == "/":
                # Python semantics: true division, float result, raises on /0.
                return f"repro_div({left}, {right})", DataType.FLOAT
            result_type = (
                DataType.FLOAT
                if DataType.FLOAT in (left_type, right_type)
                else left_type or right_type
            )
            return f"({left} {scalar.op} {right})", result_type
        raise BackendUnsupportedError(
            f"cannot compile scalar of type {type(scalar).__name__}"
        )

    def _predicate(
        self, predicate: Predicate, schema: RelationSchema, positions: list[str]
    ) -> str:
        """Render a predicate as a 0/1-valued SQL expression.

        Comparisons coalesce ``NULL`` to false before any ``NOT``/``AND``/
        ``OR`` combine them, matching the engine's two-valued logic.
        """
        if isinstance(predicate, TruePredicate):
            return "1"
        if isinstance(predicate, Comparison):
            left, left_type = self._scalar(predicate.left, schema, positions)
            right, right_type = self._scalar(predicate.right, schema, positions)
            if not comparable_in_sql(left_type, right_type):
                raise BackendUnsupportedError(
                    f"comparison of {left_type.value} with {right_type.value} "
                    "does not mean the same thing in SQLite"
                )
            if isinstance(predicate.left, Param) and right_type is not None:
                self._expect(predicate.left.name, right_type)
            if isinstance(predicate.right, Param) and left_type is not None:
                self._expect(predicate.right.name, left_type)
            return f"COALESCE({left} {_COMPARISON_SQL[predicate.op]} {right}, 0)"
        if isinstance(predicate, (And, Or)):
            joiner = " AND " if isinstance(predicate, And) else " OR "
            return "(" + joiner.join(
                self._predicate(p, schema, positions) for p in predicate.operands
            ) + ")"
        if isinstance(predicate, Not):
            return f"(NOT {self._predicate(predicate.operand, schema, positions)})"
        raise BackendUnsupportedError(
            f"cannot compile predicate of type {type(predicate).__name__}"
        )

    # -- operators ---------------------------------------------------------

    def emit(self, plan: PlanNode) -> tuple[str, tuple[DataType, ...]]:
        """Emit CTEs for ``plan``; returns (cte name, positional dtypes)."""
        if isinstance(plan, ScanOp):
            return self._scan(plan)
        if isinstance(plan, FilterOp):
            return self._filter(plan)
        if isinstance(plan, ProjectOp):
            return self._project(plan)
        if isinstance(plan, JoinOp):
            return self._join(plan)
        if isinstance(plan, SemiJoinOp):
            return self._semi_join(plan)
        if isinstance(plan, CrossOp):
            return self._cross(plan)
        if isinstance(plan, (UnionOp, DifferenceOp, IntersectOp)):
            return self._set_op(plan)
        if isinstance(plan, AggregateOp):
            return self._aggregate(plan)
        raise BackendUnsupportedError(
            f"cannot compile plan node of type {type(plan).__name__}"
        )

    def _scan(self, plan: ScanOp) -> tuple[str, tuple[DataType, ...]]:
        schema = self.db.relation(plan.relation)
        columns = ", ".join(quote_identifier(a.name) for a in schema.attributes)
        body = f"SELECT DISTINCT {columns} FROM {quote_identifier(plan.relation)}"
        name = self._add_cte(body, schema.arity)
        return name, tuple(a.dtype for a in schema.attributes)

    def _filter(self, plan: FilterOp) -> tuple[str, tuple[DataType, ...]]:
        child, dtypes = self.emit(plan.child)
        positions = [f"c{i + 1}" for i in range(len(dtypes))]
        condition = self._predicate(plan.predicate, plan.schema, positions)
        body = (
            f"SELECT {self._column_list(len(dtypes))} FROM {child} WHERE {condition}"
        )
        return self._add_cte(body, len(dtypes)), dtypes

    def _project(self, plan: ProjectOp) -> tuple[str, tuple[DataType, ...]]:
        child, dtypes = self.emit(plan.child)
        selected = ", ".join(
            f"c{index + 1} AS c{out + 1}" for out, index in enumerate(plan.indexes)
        )
        body = f"SELECT DISTINCT {selected} FROM {child}"
        return (
            self._add_cte(body, len(plan.indexes)),
            tuple(dtypes[i] for i in plan.indexes),
        )

    def _join(self, plan: JoinOp) -> tuple[str, tuple[DataType, ...]]:
        left, left_types = self.emit(plan.left)
        right, right_types = self.emit(plan.right)
        keep = (
            tuple(range(len(right_types))) if plan.keep_right is None else plan.keep_right
        )
        positions = [f"L.c{i + 1}" for i in range(len(left_types))] + [
            f"R.c{j + 1}" for j in keep
        ]
        selected = ", ".join(f"{expr} AS c{i + 1}" for i, expr in enumerate(positions))
        for a, b in zip(plan.left_key, plan.right_key):
            if not comparable_in_sql(left_types[a], right_types[b]):
                raise BackendUnsupportedError(
                    "equi-join key types diverge from dict-key equality in SQLite"
                )
        # IS, not =: the hash join matches keys through dict equality, where
        # NULL == NULL holds.
        condition = " AND ".join(
            f"L.c{a + 1} IS R.c{b + 1}" for a, b in zip(plan.left_key, plan.right_key)
        )
        body = f"SELECT {selected} FROM {left} AS L JOIN {right} AS R ON {condition}"
        if plan.residual:
            residual = " AND ".join(
                self._predicate(p, plan.schema, positions) for p in plan.residual
            )
            body += f" WHERE {residual}"
        dtypes = left_types + tuple(right_types[j] for j in keep)
        return self._add_cte(body, len(dtypes)), dtypes

    def _semi_join(self, plan: SemiJoinOp) -> tuple[str, tuple[DataType, ...]]:
        left, left_types = self.emit(plan.left)
        right, right_types = self.emit(plan.right)
        for a, b in zip(plan.left_key, plan.right_key):
            if not comparable_in_sql(left_types[a], right_types[b]):
                raise BackendUnsupportedError(
                    "semijoin key types diverge from dict-key equality in SQLite"
                )
        # IS, not =: the semijoin's key-set membership test goes through dict
        # equality, where NULL == NULL holds.
        condition = " AND ".join(
            f"R.c{b + 1} IS L.c{a + 1}" for a, b in zip(plan.left_key, plan.right_key)
        )
        columns = ", ".join(f"L.c{i + 1}" for i in range(len(left_types)))
        body = (
            f"SELECT {columns} FROM {left} AS L "
            f"WHERE EXISTS (SELECT 1 FROM {right} AS R WHERE {condition})"
        )
        return self._add_cte(body, len(left_types)), left_types

    def _cross(self, plan: CrossOp) -> tuple[str, tuple[DataType, ...]]:
        left, left_types = self.emit(plan.left)
        right, right_types = self.emit(plan.right)
        positions = [f"L.c{i + 1}" for i in range(len(left_types))] + [
            f"R.c{j + 1}" for j in range(len(right_types))
        ]
        selected = ", ".join(f"{expr} AS c{i + 1}" for i, expr in enumerate(positions))
        body = f"SELECT {selected} FROM {left} AS L CROSS JOIN {right} AS R"
        if plan.residual:
            residual = " AND ".join(
                self._predicate(p, plan.schema, positions) for p in plan.residual
            )
            body += f" WHERE {residual}"
        dtypes = left_types + right_types
        return self._add_cte(body, len(dtypes)), dtypes

    def _set_op(self, plan: PlanNode) -> tuple[str, tuple[DataType, ...]]:
        operator = {
            UnionOp: "UNION",
            DifferenceOp: "EXCEPT",
            IntersectOp: "INTERSECT",
        }[type(plan)]
        left, left_types = self.emit(plan.left)  # type: ignore[attr-defined]
        right, _ = self.emit(plan.right)  # type: ignore[attr-defined]
        columns = self._column_list(len(left_types))
        body = f"SELECT {columns} FROM {left} {operator} SELECT {columns} FROM {right}"
        return self._add_cte(body, len(left_types)), left_types

    def _aggregate(self, plan: AggregateOp) -> tuple[str, tuple[DataType, ...]]:
        child, child_types = self.emit(plan.child)
        selected: list[str] = []
        dtypes: list[DataType] = []
        for out, index in enumerate(plan.group_indexes):
            selected.append(f"T.c{index + 1} AS c{out + 1}")
            dtypes.append(child_types[index])
        offset = len(plan.group_indexes)
        for out, (spec, index) in enumerate(plan.aggregates):
            if index < 0:
                expression = "COUNT(*)"
                dtypes.append(DataType.INT)
            else:
                expression = f"{_AGGREGATE_SQL[spec.func]}(T.c{index + 1})"
                if spec.func is AggregateFunction.COUNT:
                    dtypes.append(DataType.INT)
                elif spec.func is AggregateFunction.AVG:
                    dtypes.append(DataType.FLOAT)
                else:
                    dtypes.append(child_types[index])
            selected.append(f"{expression} AS c{offset + out + 1}")
        if plan.group_indexes:
            group = ", ".join(f"T.c{i + 1}" for i in plan.group_indexes)
        else:
            # A constant expression groups every row into one group while an
            # empty input yields *no* groups — matching the engine, where an
            # ungrouped aggregate over an empty input produces no output row
            # (unlike SQL's plain ungrouped aggregate, which produces one).
            group = "1 + 0"
        body = f"SELECT {', '.join(selected)} FROM {child} AS T GROUP BY {group}"
        return self._add_cte(body, len(dtypes)), tuple(dtypes)


def compile_plan_to_sql(plan: PlanNode, db: DatabaseSchema) -> CompiledPlan:
    """Compile a logical plan into one SQLite statement.

    Raises :class:`BackendUnsupportedError` for constructs the dialect
    cannot express faithfully.
    """
    compiler = _PlanCompiler(db)
    final, dtypes = compiler.emit(plan)
    ctes = ",\n".join(compiler.ctes)
    columns = ", ".join(f"c{i + 1}" for i in range(len(dtypes)))
    sql = f"WITH {ctes}\nSELECT {columns} FROM {final}"
    return CompiledPlan(
        sql=sql,
        params=tuple(compiler.params),
        dtypes=dtypes,
        param_types=tuple(
            (name, tuple(sorted(types, key=lambda t: t.value)))
            for name, types in compiler.param_types.items()
        ),
    )


def to_sql(expression: RAExpression, db: DatabaseSchema) -> str:
    """Executable SQLite text for ``expression`` as written.

    Compiles the *unoptimized* logical plan, one CTE per operator.  The
    output columns are positional (``c1..cN``, in the expression's
    output-schema order) and ``@name`` parameters bind as ``:p_name``.  The
    text runs verbatim on a :func:`connect_instance` connection; constructs
    SQLite cannot express faithfully raise :class:`BackendUnsupportedError`.
    """
    return compile_plan_to_sql(compile_plan(expression, db), db).sql


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

_BINDABLE_TYPES = (bool, int, float, str)


class SqliteBackend:
    """Execute compiled plans against a cached ``:memory:`` SQLite database.

    One backend binds one :class:`~repro.catalog.instance.DatabaseInstance`;
    the database is (re)loaded lazily whenever the instance's
    ``data_version`` changes, and compiled SQL is cached per plan node —
    plans hash structurally, so a differential run re-checking the same
    query never recompiles it.  All public methods are thread-safe (a single
    lock serializes compilation and execution, which also satisfies
    sqlite3's cross-thread connection rules).
    """

    #: Soft bound on cached compiled statements, mirroring the session's
    #: bounded plan cache — a long fuzz run over structurally distinct
    #: queries must not grow without limit.
    max_compiled_plans = 10_000

    def __init__(self, instance: DatabaseInstance) -> None:
        self.instance = instance
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None
        self._division = _PythonDivision()
        self._loaded_version: int | None = None
        self._load_failed_version: int | None = None
        self._compiled: dict[PlanNode, CompiledPlan | None] = {}
        self.stats = {"loads": 0, "statements": 0, "compile_misses": 0}

    # -- database lifecycle ------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """The loaded connection for the instance's current data version."""
        version = self.instance.data_version
        if version == self._load_failed_version:
            raise BackendUnsupportedError(
                "instance data cannot be represented in SQLite"
            )
        if self._conn is None or version != self._loaded_version:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
            # Compiled SQL depends only on the schema, never on the data, so
            # reloads keep the compilation cache.
            conn = sqlite3.connect(":memory:", check_same_thread=False)
            prepare_connection(conn, division=self._division)
            try:
                load_instance(conn, self.instance)
            except BackendUnsupportedError:
                conn.close()
                self._load_failed_version = version
                raise
            self._conn = conn
            self._loaded_version = version
            self.stats["loads"] += 1
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
                self._loaded_version = None

    # -- execution ---------------------------------------------------------

    def _compile(self, plan: PlanNode) -> CompiledPlan:
        compiled = self._compiled.get(plan, _MISSING)
        if compiled is _MISSING:
            self.stats["compile_misses"] += 1
            if len(self._compiled) >= self.max_compiled_plans:
                self._compiled.clear()
            try:
                compiled = compile_plan_to_sql(plan, self.instance.schema)
            except BackendUnsupportedError:
                self._compiled[plan] = None
                raise
            self._compiled[plan] = compiled
        if compiled is None:
            raise BackendUnsupportedError("plan previously found uncompilable")
        return compiled

    def compiled_sql(self, plan: PlanNode) -> str:
        """The SQL text a plan executes as (diagnostics and tests)."""
        with self._lock:
            return self._compile(plan).sql

    def _binding(self, compiled: CompiledPlan, params: ParamValues) -> dict[str, Any]:
        """Named-parameter binding, refusing type-unfaithful values.

        A *missing* parameter is unsupported, not an error: the Python
        operators resolve parameters lazily, so a plan whose predicate never
        runs (empty input) evaluates fine unbound — only they can tell.
        Likewise a value whose runtime type would change a comparison's
        meaning (a string where numbers are compared) is unsupported, since
        only Python raises its usual ``TypeError`` there.
        """
        expected = dict(compiled.param_types)
        binding: dict[str, Any] = {}
        for name in compiled.params:
            if name not in params:
                raise BackendUnsupportedError(
                    f"parameter @{name} is unbound; only the Python operators "
                    "know whether it is ever evaluated"
                )
            value = params[name]
            if value is not None:
                if not isinstance(value, _BINDABLE_TYPES):
                    raise BackendUnsupportedError(
                        f"parameter @{name} value {value!r} is not a SQLite scalar"
                    )
                value_type = literal_type(value)
                for dtype in expected.get(name, ()):
                    if not comparable_in_sql(value_type, dtype):
                        raise BackendUnsupportedError(
                            f"parameter @{name} bound to a {value_type.value} where "
                            f"a {dtype.value} is expected; SQLite would coerce"
                        )
            binding[f"p_{name}"] = value
        return binding

    def execute_plan(self, plan: PlanNode, params: ParamValues | None = None) -> "dict[Values, bool]":
        """Run ``plan`` and return the set-domain annotated row dict.

        Raises :class:`BackendUnsupportedError` when the plan or its
        parameter binding cannot run faithfully on SQLite, and re-raises
        genuine query failures exactly as the Python engine would (division
        by zero surfaces as :class:`QueryEvaluationError`).
        """
        params = params or {}
        with self._lock:
            compiled = self._compile(plan)
            binding = self._binding(compiled, params)
            conn = self._connection()
            self._division.take_error()  # drop any stale record
            try:
                rows = conn.execute(compiled.sql, binding).fetchall()
            except sqlite3.Error as exc:
                recorded = self._division.take_error()
                if isinstance(recorded, ZeroDivisionError):
                    raise QueryEvaluationError(
                        "division by zero in scalar expression"
                    ) from recorded
                if recorded is not None:
                    # Surface exactly what the Python operators would have
                    # raised (e.g. TypeError for a string-typed parameter).
                    raise recorded
                raise BackendUnsupportedError(str(exc)) from exc
            self.stats["statements"] += 1
        bool_columns = [
            i for i, dtype in enumerate(compiled.dtypes) if dtype is DataType.BOOL
        ]
        if bool_columns:
            converted: dict[Values, bool] = {}
            for row in rows:
                values = list(row)
                for i in bool_columns:
                    if values[i] is not None:
                        values[i] = bool(values[i])
                converted[tuple(values)] = True
            return converted
        return {tuple(row): True for row in rows}

    def evaluate(
        self,
        session: "EngineSession",
        expression: RAExpression,
        params: ParamValues | None = None,
    ) -> ResultSet:
        """``session``'s optimized plan for ``expression``, run on SQLite.

        The plan is the one :meth:`EngineSession.evaluate` executes —
        reordered, semijoin-reduced — so comparing the two results checks
        the engine on exactly the plan it ran.
        """
        if session.instance is not self.instance:
            raise ValueError("the session is bound to a different instance")
        rows = self.execute_plan(session.plan(expression), params)
        return ResultSet(expression.output_schema(self.instance.schema), frozenset(rows))


_MISSING = object()
