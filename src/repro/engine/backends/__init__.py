"""The SQLite differential oracle for set-semantics plan evaluation.

Grading runs on one engine: the in-process Python operators
(:mod:`repro.engine.physical`).  This package keeps an independent
implementation to test that engine against —
:class:`~repro.engine.backends.sqlite.SqliteBackend`, which compiles the
*same* optimized logical plans to SQLite SQL and runs them on a cached
``:memory:`` database, the way the original RATest ran its rewritten queries
on SQL Server.  Its plan compiler is the only SQL emitter in the codebase:
:func:`~repro.engine.backends.sqlite.to_sql` renders an expression's
unoptimized plan as text that runs verbatim on a
:func:`~repro.engine.backends.sqlite.connect_instance` connection.  Tests,
fuzzers and benchmarks import this package directly; the grading path never
does.

The oracle covers plain set-semantics evaluation only.  A plan (or parameter
binding) it cannot express faithfully raises
:class:`BackendUnsupportedError` rather than quietly answering through the
Python operators, so a differential check can never compare the engine with
itself.
"""

from repro.engine.backends.sqlite import (
    BackendUnsupportedError,
    CompiledPlan,
    SqliteBackend,
    compile_plan_to_sql,
    connect_instance,
    load_instance,
    prepare_connection,
    to_sql,
)

__all__ = [
    "BackendUnsupportedError",
    "CompiledPlan",
    "SqliteBackend",
    "compile_plan_to_sql",
    "connect_instance",
    "load_instance",
    "prepare_connection",
    "to_sql",
]
