"""Evaluator matrix: plan engine vs. legacy engine vs. SQLite oracle on TPC-H.

Evaluates the five TPC-H benchmark queries (each: the reference plus its two
wrong variants) against one generated TPC-H-lite instance on three
evaluators — the plan engine, the same engine with the cost-based pipeline
disabled (``LEGACY_OPTIMIZER_CONFIG``: no reordering, no semijoins, no
columnar batches), and the SQLite differential oracle running the plan
engine's optimized plans — in two regimes:

* ``cold eval`` — a fresh :class:`~repro.engine.session.EngineSession`
  evaluates all 15 workload queries once (for the oracle this includes
  loading the ``:memory:`` database and compiling every plan to SQL);
* ``warm eval`` — plans stay compiled but the session's result memo is
  cleared (:meth:`EngineSession.clear_cached_results`), so every query
  *executes* again; best of three passes.  This is the regime a grading
  daemon lives in — plans hot, data fresh — and the one the cost-based
  optimizer targets.

Grading runs on the plan engine alone: a fresh
:class:`~repro.api.service.GradingService` batch over the 15 (reference,
submission) pairs, screening mode, then warm grading with and without
per-operator tracing.

The benchmark asserts identical row sets on all three evaluators, that every
query actually ran on SQLite (none unsupported), and *gates* on the
optimized pipeline winning warm evaluation against the legacy engine.

Run directly (``PYTHONPATH=src python benchmarks/bench_backend_matrix.py``)
for a table, or through pytest for the assertions.  ``REPRO_BENCH_SCALE``
overrides the TPC-H scale factor (default 1 ≈ 7k tuples).
"""

from __future__ import annotations

import os
import time

from repro.api import GradingService, SubmissionRequest
from repro.datagen import tpch_instance
from repro.engine import LEGACY_OPTIMIZER_CONFIG, EngineSession
from repro.engine.backends.sqlite import BackendUnsupportedError, SqliteBackend
from repro.workload import tpch_queries

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
WARM_PASSES = int(os.environ.get("REPRO_BENCH_WARM_PASSES", "3"))


def _workload_queries():
    queries = []
    for query in tpch_queries():
        queries.append(query.correct_query)
        queries.extend(query.wrong_queries)
    return queries


def _requests():
    requests = []
    for query in tpch_queries():
        for index, wrong in enumerate(query.wrong_texts):
            requests.append(
                SubmissionRequest(
                    query.correct_text,
                    wrong,
                    id=f"{query.key}/wrong{index}",
                    explain=False,
                )
            )
        requests.append(
            SubmissionRequest(
                query.correct_text, query.correct_text, id=f"{query.key}/ok", explain=False
            )
        )
    return requests


#: Tracing overhead gate: traced warm grading may cost at most 5% over
#: untraced, plus a small absolute epsilon so micro-second timing noise on
#: tiny scale factors cannot fail the gate spuriously.
TRACE_OVERHEAD_RATIO = 1.05
TRACE_OVERHEAD_EPSILON_S = 0.05


def _tracing_overhead(instance, requests) -> dict:
    """Best-of-N warm grading, untraced vs under a span with operator tracing.

    The traced regime is exactly what ``/v1/grade?trace=1`` exercises: an
    ambient span (so every ``grade.*`` phase records), ``operator_trace``
    enabled (so every evaluation runs through the :class:`PlanAnalyzer` and
    emits per-operator spans).  The tracer has no store or observer — spans
    are built and dropped, which is the marginal cost being measured.
    """
    from repro.obs.trace import Tracer, operator_trace

    service = GradingService.for_instance(instance, name="tpch")
    handle = service.handle_for(service.default_dataset, service.default_seed)

    def grading_pass() -> float:
        handle.session.clear_cached_results()
        start = time.perf_counter()
        for request in requests:
            service.submit(request)
        return time.perf_counter() - start

    grading_pass()  # warm plans and sessions once, untimed
    tracer = Tracer("bench")
    untraced = traced = float("inf")
    # Interleave the regimes (untraced, traced, untraced, ...) so slow drift
    # on the host — thermal throttling, a background compaction — lands on
    # both sides instead of biasing whichever regime runs last.
    for _ in range(max(2, WARM_PASSES * 2)):
        untraced = min(untraced, grading_pass())
        with tracer.span("bench.grade"), operator_trace(True):
            traced = min(traced, grading_pass())
    return {
        "untraced_warm_grading_s": untraced,
        "traced_warm_grading_s": traced,
        "tracing_overhead": traced / untraced if untraced > 0 else 1.0,
    }


def _warm_eval_seconds(session: EngineSession, queries, passes: int = WARM_PASSES) -> float:
    """Best-of-``passes`` re-execution time with plans hot, result memos cold."""
    best = float("inf")
    for _ in range(max(1, passes)):
        session.clear_cached_results()
        start = time.perf_counter()
        for query in queries:
            session.evaluate(query)
        best = min(best, time.perf_counter() - start)
    return best


def _oracle_rows(oracle: SqliteBackend, session: EngineSession, queries, result: dict) -> list:
    """Row sets from the oracle; unsupported plans are counted, not raised."""
    rows = []
    for query in queries:
        try:
            rows.append(oracle.evaluate(session, query).rows)
        except BackendUnsupportedError:
            result["sqlite_unsupported"] += 1
            rows.append(None)
    return rows


def run_benchmark(seed: int = 7) -> dict:
    instance = tpch_instance(SCALE, seed=seed)
    queries = _workload_queries()
    requests = _requests()
    result: dict = {
        "total_tuples": instance.total_size(),
        "queries": len(queries),
        "sqlite_unsupported": 0,
    }

    row_sets: dict[str, list] = {}
    sessions: dict[str, EngineSession] = {}
    for name, config in (("python", None), ("legacy", LEGACY_OPTIMIZER_CONFIG)):
        session = sessions[name] = EngineSession(instance, config=config)
        start = time.perf_counter()
        row_sets[name] = [session.evaluate(q).rows for q in queries]
        result[f"{name}_cold_s"] = time.perf_counter() - start
        result[f"{name}_warm_s"] = _warm_eval_seconds(session, queries)

    # The oracle runs the plan engine's optimized plans.  Cold: a fresh
    # session plans every query and a fresh database is loaded.  Warm: plans
    # and SQL compiled, database loaded; only the statements run.
    oracle = SqliteBackend(instance)
    start = time.perf_counter()
    row_sets["sqlite"] = _oracle_rows(oracle, EngineSession(instance), queries, result)
    result["sqlite_cold_s"] = time.perf_counter() - start
    _oracle_rows(oracle, sessions["python"], queries, result)  # compile the SQL
    result["sqlite_warm_s"] = float("inf")
    for _ in range(max(1, WARM_PASSES)):
        start = time.perf_counter()
        _oracle_rows(oracle, sessions["python"], queries, result)
        result["sqlite_warm_s"] = min(
            result["sqlite_warm_s"], time.perf_counter() - start
        )
    result["sqlite_statements"] = oracle.stats["statements"]

    service = GradingService.for_instance(instance, name="tpch")
    start = time.perf_counter()
    graded = service.submit_batch(requests)
    result["grading_s"] = time.perf_counter() - start
    grades = [g.to_dict(include_timings=False) for g in graded]

    assert row_sets["python"] == row_sets["sqlite"], "engine and SQLite oracle disagree on rows"
    assert row_sets["python"] == row_sets["legacy"], (
        "optimizer configurations disagree on rows"
    )
    result["wrong"] = sum(1 for g in grades if not g["correct"])
    result["warm_speedup"] = result["legacy_warm_s"] / result["python_warm_s"]
    # Gate: the cost-based + columnar pipeline must win warm Python eval
    # against the pre-pipeline engine on the TPC-H workload.  Enforced here
    # (not only in the pytest wrapper) so the CI smoke invocation gates too.
    assert result["python_warm_s"] < result["legacy_warm_s"], (
        f"optimized warm eval ({result['python_warm_s']:.3f}s) lost to the "
        f"legacy engine ({result['legacy_warm_s']:.3f}s)"
    )
    # The oracle must actually have run every query, never refused one.
    assert result["sqlite_statements"] > 0
    assert result["sqlite_unsupported"] == 0

    result.update(_tracing_overhead(instance, requests))
    # Gate: per-request tracing must stay cheap enough to leave on-demand
    # (?trace=1) tracing viable on a production daemon.
    assert result["traced_warm_grading_s"] <= (
        result["untraced_warm_grading_s"] * TRACE_OVERHEAD_RATIO
        + TRACE_OVERHEAD_EPSILON_S
    ), (
        f"traced warm grading ({result['traced_warm_grading_s']:.3f}s) exceeds "
        f"{TRACE_OVERHEAD_RATIO:.0%} of untraced "
        f"({result['untraced_warm_grading_s']:.3f}s)"
    )
    return result


def test_backend_matrix(benchmark=None):
    if benchmark is not None:
        result = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
        benchmark.extra_info["result"] = result
    else:  # plain pytest without pytest-benchmark
        result = run_benchmark()
    # The workload must actually run on SQLite, with no unsupported plan.
    assert result["sqlite_statements"] > 0
    assert result["sqlite_unsupported"] == 0
    assert result["wrong"] == 10  # two wrong variants per TPC-H query
    # run_benchmark itself gates warm optimized < warm legacy.
    assert result["warm_speedup"] > 1.0


def main() -> None:
    result = run_benchmark()
    print(
        f"TPC-H workload, scale {SCALE} "
        f"({result['total_tuples']} tuples, {result['queries']} queries, "
        f"{result['wrong']} wrong submissions)"
    )
    print(f"{'regime':<14} {'python':>10} {'legacy':>10} {'sqlite':>10}")
    for regime in ("cold", "warm"):
        times = [result[f"{name}_{regime}_s"] for name in ("python", "legacy", "sqlite")]
        print(f"{regime + ' eval':<14} " + " ".join(f"{t:>9.3f}s" for t in times))
    print(f"grading (python engine): {result['grading_s']:.3f}s")
    print(
        f"warm python vs legacy engine: {result['python_warm_s']:.3f}s vs "
        f"{result['legacy_warm_s']:.3f}s ({result['warm_speedup']:.2f}x)"
    )
    print(
        f"sqlite oracle executed {result['sqlite_statements']} statements, "
        f"{result['sqlite_unsupported']} unsupported; rows identical on all evaluators"
    )
    print(
        f"tracing overhead on warm grading: {result['traced_warm_grading_s']:.3f}s "
        f"traced vs {result['untraced_warm_grading_s']:.3f}s untraced "
        f"({result['tracing_overhead']:.2f}x, gate {TRACE_OVERHEAD_RATIO:.2f}x)"
    )
    from _summary import write_summary

    print(f"wrote {write_summary('backend_matrix', result)}")


if __name__ == "__main__":
    main()
