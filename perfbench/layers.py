"""Where the traced run wraps the in-process pipeline, layer by layer.

Each entry point is wrapped where the calling module looks it up, so the
span names below are the per-layer vocabulary of the benchmark:

====================  =====================================================
span                  entry point
====================  =====================================================
parser.parse          ``repro.api.service.parse_query``
api.submit            ``GradingService.submit`` (its residual self time)
api.serialize         ``repro.api.service.outcome_to_dict``
engine.session        ``EngineSession.execute`` (keys, schema, plan lookup)
engine.compile        ``repro.engine.session.compile_plan``
engine.optimize       ``repro.engine.session.optimize_expression``
engine.reorder        ``repro.engine.session.reorder_joins``
engine.semijoin       ``repro.engine.session.apply_semijoin_reduction``
engine.build_side     ``repro.engine.session.choose_build_sides``
engine.execute        ``PlanExecutor.run`` under the set domain
provenance.annotate   ``EngineSession.annotated_rows``,
                      ``repro.core.aggregates.annotate_aggregate_query`` and
                      ``PlanExecutor.run`` under a provenance domain
core.explain          ``repro.api.service.find_smallest_counterexample``
core.fk_clauses       ``foreign_key_clauses`` in every ``repro.core`` algorithm
core.finalize         ``finalize_result`` in every ``repro.core`` algorithm
solver.encode         ``assert_expression`` / ``sequential_counter`` as
                      ``repro.solver.minones`` calls them
solver.sat            ``SATSolver.solve`` (also counts calls, conflicts,
                      decisions and propagations from its ``stats``)
====================  =====================================================
"""

from __future__ import annotations

from typing import Any

from spans import Tracer

SAT_COUNTERS = ("conflicts", "decisions", "propagations")


def instrument(tracer: Tracer) -> None:
    import repro.api.service as service
    import repro.core.aggregates as aggregates
    import repro.core.basic as basic
    import repro.core.optsigma as optsigma
    import repro.core.polytime as polytime
    import repro.engine.session as session
    import repro.solver.minones as minones
    from repro.engine.physical import PlanExecutor
    from repro.solver.sat import SATSolver

    tracer.wrap(service, "parse_query", "parser.parse")
    tracer.wrap(service.GradingService, "submit", "api.submit")
    tracer.wrap(service, "outcome_to_dict", "api.serialize")
    tracer.wrap(service, "find_smallest_counterexample", "core.explain")

    tracer.wrap(session.EngineSession, "execute", "engine.session")
    tracer.wrap(session.EngineSession, "annotated_rows", "provenance.annotate")
    tracer.wrap(session, "compile_plan", "engine.compile")
    tracer.wrap(session, "optimize_expression", "engine.optimize")
    tracer.wrap(session, "reorder_joins", "engine.reorder")
    tracer.wrap(session, "apply_semijoin_reduction", "engine.semijoin")
    tracer.wrap(session, "choose_build_sides", "engine.build_side")
    tracer.wrap(
        PlanExecutor,
        "run",
        lambda executor, *_: "engine.execute"
        if executor.domain.name == "set"
        else "provenance.annotate",
    )
    tracer.wrap(aggregates, "annotate_aggregate_query", "provenance.annotate")

    for module in (aggregates, basic, optsigma, polytime):
        if hasattr(module, "foreign_key_clauses"):
            tracer.wrap(module, "foreign_key_clauses", "core.fk_clauses")
        if hasattr(module, "finalize_result"):
            tracer.wrap(module, "finalize_result", "core.finalize")

    tracer.wrap(minones, "assert_expression", "solver.encode")
    tracer.wrap(minones, "sequential_counter", "solver.encode")

    solve = SATSolver.solve

    def counted_solve(solver: Any, *args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return solve(solver, *args, **kwargs)
        before = [getattr(solver.stats, name) for name in SAT_COUNTERS]
        try:
            return tracer.call("solver.sat", solve, solver, *args, **kwargs)
        finally:
            for name, old in zip(SAT_COUNTERS, before):
                tracer.counts[f"solver.{name}"] += getattr(solver.stats, name) - old

    SATSolver.solve = counted_solve  # type: ignore[method-assign]


def cache_counts(sessions: list[Any]) -> dict[str, float]:
    """Plan/result cache ratios and counters summed over engine sessions."""
    totals: dict[str, int] = {}
    for engine_session in sessions:
        for key, value in engine_session.cache_info().items():
            totals[key] = totals.get(key, 0) + value
    plan = totals.get("plan_hits", 0) + totals.get("plan_misses", 0)
    result = totals.get("result_hits", 0) + totals.get("result_misses", 0)
    return {
        "engine.plan_hit_ratio": totals.get("plan_hits", 0) / plan if plan else 0.0,
        "engine.result_hit_ratio": totals.get("result_hits", 0) / result if result else 0.0,
        "engine.result_evictions": totals.get("result_evictions", 0),
        "solver.clause_reuse": totals.get("solver_clause_reuse", 0),
    }
