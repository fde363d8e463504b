"""class-explain: explain every wrong course submission, one request at a time.

A round builds 8 ``university:300`` instances and one ``tpch:1`` instance,
each with a seed derived from the workload seed and the round number, and
warms every reference query on them.  Its operations are the 85 wrong
queries of ``course_submission_pool()`` (as DSL text) graded on each
university instance plus the 10 wrong TPC-H variants graded on the TPC-H
instance: 690 in-process ``GradingService.submit`` calls with
``explain=True``, each followed by ``to_dict()`` as a grader replying in
JSON would.  Operations run in an order shuffled by the workload seed.

Set-up ends (``READY``) as soon as the first operation can be issued: once
the instance it runs on — the first one a round builds — is built and
warm.  The rest of round 0 is built after that but before the timed
window, so ``setup_s`` times one dataset build, not nine.  The timed window
is made of whole rounds (so every window has the same mix of work); rounds
after the first are built outside it.  After each round,
outside the timed window, every witness is re-checked with
``verify_counterexample`` (all checks except minimality) and every
submission graded correct is re-evaluated with the reference interpreter.
``peak_rss_mb`` is the median over rounds of each round's peak resident size
(the peak is reset as a round starts, so it includes the round's set-up
data but not an earlier round's check).
"""

from __future__ import annotations

import gc
import random
import statistics
from functools import partial
from time import perf_counter
from typing import Any, Iterator

from common import derive_seed, percentile, ratio, reset_peak_rss, signal_ready, vm_hwm_mb

NAME = "class-explain"
STUDENTS = 300
INSTANCES_PER_ROUND = 8
#: Rounds a run measures at least; more follow while they fit in --seconds.
MIN_ROUNDS = 1
TPCH_SCALE = 1.0


class Round:
    """One round's instances, warm services and shuffled operations.

    The constructor only plans the round; ``build()`` builds and warms the
    instances in the order the shuffled operations first need them, so the
    first operation can be issued after one build.
    """

    def __init__(self, seed: int, index: int, pool: list[tuple[str, str, Any]]) -> None:
        from repro.datagen import tpch_instance, university_instance
        from repro.workload.course import course_questions
        from repro.workload.tpch_queries import tpch_queries

        references = {q.key: q.correct_text for q in course_questions()}
        course_pairs = [(references[k], t, e) for k, t, e in pool]
        # (builder, [(reference text, wrong text, wrong expression)]) per instance
        self.plans: list[tuple[Any, list[tuple[str, str, Any]]]] = [
            (
                partial(
                    university_instance,
                    STUDENTS,
                    seed=derive_seed(seed, NAME, index, "university", number),
                ),
                course_pairs,
            )
            for number in range(INSTANCES_PER_ROUND)
        ]
        self.plans.append(
            (
                partial(tpch_instance, TPCH_SCALE, seed=derive_seed(seed, NAME, index, "tpch")),
                [
                    (query.correct_text, text, expression)
                    for query in tpch_queries()
                    for text, expression in zip(query.wrong_texts, query.wrong_queries)
                ],
            )
        )
        # (instance number, position in its pairs), in the order they run
        self.slots = [
            (number, position)
            for number, (_, pairs) in enumerate(self.plans)
            for position in range(len(pairs))
        ]
        random.Random(derive_seed(seed, NAME, index, "order")).shuffle(self.slots)
        self.build_seconds = 0.0
        self.services: list[Any] = []
        # (service, request, instance, reference text, wrong expression)
        self.ops: list[tuple[Any, Any, Any, str, Any]] = []
        self.outcomes: list[Any] = []

    def build(self) -> Iterator[None]:
        """Build and warm each instance, yielding after each one is ready."""
        from repro.api.service import GradingService, SubmissionRequest

        built: dict[int, tuple[Any, Any]] = {}
        for number, _ in self.slots:
            if number in built:
                continue
            builder, pairs = self.plans[number]
            started = perf_counter()
            instance = builder()
            self.build_seconds += perf_counter() - started
            service = GradingService.for_instance(instance, name=f"instance-{number}")
            service.session_for().warmup(sorted({reference for reference, _, _ in pairs}))
            built[number] = (service, instance)
            yield
        self.services = [built[number][0] for number in range(len(self.plans))]
        for number, position in self.slots:
            service, instance = built[number]
            reference, text, expression = self.plans[number][1][position]
            request = SubmissionRequest(reference, text, explain=True)
            self.ops.append((service, request, instance, reference, expression))

    def sessions(self) -> list[Any]:
        return [service.session_for() for service in self.services]


def load_pool() -> list[tuple[str, str, Any]]:
    """(question key, DSL text, expression) of every wrong pool query."""
    from repro.workload.course import course_submission_pool
    from repro.workload.fuzz import to_dsl

    pool = course_submission_pool()
    return [
        (key, to_dsl(query), query)
        for key, queries in pool.wrong_queries.items()
        for query in queries
    ]


def grade(service: Any, request: Any) -> Any:
    graded = service.submit(request)
    graded.to_dict()
    return graded.outcome


def check(round_: Round) -> int:
    """Failed operations of one round, by independent re-checking."""
    from repro.core.verify import verify_counterexample
    from repro.engine.reference import ReferenceEvaluator
    from repro.parser import parse_query

    failed = 0
    for (_, _, instance, reference, expression), outcome in zip(round_.ops, round_.outcomes):
        if outcome.error_kind is not None:
            failed += 1
        elif outcome.correct:
            # The pool query happens to agree with the reference here.
            left = ReferenceEvaluator(instance, {}).rows(parse_query(reference))
            right = ReferenceEvaluator(instance, {}).rows(expression)
            failed += set(left) != set(right)
        elif outcome.report is None:
            failed += 1
        else:
            verdict = verify_counterexample(
                parse_query(reference),
                expression,
                instance,
                outcome.report.result,
                check_minimality=False,
            )
            failed += not verdict.valid
    return failed


def run(seed: int, seconds: float, tracer: Any, setup_only: bool) -> dict[str, Any]:
    from layers import cache_counts

    pool = load_pool()
    round_ = Round(seed, 0, pool)
    building = round_.build()
    next(building)  # the first operation's instance is warm
    signal_ready()
    if setup_only:
        return {}
    for _ in building:
        pass
    build_seconds = round_.build_seconds

    latencies: list[float] = []
    measured = 0.0
    failed = 0
    first: dict[str, Any] = {}
    peaks: list[float] = []
    index = 0
    while True:
        reset_peak_rss()
        tracer.enabled = tracer.active
        round_started = perf_counter()
        for service, request, *_ in round_.ops:
            started = perf_counter()
            round_.outcomes.append(tracer.call("op", grade, service, request))
            latencies.append(perf_counter() - started)
        round_seconds = perf_counter() - round_started
        tracer.enabled = False
        measured += round_seconds
        peaks.append(vm_hwm_mb())
        if index == 0:
            explained = [o.report.result for o in round_.outcomes if o.report is not None]
            first = {
                **cache_counts(round_.sessions()),
                "core.witness_tuples": sum(result.size for result in explained),
                "core.optimal_share": ratio(
                    sum(result.optimal for result in explained), len(explained)
                ),
                "datagen.build_s": build_seconds,
            }
            if tracer.active:
                first["solver.sat_calls"] = tracer.calls["solver.sat"]
                first.update(tracer.counts)
        failed += check(round_)
        index += 1
        if index >= MIN_ROUNDS and measured + round_seconds > seconds:
            break
        del round_
        gc.collect()
        round_ = Round(seed, index, pool)
        for _ in round_.build():
            pass

    ops = len(latencies)
    metrics = {
        "throughput_ops_s": ops / measured,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p95_ms": percentile(latencies, 0.95) * 1000.0,
        "peak_rss_mb": statistics.median(peaks),
        "rounds": index,
    }
    return {"attempted": ops, "failed": failed, "metrics": metrics, "first_round": first}
