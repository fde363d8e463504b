"""tpch-eval: screen queries against a ``tpch:1`` instance, engine only.

A round builds a ``tpch:1`` instance (6919 tuples) with a seed derived from
the workload seed and the round number, opens a fresh ``EngineSession`` on
it, and evaluates first the 15 TPC-H reference and wrong queries
(``tpch_queries()``), then the 120 join-heavy fuzz queries of seeds 0..119
from ``QueryFuzzer(schema, instance=instance, join_heavy=True)``.  Each
operation is one ``EngineSession.evaluate`` call — what screening one
submission costs against a memoized reference; provenance and the SAT
solver are bypassed.  Within each group the order is shuffled by the
workload seed.

The fuzzer draws its literals from the instance's value pools, as its
docstring says to use it.  The pool-less scale-1 stream, which runs out of
memory, is an adversarial robustness case and not a throughput workload, so
it is not measured here.

The timed window is made of whole rounds; queries and instances are built
outside it.  After the window, a subset of round 0 chosen by the workload
seed — all 15 TPC-H queries and 20 of the fuzz queries — is re-evaluated
with the reference interpreter (``repro.engine.reference``) and must give
the same row sets; the whole stream takes the reference interpreter about
twice as long as the timed window.  Only a fingerprint (size and hash) of
each checked result outlives round 0, so the check holds no memory while
later rounds run.  ``peak_rss_mb`` is the median over rounds of each round's
peak resident size (the peak is reset as a round starts).
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter
from typing import Any

from common import derive_seed, percentile, reset_peak_rss, signal_ready, vm_hwm_mb

NAME = "tpch-eval"
TPCH_SCALE = 1.0
FUZZ_QUERIES = 120
#: Rounds a run measures at least; more follow while they fit in --seconds.
MIN_ROUNDS = 2
CHECKED_FUZZ_QUERIES = 20


class Round:
    def __init__(self, seed: int, index: int) -> None:
        from repro.datagen import tpch_instance
        from repro.engine.session import EngineSession
        from repro.workload.fuzz import QueryFuzzer
        from repro.workload.tpch_queries import tpch_queries

        started = perf_counter()
        self.instance = tpch_instance(TPCH_SCALE, seed=derive_seed(seed, NAME, index, "tpch"))
        self.build_seconds = perf_counter() - started
        order = random.Random(derive_seed(seed, NAME, index, "order"))
        tpch = [
            (expression, {})
            for query in tpch_queries()
            for expression in (query.correct_query, *query.wrong_queries)
        ]
        fuzzer = QueryFuzzer(self.instance.schema, instance=self.instance, join_heavy=True)
        fuzz = [(q.expression, q.params) for q in fuzzer.queries(FUZZ_QUERIES)]
        order.shuffle(tpch)
        order.shuffle(fuzz)
        # (expression, params, is a TPC-H query)
        self.ops = [(e, p, True) for e, p in tpch] + [(e, p, False) for e, p in fuzz]
        self.session = EngineSession(self.instance)


def run(seed: int, seconds: float, tracer: Any, setup_only: bool) -> dict[str, Any]:
    from layers import cache_counts

    round_ = Round(seed, 0)
    build_seconds = round_.build_seconds
    signal_ready()
    if setup_only:
        return {}

    checked = _checked_ops(seed, round_)
    latencies: list[float] = []
    peaks: list[float] = []
    measured = 0.0
    failed = 0
    index = 0
    while True:
        reset_peak_rss()
        tracer.enabled = tracer.active
        round_started = perf_counter()
        rows_out, kept, round_failed = _evaluate_all(
            round_, tracer, latencies, checked if index == 0 else set()
        )
        round_seconds = perf_counter() - round_started
        tracer.enabled = False
        peaks.append(vm_hwm_mb())
        measured += round_seconds
        failed += round_failed
        if index == 0:
            first = {
                **cache_counts([round_.session]),
                "engine.rows_out": rows_out,
                "datagen.build_s": build_seconds,
            }
            check_round = round_
            fingerprints = {p: _fingerprint(result.rows) for p, result in kept.items()}
        # Only round 0's instance and queries stay alive, for the check.
        round_.session = None
        del kept
        index += 1
        if index >= MIN_ROUNDS and measured + round_seconds > seconds:
            break
        gc.collect()
        round_ = Round(seed, index)
    del round_
    gc.collect()
    failed += _check(check_round, fingerprints)
    metrics = {
        "throughput_ops_s": len(latencies) / measured,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p95_ms": percentile(latencies, 0.95) * 1000.0,
        "peak_rss_mb": statistics.median(peaks),
        "rounds": index,
    }
    return {"attempted": len(latencies), "failed": failed, "metrics": metrics, "first_round": first}


def _evaluate_all(
    round_: Round, tracer: Any, latencies: list[float], keep: set[int]
) -> tuple[int, dict[int, Any], int]:
    """Evaluate a round's queries in order.

    Returns the rows returned, the results at the ``keep`` positions and the
    number of failed evaluations; every other result is dropped at once.
    """
    session = round_.session
    rows_out = failed = 0
    kept: dict[int, Any] = {}
    for position, (expression, params, _) in enumerate(round_.ops):
        started = perf_counter()
        try:
            result = tracer.call("op", session.evaluate, expression, params)
        except Exception:
            failed += 1
        else:
            rows_out += len(result.rows)
            if position in keep:
                kept[position] = result
        latencies.append(perf_counter() - started)
    return rows_out, kept, failed


def _checked_ops(seed: int, round_: Round) -> set[int]:
    tpch = [i for i, op in enumerate(round_.ops) if op[2]]
    fuzz = [i for i, op in enumerate(round_.ops) if not op[2]]
    sample = random.Random(derive_seed(seed, NAME, "checked")).sample(fuzz, CHECKED_FUZZ_QUERIES)
    return set(tpch) | set(sample)


def _fingerprint(rows: Any) -> tuple[int, int]:
    return len(rows), hash(frozenset(rows))


def _check(round_: Round, fingerprints: dict[int, tuple[int, int]]) -> int:
    """Checked operations of round 0 whose rows differ from the reference's."""
    from repro.engine.reference import ReferenceEvaluator

    failed = 0
    for position in sorted(fingerprints):
        expression, params, _ = round_.ops[position]
        expected = ReferenceEvaluator(round_.instance, params).rows(expression)
        failed += _fingerprint(expected) != fingerprints[position]
    return failed
