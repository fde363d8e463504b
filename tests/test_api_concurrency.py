"""Concurrency stress tests: pooled grading is bit-identical to serial.

The service grades serially; callers that want concurrency submit from their
own threads, all sharing one locked warm session per dataset.  These tests
drive ``submit`` from a thread pool and compare with ``submit_batch``.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import GradingService, SubmissionRequest
from repro.datagen import university_instance
from repro.workload import course_questions


def class_batch():
    """Every question's correct query plus every handwritten mistake."""
    requests = []
    for question in course_questions():
        requests.append(
            SubmissionRequest(
                question.correct_text, question.correct_text, id=f"{question.key}/ok"
            )
        )
        for index, wrong in enumerate(question.wrong_texts):
            requests.append(
                SubmissionRequest(
                    question.correct_text, wrong, id=f"{question.key}/wrong{index}"
                )
            )
        # A malformed submission exercises the error path under the pool.
        requests.append(
            SubmissionRequest(
                question.correct_text, "\\select_{", id=f"{question.key}/crash"
            )
        )
    return requests


@pytest.fixture(scope="module")
def hidden_instance():
    return university_instance(35, seed=21)


def grades(service, requests):
    """Serial batch grading (deduplicated) as comparable dicts."""
    return [
        graded.to_dict(include_timings=False)
        for graded in service.submit_batch(requests)
    ]


def pooled_grades(service, requests, *, workers=8):
    """Every request submitted individually from a thread pool."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        graded = list(pool.map(service.submit, requests))
    return [g.to_dict(include_timings=False) for g in graded]


class TestDeterminismUnderConcurrency:
    def test_pooled_equals_serial_bit_for_bit(self, hidden_instance):
        requests = class_batch()
        serial_service = GradingService.for_instance(hidden_instance, name="hidden")
        serial = grades(serial_service, requests)

        pooled_service = GradingService.for_instance(hidden_instance, name="hidden")
        pooled = pooled_grades(pooled_service, requests)

        assert pooled == serial

    def test_repeated_pooled_runs_are_stable(self, hidden_instance):
        requests = class_batch()
        service = GradingService.for_instance(hidden_instance, name="hidden")
        first = pooled_grades(service, requests)
        second = pooled_grades(service, requests)
        assert first == second

    def test_shared_session_is_actually_shared(self, hidden_instance):
        service = GradingService.for_instance(hidden_instance, name="hidden")
        session = service.session_for()
        before = session.cache_info()["plan_misses"]
        pooled_grades(service, class_batch())
        pooled_grades(service, class_batch())
        after = session.cache_info()
        # The second batch is served from the caches: plans were only
        # compiled once per distinct query, and hits dominate misses.
        assert after["plan_misses"] > before
        assert after["plan_hits"] > 0

    def test_mixed_datasets_in_one_pooled_batch(self):
        service = GradingService()
        correct = "\\project_{name} \\select_{dept = 'ECON'} Registration"
        wrong = "\\project_{name} Registration"
        requests = [
            SubmissionRequest(correct, wrong, dataset="toy-university", id="toy"),
            SubmissionRequest(correct, wrong, dataset="university:20", id="gen"),
            SubmissionRequest(correct, correct, dataset="toy-university", id="ok"),
        ]
        serial = grades(service, requests)
        pooled = pooled_grades(service, requests, workers=4)
        assert pooled == serial
        assert [g["id"] for g in pooled] == ["toy", "gen", "ok"]
