"""daemon-mix: a class grading through ``repro serve``, with dataset edits.

Set-up runs from launching ``python3 -m repro.cli serve --workers 1`` on
``university:300`` (dataset seed derived from the workload seed) with a
SQLite store file in a fresh directory under ``.perfbench_run/``, and ends
when the first grade succeeds — not when ``/healthz`` first answers, since
the worker is still warming then.  The client's own start-up comes before
the launch and the planning of the request stream after the first grade,
so neither counts.

The request stream is a class: students x 8 questions in an order shuffled
by the workload seed; about half the submissions are the reference query,
the rest a mistake drawn with heavy (Zipf) repetition from that question's
``course_submission_pool()`` entries.  The correct share (0.5) and the Zipf
exponent (1.5) are assumptions, not measured from a real class; together
with the edit rate they set the store-hit share (``server.store_hit_ratio``
reads about 0.66).  Every 100th request is instead a
single-tuple ``update`` of a ``Registration`` row via
``/v1/datasets/mutate``, which purges the store, so later resubmissions
become delta-maintained misses.

An open-loop generator sends the stream at RATE requests/s over at most two
keep-alive connections; latency is timed from each request's scheduled send
time, so a stall also charges the requests queued behind it.  An edit is a
barrier: it waits for the grades sent before it and holds back those after
it, so the edit order of the run is well defined.

After the window, ``/metrics`` is scraped, the daemon's and its worker's
``VmHWM`` are read, the daemon is stopped with SIGTERM, and the whole stream
is replayed in-process through ``GradingService`` (``mutate`` for edits):
every grade envelope, timings and store source aside, must be identical.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
from time import perf_counter, sleep
from typing import Any

from common import (
    RUN_DIR,
    child_pids,
    cmdline,
    cpu_seconds,
    derive_seed,
    percentile,
    ratio,
    signal_launch,
    signal_ready,
    vm_hwm_mb,
)

NAME = "daemon-mix"
DATASET = "university:300"
STUDENTS = 300
RATE = 20.0
CONNECTIONS = 2
EDIT_EVERY = 100
ZIPF_EXPONENT = 1.5
STARTUP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0


# ---------------------------------------------------------------------------
# The request stream
# ---------------------------------------------------------------------------


def dataset_seed_of(seed: int) -> int:
    return derive_seed(seed, NAME, "dataset") % 100_000


def plan_stream(seed: int, count: int) -> tuple[list[tuple[str, dict[str, Any]]], float]:
    """([(kind, payload)], local build seconds) of one run.

    The stream's edits need the dataset's tuple ids, so the client builds its
    own copy of the daemon's dataset (same call, same seed).
    """
    from repro.datagen import university_instance
    from repro.workload.course import course_questions, course_submission_pool
    from repro.workload.fuzz import to_dsl

    rng = random.Random(derive_seed(seed, NAME, "stream"))
    dataset_seed = dataset_seed_of(seed)
    questions = course_questions()
    pool = course_submission_pool()
    mistakes: dict[str, tuple[list[str], list[float]]] = {}
    for question in questions:
        texts = [to_dsl(query) for query in pool.wrong_queries[question.key]]
        rng.shuffle(texts)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(texts))]
        mistakes[question.key] = (texts, weights)

    started = perf_counter()
    local = university_instance(STUDENTS, seed=dataset_seed)
    build_seconds = perf_counter() - started
    registrations = sorted(tid for tid, _ in local.relation("Registration").tuples())
    departments = sorted({values[2] for _, values in local.relation("Registration").tuples()})

    slots = [(s, q) for s in range(-(-count // len(questions))) for q in questions]
    rng.shuffle(slots)
    stream: list[tuple[str, dict[str, Any]]] = []
    for index in range(count):
        if (index + 1) % EDIT_EVERY == 0:
            tid = rng.choice(registrations)
            name, course, _, _ = local.lookup(tid)
            values = [name, course, rng.choice(departments), rng.randint(40, 100)]
            local.update(tid, tuple(values))
            stream.append(("edit", {"operations": [{"op": "update", "tid": tid, "values": values}]}))
            continue
        _, question = slots[index]
        if rng.random() < 0.5:
            test = question.correct_text
        else:
            texts, weights = mistakes[question.key]
            test = rng.choices(texts, weights)[0]
        stream.append(("grade", {"correct_query": question.correct_text, "test_query": test}))
    return stream, build_seconds


def probe_request() -> dict[str, Any]:
    from repro.workload.course import course_questions

    question = course_questions()[0]
    return {"correct_query": question.correct_text, "test_query": question.correct_text}


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------


class Daemon:
    def __init__(self, dataset_seed: int) -> None:
        os.makedirs(RUN_DIR, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="daemon-mix-", dir=RUN_DIR)
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", "0", "--workers", "1",
                "--dataset", DATASET, "--seed", str(dataset_seed),
                "--store", os.path.join(self.directory, "store.sqlite3"),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.stderr: list[str] = []
        first = self.process.stderr.readline()
        self.stderr.append(first)
        match = re.search(r"http://([\d.]+):(\d+)", first)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {first!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr.append(line)

    def worker_pid(self) -> int:
        for pid in child_pids(self.process.pid):
            if "spawn_main" in cmdline(pid):
                return pid
        raise RuntimeError("daemon has no grading worker")

    def stop(self) -> None:
        """SIGTERM (drain), then SIGKILL the process group if it lingers."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        shutil.rmtree(self.directory, ignore_errors=True)


class Connection:
    """One keep-alive HTTP connection with TCP_NODELAY."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, path: str, payload: Any = None) -> tuple[int, Any]:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        raw = response.read().decode()
        if "json" in response.headers.get("Content-Type", ""):
            return response.status, json.loads(raw)
        return response.status, raw

    def close(self) -> None:
        self.conn.close()


def scrape(connection: Connection) -> dict[tuple[str, tuple], float]:
    """``/metrics`` as {(sample name, sorted labels): value}."""
    from repro.obs.promparse import parse_exposition

    status, text = connection.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    samples: dict[tuple[str, tuple], float] = {}
    for family in parse_exposition(text).values():
        for sample in family.samples:
            samples[(sample.name, tuple(sorted(sample.labels.items())))] = sample.value
    return samples


def _sum(samples: dict, name: str, **labels: str) -> float:
    wanted = set(labels.items())
    return sum(v for (n, l), v in samples.items() if n == name and wanted <= set(l))


# ---------------------------------------------------------------------------
# The open-loop generator
# ---------------------------------------------------------------------------


class OpenLoop:
    """Send ``stream`` at ``RATE``/s over ``CONNECTIONS`` connections."""

    def __init__(self, daemon: Daemon, stream: list[tuple[str, dict[str, Any]]]) -> None:
        self.daemon = daemon
        self.stream = stream
        self.results: list[dict[str, Any] | None] = [None] * len(stream)
        self._next = 0
        self._inflight = 0
        self._edit_pending = False
        self._cond = threading.Condition()

    def _take(self) -> int | None:
        with self._cond:
            index = self._next
            if index >= len(self.stream):
                return None
            self._next += 1
            if self.stream[index][0] == "edit":
                self._edit_pending = True
                while self._inflight:
                    self._cond.wait()
            else:
                while self._edit_pending:
                    self._cond.wait()
                self._inflight += 1
            return index

    def _finish(self, index: int) -> None:
        with self._cond:
            if self.stream[index][0] == "edit":
                self._edit_pending = False
            else:
                self._inflight -= 1
            self._cond.notify_all()

    def _sender(self, start: float) -> None:
        connection = Connection(self.daemon.host, self.daemon.port)
        try:
            while (index := self._take()) is not None:
                kind, payload = self.stream[index]
                due = start + index / RATE
                delay = due - perf_counter()
                if delay > 0:
                    sleep(delay)
                sent = perf_counter()
                path = "/v1/datasets/mutate" if kind == "edit" else "/v1/grade"
                try:
                    status, body = connection.request("POST", path, payload)
                except (OSError, http.client.HTTPException) as exc:
                    status, body = 0, str(exc)
                    connection.close()
                    connection = Connection(self.daemon.host, self.daemon.port)
                done = perf_counter()
                self.results[index] = {
                    "status": status,
                    "body": body,
                    "latency": done - due,
                    "service": done - sent,
                    "late": sent - due,
                }
                self._finish(index)
        finally:
            connection.close()

    def run(self) -> float:
        start = perf_counter() + 0.05
        threads = [
            threading.Thread(target=self._sender, args=(start,)) for _ in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return perf_counter() - start


# ---------------------------------------------------------------------------
# The check: replay in-process
# ---------------------------------------------------------------------------


def replay_mismatches(
    dataset_seed: int,
    stream: list[tuple[str, dict[str, Any]]],
    results: list[dict[str, Any]],
    probe: dict[str, Any],
    probe_envelope: dict[str, Any],
) -> int:
    """Grades whose envelope differs from in-process grading (or that failed)."""
    from repro.api.service import GradingService

    service = GradingService(default_dataset=DATASET, default_seed=dataset_seed)
    graded: dict[tuple[str, str], dict[str, Any]] = {}

    def expected(payload: dict[str, Any]) -> dict[str, Any]:
        key = (payload["correct_query"], payload["test_query"])
        if key not in graded:
            graded[key] = service.submit(payload).to_dict(include_timings=False)
        return graded[key]

    def clean(envelope: dict[str, Any]) -> dict[str, Any]:
        return {k: v for k, v in envelope.items() if k not in ("store", "wall_time")}

    mismatches = int(clean(probe_envelope) != expected(probe))
    for (kind, payload), result in zip(stream, results):
        if result["status"] != 200:
            mismatches += 1
        elif kind == "edit":
            service.mutate(payload)
            graded.clear()
        else:
            mismatches += clean(result["body"]) != expected(payload)
    return mismatches


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def _first_grade(daemon: Daemon, probe: dict[str, Any]) -> dict[str, Any]:
    deadline = perf_counter() + STARTUP_TIMEOUT
    while True:
        try:
            connection = Connection(daemon.host, daemon.port)
            try:
                status, body = connection.request("POST", "/v1/grade", probe)
            finally:
                connection.close()
            if status == 200:
                return body
        except (OSError, http.client.HTTPException):
            pass
        if perf_counter() > deadline or daemon.process.poll() is not None:
            raise RuntimeError("daemon never answered a grade: " + "".join(daemon.stderr))
        sleep(0.02)


def run(seed: int, seconds: float, tracer: Any, setup_only: bool) -> dict[str, Any]:
    dataset_seed = dataset_seed_of(seed)
    probe = probe_request()
    # Set-up is what a user of ``repro serve`` waits for: from launching the
    # daemon until its first grade.  The client's own start-up and the
    # planning of the stream stay out of it.
    signal_launch()
    daemon = Daemon(dataset_seed)
    try:
        probe_envelope = _first_grade(daemon, probe)
        signal_ready()
        if setup_only:
            return {}
        stream, build_seconds = plan_stream(seed, int(RATE * seconds))
        worker = daemon.worker_pid()
        control = Connection(daemon.host, daemon.port)
        before = scrape(control)
        cpu_before = cpu_seconds(daemon.process.pid) + cpu_seconds(worker)
        loop = OpenLoop(daemon, stream)
        window = loop.run()
        cpu = cpu_seconds(daemon.process.pid) + cpu_seconds(worker) - cpu_before
        after = scrape(control)
        control.close()
        peak_rss = vm_hwm_mb(daemon.process.pid) + vm_hwm_mb(worker)
    finally:
        daemon.stop()

    results = [r for r in loop.results if r is not None]
    if len(results) != len(stream):
        raise RuntimeError("open loop lost requests")
    mismatches = replay_mismatches(dataset_seed, stream, results, probe, probe_envelope)

    grades = [r for (kind, _), r in zip(stream, results) if kind == "grade"]
    edits = [r for (kind, _), r in zip(stream, results) if kind == "edit"]
    ok = [r for r in grades if r["status"] == 200]
    source = [r["body"].get("store") for r in ok]
    hits = [r for r in ok if r["body"].get("store") == "hit"]
    misses = [r for r in ok if r["body"].get("store") == "miss"]

    def delta(name: str, **labels: str) -> float:
        return _sum(after, name, **labels) - _sum(before, name, **labels)

    def stage_ms(family: str, stage: str) -> float:
        count_ = delta(f"{family}_count", stage=stage)
        return ratio(delta(f"{family}_sum", stage=stage), count_) * 1000.0

    lookup_ms = stage_ms("repro_server_stage_seconds", "store_lookup")
    layers = {
        "server.store_lookup_ms": lookup_ms,
        "server.queue_wait_ms": stage_ms("repro_server_stage_seconds", "queue_wait"),
        "server.grade_ms": stage_ms("repro_server_stage_seconds", "grade"),
        "server.store_write_ms": stage_ms("repro_server_stage_seconds", "store_write"),
        "server.explain_solver_ms": stage_ms("repro_server_explain_stage_seconds", "solver"),
        "server.explain_provenance_ms": stage_ms(
            "repro_server_explain_stage_seconds", "provenance"
        ),
        # A hit's server-side time is its store lookup; the rest is HTTP.
        "server.http_ms": percentile([r["service"] for r in hits], 0.5) * 1000.0 - lookup_ms,
        "server.store_hit_ratio": ratio(source.count("hit"), len(grades)),
        "server.coalesced": source.count("coalesced"),
        "server.rejected": sum(r["status"] in (429, 503, 504) for r in grades + edits),
        "server.miss_p50_ms": percentile([r["latency"] for r in misses], 0.5) * 1000.0,
        "server.mutate_p50_ms": percentile([r["latency"] for r in edits], 0.5) * 1000.0,
        "server.grade_p99_ms": percentile([r["latency"] for r in grades], 0.99) * 1000.0,
        "loadgen.late_p99_ms": percentile([r["late"] for r in results], 0.99) * 1000.0,
        "engine.delta_maintained": delta("repro_engine_delta_maintained_total"),
        "engine.delta_fallback": delta("repro_engine_delta_fallback_total"),
        "datagen.build_s": build_seconds,
    }
    metrics = {
        # Requests served per CPU-second the daemon and its worker spent: a
        # capacity figure, since at a fixed offered rate the completion rate
        # would only echo that rate.
        "throughput_ops_s": len(results) / cpu,
        "latency_p50_ms": percentile([r["latency"] for r in grades], 0.50) * 1000.0,
        "latency_p95_ms": percentile([r["latency"] for r in grades], 0.95) * 1000.0,
        "peak_rss_mb": peak_rss,
        "window_s": window,
    }
    return {
        "attempted": len(results),
        "failed": mismatches,
        "metrics": metrics,
        "first_round": layers,
    }
