#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and each module's docstring):

* ``class-explain`` — in-process ``GradingService.submit`` explains of wrong
  course and TPC-H submissions (``class_explain.py``);
* ``tpch-eval`` — in-process ``EngineSession.evaluate`` of TPC-H and
  join-heavy fuzz queries on ``tpch:1`` (``tpch_eval.py``);
* ``daemon-mix`` — an open-loop class stream with dataset edits against
  ``repro serve --workers 1`` (``daemon_mix.py``).

Each workload runs in its own child process (``child.py``) with ``src`` on
``PYTHONPATH``.  ``setup_s`` is the time from launching a child until it
reports that the first operation can be issued — interpreter start-up,
imports, building and warming the dataset the first operation runs on; for
``daemon-mix``, from launching the daemon until it answered its first
grade.  Children write and reuse bytecode under ``.perfbench_run/pycache``,
so only the first launch in a checkout compiles.  With ``--trace 0`` the
set-up is measured ``SETUP_SAMPLES`` times (the last launch goes on to run
the timed window) and the median is reported; the JSON result carries the end-to-end metrics of
``BENCHMARK.json`` (``setup_s``, ``peak_rss_mb``), and the lines before it
print every figure the child measured, gated or not, as ``name value unit``
(throughput, latency quantiles, rounds).

With ``--trace 1`` one untraced child and then one traced child run the
same window; the traced one wraps the program's entry points (``layers.py``)
and reports the per-layer metrics.  The untraced child's throughput and
latency quantiles are reported as ``run.*`` metrics, and
``trace.overhead_ratio`` is the untraced throughput over the traced one.
``daemon-mix`` runs only the untraced child: its layers are the daemon's
``/metrics`` and client timing, nothing is wrapped, and
``trace.overhead_ratio`` reads 0 (not measured).
Metrics of layers a workload does not reach read 0.  The traced child's
spans (in-process workloads) are written to
``.perfbench_run/spans-WORKLOAD-seedN.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any output check that fails
counts its operation as failed.  Outside a checkout with ``src/repro`` the
command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("class-explain", "tpch-eval", "daemon-mix")
SETUP_SAMPLES = 5
#: Every child must have finished this long after the command started.
DEADLINE_SECONDS = 170.0


def unit_of(name: str, spec: dict[str, Any]) -> str:
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    for suffix, unit in (("_ops_s", "1/s"), ("_ms", "ms"), ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


class ChildFailed(RuntimeError):
    pass


def run_child(args: argparse.Namespace, deadline: float, *flags: str) -> tuple[float, dict[str, Any]]:
    """Run one workload child: (seconds from launch to READY, its JSON result).

    A ``--setup-only`` child prints no result and yields ``{}``.
    """
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *flags,
    ]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Set-up should measure a start from compiled bytecode, as an installed
    # package has; only the first launch in a checkout compiles.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".perfbench_run", "pycache")
    lines: queue.Queue = queue.Queue()
    launched = perf_counter()
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )

    def read() -> None:
        for line in process.stdout:
            lines.put((perf_counter(), line.rstrip("\n")))
        lines.put((perf_counter(), None))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    setup_s: float | None = None
    last = ""
    try:
        while True:
            try:
                stamp, line = lines.get(timeout=max(0.0, deadline - perf_counter()))
            except queue.Empty:
                raise ChildFailed(f"{args.workload} child ran past the deadline") from None
            if line is None:
                break
            if line == "LAUNCH" and setup_s is None:
                launched = stamp
            elif line == "READY" and setup_s is None:
                setup_s = stamp - launched
            elif line:
                last = line
        code = process.wait(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        reader.join(timeout=5)
    if code != 0 or setup_s is None:
        raise ChildFailed(f"{args.workload} child exited with status {code}")
    return setup_s, json.loads(last) if last else {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to perfbench/ — not a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    deadline = perf_counter() + DEADLINE_SECONDS
    values: dict[str, float] = {}
    try:
        if args.trace == 0:
            setups = [
                run_child(args, deadline, "--setup-only")[0] for _ in range(SETUP_SAMPLES - 1)
            ]
            setup_s, result = run_child(args, deadline)
            setups.append(setup_s)
            values.update(result["metrics"])
            values["setup_s"] = statistics.median(setups)
            # Everything else measured, gated or not: end-to-end figures, then
            # what the untraced child measures of the layers anyway (round-0
            # counts; for daemon-mix the client timing and /metrics stages).
            measured = [*sorted(result["metrics"].items()), *sorted(result["layers"].items())]
            for name, value in measured:
                print(f"{args.workload} {name} {value} {unit_of(name, spec)}")
            print(f"{args.workload} setup_s_samples {setups} s")
            results = [result]
            wanted = spec["end_to_end"]
        else:
            _, untraced = run_child(args, deadline)
            if args.workload == "daemon-mix":
                # The daemon's layers come from its /metrics and client
                # timing, which the untraced child already takes; nothing
                # is wrapped, so there is no overhead to report.
                traced = untraced
                values["trace.overhead_ratio"] = 0.0
                results = [untraced]
            else:
                dump = os.path.join(".perfbench_run", f"spans-{args.workload}-seed{args.seed}.json")
                _, traced = run_child(args, deadline, "--trace", "1", "--span-dump", dump)
                values["trace.overhead_ratio"] = (
                    untraced["metrics"]["throughput_ops_s"] / traced["metrics"]["throughput_ops_s"]
                )
                results = [untraced, traced]
            values.update(traced["layers"])
            for name in ("throughput_ops_s", "latency_p50_ms", "latency_p95_ms"):
                values[f"run.{name}"] = untraced["metrics"][name]
            wanted = spec["per_layer"]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics: dict[str, dict[str, Any]] = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None:
            if args.trace == 0:
                print(f"perfbench: {args.workload} did not measure {metric['name']}", file=sys.stderr)
                return 1
            value = 0.0  # a layer this workload does not reach
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
