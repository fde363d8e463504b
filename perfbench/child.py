"""Entry point of one workload child process (started by ``run.py``).

``python3 perfbench/child.py WORKLOAD --seed N --seconds S --trace 0|1
[--setup-only]`` with ``src`` on ``PYTHONPATH``.  Prints ``READY`` once the
first operation can be issued and, unless ``--setup-only``, one JSON line
``{"attempted", "failed", "metrics", ...}`` last.
"""

from __future__ import annotations

import argparse
import json
import sys

from spans import Tracer

#: Span name → per-layer metric: mean self time per operation, in ms.
SPAN_METRICS = {
    "parser.parse": "parser.parse_ms",
    "engine.session": "engine.session_ms",
    "engine.compile": "engine.compile_ms",
    "engine.optimize": "engine.optimize_ms",
    "engine.reorder": "engine.reorder_ms",
    "engine.semijoin": "engine.semijoin_ms",
    "engine.build_side": "engine.build_side_ms",
    "engine.execute": "engine.execute_ms",
    "provenance.annotate": "provenance.annotate_ms",
    "core.explain": "core.explain_ms",
    "core.fk_clauses": "core.fk_clauses_ms",
    "core.finalize": "core.finalize_ms",
    "solver.encode": "solver.encode_ms",
    "solver.sat": "solver.sat_ms",
    "api.submit": "api.submit_ms",
    "api.serialize": "api.serialize_ms",
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=["class-explain", "tpch-eval", "daemon-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--span-dump", default=None)
    args = parser.parse_args()

    if args.workload == "class-explain":
        import class_explain as workload
    elif args.workload == "tpch-eval":
        import tpch_eval as workload
    else:
        import daemon_mix as workload

    tracer = Tracer(active=bool(args.trace))
    if tracer.active and args.workload != "daemon-mix":
        from layers import instrument

        instrument(tracer)
    result = workload.run(args.seed, args.seconds, tracer, args.setup_only)
    if args.setup_only:
        return 0
    layers = dict(result.pop("first_round", {}))
    if tracer.active and args.workload != "daemon-mix":
        ops = result["attempted"]
        for span, metric in SPAN_METRICS.items():
            layers[metric] = tracer.self_ms(span) / ops
        if args.span_dump:
            tracer.dump(args.span_dump)
    result["layers"] = layers
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
