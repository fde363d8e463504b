"""Outside-in layer timing: spans recorded around the program's entry points.

The traced run replaces public entry points by wrapping their names where
they are looked up — a function in the module that imports it (e.g.
``repro.engine.session.compile_plan``), a method on its class.  Nothing
inside the program changes, and ``repro.obs.trace`` is never activated.

Each span is ``(name, start, end, parent)``; its *self time* is its duration
minus the time its child spans cover.  Self times and call counts are summed
per name as spans close; the first :data:`MAX_KEPT_SPANS` spans are also kept
in memory and written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

MAX_KEPT_SPANS = 50_000


class Tracer:
    """A single-threaded span recorder with per-name self-time totals."""

    def __init__(self, active: bool = False) -> None:
        #: Whether this run is traced at all; ``enabled`` is switched on
        #: only inside the timed window.
        self.active = active
        self.enabled = False
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Exact counters recorded at span boundaries (e.g. SAT conflicts).
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[str, float, float, int]] = []
        # Open spans: [name, start, child_seconds, index in self.spans or -1].
        self._stack: list[list[Any]] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` under a span called ``name`` (when tracing is enabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if len(self.spans) < MAX_KEPT_SPANS:
            # Reserve the slot at open time so children can name their parent.
            index = len(self.spans)
            self.spans.append(None)  # type: ignore[arg-type]
        frame = [name, perf_counter(), 0.0, index]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.self_seconds[name] += duration - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += duration
            if index >= 0:
                self.spans[index] = (name, frame[1], end, parent)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str | Callable[..., str]) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module (for functions) or a class (for methods).
        ``name`` may be a callable that derives the span name from the call's
        arguments (e.g. from the executor's annotation domain).
        """
        original = getattr(owner, attr)
        namer = name if callable(name) else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_name = namer(*args, **kwargs) if namer is not None else name
            return tracer.call(span_name, original, *args, **kwargs)

        setattr(owner, attr, wrapper)

    # -- reporting -----------------------------------------------------------

    def self_ms(self, name: str) -> float:
        return self.self_seconds.get(name, 0.0) * 1000.0

    def dump(self, path: str) -> None:
        """Write the kept spans and the per-name totals as one JSON file."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        payload = {
            "self_seconds": dict(self.self_seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans_kept": len(self.spans),
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
