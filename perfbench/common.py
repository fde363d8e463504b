"""Shared helpers of the workload children: seeds, statistics, process facts.

Every workload child is started by ``run.py`` as
``python3 perfbench/child.py WORKLOAD --seed N --seconds S --trace 0|1
[--setup-only]``.  It prints ``READY`` on its own line as soon as the first
operation can be issued, then runs its timed window and the output checks,
and prints one JSON line with its results last.  ``run.py`` times set-up
from the launch of the child to ``READY``, or from a ``LAUNCH`` line if the
child prints one first (a child that drives a server prints it just before
launching the server).
"""

from __future__ import annotations

import hashlib
import os
import sys
from typing import Any, Sequence

#: Where workload children put throwaway files (store files, span dumps),
#: relative to the checkout root they run from.  Listed in ``.gitignore``.
RUN_DIR = ".perfbench_run"


def derive_seed(seed: int, *labels: Any) -> int:
    """A 31-bit seed derived from the workload seed and a label path.

    Uses SHA-256 rather than ``hash()`` so derived seeds do not depend on
    ``PYTHONHASHSEED``.
    """
    text = "/".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident size.

    Lets a workload take the peak of each round on its own.  Kernels that
    refuse the reset leave the lifetime peak in place.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has consumed so far."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (scans ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def cmdline(pid: int) -> str:
    with open(f"/proc/{pid}/cmdline", "rb") as handle:
        return handle.read().replace(b"\0", b" ").decode(errors="replace")


def signal_launch() -> None:
    """Tell ``run.py`` that set-up starts now, not at the child's launch."""
    sys.stdout.write("LAUNCH\n")
    sys.stdout.flush()


def signal_ready() -> None:
    """Tell ``run.py`` that the first operation can now be issued."""
    sys.stdout.write("READY\n")
    sys.stdout.flush()
