"""Shared pieces of the benchmark: repository paths, timing loops,
memory readings and the per-run outcome record."""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for one run (durable database directories, the served
#: workload's trace dump).  Inside the checkout, removed when a run ends.
WORK_ROOT = ROOT / ".perfbench_run"

#: LDBC generator shrink factor for every workload (SF30 becomes 1,650
#: persons / 121,150 directed edges; SF100 399,980 edges).
SCALE = 0.01
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 7


def import_engine():
    """Put the checkout's ``src`` on the path and import the engine; exit
    with a message (and no result line) when it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: engine sources not found under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    return repro


def median_of(reps: list[dict]) -> dict:
    """Median over set-up repetitions, key by key."""
    return {key: statistics.median(r[key] for r in reps) for key in reps[0]}


def reset_peak_rss(pid: int | str = "self") -> None:
    """Reset the kernel's resident-set high-water mark (``VmHWM``)."""
    with open(f"/proc/{pid}/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class PeakRss:
    """``VmHWM`` of the engine process per window of the timed phase.

    The high-water mark is reset when the timed phase starts and after
    every window; ``peak_rss_mb`` is the median of the window peaks, so
    one garbage-collection spike does not decide the figure.
    """

    WINDOW_S = 2.5

    def __init__(self, pid: int | str = "self"):
        self.pid = pid
        self.peaks: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "PeakRss":
        reset_peak_rss(self.pid)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.WINDOW_S):
            self.peaks.append(peak_rss_mb(self.pid))
            reset_peak_rss(self.pid)

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peaks.append(peak_rss_mb(self.pid))

    @property
    def median_mb(self) -> float:
        return statistics.median(self.peaks)


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (WAL provenance)."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    with open("/proc/mounts") as handle:
        for line in handle:
            parts = line.split()
            mount = parts[1]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                best, fstype = mount, parts[2]
    return fstype


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_label(n: int) -> int:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples
    beyond it (so a tail is never read off a handful of samples)."""
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return 50


#: The percentile ``iter_tail_ms`` reports, per workload: the highest
#: one a run at the benchmark's length supports with ten samples beyond
#: it in 20 s (relational_scan makes ~35 passes, the ldbc loops ~105
#: iterations; the served loop ~300 in each of its 4-s windows).
TAIL_PERCENTILE = {
    "ldbc_single": 90,
    "ldbc_batch": 90,
    "served_graph_oltp": 95,
    "relational_scan": 75,
}


@dataclass
class Outcome:
    """What one workload run measured and checked.

    Latencies are seconds.  ``iterations`` are the closed loop's
    iteration latencies of the untraced phase; ``ops`` holds per
    statement-kind latencies of the same phase.  ``windows``, when set,
    cuts that phase into (iteration latencies, work per second) per
    window, and the end-to-end figures are medians over the windows.
    """

    setup: dict
    iterations: list = field(default_factory=list)
    ops: dict = field(default_factory=dict)
    work_per_s: float = 0.0
    statements: int = 0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    traced_iterations: list = field(default_factory=list)
    windows: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0


def run_loop(seconds: float, step) -> tuple[list, float]:
    """Closed loop: call ``step()`` until ``seconds`` elapse; returns the
    per-iteration latencies ``step`` reports and the wall time."""
    latencies = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        latencies.append(step())
    return latencies, time.perf_counter() - start


def source_digest() -> str:
    """Commit id when the checkout is a git tree, else a hash of the
    engine sources (the benchmark's own checkout is not a repository)."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text().strip()
        else:
            return ref
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``; the share
    the hypervisor took between two readings shows host contention."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:9]]
    return fields[7], sum(fields)
