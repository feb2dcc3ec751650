"""Measurement plumbing shared by the workloads.

* :class:`Spans` — the traced run's span recorder: ``(name, start, end,
  parent)`` kept in memory, written once at the end, with each span's
  self time (its duration minus the part its children cover).
* :class:`Rounds` — per-round samples of the untraced run, scaled to a
  reference host speed and reduced to the end-to-end metrics;
  :class:`Ledger` — the distinct outputs of a run's rounds, for
  checking.
* CPU and resident-size readers for this process, its waited children
  and a running child process.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence


class Spans:
    """In-memory span recorder around the benchmark's calls into layers.

    Spans nest by call structure (a stack); the parent of a span is the
    span open when it started.  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.records), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Total self time in seconds per span name.

        Children of one parent run one after another on one thread, so
        the part of a span they cover is the sum of their durations
        clipped to the parent's interval."""
        covered: Dict[int, float] = {}
        for record in self.records:
            parent = record["parent"]
            if parent is None:
                continue
            p = self.records[parent]
            start = max(record["start"], p["start"])
            end = min(record["end"], p["end"])
            covered[parent] = covered.get(parent, 0.0) + max(end - start, 0.0)
        out: Dict[str, float] = {}
        for record in self.records:
            own = (record["end"] - record["start"]
                   - covered.get(record["id"], 0.0))
            out[record["name"]] = out.get(record["name"], 0.0) + own
        return out

    def dump(self, path: str) -> None:
        base = self.records[0]["start"] if self.records else 0.0
        rows = [dict(r, start=r["start"] - base, end=r["end"] - base)
                for r in self.records]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


class NullSpans:
    """Stand-in for :class:`Spans` on the untraced path."""

    @contextmanager
    def span(self, name: str):
        yield None


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


#: Iterations of the host calibration loop, and the time it takes on
#: the reference host when undisturbed (a 2-core x86-64 VM, Python
#: 3.11); timings are scaled to that speed.
CALIBRATION_ITERATIONS = 200_000
REFERENCE_LOOP_S = 0.008


def calibration_loop(iterations: int) -> int:
    """Fixed integer work in plain Python (no allocation, no I/O)."""
    total = 0
    for i in range(iterations):
        total += i & 7
    return total


def host_loop_s() -> float:
    """The fastest of three timings of the calibration loop: how fast
    this host runs plain Python right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        calibration_loop(CALIBRATION_ITERATIONS)
        best = min(best, time.perf_counter() - start)
    return best


class Rounds:
    """Per-round samples of one run, reduced to the end-to-end metrics.

    The host is shared, and other tenants slow a round down by up to
    several times, for stretches longer than a run.  Each round is
    therefore bracketed by a fixed calibration loop (:func:`host_loop_s`)
    and its timings are scaled to the speed at which that loop takes
    :data:`REFERENCE_LOOP_S`: a round run while the loop took 20% longer
    has its times divided by 1.2.  Each metric is the median over the
    run's rounds of the round's figure (for the lags: of the round's
    percentile); set-up time is the median over every set-up sample."""

    def __init__(self) -> None:
        self.rows: List[dict] = []
        self.setups: List[float] = []
        self.lag_samples = 0

    def add(self, events: int, wall_s: float, cpu_s: float,
            setups: Sequence[float], lags_ms: Sequence[float],
            loop_s: float) -> None:
        """Record one round; ``loop_s`` is the calibration loop's time
        around it (the faster of the timings before and after)."""
        scale = REFERENCE_LOOP_S / loop_s
        self.rows.append({
            "events_per_s": events / (wall_s * scale),
            "cpu_us_per_event": cpu_s * scale * 1e6 / events,
            "lag_p50": quantile(lags_ms, 0.50) * scale,
            "lag_p99": quantile(lags_ms, 0.99) * scale,
            "loop_ms": loop_s * 1e3})
        self.setups.extend(value * scale for value in setups)
        self.lag_samples += len(lags_ms)

    def metrics(self, peak_rss_mb: float) -> Dict[str, dict]:
        def median(key: str) -> float:
            return statistics.median(row[key] for row in self.rows)

        return {
            "events_per_s": metric(median("events_per_s"), "events/s"),
            "cpu_us_per_event": metric(median("cpu_us_per_event"),
                                       "us/event"),
            "setup_s": metric(statistics.median(self.setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "delivery_lag_p50_ms": metric(median("lag_p50"), "ms"),
            "delivery_lag_p99_ms": metric(median("lag_p99"), "ms"),
        }


class Ledger:
    """Distinct round outputs of a run, each checked once.

    Rounds of one run repeat the same operations on the same input, so
    their outputs normally coincide; keeping one copy per distinct
    output keeps the run's memory (and its peak resident size) the same
    however many rounds fit in it."""

    def __init__(self) -> None:
        self.outputs: Dict[int, object] = {}
        self.counts: Dict[int, int] = {}
        self.first = None

    def add(self, output, digest: int) -> None:
        if digest not in self.outputs:
            self.outputs[digest] = output
        self.counts[digest] = self.counts.get(digest, 0) + 1
        if self.first is None:
            self.first = output

    def items(self):
        """``(output, rounds)`` pairs."""
        return [(self.outputs[d], n) for d, n in self.counts.items()]


def metric(value: float, unit: str) -> dict:
    """One metric as the result line prints it."""
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# CPU and memory
# ----------------------------------------------------------------------
def cpu_now() -> float:
    """CPU seconds of this process plus its waited-for children (pool
    workers are joined before a pooled query returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident size of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def process_cpu(pid: int) -> Optional[float]:
    """CPU seconds a running process has used so far (``None`` when
    it cannot be read)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) / _TICKS
