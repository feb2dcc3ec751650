"""Workloads, checks and tracing of the ``perfbench`` benchmark."""

from __future__ import annotations

from typing import Dict, Tuple


def run_workload(root: str, workdir: str, workload: str, seed: int,
                 seconds: float, trace: bool) -> Tuple[object, Dict]:
    """Run one workload; returns its outcome and the metrics to print
    (end-to-end untraced, per-layer traced)."""
    if trace:
        from .layers import run_traced
        return run_traced(root, workdir, workload, seed, seconds)
    if workload == "serve-push":
        from .serve import run_serve
        outcome, _ = run_serve(root, workdir, seed, seconds)
    elif workload == "stream-registry":
        from .inprocess import run_stream
        outcome = run_stream(seed, seconds)
    else:
        from .inprocess import run_batch
        outcome = run_batch(workload, seed, seconds)
    return outcome, outcome.rounds.metrics(outcome.peak_rss_mb)
