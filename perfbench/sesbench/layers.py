"""The traced run: one sweep through every layer's public functions.

A traced run first repeats the workload's untraced path briefly (for
correctness, the operation counts and the tracing overhead), then
sweeps the workload's patterns and events through each layer on its
own, with a span around every call:

======================  ===============================================
setup                   ``parse_query_spec`` → ``repro.compile`` →
                        ``PatternRegistry.register`` → server start
admission               ``VectorizedPrefilter.admission_mask``
execution               ``SESExecutor.run`` (raw accepted buffers)
selection               ``core.semantics.select_matches``
parallel                ``ParallelPartitionedMatcher.run`` (2 workers)
registry                ``PatternRegistry.push_many`` + ``close``
delivery                ``SubscriptionHub.publish`` (with the WAL's
                        ``DeliveryLog.append`` as a child span),
                        ``sse_format``
protocol                ``encode_frame`` batches → ``FrameDecoder`` +
                        ``events_from_json``
server                  a ``PushServer`` fed by the framed generator
======================  ===============================================

On ``serve-push`` the set-up and server figures come from a traced
served round (the real ``repro serve`` process); every other layer is
swept in this process over the same stream and pattern set.  Layers
that a workload's own path does not use are swept all the same, so
that a change which should not move them can be seen not to.

Times are scaled to the reference host speed like the end-to-end
timings (:class:`~sesbench.common.Rounds`) and are medians over sweeps;
counts come from the first sweep, so they repeat exactly for a given
seed.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Tuple

import repro
from repro.automaton.executor import SESExecutor
from repro.core.relation import EventRelation
from repro.core.semantics import select_matches
from repro.lang import parse_query_spec
from repro.net import PushServer, SubscriptionHub
from repro.net.protocol import (FrameDecoder, encode_frame, event_from_json,
                                event_to_json, sse_format)
from repro.parallel.pool import ParallelPartitionedMatcher, chunk_partitions
from repro.plan.prefilter import popcount
from repro.registry import PatternRegistry
from repro.resilience import DeliveryLog

from . import inputs
from .common import (REFERENCE_LOOP_S, Spans, host_loop_s, metric,
                     quantile)
from .inprocess import SLICE, run_batch, run_stream

#: Pool size and load-balancing granularity of the parallel sweep.
POOL_WORKERS = 2
CHUNKS_PER_WORKER = 4
#: Events per frame and offered rate of the in-process server probe.
PROBE_BATCH = 64
PROBE_RATE = 20000


class TimedLog:
    """A :class:`DeliveryLog` whose appends are recorded as spans."""

    def __init__(self, path: str, spans: Spans) -> None:
        self.log = DeliveryLog(path)
        self.spans = spans

    def append(self, record: dict) -> None:
        with self.spans.span("resilience.delivery.append"):
            self.log.append(record)

    def __iter__(self):
        return iter(self.log)


def sweep(workload: str, queries, events, workdir: str, spans: Spans,
          index: int) -> Dict[str, float]:
    """One pass through every layer; returns the counts it saw."""
    counts: Dict[str, float] = {}
    n = len(events)
    relation = EventRelation(events)

    # -- set-up --------------------------------------------------------
    repro.clear_plan_cache()
    with spans.span("lang.parse"):
        patterns = [parse_query_spec(q.text)[0] for q in queries]
    with spans.span("plan.compile"):
        plans = [repro.compile(p) for p in patterns]
    with spans.span("registry.register"):
        registry = PatternRegistry()
        for query, plan in zip(queries, plans):
            registry.register(plan, pattern_id=query.pid)
    wal_path = os.path.join(workdir, f"sweep-{index}.jsonl")
    with spans.span("net.server.start"):
        hub = SubscriptionHub(wal=TimedLog(wal_path, spans))
        server = PushServer(SubscriptionHub(), submit=_discard).start()

    # -- admission, execution, selection --------------------------------
    accepted_total = selected = 0
    counts.update({"automaton.instances_created": 0,
                   "automaton.transitions_fired": 0,
                   "automaton.max_instances": 0, "admitted": 0})
    with spans.span("path.batch"):
        for plan in plans:
            prefilter = plan.prefilter()
            with spans.span("plan.prefilter"):
                mask = prefilter.admission_mask(events)
            counts["admitted"] += popcount(mask)
            with spans.span("automaton.feed"):
                result = SESExecutor(plan.automaton,
                                     event_filter=prefilter.cursor(mask, n),
                                     selection="accepted").run(events)
            stats = result.stats
            counts["automaton.instances_created"] += stats.instances_created
            counts["automaton.transitions_fired"] += stats.transitions_fired
            counts["automaton.max_instances"] = max(
                counts["automaton.max_instances"],
                stats.max_simultaneous_instances)
            accepted_total += stats.accepted_buffers
            with spans.span("semantics.select"):
                selected += len(select_matches(result.accepted))
    counts["automaton.accepted_buffers"] = accepted_total
    counts["semantics.select_out"] = selected

    # -- parallel ------------------------------------------------------
    # The batch workloads run the pool for every pattern; the streaming
    # ones (whose path does not use it) for their first pattern only.
    pooled = plans if workload.startswith("batch") else plans[:1]
    with spans.span("path.pool"):
        for plan in pooled:
            with spans.span("parallel.pool"):
                result = ParallelPartitionedMatcher(
                    plan, workers=POOL_WORKERS, selection="accepted",
                    chunks_per_worker=CHUNKS_PER_WORKER).run(relation)
            with spans.span("semantics.select.pool"):
                select_matches(result.accepted)
    parts = sorted(relation.partition_by("ID").items(),
                   key=lambda kv: str(kv[0]))
    sizes = [sum(len(part) for _, part in chunk) for chunk in
             chunk_partitions(parts, POOL_WORKERS * CHUNKS_PER_WORKER)]
    counts["parallel.partition_skew"] = max(sizes) / statistics.mean(sizes)
    counts["pool_events"] = n * len(pooled)

    # -- registry (streaming) -----------------------------------------
    reported: List[Tuple[str, object]] = []
    registry.on_match(lambda pid, match: reported.append((pid, match)))
    active_max = 0
    with spans.span("registry.push"):
        for i in range(0, n, SLICE):
            registry.push_many(events[i:i + SLICE])
            active_max = max(active_max, registry.active_instances)
        registry.close()
    counts["registry.predicates"] = registry.predicate_count
    counts["registry.prefix_groups"] = registry.prefix_group_count
    counts["registry.active_instances_max"] = active_max
    counts["stream.matches_reported"] = len(reported)

    # -- delivery: hub publish (+ WAL append), SSE encoding -------------
    entries = []
    duplicates = 0
    with spans.span("net.hub.publish"):
        for pid, match in reported:
            entry = hub.publish(match, pattern_id=pid)
            if entry is None:
                duplicates += 1
            else:
                entries.append(entry)
    counts["net.hub.duplicates_suppressed"] = duplicates
    counts["published"] = len(entries)
    counts["resilience.delivery.wal_bytes"] = (
        os.path.getsize(wal_path) if os.path.exists(wal_path) else 0)
    sse_bytes = 0
    with spans.span("net.protocol.sse"):
        for entry in entries:
            sse_bytes += len(sse_format(entry.payload, event_id=entry.seq,
                                        event="match"))
    counts["net.protocol.sse_bytes_per_match"] = (
        sse_bytes / len(entries) if entries else 0.0)

    # -- protocol: frame decoding --------------------------------------
    frames = b"".join(
        encode_frame({"type": "batch", "seq": k, "events": [
            event_to_json(e) for e in events[i:i + PROBE_BATCH]]})
        for k, i in enumerate(range(0, n, PROBE_BATCH)))
    with spans.span("net.protocol.decode"):
        decoded = 0
        for frame in FrameDecoder().feed(frames):
            decoded += len([event_from_json(o) for o in frame["events"]])
    if decoded != n:
        raise RuntimeError(f"decoded {decoded} of {n} events")
    counts["net.protocol.frame_bytes_per_event"] = len(frames) / n

    # -- server: framed ingest into an in-process PushServer ------------
    if workload != "serve-push":
        probe = server_probe(server.port, events, spans)
        counts.update(probe)
    server.shutdown(grace=1.0)
    return counts


def _discard(batch) -> None:
    """Ingest sink of the in-process server probe (no matching)."""


def server_probe(port: int, events, spans: Spans) -> Dict[str, float]:
    """Offer the events to an in-process server on an open-loop schedule;
    returns ack round trips, queue depth and generator lateness."""
    from .serve import Ingest, _frames
    ingest = Ingest(port)
    frames = _frames(events, PROBE_BATCH, 1)
    step = PROBE_BATCH / PROBE_RATE
    late = []
    with spans.span("loadgen.probe"):
        start = time.perf_counter() + 0.005
        for k, (seq, frame) in enumerate(frames):
            due = start + k * step
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            late.append(max(time.perf_counter() - due, 0.0) * 1e3)
            ingest.send(seq, frame)
        rtts, refused = [], 0
        for seq, _ in frames:
            at, reply = ingest.reply(seq)
            refused += reply.get("type") == "slow_down"
            rtts.append((at - ingest.sent[seq]) * 1e6)
    ingest.close()
    return {"ack_rtt_us": statistics.median(rtts),
            "net.server.queue_depth_max": ingest.queue_depth_max,
            "net.server.slow_down_replies": refused,
            "late_ms_p99": quantile(late, 0.99)}


def run_traced(root: str, workdir: str, workload: str, seed: int,
               seconds: float):
    """The ``--trace 1`` run: per-layer metrics of one workload."""
    queries = inputs.workload_queries(workload)
    events = inputs.workload_events(workload, seed)
    spans = Spans()
    served = None

    # The untraced path, briefly: correctness and the overhead baseline.
    budget = max(seconds / 3.0, 0.0)
    if workload == "serve-push":
        from .serve import SETUP_STARTS, run_serve
        outcome, _ = run_serve(root, workdir, seed, budget)
        loop_before = host_loop_s()
        with spans.span("served"):
            _, records = run_serve(root, workdir, seed, 0, spans=spans)
        served = records[0]
        served_scale = REFERENCE_LOOP_S / min(loop_before, host_loop_s())
    elif workload == "stream-registry":
        outcome = run_stream(seed, budget)
    else:
        outcome = run_batch(workload, seed, budget)
    untraced_eps = outcome.rounds.metrics(1.0)["events_per_s"]["value"]

    sweeps: List[Dict[str, float]] = []
    deadline = time.perf_counter() + max(seconds / 2.0, 0.0)
    times: List[Dict[str, float]] = []
    while not sweeps or time.perf_counter() < deadline:
        loop_before = host_loop_s()
        sweep_spans = Spans()
        with sweep_spans.span("sweep"):
            sweeps.append(sweep(workload, queries, events, workdir,
                                sweep_spans, len(sweeps)))
        scale = REFERENCE_LOOP_S / min(loop_before, host_loop_s())
        durations = _durations(sweep_spans)
        for name in ("ack_rtt_us", "late_ms_p99"):
            if name in sweeps[-1]:
                durations[name] = sweeps[-1][name]
        times.append({name: value * scale
                      for name, value in durations.items()})
        spans.records.extend(_rebased(sweep_spans, spans))
    counts = sweeps[0]
    t = {name: statistics.median(d.get(name, 0.0) for d in times)
         for name in set().union(*times)}
    n = len(events)
    n_queries = len(queries)
    per_event = n * n_queries
    out: Dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    put("lang.parse_ms", t["lang.parse"] * 1e3, "ms")
    put("plan.compile_ms", t["plan.compile"] * 1e3, "ms")
    put("registry.register_ms", t["registry.register"] * 1e3, "ms")
    put("net.server.start_ms", t["net.server.start"] * 1e3, "ms")
    put("plan.prefilter_us_per_event", t["plan.prefilter"] * 1e6 / per_event,
        "us/event")
    put("plan.prefilter_admitted", counts["admitted"], "count")
    put("automaton.feed_us_per_event", t["automaton.feed"] * 1e6 / per_event,
        "us/event")
    for name in ("automaton.instances_created", "automaton.transitions_fired",
                 "automaton.max_instances", "automaton.accepted_buffers"):
        put(name, counts[name], "count")
    put("semantics.select_ms", t["semantics.select"] * 1e3, "ms")
    put("semantics.select_out", counts["semantics.select_out"], "count")
    put("semantics.select_yield",
        counts["semantics.select_out"]
        / max(counts["automaton.accepted_buffers"], 1), "ratio")
    put("parallel.pool_ms", t["parallel.pool"] * 1e3, "ms")
    put("parallel.partition_skew", counts["parallel.partition_skew"],
        "ratio")
    put("registry.push_us_per_event", t["registry.push"] * 1e6 / n,
        "us/event")
    for name in ("registry.predicates", "registry.prefix_groups",
                 "registry.active_instances_max", "stream.matches_reported"):
        put(name, counts[name], "count")
    put("net.protocol.decode_us_per_event",
        t["net.protocol.decode"] * 1e6 / n, "us/event")
    put("net.protocol.frame_bytes_per_event",
        counts["net.protocol.frame_bytes_per_event"], "bytes/event")
    published = max(counts["published"], 1)
    put("net.protocol.sse_us_per_match",
        t["net.protocol.sse"] * 1e6 / published, "us/match")
    put("net.protocol.sse_bytes_per_match",
        counts["net.protocol.sse_bytes_per_match"], "bytes/match")
    put("net.hub.publish_us_per_match",
        t["net.hub.publish"] * 1e6 / max(counts["stream.matches_reported"],
                                         1), "us/match")
    put("net.hub.duplicates_suppressed",
        counts["net.hub.duplicates_suppressed"], "count")
    put("resilience.delivery.append_us_per_match",
        t.get("resilience.delivery.append", 0.0) * 1e6 / published,
        "us/match")
    put("resilience.delivery.wal_bytes",
        counts["resilience.delivery.wal_bytes"], "bytes")

    if served is not None:
        served_times = {name: value * served_scale for name, value in
                        _durations_named(spans, "served").items()}
        put("net.server.start_ms",
            served_times["net.server.start"] * 1e3 / SETUP_STARTS, "ms")
        put("registry.register_ms",
            served_times["registry.register"] * 1e3 / SETUP_STARTS, "ms")
        put("net.server.ack_rtt_us",
            statistics.median(served.ack_rtt_us) * served_scale, "us")
        put("net.server.queue_depth_max", served.queue_depth_max, "batches")
        put("net.server.slow_down_replies", served.slow_downs, "replies")
        put("loadgen.late_ms_p99", quantile(served.late_ms, 0.99), "ms")
        traced_eps = (len(events) - inputs.serve_input(seed)[1]) / max(
            served.saturate_s * served_scale, 1e-9)
    else:
        put("net.server.ack_rtt_us", t["ack_rtt_us"], "us")
        put("net.server.queue_depth_max",
            counts["net.server.queue_depth_max"], "batches")
        put("net.server.slow_down_replies",
            counts["net.server.slow_down_replies"], "replies")
        put("loadgen.late_ms_p99", t["late_ms_p99"], "ms")
        if workload == "stream-registry":
            traced_eps = n / max(t["registry.push"], 1e-9)
        elif workload == "batch-exclusive":
            traced_eps = counts["pool_events"] / max(t["path.pool"], 1e-9)
        else:
            traced_eps = per_event / max(t["path.batch"], 1e-9)
    put("trace.events_per_s", traced_eps, "events/s")
    put("trace.overhead_pct", (untraced_eps / traced_eps - 1.0) * 100.0, "%")

    trace_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(trace_dir, exist_ok=True)
    spans.dump(os.path.join(trace_dir, f"trace-{workload}-{seed}.json"))
    outcome.notes["sweeps"] = len(sweeps)
    outcome.notes["untraced_events_per_s"] = round(untraced_eps, 1)
    return outcome, out


def _durations(spans: Spans) -> Dict[str, float]:
    """Self time per span name, plus the inclusive time of the
    ``path.*`` spans (which only group their children)."""
    out = spans.self_times()
    paths: Dict[str, float] = {}
    for record in spans.records:
        if record["name"].startswith("path."):
            paths[record["name"]] = (paths.get(record["name"], 0.0)
                                     + record["end"] - record["start"])
    out.update(paths)
    return out


def _durations_named(spans: Spans, root_name: str) -> Dict[str, float]:
    """Self times of the spans under the first span called
    ``root_name``."""
    root = next(r for r in spans.records if r["name"] == root_name)
    inside = Spans()
    inside.records = [dict(r) for r in spans.records
                      if root["start"] <= r["start"] and
                      r["end"] <= root["end"]]
    ids = {r["id"] for r in inside.records}
    remap = {old: new for new, old in enumerate(sorted(ids))}
    for r in inside.records:
        r["id"] = remap[r["id"]]
        r["parent"] = remap.get(r["parent"])
    return inside.self_times()


def _rebased(part: Spans, whole: Spans) -> List[dict]:
    """``part``'s records renumbered to follow ``whole``'s."""
    offset = len(whole.records)
    return [dict(r, id=r["id"] + offset,
                 parent=None if r["parent"] is None else r["parent"] + offset)
            for r in part.records]
