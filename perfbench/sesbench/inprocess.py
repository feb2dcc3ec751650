"""The three in-process workloads: two batch, one streaming registry.

Each round sets up from query text with an empty plan cache (parse,
compile, and for the registry, registration), then runs the measured
phase through the public surface:

* ``batch-group`` / ``batch-exclusive`` — one ``repro.query`` call per
  pattern over the whole relation (``workers=2`` for the exclusive
  ladder, which takes the process pool's partition path);
* ``stream-registry`` — one ``PatternRegistry`` holding every pattern,
  fed by ``push_many`` in 256-event slices, then ``close``.

Round outputs go to a :class:`~sesbench.common.Ledger` and are checked
once the rounds are over, so the reference computations do not count
towards the peak resident size of the matching.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import Dict, List, Sequence

import repro
from repro.core.relation import EventRelation
from repro.lang import parse_query_spec
from repro.registry import PatternRegistry

from . import check, inputs
from .common import Ledger, Rounds, cpu_now, host_loop_s, peak_rss_mb

#: Events per ``push_many`` call on the streaming path; a stream lag
#: sample runs from the start of the call holding the closing event.
SLICE = 256

#: Set-ups timed per batch round (a set-up costs milliseconds).
SETUP_REPEATS = 5

#: A round's output: pattern id -> its matches as checker dicts.
Output = Dict[str, List[check.MatchDict]]


class Outcome:
    """What a run reports: rounds, operation counts and faults."""

    def __init__(self) -> None:
        self.rounds = Rounds()
        self.ledger = Ledger()
        self.attempted = 0
        self.failed = 0
        self.faults: List[str] = []
        self.failed_ops: Dict[str, int] = {}
        self.peak_rss_mb = 0.0
        self.notes: Dict[str, object] = {}

    def record(self, output: Output) -> None:
        """Keep a round's output for :meth:`judge`."""
        self.ledger.add(output, hash(frozenset(
            (pid, frozenset(map(check.binding_key, matches)))
            for pid, matches in output.items())))

    def judge(self, queries: Sequence[inputs.Query],
              expected: Dict[str, List[frozenset]]) -> None:
        """Check every distinct round output against the expected event
        sets: a pattern whose set differs is a failed operation; the
        others must satisfy Definition 2's conditions 1–3 and be
        pairwise disjoint."""
        for output, rounds in self.ledger.items():
            for query in queries:
                got = output[query.pid]
                self.attempted += rounds
                if check.set_faults(query.pid, map(check.event_set, got),
                                    expected[query.pid]):
                    self.failed += rounds
                    self.failed_ops[query.pid] = (
                        self.failed_ops.get(query.pid, 0) + rounds)
                    continue
                self.faults += check.definition2_faults(
                    query.pid, query.spec, got)

    def self_check(self, queries: Sequence[inputs.Query],
                   events: Sequence) -> None:
        """:func:`check.self_check` on the richest pattern that passed."""
        first = self.ledger.first
        query = max((q for q in queries if q.pid not in self.failed_ops),
                    key=lambda q: len(first[q.pid]))
        used = set().union(*map(check.event_set, first[query.pid]))
        stranger = next(e for e in events if e.eid not in used)
        self.faults += [f"self-check: {msg}" for msg in check.self_check(
            query.spec, first[query.pid],
            (stranger.ts, stranger.eid, stranger.get("L"),
             stranger.get("ID")))]
        self.notes["matches_per_round"] = sum(map(len, first.values()))


def _compile_all(queries: Sequence[inputs.Query]) -> list:
    plans = []
    for query in queries:
        pattern, aggregate = parse_query_spec(query.text)
        plans.append(repro.compile(pattern, aggregate=aggregate))
    return plans


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def run_batch(workload: str, seed: int, seconds: float) -> Outcome:
    queries = inputs.workload_queries(workload)
    relation = (inputs.batch_group_input(seed) if workload == "batch-group"
                else inputs.batch_exclusive_input(seed))
    workers = 2 if workload == "batch-exclusive" else 1
    out = Outcome()
    deadline = time.perf_counter() + seconds
    while not out.rounds.rows or time.perf_counter() < deadline:
        loop_before = host_loop_s()
        setups = []
        for _ in range(SETUP_REPEATS):
            repro.clear_plan_cache()
            t0 = time.perf_counter()
            plans = _compile_all(queries)
            setups.append(time.perf_counter() - t0)
        lags: List[float] = []
        results = []
        cpu0 = cpu_now()
        start = time.perf_counter()
        for plan in plans:
            called = time.perf_counter()
            matches = repro.query(plan, relation, workers=workers)
            in_hand = time.perf_counter()
            lags.append((in_hand - called) * 1e3)
            results.append(matches)
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu0
        out.rounds.add(len(relation) * len(plans), wall, cpu, setups, lags,
                       min(loop_before, host_loop_s()))
        out.record({q.pid: [check.from_substitution(m.substitution)
                            for m in matches]
                    for q, matches in zip(queries, results)})
    out.peak_rss_mb = peak_rss_mb()

    events = list(relation)
    expected = {}
    for query in queries:
        if query.pid == "p3":
            expected[query.pid] = check.reference_p3(events, query.spec.tau)
        else:
            expected[query.pid] = check.reference_ladder(
                events, len(query.spec.sets[0]), query.pid == "p5",
                query.spec.tau)
    out.judge(queries, expected)
    out.self_check(queries, events)
    return out


# ----------------------------------------------------------------------
# Streaming registry
# ----------------------------------------------------------------------
def closing_index(timestamps: Sequence, min_ts, tau) -> int:
    """Index of the first event past the match's window (the event
    whose arrival closes it); ``len(timestamps)`` when none does."""
    return bisect_right(timestamps, min_ts + tau)


def run_stream(seed: int, seconds: float) -> Outcome:
    queries = inputs.stream_registry_patterns()
    taus = {q.pid: q.spec.tau for q in queries}
    events = inputs.stream_registry_input(seed)
    timestamps = [e.ts for e in events]
    out = Outcome()
    deadline = time.perf_counter() + seconds
    while not out.rounds.rows or time.perf_counter() < deadline:
        loop_before = host_loop_s()
        repro.clear_plan_cache()
        t0 = time.perf_counter()
        registry = PatternRegistry()
        for query in queries:
            registry.register(query.text, pattern_id=query.pid)
        setup = time.perf_counter() - t0
        arrivals: list = []
        registry.on_match(lambda pid, match: arrivals.append(
            (pid, match, time.perf_counter())))
        offered: List[float] = []
        cpu0 = cpu_now()
        start = time.perf_counter()
        for i in range(0, len(events), SLICE):
            offered.append(time.perf_counter())
            registry.push_many(events[i:i + SLICE])
        registry.close()
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu0
        lags = []
        for pid, match, at in arrivals:
            index = closing_index(timestamps, match.min_ts(), taus[pid])
            if index < len(events):
                lags.append((at - offered[index // SLICE]) * 1e3)
        out.rounds.add(len(events), wall, cpu, [setup], lags,
                       min(loop_before, host_loop_s()))
        out.record({q.pid: [check.from_substitution(s)
                            for s in registry.matches_of(q.pid)]
                    for q in queries})
    out.peak_rss_mb = peak_rss_mb()

    out.judge(queries, batch_references(queries, events))
    out.self_check(queries, events)
    return out


def batch_references(queries: Sequence[inputs.Query], events: Sequence
                     ) -> Dict[str, List[frozenset]]:
    """Each pattern's batch answer (``plan.match``), as event sets."""
    relation = EventRelation(events)
    out = {}
    for query in queries:
        pattern, _ = parse_query_spec(query.text)
        result = repro.compile(pattern).match(relation)
        out[query.pid] = [check.event_set(check.from_substitution(s))
                          for s in result.matches]
    return out
