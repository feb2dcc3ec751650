"""Seeded inputs and pattern sets of the four workloads.

Every pattern is described twice: as PERMUTE query text (what the
program receives) and as a small :class:`Spec` (what the benchmark's own
checkers read).  The checkers never look at the program's parsed
pattern, so a parser fault cannot hide behind a matching checker.

Relations come from the program's synthetic chemotherapy generator
(``repro.data.generate_chemo``), seeded from ``--seed``.  The exception
is the fixed prefix of the ``stream-registry`` stream, which does not
depend on the seed (see :func:`stream_registry_input`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.events import Event
from repro.core.relation import EventRelation
from repro.data import generate_chemo

#: τ of the paper's patterns (11 days, in hours).
TAU = 264

#: Experiment-1 variable names and the medication type each one matches
#: under Θ1 (pairwise distinct types).
E1_VARIABLES = ("c", "d", "p", "v", "r", "l")
E1_TYPES = ("C", "D", "P", "V", "R", "L")

#: Label pairs × windows of the registry pattern set (as in
#: ``repro.bench.registry``).
PAIR_LABELS = ("B", "C", "D", "P", "L")
PAIR_TAUS = (60, 120, 264, 480, 960)


@dataclass(frozen=True)
class Spec:
    """What a pattern requires, in the benchmark's own terms.

    ``sets`` lists the event set patterns in order; a name ending in
    ``+`` is a group variable.  ``labels`` maps each variable (without
    ``+``) to the ``L`` value it must carry.  ``joins`` lists variable
    pairs whose ``ID`` must be equal.
    """

    sets: Tuple[Tuple[str, ...], ...]
    labels: Dict[str, str]
    joins: Tuple[Tuple[str, str], ...]
    tau: int

    def variables(self) -> List[str]:
        return [name.rstrip("+") for group in self.sets for name in group]

    def groups(self) -> List[str]:
        return [name[:-1] for group in self.sets for name in group
                if name.endswith("+")]

    def text(self) -> str:
        sets = " THEN ".join(f"PERMUTE({', '.join(group)})"
                             for group in self.sets)
        conditions = [f"{v}.L = '{self.labels[v]}'" for v in self.variables()]
        conditions += [f"{a}.ID = {b}.ID" for a, b in self.joins]
        return (f"PATTERN {sets} WHERE {' AND '.join(conditions)} "
                f"WITHIN {self.tau}")


@dataclass
class Query:
    """One pattern of a workload: id, query text and checker spec."""

    pid: str
    spec: Spec
    text: str = field(init=False)

    def __post_init__(self):
        self.text = self.spec.text()


def _star(names: Sequence[str]) -> Tuple[Tuple[str, str], ...]:
    """Same-patient joins from the first variable, as in Query Q1."""
    return tuple((names[0], other) for other in names[1:])


def p3() -> Query:
    """P3 = (<{c, d, p+}, {b}>, Θ2, 264) with patient joins; P6 is the
    same pattern by definition (Experiment 3 reuses it)."""
    labels = {"c": "P", "d": "P", "p": "P", "b": "B"}
    return Query("p3", Spec(sets=(("c", "d", "p+"), ("b",)), labels=labels,
                            joins=_star(["c", "d", "p", "b"]), tau=TAU))


def p5() -> Query:
    """P5 = (<{c, d, p+}, {b}>, Θ1, 264) with patient joins."""
    labels = {"c": "C", "d": "D", "p": "P", "b": "B"}
    return Query("p5", Spec(sets=(("c", "d", "p+"), ("b",)), labels=labels,
                            joins=_star(["c", "d", "p", "b"]), tau=TAU))


def e1_exclusive(n: int) -> Query:
    """Experiment 1, Θ1 (distinct types), |V1| = n, with patient joins."""
    names = list(E1_VARIABLES[:n])
    labels = dict(zip(names, E1_TYPES))
    labels["b"] = "B"
    return Query(f"e1x-{n}", Spec(sets=(tuple(names), ("b",)), labels=labels,
                                  joins=_star(names + ["b"]), tau=TAU))


def e1_same(n: int) -> Query:
    """Experiment 1, Θ2 (every variable Prednisone), |V1| = n, no joins."""
    names = list(E1_VARIABLES[:n])
    labels = {name: "P" for name in names}
    labels["b"] = "B"
    return Query(f"e1s-{n}", Spec(sets=(tuple(names), ("b",)), labels=labels,
                                  joins=(), tau=TAU))


def pair(first: str, second: str, tau: int, pid: str) -> Query:
    """Two same-patient events of the given labels within ``tau``."""
    return Query(pid, Spec(sets=(("a", "b"),),
                           labels={"a": first, "b": second},
                           joins=(("a", "b"),), tau=tau))


def registry_pairs() -> List[Query]:
    """The 125 registry patterns: every label pair at every window."""
    return [pair(first, second, tau, f"r{i}")
            for i, ((first, second), tau) in enumerate(itertools.product(
                itertools.product(PAIR_LABELS, repeat=2), PAIR_TAUS))]


def serve_patterns() -> List[Query]:
    """The served pattern set: each label pair once (at a window taken
    round-robin from :data:`PAIR_TAUS`), plus one pattern that repeats
    the ``C``/``D`` pair at another window — the τ twin.  No other two
    patterns can report the same bindings."""
    queries = [pair(first, second, PAIR_TAUS[i % len(PAIR_TAUS)], f"s{i}")
               for i, (first, second) in enumerate(
                   itertools.product(PAIR_LABELS, repeat=2))]
    twin_of = next(q for q in queries
                   if (q.spec.labels["a"], q.spec.labels["b"]) == ("C", "D"))
    other_tau = next(t for t in PAIR_TAUS[::-1] if t != twin_of.spec.tau)
    queries.append(pair("C", "D", other_tau, "twin"))
    return queries


# ----------------------------------------------------------------------
# Relations
# ----------------------------------------------------------------------
def batch_group_input(seed: int) -> EventRelation:
    """A chemotherapy relation with every event twice (as D2).

    Patients start 72 h apart, so one patient's Prednisone block never
    interleaves with the next one's while their τ windows still overlap;
    the cost of a run is then the same for every seed."""
    return generate_chemo(patients=3, cycles=2, seed=seed,
                          stagger_hours=72).duplicated(2)


def batch_exclusive_input(seed: int) -> EventRelation:
    """A large relation in which lab events outnumber the rest 15:1."""
    return generate_chemo(patients=16, cycles=3, seed=seed,
                          lab_events_per_cycle=165)


def _registry_relation(seed: int) -> EventRelation:
    return generate_chemo(patients=6, cycles=3, seed=seed,
                          lab_events_per_cycle=60)


#: Seed of the fixed prefix of the ``stream-registry`` stream (the
#: relation ``repro.bench.registry`` replays).
FIXED_PREFIX_SEED = 11

#: Registry-shaped relations in the open-loop and the saturating phase
#: of the served stream.
OPEN_LOOP_SEGMENTS = 1
SATURATE_SEGMENTS = 3

#: Gap between two concatenated segments: longer than every window, so
#: no match spans two segments.
SEGMENT_GAP = 2 * max(PAIR_TAUS)


def concatenate(parts: Sequence[Tuple[str, EventRelation]]
                ) -> List[Event]:
    """Lay relations one after another in time, each shifted past the
    previous one's end by :data:`SEGMENT_GAP`; ``eid`` values get the
    part's tag as prefix so they stay unique."""
    out: List[Event] = []
    offset = 0
    for tag, relation in parts:
        events = list(relation)
        for event in events:
            out.append(event.replace(ts=event.ts + offset,
                                     eid=f"{tag}{event.eid}"))
        offset = out[-1].ts + SEGMENT_GAP if out else offset
    return out


def stream_registry_input(seed: int) -> List[Event]:
    """The fixed registry relation, then a seeded one of the same shape.

    The fixed prefix carries the Experiment-1 Θ2 patterns' known
    stream/batch disagreement, so that failure happens on every seed;
    the seeded part varies the rest of the input."""
    return concatenate([("f", _registry_relation(FIXED_PREFIX_SEED)),
                        ("s", _registry_relation(seed))])


def serve_input(seed: int) -> Tuple[List[Event], int]:
    """The served stream and the index where the saturating phase starts.

    Each phase replays registry-shaped relations of its own sub-seeds,
    one after another; the gap between segments
    is longer than every window, so each phase's matches close inside
    that phase."""
    parts = [(f"{tag}{k}", _registry_relation(seed * 100 + offset + k))
             for offset, tag, count in ((0, "a", OPEN_LOOP_SEGMENTS),
                                        (50, "b", SATURATE_SEGMENTS))
             for k in range(count)]
    events = concatenate(parts)
    split = sum(len(rel) for _, rel in parts[:OPEN_LOOP_SEGMENTS])
    return events, split


def stream_registry_patterns() -> List[Query]:
    return registry_pairs() + [e1_same(n) for n in (2, 3)]


def workload_queries(workload: str) -> List[Query]:
    if workload == "batch-group":
        return [p3()]
    if workload == "batch-exclusive":
        return [e1_exclusive(n) for n in range(2, 7)] + [p5()]
    if workload == "stream-registry":
        return stream_registry_patterns()
    if workload == "serve-push":
        return serve_patterns()
    raise ValueError(f"unknown workload {workload!r}")


def workload_events(workload: str, seed: int) -> List[Event]:
    if workload == "batch-group":
        return list(batch_group_input(seed))
    if workload == "batch-exclusive":
        return list(batch_exclusive_input(seed))
    if workload == "stream-registry":
        return stream_registry_input(seed)
    if workload == "serve-push":
        return serve_input(seed)[0]
    raise ValueError(f"unknown workload {workload!r}")
