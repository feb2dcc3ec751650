"""Correctness checks written apart from the matcher.

Three kinds of check, none of which calls the program's selection or
condition code:

* **References derived from the relation** (:func:`reference_p3`,
  :func:`reference_ladder`): the expected match event sets of the batch
  workloads, read off each patient's treatment cycles directly.
* **Definition 2, conditions 1–3, and pairwise disjointness**
  (:func:`definition2_faults`): every reported match is checked against
  the pattern's :class:`~sesbench.inputs.Spec`.
* **Delivery properties** (:func:`delivery_faults`): no match delivered
  twice and cursors that strictly rise.

A match is a ``{variable: [event, ...]}`` dict whose events are
``(ts, eid, L, ID)`` tuples, so results of the library, of the stream
and of the SSE wire compare alike.  :func:`self_check` perturbs a
correct result and asserts that every checker rejects it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .inputs import E1_TYPES, Spec

Ev = Tuple[object, str, object, object]          # (ts, eid, L, ID)
MatchDict = Dict[str, List[Ev]]


def from_substitution(substitution) -> MatchDict:
    """A library substitution as a match dict."""
    out: MatchDict = {}
    for variable, event in substitution:
        out.setdefault(variable.name, []).append(
            (event.ts, event.eid, event.get("L"), event.get("ID")))
    return out


def from_payload(bindings: dict) -> MatchDict:
    """An SSE ``match`` payload's bindings as a match dict."""
    out: MatchDict = {}
    for name, value in bindings.items():
        objs = value if isinstance(value, list) else [value]
        out[name] = [(o["ts"], o["eid"], o["attrs"].get("L"),
                      o["attrs"].get("ID")) for o in objs]
    return out


def event_set(match: MatchDict) -> frozenset:
    """The match's events by id (roles of interchangeable variables
    are not part of the answer)."""
    return frozenset(ev[1] for evs in match.values() for ev in evs)


def binding_key(match: MatchDict) -> frozenset:
    """The match's bindings by (variable, event id)."""
    return frozenset((name, ev[1]) for name, evs in match.items()
                     for ev in evs)


# ----------------------------------------------------------------------
# References derived from the relation
# ----------------------------------------------------------------------
def _cycles(events: Sequence, labels: Iterable[str], tau: int
            ) -> Dict[object, List[List]]:
    """Per patient, the events of the given labels clustered into
    treatment cycles (a gap longer than τ starts a new cycle)."""
    wanted = set(labels)
    per_patient: Dict[object, List] = {}
    for event in events:
        if event.get("L") in wanted:
            per_patient.setdefault(event.get("ID"), []).append(event)
    out: Dict[object, List[List]] = {}
    for patient, evs in per_patient.items():
        clusters: List[List] = []
        for event in evs:
            if clusters and event.ts - clusters[-1][-1].ts <= tau:
                clusters[-1].append(event)
            else:
                clusters.append([event])
        out[patient] = clusters
    return out


def _closing_count(events: Sequence, patient, bound: List, tau: int):
    """The patient's first blood count after every bound event, within
    τ of the first one (``None`` when there is none)."""
    first = min(e.ts for e in bound)
    last = max(e.ts for e in bound)
    for event in events:
        if (event.get("ID") == patient and event.get("L") == "B"
                and last < event.ts <= first + tau):
            return event
    return None


def reference_p3(events: Sequence, tau: int) -> List[frozenset]:
    """P3: each cycle's Prednisone events plus the first blood count
    after the last of them within τ."""
    expected = []
    for patient, clusters in _cycles(events, ["P"], tau).items():
        for cluster in clusters:
            closing = _closing_count(events, patient, cluster, tau)
            if closing is not None:
                expected.append(frozenset(
                    [e.eid for e in cluster] + [closing.eid]))
    return sorted(expected, key=sorted)


def reference_ladder(events: Sequence, n_types: int, group_p: bool,
                     tau: int) -> List[frozenset]:
    """Θ1 patterns: the first event of each required medication type in
    the cycle (every Prednisone event when ``p`` is a group variable),
    plus the blood count that follows."""
    types = E1_TYPES[:n_types]
    expected = []
    for patient, clusters in _cycles(events, E1_TYPES, tau).items():
        for cluster in clusters:
            bound = []
            for label in types:
                of_type = [e for e in cluster if e.get("L") == label]
                if not of_type:
                    break
                bound.extend(of_type if (group_p and label == "P")
                             else of_type[:1])
            else:
                closing = _closing_count(events, patient, bound, tau)
                if closing is not None:
                    expected.append(frozenset(
                        [e.eid for e in bound] + [closing.eid]))
    return sorted(expected, key=sorted)


def set_faults(name: str, got: Iterable[frozenset],
               expected: Iterable[frozenset]) -> List[str]:
    """Differences between two collections of match keys."""
    got, expected = list(got), list(expected)
    faults = []
    if len(set(got)) != len(got):
        faults.append(f"{name}: the same match reported twice")
    missing = set(expected) - set(got)
    extra = set(got) - set(expected)
    if missing or extra:
        faults.append(f"{name}: {len(missing)} expected match(es) missing, "
                      f"{len(extra)} unexpected (got {len(set(got))}, "
                      f"expected {len(set(expected))})")
    return faults


# ----------------------------------------------------------------------
# Definition 2, conditions 1-3, and disjointness
# ----------------------------------------------------------------------
def definition2_faults(name: str, spec: Spec,
                       matches: Sequence[MatchDict]) -> List[str]:
    """Conditions 1–3 of Definition 2 for every match, plus pairwise
    disjointness of the pattern's matches."""
    faults: List[str] = []
    groups = set(spec.groups())
    variables = spec.variables()
    seen: Dict[str, int] = {}
    for index, match in enumerate(matches):
        where = f"{name} match {index}"
        if set(match) != set(variables):
            faults.append(f"{where}: binds {sorted(match)}, "
                          f"pattern has {sorted(variables)}")
            continue
        for var, evs in match.items():
            if not evs or (var not in groups and len(evs) != 1):
                faults.append(f"{where}: {var} binds {len(evs)} events")
            if any(ev[2] != spec.labels[var] for ev in evs):
                faults.append(f"{where}: {var} binds a wrong label "
                              f"(condition 1)")
        for a, b in spec.joins:
            ids = {ev[3] for ev in match[a]} | {ev[3] for ev in match[b]}
            if len(ids) != 1:
                faults.append(f"{where}: {a}.ID = {b}.ID fails "
                              f"(condition 1)")
        for earlier, later in zip(spec.sets, spec.sets[1:]):
            last = max(ev[0] for v in earlier for ev in match[v.rstrip("+")])
            first = min(ev[0] for v in later for ev in match[v.rstrip("+")])
            if not last < first:
                faults.append(f"{where}: set order broken (condition 2)")
        stamps = [ev[0] for evs in match.values() for ev in evs]
        if max(stamps) - min(stamps) > spec.tau:
            faults.append(f"{where}: span exceeds τ (condition 3)")
        for eid in event_set(match):
            if eid in seen:
                faults.append(f"{where}: shares event {eid} with match "
                              f"{seen[eid]}")
            seen[eid] = index
    return faults


# ----------------------------------------------------------------------
# Delivery properties (serve-push)
# ----------------------------------------------------------------------
def delivery_faults(deliveries: Sequence[Tuple[int, str, frozenset]]
                    ) -> List[str]:
    """``deliveries`` are ``(cursor, pattern id, binding key)`` in
    arrival order: cursors must strictly rise and no (pattern, match)
    may arrive twice."""
    faults = []
    previous = None
    seen = set()
    for cursor, pid, key in deliveries:
        if previous is not None and not cursor > previous:
            faults.append(f"cursor {cursor} after {previous} does not rise")
        previous = cursor
        if (pid, key) in seen:
            faults.append(f"{pid}: a match delivered twice")
        seen.add((pid, key))
    return faults


# ----------------------------------------------------------------------
# Self-check: every checker must reject a perturbed result
# ----------------------------------------------------------------------
def _swap_event(match: MatchDict, var: str, event: Ev) -> MatchDict:
    out = {name: list(evs) for name, evs in match.items()}
    out[var][0] = event
    return out


def self_check(spec: Spec, matches: Sequence[MatchDict],
               stranger: Ev) -> List[str]:
    """Perturb a correct result; return the checkers that accepted it.

    ``matches`` must hold at least two matches of the pattern described
    by ``spec``; ``stranger`` is an event of the relation that no match
    of the result binds.
    """
    if len(matches) < 2:
        return ["self-check needs at least two matches"]
    keys = [event_set(m) for m in matches]
    accepted = []
    if set_faults("x", keys, keys) or definition2_faults(
            "x", spec, matches):
        return ["the unperturbed result was rejected"]
    if not set_faults("x", keys[1:], keys):
        accepted.append("reference comparison accepted a dropped match")
    var = spec.variables()[-1]
    swapped = _swap_event(matches[0], var, stranger)
    if not set_faults("x", [event_set(swapped)] + keys[1:], keys):
        accepted.append("reference comparison accepted a swapped event")
    relabelled = _swap_event(matches[0], var,
                             (stranger[0], stranger[1], "?", stranger[3]))
    if not definition2_faults("x", spec, [relabelled] + list(matches[1:])):
        accepted.append("condition 1 accepted a wrong label")
    late = matches[0][var][0]
    far = (late[0] + spec.tau + 1,) + tuple(late[1:])
    if not definition2_faults("x", spec,
                              [_swap_event(matches[0], var, far)]):
        accepted.append("condition 3 accepted a match wider than τ")
    if not definition2_faults("x", spec, list(matches) + [matches[0]]):
        accepted.append("disjointness accepted a shared event")
    deliveries = [(i, "x", binding_key(m)) for i, m in enumerate(matches)]
    if not delivery_faults(deliveries + deliveries[-1:]):
        accepted.append("delivery check accepted a duplicate delivery")
    if not delivery_faults(deliveries[1::-1] + deliveries[2:]):
        accepted.append("delivery check accepted a falling cursor")
    return accepted
