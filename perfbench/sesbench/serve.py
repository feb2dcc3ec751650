"""The ``serve-push`` workload: ``repro serve`` in its own process.

A run starts ``repro serve --subscribe --delivery-wal`` on an event
file with no rows (so the server receives only the generated events),
registers the pattern set hot over ``/patterns`` and attaches one SSE
subscriber — three times, one set-up sample each, keeping the last
server.  This process is the load generator: one framed ingest
connection and the SSE subscriber.  Each round then replays the stream,
shifted past the previous rounds and with round-tagged event ids:

1. **open loop** — the first segment in small batches on a fixed
   schedule that does not wait for the server; each match's delivery
   lag runs from the due time of the batch holding the event that
   closed its window to the moment the subscriber reads it;
2. **closed loop** — the other segments as fast as acks return, then
   two marker events; the phase ends when the subscriber reads the
   first marker's match, which the server publishes after every other
   match of the round.

After the last round a graceful ``/quitquitquit`` drains the server.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.core.events import Event
from repro.net.protocol import (FrameDecoder, encode_frame, event_to_json,
                                parse_sse_stream)

from . import check, inputs
from .common import REFERENCE_LOOP_S, NullSpans, host_loop_s, process_cpu
from .inprocess import Outcome, batch_references

#: Offered rate of the open-loop phase, events per second.
OPEN_LOOP_RATE = 1000
#: Events per batch in the open-loop phase (and the due-time step).
OPEN_LOOP_BATCH = 16
#: Events per batch in the saturating phase.
SATURATE_BATCH = 64
#: Pause between the open-loop and the saturating phase, so the open
#: loop's last batches are matched before the saturating clock starts.
SETTLE_S = 0.1
#: Server processes started per run; each start is one set-up sample,
#: and the rounds run on the last one.
SETUP_STARTS = 3
#: Pattern id of the marker pattern (see :func:`run_serve`).
MARKER_ID = "marker"
#: Upper bound on any wait for the server.
TIMEOUT_S = 30.0

_EMPTY_CSV = "eid,T,ID,L,V,U\n#types,int,int,str,float,str\n"


class ServerProcess:
    """One ``repro serve --subscribe`` child process."""

    def __init__(self, root: str, workdir: str, first_query: str) -> None:
        own = tempfile.mkdtemp(dir=workdir)
        data = os.path.join(own, "empty.csv")
        with open(data, "w", encoding="utf-8") as handle:
            handle.write(_EMPTY_CSV)
        self.wal = os.path.join(own, "delivery.jsonl")
        self.log = open(os.path.join(own, "serve.log"), "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--query", first_query, "--data", data,
             "--listen", "127.0.0.1:0", "--subscribe", "127.0.0.1:0",
             "--delivery-wal", self.wal, "--sub-queue", "1000000",
             "--heartbeat", "60", "--drain-grace", "10"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log)
        self.obs_url = self.push_port = None
        self.rusage = None
        deadline = time.monotonic() + TIMEOUT_S
        while self.obs_url is None or self.push_port is None:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not come up; see "
                                   f"{self.log.name}")
            if line.startswith("serving observability on "):
                self.obs_url = line.split(" on ", 1)[1].strip()
            elif line.startswith("serving push endpoint on "):
                url = line.split(" on ", 1)[1].strip()
                self.push_port = int(url.rsplit(":", 1)[1])
        threading.Thread(target=self._drain_stdout, daemon=True).start()

    def _drain_stdout(self) -> None:
        for _ in self.proc.stdout:
            pass

    def register(self, pid: str, text: str) -> None:
        body = json.dumps({"query": text, "id": pid}).encode("utf-8")
        request = urllib.request.Request(
            self.obs_url + "/patterns", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=TIMEOUT_S) as reply:
            if reply.status != 201:
                raise RuntimeError(f"registering {pid} answered "
                                   f"{reply.status}")

    def quit(self) -> None:
        with socket.create_connection(("127.0.0.1", self.push_port),
                                      timeout=TIMEOUT_S) as sock:
            sock.sendall(b"POST /quitquitquit HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 0\r\nConnection: close\r\n\r\n")
            while sock.recv(65536):
                pass

    def wait(self) -> None:
        """Reap the process, keeping its resource usage."""
        deadline = time.monotonic() + TIMEOUT_S
        while self.rusage is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = usage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not exit after drain")
            time.sleep(0.01)
        self.log.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class Subscriber(threading.Thread):
    """One SSE connection; records every item with its arrival time."""

    def __init__(self, port: int) -> None:
        super().__init__(daemon=True)
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.sock.sendall(
            b"GET /subscribe?id=bench&queue=1000000 HTTP/1.1\r\n"
            b"Host: x\r\nAccept: text/event-stream\r\n"
            b"Connection: close\r\n\r\n")
        self.items: List[Tuple[float, str, Optional[str], dict]] = []
        self.attached = threading.Event()
        self.drained = threading.Event()
        self.markers = threading.Condition()
        self.marker_at: Dict[str, float] = {}

    def run(self) -> None:
        stream = self.sock.makefile("r", encoding="utf-8", newline="\n")
        try:
            while stream.readline().strip():
                pass
            for kind, event_id, data in parse_sse_stream(stream):
                now = time.perf_counter()
                self.items.append((now, kind, event_id, data))
                if kind == "hello":
                    self.attached.set()
                elif kind == "match" and data["pattern_id"] == MARKER_ID:
                    with self.markers:
                        for obj in data["bindings"].values():
                            self.marker_at[obj["eid"]] = now
                        self.markers.notify_all()
                elif kind == "drain":
                    self.drained.set()
                    return
        except OSError:
            pass
        finally:
            self.drained.set()
            self.attached.set()
            self.sock.close()

    def wait_marker(self, eid: str) -> float:
        """Arrival time of the marker match binding ``eid``."""
        with self.markers:
            if not self.markers.wait_for(lambda: eid in self.marker_at,
                                         TIMEOUT_S):
                raise RuntimeError(f"marker {eid} never delivered")
            return self.marker_at[eid]


class Ingest:
    """The framed ingest connection, with a thread reading replies."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.sock.sendall(encode_frame({"type": "hello", "proto": 1}))
        self.decoder = FrameDecoder()
        self.lock = threading.Condition()
        self.replies: Dict[int, Tuple[float, dict]] = {}
        self.sent: Dict[int, float] = {}
        self.slow_downs = 0
        self.queue_depth_max = 0
        self.hello = threading.Event()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        if not self.hello.wait(TIMEOUT_S):
            raise RuntimeError("no hello from the ingest endpoint")

    def _read(self) -> None:
        try:
            while True:
                data = self.sock.recv(65536)
                if not data:
                    return
                for frame in self.decoder.feed(data):
                    now = time.perf_counter()
                    kind = frame.get("type")
                    if kind == "hello":
                        self.hello.set()
                        continue
                    with self.lock:
                        self.queue_depth_max = max(
                            self.queue_depth_max,
                            frame.get("queue_depth", 0))
                        self.replies[frame.get("seq")] = (now, frame)
                        self.lock.notify_all()
        except OSError:
            return

    def send(self, seq: int, frame: bytes) -> None:
        with self.lock:
            self.replies.pop(seq, None)
            self.sent[seq] = time.perf_counter()
        self.sock.sendall(frame)

    def reply(self, seq: int) -> Tuple[float, dict]:
        with self.lock:
            if not self.lock.wait_for(lambda: seq in self.replies,
                                      TIMEOUT_S):
                raise RuntimeError(f"no reply to batch {seq}")
            return self.replies[seq]

    def close(self) -> None:
        try:
            self.sock.sendall(encode_frame({"type": "bye"}))
        except OSError:
            pass
        self.sock.close()
        self.reader.join(TIMEOUT_S)


def _frames(events, size: int, first_seq: int) -> List[Tuple[int, bytes]]:
    out = []
    for n, i in enumerate(range(0, len(events), size)):
        batch = [event_to_json(e) for e in events[i:i + size]]
        seq = first_seq + n
        out.append((seq, encode_frame({"type": "batch", "seq": seq,
                                       "events": batch})))
    return out


class RoundRecord:
    """What one served round observed."""

    def __init__(self) -> None:
        self.deliveries: List[Tuple[int, str, dict]] = []
        self.lags_ms: List[float] = []
        self.late_ms: List[float] = []
        self.ack_rtt_us: List[float] = []
        self.slow_downs = 0
        self.queue_depth_max = 0
        self.saturate_s = 0.0
        self.saturate_cpu_s = 0.0


class ServedRun:
    """One served run: the server, the subscriber and the ingest link.

    :data:`SETUP_STARTS` servers are started one after another, each
    until its subscriber is attached (one set-up sample each); all but
    the last are killed again, and the rounds run on the last one."""

    def __init__(self, root: str, workdir: str, queries, spans) -> None:
        self.setups: List[float] = []
        self.server = self.subscriber = self.ingest = None
        for _ in range(SETUP_STARTS):
            self.close()
            t0 = time.perf_counter()
            with spans.span("net.server.start"):
                self.server = ServerProcess(root, workdir, queries[0].text)
            with spans.span("registry.register"):
                for query in queries[1:]:
                    self.server.register(query.pid, query.text)
            with spans.span("net.subscribe"):
                self.subscriber = Subscriber(self.server.push_port)
                self.subscriber.start()
                if not self.subscriber.attached.wait(TIMEOUT_S):
                    raise RuntimeError("subscriber never attached")
            self.setups.append(time.perf_counter() - t0)
        self.ingest = Ingest(self.server.push_port)
        self.next_seq = 1

    def frames(self, events, size: int) -> List[Tuple[int, bytes]]:
        out = _frames(events, size, self.next_seq)
        self.next_seq += len(out)
        return out

    def peak_rss_mb(self) -> float:
        """The server's resident high-water mark so far."""
        with open(f"/proc/{self.server.proc.pid}/status", "r",
                  encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's status")

    def drain(self) -> None:
        """Graceful drain: every match delivered, then the process ends."""
        self.ingest.close()
        self.ingest = None
        self.server.quit()
        if not self.subscriber.drained.wait(TIMEOUT_S):
            raise RuntimeError("no drain notice after quit")
        self.subscriber.join(TIMEOUT_S)
        self.server.wait()

    def close(self) -> None:
        """Kill whatever is still running (idempotent)."""
        if self.ingest is not None:
            self.ingest.close()
            self.ingest = None
        if self.server is not None:
            self.server.stop()
        if self.subscriber is not None:
            self.subscriber.join(TIMEOUT_S)


def serve_round(served_run: ServedRun, events, split: int, markers,
                spans) -> RoundRecord:
    """One round on a running server; ``events`` ends with the two
    marker events, and the phase boundary is at ``split``."""
    record = RoundRecord()
    ingest, subscriber = served_run.ingest, served_run.subscriber
    open_frames = served_run.frames(events[:split], OPEN_LOOP_BATCH)
    saturate_frames = served_run.frames(events[split:], SATURATE_BATCH)

    # Open loop: batch k is due at start + k * step, whatever the
    # server does.  A refused batch would reach the matcher out of
    # order, so a slow_down here means the rate is not sustainable.
    step = OPEN_LOOP_BATCH / OPEN_LOOP_RATE
    with spans.span("loadgen.open_loop"):
        start = time.perf_counter() + 0.01
        record.due = [start + k * step for k in range(len(open_frames))]
        for (seq, frame), at in zip(open_frames, record.due):
            pause = at - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            record.late_ms.append(max(time.perf_counter() - at, 0.0) * 1e3)
            ingest.send(seq, frame)
        for seq, _ in open_frames:
            at, reply = ingest.reply(seq)
            if reply.get("type") != "ack":
                raise RuntimeError(f"open-loop batch {seq} refused: {reply}")
            record.ack_rtt_us.append((at - ingest.sent[seq]) * 1e6)
        time.sleep(SETTLE_S)

    # Closed loop: the next batch goes once the previous one is
    # acknowledged; slow_down sleeps out the hint and resends.  The
    # phase ends when the first marker's match arrives: the marker
    # closes every window, so every earlier match has been delivered.
    with spans.span("loadgen.saturate"):
        cpu0 = process_cpu(served_run.server.proc.pid)
        begin = time.perf_counter()
        for seq, frame in saturate_frames:
            ingest.send(seq, frame)
            at, reply = ingest.reply(seq)
            while reply.get("type") == "slow_down":
                record.slow_downs += 1
                time.sleep(reply.get("retry_after_ms", 250) / 1e3)
                ingest.send(seq, frame)
                at, reply = ingest.reply(seq)
            record.ack_rtt_us.append((at - ingest.sent[seq]) * 1e6)
        end = subscriber.wait_marker(markers[0])
        record.saturate_s = end - begin
        record.saturate_cpu_s = ((process_cpu(served_run.server.proc.pid)
                                  or 0.0) - (cpu0 or 0.0))
    record.queue_depth_max = ingest.queue_depth_max
    return record


def _marker_events(base_events) -> list:
    """Two events no served pattern admits but the marker pattern: the
    first closes every window of the round, the second closes the first
    one's window so that its match is emitted."""
    gap = inputs.SEGMENT_GAP
    last = base_events[-1].ts
    return [Event(ts=last + gap, eid="z1", ID=0, L="Z", V=0.0, U="-"),
            Event(ts=last + 2 * gap, eid="z2", ID=0, L="Z", V=0.0, U="-")]


def _round_events(base, k: int, period: int) -> list:
    """The base stream of round ``k``: shifted past every earlier round,
    event ids tagged ``r<k>.`` so rounds never share a match."""
    return [e.replace(ts=e.ts + k * period, eid=f"r{k}.{e.eid}")
            for e in base]


def run_serve(root: str, workdir: str, seed: int, seconds: float,
              spans=None) -> Tuple[Outcome, List[RoundRecord]]:
    """The served workload; see the module docstring.

    Besides the served set, a marker pattern (a single ``Z`` event) is
    registered; two marker events close each round, and the first one's
    match tells the generator that the round's last match is delivered.
    """
    spans = spans or NullSpans()
    queries = inputs.serve_patterns()
    marker = inputs.Query(MARKER_ID, inputs.Spec(
        sets=(("z",),), labels={"z": "Z"}, joins=(), tau=1))
    served = queries + [marker]
    events, split = inputs.serve_input(seed)
    base = events + _marker_events(events)
    period = base[-1].ts + inputs.SEGMENT_GAP
    timestamps = [e.ts for e in base]
    taus = {q.pid: q.spec.tau for q in served}
    saturate_events = len(events) - split
    out = Outcome()
    records: List[RoundRecord] = []
    loop_before = host_loop_s()
    served_run = ServedRun(root, workdir, served, spans)
    setup_scale = REFERENCE_LOOP_S / min(loop_before, host_loop_s())
    out.rounds.setups.extend(s * setup_scale for s in served_run.setups)
    try:
        deadline = time.perf_counter() + seconds
        while not records or time.perf_counter() < deadline:
            k = len(records)
            loop_before = host_loop_s()
            with spans.span("round"):
                record = serve_round(
                    served_run, _round_events(base, k, period), split,
                    (f"r{k}.z1", f"r{k}.z2"), spans)
            record.loop_s = min(loop_before, host_loop_s())
            records.append(record)
            if k == 0:
                out.peak_rss_mb = served_run.peak_rss_mb()
        served_run.drain()
    finally:
        served_run.close()

    # Deliveries, per round by event-id tag; lags for matches closed in
    # the open-loop phase, from the due time of the closing batch.
    per_round: List[Dict[str, List[dict]]] = [
        {q.pid: [] for q in served} for _ in records]
    deliveries = []
    by_server_id = {"p0": served[0].pid}
    for at, kind, event_id, data in served_run.subscriber.items:
        if kind != "match":
            continue
        pid = by_server_id.get(data["pattern_id"], data["pattern_id"])
        match = check.from_payload(data["bindings"])
        deliveries.append((int(event_id), pid, check.binding_key(match)))
        tag = next(iter(match.values()))[0][1].split(".", 1)[0]
        k = int(tag[1:])
        per_round[k][pid].append({
            var: [(ts - k * period, eid.split(".", 1)[1], label, ident)
                  for ts, eid, label, ident in evs]
            for var, evs in match.items()})
        index = bisect_right(timestamps, data["min_ts"] - k * period
                             + taus[pid])
        if index < split:
            due = records[k].due[index // OPEN_LOOP_BATCH]
            records[k].lags_ms.append((at - due) * 1e3)
    for record in records:
        out.rounds.add(saturate_events, record.saturate_s,
                       record.saturate_cpu_s, [], record.lags_ms,
                       record.loop_s)
    out.faults += check.delivery_faults(deliveries)
    for output in per_round:
        out.record(output)

    out.judge(served, batch_references(served, base))
    out.self_check(queries, base)
    out.notes["lag_samples"] = out.rounds.lag_samples
    return out, records
