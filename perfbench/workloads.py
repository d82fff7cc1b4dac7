"""The four served workloads.

Each workload owns three phases:

* ``start(fleet)`` — spawn its server processes, seed them and warm them up
  until the first timed request could be sent (this is ``setup_s``);
* ``step(recorder, index)`` — one closed-loop step of the timed window (one
  outstanding request per connection; every request waits for its reply);
* ``verify(oracle)`` — compare every served decision (and, for
  ``tracker_mixed``, occupancy and alert totals) against an embedded engine
  fed the same inputs in the same order.

The load generator is one process with at most two connections.  Servers
run as separate ``repro serve``/``repro route`` processes (see
:mod:`fleet`).
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.serialization import authorization_to_dict
from repro.locations.serialization import save as save_layout
from repro.service import PartitionMap, ServiceClient
from repro.service.errors import ServiceError
from repro.service.protocol import records_to_wire
from repro.storage.ingest import DEFAULT_BATCH_SIZE
from repro.storage.movement_db import MovementKind

from inputs import HOT_POOL, Inputs, expected_wire, mismatches, wire_requests

#: history is shipped to the servers in record-mode chunks of this size.
SEED_CHUNK = 5_000
#: point requests sent after priming, before the window opens.
WARM_REQUESTS = 300

# The traffic mix.  ``decisions_per_s`` and ``server_cpu_us_per_op`` average
# over it, so changing any of these makes a different benchmark.
#
# gate_hot: point ``enforce`` and ``decide`` alternate 1:1 over the hot pool.
GATE_CACHE = 65_536
# audit_cold: ``decide_many`` batches walking the cold keys, against a cache
# far smaller than the key set.
COLD_CACHE = 4_096
COLD_KEYS = 200_000
COLD_BATCH = 500
# Point decides of fresh cold keys after each batch.  Nothing in the
# repository fixes this count: the points are a probe, so that the gated
# ``decide_p50_us`` (here the cache-miss point round trip) exists on this
# workload, and 5 keeps them at 1% of its decisions so that its throughput is
# the batches'.
COLD_POINTS = 5
# tracker_mixed: one ingest round trip ships what the server's ingest writer
# commits at once (``DEFAULT_BATCH_SIZE``), and the gate connection then sends
# as many point decides as the chunk holds ENTER events: every entry was
# decided at a door before the tracker reported it.  The decides draw from
# the hot pool, so they hit the cache unless the chunk invalidated them.
TRACKER_CHUNK = DEFAULT_BATCH_SIZE
# fabric_gate: a FABRIC_BATCH-request ``decide_many`` after every
# FABRIC_BATCH_EVERY routed point decides.  Nothing in the repository fixes
# this mix either: 16 requests span both partitions except with probability
# 2 * 2**-16, so every batch scatter-gathers, and one batch per 25 points
# keeps point decides most (61%) of the decisions, as at a gate.
FABRIC_BATCH = 16
FABRIC_BATCH_EVERY = 25
#: closed-loop rates used only to size the pre-generated streams; the hot
#: stream wraps around, and a used-up live stream ends the window early.
_MAX_POINT_RATE = 8_000
_MAX_EVENT_RATE = 20_000


class Recorder:
    """Counts and client-observed round trips of one timed window.

    ``call`` is the only way a workload talks to a server during the
    window: it times the round trip per request kind and turns a typed
    error or a transport failure into a counted failure.
    """

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = {}
        self.failed = 0
        self.decisions = 0
        self.events = 0
        self.tracer = None  # set by the traced run (see layers.Tracer)

    def call(self, client: ServiceClient, kind: str, op: str, units: int = 1, **payload: Any):
        """One timed round trip; *units* decisions or events ride on it."""
        tracer = self.tracer
        try:
            if tracer is not None:
                result, elapsed = tracer.call(client, kind, op, payload)
            else:
                started = perf_counter()
                result = client.call(op, **payload)
                elapsed = perf_counter() - started
        except (ServiceError, OSError):
            self.failed += units
            return None
        self.latencies.setdefault(kind, []).append(elapsed)
        return result

    def mark(self) -> Tuple[Dict[str, int], int, int]:
        return ({kind: len(values) for kind, values in self.latencies.items()},
                self.decisions, self.events)

    def since(self, mark, duration: float, cpu: float) -> Dict[str, Any]:
        """What was counted since *mark*, over *duration* seconds of wall time."""
        counts, decisions, events = mark
        return {
            "duration": duration,
            "cpu": cpu,
            "decisions": self.decisions - decisions,
            "events": self.events - events,
            "latencies": {kind: values[counts.get(kind, 0):]
                          for kind, values in self.latencies.items()},
        }


class Workload:
    """Shared plumbing: files, seeding, point-check bookkeeping."""

    name = ""
    cache_size = GATE_CACHE
    batch_size = 1

    def __init__(self, inputs: Inputs, work: str, seconds: float) -> None:
        self.inputs = inputs
        self.work = work
        self.clients: Dict[str, ServiceClient] = {}
        #: (what was asked, the decisions served or None) per timed request.
        self.served: List[Tuple[Any, Optional[List[Dict]]]] = []
        self.layout_path = os.path.join(work, "layout.json")
        self.auths_path = os.path.join(work, "auths.json")
        save_layout(inputs.layout, self.layout_path)
        # Written in generation order: candidate order decides which grant
        # admits a request, so the servers must load exactly what the
        # oracle granted, in the same order.
        with open(self.auths_path, "w", encoding="utf-8") as handle:
            json.dump([authorization_to_dict(auth) for auth in inputs.grants], handle)

    @staticmethod
    def live_events(seconds: float) -> int:
        """Live movement events the window may ship (generated up front)."""
        return 0

    # -- helpers ------------------------------------------------------- #
    def use_hot_pool(self, seconds: float) -> None:
        """The Zipf-skewed hot pool, and a stream over it long enough for *seconds*."""
        self.pool, self.stream = self.inputs.hot_stream(
            HOT_POOL, int(_MAX_POINT_RATE * seconds) + 1)
        self.wire_pool = wire_requests(self.pool)

    def serve_args(self, *extra: str) -> List[str]:
        return ["serve", "--layout", self.layout_path, "--auths", self.auths_path,
                "--port", "0", *extra]

    def connect(self, name: str, address: Tuple[str, int]) -> ServiceClient:
        client = ServiceClient(*address, timeout=60.0)
        self.clients[name] = client
        return client

    def close(self) -> None:
        for client in self.clients.values():
            client.close()
        self.clients = {}

    @staticmethod
    def seed_history(client: ServiceClient, history) -> None:
        wire = records_to_wire(history)
        for start in range(0, len(wire), SEED_CHUNK):
            client.call("observe_batch", records=wire[start : start + SEED_CHUNK],
                        mode="record", wait=True)

    def warm(self, client: ServiceClient, op: str, requests: Sequence[Dict]) -> None:
        for index in range(WARM_REQUESTS):
            client.call(op, request=requests[index % len(requests)], trace=False)

    # -- the phases ------------------------------------------------------ #
    def start(self, fleet) -> None:
        raise NotImplementedError

    def exhausted(self) -> bool:
        """True when the pre-generated inputs cannot feed another step."""
        return False

    def step(self, recorder: Recorder, index: int) -> None:
        raise NotImplementedError

    def verify(self, oracle) -> int:
        raise NotImplementedError

    def corrupt(self) -> None:
        """Flip the outcome of one served decision (the oracle self-test)."""
        for _, decisions in self.served:
            if decisions:
                decisions[0]["granted"] = not decisions[0]["granted"]
                return
        raise RuntimeError("no served decision to corrupt")

    def server_stats(self) -> Dict[str, Any]:
        """Cache and ingest counters over every serving process."""
        return {}

    # -- what the window sent, for the in-process replay ---------------- #
    def point_requests(self) -> List:
        return []

    def batch_requests(self) -> List[List]:
        return []

    def enforce_requests(self) -> List:
        return []

    def ingest_chunks(self) -> List[List]:
        return []


def _decision_of(op: str, result) -> Optional[Dict]:
    if result is None:
        return None
    return result.get("decision") if op == "enforce" else result


class GateHot(Workload):
    """Cached point ``enforce``/``decide`` 1:1 over a Zipf-skewed hot pool."""

    name = "gate_hot"

    def __init__(self, inputs: Inputs, work: str, seconds: float) -> None:
        super().__init__(inputs, work, seconds)
        self.use_hot_pool(seconds)

    def start(self, fleet) -> None:
        server = fleet.start("server", self.serve_args("--cache-size", str(GATE_CACHE)))
        client = self.connect("gate", server.address)
        self.seed_history(client, self.inputs.history)
        client.call("decide_many", requests=self.wire_pool, trace=False)
        self.warm(client, "enforce", self.wire_pool)
        self.served = []

    def step(self, recorder: Recorder, index: int) -> None:
        key = self.stream[index % len(self.stream)]
        op = "enforce" if index % 2 == 0 else "decide"
        result = recorder.call(self.clients["gate"], op, op, request=self.wire_pool[key], trace=False)
        recorder.decisions += 1
        decision = _decision_of(op, result)
        self.served.append((key, None if decision is None else [decision]))

    def verify(self, oracle) -> int:
        expected = [expected_wire(d) for d in oracle.pdp.decide_many(self.pool, trace=False)]
        return sum(1 if got is None else mismatches(got, [expected[key]])
                   for key, got in self.served)

    def server_stats(self) -> Dict[str, Any]:
        return _single_server_stats(self.clients["gate"])

    def point_requests(self) -> List:
        return [self.pool[key] for key, _ in self.served[1::2]]

    def enforce_requests(self) -> List:
        return [self.pool[key] for key, _ in self.served[0::2]]


class AuditCold(Workload):
    """``decide_many`` batches over ~200k distinct keys against a small cache."""

    name = "audit_cold"
    cache_size = COLD_CACHE
    batch_size = COLD_BATCH

    def __init__(self, inputs: Inputs, work: str, seconds: float) -> None:
        super().__init__(inputs, work, seconds)
        self.keys = inputs.requests(COLD_KEYS)
        self.wire_keys = wire_requests(self.keys)
        self.cursor = 0
        self.warm_keys = inputs.requests(WARM_REQUESTS)

    def start(self, fleet) -> None:
        server = fleet.start("server", self.serve_args("--cache-size", str(COLD_CACHE)))
        client = self.connect("audit", server.address)
        self.seed_history(client, self.inputs.history)
        warm = wire_requests(self.warm_keys)
        client.call("decide_many", requests=warm, trace=False)
        self.warm(client, "decide", warm)
        self.served = []

    def _take(self, count: int) -> int:
        start = self.cursor
        self.cursor = (self.cursor + count) % (len(self.wire_keys) - count)
        return start

    def step(self, recorder: Recorder, index: int) -> None:
        client = self.clients["audit"]
        start = self._take(COLD_BATCH)
        result = recorder.call(client, "batch", "decide_many", COLD_BATCH,
                               requests=self.wire_keys[start : start + COLD_BATCH], trace=False)
        recorder.decisions += COLD_BATCH
        self.served.append(((start, COLD_BATCH), None if result is None else result.get("decisions")))
        for _ in range(COLD_POINTS):
            start = self._take(1)
            result = recorder.call(client, "decide", "decide",
                                   request=self.wire_keys[start], trace=False)
            recorder.decisions += 1
            self.served.append(((start, 1), None if result is None else [result]))

    def verify(self, oracle) -> int:
        bad = 0
        for (start, count), decisions in self.served:
            expected = [expected_wire(d) for d in
                        oracle.pdp.decide_many(self.keys[start : start + count], trace=False)]
            bad += count if decisions is None else mismatches(decisions, expected)
        return bad

    def server_stats(self) -> Dict[str, Any]:
        return _single_server_stats(self.clients["audit"])

    def point_requests(self) -> List:
        return [self.keys[start] for (start, count), _ in self.served if count == 1]

    def batch_requests(self) -> List[List]:
        return [self.keys[start : start + count]
                for (start, count), _ in self.served if count > 1]


class TrackerMixed(Workload):
    """Monitor-mode ingest chunks beside point decides, on a SQLite server."""

    name = "tracker_mixed"

    @staticmethod
    def live_events(seconds: float) -> int:
        return int(_MAX_EVENT_RATE * seconds) + 5_000

    def __init__(self, inputs: Inputs, work: str, seconds: float) -> None:
        super().__init__(inputs, work, seconds)
        self.use_hot_pool(seconds)
        self.live = inputs.live
        self.wire_live = records_to_wire(self.live)
        #: ENTER events per chunk of the live stream: the point decides
        #: that follow the chunk.
        self.enters = [
            sum(1 for record in self.live[start : start + TRACKER_CHUNK]
                if record.kind is MovementKind.ENTER)
            for start in range(0, len(self.live), TRACKER_CHUNK)
        ]
        self.decided = 0
        self.db_path = ""
        self.setups = 0
        #: (first live event, event count, first served index, served count)
        self.cycles: List[Tuple[int, int, int, int]] = []
        self.shipped = 0
        self.alerts = 0

    def start(self, fleet) -> None:
        self.setups += 1
        self.db_path = os.path.join(self.work, f"tracker-{self.setups}.db")
        server = fleet.start("server", self.serve_args(
            "--db", self.db_path, "--cache-size", str(GATE_CACHE)))
        ingest = self.connect("ingest", server.address)
        gate = self.connect("gate", server.address)
        self.seed_history(ingest, self.inputs.history)
        gate.call("decide_many", requests=self.wire_pool, trace=False)
        self.warm(gate, "decide", self.wire_pool)
        self.served = []
        self.cycles = []
        self.shipped = 0
        self.decided = 0

    def exhausted(self) -> bool:
        return self.shipped + TRACKER_CHUNK > len(self.wire_live)

    def step(self, recorder: Recorder, index: int) -> None:
        start = self.shipped
        receipt = recorder.call(self.clients["ingest"], "ingest", "observe_batch", TRACKER_CHUNK,
                                records=self.wire_live[start : start + TRACKER_CHUNK],
                                mode="monitor", wait=True)
        if receipt is not None and receipt.get("accepted") != TRACKER_CHUNK:
            recorder.failed += TRACKER_CHUNK
        self.shipped = start + TRACKER_CHUNK
        recorder.events += TRACKER_CHUNK
        first = len(self.served)
        decides = self.enters[start // TRACKER_CHUNK]
        gate = self.clients["gate"]
        for _ in range(decides):
            key = self.stream[self.decided % len(self.stream)]
            self.decided += 1
            result = recorder.call(gate, "decide", "decide", request=self.wire_pool[key], trace=False)
            recorder.decisions += 1
            self.served.append((key, None if result is None else [result]))
        self.cycles.append((start, TRACKER_CHUNK, first, decides))

    def verify(self, oracle) -> int:
        bad = 0
        for start, count, first, decides in self.cycles:
            oracle.pep.observe_many(self.live[start : start + count])
            served = self.served[first : first + decides]
            requests = [self.pool[key] for key, _ in served]
            expected = [expected_wire(d) for d in oracle.pdp.decide_many(requests, trace=False)]
            bad += sum(1 if got is None else mismatches(got, [want])
                       for (_, got), want in zip(served, expected))
        gate = self.clients["gate"]
        for location in self.inputs.locations:
            rows = gate.call("query", text=f'WHO IS IN "{location}"').get("rows", ())
            if sorted(row[0] for row in rows) != sorted(oracle.occupants(location)):
                bad += 1
        violations = gate.call("query", text="VIOLATIONS").get("rows", ())
        if len(violations) != len(oracle.alerts.alerts):
            bad += 1
        self.alerts = len(violations)
        return bad

    def server_stats(self) -> Dict[str, Any]:
        stats = _single_server_stats(self.clients["gate"])
        stats["db_bytes"] = sum(
            os.path.getsize(path)
            for path in (self.db_path, self.db_path + "-wal")
            if os.path.exists(path)
        )
        return stats

    def point_requests(self) -> List:
        return [self.pool[key] for key, _ in self.served]

    def ingest_chunks(self) -> List[List]:
        return [self.live[start : start + count] for start, count, _, _ in self.cycles]


class FabricGate(Workload):
    """Routed point decides plus small scatter-gather batches, two partitions."""

    name = "fabric_gate"
    batch_size = FABRIC_BATCH

    def __init__(self, inputs: Inputs, work: str, seconds: float) -> None:
        super().__init__(inputs, work, seconds)
        self.use_hot_pool(seconds)
        self.map_path = os.path.join(work, "fabric.json")
        self.partitions: Dict[str, Tuple[str, int]] = {}

    def start(self, fleet) -> None:
        servers = fleet.start_many([
            (name, self.serve_args("--cache-size", str(GATE_CACHE), "--partition", name))
            for name in ("p0", "p1")
        ])
        self.partitions = {server.name: server.address for server in servers}
        PartitionMap(
            {name: f"{host}:{port}" for name, (host, port) in self.partitions.items()}
        ).save(self.map_path)
        router = fleet.start("router", ["route", "--map", self.map_path, "--port", "0"])
        client = self.connect("gate", router.address)
        self.seed_history(client, self.inputs.history)
        client.call("decide_many", requests=self.wire_pool, trace=False)
        self.warm(client, "decide", self.wire_pool)
        self.served = []

    def step(self, recorder: Recorder, index: int) -> None:
        client = self.clients["gate"]
        key = self.stream[index % len(self.stream)]
        result = recorder.call(client, "decide", "decide", request=self.wire_pool[key], trace=False)
        recorder.decisions += 1
        self.served.append(([key], None if result is None else [result]))
        if index % FABRIC_BATCH_EVERY == FABRIC_BATCH_EVERY - 1:
            keys = [self.stream[(index + 1 + offset) % len(self.stream)]
                    for offset in range(FABRIC_BATCH)]
            result = recorder.call(client, "batch", "decide_many", FABRIC_BATCH,
                                   requests=[self.wire_pool[k] for k in keys], trace=False)
            recorder.decisions += FABRIC_BATCH
            self.served.append((keys, None if result is None else result.get("decisions")))

    def verify(self, oracle) -> int:
        expected = [expected_wire(d) for d in oracle.pdp.decide_many(self.pool, trace=False)]
        bad = 0
        for keys, decisions in self.served:
            bad += len(keys) if decisions is None else mismatches(
                decisions, [expected[key] for key in keys])
        return bad

    def server_stats(self) -> Dict[str, Any]:
        health = self.clients["gate"].call("health")
        stats = {"hits": 0, "misses": 0, "invalidated": 0}
        for partition in (health.get("partitions") or {}).values():
            cache = partition.get("cache") or {}
            for key in stats:
                stats[key] += cache.get(key, 0)
        return stats

    def point_requests(self) -> List:
        return [self.pool[keys[0]] for keys, _ in self.served if len(keys) == 1]

    def batch_requests(self) -> List[List]:
        return [[self.pool[key] for key in keys] for keys, _ in self.served if len(keys) > 1]


def _single_server_stats(client: ServiceClient) -> Dict[str, Any]:
    cache = client.call("health").get("cache") or {}
    stats = {key: cache.get(key, 0) for key in ("hits", "misses", "invalidated")}
    for histogram in client.call("metrics").get("histograms", ()):
        if histogram.get("name") == "repro_ingest_commit_seconds":
            stats["commits"] = histogram.get("count", 0)
            stats["commit_seconds"] = histogram.get("sum", 0.0)
        elif (histogram.get("name") == "repro_op_latency_seconds"
              and (histogram.get("labels") or {}).get("op") == "decide"):
            stats["hist_decide_p50_s"] = histogram.get("p50", 0.0)
    return stats


WORKLOADS = {cls.name: cls for cls in (GateHot, AuditCold, TrackerMixed, FabricGate)}
