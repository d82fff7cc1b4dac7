"""The traced run: per-layer metrics and the layer table.

Everything here measures from outside the program, in the benchmark's own
files; nothing is added to ``src/``.

* :class:`Tracer` alternates untraced and traced blocks during the window.
  In a traced block each request runs under a fresh
  :class:`repro.service.telemetry.Trace`, so :meth:`ServiceClient.call
  <repro.service.client.ServiceClient.call>` forwards ``tctx`` and grafts
  the spans the server (and router) echo back: ``server.op``,
  ``pipeline.*``, ``router.op``/``router.call``/``router.fan_out``.  The
  client codec (:func:`repro.service.protocol.encode_frame` and
  :func:`~repro.service.protocol.decode_frame`, as bound in the client
  module) is timed in every block.
* :func:`replay` re-runs a sample of the window's requests through
  in-process engines built from the same inputs and times the public calls
  of each layer: ``DecisionCache.get``, ``DecisionPoint.decide`` and
  ``decide_many``, the ``evaluate`` of each stage the servers run (an
  engine built with ``LtamBuilder.pipeline`` from the wrapped stages of
  ``default_pipeline()``),
  ``EnforcementPoint.enforce`` and ``observe_many``,
  ``SqliteMovementDatabase.record_many``, ``MovementDatabase.entry_count``
  and ``FabricRouter.decide_raw``.
* :func:`layer_table` splits every traced round trip into client encode,
  client decode, the self time of each echoed span, and an explicit
  ``unattributed`` row (socket, event loop, executor hand-off, framing),
  so the rows add up to the traced end-to-end time.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.service.client as client_module
from repro.api import Ltam
from repro.api.stages import default_pipeline
from repro.service import DecisionCache, FabricRouter, PartitionMap, ServiceClient, telemetry
from repro.storage.movement_db import SqliteMovementDatabase

#: length of one untraced or traced block of the window, in seconds.
BLOCK_SECONDS = 0.5
#: caps on how much of the window the in-process replay re-runs.
REPLAY_POINTS = 4_000
REPLAY_BATCHES = 16
REPLAY_CHUNKS = 24
HOP_ROUNDS = 10
HOP_REQUESTS = 100

#: every per-layer metric and the end-to-end metric (and workload) it is
#: predicted to move; on the other workloads it should stay flat.  Names and
#: units are listed in ``BENCHMARK.json``; the traced run prints this map.
_PIPELINE = "decisions_per_s and server_cpu_us_per_op on audit_cold, nothing on gate_hot"
_UNSERVED = "none (no workload serves this stage: the servers run default_pipeline(); reads 0)"
PREDICTIONS: Dict[str, str] = {
    "client.encode_us": "decide_p50_us on gate_hot",
    "client.decode_us": "decide_p50_us on gate_hot; batch_p50_ms on audit_cold",
    "client.cpu_us_per_op": "none (load generator cost, never charged to the server)",
    "wire.bytes_per_decision": "batch_p50_ms on audit_cold",
    "server.op_us": "server_cpu_us_per_op on gate_hot",
    "server.span_decide_p50_us": "none (histogram-floor cross-check, ungated)",
    "server.hist_decide_p50_us": "none (histogram-floor cross-check, ungated)",
    "transport.residual_us": "decide_p50_us on gate_hot; small share on audit_cold",
    "cache.hit_ratio": "decisions_per_s (about 1 on gate_hot, about 0 on audit_cold)",
    "cache.get_us": "decide_p50_us on gate_hot",
    "cache.invalidations_per_event": "decide_p50_us on tracker_mixed",
    "pdp.decide_us": _PIPELINE,
    "pdp.decide_many_us_per_decision": _PIPELINE,
    "pdp.stage.known_location_us": _PIPELINE,
    "pdp.stage.candidate_lookup_us": _PIPELINE,
    "pdp.stage.entry_window_us": _PIPELINE,
    "pdp.stage.conflict_resolution_us": _UNSERVED,
    "pdp.stage.capacity_us": _UNSERVED,
    "pdp.stage.entry_budget_us": _PIPELINE,
    "pep.enforce_us": "decide_p50_us and server_cpu_us_per_op on gate_hot",
    "pep.observe_many_us_per_event": "events_per_s and ingest_ack_p50_ms on tracker_mixed",
    "monitor.alerts_per_event": "events_per_s and ingest_ack_p50_ms on tracker_mixed",
    "store.record_many_us_per_event": "events_per_s on tracker_mixed",
    "store.bytes_per_event": "events_per_s on tracker_mixed",
    "ingest.commit_ms": "events_per_s on tracker_mixed",
    "ingest.events_per_commit": "events_per_s on tracker_mixed",
    "occupancy.entry_count_us": "decisions_per_s on audit_cold",
    "router.op_us": "decide_p50_us on fabric_gate",
    "router.call_us": "decide_p50_us on fabric_gate",
    "router.hop_us": "decide_p50_us on fabric_gate",
    "router.fan_out_us": "batch_p50_ms on fabric_gate",
    "router.decide_raw_us": "decide_p50_us on fabric_gate",
    "tracing.overhead_pct": "none (shows whether the traced run is representative)",
}


class _Timer:
    """Call count and total seconds of one timed function."""

    __slots__ = ("calls", "seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def wrap(self, function: Callable) -> Callable:
        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - started
                self.calls += 1

        return timed

    def mean_us(self, per: Optional[int] = None) -> float:
        count = self.calls if per is None else per
        return self.seconds / count * 1e6 if count else 0.0


class _Codec:
    """Client codec time and bytes of the request in flight."""

    __slots__ = ("encode", "decode", "sent", "received")

    def __init__(self) -> None:
        self.encode = self.decode = 0.0
        self.sent = self.received = 0


class Tracer:
    """Alternating untraced/traced blocks over one :class:`~workloads.Recorder`."""

    def __init__(self, recorder) -> None:
        recorder.tracer = self
        self.traced = False
        #: (kind, op, round trip s, encode s, decode s, echoed spans) per traced request.
        self.requests: List[Tuple[str, str, float, float, float, List]] = []
        #: round trips of untraced requests, per kind.
        self.untraced: Dict[str, List[float]] = {}
        #: client codec totals over untraced requests, per kind.
        self.codec: Dict[str, List[float]] = {}
        self._current: Optional[_Codec] = None
        self._encode = client_module.encode_frame
        self._decode = client_module.decode_frame
        client_module.encode_frame = self._timed_encode
        client_module.decode_frame = self._timed_decode

    def _timed_encode(self, message):
        started = perf_counter()
        data = self._encode(message)
        current = self._current
        if current is not None:
            current.encode += perf_counter() - started
            current.sent += len(data)
        return data

    def _timed_decode(self, line):
        started = perf_counter()
        message = self._decode(line)
        current = self._current
        if current is not None:
            current.decode += perf_counter() - started
            current.received += len(line)
        return message

    def select_block(self, offset: float) -> None:
        self.traced = int(offset / BLOCK_SECONDS) % 2 == 1

    def call(self, client: ServiceClient, kind: str, op: str, payload: Dict[str, Any]):
        codec = self._current = _Codec()
        try:
            if self.traced:
                trace = telemetry.Trace()
                with telemetry.activated(trace):
                    started = perf_counter()
                    result = client.call(op, **payload)
                    elapsed = perf_counter() - started
                self.requests.append(
                    (kind, op, elapsed, codec.encode, codec.decode, trace.spans_to_wire()))
            else:
                started = perf_counter()
                result = client.call(op, **payload)
                elapsed = perf_counter() - started
                self.untraced.setdefault(kind, []).append(elapsed)
                totals = self.codec.setdefault(kind, [0, 0.0, 0.0, 0])
                totals[0] += 1
                totals[1] += codec.encode
                totals[2] += codec.decode
                totals[3] += codec.sent + codec.received
        finally:
            self._current = None
        return result, elapsed

    def finish(self) -> None:
        """Restore the client module's codec bindings."""
        client_module.encode_frame = self._encode
        client_module.decode_frame = self._decode


# --------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------- #
def self_times(spans: Sequence[Sequence[Any]]) -> Tuple[Dict[str, float], float]:
    """Self time (us) per span name, and the summed duration of the roots.

    A span's self time is its duration minus the part of its interval its
    children cover (the union, so concurrent fan-out children count once).
    Roots are spans whose parent is not in the set: the server's
    ``server.op`` or the router's ``router.op``.
    """
    ids = {span[0] for span in spans}
    children: Dict[str, List[Sequence[Any]]] = {}
    outer = 0.0
    for span in spans:
        if span[1] in ids:
            children.setdefault(span[1], []).append(span)
        else:
            outer += span[4]
    result: Dict[str, float] = {}
    for span in spans:
        start, duration = span[3], span[4]
        end = start + duration
        covered = 0.0
        reach = start
        for child in sorted(children.get(span[0], ()), key=lambda c: c[3]):
            low = max(child[3], reach)
            high = min(child[3] + child[4], end)
            if high > low:
                covered += high - low
                reach = high
        result[span[2]] = result.get(span[2], 0.0) + max(duration - covered, 0.0)
    return result, outer


def layer_table(tracer: Tracer) -> Dict[str, Any]:
    """Rows of self time over every traced request; rows sum to the total."""
    rows: Dict[str, float] = {"client.encode": 0.0, "client.decode": 0.0}
    calls: Dict[str, int] = {}
    ops: Dict[str, List[float]] = {}
    total = unattributed = 0.0
    for kind, op, elapsed, encode, decode, spans in tracer.requests:
        rtt = elapsed * 1e6
        total += rtt
        ops.setdefault(op, []).append(rtt)
        rows["client.encode"] += encode * 1e6
        rows["client.decode"] += decode * 1e6
        own, _ = self_times(spans)
        for name, value in own.items():
            rows[name] = rows.get(name, 0.0) + value
        for span in spans:
            calls[span[2]] = calls.get(span[2], 0) + 1
        unattributed += rtt - encode * 1e6 - decode * 1e6 - sum(own.values())
    rows["unattributed"] = unattributed
    count = len(tracer.requests)
    return {
        "requests": count,
        "total_us": total,
        "rows": [
            {"layer": name, "self_us": value, "per_request_us": value / count if count else 0.0,
             "share": value / total if total else 0.0, "spans": calls.get(name, count)}
            for name, value in rows.items()
        ],
        "ops": {op: {"count": len(values), "mean_us": statistics.fmean(values)}
                for op, values in ops.items()},
    }


def _span_stats(tracer: Tracer) -> Dict[str, List[float]]:
    durations: Dict[str, List[float]] = {}
    residual: List[float] = []
    for kind, op, elapsed, encode, decode, spans in tracer.requests:
        _, outer = self_times(spans)
        residual.append(elapsed * 1e6 - (encode + decode) * 1e6 - outer)
        for span in spans:
            durations.setdefault(span[2], []).append(span[4])
            meta = span[5] or {}
            if span[2] == "server.op" and meta.get("op") == "decide":
                durations.setdefault("server.op.decide", []).append(span[4])
    durations["transport.residual"] = residual
    return durations


# --------------------------------------------------------------------- #
# In-process replay
# --------------------------------------------------------------------- #
class _TimedStage:
    """A public stage whose ``evaluate`` is timed."""

    def __init__(self, stage, timer: _Timer) -> None:
        self.name = stage.name
        self.evaluate = timer.wrap(stage.evaluate)


def replay(bench, work: str) -> Dict[str, float]:
    """Time each layer's public calls on a sample of the window's requests."""
    inputs = bench.inputs
    points = bench.point_requests()[:REPLAY_POINTS]
    batches = bench.batch_requests()[:REPLAY_BATCHES]
    metrics: Dict[str, float] = {}

    mirror = inputs.oracle()
    entry_count = _Timer()
    info = mirror.pdp.info
    info.entry_count = entry_count.wrap(info.entry_count)
    decide = _Timer()
    timed_decide = decide.wrap(mirror.pdp.decide)
    decisions = [timed_decide(request) for request in points]
    metrics["pdp.decide_us"] = decide.mean_us()
    decide_many = _Timer()
    timed_decide_many = decide_many.wrap(mirror.pdp.decide_many)
    for batch in batches:
        timed_decide_many(batch)
    metrics["pdp.decide_many_us_per_decision"] = decide_many.mean_us(sum(map(len, batches)))
    metrics["occupancy.entry_count_us"] = entry_count.mean_us()

    # The stages the servers run, each wrapped; the stages no server runs
    # (conflict resolution, capacity) keep their 0.
    stages = default_pipeline()
    timers = {stage.name: _Timer() for stage in stages}
    staged = (
        Ltam.builder()
        .hierarchy(inputs.hierarchy)
        .pipeline(*(_TimedStage(stage, timers[stage.name]) for stage in stages))
        .build()
    )
    staged.grant_all(inputs.grants)
    staged.movement_db.record_many(inputs.history)
    for request in points:
        staged.pdp.decide(request)
    for name, timer in timers.items():
        metrics[f"pdp.stage.{name.replace('-', '_')}_us"] = timer.mean_us()

    cache = DecisionCache(maxsize=bench.cache_size)
    get = _Timer()
    timed_get = get.wrap(cache.get)
    for request, decision in zip(points, decisions):
        if timed_get(request.subject, request.location, request.time) is None:
            cache.put(request.subject, request.location, request.time, decision)
    metrics["cache.get_us"] = get.mean_us()

    enforce = _Timer()
    mirror.attach_decision_cache(DecisionCache(maxsize=bench.cache_size))
    timed_enforce = enforce.wrap(mirror.pep.enforce)
    for request in bench.enforce_requests()[:REPLAY_POINTS]:
        timed_enforce(request)
    metrics["pep.enforce_us"] = enforce.mean_us()

    chunks = bench.ingest_chunks()[:REPLAY_CHUNKS]
    events = sum(map(len, chunks))
    observe = _Timer()
    record = _Timer()
    if chunks:
        tracker = (
            Ltam.builder()
            .hierarchy(inputs.hierarchy)
            .backend("sqlite", os.path.join(work, "replay-monitor.db"))
            .build()
        )
        tracker.grant_all(inputs.grants)
        tracker.movement_db.record_many(inputs.history)
        store = SqliteMovementDatabase(os.path.join(work, "replay-store.db"), inputs.hierarchy)
        store.record_many(inputs.history)
        timed_observe = observe.wrap(tracker.pep.observe_many)
        timed_record = record.wrap(store.record_many)
        try:
            for chunk in chunks:
                timed_observe(chunk)
                timed_record(chunk)
        finally:
            store.close()
            tracker.movement_db.close()
    metrics["pep.observe_many_us_per_event"] = observe.mean_us(events)
    metrics["store.record_many_us_per_event"] = record.mean_us(events)
    return metrics


def _fabric(bench) -> Dict[str, float]:
    """Router cost: in-process ``decide_raw`` and routed-minus-direct round trips."""
    partition_map = PartitionMap(
        {name: f"{host}:{port}" for name, (host, port) in bench.partitions.items()})
    owned = [key for key, request in enumerate(bench.wire_pool)
             if partition_map.owner(request["subject"]) == "p0"]
    raw = _Timer()
    with FabricRouter(partition_map, pool_size=1) as router:
        timed = raw.wrap(router.decide_raw)
        for index in range(REPLAY_POINTS // 2):
            timed(bench.wire_pool[owned[index % len(owned)]])
    routed: List[float] = []
    direct: List[float] = []
    gate = bench.clients["gate"]
    with ServiceClient(*bench.partitions["p0"]) as partition:
        for round_index in range(HOP_ROUNDS):
            for client, sink in ((gate, routed), (partition, direct)):
                for offset in range(HOP_REQUESTS):
                    request = bench.wire_pool[owned[(round_index * HOP_REQUESTS + offset) % len(owned)]]
                    started = perf_counter()
                    client.call("decide", request=request, trace=False)
                    sink.append(perf_counter() - started)
    return {
        "router.decide_raw_us": raw.mean_us(),
        "router.hop_us": (statistics.median(routed) - statistics.median(direct)) * 1e6,
    }


def per_layer(bench, tracer: Tracer, recorder, before: Dict, after: Dict, *,
              client_cpu: float) -> Dict[str, Any]:
    """Every per-layer metric of ``BENCHMARK.json`` plus the layer table."""
    metrics: Dict[str, float] = {name: 0.0 for name in PREDICTIONS}
    ops = recorder.decisions + recorder.events
    metrics["client.cpu_us_per_op"] = client_cpu / max(ops, 1) * 1e6

    calls = sum(totals[0] for totals in tracer.codec.values())
    if calls:
        metrics["client.encode_us"] = sum(t[1] for t in tracer.codec.values()) / calls * 1e6
        metrics["client.decode_us"] = sum(t[2] for t in tracer.codec.values()) / calls * 1e6
    decided = {"decide": 1, "enforce": 1, "batch": bench.batch_size}
    wire_decisions = sum(tracer.codec[kind][0] * per for kind, per in decided.items()
                         if kind in tracer.codec)
    if wire_decisions:
        metrics["wire.bytes_per_decision"] = sum(
            tracer.codec[kind][3] for kind in decided if kind in tracer.codec) / wire_decisions

    spans = _span_stats(tracer)
    for name, metric in (("server.op", "server.op_us"), ("router.op", "router.op_us"),
                         ("router.call", "router.call_us"), ("router.fan_out", "router.fan_out_us"),
                         ("transport.residual", "transport.residual_us")):
        if spans.get(name):
            metrics[metric] = statistics.fmean(spans[name])
    if spans.get("server.op.decide"):
        metrics["server.span_decide_p50_us"] = statistics.median(spans["server.op.decide"])
    metrics["server.hist_decide_p50_us"] = after.get("hist_decide_p50_s", 0.0) * 1e6

    lookups = (after.get("hits", 0) - before.get("hits", 0)) + (
        after.get("misses", 0) - before.get("misses", 0))
    if lookups:
        metrics["cache.hit_ratio"] = (after.get("hits", 0) - before.get("hits", 0)) / lookups
    events = recorder.events
    if events:
        metrics["cache.invalidations_per_event"] = (
            after.get("invalidated", 0) - before.get("invalidated", 0)) / events
        metrics["monitor.alerts_per_event"] = getattr(bench, "alerts", 0) / events
        metrics["store.bytes_per_event"] = (after.get("db_bytes", 0) - before.get("db_bytes", 0)) / events
        commits = after.get("commits", 0) - before.get("commits", 0)
        if commits:
            metrics["ingest.commit_ms"] = (
                after.get("commit_seconds", 0.0) - before.get("commit_seconds", 0.0)) / commits * 1e3
            metrics["ingest.events_per_commit"] = events / commits

    traced = [elapsed for kind, _, elapsed, *_ in tracer.requests if kind == "decide"]
    untraced = tracer.untraced.get("decide", ())
    if traced and untraced:
        base = statistics.median(untraced)
        metrics["tracing.overhead_pct"] = (statistics.median(traced) - base) / base * 100.0

    # Freeze what the run holds so collections during the replay scan only
    # what the replay allocates, not the window's recorded responses.
    gc.collect()
    gc.freeze()
    try:
        metrics.update(replay(bench, bench.work))
        if getattr(bench, "partitions", None):
            metrics.update(_fabric(bench))
    finally:
        gc.unfreeze()

    table = layer_table(tracer)
    table["workload"] = bench.name
    table["client_decide_p50_us"] = statistics.median(untraced) * 1e6 if untraced else 0.0
    table["span_decide_p50_us"] = metrics["server.span_decide_p50_us"]
    table["hist_decide_p50_us"] = metrics["server.hist_decide_p50_us"]
    table["metrics"] = metrics
    # The run's work directory is removed afterwards; its parent is kept.
    directory = os.path.dirname(bench.work)
    with open(os.path.join(directory, f"layers-{bench.name}.json"), "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2)
    return {"metrics": metrics, "table": table}


def print_layers(layer: Dict[str, Any], units: Dict[str, str]) -> None:
    table = layer["table"]
    print(f"# layer table: {table['requests']} traced requests, "
          f"{table['total_us'] / 1e3:.1f} ms traced end-to-end")
    print(f"{'layer':<24} {'self_ms':>10} {'share':>7} {'us/request':>11} {'spans':>8}")
    for row in table["rows"]:
        print(f"{row['layer']:<24} {row['self_us'] / 1e3:>10.2f} {row['share']:>7.1%} "
              f"{row['per_request_us']:>11.1f} {row['spans']:>8}")
    for op, facts in table["ops"].items():
        print(f"# op {op}: {facts['count']} traced, mean {facts['mean_us']:.1f} us")
    print(f"# decide p50 cross-check: client {table['client_decide_p50_us']:.1f} us, "
          f"server.op span {table['span_decide_p50_us']:.1f} us, "
          f"server histogram {table['hist_decide_p50_us']:.1f} us (ungated)")
    for name, value in layer["metrics"].items():
        print(f"{name:<34} {value:>14.4f} {units[name]:<6} moves: {PREDICTIONS[name]}")
