"""The shared frame loop's dispatch policy, on the server and the router.

Ops run inline on the event-loop thread unless they can block:

* a cached *and* an uncached ``enforce`` run on the loop thread, while
  ``observe_batch``/``query`` go to the executor — and every op the router
  forwards goes to the executor, since each one does partition socket I/O;
* a blocking op held on one connection (``observe_batch(wait=True)``
  behind a stalled ingest writer) does not stall ``enforce``/``decide`` on
  another;
* with inline ``enforce`` and executor ``observe_batch`` interleaved, every
  enforcement is audited exactly once (plus its ``CACHED`` note on a hit);
* a frame whose ``op`` is not a string (an unhashable list, say) gets a
  typed ``ProtocolError`` and the connection stays usable — on both hosts
  and both wire formats.
"""

from __future__ import annotations

import json
import socket
import struct
import sys
import threading

import pytest

from repro.api import Ltam
from repro.engine.audit import AuditEntryKind
from repro.locations.multilevel import LocationHierarchy
from repro.service import (
    DecisionCache,
    FabricRouter,
    LtamServer,
    PartitionMap,
    RouterServer,
    ServiceClient,
    wire,
)
from repro.service.protocol import request_to_dict
from repro.simulation.buildings import grid_building
from repro.simulation.workload import AuthorizationWorkloadGenerator, generate_subjects

SUBJECTS = generate_subjects(12)


def _hierarchy() -> LocationHierarchy:
    return LocationHierarchy(grid_building("B", 3, 3))


def _engine(hierarchy: LocationHierarchy) -> Ltam:
    engine = Ltam.builder().hierarchy(hierarchy).build()
    engine.grant_all(AuthorizationWorkloadGenerator(hierarchy, seed=5).authorizations(SUBJECTS))
    return engine


def _requests(hierarchy: LocationHierarchy, count: int):
    return AuthorizationWorkloadGenerator(hierarchy, seed=9).requests(SUBJECTS, count)


def _events(hierarchy: LocationHierarchy, count: int):
    return AuthorizationWorkloadGenerator(hierarchy, seed=13).movement_events(SUBJECTS, count)


class _ThreadSpy:
    """Record which thread ran each dispatched op."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen = []

    def dispatch(self, connection, message):
        self.seen.append((message["op"], threading.get_ident()))
        return super().dispatch(connection, message)


class _SpyServer(_ThreadSpy, LtamServer):
    pass


class _SpyRouterServer(_ThreadSpy, RouterServer):
    pass


def _on_loop(host, op):
    loop_thread = host._thread.ident
    threads = [ident for seen_op, ident in host.seen if seen_op == op]
    assert threads, f"{op} was never dispatched"
    return [ident == loop_thread for ident in threads]


# --------------------------------------------------------------------- #
# Where each op runs
# --------------------------------------------------------------------- #
class TestDispatchPolicy:
    def test_enforce_runs_on_the_loop_and_blocking_ops_do_not(self):
        hierarchy = _hierarchy()
        request = _requests(hierarchy, 1)[0]
        server = _SpyServer(_engine(hierarchy), cache=DecisionCache())
        with server, ServiceClient(*server.address) as client:
            assert client.enforce_detail(request)[1] is False  # miss
            assert client.enforce_detail(request)[1] is True  # hit
            client.decide(request)
            client.observe_batch(_events(hierarchy, 20), wait=True)
            client.query("WHO IS IN B")
            assert _on_loop(server, "enforce") == [True, True]
            assert _on_loop(server, "decide") == [True]
            assert _on_loop(server, "observe_batch") == [False]
            assert _on_loop(server, "query") == [False]

    def test_the_router_forwards_every_op_from_the_executor(self):
        hierarchy = _hierarchy()
        request = _requests(hierarchy, 1)[0]
        with LtamServer(_engine(hierarchy), partition="solo") as partition:
            host, port = partition.address
            router = FabricRouter(PartitionMap({"solo": f"{host}:{port}"}))
            server = _SpyRouterServer(router, port=0)
            try:
                with server, ServiceClient(*server.address, wire="binary") as client:
                    assert client.wire == "binary"  # hello answered on the loop
                    client.decide(request)
                    client.enforce(request)
                    client.health()
                    for op in ("decide", "enforce", "health"):
                        assert _on_loop(server, op) == [False]
            finally:
                router.close()

    def test_a_held_blocking_op_does_not_stall_enforce_on_another_connection(self):
        hierarchy = _hierarchy()
        requests = _requests(hierarchy, 4)
        engine = _engine(hierarchy)
        entered, release = threading.Event(), threading.Event()
        observe_many = engine.pep.observe_many

        def stalled_writer(records):
            entered.set()
            assert release.wait(30)
            return observe_many(records)

        engine.pep.observe_many = stalled_writer
        outcome = {}
        with LtamServer(engine, cache=DecisionCache()) as server:
            tracker = ServiceClient(*server.address)
            gate = ServiceClient(*server.address, timeout=10)

            def held():
                outcome["receipt"] = tracker.observe_batch(_events(hierarchy, 10), wait=True)

            holder = threading.Thread(target=held)
            holder.start()
            try:
                assert entered.wait(10), "the ingest writer never started"
                for request in requests + requests:  # misses, then hits
                    gate.enforce(request)
                    gate.decide(request)
                assert holder.is_alive(), "the blocking op finished early"
            finally:
                release.set()
                holder.join(10)
                tracker.close()
                gate.close()
        assert not holder.is_alive()
        assert outcome["receipt"]["written"] == 10


# --------------------------------------------------------------------- #
# Audit completeness under interleaving
# --------------------------------------------------------------------- #
def test_interleaved_inline_enforce_is_audited_exactly_once():
    # Three gates enforce inline on the loop thread while a tracker's
    # observe_batch runs in the executor and its ingest writer appends to
    # the same audit log; a tiny switch interval forces the threads to
    # interleave mid-append.  A lost or doubled append breaks the counts.
    hierarchy = _hierarchy()
    pool = _requests(hierarchy, 15)
    engine = _engine(hierarchy)
    events = _events(hierarchy, 400)
    gates, per_gate = 3, 150
    cached_flags = []
    start = threading.Barrier(gates + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with LtamServer(engine, cache=DecisionCache()) as server:

            def gate(offset):
                with ServiceClient(*server.address) as client:
                    start.wait(10)
                    for index in range(per_gate):
                        request = pool[(index + offset) % len(pool)]
                        cached_flags.append(client.enforce_detail(request)[1])

            def tracker():
                with ServiceClient(*server.address) as client:
                    start.wait(10)
                    for begin in range(0, len(events), 20):
                        client.observe_batch(events[begin:begin + 20], wait=True)

            threads = [threading.Thread(target=gate, args=(index,)) for index in range(gates)]
            threads.append(threading.Thread(target=tracker))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    enforced = gates * per_gate
    hits = sum(cached_flags)
    assert len(cached_flags) == enforced and 0 < hits < enforced
    audit = engine.audit
    assert len(audit.of_kind(AuditEntryKind.DECISION)) == enforced
    cached_notes = [
        entry for entry in audit.of_kind(AuditEntryKind.NOTE)
        if str(entry.payload).startswith("CACHED")
    ]
    assert len(cached_notes) == hits


# --------------------------------------------------------------------- #
# A non-string op is a typed error, not a dropped connection
# --------------------------------------------------------------------- #
class _RawConnection:
    """A bare socket speaking the protocol by hand (NDJSON or binary)."""

    def __init__(self, address, binary: bool) -> None:
        self._sock = socket.create_connection(address, timeout=10)
        self._reader = self._sock.makefile("rb")
        self.binary = False
        if binary:
            reply = self.call({"id": 0, "op": "hello", "wire": ["binary"]})
            assert reply["result"]["wire"] == "binary"
            self.binary = True

    def call(self, message):
        if self.binary:
            self._sock.sendall(wire.pack_frame(wire.encode_value(message)))
            header = self._reader.read(4)
            assert len(header) == 4, "the connection was dropped"
            (length,) = struct.unpack(">I", header)
            return wire.Decoder().decode(self._reader.read(length))
        self._sock.sendall(json.dumps(message).encode("utf-8") + b"\n")
        line = self._reader.readline()
        assert line, "the connection was dropped"
        return json.loads(line)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


def _assert_typed_refusal_then_service(address, binary, request):
    connection = _RawConnection(address, binary)
    try:
        for bad_op in (["decide"], {"op": "decide"}, 7, None):
            reply = connection.call({"id": 1, "op": bad_op, "request": request})
            assert reply["id"] == 1 and reply["ok"] is False
            assert reply["error"]["type"] == "ProtocolError"
            assert "op must be a string" in reply["error"]["message"]
        reply = connection.call({"id": 2, "op": "decide", "request": request})
        assert reply["id"] == 2 and reply["ok"] is True
        assert reply["result"]["granted"] in (True, False)
    finally:
        connection.close()


@pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
def test_non_string_op_is_a_typed_error_on_the_server(binary):
    hierarchy = _hierarchy()
    request = request_to_dict(_requests(hierarchy, 1)[0])
    with LtamServer(_engine(hierarchy), cache=DecisionCache()) as server:
        _assert_typed_refusal_then_service(server.address, binary, request)
        errors = server.metrics.counter("repro_op_errors_total").value
        assert errors == 4


@pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
def test_non_string_op_is_a_typed_error_on_the_router(binary):
    hierarchy = _hierarchy()
    request = request_to_dict(_requests(hierarchy, 1)[0])
    with LtamServer(_engine(hierarchy), partition="solo") as partition:
        host, port = partition.address
        router = FabricRouter(PartitionMap({"solo": f"{host}:{port}"}))
        try:
            with RouterServer(router, port=0) as server:
                _assert_typed_refusal_then_service(server.address, binary, request)
        finally:
            router.close()
