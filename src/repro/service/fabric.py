"""The partitioned serving fabric: subjects sharded across server processes.

PR 3 sharded the occupancy projection *inside* one process and the replica
work made copies of one log coherent; this module composes them into a
fleet.  A :class:`PartitionMap` assigns every subject to a named partition
with the same consistent-hash construction the in-process
:class:`~repro.storage.sharding.HashRing` uses (CRC32 points, virtual
nodes) — stable across processes and restarts, minimal-remap under growth —
and a :class:`FabricRouter` in front of the partitions speaks the ordinary
service protocol:

* **point ops** (``decide`` / ``enforce`` / ``observe``) are forwarded to
  the subject's owning partition, wire-form in, wire-form out;
* **batch ops** (``decide_many`` / ``observe_batch``) are scatter-gathered:
  the batch is split by owner with per-partition order preserved (the only
  order occupancy semantics depend on), the partitions run concurrently,
  and decisions are reassembled into the caller's original order;
* **cross-partition queries** fan out and merge deterministically —
  ``WHO IS IN`` is the sorted union of disjoint per-partition occupant
  sets, subject-scoped statements go straight to the owner, and global
  ``VIOLATIONS`` merges on the full row (canonical order, documented);
* :meth:`FabricRouter.reshard` is the live-migration story: only the
  subjects whose owner changed move.  Each one's archived slice and alerts
  travel through the ``import_archive`` handoff op, its live-log slice
  ships through the ordinary ``observe_batch`` path (``mode="record"``,
  landing exactly like native ingest without re-raising old alerts), the
  source forgets it, and a ``sync`` barrier on the destination guarantees
  no decision is served from a partition that no longer owns the subject.
  Routed traffic holds the map read-locked, reshard holds it exclusively —
  a request is never routed with a half-installed map.

The router is usable two ways: embedded client-side (a drop-in front end
over :class:`~repro.service.client.ConnectionPool` instances) or as a
standalone ``repro route`` process (:class:`RouterServer`, hosted on the
same :class:`~repro.service.runtime.AsyncServiceHost` lifecycle as the
server and the bus).

**Global capacity** — capacity checks count the whole fabric: each
partition publishes its per-location occupancy over the invalidation bus
and folds its peers' vectors into a
:class:`~repro.service.capacity.CapacityLedger`, so
:class:`~repro.api.stages.CapacityStage` sees *local projection + remote
ledger* wherever a location's occupants span partitions.  The router's
``sync`` fan-out is the convergence barrier — it runs **two phases**
(flush every partition's pending publishes to the hub, then deliver every
peer's publishes everywhere), and :meth:`FabricRouter.reshard` ends with
the same barrier so moved subjects' stays are never double-counted across
the handoff.  :meth:`FabricRouter.health` compares every partition's local
occupancy vector against its peers' replicated copies and reports the
fabric-wide ``ledger`` convergence verdict (``repro route --status``).
"""

from __future__ import annotations

import bisect
import json
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.subjects import subject_name
from repro.engine.alerts import Alert
from repro.engine.query.ast import QueryResult, RouteQuery, ViolationsQuery, WhoIsInQuery
from repro.engine.query.parser import parse
from repro.api.decision import Decision
from repro.storage.movement_db import MovementRecord
from repro.storage.sharding import DEFAULT_VIRTUAL_NODES, stable_hash
from repro.service import telemetry, wire as wireformat
from repro.service.client import ConnectionPool, RequestLike, _coerce_request
from repro.service.errors import ProtocolError, ServiceError
from repro.service.protocol import (
    alert_from_dict,
    decision_from_dict,
    query_result_from_dict,
    record_to_wire,
    request_to_dict,
)
from repro.service.runtime import DEFAULT_FRAME_LIMIT, AsyncServiceHost, ServiceConnection

__all__ = [
    "DEFAULT_ROUTER_PORT",
    "PartitionMap",
    "FabricRouter",
    "RouterServer",
]

#: Default port of a standalone ``repro route`` process.
DEFAULT_ROUTER_PORT = 7473

#: The full 32-bit hash ring the partition points live on.
_RING_SPAN = 1 << 32


class PartitionMap:
    """A versioned consistent-hash assignment of subjects to named partitions.

    Parameters
    ----------
    partitions:
        Mapping of partition name → ``"host:port"`` address.
    version:
        Monotonic map version; a reshard installs a strictly newer map.
    virtual_nodes:
        Ring points per partition (same default as the in-process ring).
    assignments:
        Explicit subject → partition pins applied *after* the ring lookup.
        This is how a single hot subject moves without touching the ring:
        :meth:`with_assignment` yields a successor map differing in exactly
        that subject.

    The map is immutable; the ``with_*`` methods return bumped successors.
    It serializes to a small JSON document (:meth:`to_wire`/:meth:`save`)
    so ``repro serve --map`` and ``repro route --map`` processes can share
    one file.
    """

    def __init__(
        self,
        partitions: Dict[str, str],
        *,
        version: int = 1,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        assignments: Optional[Dict[str, str]] = None,
    ) -> None:
        if not isinstance(partitions, dict) or not partitions:
            raise ServiceError("a partition map needs at least one named partition")
        if not isinstance(version, int) or isinstance(version, bool) or version < 1:
            raise ServiceError(f"map version must be a positive integer, got {version!r}")
        if not isinstance(virtual_nodes, int) or virtual_nodes < 1:
            raise ServiceError(f"virtual node count must be positive, got {virtual_nodes!r}")
        self._partitions: Dict[str, str] = {}
        for name, address in partitions.items():
            name = str(name)
            host, port = self._parse_address(name, address)
            self._partitions[name] = f"{host}:{port}"
        self._version = version
        self._virtual_nodes = virtual_nodes
        self._assignments: Dict[str, str] = {}
        for subject, name in (assignments or {}).items():
            if name not in self._partitions:
                raise ServiceError(
                    f"assignment pins {subject!r} to unknown partition {name!r}"
                )
            self._assignments[subject_name(subject)] = str(name)
        # The ring: virtual-node points per partition, sorted.  Point ties
        # between partitions resolve by name — deterministic everywhere.
        points: List[Tuple[int, str]] = []
        for name in sorted(self._partitions):
            for replica in range(virtual_nodes):
                points.append((stable_hash(f"{name}:vnode-{replica}"), name))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    @staticmethod
    def _parse_address(name: str, address: Any) -> Tuple[str, int]:
        text = str(address)
        host, separator, port = text.rpartition(":")
        if not separator or not host:
            raise ServiceError(
                f"partition {name!r} address must look like 'host:port', got {address!r}"
            )
        try:
            return host, int(port)
        except ValueError:
            raise ServiceError(
                f"partition {name!r} has a non-numeric port in {address!r}"
            ) from None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """The map's monotonic version."""
        return self._version

    @property
    def virtual_nodes(self) -> int:
        """Ring points per partition."""
        return self._virtual_nodes

    @property
    def names(self) -> Tuple[str, ...]:
        """The partition names, sorted."""
        return tuple(sorted(self._partitions))

    @property
    def partitions(self) -> Dict[str, str]:
        """A copy of the name → ``"host:port"`` table."""
        return dict(self._partitions)

    @property
    def assignments(self) -> Dict[str, str]:
        """A copy of the explicit subject → partition pins."""
        return dict(self._assignments)

    def address(self, name: str) -> Tuple[str, int]:
        """The ``(host, port)`` of partition *name*."""
        try:
            address = self._partitions[name]
        except KeyError:
            raise ServiceError(
                f"unknown partition {name!r}; the map holds {', '.join(self.names)}"
            ) from None
        return self._parse_address(name, address)

    def owner(self, subject: str) -> str:
        """The partition owning *subject* — pin first, then the ring."""
        subject = subject_name(subject)
        pinned = self._assignments.get(subject)
        if pinned is not None:
            return pinned
        if len(self._partitions) == 1:
            return next(iter(self._partitions))
        index = bisect.bisect_left(self._points, stable_hash(subject))
        if index == len(self._points):  # wrap past the last point
            index = 0
        return self._owners[index]

    def describe(self, name: str) -> Dict[str, Any]:
        """Ring facts about partition *name* for health/status reporting.

        ``coverage`` is the fraction of the 32-bit hash ring the partition's
        points own (the "subject ranges owned" a fleet scheduler balances
        on); ``pinned`` lists subjects explicitly assigned to it.
        """
        if name not in self._partitions:
            raise ServiceError(f"unknown partition {name!r}")
        owned = 0
        for index, point in enumerate(self._points):
            if self._owners[index] != name:
                continue
            previous = self._points[index - 1] if index else self._points[-1] - _RING_SPAN
            owned += point - previous
        if len(self._partitions) == 1:
            owned = _RING_SPAN
        return {
            "address": self._partitions[name],
            "virtual_nodes": self._virtual_nodes,
            "coverage": round(owned / _RING_SPAN, 6),
            "pinned": sorted(
                subject for subject, pin in self._assignments.items() if pin == name
            ),
        }

    # ------------------------------------------------------------------ #
    # Successor maps
    # ------------------------------------------------------------------ #
    def with_assignment(self, subject: str, partition: str) -> "PartitionMap":
        """A successor map (version + 1) pinning *subject* to *partition*."""
        if partition not in self._partitions:
            raise ServiceError(f"cannot pin {subject!r} to unknown partition {partition!r}")
        assignments = dict(self._assignments)
        assignments[subject_name(subject)] = partition
        return PartitionMap(
            self._partitions,
            version=self._version + 1,
            virtual_nodes=self._virtual_nodes,
            assignments=assignments,
        )

    def with_partitions(self, partitions: Dict[str, str]) -> "PartitionMap":
        """A successor map (version + 1) over a different partition set.

        Pins whose partition survives are kept; pins to departed partitions
        are dropped (those subjects fall back to the ring).
        """
        kept = {
            subject: name
            for subject, name in self._assignments.items()
            if name in partitions
        }
        return PartitionMap(
            partitions,
            version=self._version + 1,
            virtual_nodes=self._virtual_nodes,
            assignments=kept,
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_wire(self) -> Dict[str, Any]:
        """The JSON-ready form carried in health documents and map files."""
        return {
            "version": self._version,
            "virtual_nodes": self._virtual_nodes,
            "partitions": dict(self._partitions),
            "assignments": dict(self._assignments),
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "PartitionMap":
        """Rebuild (and re-validate) a map from :meth:`to_wire` output."""
        if not isinstance(payload, dict):
            raise ServiceError(f"a partition map document must be an object, got {payload!r}")
        try:
            return cls(
                payload["partitions"],
                version=payload.get("version", 1),
                virtual_nodes=payload.get("virtual_nodes", DEFAULT_VIRTUAL_NODES),
                assignments=payload.get("assignments") or {},
            )
        except KeyError as exc:
            raise ServiceError(f"partition map document misses {exc.args[0]!r}") from None

    def save(self, path: str) -> None:
        """Write the map as a JSON file (the ``--map`` CLI artifact)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_wire(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "PartitionMap":
        """Read a map file written by :meth:`save`."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ServiceError(f"cannot load partition map from {path!r}: {exc}") from exc
        return cls.from_wire(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionMap(v{self._version}, partitions={sorted(self._partitions)}, "
            f"pins={len(self._assignments)})"
        )


class _ReadWriteLock:
    """Many concurrent routed requests, one exclusive resharder.

    Writer-preferring would risk starving decisions during a long handoff;
    this lock is deliberately simple: the writer waits for in-flight reads
    to drain, new reads wait while a write holds or waits is *not* enforced
    (no writer starvation in practice — reshards are rare and reads are
    milliseconds).
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextmanager
    def read(self):
        with self._condition:
            while self._writing:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if not self._readers:
                    self._condition.notify_all()

    @contextmanager
    def write(self):
        with self._condition:
            while self._writing or self._readers:
                self._condition.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._condition:
                self._writing = False
                self._condition.notify_all()


class FabricRouter:
    """Routes the service protocol across a :class:`PartitionMap`'s fleet.

    Raw methods (``*_raw``) move wire-form payloads between the caller and
    the partitions without decode/re-encode round trips — they are what the
    standalone :class:`RouterServer` and the conformance harness use; the
    typed methods mirror :class:`~repro.service.client.ServiceClient`'s API
    for embedded client-side use.
    """

    def __init__(
        self,
        partition_map: PartitionMap,
        *,
        pool_size: int = 4,
        timeout: Optional[float] = 30.0,
        wire: str = "json",
        auth_token: Optional[str] = None,
    ) -> None:
        self._pool_size = pool_size
        self._timeout = timeout
        #: the framing the router *offers* its partitions.  ``"binary"``
        #: negotiates per partition connection — a JSON-only partition falls
        #: back transparently, so mixed fleets work during a rollout.
        self._wire = wire
        #: shared secret stamped onto every partition call, for fleets whose
        #: servers run with ``--auth-token``.
        self._auth_token = auth_token
        self._map = partition_map
        self._pools: Dict[str, ConnectionPool] = {}
        for name in partition_map.names:
            host, port = partition_map.address(name)
            self._pools[name] = ConnectionPool(
                host, port, size=pool_size, timeout=timeout, wire=wire, auth_token=auth_token
            )
        self._lock = _ReadWriteLock()
        # The router's metrics registry: the same single source of truth
        # `health`, the `metrics` op and the Prometheus endpoint read.
        registry = telemetry.MetricsRegistry()
        self._registry = registry
        self._counters = {
            "routed": registry.counter("repro_router_routed_total"),
            "fan_outs": registry.counter("repro_router_fan_outs_total"),
            "reshards": registry.counter("repro_router_reshards_total"),
            "subjects_moved": registry.counter("repro_router_subjects_moved_total"),
        }
        registry.gauge("repro_router_map_version", fn=lambda: self._map.version)
        registry.gauge("repro_router_partitions", fn=lambda: len(self._map.names))

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    @property
    def partition_map(self) -> PartitionMap:
        """The currently installed map."""
        return self._map

    @property
    def metrics(self) -> telemetry.MetricsRegistry:
        """The router's metrics registry."""
        return self._registry

    def _bump(self, key: str, amount: int = 1) -> None:
        self._counters[key].inc(amount)

    def _call(self, name: str, op: str, **payload: Any) -> Any:
        pool = self._pools.get(name)
        if pool is None:
            raise ServiceError(f"no connection pool for partition {name!r}")
        trace = telemetry.active_trace()
        if trace is not None:
            # Forward the trace context: the partition's spans (op dispatch,
            # cache outcome, pipeline stages) come back in its response
            # envelope, and the client grafts them under this call span —
            # one connected tree across the process boundary.
            with telemetry.trace_span("router.call", partition=name, op=op) as span:
                payload.setdefault("tctx", trace.tctx(span.span_id))
                with pool.lease() as client:
                    return client.call(op, **payload)
        with pool.lease() as client:
            return client.call(op, **payload)

    def _fan_out(self, names: Sequence[str], call: Callable[[str], Any]) -> Dict[str, Any]:
        """Run *call* against every named partition concurrently.

        One thread per partition (fleets are small); the first failure, in
        deterministic name order, is re-raised after every thread joined —
        a scatter never leaks a half-finished worker.
        """
        names = list(names)
        if len(names) == 1:
            return {names[0]: call(names[0])}
        self._bump("fan_outs")
        results: Dict[str, Any] = {}
        failures: Dict[str, BaseException] = {}
        # The scatter span: worker threads re-activate the caller's trace
        # (thread-local state does not follow a Thread) and parent their
        # per-partition call spans to this span, so the gathered tree shows
        # the fan-out as one node with N concurrent children.
        trace = telemetry.active_trace()
        with telemetry.trace_span("router.fan_out", partitions=len(names)) as fan_span:
            parent_id = fan_span.span_id if trace is not None else None

            def run(name: str) -> None:
                try:
                    if trace is not None:
                        with telemetry.activated(trace, parent_id):
                            results[name] = call(name)
                    else:
                        results[name] = call(name)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failures[name] = exc

            threads = [
                threading.Thread(
                    target=run, args=(name,), name=f"ltam-fabric-{name}", daemon=True
                )
                for name in names
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if failures:
            raise failures[sorted(failures)[0]]
        return results

    def close(self) -> None:
        """Close every partition pool."""
        for pool in self._pools.values():
            pool.close()

    def __enter__(self) -> "FabricRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Raw routed ops (wire-form in, wire-form out)
    # ------------------------------------------------------------------ #
    def decide_raw(self, request: Dict[str, Any], *, trace: bool = False) -> Dict[str, Any]:
        subject = str(request.get("subject"))
        with self._lock.read():
            self._bump("routed")
            return self._call(self._map.owner(subject), "decide", request=request, trace=trace)

    def enforce_raw(self, request: Dict[str, Any], *, trace: bool = False) -> Dict[str, Any]:
        subject = str(request.get("subject"))
        with self._lock.read():
            self._bump("routed")
            return self._call(self._map.owner(subject), "enforce", request=request, trace=trace)

    def observe_raw(self, record: Sequence[Any]) -> Dict[str, Any]:
        if not isinstance(record, (list, tuple)) or len(record) != 4:
            raise ProtocolError(f"a movement record must be a 4-item array, got {record!r}")
        with self._lock.read():
            self._bump("routed")
            return self._call(self._map.owner(str(record[1])), "observe", record=list(record))

    def decide_many_raw(
        self, requests: Sequence[Dict[str, Any]], *, trace: bool = False
    ) -> List[Dict[str, Any]]:
        """Scatter a decision batch by owner; gather into the original order.

        Per-partition sub-batches keep the caller's relative order, so each
        partition's entry-budget accounting sees its subjects' requests in
        sequence exactly as a single server would.
        """
        requests = list(requests)
        if not requests:
            return []
        with self._lock.read():
            owner_of = self._map.owner
            buckets: Dict[str, List[int]] = {}
            for index, request in enumerate(requests):
                buckets.setdefault(owner_of(str(request.get("subject"))), []).append(index)
            self._bump("routed")
            results = self._fan_out(
                sorted(buckets),
                lambda name: self._call(
                    name,
                    "decide_many",
                    requests=[requests[index] for index in buckets[name]],
                    trace=trace,
                ),
            )
        merged: List[Optional[Dict[str, Any]]] = [None] * len(requests)
        for name, indices in buckets.items():
            decisions = results[name].get("decisions", ())
            if len(decisions) != len(indices):
                raise ServiceError(
                    f"partition {name!r} answered {len(decisions)} decision(s) "
                    f"for {len(indices)} request(s)"
                )
            for index, decision in zip(indices, decisions):
                merged[index] = decision
        return merged  # type: ignore[return-value]

    def observe_batch_raw(
        self,
        records: Sequence[Sequence[Any]],
        *,
        mode: str = "monitor",
        wait: bool = False,
    ) -> Dict[str, Any]:
        """Scatter an ingest batch by owner, preserving per-partition order.

        The merged receipt sums the per-partition counters and keeps each
        partition's receipt under ``"partitions"``.
        """
        records = list(records)
        with self._lock.read():
            owner_of = self._map.owner
            buckets: Dict[str, List[Sequence[Any]]] = {}
            for record in records:
                if not isinstance(record, (list, tuple)) or len(record) != 4:
                    raise ProtocolError(
                        f"a movement record must be a 4-item array, got {record!r}"
                    )
                buckets.setdefault(owner_of(str(record[1])), []).append(list(record))
            if wait and not records:
                # A pure flush barrier must reach every partition, not none.
                for name in self._map.names:
                    buckets.setdefault(name, [])
            if not buckets:
                return {"accepted": 0, "submitted": 0, "written": 0, "dropped": 0,
                        "checkpoints": 0, "partitions": {}}
            self._bump("routed")
            receipts = self._fan_out(
                sorted(buckets),
                lambda name: self._call(
                    name, "observe_batch", records=buckets[name], mode=mode, wait=wait
                ),
            )
        merged: Dict[str, Any] = {"partitions": receipts}
        for key in ("accepted", "submitted", "written", "dropped", "checkpoints"):
            merged[key] = sum(int(receipt.get(key, 0)) for receipt in receipts.values())
        return merged

    def query_raw(self, text: str) -> Dict[str, Any]:
        """Evaluate a query statement across the fabric.

        Subject-scoped statements go to the subject's owner.  ``WHO IS IN``
        fans out and merges the disjoint occupant sets sorted — identical
        to a single server's answer.  Global ``VIOLATIONS`` fans out and
        merges on the full row tuple (a canonical order; a single server
        reports sink order, which coincides for time-distinct alerts).
        Layout-only statements (``ROUTE`` without ``FOR``) go to the first
        partition — every partition holds the full layout.
        """
        node = parse(text)
        with self._lock.read():
            subject = getattr(node, "subject", None)
            self._bump("routed")
            if subject is not None:
                return self._call(self._map.owner(subject), "query", text=text)
            if isinstance(node, WhoIsInQuery):
                results = self._fan_out(
                    self._map.names, lambda name: self._call(name, "query", text=text)
                )
                rows = sorted(
                    tuple(row) for result in results.values() for row in result.get("rows", ())
                )
                return {
                    "kind": "who_is_in",
                    "columns": ["subject"],
                    "rows": [list(row) for row in rows],
                    "scalar": None,
                }
            if isinstance(node, ViolationsQuery):
                results = self._fan_out(
                    self._map.names, lambda name: self._call(name, "query", text=text)
                )
                columns: List[str] = []
                rows = []
                for name in sorted(results):
                    result = results[name]
                    columns = columns or list(result.get("columns", ()))
                    rows.extend(tuple(row) for row in result.get("rows", ()))
                rows.sort()
                return {
                    "kind": "violations",
                    "columns": columns,
                    "rows": [list(row) for row in rows],
                    "scalar": None,
                }
            if isinstance(node, RouteQuery):
                # Layout-only: deterministic single partition.
                return self._call(self._map.names[0], "query", text=text)
            raise ServiceError(
                f"the router cannot answer {type(node).__name__} without a subject"
            )

    def checkpoint_raw(
        self, *, compact: bool = True, retain: Optional[int] = None
    ) -> Dict[str, Any]:
        """Checkpoint every partition; the merged receipt sums the counters."""
        with self._lock.read():
            self._bump("routed")
            receipts = self._fan_out(
                self._map.names,
                lambda name: self._call(name, "checkpoint", compact=compact, retain=retain),
            )
        merged: Dict[str, Any] = {"partitions": receipts}
        for key in ("position", "archived", "subjects_inside", "pairs"):
            merged[key] = sum(int(receipt.get(key, 0)) for receipt in receipts.values())
        return merged

    def sync_raw(self) -> Dict[str, Any]:
        """The coherence barrier, fanned out to every partition — twice.

        One round only proves each partition drained the *hub's* backlog as
        of the moment its own ping was sequenced; a peer's occupancy publish
        flushed by that same round may still be in flight toward everyone
        else.  The first round therefore flushes every partition's pending
        publishes onto the hub (a partition's publishes are FIFO-ordered
        ahead of its ping, so its pong proves they were sequenced); the
        second round replays the hub's now-complete log to every partition.
        After both rounds, every capacity ledger holds every peer's latest
        occupancy vector — which is why callers treat ``sync`` as the
        fabric-wide capacity convergence point.
        """
        with self._lock.read():
            self._bump("routed")
            receipts = self._two_phase_sync(self._map.names)
        return {
            "partitions": receipts,
            "applied": sum(int(receipt.get("applied", 0)) for receipt in receipts.values()),
        }

    def _two_phase_sync(self, names: Sequence[str]) -> Dict[str, Any]:
        """Run the flush round then the delivery round; return round-two
        receipts (the ones that observed the fully-sequenced log).

        Callers must hold the map lock (read or write).
        """
        self._fan_out(names, lambda name: self._call(name, "sync"))
        return self._fan_out(names, lambda name: self._call(name, "sync"))

    def health(self) -> Dict[str, Any]:
        """The fabric health document: the map plus per-partition health.

        A partition that cannot be reached degrades the fabric status
        instead of failing the call — a fleet scheduler needs the surviving
        partitions' view most exactly when one is down.
        """
        with self._lock.read():
            current = self._map

            def probe(name: str) -> Dict[str, Any]:
                try:
                    return self._call(name, "health")
                except Exception as exc:  # noqa: BLE001 - reported, not raised
                    return {"status": "unreachable", "error": str(exc)}

            partitions = self._fan_out(current.names, probe)
        healthy = all(report.get("status") == "ok" for report in partitions.values())
        stats = {key: counter.value for key, counter in self._counters.items()}
        report = {
            "status": "ok" if healthy else "degraded",
            "role": "router",
            "map": {
                "version": current.version,
                "partitions": {name: current.describe(name) for name in current.names},
            },
            "partitions": partitions,
            "stats": stats,
        }
        ledger = self._ledger_verdict(partitions)
        if ledger is not None:
            report["ledger"] = ledger
        return report

    @staticmethod
    def _ledger_verdict(partitions: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Fold per-partition ``ledger`` health sections into one verdict.

        The fabric is *converged* when every partition's replicated copy of
        every peer's occupancy vector matches that peer's own local vector
        (both zero-pruned).  Returns ``{"enabled": False}`` when no
        partition runs a ledger, ``None`` when a partition is unreachable
        (no verdict is honest then).
        """
        sections: Dict[str, Dict[str, Any]] = {}
        origins: Dict[str, str] = {}
        for name, health in partitions.items():
            if not isinstance(health, dict) or health.get("status") == "unreachable":
                return None
            section = health.get("ledger")
            if not isinstance(section, dict):
                continue
            sections[name] = section
            coherence = health.get("coherence") or {}
            origins[name] = str(coherence.get("replica") or name)
        if not sections:
            return {"enabled": False}
        if len(sections) != len(partitions):
            # A mixed fleet (some partitions without a ledger) cannot
            # enforce capacity globally — say so rather than half-agree.
            return {"enabled": False}

        def pruned(vector: Any) -> Dict[str, int]:
            if not isinstance(vector, dict):
                return {}
            return {str(k): int(v) for k, v in vector.items() if v}

        converged = True
        locations: set = set()
        for name, section in sections.items():
            local = pruned(section.get("local"))
            locations.update(local)
            for peer, peer_section in sections.items():
                if peer == name:
                    continue
                remote = peer_section.get("remote") or {}
                if pruned(remote.get(origins[name])) != local:
                    converged = False
        return {
            "enabled": True,
            "converged": converged,
            "locations": len(locations),
        }

    def metrics_raw(self) -> Dict[str, Any]:
        """The fabric's metrics: the router's own registry plus every
        partition's ``metrics`` answer (``repro top``'s one-call view).

        An unreachable partition reports an ``error`` entry instead of
        failing the scrape — exactly like :meth:`health`'s degraded
        tolerance, and for the same reason.
        """
        with self._lock.read():
            current = self._map

            def probe(name: str) -> Dict[str, Any]:
                try:
                    return self._call(name, "metrics")
                except Exception as exc:  # noqa: BLE001 - reported, not raised
                    return {"error": str(exc)}

            partitions = self._fan_out(current.names, probe)
        data = self._registry.collect()
        data["identity"] = {"role": "router"}
        return {"router": data, "partitions": partitions}

    def dispatch(self, message: Dict[str, Any]) -> Any:
        """Serve one decoded protocol envelope (the :class:`RouterServer` body)."""
        op = message.get("op")
        if op == "decide":
            return self.decide_raw(
                message.get("request") or {}, trace=message.get("trace", False)
            )
        if op == "decide_many":
            return {
                "decisions": self.decide_many_raw(
                    list(message.get("requests", ())), trace=message.get("trace", False)
                )
            }
        if op == "enforce":
            return self.enforce_raw(
                message.get("request") or {}, trace=message.get("trace", False)
            )
        if op == "observe":
            return self.observe_raw(message.get("record") or ())
        if op == "observe_batch":
            return self.observe_batch_raw(
                list(message.get("records", ())),
                mode=message.get("mode", "monitor"),
                wait=bool(message.get("wait", False)),
            )
        if op == "query":
            return self.query_raw(str(message.get("text", "")))
        if op == "checkpoint":
            return self.checkpoint_raw(
                compact=message.get("compact", True), retain=message.get("retain")
            )
        if op == "sync":
            return self.sync_raw()
        if op == "health":
            return self.health()
        if op == "metrics":
            return self.metrics_raw()
        if op == "reshard":
            # Live migration driven remotely: the new map arrives in wire
            # form and is re-validated before any subject moves.
            return self.reshard(PartitionMap.from_wire(message.get("map") or {}))
        raise ProtocolError(f"the router does not route op {op!r}")

    # ------------------------------------------------------------------ #
    # Typed client-side API
    # ------------------------------------------------------------------ #
    def decide(self, request: RequestLike, *, trace: bool = False) -> Decision:
        """Routed :meth:`~repro.service.client.ServiceClient.decide`."""
        request = _coerce_request(request)
        payload = self.decide_raw(request_to_dict(request), trace=trace)
        return decision_from_dict(payload, request=request)

    def decide_many(
        self, requests: Iterable[RequestLike], *, trace: bool = False
    ) -> List[Decision]:
        """Scatter-gathered ``decide_many``; results in the caller's order."""
        coerced = [_coerce_request(request) for request in requests]
        payload = self.decide_many_raw(
            [request_to_dict(request) for request in coerced], trace=trace
        )
        return [
            decision_from_dict(item, request=request)
            for item, request in zip(payload, coerced)
        ]

    def enforce(self, request: RequestLike, *, trace: bool = False) -> Decision:
        """Routed ``enforce`` (audited on the owning partition)."""
        request = _coerce_request(request)
        payload = self.enforce_raw(request_to_dict(request), trace=trace)
        return decision_from_dict(payload.get("decision"), request=request)

    @staticmethod
    def _record_wire(record: Any) -> List[Any]:
        """Accept a :class:`MovementRecord` or a bare 4-sequence."""
        if isinstance(record, MovementRecord):
            return record_to_wire(record)
        if isinstance(record, (list, tuple)) and len(record) == 4:
            time, subject, location, kind = record
            return [time, subject, location, getattr(kind, "value", kind)]
        raise ProtocolError(
            f"a movement record must be a MovementRecord or 4-item sequence, got {record!r}"
        )

    def observe(self, record: Any) -> List[Alert]:
        """Routed single observation; returns the owning partition's alerts."""
        payload = self.observe_raw(self._record_wire(record))
        return [alert_from_dict(item) for item in payload.get("alerts", ())]

    def observe_batch(
        self,
        records: Sequence[Any],
        *,
        mode: str = "monitor",
        wait: bool = False,
    ) -> Dict[str, Any]:
        """Scatter-gathered ingest; returns the merged receipt."""
        return self.observe_batch_raw(
            [self._record_wire(record) for record in records], mode=mode, wait=wait
        )

    def query(self, text: str) -> QueryResult:
        """Routed/fan-out query evaluation (see :meth:`query_raw`)."""
        return query_result_from_dict(self.query_raw(text))

    def checkpoint(self, *, compact: bool = True, retain: Optional[int] = None) -> Dict[str, Any]:
        """Checkpoint the whole fabric (see :meth:`checkpoint_raw`)."""
        return self.checkpoint_raw(compact=compact, retain=retain)

    def sync(self) -> Dict[str, Any]:
        """Coherence barrier across every partition (see :meth:`sync_raw`)."""
        return self.sync_raw()

    # ------------------------------------------------------------------ #
    # Live migration
    # ------------------------------------------------------------------ #
    def reshard(self, new_map: PartitionMap) -> Dict[str, Any]:
        """Install *new_map*, migrating exactly the remapped subjects.

        Holds the map exclusively (in-flight routed requests drain first;
        new ones wait), then per remapped subject group:

        1. ``export_subjects`` on the source — a flush barrier server-side,
           so the bundle holds every record any client ever landed;
        2. ``import_archive`` on the destination — the archived slice plus
           the subjects' alert history;
        3. the live-log slice ships through ``observe_batch`` in ``record``
           mode (landing like native ingest, no re-raised alerts), waited;
        4. ``forget_subjects`` on the source — records, projection state,
           alerts and cached decisions for the touched locations all go;
        5. ``sync`` on the destination — the PR 5 cutover barrier: its
           projection and cache reflect the import before any request is
           routed by the new map.

        A failure mid-handoff raises with the old map still installed; the
        step order never loses state (the source forgets only after the
        destination confirmed the import and the live replay).
        """
        with self._lock.write():
            current = self._map
            if new_map.version <= current.version:
                raise ServiceError(
                    f"reshard needs a newer map: held v{current.version}, "
                    f"offered v{new_map.version}"
                )
            for name in new_map.names:
                if name not in self._pools:
                    host, port = new_map.address(name)
                    self._pools[name] = ConnectionPool(
                        host,
                        port,
                        size=self._pool_size,
                        timeout=self._timeout,
                        wire=self._wire,
                        auth_token=self._auth_token,
                    )
            # Plan: every subject a partition holds whose new owner differs.
            moves: Dict[Tuple[str, str], List[str]] = {}
            for name in current.names:
                held = self._call(name, "list_subjects").get("subjects", ())
                for subject in held:
                    target = new_map.owner(subject)
                    if target != name:
                        moves.setdefault((name, target), []).append(subject)
            moved: List[str] = []
            for (source, target), subjects in sorted(moves.items()):
                bundle = self._call(source, "export_subjects", subjects=subjects)
                self._call(
                    target,
                    "import_archive",
                    records=bundle.get("archived", ()),
                    alerts=bundle.get("alerts", ()),
                    sessions=bundle.get("sessions", ()),
                    archived_through=bundle.get("archived_through"),
                )
                live = bundle.get("live", ())
                if live:
                    self._call(
                        target, "observe_batch", records=list(live), mode="record", wait=True
                    )
                self._call(source, "forget_subjects", subjects=subjects)
                self._call(target, "sync")
                moved.extend(subjects)
            self._map = new_map
            for name in list(self._pools):
                if name not in new_map.partitions:
                    self._pools.pop(name).close()
            # Reconcile the capacity ledgers before the new map serves: the
            # handoff republished occupancy on both sides of every move
            # (forget on the source, import on the target), and the
            # two-phase barrier delivers those vectors fleet-wide so a
            # moved subject's stay is counted exactly once.
            self._two_phase_sync(new_map.names)
            self._bump("reshards")
            self._bump("subjects_moved", len(moved))
            return {
                "version": new_map.version,
                "moved": len(moved),
                "subjects": sorted(moved),
                "transfers": {
                    f"{source}->{target}": len(subjects)
                    for (source, target), subjects in sorted(moves.items())
                },
            }


class RouterServer(AsyncServiceHost):
    """A standalone ``repro route`` process: the router behind a socket.

    Speaks the same negotiated protocol as :class:`~repro.service.server
    .LtamServer`, through the same frame loop
    (:class:`~repro.service.runtime.AsyncServiceHost`) — NDJSON until a
    client's ``hello`` upgrades its connection to the binary framing — so
    an unmodified :class:`~repro.service.client.ServiceClient` (or pool, or
    remote PDP/PEP facade) pointed at the router sees one logical server
    whose capacity happens to be a fleet.  The client-facing framing and
    the router→partition framing are independent: each partition pool
    negotiates its own (see :class:`FabricRouter`'s ``wire``).  Every routed
    op does blocking socket I/O toward the partitions, so all of them run
    in the default executor; only the connection-level ``hello`` (and the
    typed refusal of an op the router does not route) is answered on the
    loop thread.
    """

    _what = "the router"
    _thread_name = "ltam-router"
    _span_name = "router.op"

    #: every op the router forwards to its partitions.
    _BLOCKING_OPS = frozenset(
        {
            "decide",
            "decide_many",
            "enforce",
            "observe",
            "observe_batch",
            "query",
            "checkpoint",
            "sync",
            "health",
            "metrics",
            "reshard",
        }
    )

    def __init__(
        self,
        router: FabricRouter,
        host: str = "127.0.0.1",
        port: int = DEFAULT_ROUTER_PORT,
        *,
        frame_limit: int = DEFAULT_FRAME_LIMIT,
        wire_format: str = wireformat.BINARY,
        max_connections: Optional[int] = None,
        slow_request_ms: Optional[float] = None,
        auth_token: Optional[str] = None,
    ) -> None:
        super().__init__(
            host,
            port,
            frame_limit=frame_limit,
            max_connections=max_connections,
            registry=router.metrics,
            ops=("hello", *sorted(self._BLOCKING_OPS)),
            wire_format=wire_format,
            auth_token=auth_token,
            slow_request_ms=slow_request_ms,
        )
        self._router = router

    @property
    def router(self) -> FabricRouter:
        """The routing core this process serves."""
        return self._router

    def dispatch(self, connection: ServiceConnection, message: Dict[str, Any]) -> Any:
        return self._router.dispatch(message)
