"""The replica invalidation bus: cache coherence across server replicas.

PR 4's :class:`~repro.service.cache.DecisionCache` invalidates from
**in-process** mutation notifications.  Run several
:class:`~repro.service.server.LtamServer` replicas over one SQLite file and
that breaks silently: replica A's observes evict A's cache but leave B's
untouched, so B keeps serving decisions computed from a world that no longer
exists.  This module makes the replicated topology safe:

* :class:`InvalidationBus` — a tiny stdlib-asyncio hub speaking the same
  newline-delimited JSON framing as the server.  Replicas connect, publish
  invalidation events (serialized
  :class:`~repro.storage.movement_db.MovementNotice` batches and admin
  mutations), and receive every event back stamped with a **monotonic bus
  sequence number**.  A bounded replay buffer lets a replica that detected a
  frame gap request exactly the frames it missed; when the buffer cannot
  reach back far enough the hub says so and the replica falls back to a full
  resync.
* :class:`BusLink` — one replica's blocking connection to the hub: a reader
  thread applying events in sequence order, gap detection (``seq`` fencing),
  replay requests, automatic reconnect, and re-publication of events that
  raced a dead connection.
* :class:`ReplicaCoherence` — the glue an :class:`LtamServer` (or embedded
  engine) attaches: it publishes the local movement store's mutation notices
  and the cache's administrative invalidation to the bus, and applies remote
  events by evicting the local :class:`DecisionCache` **and** calling
  :meth:`~repro.storage.movement_db.MovementDatabase.pickup` so the local
  projection follows the shared SQLite file.

Coherence guarantees (and their limits)
---------------------------------------

The design leans on one invariant: **pickup evicts everything it applies**.
Every foreign row folded into the local projection flows through the normal
mutation-notification path, evicting its affected locations and bumping
their invalidation generations — so a cached entry is never *older* than the
local projection, and the projection converges to the shared log.  On top of
that invariant:

* bus events make eviction *prompt* (one event round-trip instead of the
  next sync tick);
* generation fencing makes eviction *race-free per replica*: a decide that
  captured its token before a bus eviction landed can never store its stale
  result afterwards (same mechanism that fences in-process races);
* gap/reconnect recovery makes lost frames *safe*: a replica that missed
  frames replays them from the hub's buffer, or — when the buffer cannot
  cover, or after a reconnect — performs a full resync: ``pickup()`` to the
  file's high water plus a cache clear (admin events are not reconstructible
  from the movement log, so the clear over-evicts on purpose).

Between a writer's commit and the receiving replica's pickup there is a
**coherence window** during which the receiver may still serve
pre-mutation decisions — replicated serving is eventually coherent, not
linearizable.  :meth:`ReplicaCoherence.sync` is the barrier that closes the
window on demand (the ``sync`` wire op exposes it remotely), and a periodic
sync tick bounds it even when every bus frame is lost: coherence degrades to
correctness, never to unbounded staleness.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import socket
import threading
import time
from collections import Counter, deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.storage.movement_db import MovementNotice
from repro.service.errors import ProtocolError, ServiceError
from repro.service.runtime import AsyncServiceHost
from repro.service.telemetry import trace_event

__all__ = [
    "DEFAULT_BUS_PORT",
    "InvalidationBus",
    "BusLink",
    "CoherentDecisionCache",
    "ReplicaCoherence",
    "resolve_bus_address",
]

#: Default bus port: one above the service's default.
DEFAULT_BUS_PORT = 7472

#: How many broadcast frames the hub keeps for gap replay.
DEFAULT_REPLAY_BUFFER = 4096

#: Maximum bus frame size (bytes) — matches the service's frame limit.
DEFAULT_FRAME_LIMIT = 1 << 24

#: Notices per published movement event: one giant ingest batch becomes a
#: run of bounded frames instead of one frame the transports choke on.
PUBLISH_CHUNK = 1024

#: Per-peer write-buffer cap (bytes) on the hub.  The broadcast path never
#: awaits drain (one stalled replica must not slow the fleet), so a peer
#: whose buffer backs up past this stops receiving frames instead of
#: growing the hub's memory — its own gap detection replays the missed
#: range once it catches up.
PEER_BUFFER_LIMIT = 4 << 20

#: Default interval (seconds) of the coherence layer's background sync tick.
DEFAULT_SYNC_INTERVAL = 0.25


def resolve_bus_address(value: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """Normalize a ``(host, port)`` tuple or a ``"host:port"`` string."""
    if isinstance(value, tuple) and len(value) == 2:
        return (str(value[0]), int(value[1]))
    if isinstance(value, str):
        host, _, port = value.rpartition(":")
        if host and port.isdigit():
            return (host, int(port))
        if value.isdigit():  # bare port: localhost
            return ("127.0.0.1", int(value))
    raise ProtocolError(
        f"cannot interpret {value!r} as a bus address; expected (host, port) or 'host:port'"
    )


def _encode(message: Dict[str, Any]) -> bytes:
    return json.dumps(message, separators=(",", ":"), ensure_ascii=False).encode("utf-8") + b"\n"


class _BusPeer:
    """One connected replica, as the hub sees it."""

    __slots__ = ("writer", "replica", "authed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.replica: Optional[str] = None
        self.authed = False


class InvalidationBus(AsyncServiceHost):
    """The invalidation hub: seq-stamped fan-out with a bounded replay buffer.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    replay_buffer:
        How many broadcast frames to keep for gap replay; a replica whose
        gap reaches further back is told to perform a full resync instead.
    drop:
        Optional testing hook ``(replica_id, seq) -> bool``; returning
        ``True`` makes the hub *not* deliver that frame to that replica
        (the seq still advances, so the replica later detects the gap).
        This is how the chaos suite injects frame loss.
    max_connections:
        Per-listener cap on concurrently attached replicas; an over-cap
        connection is told ``busy`` (a typed refusal frame) and closed —
        its :class:`BusLink` backs off and retries.  ``None`` (default) is
        uncapped.
    auth_token:
        Optional shared secret.  When set, a replica's hello must carry the
        matching ``auth`` field or the hub answers a typed
        ``ServiceAuthError`` refusal frame and closes the connection;
        publish/ping frames from a connection that never authenticated are
        ignored.  ``None`` (default) accepts everyone.

    One replica typically hosts the bus in-process (``repro serve --bus``);
    the hub carries no authorization state, so losing it only widens the
    coherence window until it is back — the replicas' periodic sync keeps
    correctness in the meantime.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        replay_buffer: int = DEFAULT_REPLAY_BUFFER,
        drop=None,
        max_connections: Optional[int] = None,
        auth_token: Optional[str] = None,
    ) -> None:
        if replay_buffer < 1:
            raise ServiceError(f"replay buffer must be positive, got {replay_buffer!r}")
        super().__init__(
            host,
            port,
            frame_limit=DEFAULT_FRAME_LIMIT,
            max_connections=max_connections,
            auth_token=auth_token,
        )
        self._drop = drop
        self._seq = 0
        self._buffer: "deque[Tuple[int, Optional[str], List[Dict[str, Any]]]]" = deque(
            maxlen=replay_buffer
        )
        self._peers: List[_BusPeer] = []
        self._state_lock = threading.Lock()
        self._stats = {
            "published": 0,
            "delivered": 0,
            "dropped": 0,
            "replayed": 0,
            "resyncs": 0,
            "auth_refusals": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle: the shared AsyncServiceHost thread/loop shape.
    # ------------------------------------------------------------------ #
    _what = "the invalidation bus"
    _thread_name = "ltam-bus"

    @property
    def seq(self) -> int:
        """The newest sequence number the hub has assigned."""
        with self._state_lock:
            return self._seq

    @property
    def stats(self) -> Dict[str, int]:
        """Counters: published, delivered, dropped, replayed, resyncs,
        auth_refusals."""
        with self._state_lock:
            return dict(self._stats)

    # ------------------------------------------------------------------ #
    # Peer handling
    # ------------------------------------------------------------------ #
    async def _refuse_busy(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # The typed refusal on the bus's own framing: a BusLink that reads
        # it counts the refusal and falls into its reconnect backoff
        # instead of treating the close as a hub crash.
        writer.write(
            _encode(
                {
                    "busy": True,
                    "error": {
                        "type": "ServiceBusyError",
                        "message": (
                            f"the invalidation bus is at its connection cap "
                            f"({self._max_connections}); retry later"
                        ),
                    },
                }
            )
        )
        await writer.drain()

    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        peer = _BusPeer(writer)
        with self._state_lock:
            self._peers.append(peer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    break  # over-limit frame: the stream is beyond repair
                if not line:
                    break
                try:
                    message = json.loads(line)
                except ValueError:
                    break  # a desynchronized peer cannot be trusted further
                if not isinstance(message, dict):
                    break
                op = message.get("op")
                if op == "hello":
                    if not self._on_hello(peer, message):
                        await writer.drain()
                        break  # typed auth refusal written; drop the peer
                elif op == "publish":
                    self._on_publish(peer, message)
                elif op == "ping":
                    self._on_ping(peer, message)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            with self._state_lock:
                if peer in self._peers:
                    self._peers.remove(peer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # Loop shutdown cancels peer tasks mid-close; ending cleanly
                # keeps asyncio's stream callback from logging the cancel.
                pass

    def _replay_to(self, peer: _BusPeer, last_seen: int) -> None:
        """Write the buffered frames past *last_seen*, or a full-resync order.

        Called with the state lock held.  The oldest buffered frame bounds
        how far back a gap can be healed frame-by-frame; anything older
        forces ``{"resync": seq}`` — the replica then pickups to the shared
        store's high water and clears its cache.
        """
        if last_seen >= self._seq:
            return
        oldest_covered = self._buffer[0][0] if self._buffer else self._seq + 1
        if last_seen + 1 < oldest_covered:
            peer.writer.write(_encode({"resync": self._seq}))
            self._stats["resyncs"] += 1
            return
        # No backpressure truncation here, deliberately: the pong that
        # follows a replay is the barrier's proof that everything up to it
        # was delivered, so a partial replay would make sync() lie.  The
        # write is bounded by the replay buffer's size, and a peer that
        # pinged is alive and draining (the unbounded-growth concern is the
        # broadcast path to a stalled peer, which keeps its guard).
        for seq, origin, events in self._buffer:
            if seq > last_seen:
                peer.writer.write(_encode({"seq": seq, "origin": origin, "events": events}))
                self._stats["replayed"] += 1

    def _on_hello(self, peer: _BusPeer, message: Dict[str, Any]) -> bool:
        with self._state_lock:
            if self._auth_token is not None and message.get("auth") != self._auth_token:
                # The typed refusal mirrors the busy frame's shape so a
                # BusLink can tell "you may not" from "not right now".
                self._stats["auth_refusals"] += 1
                peer.writer.write(
                    _encode(
                        {
                            "denied": True,
                            "error": {
                                "type": "ServiceAuthError",
                                "message": (
                                    "the invalidation bus requires a shared auth "
                                    "token and the hello did not carry it"
                                ),
                            },
                        }
                    )
                )
                return False
            peer.authed = True
            peer.replica = message.get("replica")
            last_seen = message.get("last_seen")
            if isinstance(last_seen, int):
                self._replay_to(peer, last_seen)
            peer.writer.write(_encode({"hello": True, "seq": self._seq}))
        return True

    @staticmethod
    def _peer_backed_up(peer: _BusPeer) -> bool:
        transport = peer.writer.transport
        try:
            return (
                transport is not None
                and transport.get_write_buffer_size() > PEER_BUFFER_LIMIT
            )
        except (AttributeError, RuntimeError):
            return False

    def _on_publish(self, peer: _BusPeer, message: Dict[str, Any]) -> None:
        events = message.get("events")
        if not isinstance(events, list) or not events:
            return
        if self._auth_token is not None and not peer.authed:
            return  # never sequence frames from a connection that skipped hello
        with self._state_lock:
            self._seq += 1
            seq = self._seq
            origin = peer.replica
            self._buffer.append((seq, origin, events))
            self._stats["published"] += 1
            frame = _encode({"seq": seq, "origin": origin, "events": events})
            for other in self._peers:
                if self._drop is not None and self._drop(other.replica, seq):
                    self._stats["dropped"] += 1
                    continue
                if self._peer_backed_up(other):
                    # A stalled replica must not grow the hub's memory; it
                    # will gap-detect and replay once it drains.
                    self._stats["dropped"] += 1
                    continue
                other.writer.write(frame)
                self._stats["delivered"] += 1

    def _on_ping(self, peer: _BusPeer, message: Dict[str, Any]) -> None:
        if self._auth_token is not None and not peer.authed:
            return  # an unauthenticated ping must not read the seq or replay
        with self._state_lock:
            last_seen = message.get("last_seen")
            if isinstance(last_seen, int):
                self._replay_to(peer, last_seen)
            # The echoed id lets the link match this pong to ITS ping —
            # without it, a pong answering an earlier gap-recovery ping
            # could satisfy a sync barrier whose replay had not run yet.
            peer.writer.write(_encode({"pong": self._seq, "id": message.get("id")}))


class BusLink:
    """One replica's connection to the invalidation bus.

    A background reader thread applies incoming frames **in sequence
    order**: an in-order frame is handed to *on_events*; a frame that skips
    ahead is still applied (eviction is idempotent) but triggers a replay
    request for the missed range; a hub answer of ``resync`` — or any
    reconnect — invokes *on_resync* (full recovery).  Publishing is
    thread-safe, and events that raced a dead connection are re-published
    after the next successful hello.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        *,
        replica_id: str,
        on_events,
        on_resync,
        reconnect_delay: float = 0.2,
        timeout: float = 10.0,
        auth_token: Optional[str] = None,
    ) -> None:
        self._address = resolve_bus_address(address)
        self._replica_id = replica_id
        self._auth_token = auth_token
        self._on_events = on_events
        self._on_resync = on_resync
        self._reconnect_delay = reconnect_delay
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._state = threading.Condition()
        self._last_seen = 0
        self._ping_ids = itertools.count(1)
        self._last_pong_id = 0
        self._connected = False
        self._closed = False
        self._unsent: List[List[Dict[str, Any]]] = []
        #: frames queued for the sender thread as (bytes, durable events or
        #: None).  Publishing never touches the socket directly: a stalled
        #: hub blocks only the sender, while publishers — which may hold the
        #: movement store's transaction lock — enqueue and move on.
        self._outbox: "deque[Tuple[bytes, Optional[List[Dict[str, Any]]]]]" = deque()
        self._stats = {
            "received": 0,
            "published": 0,
            "gaps": 0,
            "resyncs": 0,
            "reconnects": 0,
            "busy_refusals": 0,
            "auth_refusals": 0,
        }
        self._thread = threading.Thread(target=self._run, name="ltam-bus-link", daemon=True)
        self._thread.start()
        self._sender = threading.Thread(
            target=self._send_loop, name="ltam-bus-send", daemon=True
        )
        self._sender.start()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def replica_id(self) -> str:
        """This replica's identity on the bus."""
        return self._replica_id

    @property
    def connected(self) -> bool:
        """Whether the link currently holds a live bus connection."""
        with self._state:
            return self._connected

    @property
    def last_seen(self) -> int:
        """The newest in-order bus seq this link has applied."""
        with self._state:
            return self._last_seen

    @property
    def stats(self) -> Dict[str, int]:
        """Counters: received, published, gaps, resyncs, reconnects,
        busy_refusals, auth_refusals."""
        with self._state:
            return dict(self._stats)

    # ------------------------------------------------------------------ #
    # Producer API
    # ------------------------------------------------------------------ #
    #: Cap on event batches buffered across an outage; beyond it the buffer
    #: collapses to one ``clear`` event (bounded memory, over-eviction).
    UNSENT_CAP = 1024

    #: Cap on frames awaiting the sender thread; beyond it (a hub stalled
    #: mid-connection) publishes fail over to the unsent buffer instead.
    OUTBOX_CAP = 8192

    def publish(self, events: Sequence[Dict[str, Any]], *, durable: bool = True) -> bool:
        """Queue *events* for the hub; returns whether they were accepted.

        The actual send happens on the link's sender thread — publishers
        are often inside the movement store's transaction lock (mutation
        listeners), and a blocking send to a stalled hub there would freeze
        the replica's whole write path.

        With ``durable`` (the default), events that cannot be queued (link
        down, outbox full) — or whose send later fails — are buffered and
        re-published after the next reconnect: subscribers get the eviction
        late rather than never.  The buffer is bounded: a sustained outage
        under heavy publishing collapses it into a single ``clear`` event,
        trading the peers' cache contents for bounded memory.  Publishers
        whose events are recoverable by other means (movement notices — the
        peers' pickup() re-derives them from the shared store) pass
        ``durable=False`` and the outage drops them.
        """
        events = list(events)
        if not events:
            return True
        # No-op unless the publisher runs under a traced request (e.g. an
        # observe whose mutation notices fan out) — then the publish shows
        # up in that request's span tree.
        trace_event("bus.publish", events=len(events))
        frame = _encode({"op": "publish", "events": events})
        with self._state:
            if (
                not self._closed
                and self._connected
                and len(self._outbox) < self.OUTBOX_CAP
            ):
                self._outbox.append((frame, events if durable else None))
                self._stats["published"] += 1
                self._state.notify_all()
                return True
        if durable:
            self._buffer_unsent(events)
        return False

    def _buffer_unsent(self, events: List[Dict[str, Any]]) -> None:
        with self._send_lock:
            self._unsent.append(events)
            if len(self._unsent) > self.UNSENT_CAP:
                self._unsent = [[{"kind": "clear"}]]

    def _send_ping(self, last_seen: int, ping_id: int) -> bool:
        frame = _encode({"op": "ping", "last_seen": last_seen, "id": ping_id})
        with self._state:
            if self._closed or not self._connected or len(self._outbox) >= self.OUTBOX_CAP:
                return False
            self._outbox.append((frame, None))
            self._state.notify_all()
        return True

    def _send_loop(self) -> None:
        while True:
            with self._state:
                while not self._outbox and not self._closed:
                    self._state.wait()
                if self._closed:
                    return
                frame, durable_events = self._outbox.popleft()
            with self._send_lock:
                sock = self._sock
            sent = False
            if sock is not None:
                try:
                    sock.sendall(frame)
                    sent = True
                except OSError:
                    pass
            if not sent and durable_events is not None:
                self._buffer_unsent(durable_events)

    def request_sync(self, timeout: float = 5.0) -> bool:
        """Ask the hub to replay anything this link missed; block until done.

        Sends a ping carrying the link's last applied seq; the hub replays
        the missed frames (processed by the reader thread before the pong
        that answers the ping).  Pings carry an id echoed in the pong, so a
        pong answering someone else's earlier ping (a gap-recovery ping the
        reader sent) can never satisfy this barrier before *its* replay
        ran.  Returns ``False`` when the link is down or the pong did not
        arrive in time — the caller should fall back to a full resync.
        """
        with self._state:
            if not self._connected:
                return False
            ping_id = next(self._ping_ids)
            last_seen = self._last_seen
        if not self._send_ping(last_seen, ping_id):
            return False
        deadline = time.monotonic() + timeout
        with self._state:
            while self._last_pong_id < ping_id:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    return False
                self._state.wait(remaining)
        return True

    def close(self) -> None:
        """Stop the reader thread and drop the connection."""
        with self._state:
            self._closed = True
            self._state.notify_all()
        with self._send_lock:
            if self._sock is not None:
                try:
                    # shutdown() (not just close()) wakes the reader thread
                    # blocked in readline() with EOF immediately.
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
        self._thread.join(timeout=5)
        self._sender.join(timeout=5)

    # ------------------------------------------------------------------ #
    # Reader thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        first_attempt = True
        while True:
            with self._state:
                if self._closed:
                    return
                if not first_attempt:
                    self._stats["reconnects"] += 1
            first_attempt = False
            try:
                self._connect_and_read()
            except OSError:
                pass
            with self._state:
                self._connected = False
                self._state.notify_all()
                if self._closed:
                    return
            time.sleep(self._reconnect_delay)

    def _connect_and_read(self) -> None:
        sock = socket.create_connection(self._address, timeout=self._timeout)
        try:
            sock.settimeout(None)
            reader = sock.makefile("rb")
            hello: Dict[str, Any] = {
                "op": "hello",
                "replica": self._replica_id,
                "last_seen": None,
            }
            if self._auth_token is not None:
                hello["auth"] = self._auth_token
            sock.sendall(_encode(hello))
            with self._send_lock:
                self._sock = sock
            hello_seen = False
            while True:
                line = reader.readline()
                if not line:
                    return
                try:
                    frame = json.loads(line)
                except ValueError:
                    return
                if not isinstance(frame, dict):
                    return
                if not hello_seen:
                    if "busy" in frame:
                        # The hub's cap refused us (typed busy frame): back
                        # off into the ordinary reconnect loop rather than
                        # treating the close as a crash.
                        with self._state:
                            self._stats["busy_refusals"] += 1
                        return
                    if "denied" in frame:
                        # Wrong/missing auth token: counted separately from
                        # busy — retrying cannot help until the operator
                        # fixes the token, but the reconnect loop keeps the
                        # link alive so a rotated token heals in place.
                        with self._state:
                            self._stats["auth_refusals"] += 1
                        return
                    if "hello" not in frame:
                        continue  # only the hello reply establishes the seq floor
                    hello_seen = True
                    with self._state:
                        self._last_seen = int(frame.get("seq", 0))
                        self._connected = True
                        self._state.notify_all()
                    # Every (re)connect is a potential gap of unknown width:
                    # recover fully, then flow the events that raced the
                    # outage.  The unsent buffer is swapped out only now —
                    # after the hello reply proved this connection works —
                    # so a connection that dies earlier keeps the buffered
                    # events for the next attempt (and a failing republish
                    # below re-buffers through publish() itself).
                    self._safe_resync()
                    with self._send_lock:
                        unsent, self._unsent = self._unsent, []
                    for events in unsent:
                        self.publish(events)
                    continue
                self._handle_frame(frame)
        finally:
            with self._send_lock:
                if self._sock is sock:
                    self._sock = None
            try:
                sock.close()
            except OSError:
                pass

    def _handle_frame(self, frame: Dict[str, Any]) -> None:
        if "pong" in frame:
            with self._state:
                pong_id = frame.get("id")
                if isinstance(pong_id, int) and pong_id > self._last_pong_id:
                    # Pongs arrive in ping order on the one connection, so a
                    # high-water id is enough for every waiter.
                    self._last_pong_id = pong_id
                self._state.notify_all()
            return
        if "resync" in frame:
            with self._state:
                self._last_seen = int(frame["resync"])
                self._stats["resyncs"] += 1
            self._safe_resync()
            return
        seq = frame.get("seq")
        if not isinstance(seq, int):
            return
        request_replay = False
        with self._state:
            if seq <= self._last_seen:
                return  # replay overlap; already applied
            if seq == self._last_seen + 1:
                self._last_seen = seq
            else:
                # A gap: apply this frame (eviction is idempotent and
                # over-eviction is safe) but keep last_seen pinned so the
                # hub's replay of the missed range is not ignored.
                self._stats["gaps"] += 1
                request_replay = True
            self._stats["received"] += 1
            last_seen = self._last_seen
        try:
            self._on_events(frame.get("origin"), frame.get("events") or [])
        except Exception:  # noqa: BLE001 - the link must outlive handler bugs
            pass
        if request_replay:
            self._send_ping(last_seen, next(self._ping_ids))

    def _safe_resync(self) -> None:
        try:
            self._on_resync()
        except Exception:  # noqa: BLE001 - the link must outlive handler bugs
            pass


class CoherentDecisionCache:
    """A :class:`DecisionCache` front that publishes admin invalidation.

    Movement-driven eviction is published by the coherence layer's own
    movement-store subscription; this wrapper covers the *administrative*
    paths — grant/revoke/derive/set_capacity reach the cache through the
    PDP's ``invalidate_pair``/``invalidate_location``/``clear`` hooks, and
    those must fan out to the other replicas too.  Remote events are applied
    to the **inner** cache directly, so nothing echoes back onto the bus.
    """

    def __init__(self, inner, publish) -> None:
        self._inner = inner
        self._publish = publish

    @property
    def inner(self):
        """The wrapped :class:`DecisionCache`."""
        return self._inner

    # -- delegated read/write path (the server's decide path) ----------- #
    def get(self, *args, **kwargs):
        return self._inner.get(*args, **kwargs)

    def put(self, *args, **kwargs):
        return self._inner.put(*args, **kwargs)

    def generation(self, location):
        return self._inner.generation(location)

    def lookup(self, request):
        return self._inner.lookup(request)

    def store(self, request, decision, **kwargs):
        return self._inner.store(request, decision, **kwargs)

    def on_movements(self, notices):
        return self._inner.on_movements(notices)

    def connect(self, movement_db):
        return self._inner.connect(movement_db)

    # -- publishing admin hooks ------------------------------------------ #
    def invalidate_location(self, location: str) -> int:
        evicted = self._inner.invalidate_location(location)
        self._publish([{"kind": "admin", "location": location, "subject": None}])
        return evicted

    def invalidate_pair(self, subject: str, location: str) -> int:
        evicted = self._inner.invalidate_pair(subject, location)
        self._publish([{"kind": "admin", "location": location, "subject": subject}])
        return evicted

    def invalidate_subject(self, subject: str) -> int:
        """Subject-wise eviction (the fabric's reshard hook), fanned out.

        Peers apply it with their own ``invalidate_subject`` — including
        the persistent tier's disk-row tombstones — or fall back to a
        clear when their cache predates the hook.
        """
        evicted = self._inner.invalidate_subject(subject)
        self._publish([{"kind": "admin", "location": None, "subject": subject}])
        return evicted

    def clear(self) -> int:
        evicted = self._inner.clear()
        self._publish([{"kind": "clear"}])
        return evicted

    def __getattr__(self, name):
        # The persistent tier's surface (warm/flight/close/store/...) —
        # and anything else additive — passes straight through to the
        # wrapped cache; only the invalidation hooks above need to publish.
        if name.startswith("_"):  # never resolve internals via the inner cache
            raise AttributeError(name)
        return getattr(self._inner, name)

    # -- delegated introspection ----------------------------------------- #
    @property
    def bucket(self):
        return self._inner.bucket

    @property
    def maxsize(self):
        return self._inner.maxsize

    @property
    def stats(self):
        return self._inner.stats

    def __len__(self) -> int:
        return len(self._inner)


class ReplicaCoherence:
    """Wire one replica's engine + cache to the invalidation bus.

    Parameters
    ----------
    engine:
        The replica's :class:`~repro.api.builder.Ltam` (duck-typed: only
        ``movement_db`` is required).
    cache:
        The replica's :class:`~repro.service.cache.DecisionCache`, or
        ``None`` for an uncached replica (projection pickup still runs).
    bus:
        Where the bus lives: a ``(host, port)`` tuple / ``"host:port"``
        string of a running hub, or an :class:`InvalidationBus` instance to
        host in-process (started/stopped with this coherence object).
    replica_id:
        This replica's identity on the bus; generated when omitted.
    sync_interval:
        Period (seconds) of the background sync tick bounding the coherence
        window even under total bus loss; ``None`` disables the tick
        (gap/reconnect recovery and explicit :meth:`sync` calls remain).
    ledger:
        Optional :class:`~repro.service.capacity.CapacityLedger`.  When
        given, this coherence layer additionally publishes the local
        store's per-location occupancy (absolute counts, derived at
        publish time from the projection the notices just updated) and
        folds peers' vectors into the ledger — evicting the affected
        locations from the cache so cached capacity decisions never
        outlive a *remote* occupancy change.  Partitioned-fabric servers
        pass one; replicas sharing a SQLite file must not (each replica
        already sees every stay locally — a ledger would double-count).
    auth_token:
        Optional shared secret forwarded to the :class:`BusLink` hello;
        required when the hub was started with one.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        engine,
        cache=None,
        *,
        bus: Union[str, Tuple[str, int], InvalidationBus],
        replica_id: Optional[str] = None,
        sync_interval: Optional[float] = DEFAULT_SYNC_INTERVAL,
        ledger=None,
        auth_token: Optional[str] = None,
    ) -> None:
        if sync_interval is not None and not sync_interval > 0:
            # Event.wait(0) returns immediately: a zero interval would spin
            # the sync thread at 100% CPU.  Disabling the tick is spelled
            # ``None``, explicitly.
            raise ServiceError(
                f"sync_interval must be positive (or None to disable the tick), "
                f"got {sync_interval!r}"
            )
        self._engine = engine
        self._inner_cache = cache
        self._ledger = ledger
        self._auth_token = auth_token
        self._replica_id = (
            replica_id
            if replica_id is not None
            else f"replica-{socket.gethostname()}-{next(self._ids)}"
        )
        self._owned_bus = bus if isinstance(bus, InvalidationBus) else None
        self._bus_address = None if self._owned_bus is not None else resolve_bus_address(bus)
        self._sync_interval = sync_interval
        self._cache = (
            CoherentDecisionCache(cache, self._publish_admin) if cache is not None else None
        )
        self._link: Optional[BusLink] = None
        self._unsubscribe = None
        self._in_pickup = threading.local()
        self._sync_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._stats = {"pickups": 0, "picked_up": 0, "applied_events": 0, "recoveries": 0}
        self._ticker: Optional[threading.Thread] = None
        self._ticker_stop = threading.Event()
        self._started = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def replica_id(self) -> str:
        """This replica's identity on the bus."""
        return self._replica_id

    @property
    def cache(self):
        """The cache the owning server should attach: the publishing wrapper
        (or ``None`` for an uncached replica)."""
        return self._cache

    @property
    def link(self) -> Optional[BusLink]:
        """The bus link (``None`` before :meth:`start`)."""
        return self._link

    @property
    def bus(self) -> Optional[InvalidationBus]:
        """The in-process-hosted hub, when this replica hosts one."""
        return self._owned_bus

    @property
    def ledger(self):
        """The attached :class:`CapacityLedger` (``None`` outside the fabric)."""
        return self._ledger

    @property
    def stats(self) -> Dict[str, Any]:
        """Coherence counters plus the link's, for the health document."""
        with self._stats_lock:
            stats: Dict[str, Any] = dict(self._stats)
        stats["replica"] = self._replica_id
        if self._link is not None:
            stats["link"] = self._link.stats
            stats["connected"] = self._link.connected
            stats["last_seen"] = self._link.last_seen
        stats["applied_position"] = self._engine.movement_db.applied_position
        if self._ledger is not None:
            stats["ledger"] = self._ledger.stats
        return stats

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ReplicaCoherence":
        """Host/join the bus, subscribe the publisher, start the sync tick."""
        if self._started:
            return self
        if self._owned_bus is not None:
            if not self._owned_bus.started:
                self._owned_bus.start()
            self._bus_address = self._owned_bus.address
        self._link = BusLink(
            self._bus_address,
            replica_id=self._replica_id,
            on_events=self._handle_events,
            on_resync=self._recover,
            auth_token=self._auth_token,
        )
        self._unsubscribe = self._engine.movement_db.subscribe(self._publish_movements)
        # Late join / warm restart: ask the peers for their vectors and
        # announce our own, so every ledger converges without waiting for
        # the next movement.  Durable publish — buffered until the hello.
        self._publish_occupancy_state(request_peers=True)
        if self._sync_interval is not None:
            self._ticker_stop.clear()
            self._ticker = threading.Thread(
                target=self._tick, name="ltam-coherence-sync", daemon=True
            )
            self._ticker.start()
        self._started = True
        return self

    def stop(self) -> None:
        """Unsubscribe, drop the link, stop the sync tick (and a hosted hub)."""
        if not self._started:
            return
        self._started = False
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        # Link first: a tick blocked inside request_sync() returns promptly
        # once the link is closed, so the ticker join below cannot stall.
        self._ticker_stop.set()
        if self._link is not None:
            self._link.close()
        if self._ticker is not None:
            self._ticker.join(timeout=5)
            self._ticker = None
        self._link = None
        if self._owned_bus is not None:
            self._owned_bus.stop()

    def __enter__(self) -> "ReplicaCoherence":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Publishing (local mutations -> bus)
    # ------------------------------------------------------------------ #
    def _publish_movements(self, notices) -> None:
        # Notices emitted by a pickup describe *foreign* writes we just
        # applied — re-publishing them would bounce every event around the
        # fleet forever (and evict the origin's fresh entries).  Two guards:
        # the thread-local covers our own sync/tick pickups, the store's
        # flag covers the pickup-before-write its local write paths run.
        if getattr(self._in_pickup, "active", False):
            return
        if getattr(self._engine.movement_db, "notifying_pickup", False):
            return
        if self._link is None:
            return
        # Bounded frames: a 100k-record ingest batch becomes a run of
        # PUBLISH_CHUNK-notice events, not one transport-choking line.
        # durable=False: during a bus outage these are dropped, not
        # buffered — the peers' pickup() re-derives movement evictions from
        # the shared store, so replaying them later buys nothing.
        for start in range(0, len(notices), PUBLISH_CHUNK):
            chunk = notices[start : start + PUBLISH_CHUNK]
            self._link.publish(
                [{"kind": "movement", "notices": [notice.to_wire() for notice in chunk]}],
                durable=False,
            )
        if self._ledger is not None:
            # The capacity ledger's feed: absolute occupancy for every
            # location these notices touched, read back from the projection
            # (which the store updates *before* notifying) — never folded
            # from the notices, so delivery order cannot skew the counts.
            # Durable, unlike the movement chunks: peers cannot re-derive a
            # partition-local count from their own stores.
            affected = set()
            for notice in notices:
                affected.update(notice.affected_locations)
            if affected:
                db = self._engine.movement_db
                counts = {location: db.occupancy(location) for location in sorted(affected)}
                self._link.publish([{"kind": "occupancy", "counts": counts}])

    def _publish_admin(self, events: List[Dict[str, Any]]) -> None:
        if self._link is not None:
            self._link.publish(events)

    def _occupancy_vector(self) -> Dict[str, int]:
        """This partition's full per-location occupancy, from the projection."""
        return dict(Counter(self._engine.movement_db.subjects_inside().values()))

    def _publish_occupancy_state(self, *, request_peers: bool) -> None:
        """Publish this partition's full occupancy vector (and optionally ask
        the peers for theirs) — the ledger's reconciliation primitive, used
        on start, on bus resync, and after a ``reshard()`` handoff."""
        if self._ledger is None:
            return
        events: List[Dict[str, Any]] = []
        if request_peers:
            events.append({"kind": "occupancy_resync"})
        events.append({"kind": "occupancy", "counts": self._occupancy_vector(), "full": True})
        self._publish_admin(events)

    def publish_occupancy(self, locations: Iterable[str]) -> None:
        """Publish current occupancy for *locations* right now.

        For mutation paths that bypass the movement store's subscriber
        notifications — the fabric's ``forget_subjects`` half of a reshard
        handoff drops stays without emitting notices, so the automatic
        publish in :meth:`_publish_movements` never fires for them.
        """
        if self._ledger is None:
            return
        affected = sorted({str(location) for location in locations})
        if not affected:
            return
        db = self._engine.movement_db
        counts = {location: db.occupancy(location) for location in affected}
        self._publish_admin([{"kind": "occupancy", "counts": counts}])

    # ------------------------------------------------------------------ #
    # Applying (bus -> local cache/projection)
    # ------------------------------------------------------------------ #
    def _handle_events(self, origin: Optional[str], events: List[Dict[str, Any]]) -> None:
        if origin == self._replica_id:
            return  # our own publication: already applied locally
        # The reader thread carries no trace, so this is a no-op today; it
        # marks the apply site for any future traced apply path.
        trace_event("bus.apply", events=len(events), origin=origin)
        with self._stats_lock:
            self._stats["applied_events"] += len(events)
        saw_movements = False
        cache = self._inner_cache
        for event in events:
            kind = event.get("kind")
            if kind == "movement":
                saw_movements = True
                if cache is not None:
                    # Evict straight off the notices: the writer's rows may
                    # not be committed/visible yet (bulk-scope notices fire
                    # pre-commit), and over-eviction is free.
                    for item in event.get("notices", ()):
                        try:
                            notice = MovementNotice.from_wire(item)
                        except Exception:  # noqa: BLE001 - skip malformed
                            continue
                        for location in notice.affected_locations:
                            cache.invalidate_location(location)
            elif kind == "admin":
                if cache is not None:
                    location = event.get("location")
                    subject = event.get("subject")
                    if location is None and subject is not None:
                        # Subject-wise eviction (fabric handoff).  A cache
                        # without the hook over-evicts with a clear — safe.
                        invalidate_subject = getattr(cache, "invalidate_subject", None)
                        if callable(invalidate_subject):
                            invalidate_subject(subject)
                        else:
                            cache.clear()
                    elif location is None:
                        cache.clear()
                    elif subject is None:
                        cache.invalidate_location(location)
                    else:
                        cache.invalidate_pair(subject, location)
            elif kind == "occupancy":
                if self._ledger is not None:
                    counts = event.get("counts")
                    if isinstance(counts, dict):
                        changed = self._ledger.apply(
                            str(origin), counts, full=bool(event.get("full"))
                        )
                        if cache is not None:
                            # The acceptance criterion of the capacity fix:
                            # a cached capacity decision on this partition
                            # must not survive an occupancy change ingested
                            # on a peer.
                            for location in changed:
                                cache.invalidate_location(location)
            elif kind == "occupancy_resync":
                if self._ledger is not None:
                    # A peer (re)joined or recovered: re-announce our vector
                    # (without asking back — that would ping-pong forever).
                    self._publish_occupancy_state(request_peers=False)
            elif kind == "clear":
                if cache is not None:
                    cache.clear()
        if saw_movements:
            # Catch the projection up to whatever is committed; rows still
            # in flight are caught by the next event or the sync tick.
            self._pickup()

    def _pickup(self) -> int:
        self._in_pickup.active = True
        try:
            notices = self._engine.movement_db.pickup()
        finally:
            self._in_pickup.active = False
        if notices:
            with self._stats_lock:
                self._stats["pickups"] += 1
                self._stats["picked_up"] += len(notices)
        return len(notices)

    def _recover(self) -> int:
        """Full resync: projection to high water, cache dropped wholesale.

        Runs on reconnect, on an uncoverable gap, and when a strict
        :meth:`sync` could not drain the bus.  Movement staleness is healed
        exactly by pickup; admin events cannot be reconstructed from the
        movement log, so the cache is cleared — over-eviction in exchange
        for never serving a decision a missed revoke invalidated.
        """
        with self._stats_lock:
            self._stats["recoveries"] += 1
        applied = self._pickup()
        if self._inner_cache is not None:
            self._inner_cache.clear()
        # Re-announce our occupancy and ask the peers for theirs: frames
        # the outage ate are absolute counts, so the full-vector exchange
        # restores the ledger exactly.  Stale remote vectors are kept (not
        # cleared) until the peers' answers replace them — a transiently
        # low remote count could admit an over-capacity ENTER.
        self._publish_occupancy_state(request_peers=True)
        return applied

    # ------------------------------------------------------------------ #
    # The barrier
    # ------------------------------------------------------------------ #
    def sync(self, *, strict: bool = True) -> int:
        """Close the coherence window now; returns how many records landed.

        Drains the bus (hub-side replay of anything this link missed —
        admin events included), then folds the shared store's committed
        rows into the local projection.  After ``sync()`` returns, every
        mutation that was **committed and published** before the call is
        reflected in this replica's decisions.

        When the drain fails (bus unreachable, pong timed out), a strict
        sync — the default; the wire ``sync`` op is one — falls back to a
        full recovery: pickup plus a cache clear, because admin evictions
        this replica missed cannot be reconstructed any other way.  The
        background tick syncs with ``strict=False``: it settles for the
        movement half (pickup) rather than nuking the cache every interval
        of a hub outage, and lets the reconnect recovery square the admin
        ledger.
        """
        with self._sync_lock:
            drained = self._link.request_sync() if self._link is not None else False
            if not drained and strict:
                return self._recover()
            return self._pickup()

    def _tick(self) -> None:
        # The tick is a full sync(), not a bare pickup: a frame the hub
        # dropped toward us (backpressure, chaos) followed by bus silence
        # would otherwise never be healed while the connection stays up —
        # pickup restores movement state but cannot reconstruct admin
        # evictions; only the hub's replay can.
        while not self._ticker_stop.wait(self._sync_interval):
            try:
                self.sync(strict=False)
            except Exception:  # noqa: BLE001 - the tick must survive races
                pass
