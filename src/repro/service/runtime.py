"""The shared background-thread asyncio host and frame loop of every service.

:class:`LtamServer`, the :class:`~repro.service.bus.InvalidationBus` and the
fabric's :class:`~repro.service.fabric.RouterServer` are all the same shape:
an asyncio TCP listener run inside ``asyncio.run()`` on a daemon thread, a
synchronous ``start()`` that returns once the socket is bound (surfacing
bind failures as typed errors), and a ``stop()`` that signals the loop from
the caller's thread and joins.  :class:`AsyncServiceHost` is that shape,
extracted once:

* ``start()`` spawns the thread and blocks on the started-event; a thread
  that never binds within the timeout is *abandoned* — told to shut down if
  it ever does bind — so the caller is never left with an orphaned listener
  it believes dead;
* startup failures (bind errors, loop crashes before the socket exists) are
  re-raised from ``start()`` with the original exception chained; a crash
  *after* binding is kept and surfaced by :meth:`wait` — a supervisor must
  see a crash, not a clean exit with refused connections;
* ``stop()`` sets the loop's stop event thread-safely and joins; the serve
  coroutine aborts any registered client transports so remote peers (pools
  especially) observe the close instead of a half-open socket.

It also owns the **frame loop** the server and the router share (the bus
keeps its own framing and overrides :meth:`_handle_connection`): NDJSON or
negotiated binary framing per connection (the ``hello`` op), the oversize
check, the shared-token ``auth`` gate, ``tctx`` / slow-request tracing,
splicing of pre-serialized result fragments, per-op latency histograms and
error counters.  A host supplies :meth:`dispatch` (one decoded message in,
one result out) and its ``_BLOCKING_OPS``: the ops that may wait on a
queue, a lock, a flush barrier or a socket run in the default executor;
every other op runs inline on the loop thread, which is cheaper than the
hand-off by far for a handler that cannot block.  Frames on one connection
are answered strictly in order; connections interleave only at awaits.

Subclasses may override :meth:`_on_bound` (called on the loop thread right
after the listener is bound, before ``start()`` returns) and
:meth:`_connection_closed` (per-connection cleanup after the peer leaves).
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.service import telemetry, wire
from repro.service.errors import ProtocolError, ServiceAuthError, ServiceBusyError, ServiceError
from repro.service.protocol import decode_frame, encode_frame, error_to_dict

__all__ = ["AsyncServiceHost", "DEFAULT_FRAME_LIMIT", "RawJson", "ServiceConnection"]

#: Maximum frame size (bytes) — a 64k-record observe_batch fits comfortably.
DEFAULT_FRAME_LIMIT = 1 << 24

#: How long ``start()`` waits for the background thread to bind.
START_TIMEOUT = 10.0

#: Structured per-request log (one NDJSON line per op, ``--log-requests``,
#: and the slow-request span dumps of every tier).
_request_log = logging.getLogger("repro.service.requests")


def _dumps(payload: Any) -> str:
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)


class RawJson:
    """A handler result that is already serialized JSON text.

    The decide path serves cache hits as **pre-serialized fragments** —
    skipping the pipeline is only half the win; at hot-pool rates the JSON
    re-encoding of an unchanged decision costs as much as the lookup, so
    the envelope is assembled by string joining instead of re-dumping.
    (Binary connections get :class:`~repro.service.wire.Raw` fragments,
    which the binary codec splices the same way.)
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class ServiceConnection:
    """One client connection's framing state.

    Every connection starts on NDJSON and may upgrade once via the
    ``hello`` op; the switch applies after the ``hello`` response has been
    written.  ``cache_outcome`` is the current op's cache note for the span
    and the request log ("hit", "miss", "3/5", None) — safe as
    per-connection state because one connection's frames are handled
    strictly in sequence.
    """

    __slots__ = ("wire", "pending_wire", "decoder", "cache_outcome")

    def __init__(self) -> None:
        self.wire: str = wire.JSON
        self.pending_wire: Optional[str] = None
        self.decoder: Optional[wire.Decoder] = None
        self.cache_outcome: Optional[str] = None

    def apply_pending_upgrade(self) -> None:
        """Switch framing after the ``hello`` response has been written."""
        if self.pending_wire is not None:
            self.wire = self.pending_wire
            self.pending_wire = None
            self.decoder = wire.Decoder()


class AsyncServiceHost:
    """A TCP service hosted on a background thread's asyncio loop.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    frame_limit:
        Per-connection stream buffer limit handed to the listener.
    max_connections:
        Per-listener cap on concurrently served connections; beyond it a
        new connection is answered with the subclass's busy frame
        (:meth:`_refuse_busy`) and closed, instead of queueing unbounded
        work behind a saturated loop.  ``None`` (default) is uncapped.
    registry, ops:
        The metrics registry the frame loop reports into (a private one
        when omitted) and the ops that get a latency histogram and an ops
        counter there.
    wire_format:
        ``"binary"`` answers ``hello`` negotiations with the compact
        framing of :mod:`repro.service.wire`; ``"json"`` keeps the host
        NDJSON-only (clients negotiate down transparently).
    auth_token:
        Optional shared secret every frame except ``hello`` must carry in
        its ``auth`` field; others get a typed
        :class:`~repro.service.errors.ServiceAuthError`.
    slow_request_ms:
        Trace every request locally and dump the span tree of any slower
        than this to the ``repro.service.requests`` logger.
    log_requests:
        Emit one structured NDJSON line per op on that logger.

    Class attributes ``_what`` (how errors name the service, e.g. ``"the
    server"``), ``_thread_name``, ``_span_name`` (the root span of a traced
    op), ``_connection_class`` and ``_BLOCKING_OPS`` customize a host.
    """

    _what = "the service"
    _thread_name = "ltam-service"
    _span_name = "service.op"
    _connection_class = ServiceConnection
    #: ops that may block and therefore run in the default executor.
    _BLOCKING_OPS: frozenset = frozenset()

    def __init__(
        self,
        host: str,
        port: int,
        *,
        frame_limit: int = DEFAULT_FRAME_LIMIT,
        max_connections: Optional[int] = None,
        registry: Optional[telemetry.MetricsRegistry] = None,
        ops: Iterable[str] = (),
        wire_format: str = wire.JSON,
        auth_token: Optional[str] = None,
        slow_request_ms: Optional[float] = None,
        log_requests: bool = False,
    ) -> None:
        if max_connections is not None and (
            not isinstance(max_connections, int)
            or isinstance(max_connections, bool)
            or max_connections < 1
        ):
            raise ServiceError(
                f"max_connections must be a positive integer, got {max_connections!r}"
            )
        if wire_format not in (wire.BINARY, wire.JSON):
            raise ServiceError(
                f"unknown wire format {wire_format!r}; expected 'binary' or 'json'"
            )
        self._host = host
        self._port = port
        self._frame_limit = frame_limit
        self._max_connections = max_connections
        self._live_connections = 0
        self._busy_refused = 0
        self._address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._writers: set = set()
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._crash: Optional[BaseException] = None
        self._abandoned = False
        #: ``binary`` = answer ``hello`` negotiations with the compact
        #: framing; ``json`` = NDJSON only (hello still answered, politely).
        self._binary_enabled = wire_format == wire.BINARY
        self._auth_token = auth_token
        self._slow_request_ms = slow_request_ms
        self._log_requests = bool(log_requests)
        # Hot-path metric objects are resolved once here, so per-request
        # work is a dict index + a locked add, never a registry lookup.
        if registry is None:
            registry = telemetry.MetricsRegistry()
        self._registry = registry
        self._op_latency = {
            op: registry.histogram("repro_op_latency_seconds", op=op) for op in ops
        }
        self._op_counts = {op: registry.counter("repro_ops_total", op=op) for op in ops}
        self._op_errors = registry.counter("repro_op_errors_total")
        self._auth_refused = registry.counter("repro_auth_refused_total")
        self._slow_sampled = registry.counter("repro_slow_requests_total")
        registry.gauge("repro_connections_live", fn=lambda: self._live_connections)
        registry.gauge("repro_connections_max", fn=lambda: self._max_connections or 0)
        registry.gauge("repro_connections_busy_refused", fn=lambda: self._busy_refused)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; available once started."""
        if self._address is None:
            raise ServiceError(f"{self._what} has not been started")
        return self._address

    @property
    def started(self) -> bool:
        """Whether the service is currently running."""
        return self._thread is not None

    @property
    def busy_refused(self) -> int:
        """How many connections the cap has turned away since start."""
        return self._busy_refused

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self):
        """Start serving on a background thread; returns once bound.

        A stopped service can be started again (fresh bind; with ``port=0``
        the new ephemeral port is reported by :attr:`address`).
        """
        if self._thread is not None:
            raise ServiceError(f"{self._what} was already started")
        self._started.clear()
        self._startup_error = None
        self._crash = None
        self._abandoned = False
        self._address = None
        self._thread = threading.Thread(target=self._run, name=self._thread_name, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=START_TIMEOUT):
            # The thread may still bind later; tell it to shut down instead
            # of leaving an orphaned listener the caller believes dead.
            self._abandoned = True
            self._signal_stop()
            self._thread = None
            raise ServiceError(
                f"{self._what} did not start within {START_TIMEOUT:.0f} seconds"
            )
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5)
            self._thread = None
            raise ServiceError(f"{self._what} failed to start: {error}") from error
        return self

    def stop(self) -> None:
        """Stop serving and join the background thread."""
        if self._thread is None:
            return
        self._signal_stop()
        self._thread.join(timeout=10)
        self._thread = None

    def _signal_stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already closed
                pass

    def wait(self) -> None:
        """Block until the service stops (for foreground CLI serving).

        Raises :class:`ServiceError` if the serve loop died on an
        unexpected exception — a supervisor must see a crash, not a clean
        exit with refused connections.
        """
        if self._thread is not None:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)
        if self._crash is not None:
            raise ServiceError(f"{self._what} crashed: {self._crash}") from self._crash

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # The background thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()/wait()
            if self._address is None:
                self._startup_error = exc  # never bound: a startup failure
            else:
                self._crash = exc  # died mid-serve: surfaced by wait()
        finally:
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._writers = set()
        server = await asyncio.start_server(
            self._accept_connection, self._host, self._port, limit=self._frame_limit
        )
        self._address = server.sockets[0].getsockname()[:2]
        self._on_bound()
        self._started.set()
        if self._abandoned:  # start() gave up while we were binding
            server.close()
            await server.wait_closed()
            return
        async with server:
            await self._stop_event.wait()
            # Closing the listener is not enough: accepted connections would
            # keep their sockets half-open (the loop exits before their
            # transports run the close), so clients — pools especially —
            # could not tell this service is gone.  Abort them and give the
            # loop one tick to run the connection_lost callbacks.
            for writer in list(self._writers):
                transport = writer.transport
                if transport is not None:
                    transport.abort()
            await asyncio.sleep(0)

    def _on_bound(self) -> None:
        """Hook: runs on the loop thread right after the listener binds."""

    async def _accept_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Counters run on the one loop thread — no lock needed.
        if (
            self._max_connections is not None
            and self._live_connections >= self._max_connections
        ):
            self._busy_refused += 1
            try:
                await self._refuse_busy(reader, writer)
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            return
        self._live_connections += 1
        try:
            await self._handle_connection(reader, writer)
        finally:
            self._live_connections -= 1

    async def _refuse_busy(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Tell an over-cap connection it was refused (then closed).

        Every connection starts on NDJSON, so the busy frame is a JSON error
        line the client's first read surfaces as a typed
        :class:`~repro.service.errors.ServiceBusyError`.
        """
        writer.write(
            self._encode_error(
                self._connection_class(),
                None,
                ServiceBusyError(
                    f"{self._what} is at its connection cap ({self._max_connections}); "
                    "retry later"
                ),
            )
        )
        await writer.drain()

    # ------------------------------------------------------------------ #
    # The frame loop
    # ------------------------------------------------------------------ #
    def dispatch(self, connection: ServiceConnection, message: Dict[str, Any]) -> Any:
        """Serve one decoded message: a JSON-compatible result, a
        :class:`RawJson` / :class:`~repro.service.wire.Raw` fragment, or a
        raised error (answered as a typed error frame)."""
        raise NotImplementedError

    async def _connection_closed(self, connection: ServiceConnection) -> None:
        """Hook: per-connection cleanup once the peer is gone."""

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = self._connection_class()
        self._writers.add(writer)
        try:
            while True:
                try:
                    if connection.wire == wire.BINARY:
                        frame = await wire.read_frame(reader, self._frame_limit)
                    else:
                        frame = await reader.readline()
                except (ProtocolError, ValueError) as exc:
                    # An over-limit (or zero-length binary) frame: the body
                    # was not consumed, so the stream cannot be
                    # resynchronized.  Report once and drop the connection.
                    if not isinstance(exc, ProtocolError):
                        exc = ProtocolError(f"frame exceeds the {self._frame_limit}-byte limit")
                    writer.write(self._encode_error(connection, None, exc))
                    await writer.drain()
                    break
                if not frame:
                    break
                writer.write(await self._respond(connection, frame))
                await writer.drain()
                connection.apply_pending_upgrade()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            # Loop shutdown cancels connection tasks mid-read; ending the
            # task cleanly keeps asyncio's stream callback from logging
            # spurious CancelledErrors.  Nothing else cancels these tasks.
            pass
        finally:
            self._writers.discard(writer)
            await self._connection_closed(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _encode_error(connection: ServiceConnection, message_id: Any, exc: BaseException) -> bytes:
        envelope = {"id": message_id, "ok": False, "error": error_to_dict(exc)}
        if connection.wire == wire.BINARY:
            return wire.pack_frame(wire.encode_value(envelope))
        return encode_frame(envelope)

    def _negotiate(self, connection: ServiceConnection, message: Dict[str, Any]) -> Dict[str, Any]:
        """The ``hello`` op: pick the connection's framing for later frames."""
        chosen, result = wire.negotiate_hello(message, binary_enabled=self._binary_enabled)
        if chosen == wire.BINARY and connection.wire != wire.BINARY:
            connection.pending_wire = wire.BINARY
        return result

    def _execute(self, trace, connection: ServiceConnection, message: Dict[str, Any]) -> Any:
        """Run one op on the calling thread, with *trace* active there.

        Activation is thread-local, so it must happen on whichever thread
        actually runs the op — the loop or an executor worker.  The op span
        is the local root every nested span (cache outcome, pipeline
        stages, partition calls) parents to.
        """
        op = message["op"]
        handler = self._negotiate if op == "hello" else self.dispatch
        if trace is None:
            return handler(connection, message)
        with telemetry.activated(trace):
            with telemetry.trace_span(self._span_name, op=op, **self._span_meta()) as span:
                result = handler(connection, message)
                if connection.cache_outcome is not None:
                    span.annotate(cache=connection.cache_outcome)
                return result

    def _span_meta(self) -> Dict[str, Any]:
        """Extra metadata on the op span (the server names its partition)."""
        return {}

    async def _respond(self, connection: ServiceConnection, frame: bytes) -> bytes:
        binary = connection.wire == wire.BINARY
        message_id: Any = None
        op: Optional[str] = None
        ok = True
        trace = None
        echo_spans = False
        connection.cache_outcome = None
        started = time.perf_counter()
        try:
            if binary:
                message = connection.decoder.decode(frame)
                if not isinstance(message, dict):
                    raise ProtocolError(
                        f"a frame must be an object, got {type(message).__name__}"
                    )
            else:
                message = decode_frame(frame)
            message_id = message.get("id")
            requested = message.get("op")
            if not isinstance(requested, str):
                raise ProtocolError(f"op must be a string, got {type(requested).__name__}")
            op = requested
            if (
                self._auth_token is not None
                and op != "hello"  # negotiation carries no payload worth gating
                and message.get("auth") != self._auth_token
            ):
                self._auth_refused.inc()
                raise ServiceAuthError(
                    f"{self._what} requires a shared auth token (--auth-token) "
                    "and the frame did not carry it"
                )
            # Trace when the caller forwarded its context (tctx) or when
            # local slow-request sampling is armed; a request that carried
            # tctx gets the recorded spans back in its response envelope.
            tctx = message.get("tctx")
            if tctx is not None:
                trace = telemetry.Trace.from_tctx(tctx)
                echo_spans = trace is not None
            if trace is None and self._slow_request_ms is not None:
                trace = telemetry.Trace()
            if op in self._BLOCKING_OPS:
                result = await asyncio.get_running_loop().run_in_executor(
                    None, self._execute, trace, connection, message
                )
            else:
                result = self._execute(trace, connection, message)
            if not binary and isinstance(result, RawJson):
                if echo_spans:
                    text = '{"id":%s,"ok":true,"spans":%s,"result":%s}\n' % (
                        _dumps(message_id),
                        _dumps(trace.spans_to_wire()),
                        result.text,
                    )
                else:
                    text = '{"id":%s,"ok":true,"result":%s}\n' % (
                        _dumps(message_id),
                        result.text,
                    )
                return text.encode("utf-8")
            envelope: Dict[str, Any] = {"id": message_id, "ok": True, "result": result}
            if echo_spans:
                envelope["spans"] = trace.spans_to_wire()
            if binary:
                return wire.pack_frame(wire.encode_value(envelope))
            return encode_frame(envelope)
        except Exception as exc:  # noqa: BLE001 - every failure becomes a frame
            ok = False
            return self._encode_error(connection, message_id, exc)
        finally:
            elapsed = time.perf_counter() - started
            latency = self._op_latency.get(op)
            if latency is not None:
                latency.observe(elapsed)
                self._op_counts[op].inc()
            if not ok:
                self._op_errors.inc()
            if (
                trace is not None
                and self._slow_request_ms is not None
                and elapsed * 1000.0 >= self._slow_request_ms
            ):
                self._slow_sampled.inc()
                telemetry.dump_slow(
                    _request_log,
                    op=op,
                    trace=trace,
                    duration_ms=elapsed * 1000.0,
                    threshold_ms=self._slow_request_ms,
                    wire=connection.wire,
                )
            if self._log_requests:
                _request_log.info(
                    '{"op":%s,"wire":%s,"ok":%s,"duration_us":%d,"cache":%s}',
                    _dumps(op),
                    _dumps(connection.wire),
                    "true" if ok else "false",
                    int(elapsed * 1e6),
                    _dumps(connection.cache_outcome),
                )
