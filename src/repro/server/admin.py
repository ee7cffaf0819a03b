"""The admin/query plane: a second listener beside the ingest socket.

Operators need to ask a running retention server questions -- is it
healthy, how fast is it ingesting, which tenants exist, what does the
fleet think of user 4711 -- without stopping (or even slowing) the event
loop.  :class:`AdminServer` answers them over the same length-prefixed
JSON frame protocol the ingest plane speaks, on its own socket:

* every request is one frame ``{"cmd": ...}``, every answer one frame
  ``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``;
* handlers only ever take **point-in-time reads** of the engine's
  state (plain attribute loads, atomic under the GIL) or enqueue ops on
  thread-safe queues (tenant add/remove) -- the ingest thread never
  blocks on an admin request, which is what lets the plane answer
  *during* active ingestion (pinned by ``tests/test_server.py``);
* tenant mutations are asynchronous by design: ``tenants add`` returns
  ``{"queued": true}`` and the engine applies the op at the next day
  boundary, the only instant the replay state is quiescent.

The same socket doubles as a **Prometheus scrape target**: a connection
whose first byte is ``G`` (an HTTP ``GET``) is answered with the text
exposition of :func:`~repro.server.metrics.render_prometheus` and
closed -- ``GET /metrics`` works from any HTTP client, frames work from
any frame client, and the listener never needs a second port.  That
socket is :class:`AdminSocket`, the one copy of the plumbing: the shard
fleet's :class:`~repro.server.shard.FleetAdmin` runs on it too, with
its own scatter/gather commands and exposition.

Rate series are derived from the engine's :class:`MetricsHistory` ring
(timestamped, immutable samples) rather than a per-server mutable
window: any number of concurrent ``metrics`` pollers observe the same
anchor and therefore consistent ``events_per_second`` -- the old shared
``(then, before)`` tuple made two interleaved pollers clobber each
other's window and report garbage.

Commands: ``status``, ``health``, ``tenants`` (list/add/remove),
``metrics`` (the engine's gauges plus ingest rate, checkpoint age and
latency tails; ``history`` returns the newest N ring samples),
``activity`` (rank distributions + class counts for the dashboard),
``export`` (the Prometheus text body
in a frame, for ``repro admin export --prom``), ``query`` (per-user
activeness + per-tenant verdicts), ``shard-split`` (a shard worker's
side of a fleet rebalance: queue a split at a day boundary, see
:meth:`MultiTenantService.request_split`).  :func:`admin_request` is
the one-call client used by ``repro admin``.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable

from .metrics import (Counter, MetricsHistory, render_prometheus,
                      tail_stats)
from .protocol import (FrameError, FrameReader, close_listener,
                       create_listener, connect_socket, format_address,
                       parse_address, write_frame)
from .ring import HashRing
from .tenants import MultiTenantService, TenantSpec

__all__ = ["AdminServer", "admin_request", "scrape_metrics"]

#: Content type of the ``GET /metrics`` exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class AdminSocket:
    """One admin listener: JSON frames and ``GET /metrics`` on one socket.

    The plumbing both admin planes share -- the worker's
    :class:`AdminServer` and the shard fleet's
    :class:`~repro.server.shard.FleetAdmin`.  Each connection is served
    on its own thread: one peeked byte sends an HTTP request (an
    uppercase method) to :meth:`_serve_http`, which answers ``GET
    /metrics`` from :meth:`render_metrics`, and anything else to a loop
    of frames, each answered by :meth:`handle` through the subclass's
    :meth:`_commands` plus the shared ``export`` command.  A subclass
    sets up its own state first and calls ``super().__init__(address)``
    last: the accept thread starts there and may serve a request at once.
    """

    def __init__(self, address: str) -> None:
        self.requests = Counter()
        self.errors = Counter()
        self.http_requests = Counter()
        self.closed = False
        self._sock = create_listener(address)
        self.address = format_address(parse_address(address))
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="admin-accept", daemon=True)
        self._accept_thread.start()

    def _commands(self) -> dict[str, Callable[[dict], dict]]:
        """The plane's frame commands besides ``export``."""
        raise NotImplementedError

    def render_metrics(self) -> str:
        """The Prometheus text body (shared by HTTP and ``export``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # plumbing

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        close_listener(self._sock)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self.closed:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            # Dual protocol on one socket: frames start with a decimal
            # length prefix or ``b``, HTTP requests with an uppercase
            # method -- one peeked byte disambiguates without consuming
            # anything.
            try:
                head = conn.recv(1, socket.MSG_PEEK)
            except OSError:
                return
            if b"A" <= head <= b"Z":
                self._serve_http(conn)
                return
            self._serve_frames(conn)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _serve_frames(self, conn: socket.socket) -> None:
        reader = FrameReader(conn)
        try:
            while True:
                try:
                    request = reader.read()
                except FrameError as exc:
                    write_frame(conn, {"ok": False,
                                       "error": f"bad frame: {exc}"})
                    return
                if request is None:
                    return
                self.requests += 1
                try:
                    response = self.handle(request)
                except Exception as exc:  # noqa: BLE001 -- must answer
                    self.errors += 1
                    response = {"ok": False,
                                "error": f"{type(exc).__name__}: {exc}"}
                write_frame(conn, response)
        except OSError:
            pass  # client went away mid-answer

    def _serve_http(self, conn: socket.socket) -> None:
        """One HTTP/1.0-style exchange: request, response, close."""
        self.requests += 1
        self.http_requests += 1
        try:
            conn.settimeout(10.0)
            data = b""
            while b"\r\n\r\n" not in data and b"\n\n" not in data:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk
                if len(data) > 65536:
                    break
            line = data.split(b"\r\n", 1)[0].split(b"\n", 1)[0]
            parts = line.decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            path = parts[1] if len(parts) > 1 else "/"
            if method not in ("GET", "HEAD"):
                self._http_response(conn, "405 Method Not Allowed",
                                    "only GET is served here\n")
                return
            if path.split("?", 1)[0] != "/metrics":
                self.errors += 1
                self._http_response(conn, "404 Not Found",
                                    "try GET /metrics\n")
                return
            body = self.render_metrics()
            self._http_response(conn, "200 OK", body,
                                content_type=PROMETHEUS_CONTENT_TYPE,
                                head_only=(method == "HEAD"))
        except Exception as exc:  # noqa: BLE001 -- must answer
            self.errors += 1
            try:
                self._http_response(conn, "500 Internal Server Error",
                                    f"{type(exc).__name__}: {exc}\n")
            except OSError:
                pass

    @staticmethod
    def _http_response(conn: socket.socket, status: str, body: str,
                       content_type: str = "text/plain; charset=utf-8",
                       head_only: bool = False) -> None:
        payload = body.encode("utf-8")
        header = (f"HTTP/1.0 {status}\r\n"
                  f"Content-Type: {content_type}\r\n"
                  f"Content-Length: {len(payload)}\r\n"
                  f"Connection: close\r\n\r\n").encode("latin-1")
        try:
            conn.sendall(header if head_only else header + payload)
        except OSError:
            pass  # scraper went away

    # ------------------------------------------------------------------
    # command dispatch

    def handle(self, request: dict) -> dict:
        """Answer one request dict (exposed directly for tests)."""
        cmd = request.get("cmd")
        handler = {"export": self._cmd_export,
                   **self._commands()}.get(cmd)
        if handler is None:
            self.errors += 1
            return {"ok": False, "error": f"unknown command {cmd!r}"}
        return handler(request)

    def _cmd_export(self, request: dict) -> dict:
        fmt = request.get("format", "prom")
        if fmt != "prom":
            return {"ok": False,
                    "error": f"unknown export format {fmt!r} "
                             f"(expected 'prom')"}
        return {"ok": True, "format": "prom",
                "content_type": PROMETHEUS_CONTENT_TYPE,
                "text": self.render_metrics()}


class AdminServer(AdminSocket):
    """Answer operator queries about a :class:`MultiTenantService`.

    ``stream`` (the :class:`~repro.server.ingest.NetworkEventStream`, when
    the server ingests over sockets) enriches ``status``/``health`` with
    listener and quarantine detail.  ``clock`` is injectable for tests
    and must share a timebase with the service's metrics history (both
    default to ``time.monotonic``).
    """

    def __init__(self, address: str, service: MultiTenantService, *,
                 stream=None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.service = service
        self.stream = stream
        self._clock = clock
        self._started = clock()
        # Immutable fallback rate anchor: before the first boundary
        # sample exists, events/s is the average since the plane opened.
        self._cursor0 = service.cursor
        super().__init__(address)

    @property
    def history(self) -> MetricsHistory | None:
        return self.service.metrics_history

    def _commands(self) -> dict[str, Callable[[dict], dict]]:
        return {
            "status": self._cmd_status,
            "health": self._cmd_health,
            "tenants": self._cmd_tenants,
            "metrics": self._cmd_metrics,
            "activity": self._cmd_activity,
            "query": self._cmd_query,
            "shard-split": self._cmd_shard_split,
        }

    def _cmd_status(self, request: dict) -> dict:
        out = {"ok": True, "uptime": self._clock() - self._started}
        out.update(self.service.describe())
        out["op_log"] = list(self.service.op_log[-20:])
        if self.stream is not None:
            out["reliability"] = self.stream.report()
        return out

    def _cmd_health(self, request: dict) -> dict:
        service = self.service
        degraded = bool(self.stream is not None and self.stream.degraded)
        quarantined = (int(self.stream.quarantine.total)
                       if self.stream is not None else 0)
        return {
            "ok": True,
            "healthy": not degraded,
            "degraded": degraded,
            "cursor": service.cursor,
            "next_boundary": service.next_boundary,
            "quarantined": quarantined,
            "checkpoint_failures": service.stats["checkpoint_failures"],
            "last_checkpoint_error": service.last_checkpoint_error,
            # Newest *durable* per-source cursors (from the last
            # checkpoint): a shard router trims its resend lanes up to
            # these -- rows at or below them survive a kill -9.
            "ingest_cursors": getattr(service, "last_durable_ingest",
                                      None),
        }

    def _cmd_tenants(self, request: dict) -> dict:
        action = request.get("action", "list")
        service = self.service
        if action == "list":
            return {"ok": True,
                    "tenants": {t.name: t.describe()
                                for t in list(service.tenants)}}
        if action == "add":
            spec = TenantSpec.from_jsonable(request["spec"])
            service.request_add_tenant(spec,
                                       clone_from=request.get("clone_from"))
            return {"ok": True, "queued": True, "tenant": spec.name}
        if action == "remove":
            name = request["name"]
            service.request_remove_tenant(name)
            return {"ok": True, "queued": True, "tenant": name}
        return {"ok": False, "error": f"unknown tenants action {action!r}"}

    def ingest_rate(self) -> tuple[float, float]:
        """``(events_per_second, window_seconds)`` from the history ring.

        The anchor is an immutable timestamped sample (or, before any
        sample exists this incarnation, the plane's own start), so
        concurrent pollers compute against the same window instead of
        racing over shared state.  Negative deltas (a rewound injected
        clock) clamp to zero.
        """
        now = self._clock()
        cursor = self.service.cursor
        history = self.history
        anchor = history.rate_anchor(now) if history is not None else None
        if anchor is None:
            anchor = (self._started, self._cursor0)
        elapsed = max(now - anchor[0], 1e-9)
        return max(0.0, (cursor - anchor[1]) / elapsed), elapsed

    def _cmd_metrics(self, request: dict) -> dict:
        service = self.service
        rate, window = self.ingest_rate()
        out = {"ok": True, **service.gauges(), "events_per_second": rate,
               "rate_window_seconds": window}
        age = service.checkpoint_age()
        if age is not None:
            out["checkpoint_age_seconds"] = age
            out["checkpoint_path"] = service.checkpoints.latest()
        if self.stream is not None:
            out["quarantined"] = int(self.stream.quarantine.total)
            listener = getattr(self.stream, "listener", None)
            if listener is not None:
                out["batch_decode_latency"] = tail_stats(
                    listener.decode_seconds)
        out["trigger_latency"] = tail_stats(
            [s for t in list(service.tenants)
             for s in t.trigger_latency_log])
        # TARE-style daily-miss tails per tenant over *settled* days
        # only; the fleet admin merges these per shard so hot shards
        # stay visible behind fleet-level means.
        settled = min(out["next_boundary"], service.n_days)
        out["miss_tails"] = {
            t.name: tail_stats(t.metrics.misses[:settled].tolist())
            for t in list(service.tenants)}
        history = self.history
        if history is not None:
            out["history_samples"] = history.seq
            n = request.get("history")
            if n:
                out["history"] = history.tail(int(n))
        return out

    def _cmd_activity(self, request: dict) -> dict:
        out = {"ok": True}
        out.update(self.service.activity_summary())
        return out

    def render_metrics(self) -> str:
        rate, _window = self.ingest_rate()
        return render_prometheus(
            self.service, stream=self.stream, admin=self,
            history=self.history, rate=rate,
            uptime=self._clock() - self._started)

    def _cmd_query(self, request: dict) -> dict:
        if "uid" not in request:
            return {"ok": False, "error": "query needs a uid"}
        out = {"ok": True}
        out.update(self.service.query_user(int(request["uid"])))
        return out

    def _cmd_shard_split(self, request: dict) -> dict:
        try:
            boundary = int(request["at_boundary"])
            dest_dir = request["dest_dir"]
            ring = HashRing.from_jsonable(request["ring"])
            new_shard = request["new_shard"]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"bad shard-split request: {exc}"}
        try:
            self.service.request_split(at_boundary=boundary,
                                       dest_dir=dest_dir, ring=ring,
                                       new_shard=new_shard)
        except ValueError as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, "queued": True, "at_boundary": boundary,
                "dest_dir": dest_dir}


def admin_request(address: str, request: dict, *,
                  timeout: float = 10.0) -> dict:
    """One admin round-trip: connect, send ``request``, return the answer."""
    sock = connect_socket(address, timeout=timeout)
    try:
        write_frame(sock, request)
        reader = FrameReader(sock)
        response = reader.read()
        if response is None:
            raise ConnectionError(f"admin server at {address} closed the "
                                  f"connection without answering")
        return response
    finally:
        try:
            sock.close()
        except OSError:
            pass


def scrape_metrics(address: str, *, timeout: float = 10.0) -> str:
    """One HTTP ``GET /metrics`` against the admin socket; the text body.

    Raises :class:`ConnectionError` on a non-200 status, so CI smoke
    gates read as one call + assertions on the body.
    """
    sock = connect_socket(address, timeout=timeout)
    try:
        sock.sendall(b"GET /metrics HTTP/1.0\r\n"
                     b"Host: repro-admin\r\n\r\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        try:
            sock.close()
        except OSError:
            pass
    raw = b"".join(chunks)
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        head, sep, body = raw.partition(b"\n\n")
    status = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    if " 200 " not in f"{status} ":
        raise ConnectionError(f"scrape of {address} failed: {status!r}")
    return body.decode("utf-8", "replace")
