"""Deterministic network chaos: a FaultPlan-scripted TCP proxy.

:class:`ChaosProxy` sits between publishers and a socket-ingest server
and applies scripted faults to the client->server byte stream of each
proxied connection -- severing connections mid-frame, stalling,
corrupting, dropping, or splitting bytes -- at exact, seeded byte
offsets, so a chaos test replays the identical failure sequence every
run.

Targets and offsets
-------------------
When a client connects, the proxy peeks its first frame (the ``hello``)
to learn which source the connection feeds and keys the connection to
the fault target ``<name>:<source>`` (default ``net:jobs``,
``net:accesses``, ...).  The spec's ``at`` is the **cumulative**
client->server byte offset for that target across *all* of its
connections: after a sever, the producer reconnects and resumes, and
the resumed bytes keep counting from where the severed connection
stopped.  That makes multi-sever schedules deterministic end to end:
the bytes a server received before a sever are a pure function of the
offset, hence so is its resume cursor, hence so are the bytes the
producer sends next.

Kinds (see :data:`~repro.faults.plan.NET_KINDS`):

* ``sever`` -- forward exactly ``at`` bytes, then hard-close both
  sides (the mid-frame tear every reconnect path must survive).
* ``stall`` -- sleep ``arg`` seconds (default 0.05) at the offset.
* ``corrupt`` -- flip one seeded bit of the byte at the offset.
* ``drop`` -- swallow ``arg`` bytes (default 1) at the offset.
* ``split`` -- forward the next ``arg`` bytes (default 1) one byte per
  send, forcing frame reassembly on the receiver.

Server->client bytes (acks) are relayed verbatim: the interesting
failure surface is the event stream, and keeping acks clean makes the
deterministic-cursor argument airtight.
"""

from __future__ import annotations

import socket
import threading
import time

from .plan import NET_KINDS, FaultPlan, FaultSpec

__all__ = ["ChaosProxy"]

_CHUNK = 65536
_PEEK_LIMIT = 1 << 20


class _Severed(Exception):
    """Internal: a sever fault fired on this connection."""


class ChaosProxy:
    """A scripted man-in-the-middle for socket ingestion.

    ``listen`` and ``upstream`` are address specs in the server's
    ``host:port`` / ``unix:/path`` syntax.  The proxy accepts any
    number of connections, each handled by a pair of pump threads; it
    is transparent when the plan has no matching specs.
    """

    def __init__(self, listen: str, upstream: str, plan: FaultPlan, *,
                 name: str = "net", backlog: int = 16,
                 connect_timeout: float = 10.0) -> None:
        # Runtime import: the address/listener helpers live with the
        # wire protocol, and faults.plan must stay importable without
        # the server package.
        from ..server.protocol import create_listener

        self.upstream = upstream
        self.plan = plan
        self.name = name
        self.connect_timeout = connect_timeout
        self.connections = 0
        self.severed = 0
        self.stalled = 0
        self.corrupted = 0
        self.dropped_bytes = 0
        self.splits = 0
        self.forwarded_bytes = 0
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._sock = create_listener(listen, backlog)
        if listen.startswith("unix:"):
            self.address = listen
        else:
            host, port = self._sock.getsockname()[:2]
            self.address = f"{host}:{port}"
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"chaos-proxy:{self.address}",
            daemon=True)
        self._accept_thread.start()

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def close(self) -> None:
        if self._closed.is_set():
            return
        from ..server.protocol import close_listener  # see __init__

        self._closed.set()
        close_listener(self._sock)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def describe(self) -> dict:
        return {
            "address": self.address,
            "upstream": self.upstream,
            "connections": self.connections,
            "severed": self.severed,
            "stalled": self.stalled,
            "corrupted": self.corrupted,
            "dropped_bytes": self.dropped_bytes,
            "splits": self.splits,
            "forwarded_bytes": self.forwarded_bytes,
        }

    # -- accept/pump ---------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            with self._lock:
                self.connections += 1
            thread = threading.Thread(
                target=self._handle, args=(conn,),
                name=f"chaos-conn:{self.address}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _peek_source(self, csock: socket.socket) -> tuple[bytes, str]:
        """Buffer the first frame and extract the hello's source name.

        The buffered bytes are NOT consumed -- they are returned and
        forwarded through the fault pipeline like everything else, so
        offsets count from the very first byte of the connection.
        """
        import json

        buf = b""
        while len(buf) < _PEEK_LIMIT:
            nl = buf.find(b"\n")
            if nl >= 0:
                try:
                    need = nl + 1 + int(buf[:nl]) + 1
                except ValueError:
                    return buf, "unknown"
                if len(buf) >= need:
                    try:
                        hello = json.loads(buf[nl + 1:need - 1])
                        return buf, str(hello.get("source", "unknown"))
                    except (ValueError, AttributeError):
                        return buf, "unknown"
            chunk = csock.recv(_CHUNK)
            if not chunk:
                return buf, "unknown"
            buf += chunk
        return buf, "unknown"

    def _specs_for(self, target: str) -> list[FaultSpec]:
        return sorted(
            (s for s in self.plan.specs
             if s.target == target and s.kind in NET_KINDS),
            key=lambda s: s.at)

    def _feed(self, ssock: socket.socket, data: bytes,
              specs: list[FaultSpec], cell) -> None:
        """Forward ``data`` upstream, applying any due faults."""
        plan = self.plan
        while data:
            hit = None
            window_end = cell.n + len(data)
            for spec in specs:
                if spec.at >= window_end:
                    break  # sorted: nothing further is due either
                if plan.fired(spec) >= spec.count:
                    continue
                if spec.at >= cell.n:
                    hit = spec
                    break
            if hit is None:
                ssock.sendall(data)
                with self._lock:
                    self.forwarded_bytes += len(data)
                cell.n += len(data)
                return
            cut = hit.at - cell.n
            if cut:
                ssock.sendall(data[:cut])
                with self._lock:
                    self.forwarded_bytes += cut
                cell.n += cut
                data = data[cut:]
            if not plan.claim(hit):
                continue
            kind = hit.kind
            if kind == "sever":
                with self._lock:
                    self.severed += 1
                raise _Severed
            if kind == "stall":
                with self._lock:
                    self.stalled += 1
                time.sleep(hit.arg if hit.arg is not None else 0.05)
            elif kind == "corrupt":
                flipped = bytearray(data[:1])
                flipped[0] ^= 1 << plan.rng(hit).randrange(8)
                ssock.sendall(bytes(flipped))
                with self._lock:
                    self.corrupted += 1
                    self.forwarded_bytes += 1
                cell.n += 1
                data = data[1:]
            elif kind == "drop":
                k = min(int(hit.arg or 1), len(data))
                with self._lock:
                    self.dropped_bytes += k
                cell.n += k  # dropped bytes still occupy stream offsets
                data = data[k:]
            elif kind == "split":
                k = min(int(hit.arg or 1), len(data))
                for i in range(k):
                    ssock.sendall(data[i:i + 1])
                with self._lock:
                    self.splits += 1
                    self.forwarded_bytes += k
                cell.n += k
                data = data[k:]

    def _pump_down(self, ssock: socket.socket,
                   csock: socket.socket) -> None:
        """Relay server->client bytes (acks) verbatim."""
        try:
            while True:
                chunk = ssock.recv(_CHUNK)
                if not chunk:
                    break
                csock.sendall(chunk)
        except OSError:
            pass
        try:
            csock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def _handle(self, csock: socket.socket) -> None:
        from ..server.protocol import connect_socket

        ssock: socket.socket | None = None
        try:
            head, source = self._peek_source(csock)
            target = f"{self.name}:{source}"
            specs = self._specs_for(target)
            cell = self.plan.counter(target)
            try:
                ssock = connect_socket(self.upstream,
                                       timeout=self.connect_timeout)
            except OSError:
                return  # upstream down: client sees EOF and retries
            ssock.settimeout(None)
            down = threading.Thread(
                target=self._pump_down, args=(ssock, csock),
                name=f"chaos-down:{self.address}", daemon=True)
            down.start()
            try:
                if head:
                    self._feed(ssock, head, specs, cell)
                while True:
                    chunk = csock.recv(_CHUNK)
                    if not chunk:
                        try:
                            ssock.shutdown(socket.SHUT_WR)
                        except OSError:
                            pass
                        break
                    self._feed(ssock, chunk, specs, cell)
            except _Severed:
                # Hard-close both sides NOW: the server sees a clean
                # EOF after an exact byte prefix; the client sees a
                # reset mid-send and enters its backoff/reconnect loop.
                for sock_ in (ssock, csock):
                    try:
                        sock_.close()
                    except OSError:
                        pass
                return
            except OSError:
                pass
            down.join()
        finally:
            for sock_ in (ssock, csock):
                if sock_ is None:
                    continue
                try:
                    sock_.close()
                except OSError:
                    pass
