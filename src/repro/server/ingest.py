"""Socket ingestion: many producers, one quarantined ordered merge.

:class:`SocketListener` accepts producer connections on a TCP or Unix
socket.  Each producer handshakes with a ``hello`` frame naming the
**source** it feeds (``jobs``, ``publications``, ``accesses``, or any
shard name the server was told to expect), then streams event frames.
A reader thread per connection decodes frames and appends the events to
that source's bounded queue -- the bound is the backpressure valve: when
the engine falls behind, queues fill, reader threads block on ``put``,
and TCP flow control pushes back on the producers.

:class:`SocketSource` is the consuming half: a named, health-tracked
iterator draining one source queue into batches, satisfying the same
contract the file-backed
:class:`~repro.stream.reliability.sources.ResilientSource` satisfies, so
:class:`NetworkEventStream` can reuse the reliability layer's
quarantine and ``horizon_merge`` unchanged.  **Out-of-order events
hit the quarantine, never the engine**: every socket source is guarded
by the shared :class:`~repro.stream.reliability.quarantine.EventQuarantine`
before the merge, so a producer that regresses in time, redelivers a
job id, or ships garbage gets its offending events dead-lettered while
the stream stays clean.

Determinism contract: with one producer per source, each source's event
order is the producer's send order (TCP preserves it), and the merge
breaks timestamp ties by source listing order -- so publishing a
workspace's three trace files over three connections reconstructs
*exactly* the sequence ``workspace_event_stream`` yields from disk,
which is what keeps networked runs bit-identical to batch.  Multiple
concurrent producers per source are accepted (their events interleave
at queue order) for throughput workloads that do not need bit-identity.

A source *finishes* when as many producers as the server expects have
sent ``end`` frames; when every source has finished, the merge is
exhausted and the engine finalizes.  ``end`` is idempotent per producer
*session*: a client that lost the end-ack and retries is acked again
without double-counting toward the quota.

Exactly-once sequencing
-----------------------
Each source keeps an **acked cursor**: the highest per-source sequence
number received contiguously from seq 1 (or from the durable cursor a
resumed server was constructed with).  The hello ack reports it, so a
reconnecting producer resumes from ``cursor + 1`` instead of replaying
its round.  At the edge, a frame whose sequence numbers are entirely at
or below the cursor is discarded as a duplicate (counted, never
decoded for batches); a batch that *straddles* the cursor has its
already-seen prefix rows dropped; a frame that would leave a gap gets
an error frame and a closed connection -- the producer backs off,
reconnects, and relearns the cursor.  Unsequenced frames (legacy
producers) are assigned ``cursor + 1`` implicitly, so the cursor is
always meaningful.  The engine-side :class:`SequenceLedger` maps the
service's global consumed-event cursor back to exact per-source
sequence numbers at every checkpoint, which is what makes the cursor
*durable* across kill -9 + resume.

Overload protection: a listener constructed with ``max_connections``
refuses excess connections with a retryable ``busy`` error frame
(clients back off with jittered exponential delays), and every ack
write runs under ``write_deadline`` -- a producer that stops draining
its socket is evicted instead of wedging a reader thread.

Producing side: :class:`ProducerSession` is the one producer
connection -- one hello, one ack, frames sized exactly against the
negotiated cap, one ``end`` -- shared by :func:`publish_events`,
:func:`publish_batches`, :func:`publish_workspace` and the shard
router's lanes, and every publish retries through one loop.
"""

from __future__ import annotations

import hmac
import itertools
import os
import queue
import random
import socket
import threading
import time
from collections import deque
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from ..stream.batch import BatchBuilder, EventBatch, horizon_merge
from ..stream.events import StreamEvent
from ..stream.reliability.quarantine import (REASON_CORRUPT_FRAME,
                                             REASON_UNPARSABLE)
from ..stream.reliability.sources import ReliableEventStream, SourceHealth
from .metrics import Counter
from .protocol import (BATCH_MAX_FRAME_BYTES, CAP_BATCH, CAP_ZLIB,
                       MAX_FRAME_BYTES, MIN_FRAME_BYTES, PROTOCOL_V1,
                       PROTOCOL_V2, SUPPORTED_PROTOCOLS, BatchFormatError,
                       BinaryFrame, FrameError, FrameReader, close_listener,
                       connect_socket, create_listener, decode_batch,
                       decode_event, encode_batch, encode_batch_frame,
                       encode_event, encode_frame, write_frame)

__all__ = ["DEFAULT_SOURCES", "DEFAULT_BATCH_EVENTS", "SocketSource",
           "SocketListener", "NetworkEventStream", "SequenceLedger",
           "PublishRefused", "ProducerSession", "publish_events",
           "publish_batches", "publish_workspace"]

#: The canonical trace families, in merge tie-break order.
DEFAULT_SOURCES = ("jobs", "publications", "accesses")

#: Default most rows per binary batch frame.  Big enough to amortize
#: the per-frame fixed costs (syscall, CRC, column headers, one
#: validation and intern pass per batch) to noise, small enough that
#: the merge granularity stays far below a trigger day.  Bytes are not
#: estimated from it: a batch whose payload exceeds the negotiated cap
#: is split until every frame fits (:meth:`ProducerSession.send_batch`).
DEFAULT_BATCH_EVENTS = 8192

_END = object()  # queue sentinel: the source has finished


class SocketSource:
    """One named event source fed by producer connections.

    Iterating blocks on the queue until items arrive or the source
    finishes, and yields :class:`EventBatch` items: each v2 batch as
    admitted, and each run of consecutively queued v1 events as one
    batch.  ``pos``/``watermark``/``health`` mirror
    :class:`ResilientSource` so the reliability report treats socket and
    file sources uniformly.

    The source owns the edge half of exactly-once ingestion:
    ``acked_seq`` is the highest contiguously received per-source
    sequence number (starting at ``start_seq``, the durable cursor of a
    resumed server), and :meth:`admit_event`/:meth:`admit_batch` decide
    -- atomically with the queue push, so concurrent producer
    connections cannot interleave out of sequence order -- whether an
    incoming frame extends the stream, duplicates it, or leaves a gap.
    """

    def __init__(self, name: str, expected_producers: int = 1,
                 queue_size: int = 10_000, start_seq: int = 0) -> None:
        if expected_producers < 1:
            raise ValueError("expected_producers must be >= 1")
        self.name = name
        self.expected_producers = expected_producers
        self.queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self.pos = 0                 # rows yielded to the merge
        self.watermark: int | None = None
        self.health = SourceHealth.OK
        self.episodes = 0            # kept 0: sockets have no retry loop
        self.retries = 0
        self.last_error: str | None = None
        self.connected_producers = 0
        self.ended_producers = 0
        #: Sessions whose ``end`` has been acked: makes ``end``
        #: idempotent under reconnect (a retried end is re-acked, not
        #: double-counted toward ``expected_producers``).
        self.ended_sessions: set[str] = set()
        #: Highest contiguously received sequence number.
        self.start_seq = int(start_seq)
        self.acked_seq = int(start_seq)
        self.duplicate_rows = 0      # resent rows discarded at the edge
        self.sequence_gaps = 0       # frames refused for leaving a gap
        self._lock = threading.Lock()
        self._finished = threading.Event()

    # -- listener side -------------------------------------------------

    def attach_producer(self, session: str | None = None) -> bool:
        """Register one producer connection; False when already finished.

        A session that already ended may still reattach to a finished
        source -- everything it can send is a duplicate or a retried
        (idempotent) ``end``, which lets a producer that lost its
        end-ack confirm completion instead of erroring forever.
        """
        with self._lock:
            if self._finished.is_set():
                return session is not None and session in self.ended_sessions
            self.connected_producers += 1
            return True

    def producer_ended(self, session: str | None = None) -> None:
        """One producer sent ``end``; finish the source at the quota."""
        with self._lock:
            if session is not None:
                if session in self.ended_sessions:
                    return  # retried end: already counted
                self.ended_sessions.add(session)
            if self._finished.is_set():
                return
            self.ended_producers += 1
            if self.ended_producers >= self.expected_producers:
                self._finished.set()
                self.queue.put(_END)

    def push(self, event: object) -> None:
        """Enqueue one item, auto-assigning its sequence numbers.

        Compat entry point (tests, custom feeders): equivalent to
        :meth:`admit_event`/:meth:`admit_batch` with no explicit seq.
        """
        if type(event) is EventBatch:
            self.admit_batch(event, None)
        else:
            self.admit_event(event, None)

    def admit_event(self, event: object, seq: int | None) -> str:
        """Admit one event with per-source sequence number ``seq``.

        Returns ``"ok"`` (pushed), ``"dup"`` (already received,
        discarded), or ``"gap"`` (would skip sequence numbers; the
        caller must refuse the connection).  ``seq=None`` auto-assigns
        the next number (unsequenced legacy producers).
        """
        with self._lock:
            if seq is None:
                seq = self.acked_seq + 1
            if seq <= self.acked_seq:
                self.duplicate_rows += 1
                return "dup"
            if seq > self.acked_seq + 1:
                self.sequence_gaps += 1
                return "gap"
            if self._finished.is_set():
                return "finished"  # merge already saw _END; never push
            self.acked_seq = seq
            # Push under the lock: admission order IS queue order, even
            # with concurrent producer connections on one source.
            self.queue.put((seq, event))
        return "ok"

    def admit_batch(self, batch: EventBatch, first_seq: int | None,
                    ) -> tuple[str, int]:
        """Admit one decoded batch whose first row is ``first_seq``.

        Returns ``(disposition, dup_rows)`` where disposition is
        ``"ok"``/``"dup"``/``"gap"`` and ``dup_rows`` counts rows
        discarded as duplicates (the whole batch, or the already-seen
        prefix of a batch straddling the cursor -- the surviving suffix
        is pushed with its seq provenance intact).
        """
        n = batch.n
        if n == 0:
            return "ok", 0
        with self._lock:
            if first_seq is None:
                first_seq = self.acked_seq + 1
            end_seq = first_seq + n - 1
            if end_seq <= self.acked_seq:
                self.duplicate_rows += n
                return "dup", n
            if first_seq > self.acked_seq + 1:
                self.sequence_gaps += 1
                return "gap", 0
            if self._finished.is_set():
                return "finished", 0
            batch.first_seq = int(first_seq)
            batch.seq_width = n
            dup = self.acked_seq + 1 - first_seq
            if dup > 0:
                self.duplicate_rows += dup
                batch = batch.drop_seq_prefix(dup)
            self.acked_seq = end_seq
            self.queue.put((end_seq, batch))
        return "ok", max(dup, 0)

    @property
    def finished(self) -> bool:
        return self._finished.is_set()

    def finish(self) -> None:
        """Finish the source now (listener close), never blocking.

        A full queue means the merge has stopped reading or is about to
        drain it; either way the end marker is not needed there, because
        the iterator also ends at an empty queue once ``finished`` is
        set -- after every queued item.
        """
        self._finished.set()
        try:
            self.queue.put_nowait(_END)
        except queue.Full:
            pass

    # -- merge side ----------------------------------------------------

    def __iter__(self) -> Iterator:
        """Drain the queue in admission order.

        A v1 event is batched with the v1 events queued right behind it
        -- only what is already queued, at most ``DEFAULT_BATCH_EVENTS``
        -- and stamped with the run's sequence numbers, so the batch
        size follows the backlog with no flush rule or timer.
        """
        q = self.queue
        held = None
        while True:
            if held is not None:
                entry, held = held, None
            else:
                try:
                    entry = q.get_nowait()
                except queue.Empty:
                    if self._finished.is_set():
                        return
                    entry = q.get()
            if entry is _END:
                return
            seq, item = entry
            if type(item) is StreamEvent:
                events = [item]
                while len(events) < DEFAULT_BATCH_EVENTS:
                    try:
                        entry = q.get_nowait()
                    except queue.Empty:
                        break
                    if entry is _END or type(entry[1]) is not StreamEvent:
                        held = entry
                        break
                    events.append(entry[1])
                builder = BatchBuilder()
                builder.extend(events)
                item = builder.build()
                item.first_seq = seq
                item.seq_width = len(events)
            if type(item) is EventBatch and item.n:
                self.pos += item.n
                self.watermark = int(item.ts[-1])
            yield item

    def describe(self) -> dict:
        return {
            "health": self.health.value,
            "pos": self.pos,
            "watermark": self.watermark,
            "retries": self.retries,
            "episodes": self.episodes,
            "last_error": self.last_error,
            "producers_connected": self.connected_producers,
            "producers_ended": self.ended_producers,
            "producers_expected": self.expected_producers,
            "finished": self.finished,
            "queued": self.queue.qsize(),
            "acked_seq": self.acked_seq,
            "start_seq": self.start_seq,
            "duplicate_rows": self.duplicate_rows,
            "sequence_gaps": self.sequence_gaps,
        }


class SocketListener:
    """Accepts producer connections and routes their events to sources.

    ``expected`` maps source name to the number of producers that must
    ``end`` before that source is considered complete (default: the
    three canonical trace families, one producer each).  Source listing
    order is the merge tie-break order, so callers that need the
    canonical activity-before-access ordering list jobs and publications
    before accesses -- :data:`DEFAULT_SOURCES` already does.
    """

    def __init__(self, address: str, *,
                 expected: Mapping[str, int] | Iterable[str] = DEFAULT_SOURCES,
                 queue_size: int = 10_000, backlog: int = 16,
                 protocols: Iterable[int] = SUPPORTED_PROTOCOLS,
                 max_batch_frame_bytes: int = BATCH_MAX_FRAME_BYTES,
                 initial_cursors: Mapping[str, int] | None = None,
                 auth_token: str | None = None,
                 max_connections: int | None = None,
                 write_deadline: float | None = 30.0,
                 ssl_context=None) -> None:
        if not isinstance(expected, Mapping):
            expected = {name: 1 for name in expected}
        if not expected:
            raise ValueError("a listener needs at least one expected source")
        self.address = address
        #: Protocol versions this listener will accept in ``hello``;
        #: ``(1,)`` makes a v1-only server for fallback testing.
        self.protocols = tuple(protocols)
        #: Ceiling granted to v2 peers asking for a batch-frame cap.
        self.max_batch_frame_bytes = int(max_batch_frame_bytes)
        #: Shared-secret required in every hello when set (compared
        #: constant-time; mismatches are refused ``unauthorized``).
        self.auth_token = auth_token
        #: Connection quota: excess producers get a retryable ``busy``
        #: refusal instead of a reader thread.
        self.max_connections = max_connections
        #: Seconds an ack write may block before the client is judged
        #: stuck and evicted (None disables the deadline).
        self.write_deadline = write_deadline
        #: Server-side :class:`ssl.SSLContext`; accepted connections are
        #: wrapped (handshake in the reader thread, so a stalled
        #: handshake never blocks the accept loop).
        self.ssl_context = ssl_context
        initial_cursors = dict(initial_cursors or {})
        self._sources: dict[str, SocketSource] = {
            name: SocketSource(name, count, queue_size,
                               start_seq=int(initial_cursors.get(name, 0)))
            for name, count in expected.items()}
        #: ``on_decode_error(source_name, detail, raw, reason)`` -- wired
        #: to the quarantine by :class:`NetworkEventStream`; a bare
        #: listener counts decode errors but has nowhere to divert them.
        self.on_decode_error: Callable[[str, str, object, str],
                                       None] | None = None
        # Lock-guarded counters: each is bumped from many concurrent
        # reader threads, where a plain int += would be a lost-update
        # race (int() them for JSON).
        self.decode_errors = Counter()
        self.connections_accepted = Counter()
        self.connections_refused = Counter()
        #: Per-batch decode wall seconds, appended by reader threads
        #: (deque appends are atomic); the admin plane and the bench
        #: derive p50/p95/p99 tails from this window.
        self.decode_seconds: deque[float] = deque(maxlen=4096)
        self.batches_received = Counter()
        self.batch_rows_received = Counter()
        self.duplicates_discarded = Counter()   # resent rows dropped
        self.sequence_gaps = Counter()          # connections gap-refused
        self.busy_refusals = Counter()          # quota refusals
        self.auth_failures = Counter()          # bad/missing auth tokens
        self.slow_clients_evicted = Counter()   # write-deadline evictions
        self.tls_handshake_failures = Counter()  # failed/absent TLS hellos
        self._active_connections = Counter()
        self._sock = create_listener(address, backlog)
        if not address.startswith("unix:"):
            # Resolve "host:0" to the actual bound port so tests (and
            # proxies) can dial the listener from its ``.address``.
            host, port = self._sock.getsockname()[:2]
            self.address = f"{host}:{port}"
        self._closed = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"listener:{address}",
            daemon=True)
        self._accept_thread.start()

    # -- sources -------------------------------------------------------

    def sources(self) -> list[SocketSource]:
        """The expected sources, in declaration (= tie-break) order."""
        return list(self._sources.values())

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def close(self) -> None:
        """Stop accepting; finish every unfinished source."""
        if self._closed.is_set():
            return
        self._closed.set()
        close_listener(self._sock)
        for source in self._sources.values():
            if not source.finished:
                source.finish()

    def __enter__(self) -> "SocketListener":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- connection handling -------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listener closed
            if self.max_connections is not None and \
                    int(self._active_connections) >= self.max_connections:
                self.connections_refused += 1
                self.busy_refusals += 1
                reason = (f"busy: {int(self._active_connections)} "
                          f"active connections (quota "
                          f"{self.max_connections})")
                # The refusal still needs the server-side TLS handshake
                # before the error frame can be written; hand it to a
                # short-lived thread so a slow or hostile client cannot
                # stall the accept loop (handshakes run off-loop, same
                # as for accepted connections).
                threading.Thread(
                    target=self._refuse_busy, args=(conn, reason),
                    name=f"refuse:{self.address}", daemon=True).start()
                continue
            self._active_connections += 1
            self.connections_accepted += 1
            thread = threading.Thread(
                target=self._serve_producer, args=(conn,),
                name=f"producer:{self.address}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _refuse_busy(self, conn: socket.socket, reason: str) -> None:
        try:
            conn.settimeout(1.0)
            if self.ssl_context is not None:
                conn = self.ssl_context.wrap_socket(
                    conn, server_side=True)
            write_frame(conn, {"type": "error", "retryable": True,
                               "reason": reason})
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _write(self, conn: socket.socket, obj: dict) -> bool:
        """Write one ack/error frame under the write deadline.

        Returns False (after counting the eviction) when the client
        stopped draining its socket for ``write_deadline`` seconds --
        the caller must drop the connection instead of wedging its
        reader thread on a dead peer.
        """
        if self.write_deadline is not None:
            try:
                conn.settimeout(self.write_deadline)
            except OSError:
                return False
        try:
            write_frame(conn, obj)
            return True
        except socket.timeout:
            self.slow_clients_evicted += 1
            return False
        except OSError:
            return False
        finally:
            try:
                conn.settimeout(None)
            except OSError:
                pass

    def _divert(self, source_name: str, detail: str, raw: object,
                reason: str = REASON_UNPARSABLE) -> None:
        self.decode_errors += 1
        hook = self.on_decode_error
        if hook is not None:
            hook(source_name, detail, raw, reason)

    def _handshake(self, conn: socket.socket, reader: FrameReader,
                   ) -> tuple[SocketSource, bool, str | None] | None:
        """Validate a hello; returns ``(source, batch, session)``.

        A v2 hello negotiates capabilities and the batch frame cap: the
        reply echoes the intersection of what both sides support, and
        ``reader.max_frame_bytes`` is raised to the granted cap only
        after the hello is accepted.  Unknown capability tokens are
        ignored on both sides, so a peer asking for something this
        build does not know simply does not get it -- and a peer that
        cannot speak any accepted protocol version gets an error frame
        it can use to fall back to v1.

        The ok ack always carries ``"cursor"``, the source's highest
        contiguously received sequence number: a reconnecting producer
        resumes from ``cursor + 1``.  When the listener holds an auth
        token, the hello's ``"auth"`` must match it (constant-time
        compare) or the connection is refused ``unauthorized``.
        """
        hello = reader.read_message()
        if hello is None:
            return None
        if hello.get("type") != "hello":
            self._write(conn, {"type": "error",
                               "reason": "expected a hello frame"})
            return None
        if self.auth_token is not None:
            offered = hello.get("auth")
            if not isinstance(offered, str) or not hmac.compare_digest(
                    offered.encode("utf-8"),
                    self.auth_token.encode("utf-8")):
                self.auth_failures += 1
                self.connections_refused += 1
                self._write(conn, {"type": "error",
                                   "reason": "unauthorized: hello auth "
                                             "token missing or wrong"})
                return None
        proto = hello.get("protocol")
        if proto not in self.protocols:
            self._write(conn, {"type": "error",
                               "reason": f"unsupported protocol "
                                         f"{proto!r} (accepted: "
                                         f"{list(self.protocols)})"})
            return None
        name = hello.get("source")
        source = self._sources.get(name)
        if source is None:
            self.connections_refused += 1
            self._write(conn, {"type": "error",
                               "reason": f"unexpected source {name!r} "
                                         f"(expected "
                                         f"{sorted(self._sources)})"})
            return None
        session = hello.get("session")
        if session is not None:
            session = str(session)
        if not source.attach_producer(session):
            self.connections_refused += 1
            self._write(conn, {"type": "error",
                               "reason": f"source {name!r} already "
                                         f"finished"})
            return None
        batch = False
        ok: dict = {"type": "ok", "protocol": proto, "source": name,
                    "cursor": source.acked_seq}
        if session is not None:
            ok["session"] = session
        if proto >= PROTOCOL_V2:
            asked = hello.get("capabilities") or ()
            granted = [c for c in (CAP_BATCH, CAP_ZLIB) if c in asked]
            batch = CAP_BATCH in granted
            try:
                want = int(hello.get("max_frame_bytes", MAX_FRAME_BYTES))
            except (TypeError, ValueError):
                want = MAX_FRAME_BYTES
            cap = max(MIN_FRAME_BYTES, min(want, self.max_batch_frame_bytes))
            ok["capabilities"] = granted
            ok["max_frame_bytes"] = cap
        if not self._write(conn, ok):
            return None
        if batch:
            reader.max_frame_bytes = cap
        return source, batch, session

    def _refuse_seq(self, conn: socket.socket, source: SocketSource,
                    disposition: str, seq: object) -> None:
        """Answer a gap/finished admission and drop the connection.

        A gap means the producer and server disagree about the cursor
        (e.g. a relay producer racing ahead of its predecessor, or a
        resend past a corrupt frame): the refusal carries the cursor so
        a well-behaved client backs off, reconnects, and resumes from
        the right place.
        """
        if disposition == "gap":
            self.sequence_gaps += 1
            reason = (f"sequence gap on {source.name!r}: got seq {seq!r} "
                      f"with cursor {source.acked_seq}")
        else:
            reason = f"source {source.name!r} already finished"
        self._write(conn, {"type": "error", "reason": reason,
                           "retryable": True,
                           "cursor": source.acked_seq})

    def _serve_producer(self, conn: socket.socket) -> None:
        received = 0
        source: SocketSource | None = None
        perf = time.perf_counter
        try:
            if self.ssl_context is not None:
                try:
                    conn.settimeout(self.write_deadline or 30.0)
                    conn = self.ssl_context.wrap_socket(conn,
                                                        server_side=True)
                    conn.settimeout(None)
                except OSError:
                    # A plaintext or mis-certified client: there is no
                    # channel to answer on, so count and drop.
                    self.tls_handshake_failures += 1
                    self.connections_refused += 1
                    return
            reader = FrameReader(conn)
            try:
                negotiated = self._handshake(conn, reader)
            except (FrameError, OSError):
                return
            if negotiated is None:
                return
            source, allow_batch, session = negotiated
            while True:
                try:
                    frame = reader.read()
                except FrameError as exc:
                    # A torn or garbled frame ends the connection: past
                    # the tear there is no sync point, so everything
                    # already decoded stays delivered and the rest is
                    # one diverted record, not a poisoned stream.  A
                    # sequenced producer reconnects, learns the cursor,
                    # and resends from the tear -- nothing is lost.
                    self._divert(source.name, f"FrameError: {exc}", None)
                    return
                if frame is None:
                    return  # producer vanished without end; may reconnect
                if type(frame) is BinaryFrame:
                    # Decode happens here, in this connection's reader
                    # thread, *before* the merge: per-connection decode
                    # is what lets multiple producers overlap instead of
                    # serializing inside the engine loop.
                    if not allow_batch:
                        self._divert(source.name,
                                     "binary frame without negotiated "
                                     "batch capability", None,
                                     REASON_CORRUPT_FRAME)
                        continue
                    t0 = perf()
                    try:
                        batch = decode_batch(frame)
                    except BatchFormatError as exc:
                        # The envelope framed the payload correctly, so
                        # the stream is still in sync: divert the frame
                        # as one dead-letter record and keep reading.
                        # (If the batch was sequenced, its seq was
                        # unreadable too, so the *next* frame leaves a
                        # gap and the producer resends past the damage
                        # on a fresh connection -- corruption costs a
                        # round-trip, never an event.)
                        self._divert(source.name,
                                     f"BatchFormatError: {exc}", None,
                                     REASON_CORRUPT_FRAME)
                        continue
                    self.decode_seconds.append(perf() - t0)
                    disposition, dup_rows = source.admit_batch(
                        batch, batch.first_seq)
                    if dup_rows:
                        self.duplicates_discarded += dup_rows
                    if disposition in ("gap", "finished"):
                        self._refuse_seq(conn, source, disposition,
                                         batch.first_seq)
                        return
                    self.batches_received += 1
                    self.batch_rows_received += batch.n
                    received += batch.n
                    continue
                ftype = frame.get("type")
                if ftype == "event":
                    seq = frame.get("seq")
                    if seq is not None:
                        try:
                            seq = int(seq)
                        except (TypeError, ValueError):
                            self._divert(source.name,
                                         f"bad seq {seq!r}", frame)
                            continue
                        if seq <= source.acked_seq:
                            # Cheap dedupe before any decode work.
                            source.duplicate_rows += 1
                            self.duplicates_discarded += 1
                            continue
                    try:
                        event = decode_event(frame)
                    except (KeyError, ValueError, TypeError) as exc:
                        # Divert WITHOUT advancing the cursor: the next
                        # in-sequence frame now leaves a gap, the
                        # connection is refused, and the producer
                        # resends this event on reconnect -- so a
                        # transiently corrupted value costs one
                        # dead-letter record and a round-trip, not the
                        # event.
                        self._divert(source.name,
                                     f"{type(exc).__name__}: {exc}", frame)
                        continue
                    disposition = source.admit_event(event, seq)
                    if disposition == "dup":
                        self.duplicates_discarded += 1
                        continue
                    if disposition in ("gap", "finished"):
                        self._refuse_seq(conn, source, disposition, seq)
                        return
                    received += 1
                elif ftype == "end":
                    if not self._write(conn, {"type": "ok",
                                              "received": received,
                                              "cursor": source.acked_seq}):
                        return  # ack undeliverable; end not counted
                    source.producer_ended(session)
                    return
                else:
                    self._divert(source.name,
                                 f"unknown frame type {ftype!r}", frame)
        finally:
            self._active_connections += -1
            try:
                conn.close()
            except OSError:
                pass

    def describe(self) -> dict:
        return {
            "address": self.address,
            "closed": self.closed,
            "connections_accepted": int(self.connections_accepted),
            "connections_refused": int(self.connections_refused),
            "decode_errors": int(self.decode_errors),
            "batches_received": int(self.batches_received),
            "batch_rows_received": int(self.batch_rows_received),
            "duplicates_discarded": int(self.duplicates_discarded),
            "sequence_gaps": int(self.sequence_gaps),
            "busy_refusals": int(self.busy_refusals),
            "auth_failures": int(self.auth_failures),
            "slow_clients_evicted": int(self.slow_clients_evicted),
            "tls_handshake_failures": int(self.tls_handshake_failures),
            "active_connections": int(self._active_connections),
            "sources": {name: src.describe()
                        for name, src in self._sources.items()},
        }


class SequenceLedger:
    """Maps the engine's global consumed-event count to per-source seqs.

    The durable cursor problem: a checkpoint stores *one* number -- how
    many merged events the service consumed -- but producers resume by
    *per-source* sequence number.  Engine counters cannot be decomposed
    after the fact (rows sitting in merge buffers or diverted rows
    would be mis-attributed), so the ledger records the decomposition
    as it happens: every merged run carries its rows' ``lineage`` --
    per row, the source it came from and the wire seq consuming it
    covers (the last surviving row of a batch covers the batch's whole
    wire width, trailing diverted rows included) -- and each source's
    cursor is the seq its last consumed row covers, a cut *inside* a
    run included.

    Single-threaded by construction: runs are noted by the engine
    thread as it pulls the merge, and snapshots run inside the engine's
    checkpoint hook.  The engine ingests a run whole before it pulls
    the next, so a snapshot always falls inside the newest run, and the
    ledger keeps only that run's lineage.
    """

    def __init__(self, names: Iterable[str],
                 start_seqs: Mapping[str, int]) -> None:
        self.names = list(names)
        self.watermarks: dict[str, int] = {
            name: int(start_seqs.get(name, 0)) for name in self.names}
        #: Consumed-count offset: the service's ``cursor`` at the point
        #: this ledger started observing the stream (resume support).
        self.origin = 0
        self._rows = None   # lineage of the newest run
        self._done = 0      # rows yielded to the engine before it

    def note_run(self, run) -> None:
        """Record the next merged :class:`BatchRun`; the one before it
        has been consumed whole."""
        if self._rows is not None:
            self._cover(self._rows)
            self._done += len(self._rows)
        self._rows = run.batch.lineage[run.lo:run.hi]

    def snapshot(self, consumed: int) -> dict:
        """Per-source cursors after the engine consumed ``consumed``
        merged events (the number a checkpoint stores as ``cursor``),
        a position inside the newest run."""
        k = consumed - self.origin - self._done
        if k > 0:
            self._cover(self._rows[:k])
        return {"source_seqs": {name: int(seq)
                                for name, seq in self.watermarks.items()},
                "cursor": int(consumed)}

    def _cover(self, rows) -> None:
        """Advance each source's cursor to the seq its last row among
        ``rows`` covers (a source's rows come in seq order)."""
        src, last = np.unique(rows[::-1, 0], return_index=True)
        for s, i in zip(src.tolist(), last.tolist()):
            self.watermarks[self.names[s]] = int(rows[len(rows) - 1 - i, 1])


class NetworkEventStream(ReliableEventStream):
    """A listener's sources behind the standard quarantined merge.

    Construction wires the listener's decode-error hook into the shared
    quarantine (reason code ``unparsable_row`` for JSON rows, matching
    a malformed trace line; ``corrupt_frame`` for a binary batch that
    fails its CRC or self-checks), then merges as the file-fed stream
    does: each source's batches are guarded by ``guard`` and merged by
    ``horizon_merge`` into mixed-kind ``BatchRun`` items, the rows in
    exactly the order a per-event merge would yield them.  ``report()``
    has the same shape for socket-fed and file-fed servers.

    The stream also feeds the :class:`SequenceLedger`:
    ``sequence_snapshot`` is the hook a
    :class:`~repro.server.tenants.MultiTenantService` calls at every
    checkpoint to persist per-source cursors.  On a resumed server,
    set :attr:`origin` to the restored service cursor before iterating.
    """

    def __init__(self, listener: SocketListener, *,
                 quarantine=None, known_uids=None, dead_letter=None) -> None:
        super().__init__(sources=listener.sources(), quarantine=quarantine,
                         known_uids=known_uids, dead_letter=dead_letter)
        self.listener = listener
        self.ledger = SequenceLedger(
            (s.name for s in self.sources),
            {s.name: s.start_seq for s in self.sources})

        def on_decode_error(source: str, detail: str, raw: object,
                            reason: str = REASON_UNPARSABLE) -> None:
            self.quarantine.divert(source, reason, detail, raw)

        listener.on_decode_error = on_decode_error

    @property
    def origin(self) -> int:
        return self.ledger.origin

    @origin.setter
    def origin(self, consumed: int) -> None:
        self.ledger.origin = int(consumed)

    def sequence_snapshot(self, consumed: int) -> dict:
        """Checkpoint hook: exact per-source cursors at ``consumed``."""
        return self.ledger.snapshot(consumed)

    @staticmethod
    def _stamped(index: int, guarded: Iterator) -> Iterator[EventBatch]:
        """Stamp every guarded batch with its rows' lineage."""
        for batch in guarded:
            orig = (batch.orig_rows if batch.orig_rows is not None
                    else np.arange(batch.n))
            lineage = np.empty((batch.n, 2), np.int64)
            lineage[:, 0] = index
            lineage[:, 1] = batch.first_seq + orig
            # The last surviving row covers any trailing diverted rows.
            lineage[-1, 1] = batch.first_seq + batch.seq_width - 1
            batch.lineage = lineage
            yield batch

    def __iter__(self) -> Iterator:
        ledger = self.ledger
        for run in horizon_merge(
                self._stamped(i, self.quarantine.guard(source.name, source))
                for i, source in enumerate(self.sources)):
            ledger.note_run(run)
            yield run

    def report(self) -> dict:
        out = super().report()
        out["listener"] = {key: value for key, value
                           in self.listener.describe().items()
                           if key != "sources"}
        return out

    def gauges(self) -> dict:
        """The stream's counters plus the listener's decode and batch
        counters and each source's queue depth."""
        listener = self.listener
        return {**super().gauges(),
                "decode_errors": int(listener.decode_errors),
                "batches_received": int(listener.batches_received),
                "batch_rows_received": int(listener.batch_rows_received),
                "queued": {src.name: src.queue.qsize()
                           for src in listener.sources()}}


# ---------------------------------------------------------------------------
# the producing side: one session, one retry loop


class PublishRefused(ConnectionError):
    """The server answered the handshake or end with an error frame.

    ``retryable`` says whether backing off and reconnecting can help:
    True for ``busy`` (quota), gaps, and transient refusals; False for
    ``unauthorized`` and ``unexpected source``, where retrying the same
    credentials/config would loop forever, and for a row that alone
    exceeds the negotiated frame cap.
    """

    def __init__(self, message: str, *, retryable: bool = True) -> None:
        super().__init__(message)
        self.retryable = retryable


_FATAL_REFUSALS = ("unauthorized", "unexpected source")


def _refusal_error(context: str, refusal: object) -> PublishRefused:
    text = refusal if isinstance(refusal, str) else repr(refusal)
    retryable = not any(marker in text for marker in _FATAL_REFUSALS)
    return PublishRefused(f"{context}: {text}", retryable=retryable)


def _backoff_delays(interval: float, cap: float,
                    rng: random.Random) -> Iterator[float]:
    """Jittered exponential backoff: ``interval * 2^k`` capped at
    ``cap``, each scaled by a uniform factor in [0.5, 1.0)."""
    attempt = 0
    while True:
        base = min(cap, interval * (1 << min(attempt, 16)))
        yield base * (0.5 + 0.5 * rng.random())
        attempt += 1


class ProducerSession:
    """One producer connection: one hello, one ack, frames, one ``end``.

    Connects and sends one hello -- protocol v2 asking for binary batch
    frames of up to ``frame_cap`` bytes (and zlib bodies when
    ``compress``), or protocol v1 when ``batch`` is false -- then waits
    for the ack; a refusal raises :class:`PublishRefused`.  The ack is
    read once: ``cursor`` (the highest sequence number the server holds
    contiguously), ``batch`` and ``zlib`` (the granted capabilities)
    and ``frame_cap`` (the negotiated cap).

    Frame size is exact, never estimated: :meth:`send_batch` encodes a
    batch and, while the payload exceeds the negotiated cap, halves it
    by rows (:meth:`EventBatch.subset` prunes each half's string pool)
    and re-encodes, so every frame fits.  A single row, or a raw
    payload, that alone exceeds the cap raises a non-retryable
    :class:`PublishRefused`: no reconnect can make it fit.
    """

    def __init__(self, address: str, source: str, *, producer: str,
                 session: str | None = None, batch: bool = True,
                 compress: bool = False,
                 frame_cap: int = BATCH_MAX_FRAME_BYTES,
                 auth_token: str | None = None, ssl_context=None,
                 connect_timeout: float = 10.0) -> None:
        self.source = source
        hello: dict = {"type": "hello", "source": source,
                       "producer": producer, "protocol": PROTOCOL_V1}
        if session is not None:
            hello["session"] = session
        if auth_token is not None:
            hello["auth"] = auth_token
        if batch:
            hello.update(protocol=PROTOCOL_V2,
                         capabilities=([CAP_BATCH, CAP_ZLIB] if compress
                                       else [CAP_BATCH]),
                         max_frame_bytes=int(frame_cap))
        self._sock = connect_socket(address, timeout=connect_timeout,
                                    ssl_context=ssl_context)
        try:
            self._reader = FrameReader(self._sock)
            write_frame(self._sock, hello)
            ack = self._reader.read_message()
            if ack is None or ack.get("type") != "ok":
                raise _refusal_error(
                    f"server refused producer of {source!r}",
                    (ack or {}).get("reason", "connection closed"))
            granted = ack.get("capabilities") or ()
            self.cursor = int(ack.get("cursor", 0))
            self.batch = (batch and ack.get("protocol") == PROTOCOL_V2
                          and CAP_BATCH in granted)
            self.zlib = compress and CAP_ZLIB in granted
            try:
                self.frame_cap = int(ack.get("max_frame_bytes",
                                             MAX_FRAME_BYTES))
            except (TypeError, ValueError):
                self.frame_cap = MAX_FRAME_BYTES
            self._sock.settimeout(None)  # streaming may block on backpressure
        except BaseException:
            self.close()
            raise

    def send_batch(self, batch: EventBatch, seq: int) -> None:
        """Send ``batch`` as rows ``seq, seq + 1, ...``: in batch frames
        that fit the negotiated cap, or as v1 event frames when the
        server granted no batch frames."""
        if not self.batch:
            for event in batch.iter_events():
                self.send_event(event, seq)
                seq += 1
            return
        payload = encode_batch(batch, compress=self.zlib, seq=seq)
        if len(payload) > self.frame_cap and batch.n > 1:
            half = batch.n // 2
            head = np.arange(batch.n) < half
            self.send_batch(batch.subset(head), seq)
            self.send_batch(batch.subset(~head), seq + half)
            return
        self.send_payload(payload)

    def send_payload(self, payload: bytes) -> None:
        """Send one encoded batch payload verbatim."""
        if not self.batch:
            raise PublishRefused(f"server granted no batch frames for "
                                 f"{self.source!r}", retryable=False)
        if len(payload) > self.frame_cap:
            raise PublishRefused(
                f"a batch payload of {len(payload)} bytes for "
                f"{self.source!r} exceeds the negotiated cap "
                f"({self.frame_cap}) and cannot be split",
                retryable=False)
        self._sock.sendall(encode_batch_frame(payload, self.frame_cap))

    def send_event(self, event: StreamEvent, seq: int) -> None:
        """Send one v1 event frame numbered ``seq``."""
        frame = encode_event(event)
        frame["seq"] = seq
        try:
            data = encode_frame(frame)
        except FrameError as exc:
            raise PublishRefused(f"event {seq} for {self.source!r}: {exc}",
                                 retryable=False) from None
        self._sock.sendall(data)

    def end(self) -> int:
        """Send ``end``; returns the cursor the server acked it with."""
        write_frame(self._sock, {"type": "end"})
        ack = self._reader.read_message()
        if ack is None or ack.get("type") != "ok":
            raise _refusal_error(
                f"server did not ack end of {self.source!r}",
                (ack or {}).get("reason", "connection closed"))
        return int(ack.get("cursor", self.cursor))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ProducerSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _publish(address: str, source: str, items, send: Callable, *,
             require_batch: bool = False, seq_offset: int = 0,
             retry_for: float = 0.0, retry_interval: float = 0.2,
             retry_cap: float = 5.0, retry_seed: int | None = None,
             stats: dict | None = None,
             sleep: Callable[[float], None] = time.sleep,
             clock: Callable[[], float] = time.monotonic,
             **options) -> int:
    """The one retry loop of every publish.

    Each attempt opens a :class:`ProducerSession` with ``options`` (one
    session id for all attempts), holds off while the server cursor is
    behind ``seq_offset``, calls ``send(session, items, skip)`` --
    ``skip`` counts the rows of ``items`` the server already holds --
    and returns the ``end`` cursor minus ``seq_offset``.  ``items`` is
    re-iterated per attempt when it is a zero-argument factory or a
    list/tuple; anything else gets one attempt.  A v2 hello refused as
    ``unsupported protocol`` reconnects speaking v1 unless
    ``require_batch``, which also refuses a server granting no batch
    frames.  Failures back off along :func:`_backoff_delays` until the
    ``retry_for`` window closes; non-retryable refusals raise at once.
    """
    factory = (items if callable(items)
               else (lambda: items) if isinstance(items, (list, tuple))
               else None)
    if options.get("session") is None:
        options["session"] = (f"{options['producer']}:{os.getpid():x}:"
                              f"{os.urandom(4).hex()}")
    delays = _backoff_delays(retry_interval, retry_cap,
                             random.Random(retry_seed))
    deadline = clock() + retry_for
    failed_at: float | None = None

    def connect() -> ProducerSession:
        try:
            session = ProducerSession(address, source, **options)
        except PublishRefused as exc:
            if require_batch or not options.get("batch", True) \
                    or "unsupported protocol" not in str(exc):
                raise
            # v1-only server: reconnect on the compat path.
            return ProducerSession(address, source,
                                   **{**options, "batch": False})
        if require_batch and not session.batch:
            session.close()
            raise PublishRefused(f"server granted no batch frames for "
                                 f"{source!r}", retryable=False)
        return session

    while True:
        try:
            with connect() as session:
                skip = session.cursor - seq_offset
                if skip < 0:
                    # Relay topology: our slice starts after the server
                    # cursor; the predecessor producer has not caught up
                    # yet.  Back off and retry rather than punching a
                    # sequence gap.
                    raise PublishRefused(
                        f"server cursor {session.cursor} for {source!r} "
                        f"is behind this producer's seq offset "
                        f"{seq_offset}; predecessor still publishing",
                        retryable=True)
                if stats is not None:
                    stats["attempts"] = stats.get("attempts", 0) + 1
                    if failed_at is not None:
                        stats.setdefault("recovery_seconds", []).append(
                            clock() - failed_at)
                failed_at = None
                send(session, factory() if factory else items, skip)
                return session.end() - seq_offset
        except (OSError, FrameError, PublishRefused) as exc:
            if isinstance(exc, PublishRefused) and not exc.retryable:
                raise
            if factory is None or clock() >= deadline:
                raise
            failed_at = clock()
            if stats is not None:
                stats["retries"] = stats.get("retries", 0) + 1
            sleep(next(delays))


def _send_items(session: ProducerSession, items: Iterable,
                skip: int) -> None:
    """Send batches and raw payloads, resuming from the cursor.

    :class:`EventBatch` rows are numbered from ``session.cursor + 1``
    after the first ``skip`` rows, which the server already holds, are
    dropped.  Raw payload bytes are never skipped: they travel verbatim
    (their seq, if any, was baked in by ``encode_batch``) and the edge
    discards the rows it holds.
    """
    seq = session.cursor + 1
    for item in items:
        if isinstance(item, (bytes, bytearray)):
            session.send_payload(bytes(item))
        elif skip >= item.n:
            skip -= item.n
        else:
            session.send_batch(item.tail(skip) if skip else item, seq)
            seq += item.n - skip
            skip = 0


def publish_events(address: str, source: str,
                   events: Iterable[StreamEvent] | Callable[[], Iterable],
                   *, producer: str = "publish",
                   batch_size: int = DEFAULT_BATCH_EVENTS,
                   compress: bool = False,
                   retry_for: float = 0.0, retry_interval: float = 0.2,
                   retry_cap: float = 5.0, retry_seed: int | None = None,
                   connect_timeout: float = 10.0,
                   session: str | None = None, seq_offset: int = 0,
                   auth_token: str | None = None,
                   ssl_context=None,
                   stats: dict | None = None,
                   sleep: Callable[[float], None] = time.sleep,
                   clock: Callable[[], float] = time.monotonic) -> int:
    """Stream ``events`` to a server as one producer of ``source``.

    ``events`` may be an iterable or (for retryable publishes) a
    zero-argument factory returning a fresh iterable per attempt; plain
    lists/tuples are re-iterated automatically.  Events are numbered
    ``seq_offset + 1, seq_offset + 2, ...`` on the wire, and each
    attempt *resumes from the server's cursor*: the hello ack reports
    the highest sequence number the server holds contiguously, the
    client skips that many events, and sends the rest -- so with
    ``retry_for > 0`` a dropped connection (or a server crash-and-
    resume) costs a reconnect, not a replay, and every event still
    lands exactly once.  Failed attempts back off with jittered
    exponential delays (``retry_interval * 2^k`` capped at
    ``retry_cap``; seed ``retry_seed`` for deterministic schedules in
    tests) until the ``retry_for`` window closes.  Non-retryable
    refusals (``unauthorized``, unknown source, a row that alone
    exceeds the frame cap) raise immediately.

    ``seq_offset`` supports relay/handoff topologies: a producer
    carrying the *second* slice of a source (events ``k+1 .. n``)
    publishes with ``seq_offset=k`` and is automatically held off
    (retryable refusal) until its predecessor's slice is ingested.

    ``stats``, when given, collects client-side chaos telemetry:
    ``attempts``, ``retries``, and ``recovery_seconds`` (failure ->
    next successful handshake latencies, the reconnect-recovery tail
    the net-ingest bench reports).

    ``batch_size > 0`` (the default) offers protocol v2: events are
    accumulated into columnar binary batch frames of at most that many
    rows (zlib-compressed when ``compress`` and the server grants the
    capability), each split further if it would exceed the negotiated
    frame cap.  A server that refuses v2, or acks without the batch
    capability, gets v1 JSON event frames instead -- same events, same
    order, just slower; ``batch_size=0`` forces that compat path.

    Returns the number of events of this producer's range the server
    acked at ``end`` (i.e. everything landed, however many attempts it
    took).
    """
    def send(conn: ProducerSession, items: Iterable, skip: int) -> None:
        it = iter(items)
        if skip:
            # Already delivered (a previous attempt/incarnation):
            # resume from cursor + 1 instead of resending.
            next(itertools.islice(it, skip - 1, skip), None)
        seq = conn.cursor + 1
        if not conn.batch:
            for event in it:
                conn.send_event(event, seq)
                seq += 1
            return
        while True:
            builder = BatchBuilder()
            builder.extend(itertools.islice(it, batch_size))
            if not len(builder):
                return
            conn.send_batch(builder.build(), seq)
            seq += len(builder)

    return _publish(address, source, events, send, seq_offset=seq_offset,
                    retry_for=retry_for, retry_interval=retry_interval,
                    retry_cap=retry_cap, retry_seed=retry_seed,
                    stats=stats, sleep=sleep, clock=clock,
                    producer=producer, session=session,
                    batch=batch_size > 0, compress=compress,
                    auth_token=auth_token, ssl_context=ssl_context,
                    connect_timeout=connect_timeout)


def publish_batches(address: str, source: str,
                    batches: Iterable[EventBatch | bytes] |
                    Callable[[], Iterable],
                    *, producer: str = "publish",
                    compress: bool = False,
                    connect_timeout: float = 10.0,
                    frame_cap: int = BATCH_MAX_FRAME_BYTES,
                    session: str | None = None, seq_offset: int = 0,
                    auth_token: str | None = None, ssl_context=None,
                    retry_for: float = 0.0, retry_interval: float = 0.2,
                    retry_cap: float = 5.0, retry_seed: int | None = None,
                    sleep: Callable[[float], None] = time.sleep,
                    clock: Callable[[], float] = time.monotonic) -> int:
    """Stream pre-built columnar batches to a v2 server.

    The load-generator variant of :func:`publish_events`: the caller
    already holds :class:`EventBatch` objects (or raw ``encode_batch``
    payload bytes from a frame capture), so no per-event Python runs on
    the wire path.  Like every producer it waits for the hello ack
    before it sends: without it a client cannot know the granted frame
    cap, the cursor, or a refusal.

    :class:`EventBatch` items are numbered cumulatively from
    ``seq_offset`` and resume from the server's cursor, exactly as
    :func:`publish_events` does; a batch over the granted cap is split
    until every frame fits.  Raw byte payloads travel verbatim (their
    seq, if any, was baked in by ``encode_batch``) and are never
    skipped client-side: the server's edge dedupe discards the rows it
    already holds.  ``retry_for > 0`` retries failed publishes with the
    same jittered exponential backoff as :func:`publish_events`
    (requires a callable ``batches`` factory or a re-iterable
    list/tuple).

    No v1 fallback exists on this path: a server that refuses protocol
    v2, or grants no batch frames, fails the publish with
    :class:`PublishRefused`.  Returns what :func:`publish_events`
    returns: the cursor the server acked ``end`` with, minus
    ``seq_offset``.
    """
    return _publish(address, source, batches, _send_items,
                    require_batch=True, seq_offset=seq_offset,
                    retry_for=retry_for, retry_interval=retry_interval,
                    retry_cap=retry_cap, retry_seed=retry_seed,
                    sleep=sleep, clock=clock, producer=producer,
                    session=session, compress=compress,
                    frame_cap=frame_cap, auth_token=auth_token,
                    ssl_context=ssl_context,
                    connect_timeout=connect_timeout)


def publish_workspace(address: str, directory: str, *,
                      sources: Iterable[str] = DEFAULT_SOURCES,
                      producer: str = "publish",
                      batch_size: int = DEFAULT_BATCH_EVENTS,
                      compress: bool = False,
                      retry_for: float = 0.0,
                      retry_interval: float = 0.2,
                      retry_cap: float = 5.0,
                      retry_seed: int | None = None,
                      auth_token: str | None = None,
                      ssl_context=None,
                      stats: dict | None = None) -> dict[str, int]:
    """Publish a workspace's trace files concurrently, one per source.

    Each trace is read by the columnar chunk reader the file-fed server
    uses (:attr:`ReliableEventStream.SOURCES`), its chunks cut to at
    most ``batch_size`` rows; ``batch_size=0`` sends them row by row as
    v1 event frames.  Concurrency is load-bearing, not an optimization:
    the server's merge needs the head event of *every* source before it
    can emit anything, so a sequential publish of a trace larger than
    one queue bound would deadlock against backpressure.  Returns
    ``{source: events_sent}``; re-raises the first failure after all
    threads have stopped.  ``stats``, when given, gains one per-source
    sub-dict of client retry/recovery telemetry (see
    :func:`publish_events`).
    """
    readers = {name: (filename, reader)
               for name, filename, reader, _ in ReliableEventStream.SOURCES}
    sources = list(sources)
    for name in sources:
        if name not in readers:
            raise ValueError(f"unknown workspace source {name!r} "
                             f"(expected one of {DEFAULT_SOURCES})")

    def chunks(name: str) -> Iterator[EventBatch]:
        filename, reader = readers[name]
        for chunk in reader(os.path.join(directory, filename)):
            if batch_size <= 0 or chunk.n <= batch_size:
                yield chunk
                continue
            for lo in range(0, chunk.n, batch_size):
                keep = np.zeros(chunk.n, dtype=bool)
                keep[lo:lo + batch_size] = True
                yield chunk.subset(keep)

    results: dict[str, int] = {}
    errors: list[BaseException] = []

    def worker(name: str) -> None:
        try:
            results[name] = _publish(
                address, name, lambda: chunks(name), _send_items,
                retry_for=retry_for, retry_interval=retry_interval,
                retry_cap=retry_cap, retry_seed=retry_seed,
                stats=None if stats is None else stats.setdefault(name, {}),
                producer=f"{producer}:{name}", batch=batch_size > 0,
                compress=compress, auth_token=auth_token,
                ssl_context=ssl_context)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(name,),
                                name=f"publish:{name}", daemon=True)
               for name in sources]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results
