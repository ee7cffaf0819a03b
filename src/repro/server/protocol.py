"""The retention server's wire protocol: JSON frames plus binary batches.

Every message on every server socket -- producer feeds and the admin
plane alike -- is one **frame**.  Protocol v1 knows one frame shape::

    <decimal byte length of body>\\n<body bytes>\\n

where the body is a single UTF-8 JSON object with no embedded newlines
(the encoder enforces it).  The redundant trailing newline is
deliberate: a reader that has lost sync can abort immediately instead
of consuming a corrupted length's worth of garbage, and a human can
still eyeball a captured stream.  Frames are bounded by the reader's
frame cap (:data:`MAX_FRAME_BYTES` until negotiated otherwise); an
oversized length prefix is a protocol error, not an allocation.

Protocol v2 adds a second, *binary* frame shape for bulk event
transport -- the length prefix is tagged with a leading ``b``::

    b<decimal byte length of payload>\\n<payload bytes>\\n

The payload is a columnar **batch**: magic, a flags byte, the packed
column arrays of up to a few thousand events, and a CRC32 trailer (see
:func:`encode_batch` for the exact layout, and DESIGN.md section 10 for
the diagram).  Control messages (``hello``/``end``/acks) stay JSON in
both protocol versions, so the handshake and teardown remain greppable
on the wire.

Message vocabulary
------------------
Producer side (``repro publish`` -> ``serve --listen``)::

    {"type": "hello", "protocol": 1|2, "source": "jobs",
     "producer": "...", "session": "...", "auth": "...",
     # protocol 2 only:
     "capabilities": ["batch", "zlib"], "max_frame_bytes": N}
    {"type": "event", "kind": "job"|..., "seq": K, ...payload}
    b<len>\\n<columnar batch payload>\\n            # protocol 2 only
    {"type": "end"}

The server answers ``hello`` and ``end`` with ``{"type": "ok", ...}`` or
``{"type": "error", "reason": ...}``.  A v2 ``ok`` echoes the
*negotiated* capability set and frame cap (the intersection of what
both sides support); a v2 client that is refused with an
unsupported-protocol error reconnects speaking v1, so v1 JSON framing
remains the debugging/compat path and unknown-capability peers fall
back cleanly.  Event and batch frames are *not* acked individually --
producers stream at full speed and TCP provides the ordering and
backpressure (the per-stream ack is amortized into the ``end``
exchange, which reports the total row count received); a frame the
server cannot decode is diverted to the event quarantine (with its
dead-letter reason code), never answered, exactly like a malformed row
in a trace file.

Exactly-once sequencing (both protocol versions): a producer numbers
its events ``1, 2, 3, ...`` per source -- ``"seq"`` on v1 event frames,
a :data:`BATCH_FLAG_SEQ` u64 (the sequence number of the batch's first
row) on v2 batch payloads -- and the hello/end acks carry ``"cursor"``,
the highest *contiguously received* sequence number for that source.
A reconnecting producer resumes from ``cursor + 1`` instead of
replaying the round; the server discards any already-seen sequence
numbers, so connection churn (and a server crash-and-resume, whose
checkpoint restores the durable cursors) can duplicate bytes on the
wire but never events in the fold.  ``"session"`` identifies one
logical producer across its reconnects, making ``end`` idempotent.
``"auth"`` carries the optional shared secret; a mismatch is refused
with reason ``unauthorized``.  A listener over its connection quota
refuses with a reason starting ``busy`` and ``"retryable": true`` --
clients back off (jittered exponential) and retry.

Admin side (``repro admin`` -> the admin listener)::

    {"type": "request", "cmd": "status" | "health" | "tenants" |
                               "metrics" | "query", ...args}
    {"type": "response", "ok": true, ...}  |  {"type": "response",
                                               "ok": false, "error": ...}

Event payload codecs translate :class:`~repro.stream.events.StreamEvent`
to and from plain dicts, field for field, so a trace file replayed over
the wire reconstructs the exact record objects the file readers produce
-- the first link in the chain that keeps networked runs bit-identical
to batch.

Addresses are spelled ``unix:/path/to.sock``, ``tcp:host:port``, or bare
``host:port``; :func:`parse_address` normalizes all three.
"""

from __future__ import annotations

import binascii
import json
import os
import socket
import ssl
import struct
import zlib
from typing import Union

import numpy as np

from ..stream.batch import EventBatch
from ..stream.events import (EVENT_ACCESS, EVENT_JOB, EVENT_PUBLICATION,
                             StreamEvent)
from ..traces.schema import AppAccessRecord, JobRecord, PublicationRecord

__all__ = ["PROTOCOL_V1", "PROTOCOL_V2", "PROTOCOL_VERSION",
           "SUPPORTED_PROTOCOLS", "CAP_BATCH", "CAP_ZLIB",
           "MAX_FRAME_BYTES", "BATCH_MAX_FRAME_BYTES",
           "FrameError", "BatchFormatError", "BinaryFrame",
           "encode_frame", "write_frame", "FrameReader",
           "encode_event", "decode_event",
           "encode_batch", "decode_batch", "encode_batch_frame",
           "parse_address", "format_address", "create_listener",
           "connect_socket", "make_server_ssl_context",
           "make_client_ssl_context"]

PROTOCOL_V1 = 1
PROTOCOL_V2 = 2
#: The protocol this build speaks by default (v2: binary batch frames).
PROTOCOL_VERSION = PROTOCOL_V2
#: Protocols a stock listener accepts; v1 remains the compat path.
SUPPORTED_PROTOCOLS = (PROTOCOL_V1, PROTOCOL_V2)

#: v2 hello capability tokens.  Unknown tokens are ignored by both
#: sides, so future capabilities degrade to "not negotiated".
CAP_BATCH = "batch"
CAP_ZLIB = "zlib"

#: Upper bound on one frame's body before negotiation.  Paths dominate
#: JSON event size and are filesystem-limited to a few KiB; a megabyte
#: means a corrupt or hostile length prefix, so the reader refuses
#: rather than buffering.
MAX_FRAME_BYTES = 1 << 20

#: Ceiling a listener will grant a v2 peer for binary batch frames.
#: The negotiated cap is ``min(client ask, server ceiling)`` and only
#: raises the limit *after* a successful hello on that connection.
BATCH_MAX_FRAME_BYTES = 8 << 20

#: Floor for a negotiated cap -- control frames must always fit.
MIN_FRAME_BYTES = 4096


class FrameError(ValueError):
    """A malformed frame: bad length prefix, bad JSON, missing newline."""


class BatchFormatError(FrameError):
    """A binary batch payload that fails its own self-checks.

    Unlike a raw :class:`FrameError` the *envelope* was intact -- the
    length prefix and trailing newline framed the payload correctly --
    so the connection is still in sync and the reader may continue with
    the next frame after diverting this one.
    """


class BinaryFrame(bytes):
    """A binary frame's payload, as returned by :meth:`FrameReader.read`.

    A distinct type (rather than plain ``bytes``) so callers can
    dispatch on frame shape with one ``isinstance`` check.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# framing


def encode_frame(obj: dict) -> bytes:
    """Serialize one message dict to its wire frame."""
    body = json.dumps(obj, separators=(",", ":"), ensure_ascii=False,
                      ).encode("utf-8")
    if b"\n" in body:
        raise FrameError("frame body cannot contain newlines")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame body of {len(body)} bytes exceeds "
                         f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    return b"%d\n%s\n" % (len(body), body)


def write_frame(sock: socket.socket, obj: dict) -> None:
    """Send one frame over a connected socket (blocking, all-or-error)."""
    sock.sendall(encode_frame(obj))


class FrameReader:
    """Incremental frame decoder over a connected socket.

    Buffers socket reads and yields one decoded dict (JSON frame) or
    :class:`BinaryFrame` payload (``b``-tagged frame) per :meth:`read`
    call; ``None`` means orderly EOF at a frame boundary.  EOF *inside*
    a frame -- the torn tail a killed producer leaves -- and any framing
    violation raise :class:`FrameError` so the caller can quarantine
    rather than mis-parse everything after the tear.

    ``max_frame_bytes`` starts at the v1 bound and is raised in place
    after a successful v2 hello negotiates a larger batch-frame cap;
    the length check always runs *before* any body bytes are buffered,
    so an oversized prefix is refused, never allocated.
    """

    def __init__(self, sock: socket.socket, chunk_size: int = 65536,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._sock = sock
        self._chunk = chunk_size
        self._buf = bytearray()
        self._eof = False
        self.max_frame_bytes = max_frame_bytes

    def _fill(self) -> bool:
        """Pull one chunk into the buffer; False at EOF."""
        if self._eof:
            return False
        data = self._sock.recv(self._chunk)
        if not data:
            self._eof = True
            return False
        self._buf += data
        return True

    def _read_until_newline(self, limit: int) -> bytes | None:
        while True:
            idx = self._buf.find(b"\n")
            if idx >= 0:
                line = bytes(self._buf[:idx])
                del self._buf[:idx + 1]
                return line
            if len(self._buf) > limit:
                raise FrameError(
                    f"no newline within {limit} bytes of frame start")
            if not self._fill():
                if self._buf:
                    raise FrameError("connection closed mid frame header")
                return None

    def read(self) -> dict | BinaryFrame | None:
        """Next message, or ``None`` on clean end of stream.

        JSON frames decode to a dict; binary (``b``-prefixed) frames
        return their raw payload as a :class:`BinaryFrame` for the
        caller to hand to :func:`decode_batch`.
        """
        header = self._read_until_newline(32)
        if header is None:
            return None
        binary = header[:1] == b"b"
        if binary:
            header = header[1:]
        try:
            length = int(header)
        except ValueError:
            raise FrameError(f"bad frame length prefix {header!r}") from None
        if not 0 <= length <= self.max_frame_bytes:
            raise FrameError(f"frame length {length} out of range "
                             f"(cap {self.max_frame_bytes})")
        have = len(self._buf)
        need = length + 1
        if have < need:
            # Read the remaining body straight into one right-sized
            # buffer: appending chunks to ``_buf`` and slicing them back
            # out would copy every large batch frame twice more.
            body_buf = bytearray(need)
            view = memoryview(body_buf)
            view[:have] = self._buf
            self._buf.clear()
            got = have
            while got < need:
                read = self._sock.recv_into(view[got:])
                if not read:
                    self._eof = True
                    raise FrameError("connection closed mid frame body")
                got += read
            if body_buf[length] != 0x0A:
                raise FrameError("frame body not newline-terminated")
            body = bytes(view[:length])
        else:
            body = bytes(self._buf[:length])
            if self._buf[length:length + 1] != b"\n":
                raise FrameError("frame body not newline-terminated")
            del self._buf[:length + 1]
        if binary:
            return BinaryFrame(body)
        try:
            obj = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FrameError(f"frame body is not JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise FrameError(
                f"frame body must be a JSON object, got "
                f"{type(obj).__name__}")
        return obj

    def read_message(self) -> dict | None:
        """Like :meth:`read` but only control messages are legal.

        Used wherever the protocol state machine expects JSON (admin
        plane, handshakes, acks); a binary frame there is a violation.
        """
        frame = self.read()
        if isinstance(frame, BinaryFrame):
            raise FrameError("unexpected binary frame; expected a JSON "
                             "control message")
        return frame


# ---------------------------------------------------------------------------
# event codec


def encode_event(event: StreamEvent) -> dict:
    """One event frame body for ``event`` (adds ``type: "event"``)."""
    kind = event.kind
    p = event.payload
    if kind == EVENT_JOB:
        return {"type": "event", "kind": kind, "job_id": p.job_id,
                "uid": p.uid, "submit_ts": p.submit_ts,
                "start_ts": p.start_ts, "end_ts": p.end_ts,
                "num_nodes": p.num_nodes,
                "cores_per_node": p.cores_per_node}
    if kind == EVENT_PUBLICATION:
        return {"type": "event", "kind": kind, "pub_id": p.pub_id,
                "ts": p.ts, "citations": p.citations,
                "author_uids": list(p.author_uids)}
    if kind == EVENT_ACCESS:
        return {"type": "event", "kind": kind, "ts": p.ts, "uid": p.uid,
                "op": p.op, "path": p.path}
    raise ValueError(f"cannot encode stream event of kind {kind!r}")


#: The range of the int64 batch columns every decoded event lands in.
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _ints(*values) -> list[int]:
    """``values`` as ints; ``ValueError`` unless each fits an int64
    column, the rule the columnar trace readers apply to files."""
    try:
        out = [int(v) for v in values]
    except OverflowError as exc:  # int(inf): JSON admits Infinity
        raise ValueError(str(exc)) from None
    if out and (max(out) > _I64_MAX or min(out) < _I64_MIN):
        raise ValueError("integer field does not fit an int64 column")
    return out


def decode_event(obj: dict) -> StreamEvent:
    """Rebuild the exact :class:`StreamEvent` an event frame encodes.

    Schema violations (missing fields, wrong types, ints outside the
    int64 range, ``__post_init__`` failures) raise
    ``ValueError``/``TypeError``/``KeyError`` -- the listener routes
    those to the quarantine as unparsable rows.
    """
    kind = obj.get("kind")
    if kind == EVENT_JOB:
        rec = JobRecord(*_ints(obj["job_id"], obj["uid"], obj["submit_ts"],
                               obj["start_ts"], obj["end_ts"],
                               obj["num_nodes"], obj["cores_per_node"]))
        return StreamEvent(rec.submit_ts, EVENT_JOB, rec)
    if kind == EVENT_PUBLICATION:
        pub_id, ts, citations, *authors = _ints(
            obj["pub_id"], obj["ts"], obj["citations"], *obj["author_uids"])
        rec = PublicationRecord(pub_id, ts, authors, citations)
        return StreamEvent(rec.ts, EVENT_PUBLICATION, rec)
    if kind == EVENT_ACCESS:
        path = obj["path"]
        if not isinstance(path, str):
            raise ValueError(f"access path must be a string, "
                             f"got {type(path).__name__}")
        try:
            # JSON can smuggle in a lone surrogate ("\ud800"), which
            # the v2 codec and the checkpoint catalog cannot encode.
            path.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"access path is not valid UTF-8: "
                             f"{exc.reason} at {exc.start}") from None
        ts, uid = _ints(obj["ts"], obj["uid"])
        rec = AppAccessRecord(ts, uid, path, str(obj["op"]))
        return StreamEvent(rec.ts, EVENT_ACCESS, rec)
    raise ValueError(f"unknown event kind {kind!r}")


# ---------------------------------------------------------------------------
# batch codec (protocol v2)

#: Leading magic of every batch payload: "Repro Event Batch, layout 2".
BATCH_MAGIC = b"REB2"
#: Flags byte, bit 0: the column body is zlib-compressed.
BATCH_FLAG_ZLIB = 0x01
#: Flags byte, bit 1: a u64le sequence number (of the batch's first row)
#: follows the flags byte, before the column body.
BATCH_FLAG_SEQ = 0x02
_BATCH_KNOWN_FLAGS = BATCH_FLAG_ZLIB | BATCH_FLAG_SEQ

_HEADER = struct.Struct("<7I")  # n_rows n_jobs n_pubs n_acc n_auth n_pool blob
_CRC = struct.Struct("<I")
_SEQ = struct.Struct("<Q")


def _batch_columns(batch: EventBatch) -> bytes:
    """The packed column body of ``batch`` (uncompressed form)."""
    pool_off, blob = batch.packed_pool()
    parts = [
        _HEADER.pack(batch.n, batch.n_jobs, batch.n_pubs, batch.n_acc,
                     batch.pub_auth.size, pool_off.size - 1, len(blob)),
        batch.kinds.tobytes(), batch.ts.tobytes(),
        batch.job_id.tobytes(), batch.job_uid.tobytes(),
        batch.job_start.tobytes(), batch.job_end.tobytes(),
        batch.job_nodes.tobytes(), batch.job_cores.tobytes(),
        batch.pub_id.tobytes(), batch.pub_cit.tobytes(),
        batch.pub_auth_off.tobytes(), batch.pub_auth.tobytes(),
        batch.acc_uid.tobytes(), batch.acc_op.tobytes(),
        batch.acc_path.tobytes(),
        pool_off.astype(np.uint32).tobytes(), blob,
    ]
    return b"".join(parts)


def encode_batch(batch: EventBatch, *, compress: bool = False,
                 seq: int | None = None) -> bytes:
    """Serialize ``batch`` to a binary frame payload.

    Layout::

        REB2 | flags:u8 | [first_seq:u64le] | column body | crc32:u32le

    The CRC covers everything before it (magic, flags, optional
    sequence number, and the body *as transmitted*, i.e. after
    compression), so a receiver verifies integrity with one pass over
    the wire bytes before spending any decompression or parsing work.
    All integers are little-endian; the column body is the fixed-order
    sequence of arrays documented in :mod:`repro.stream.batch` (header
    counts, kinds, ts, job columns, publication columns + ragged author
    offsets, access columns, then the string-pool offsets and UTF-8
    blob).

    ``seq``, when given, is the 1-based per-source sequence number of
    the batch's *first* row (rows cover ``seq .. seq + n - 1``); it is
    stored outside the compressed body so the receiving edge can dedupe
    without decompressing.
    """
    body = _batch_columns(batch)
    flags = 0
    if compress:
        flags |= BATCH_FLAG_ZLIB
        body = zlib.compress(body, 1)
    head = BATCH_MAGIC
    if seq is not None:
        if seq < 1:
            raise ValueError(f"batch seq must be >= 1, got {seq}")
        head += bytes((flags | BATCH_FLAG_SEQ,)) + _SEQ.pack(seq)
    else:
        head += bytes((flags,))
    head += body
    return head + _CRC.pack(binascii.crc32(head) & 0xFFFFFFFF)


def _take(buf: memoryview, pos: int, nbytes: int, what: str):
    end = pos + nbytes
    if end > len(buf):
        raise BatchFormatError(f"batch payload truncated in {what}")
    return buf[pos:end], end


def _col(buf: memoryview, pos: int, count: int, dtype, what: str):
    raw, pos = _take(buf, pos, count * dtype().itemsize, what)
    return np.frombuffer(raw, dtype=dtype), pos


def decode_batch(payload: bytes) -> EventBatch:
    """Decode one binary frame payload into an :class:`EventBatch`.

    Verifies magic, flags, CRC (before decompressing), and the
    structural consistency of every length field; any violation raises
    :class:`BatchFormatError`.  Per-row *value* problems (bad op codes,
    impossible job timestamps, unknown uids...) are deliberately left
    to the quarantine's vectorized row validation -- one bad row must
    divert that row, not the whole frame.
    """
    if len(payload) < len(BATCH_MAGIC) + 1 + _CRC.size:
        raise BatchFormatError(f"batch payload of {len(payload)} bytes is "
                               f"shorter than its envelope")
    if payload[:4] != BATCH_MAGIC:
        raise BatchFormatError(f"bad batch magic {payload[:4]!r}")
    (crc_stored,) = _CRC.unpack_from(payload, len(payload) - _CRC.size)
    crc_actual = binascii.crc32(payload[:-_CRC.size]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise BatchFormatError(
            f"batch CRC mismatch: stored {crc_stored:#010x}, "
            f"computed {crc_actual:#010x}")
    flags = payload[4]
    if flags & ~_BATCH_KNOWN_FLAGS:
        raise BatchFormatError(f"unknown batch flags {flags:#04x}")
    pos0 = 5
    first_seq = None
    if flags & BATCH_FLAG_SEQ:
        if len(payload) < pos0 + _SEQ.size + _CRC.size:
            raise BatchFormatError("batch payload truncated in seq field")
        (first_seq,) = _SEQ.unpack_from(payload, pos0)
        pos0 += _SEQ.size
        if first_seq < 1:
            raise BatchFormatError(f"batch first_seq {first_seq} out of range")
    body = payload[pos0:-_CRC.size]
    if flags & BATCH_FLAG_ZLIB:
        try:
            body = zlib.decompress(body)
        except zlib.error as exc:
            raise BatchFormatError(f"batch zlib body: {exc}") from exc
    buf = memoryview(body)
    if len(buf) < _HEADER.size:
        raise BatchFormatError("batch body shorter than its header")
    n, n_jobs, n_pubs, n_acc, n_auth, n_pool, blob_len = \
        _HEADER.unpack_from(buf, 0)
    pos = _HEADER.size
    kinds, pos = _col(buf, pos, n, np.uint8, "kinds")
    ts, pos = _col(buf, pos, n, np.int64, "ts")
    job_id, pos = _col(buf, pos, n_jobs, np.int64, "job_id")
    job_uid, pos = _col(buf, pos, n_jobs, np.int64, "job_uid")
    job_start, pos = _col(buf, pos, n_jobs, np.int64, "job_start")
    job_end, pos = _col(buf, pos, n_jobs, np.int64, "job_end")
    job_nodes, pos = _col(buf, pos, n_jobs, np.int64, "job_nodes")
    job_cores, pos = _col(buf, pos, n_jobs, np.int64, "job_cores")
    pub_id, pos = _col(buf, pos, n_pubs, np.int64, "pub_id")
    pub_cit, pos = _col(buf, pos, n_pubs, np.int64, "pub_cit")
    auth_off, pos = _col(buf, pos, n_pubs + 1, np.int64, "author offsets")
    pub_auth, pos = _col(buf, pos, n_auth, np.int64, "authors")
    acc_uid, pos = _col(buf, pos, n_acc, np.int64, "acc_uid")
    acc_op, pos = _col(buf, pos, n_acc, np.uint8, "acc_op")
    acc_path, pos = _col(buf, pos, n_acc, np.uint32, "acc_path")
    pool_off, pos = _col(buf, pos, n_pool + 1, np.uint32, "pool offsets")
    blob_view, pos = _take(buf, pos, blob_len, "string pool")
    if pos != len(buf):
        raise BatchFormatError(f"{len(buf) - pos} trailing bytes after "
                               f"batch columns")
    if n and int(kinds.max()) > 2:
        raise BatchFormatError("batch kinds column has unknown kind codes")
    counts = np.bincount(kinds, minlength=3)
    if (int(counts[0]), int(counts[1]), int(counts[2])) != \
            (n_jobs, n_pubs, n_acc):
        raise BatchFormatError(
            f"kind counts {counts.tolist()} disagree with header "
            f"({n_jobs} jobs, {n_pubs} pubs, {n_acc} accesses)")
    if n_pubs and (np.diff(auth_off) < 0).any() or \
            int(auth_off[0]) != 0 or int(auth_off[-1]) != n_auth:
        raise BatchFormatError("publication author offsets are not a "
                               "monotone 0..n_auth ramp")
    if n_pool and (np.diff(pool_off.astype(np.int64)) < 0).any() or \
            int(pool_off[0]) != 0 or int(pool_off[-1]) != blob_len:
        raise BatchFormatError("string pool offsets are not a monotone "
                               "0..blob ramp")
    batch = EventBatch(
        kinds, ts,
        job_id=job_id, job_uid=job_uid, job_start=job_start,
        job_end=job_end, job_nodes=job_nodes, job_cores=job_cores,
        pub_id=pub_id, pub_cit=pub_cit,
        pub_auth_off=auth_off, pub_auth=pub_auth,
        acc_uid=acc_uid, acc_op=acc_op, acc_path=acc_path,
        pool_off=pool_off, pool_blob=bytes(blob_view))
    if first_seq is not None:
        batch.first_seq = int(first_seq)
        batch.seq_width = n
    return batch


def encode_batch_frame(payload: bytes,
                       max_frame_bytes: int = BATCH_MAX_FRAME_BYTES) -> bytes:
    """Wrap a batch payload in the ``b``-tagged frame envelope."""
    if len(payload) > max_frame_bytes:
        raise FrameError(f"batch payload of {len(payload)} bytes exceeds "
                         f"the negotiated cap ({max_frame_bytes})")
    return b"b%d\n" % len(payload) + payload + b"\n"


# ---------------------------------------------------------------------------
# addresses

#: A parsed address: ``("unix", path)`` or ``("tcp", (host, port))``.
Address = Union[tuple[str, str], tuple[str, tuple[str, int]]]


def parse_address(spec: str) -> Address:
    """Normalize ``unix:/path``, ``tcp:host:port``, or ``host:port``."""
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ValueError(f"empty unix socket path in {spec!r}")
        return ("unix", path)
    if spec.startswith("tcp:"):
        spec = spec[len("tcp:"):]
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"cannot parse address {spec!r}: expected unix:/path, "
            f"tcp:host:port, or host:port")
    try:
        return ("tcp", (host, int(port)))
    except ValueError:
        raise ValueError(f"bad port in address {spec!r}") from None


def format_address(address: Address) -> str:
    family, where = address
    if family == "unix":
        return f"unix:{where}"
    host, port = where
    return f"tcp:{host}:{port}"


def create_listener(spec: str, backlog: int = 16) -> socket.socket:
    """A bound, listening socket for ``spec``.

    A pre-existing Unix socket path is unlinked first: the only thing
    that leaves one behind is a dead server (crash before cleanup), and
    a supervisor restarting into the same address must win the bind.
    """
    family, where = parse_address(spec)
    if family == "unix":
        try:
            os.unlink(where)
        except FileNotFoundError:
            pass
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(where)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(where)
    sock.listen(backlog)
    return sock


def close_listener(sock: socket.socket) -> None:
    """Shut down and close a listening socket from :func:`create_listener`.

    ``close()`` alone does not wake a thread blocked in ``accept()`` on
    Linux: that thread keeps the socket listening and accepts one more
    connection.  ``shutdown()`` wakes it, so the accept thread exits.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def connect_socket(spec: str, timeout: float | None = None,
                   ssl_context: ssl.SSLContext | None = None,
                   ) -> socket.socket:
    """A connected client socket for ``spec``.

    With ``ssl_context``, the TCP connection is wrapped in TLS before
    return (the handshake runs under the same ``timeout``); unix-socket
    addresses never wrap -- they are same-host transport and the fleet
    uses them for router->worker hops inside one machine.
    """
    family, where = parse_address(spec)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.connect(where)
        if ssl_context is not None and family != "unix":
            sock = ssl_context.wrap_socket(sock, server_hostname=where[0])
    except BaseException:
        sock.close()
        raise
    return sock


# ---------------------------------------------------------------------------
# TLS

def make_server_ssl_context(certfile: str,
                            keyfile: str | None = None) -> ssl.SSLContext:
    """A server-side TLS context for the ingest socket.

    ``certfile``/``keyfile`` come from ``serve --tls-cert/--tls-key``;
    the listener wraps every accepted TCP connection before any frame
    is read, so refuse-before-allocate semantics are unchanged (the
    frame cap applies to the decrypted stream).
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(certfile, keyfile)
    return context


def make_client_ssl_context(cafile: str | None = None) -> ssl.SSLContext:
    """A client-side TLS context (``publish``/``admin --tls-ca``).

    Trust is pinned to ``cafile`` (typically the server's self-signed
    certificate itself): certificate verification is required against
    exactly that anchor, while hostname matching is disabled --
    deployments address servers by IP/socket path and the pinned CA is
    the identity.  Without ``cafile`` the channel is encrypted but
    unauthenticated (still useful against passive snooping in tests).
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    context.check_hostname = False
    if cafile:
        context.load_verify_locations(cafile)
        context.verify_mode = ssl.CERT_REQUIRED
    else:
        context.verify_mode = ssl.CERT_NONE
    return context
