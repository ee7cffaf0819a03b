"""Line-oriented readers/writers for trace files.

Each trace family serializes to a plain-text format, optionally gzipped
(files ending in ``.gz`` are compressed transparently), one record per
line, fields separated by ``|``.  The formats are deliberately simple --
the original OLCF logs are flat text too -- so that loading scales linearly
and the Fig. 12 loading-cost experiment measures realistic work.

Formats::

    users:  uid|name|created_ts
    jobs:   job_id|uid|submit_ts|start_ts|end_ts|num_nodes|cores_per_node
    apps:   ts|uid|op|path
    pubs:   pub_id|ts|citations|uid0,uid1,...

All writers are **atomic and durable**: records stream into a
same-directory ``.tmp`` sibling which is fsynced and renamed over the
destination only after a successful close, and the containing directory
is fsynced after the rename (the rename alone orders the data, but the
*directory entry* is not durable across power loss until the directory
inode itself is flushed).  A crashed or interrupted write never leaves a
truncated trace behind -- the old file, if any, survives intact.  The app
log stores the path as the *last* field and parses it with
``split("|", 3)``, so paths containing ``|``, spaces, or any non-newline
unicode round-trip; paths containing a newline cannot be represented in
a line-oriented format and are rejected at write time.

Readers end lines only at ``\\n``, so a path holding ``\\r`` reads back
as written.  Each event family has two readers over one per-line parser
(``parse_*_line``): the record readers (``read_jobs``, ...) yield one
record per line; the columnar readers (``read_*_chunks``) parse the
decompressed bytes straight into single-kind
:class:`~repro.stream.batch.EventBatch` chunks of at most
:data:`CHUNK_ROWS` rows.  A columnar reader converts plain-digit fields
and known ops with NumPy over the whole chunk and decodes each distinct
path once per chunk; any other line (a sign, spaces or ``_`` in an int,
a bad op, a record invariant, bytes that are not UTF-8) goes through the
per-line parser, so both readers accept exactly the same lines with the
same values.

All readers accept an optional ``on_error`` callback: a line that fails
to parse (field count, int conversion, schema ``__post_init__``
validation) is handed to the callback and skipped instead of raising --
the hook the streaming quarantine uses to divert malformed rows to a
dead-letter file while the rest of a damaged trace keeps flowing.  The
columnar readers also divert a line that is not UTF-8 (the record
readers raise ``UnicodeDecodeError``) or whose ints do not fit an int64
column.  Their block parsers (:func:`job_block`, :func:`publication_block`,
:func:`access_block`, driven by :func:`parse_blocks`) also parse the lines
a tail source reads from a growing file.
"""

from __future__ import annotations

import gzip
import os
import zlib
from typing import IO, Callable, Iterable, Iterator, TypeVar

import numpy as np

from .schema import AppAccessRecord, JobRecord, PublicationRecord, UserRecord

__all__ = [
    "atomic_output", "fsync_directory", "CHUNK_ROWS",
    "user_line", "job_line", "access_line", "publication_line",
    "parse_job_line", "parse_access_line", "parse_publication_line",
    "write_users", "read_users",
    "write_jobs", "read_jobs", "read_job_chunks",
    "write_app_log", "read_app_log", "read_app_log_chunks",
    "write_publications", "read_publications", "read_publication_chunks",
]

T = TypeVar("T")


def fsync_directory(directory: str) -> None:
    """Flush a directory inode so a rename inside it survives power loss.

    ``os.replace`` makes the swap atomic with respect to concurrent
    readers, but until the directory itself is fsynced the new entry may
    exist only in memory.  Filesystems that cannot fsync a directory
    (some network mounts) raise; that is a durability downgrade, not a
    correctness failure, so it is swallowed.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class atomic_output:
    """Context manager: write-to-tmp-sibling, fsync, then ``os.replace``.

    Yields a text handle (gzip-compressed when the *final* path ends in
    ``.gz`` -- the tmp suffix never changes the compression decision).
    On a clean exit the tmp file is flushed to stable storage, replaces
    ``path`` atomically, and the containing directory is fsynced so the
    rename itself is durable; on an exception the tmp file is removed
    and the destination is untouched.
    """

    def __init__(self, path: str,
                 wrap: Callable[[IO[str]], IO[str]] | None = None) -> None:
        self.path = path
        self._tmp = f"{path}.tmp"
        self._fh: IO[str] | None = None
        self._wrap = wrap

    def __enter__(self) -> IO[str]:
        self._fh = (gzip.open(self._tmp, "wt")
                    if self.path.endswith(".gz")
                    else open(self._tmp, "w"))
        # ``wrap`` decorates only what the caller writes through; close,
        # fsync and rename still act on the raw handle underneath, so an
        # injected failure mid-write aborts into the tmp-removal path
        # and the destination stays untouched.
        return self._wrap(self._fh) if self._wrap is not None else self._fh

    def __exit__(self, exc_type, exc, tb) -> None:
        self._fh.close()
        if exc_type is None:
            # Re-open to fsync *after* close: the gzip trailer is only
            # written on close, so fsyncing the write handle would miss
            # the final bytes.
            fd = os.open(self._tmp, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(self._tmp, self.path)
            fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        else:
            try:
                os.remove(self._tmp)
            except OSError:
                pass


def _open_write(path: str, wrap=None) -> atomic_output:
    return atomic_output(path, wrap)


def _open_read(path: str) -> IO[str]:
    # ``newline="\n"``: a ``\r`` inside a path is data, not a line end.
    return (gzip.open(path, "rt", newline="\n") if path.endswith(".gz")
            else open(path, newline="\n"))


#: Lines buffered per ``writelines`` flush.  One ``f.write`` per record
#: through a gzip stream dominates write time for large traces; chunked
#: ``writelines`` keeps the formats byte-identical while amortizing the
#: per-call compression overhead.
_WRITE_CHUNK_LINES = 8192


def _write(path: str, records: Iterable[T], fmt: Callable[[T], str],
           wrap=None) -> int:
    n = 0
    buf: list[str] = []
    with _open_write(path, wrap) as f:
        for rec in records:
            buf.append(fmt(rec))
            n += 1
            if len(buf) >= _WRITE_CHUNK_LINES:
                f.writelines(buf)
                buf.clear()
        if buf:
            f.writelines(buf)
    return n


#: Signature of the malformed-row hook: ``on_error(raw_line, exception)``.
OnError = Callable[[str, Exception], None]


def _read(path: str, parse: Callable[[str], T],
          on_error: OnError | None = None) -> Iterator[T]:
    with _open_read(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            if on_error is None:
                yield parse(line)
                continue
            try:
                rec = parse(line)
            except (ValueError, IndexError, TypeError) as exc:
                on_error(line, exc)
                continue
            yield rec


# The one-record line formatters are public so streaming writers (the
# chunked large-scale generator) can emit the exact on-disk format
# through their own incrementally held-open handles.

def user_line(u: UserRecord) -> str:
    if "|" in u.name or "\n" in u.name:
        raise ValueError(f"user name {u.name!r} cannot contain '|' or "
                         "newlines in the users trace format")
    return f"{u.uid}|{u.name}|{u.created_ts}\n"


def job_line(j: JobRecord) -> str:
    return (f"{j.job_id}|{j.uid}|{j.submit_ts}|{j.start_ts}"
            f"|{j.end_ts}|{j.num_nodes}|{j.cores_per_node}\n")


def access_line(a: AppAccessRecord) -> str:
    if "\n" in a.path:
        raise ValueError(f"path {a.path!r} cannot contain newlines in "
                         "the line-oriented app-log format")
    return f"{a.ts}|{a.uid}|{a.op}|{a.path}\n"


def publication_line(p: PublicationRecord) -> str:
    return (f"{p.pub_id}|{p.ts}|{p.citations}|"
            f"{','.join(str(u) for u in p.author_uids)}\n")


# ------------------------------------------------------- per-line parsers
# The record readers and the columnar readers' fallback share these, so
# both kinds of reader accept the same lines with the same values.

def parse_job_line(line: str) -> JobRecord:
    jid, uid, sub, start, end, nodes, cpn = line.split("|")
    return JobRecord(int(jid), int(uid), int(sub), int(start), int(end),
                     int(nodes), int(cpn))


def parse_access_line(line: str) -> AppAccessRecord:
    ts, uid, op, file_path = line.split("|", 3)
    return AppAccessRecord(int(ts), int(uid), file_path, op)


def parse_publication_line(line: str) -> PublicationRecord:
    pid, ts, cites, authors = line.split("|")
    uids = [int(u) for u in authors.split(",")] if authors else []
    return PublicationRecord(int(pid), int(ts), uids, int(cites))


# ---------------------------------------------------------------- users

def write_users(path: str, users: Iterable[UserRecord], *,
                wrap=None) -> int:
    return _write(path, users, user_line, wrap)


def read_users(path: str,
               on_error: OnError | None = None) -> Iterator[UserRecord]:
    def parse(line: str) -> UserRecord:
        uid, name, created = line.split("|")
        return UserRecord(int(uid), name, int(created))
    return _read(path, parse, on_error)


# ---------------------------------------------------------------- jobs

def write_jobs(path: str, jobs: Iterable[JobRecord], *, wrap=None) -> int:
    return _write(path, jobs, job_line, wrap)


def read_jobs(path: str,
              on_error: OnError | None = None) -> Iterator[JobRecord]:
    return _read(path, parse_job_line, on_error)


# ---------------------------------------------------------------- app log

def write_app_log(path: str, accesses: Iterable[AppAccessRecord], *,
                  wrap=None) -> int:
    return _write(path, accesses, access_line, wrap)


def read_app_log(path: str,
                 on_error: OnError | None = None,
                 ) -> Iterator[AppAccessRecord]:
    return _read(path, parse_access_line, on_error)


# ---------------------------------------------------------------- pubs

def write_publications(path: str, pubs: Iterable[PublicationRecord], *,
                       wrap=None) -> int:
    return _write(path, pubs, publication_line, wrap)


def read_publications(path: str,
                      on_error: OnError | None = None,
                      ) -> Iterator[PublicationRecord]:
    return _read(path, parse_publication_line, on_error)


# ---------------------------------------------------------------- columnar

#: Most rows in one chunk of the columnar readers.  A constant, so one
#: trace always splits into the same chunks.
CHUNK_ROWS = 8192

#: Decompressed bytes asked for per read (a chunk's lines span ~2-4).
_READ_BYTES = 1 << 18

#: Widest int field converted in bulk: 18 digits always fit an int64.
_MAX_DIGITS = 18

_PIPE, _NEWLINE = ord("|"), ord("\n")


def _open_read_bytes(path: str) -> IO[bytes]:
    return gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb")


def _chunks(path: str, parse, on_error: OnError | None):
    """The non-empty batches ``parse`` makes of each block of at most
    CHUNK_ROWS lines of ``path``.

    A block is parsed as soon as its lines are read, so the decompressed
    bytes are dropped before its batch is handed on.  ``read1`` returns
    what one decompression step produced, so when a torn or corrupt tail
    raises, every complete line before it is handed over first and the
    error then propagates as it does from the record readers.
    """
    with _open_read_bytes(path) as fh:
        pieces: list[bytes] = []
        lines = 0
        while True:
            try:
                piece = fh.read1(_READ_BYTES)
            except (OSError, EOFError, zlib.error):
                data = b"".join(pieces)
                yield from parse_blocks(data[:data.rfind(b"\n") + 1], True,
                                        parse, on_error)[0]
                raise
            if not piece:
                break
            pieces.append(piece)
            lines += piece.count(b"\n")
            if lines >= CHUNK_ROWS:
                batches, rest = parse_blocks(b"".join(pieces), False, parse,
                                             on_error)
                pieces, lines = [rest], rest.count(b"\n")
                yield from batches
        data = b"".join(pieces)
        if data and not data.endswith(b"\n"):
            data += b"\n"
        yield from parse_blocks(data, True, parse, on_error)[0]


def parse_blocks(data: bytes, final: bool, parse,
                 on_error: OnError | None) -> tuple[list, bytes]:
    """``(batches, rest)``: what ``parse`` makes of each block of whole
    CHUNK_ROWS lines in ``data`` (with ``final``, of every line), and
    the bytes left over.

    Line ``i`` of a block is ``data[starts[i]:ends[i]]`` without its
    ``\\n``; ``parse(data, starts, ends, on_error)`` returns a batch or
    None.
    """
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == _NEWLINE)
    n = ends.size if final else ends.size - ends.size % CHUNK_ROWS
    batches = []
    for lo in range(0, n, CHUNK_ROWS):
        block_ends = ends[lo:min(lo + CHUNK_ROWS, n)]
        starts = np.empty_like(block_ends)
        starts[0] = ends[lo - 1] + 1 if lo else 0
        starts[1:] = block_ends[:-1] + 1
        batch = parse(data, starts, block_ends, on_error)
        if batch is not None:
            batches.append(batch)
    return batches, (data[ends[n - 1] + 1:] if n else data)


def _pipes(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """``(pipes, first, count)``: the positions of every ``|`` in the
    block and, per line, the index of its first one and how many it has."""
    lo = int(starts[0])
    pipes = np.flatnonzero(buf[lo:int(ends[-1])] == _PIPE) + lo
    first = np.searchsorted(pipes, starts)
    return pipes, first, np.searchsorted(pipes, ends) - first


def _nth(pipes: np.ndarray, first: np.ndarray, k: int) -> np.ndarray:
    """Position of each line's ``k``-th ``|`` (junk where it has fewer)."""
    if not pipes.size:
        return np.zeros_like(first)
    return pipes[np.minimum(first + k, pipes.size - 1)]


def _digits(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``(values, ok)`` of the fields ``buf[lo:hi]``; ``ok`` where a field
    is 1 to 18 ASCII digits, which ``int()`` reads as the same value."""
    width = hi - lo
    ok = (width >= 1) & (width <= _MAX_DIGITS)
    values = np.zeros(lo.size, np.int64)
    top = buf.size - 1
    for j in range(int(width[ok].max()) if ok.any() else 0):
        live = j < width
        digit = buf[np.minimum(lo + j, top)] - np.uint8(48)  # wraps < '0'
        ok &= ~live | (digit <= 9)
        values = np.where(live, values * 10 + digit, values)
    return values, ok


def _ops(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``(codes, ok)``: the op code where ``buf[lo:hi]`` is a known op."""
    from ..stream.batch import OP_BY_CODE

    codes = np.zeros(lo.size, np.uint8)
    ok = np.zeros(lo.size, bool)
    top = buf.size - 1
    for code, name in enumerate(OP_BY_CODE):
        match = (hi - lo) == len(name)
        for j, char in enumerate(name.encode()):
            match &= buf[np.minimum(lo + j, top)] == char
        codes[match] = code
        ok |= match
    return codes, ok


def _settle(data: bytes, starts: np.ndarray, ends: np.ndarray,
            ok: np.ndarray, parse: Callable[[str], T],
            store: Callable[[int, T], None],
            on_error: OnError | None) -> np.ndarray:
    """Row indices of the block's records, in line order.

    Lines the bulk pass converted (``ok``) are kept as they are; every
    other non-empty line goes through ``parse`` -- the record readers'
    per-line parser -- and is either kept via ``store(row, record)`` or
    handed to ``on_error`` with the text a record reader would hand it.
    """
    keep = ok.copy()
    for i in np.flatnonzero(~ok & (ends > starts)).tolist():
        raw = data[starts[i]:ends[i]]
        try:
            store(i, parse(raw.decode("utf-8")))
        except (ValueError, IndexError, TypeError, OverflowError) as exc:
            if on_error is None:
                raise
            on_error(raw.decode("utf-8", "backslashreplace"), exc)
            continue
        keep[i] = True
    return np.flatnonzero(keep)


def read_job_chunks(path: str, on_error: OnError | None = None):
    """The jobs trace as single-kind ``EventBatch`` chunks (row ``ts`` is
    ``submit_ts``); the rows :func:`read_jobs` yields, in order."""
    return _chunks(path, job_block, on_error)


def read_publication_chunks(path: str, on_error: OnError | None = None):
    """The publications trace as single-kind ``EventBatch`` chunks; the
    rows :func:`read_publications` yields, in order."""
    return _chunks(path, publication_block, on_error)


def read_app_log_chunks(path: str, on_error: OnError | None = None):
    """The app log as single-kind ``EventBatch`` chunks; the rows
    :func:`read_app_log` yields, in order.  Each chunk's string pool
    holds its distinct paths, each decoded once."""
    return _chunks(path, access_block, on_error)


def job_block(data: bytes, starts: np.ndarray, ends: np.ndarray,
              on_error: OnError | None):
    """One block of job lines as a batch (None if no line is a job)."""
    from ..stream.batch import KIND_JOB_CODE, EventBatch

    buf = np.frombuffer(data, np.uint8)
    pipes, first, count = _pipes(buf, starts, ends)
    ok = count == 6
    cols = []
    lo = starts
    for k in range(7):
        hi = _nth(pipes, first, k) if k < 6 else ends
        values, good = _digits(buf, lo, hi)
        ok &= good
        cols.append(values)
        lo = hi + 1
    jid, uid, sub, start, end, nodes, cores = cols
    ok &= (end >= start) & (start >= sub) & (nodes >= 1) & (cores >= 1)

    def store(i: int, rec: JobRecord) -> None:
        (jid[i], uid[i], sub[i], start[i], end[i], nodes[i],
         cores[i]) = (rec.job_id, rec.uid, rec.submit_ts, rec.start_ts,
                      rec.end_ts, rec.num_nodes, rec.cores_per_node)

    keep = _settle(data, starts, ends, ok, parse_job_line, store, on_error)
    if not keep.size:
        return None
    return EventBatch(
        np.full(keep.size, KIND_JOB_CODE, np.uint8), sub[keep],
        job_id=jid[keep], job_uid=uid[keep], job_start=start[keep],
        job_end=end[keep], job_nodes=nodes[keep], job_cores=cores[keep])


def publication_block(data: bytes, starts: np.ndarray, ends: np.ndarray,
                      on_error: OnError | None):
    """One block of publication lines as a batch (or None).

    Publications are a sliver of the traffic (the paper's traces hold
    1,151 against 1.37M jobs), so every line takes the per-line parser.
    """
    from ..stream.batch import KIND_PUB_CODE, EventBatch

    n = starts.size
    pid, ts, cites = (np.zeros(n, np.int64) for _ in range(3))
    authors: list[np.ndarray] = []

    def store(i: int, rec: PublicationRecord) -> None:
        uids = np.asarray(rec.author_uids, np.int64)
        pid[i], ts[i], cites[i] = rec.pub_id, rec.ts, rec.citations
        authors.append(uids)

    keep = _settle(data, starts, ends, np.zeros(n, bool),
                   parse_publication_line, store, on_error)
    if not keep.size:
        return None
    off = np.zeros(keep.size + 1, np.int64)
    np.cumsum([uids.size for uids in authors], out=off[1:])
    return EventBatch(
        np.full(keep.size, KIND_PUB_CODE, np.uint8), ts[keep],
        pub_id=pid[keep], pub_cit=cites[keep], pub_auth_off=off,
        pub_auth=np.concatenate(authors))


def access_block(data: bytes, starts: np.ndarray, ends: np.ndarray,
                 on_error: OnError | None):
    """One block of app-log lines as a batch (or None)."""
    from ..stream.batch import KIND_ACC_CODE, OP_CODES, EventBatch

    buf = np.frombuffer(data, np.uint8)
    pipes, first, count = _pipes(buf, starts, ends)
    p1, p2, p3 = (_nth(pipes, first, k) for k in range(3))
    ts, ok = _digits(buf, starts, p1)
    uid, good = _digits(buf, p1 + 1, p2)
    ok &= good
    op, good = _ops(buf, p2 + 1, p3)
    ok &= good & (count >= 3)
    # Each distinct path is decoded once, in first-occurrence order;
    # map() keeps the per-row slicing and lookup out of bytecode.
    rows = np.flatnonzero(ok)
    raw_paths = list(map(data.__getitem__, map(
        slice, (p3[rows] + 1).tolist(), ends[rows].tolist())))
    index = dict.fromkeys(raw_paths)
    index = dict(zip(index, range(len(index))))
    path_idx = np.zeros(starts.size, np.int64)
    path_idx[rows] = np.fromiter(map(index.__getitem__, raw_paths),
                                 np.int64, rows.size)
    try:
        pool = list(map(bytes.decode, index))
    except UnicodeDecodeError:
        pool, undecodable = [], []
        for k, raw in enumerate(index):
            try:
                pool.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                pool.append("")  # no kept row names it
                undecodable.append(k)
        ok[rows[np.isin(path_idx[rows], undecodable)]] = False

    def store(i: int, rec: AppAccessRecord) -> None:
        key = rec.path.encode("utf-8")
        k = index.get(key)
        if k is None:
            k = index[key] = len(pool)
            pool.append(rec.path)
        ts[i], uid[i], op[i], path_idx[i] = (rec.ts, rec.uid,
                                             OP_CODES[rec.op], k)

    keep = _settle(data, starts, ends, ok, parse_access_line, store,
                   on_error)
    if not keep.size:
        return None
    return EventBatch(
        np.full(keep.size, KIND_ACC_CODE, np.uint8), ts[keep],
        acc_uid=uid[keep], acc_op=op[keep],
        acc_path=path_idx[keep].astype(np.uint32), pool=pool)
