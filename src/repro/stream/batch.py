"""Columnar event batches: the in-memory form of protocol-v2 frames.

Per-event JSON framing pays object, dict, and heap costs for every row
on the wire; the retention engine, however, consumes day-granular
*columns* (``replay_day_columns``, ``ColumnarActivityStore``).  An
:class:`EventBatch` is the meeting point: one decoded binary frame's
worth of events held as parallel NumPy arrays -- a row-order ``kinds``
byte per event, a shared ``ts`` column, and per-kind payload columns --
plus a string pool so each distinct path crosses the wire (and the
decoder) once.

The columnar layout is adapted from the paper's day/kind/user/type/size
framing to this repo's three trace families:

* **job** rows carry ``job_id, uid, start_ts, end_ts, num_nodes,
  cores_per_node`` (the row ``ts`` *is* ``submit_ts``),
* **publication** rows carry ``pub_id, citations`` and a ragged
  ``author_uids`` list (offsets + flat array),
* **access** rows carry ``uid``, an op code, and a pool index.

Ordering contract: rows within a batch are non-decreasing in ``ts`` --
the producer emits them straight off a merged (or per-source sorted)
stream -- so a batch can take part in a merge in bulk, not row by row.
:func:`horizon_merge` generalizes the stable ``heapq.merge`` of
per-event streams and emits rows in exactly the order it would produce
event by event -- the property the bit-identity contract rests on:
every buffered row below the sources' common horizon is final, so it is
emitted in one mixed-kind batch per round, however finely the sources
interleave.  Trace files and sockets share it; a socket stream's
sequence ledger follows its rows through the merge by their
``lineage``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..traces.schema import AppAccessRecord, JobRecord, PublicationRecord
from .events import (EVENT_ACCESS, EVENT_JOB, EVENT_PUBLICATION, StreamEvent)

__all__ = ["KIND_JOB_CODE", "KIND_PUB_CODE", "KIND_ACC_CODE",
           "KIND_BY_CODE", "OP_BY_CODE", "OP_CODES",
           "EventBatch", "BatchBuilder", "BatchRun",
           "pack_strings", "unpack_strings",
           "horizon_merge", "skip_stream_items"]

#: Row kind codes, in activity-before-access tie-break order.
KIND_JOB_CODE = 0
KIND_PUB_CODE = 1
KIND_ACC_CODE = 2
KIND_BY_CODE = (EVENT_JOB, EVENT_PUBLICATION, EVENT_ACCESS)
KIND_CODES = {name: code for code, name in enumerate(KIND_BY_CODE)}

#: Access op codes; values match the compiled replay kernels, so decoded
#: rows (and the engine's per-event ingest) feed them unchanged.
OP_BY_CODE = ("access", "create", "touch")
OP_CODES = {name: code for code, name in enumerate(OP_BY_CODE)}

_I64 = np.int64
_EMPTY_I64 = np.zeros(0, _I64)
_EMPTY_U8 = np.zeros(0, np.uint8)
_EMPTY_U32 = np.zeros(0, np.uint32)


def pack_strings(strings: Iterable[str]) -> tuple[np.ndarray, bytes]:
    """``(offsets, blob)``: the strings as one UTF-8 blob plus offsets.

    String ``i`` is ``blob[offsets[i]:offsets[i + 1]]``; the int64
    offsets start at 0 and end at ``len(blob)``.  This is the one
    string-pool layout of the v2 wire codec, :class:`EventBatch` and the
    checkpoint path catalog; :func:`unpack_strings` inverts it.  A
    string that does not encode as UTF-8 (a lone surrogate) raises
    ``UnicodeEncodeError``.
    """
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, _I64)
    np.cumsum(np.fromiter(map(len, encoded), _I64, len(encoded)),
              out=offsets[1:])
    return offsets, b"".join(encoded)


def unpack_strings(offsets, blob: bytes) -> list[str]:
    """The strings :func:`pack_strings` packed into ``(offsets, blob)``."""
    offs = offsets.tolist()
    return [blob[lo:hi].decode("utf-8") for lo, hi in zip(offs, offs[1:])]


class EventBatch:
    """One frame's worth of events as parallel columns (see module doc).

    Row arrays (length ``n``): ``kinds`` (uint8 codes) and ``ts``
    (int64).  Kind-local arrays hold the payload columns for rows of
    that kind, in row order; ``kpos()`` maps a row index to its
    kind-local index.  The string pool is either a materialized
    ``list[str]`` (producer side) or a lazy (offsets, utf-8 blob) pair
    (decoder side) -- ``pool()`` materializes on first use, in the
    engine thread, never per row.
    """

    __slots__ = ("kinds", "ts",
                 "job_id", "job_uid", "job_start", "job_end", "job_nodes",
                 "job_cores",
                 "pub_id", "pub_cit", "pub_auth_off", "pub_auth",
                 "acc_uid", "acc_op", "acc_path",
                 "single_kind", "_pool", "_pool_off", "_pool_blob",
                 "_kpos", "pid_map",
                 "first_seq", "seq_width", "orig_rows", "lineage")

    def __init__(self, kinds, ts, *,
                 job_id=_EMPTY_I64, job_uid=_EMPTY_I64,
                 job_start=_EMPTY_I64, job_end=_EMPTY_I64,
                 job_nodes=_EMPTY_I64, job_cores=_EMPTY_I64,
                 pub_id=_EMPTY_I64, pub_cit=_EMPTY_I64,
                 pub_auth_off=None, pub_auth=_EMPTY_I64,
                 acc_uid=_EMPTY_I64, acc_op=_EMPTY_U8,
                 acc_path=_EMPTY_U32,
                 pool=None, pool_off=None, pool_blob=None) -> None:
        self.kinds = kinds
        self.ts = ts
        self.job_id = job_id
        self.job_uid = job_uid
        self.job_start = job_start
        self.job_end = job_end
        self.job_nodes = job_nodes
        self.job_cores = job_cores
        self.pub_id = pub_id
        self.pub_cit = pub_cit
        self.pub_auth_off = (pub_auth_off if pub_auth_off is not None
                             else np.zeros(pub_id.size + 1, _I64))
        self.pub_auth = pub_auth
        self.acc_uid = acc_uid
        self.acc_op = acc_op
        self.acc_path = acc_path
        self._pool = pool
        self._pool_off = pool_off
        self._pool_blob = pool_blob
        self.single_kind = bool(
            kinds.size == 0 or kinds[0] == kinds[-1]
            and bool((kinds == kinds[0]).all()))
        self._kpos = None
        #: Per-batch path-interning cache (``pool index -> catalog pid``),
        #: filled lazily by the consuming service.  A batch is consumed by
        #: exactly one service, so the cache cannot leak across catalogs.
        self.pid_map = None
        #: Sequencing provenance (networked exactly-once ingest).
        #: ``first_seq`` is the 1-based per-source sequence number of the
        #: batch's *original* row 0 as it crossed the wire; ``seq_width``
        #: the original row count (so the batch covered sequence numbers
        #: ``first_seq .. first_seq + seq_width - 1``); ``orig_rows`` maps
        #: each current row back to its original row offset after
        #: compactions (``None`` = identity).  All three stay constant
        #: under :meth:`compact` so checkpoint cursors can name the exact
        #: wire position of any surviving row.  ``None`` on unsequenced
        #: batches.
        self.first_seq = None
        self.seq_width = None
        self.orig_rows = None
        #: Per-row ``(source index, covering wire seq)`` pairs, an
        #: ``(n, 2)`` int64 array a socket stream stamps on its guarded
        #: batches so its sequence ledger can follow every row through
        #: :func:`horizon_merge`; :meth:`take`, :meth:`slice_rows` and
        #: the merge carry it along.  ``None`` elsewhere.
        self.lineage = None

    # -- shape ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.kinds.size

    #: Uniform "how many events does this stream item cover" protocol,
    #: shared with :class:`BatchRun`.
    @property
    def n_rows(self) -> int:
        return self.kinds.size

    @property
    def n_jobs(self) -> int:
        return self.job_id.size

    @property
    def n_pubs(self) -> int:
        return self.pub_id.size

    @property
    def n_acc(self) -> int:
        return self.acc_uid.size

    @property
    def n_pool(self) -> int:
        if self._pool is not None:
            return len(self._pool)
        return 0 if self._pool_off is None else self._pool_off.size - 1

    def pool(self) -> list[str]:
        """The materialized string pool (cached after first decode)."""
        if self._pool is None:
            self._pool = ([] if self._pool_off is None else
                          unpack_strings(self._pool_off, self._pool_blob))
        return self._pool

    def undecodable_paths(self) -> np.ndarray:
        """Pool indices whose bytes are not UTF-8 (sorted int64).

        Materializes the pool as :meth:`pool` does, except that an entry
        that does not decode is kept in its ``backslashreplace``
        spelling, so neither :meth:`pool` nor :meth:`row_debug` raises
        once the quarantine has diverted the rows that name it.
        """
        try:
            self.pool()
            return _EMPTY_I64
        except UnicodeDecodeError:
            pass
        offs = self._pool_off.tolist()
        pool, bad = [], []
        for i, (lo, hi) in enumerate(zip(offs, offs[1:])):
            raw = self._pool_blob[lo:hi]
            try:
                pool.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                pool.append(raw.decode("utf-8", "backslashreplace"))
                bad.append(i)
        self._pool = pool
        return np.asarray(bad, _I64)

    def kpos(self):
        """Kind-local index of each row (lazy; trivial if single-kind)."""
        if self._kpos is None:
            if self.single_kind:
                self._kpos = np.arange(self.n, dtype=_I64)
            else:
                kpos = np.empty(self.n, dtype=_I64)
                for code in (KIND_JOB_CODE, KIND_PUB_CODE, KIND_ACC_CODE):
                    idx = np.flatnonzero(self.kinds == code)
                    kpos[idx] = np.arange(idx.size)
                self._kpos = kpos
        return self._kpos

    # -- row access -----------------------------------------------------

    def compact(self, keep) -> "EventBatch":
        """A new batch holding only rows where ``keep`` is True.

        Used by the quarantine after diverting malformed rows: the
        surviving rows stay columnar instead of falling back to
        per-event objects.  The string pool is shared (indices stay
        valid), so compaction is O(kept rows).
        """
        rows = np.flatnonzero(np.asarray(keep, dtype=bool))
        out = self.take(rows)
        if self.first_seq is not None:
            out.first_seq = self.first_seq
            out.seq_width = self.seq_width
            out.orig_rows = (self.orig_rows[rows]
                             if self.orig_rows is not None else rows)
        return out

    def take(self, rows) -> "EventBatch":
        """A new batch of the rows ``rows`` (indices, in the new order).

        Each kind's payload columns follow its rows, so a permutation of
        a mixed-kind batch stays consistent; the pool is shared.
        Unsequenced: :meth:`compact` carries the provenance.
        """
        rows = np.asarray(rows, dtype=_I64)
        kinds = self.kinds[rows]
        kpos = self.kpos()[rows]
        jk = kpos[kinds == KIND_JOB_CODE]
        pk = kpos[kinds == KIND_PUB_CODE]
        ak = kpos[kinds == KIND_ACC_CODE]
        lens = np.diff(self.pub_auth_off)[pk]
        off = np.zeros(pk.size + 1, _I64)
        np.cumsum(lens, out=off[1:])
        auth = self.pub_auth[np.repeat(self.pub_auth_off[pk] - off[:-1], lens)
                             + np.arange(off[-1], dtype=_I64)]
        out = EventBatch(
            kinds, self.ts[rows],
            job_id=self.job_id[jk], job_uid=self.job_uid[jk],
            job_start=self.job_start[jk], job_end=self.job_end[jk],
            job_nodes=self.job_nodes[jk], job_cores=self.job_cores[jk],
            pub_id=self.pub_id[pk], pub_cit=self.pub_cit[pk],
            pub_auth_off=off, pub_auth=auth,
            acc_uid=self.acc_uid[ak], acc_op=self.acc_op[ak],
            acc_path=self.acc_path[ak],
            pool=self._pool, pool_off=self._pool_off,
            pool_blob=self._pool_blob)
        if self.lineage is not None:
            out.lineage = self.lineage[rows]
        return out

    def _kind_range(self, code: int, lo: int, hi: int) -> tuple[int, int]:
        """Kind-local index range of the ``code`` rows among ``[lo, hi)``."""
        kinds = self.kinds
        if self.single_kind:
            return (lo, hi) if self.n and kinds[0] == code else (0, 0)
        a = int(np.count_nonzero(kinds[:lo] == code))
        return a, a + int(np.count_nonzero(kinds[lo:hi] == code))

    def slice_rows(self, lo: int, hi: int) -> "EventBatch":
        """Rows ``[lo, hi)`` as a batch of views sharing this pool.

        What a file source's chunk is cut with: on a reopen's skip and
        at the merge horizon.  Unsequenced, like the chunks it cuts.
        """
        j0, j1 = self._kind_range(KIND_JOB_CODE, lo, hi)
        p0, p1 = self._kind_range(KIND_PUB_CODE, lo, hi)
        a0, a1 = self._kind_range(KIND_ACC_CODE, lo, hi)
        off = self.pub_auth_off[p0:p1 + 1]
        out = EventBatch(
            self.kinds[lo:hi], self.ts[lo:hi],
            job_id=self.job_id[j0:j1], job_uid=self.job_uid[j0:j1],
            job_start=self.job_start[j0:j1], job_end=self.job_end[j0:j1],
            job_nodes=self.job_nodes[j0:j1], job_cores=self.job_cores[j0:j1],
            pub_id=self.pub_id[p0:p1], pub_cit=self.pub_cit[p0:p1],
            pub_auth_off=off - off[0],
            pub_auth=self.pub_auth[int(off[0]):int(off[-1])],
            acc_uid=self.acc_uid[a0:a1], acc_op=self.acc_op[a0:a1],
            acc_path=self.acc_path[a0:a1],
            pool=self._pool, pool_off=self._pool_off,
            pool_blob=self._pool_blob)
        if self.lineage is not None:
            out.lineage = self.lineage[lo:hi]
        return out

    def tail(self, skip: int) -> "EventBatch":
        """The batch minus its first ``skip`` rows (the stream-item
        protocol :func:`skip_stream_items` shares with :class:`BatchRun`)."""
        return self.slice_rows(skip, self.n)

    def subset(self, keep) -> "EventBatch":
        """Like :meth:`compact`, but with the string pool pruned.

        :meth:`compact` shares the full pool (indices stay valid), which
        is right for in-process quarantine but wrong for a shard router
        re-encoding the surviving rows onto a new wire frame -- the
        frame would carry every path of the original batch.  Here the
        pool is cut down to exactly the paths the kept access rows
        reference, and ``acc_path`` is remapped to the new indices; an
        index past the pool stays past the new one.  A pool that came
        off the wire is pruned by byte ranges, never decoded, so a path
        that is not UTF-8 travels on to the quarantine that diverts its
        row.  Sequencing provenance is dropped: a routed sub-batch lives
        in the *lane's* sequence domain, which the router assigns fresh.
        """
        out = self.compact(keep)
        out.first_seq = out.seq_width = out.orig_rows = None
        used = np.unique(out.acc_path)
        used = used[used < self.n_pool]
        out.acc_path = np.searchsorted(used, out.acc_path).astype(np.uint32)
        if self._pool_off is not None:
            offs = self._pool_off.astype(_I64)
            lo, hi = offs[used], offs[used + 1]
            blob = self._pool_blob
            out._pool_blob = b"".join(
                blob[a:b] for a, b in zip(lo.tolist(), hi.tolist()))
            out._pool_off = np.zeros(used.size + 1, _I64)
            np.cumsum(hi - lo, out=out._pool_off[1:])
            out._pool = None
        else:
            pool = self.pool()
            out._pool = [pool[i] for i in used.tolist()]
        return out

    def packed_pool(self) -> tuple[np.ndarray, bytes]:
        """The string pool as :func:`pack_strings` ``(offsets, blob)``.

        A pool that came off the wire is returned as received, so
        re-encoding a routed batch neither decodes nor re-encodes it.
        """
        if self._pool_off is not None:
            return self._pool_off, self._pool_blob
        return pack_strings(self.pool())

    def split_at_ts(self, cut_ts: int) -> tuple["EventBatch", "EventBatch"]:
        """``(rows with ts < cut_ts, rows with ts >= cut_ts)``.

        Rows are non-decreasing in ``ts`` (the batch ordering contract),
        so this is the epoch split a shard router applies at a rebalance
        cut: the two halves preserve row order and each prunes its pool.
        """
        k = int(np.searchsorted(self.ts, cut_ts, side="left"))
        mask = np.zeros(self.n, dtype=bool)
        mask[:k] = True
        return self.subset(mask), self.subset(~mask)

    def drop_seq_prefix(self, k: int) -> "EventBatch":
        """Drop the first ``k`` rows (already-received duplicates).

        Used at the ingest edge when a resent batch partially overlaps
        the source cursor; ``first_seq``/``seq_width`` are preserved and
        ``orig_rows`` keeps naming the surviving rows' original wire
        offsets, so per-source checkpoint cursors stay exact.
        """
        keep = np.ones(self.n, dtype=bool)
        keep[:k] = False
        return self.compact(keep)

    def event_at(self, row: int) -> StreamEvent:
        """Reconstruct the :class:`StreamEvent` of one row (slow path)."""
        code = int(self.kinds[row])
        k = int(self.kpos()[row])
        ts = int(self.ts[row])
        if code == KIND_ACC_CODE:
            rec = AppAccessRecord(ts, int(self.acc_uid[k]),
                                  self.pool()[int(self.acc_path[k])],
                                  OP_BY_CODE[int(self.acc_op[k])])
            return StreamEvent(ts, EVENT_ACCESS, rec)
        if code == KIND_JOB_CODE:
            rec = JobRecord(int(self.job_id[k]), int(self.job_uid[k]), ts,
                            int(self.job_start[k]), int(self.job_end[k]),
                            int(self.job_nodes[k]), int(self.job_cores[k]))
            return StreamEvent(ts, EVENT_JOB, rec)
        lo, hi = int(self.pub_auth_off[k]), int(self.pub_auth_off[k + 1])
        rec = PublicationRecord(int(self.pub_id[k]), ts,
                                self.pub_auth[lo:hi].tolist(),
                                int(self.pub_cit[k]))
        return StreamEvent(ts, EVENT_PUBLICATION, rec)

    def iter_events(self, lo: int = 0, hi: int | None = None,
                    ) -> Iterator[StreamEvent]:
        """Rows ``[lo, hi)`` as reconstructed events (debug/compat path)."""
        for row in range(lo, self.n if hi is None else hi):
            yield self.event_at(row)

    def row_debug(self, row: int) -> dict:
        """A raw-column view of one row for dead-letter forensics.

        Unlike :meth:`event_at` this never constructs records, so it is
        safe on rows whose values violate the record invariants -- the
        rows the quarantine is diverting.
        """
        code = int(self.kinds[row])
        k = int(self.kpos()[row])
        out = {"kind": KIND_BY_CODE[code] if code < 3 else code,
               "ts": int(self.ts[row])}
        if code == KIND_ACC_CODE:
            pi = int(self.acc_path[k])
            out.update(uid=int(self.acc_uid[k]), op=int(self.acc_op[k]),
                       path=(self.pool()[pi] if pi < self.n_pool else pi))
        elif code == KIND_JOB_CODE:
            out.update(job_id=int(self.job_id[k]), uid=int(self.job_uid[k]),
                       start_ts=int(self.job_start[k]),
                       end_ts=int(self.job_end[k]),
                       num_nodes=int(self.job_nodes[k]),
                       cores_per_node=int(self.job_cores[k]))
        elif code == KIND_PUB_CODE:
            lo, hi = int(self.pub_auth_off[k]), int(self.pub_auth_off[k + 1])
            out.update(pub_id=int(self.pub_id[k]),
                       citations=int(self.pub_cit[k]),
                       author_uids=self.pub_auth[lo:hi].tolist())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EventBatch(n={self.n}, jobs={self.n_jobs}, "
                f"pubs={self.n_pubs}, accesses={self.n_acc}, "
                f"pool={self.n_pool})")


class BatchRun:
    """A contiguous row slice ``[lo, hi)`` of one batch, post-merge.

    This is what the hybrid merge hands the engine: the engine ingests
    the slice columnarly (``MultiTenantService.ingest_run``) without the
    rows ever becoming objects.
    """

    __slots__ = ("batch", "lo", "hi")

    def __init__(self, batch: EventBatch, lo: int, hi: int) -> None:
        self.batch = batch
        self.lo = lo
        self.hi = hi

    @property
    def n_rows(self) -> int:
        return self.hi - self.lo

    def tail(self, skip: int) -> "BatchRun":
        """The run minus its first ``skip`` rows (resume positioning)."""
        return BatchRun(self.batch, self.lo + skip, self.hi)

    def iter_events(self) -> Iterator[StreamEvent]:
        return self.batch.iter_events(self.lo, self.hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchRun([{self.lo}:{self.hi}) of {self.batch!r})"


class BatchBuilder:
    """Producer-side accumulator: events in, :class:`EventBatch` out.

    :meth:`extend` appends to plain lists (the producer hot loop);
    ``build`` converts to columns in bulk.
    """

    __slots__ = ("_kinds", "_ts", "_jobs", "_pubs", "_acc",
                 "_pool", "_pool_index")

    def __init__(self) -> None:
        self._kinds = bytearray()
        self._ts: list[int] = []
        self._jobs: list[tuple[int, int, int, int, int, int]] = []
        self._pubs: list[tuple[int, int, list[int]]] = []
        self._acc: list[tuple[int, int, int]] = []
        self._pool: list[str] = []
        self._pool_index: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._ts)

    def extend(self, events: Iterable[StreamEvent]) -> None:
        """Append ``events``, with the per-event costs hoisted.

        The publisher hot loop spends its time here, competing with the
        engine thread for the interpreter, so every loop iteration
        avoids attribute lookups.
        """
        kinds_append = self._kinds.append
        ts_append = self._ts.append
        acc_append = self._acc.append
        jobs_append = self._jobs.append
        pubs_append = self._pubs.append
        pool_index = self._pool_index
        pool = self._pool
        op_codes = OP_CODES
        for event in events:
            kind = event.kind
            p = event.payload
            ts_append(event.ts)
            if kind == EVENT_ACCESS:
                kinds_append(KIND_ACC_CODE)
                idx = pool_index.get(p.path)
                if idx is None:
                    idx = len(pool)
                    pool_index[p.path] = idx
                    pool.append(p.path)
                acc_append((p.uid, op_codes[p.op], idx))
            elif kind == EVENT_JOB:
                kinds_append(KIND_JOB_CODE)
                jobs_append((p.job_id, p.uid, p.start_ts, p.end_ts,
                             p.num_nodes, p.cores_per_node))
            elif kind == EVENT_PUBLICATION:
                kinds_append(KIND_PUB_CODE)
                pubs_append((p.pub_id, p.citations, list(p.author_uids)))
            else:
                raise ValueError(
                    f"cannot batch stream event of kind {kind!r}")

    def build(self) -> EventBatch:
        jobs = self._jobs
        pubs = self._pubs
        acc = self._acc
        auth_off = np.zeros(len(pubs) + 1, _I64)
        if pubs:
            np.cumsum([len(a) for _, _, a in pubs], out=auth_off[1:])
        flat_auth = ([u for _, _, a in pubs for u in a]
                     if pubs else _EMPTY_I64)
        return EventBatch(
            np.frombuffer(bytes(self._kinds), dtype=np.uint8),
            np.asarray(self._ts, dtype=_I64),
            job_id=np.asarray([j[0] for j in jobs], dtype=_I64),
            job_uid=np.asarray([j[1] for j in jobs], dtype=_I64),
            job_start=np.asarray([j[2] for j in jobs], dtype=_I64),
            job_end=np.asarray([j[3] for j in jobs], dtype=_I64),
            job_nodes=np.asarray([j[4] for j in jobs], dtype=_I64),
            job_cores=np.asarray([j[5] for j in jobs], dtype=_I64),
            pub_id=np.asarray([p[0] for p in pubs], dtype=_I64),
            pub_cit=np.asarray([p[1] for p in pubs], dtype=_I64),
            pub_auth_off=auth_off,
            pub_auth=np.asarray(flat_auth, dtype=_I64),
            acc_uid=np.asarray([a[0] for a in acc], dtype=_I64),
            acc_op=np.frombuffer(bytes(a[1] for a in acc), dtype=np.uint8),
            acc_path=np.asarray([a[2] for a in acc], dtype=np.uint32),
            pool=self._pool)


# ---------------------------------------------------------------------------
# merge and cursor skip


def horizon_merge(sources: Iterable[Iterable[EventBatch]],
                  ) -> Iterator[BatchRun]:
    """Stable merge of time-sorted sources into mixed-kind batch runs.

    Semantics: the rows come out in ``heapq.merge(key=ts)`` order over
    the sources' rows -- smallest timestamp first, ties broken by source
    listing order, source order kept.  Each source buffers what it has
    delivered.  The *horizon* is the smallest last-buffered timestamp of
    any live source: no live source can still deliver a row below its
    own last buffered one, so every buffered row strictly below the
    horizon is final.  Those rows are ordered by a stable argsort over
    the sources' rows in listing order -- timestamp, then listing order,
    then source order, exactly the heap's tie-break -- and emitted as
    one :class:`BatchRun`; then the first source holding the horizon is
    pulled once more.  A source that ends leaves the horizon, so the
    last round emits everything.

    How finely the sources interleave does not matter: a round costs a
    few array operations whether it holds one run of the heap merge or
    thousands.  Rows equal to the horizon wait for it to move, so a
    source delivering many rows of one timestamp is buffered whole.
    """
    iters = [iter(src) for src in sources]
    pending: list[list[EventBatch]] = [[] for _ in iters]
    last = [0] * len(iters)

    def pull(i: int) -> bool:
        for item in iters[i]:
            if item.n:
                pending[i].append(item)
                last[i] = int(item.ts[-1])
                return True
        return False

    live = [i for i in range(len(iters)) if pull(i)]
    while True:
        horizon = min(last[i] for i in live) if live else None
        parts: list[EventBatch] = []
        for buf in pending:
            while buf:
                head = buf[0]
                cut = (head.n if horizon is None else
                       int(np.searchsorted(head.ts, horizon, side="left")))
                if cut == head.n:
                    parts.append(head)
                    buf.pop(0)
                    continue
                if cut:
                    parts.append(head.slice_rows(0, cut))
                    buf[0] = head.slice_rows(cut, head.n)
                break
        if parts:
            batch = parts[0] if len(parts) == 1 else _merged(parts)
            yield BatchRun(batch, 0, batch.n)
        if not live:
            return
        i = next(i for i in live if last[i] == horizon)
        if not pull(i):
            live.remove(i)


def _merged(parts: list[EventBatch]) -> EventBatch:
    """The rows of ``parts`` (listed in source order) in stable time
    order, as one batch; access rows keep their paths through one
    appended pool."""
    pool: list[str] = []
    paths = []
    for part in parts:
        if part.n_acc:
            paths.append(part.acc_path.astype(_I64) + len(pool))
            pool.extend(part.pool())
    lens = np.concatenate([np.diff(part.pub_auth_off) for part in parts])
    off = np.zeros(lens.size + 1, _I64)
    np.cumsum(lens, out=off[1:])

    def cat(name: str) -> np.ndarray:
        return np.concatenate([getattr(part, name) for part in parts])

    batch = EventBatch(
        cat("kinds"), cat("ts"),
        job_id=cat("job_id"), job_uid=cat("job_uid"),
        job_start=cat("job_start"), job_end=cat("job_end"),
        job_nodes=cat("job_nodes"), job_cores=cat("job_cores"),
        pub_id=cat("pub_id"), pub_cit=cat("pub_cit"),
        pub_auth_off=off, pub_auth=cat("pub_auth"),
        acc_uid=cat("acc_uid"), acc_op=cat("acc_op"),
        acc_path=(np.concatenate(paths) if paths else _EMPTY_I64
                  ).astype(np.uint32),
        pool=pool)
    if parts[0].lineage is not None:
        batch.lineage = cat("lineage")
    if bool((batch.ts[1:] >= batch.ts[:-1]).all()):
        return batch  # the sources did not interleave
    return batch.take(np.argsort(batch.ts, kind="stable"))


def skip_stream_items(items: Iterable, n: int) -> Iterator:
    """Resume-cursor positioning: drop the first ``n`` *rows*.

    The checkpoint manifest stores how many merged rows the engine
    consumed; replaying the deterministic merge and skipping that many
    lands exactly on the next unprocessed row.  Each item (a
    :class:`BatchRun` or an :class:`EventBatch`) counts its ``n_rows``,
    and the item the cursor lands inside is sliced rather than exploded.
    A file source's reopen skips its delivered chunks the same way.
    """
    if n < 0:
        raise ValueError("cursor must be non-negative")

    def gen():
        remaining = n
        for item in items:
            if remaining:
                size = item.n_rows
                if size <= remaining:
                    remaining -= size
                    continue
                item = item.tail(remaining)
                remaining = 0
            yield item

    return gen()
