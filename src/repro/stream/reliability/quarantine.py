"""Event quarantine: per-source guards and a bounded dead-letter log.

The merges in :mod:`repro.stream.batch` assume well-formed, time-sorted
rows; production feeds deliver neither reliably.  The quarantine sits
*between each source and the merge*: every object a source emits must
be a columnar :class:`~repro.stream.batch.EventBatch`, whose rows are
checked in bulk for record invariants, optionally a known uid, a
monotone timestamp and no duplicate identity, and anything that fails
is **diverted** -- appended to a dead-letter JSONL with a reason code
and dropped from the stream -- instead of poisoning the merge or the
service state.

Guarding per source, before the merge, preserves the merge's ordering
contract: the merge never sees garbage, and the per-source monotonicity
check subsumes the ``_validated`` regression assertion (a regressed
row is diverted rather than fatal).

The decisive property for testing: diverting a row never perturbs the
rows around it, so for a fault plan that only *inserts* faults, the
guarded stream is exactly the clean stream -- which is what lets the
chaos suite demand bit-identical results under 1% malformed input.

Duplicate detection applies only to records that carry an identity (job
and publication ids are unique in every trace family).  Access records
have no sequence number, and a byte-identical repeated access is a
legitimate workload pattern (the same uid re-reading the same path in
the same second), so access duplicates are fundamentally
indistinguishable from real traffic and are deliberately *not*
quarantined -- dedup without an identity would drop real events.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

import numpy as np

from ...traces.io import OnError
from ..batch import (KIND_ACC_CODE, KIND_JOB_CODE, KIND_PUB_CODE, OP_BY_CODE,
                     EventBatch)
from ..events import EVENT_JOB, EVENT_PUBLICATION
from .jsonl import RotatingJsonl

__all__ = ["DeadLetterLog", "EventQuarantine",
           "REASON_UNPARSABLE", "REASON_NOT_EVENT", "REASON_REGRESSION",
           "REASON_DUPLICATE", "REASON_UNKNOWN_UID", "REASON_CORRUPT_FRAME"]

REASON_UNPARSABLE = "unparsable_row"      # reader could not parse the line
REASON_NOT_EVENT = "not_an_event"         # not an EventBatch at all
REASON_REGRESSION = "time_regression"     # ts precedes the source's clock
REASON_DUPLICATE = "duplicate"            # identity already delivered
REASON_UNKNOWN_UID = "unknown_uid"        # uid outside the known set
REASON_CORRUPT_FRAME = "corrupt_frame"    # binary batch frame failed CRC/shape

_I64_MAX = np.iinfo(np.int64).max


#: The dead letter is a rotating JSONL log of diverted rows, one record
#: per row (see :mod:`~repro.stream.reliability.jsonl`).
DeadLetterLog = RotatingJsonl


class EventQuarantine:
    """Divert malformed / disordered / duplicate rows from a stream.

    One quarantine instance guards all sources of a merge (its per-source
    clocks and identity sets are keyed by source name).  ``known_uids``
    is opt-in: when given, rows referencing uids outside the set are
    diverted too -- off by default because a merely *new* user is not an
    error in every deployment.
    """

    def __init__(self, dead_letter: DeadLetterLog | None = None,
                 known_uids: Iterable[int] | None = None) -> None:
        self.dead_letter = dead_letter
        self.known_uids = (frozenset(int(u) for u in known_uids)
                           if known_uids is not None else None)
        self.total = 0
        self.by_reason: dict[str, int] = {}
        self.by_source: dict[str, int] = {}
        self._last_ts: dict[str, int] = {}
        #: Delivered identities per (source, kind): job and publication
        #: ids are separate namespaces, and a set of ints is a third the
        #: size of one of (kind, id) tuples.
        self._seen_ids: dict[tuple[str, str], set[int]] = {}
        self._known_arr: np.ndarray | None = None
        # Divert is called from the engine thread (guards) *and* from
        # listener reader threads (frame-level corruption hooks); the
        # counters and the dead-letter append must not interleave.
        self._divert_lock = threading.Lock()

    # -- diversion -----------------------------------------------------

    def divert(self, source: str, reason: str, detail: str,
               obj: object = None) -> None:
        """Record one diverted item (and dead-letter it, when configured)."""
        with self._divert_lock:
            self.total += 1
            self.by_reason[reason] = self.by_reason.get(reason, 0) + 1
            self.by_source[source] = self.by_source.get(source, 0) + 1
            if self.dead_letter is not None:
                # reason_seq / source_seq are *cumulative* counters, not
                # per-file: the newest surviving record therefore carries
                # the exact lifetime totals even after rotation has dropped
                # the oldest backup, which is what lets resume_from restore
                # counts instead of recounting (undercountable) lines.
                self.dead_letter.append({
                    "seq": self.total,
                    "source": source,
                    "reason": reason,
                    "reason_seq": self.by_reason[reason],
                    "source_seq": self.by_source[source],
                    "detail": detail,
                    "event": repr(obj)[:300],
                })

    def resume_from(self, dead_letter: DeadLetterLog) -> None:
        """Restore lifetime counters from a dead-letter log's files.

        Reads every surviving record (backups, then the live file) and
        takes the maximum of each cumulative counter (``seq`` for the
        total, ``reason_seq`` / ``source_seq`` per key), so a restarted
        daemon's quarantine summary continues the old daemon's counts
        rather than restarting from zero.  Torn lines (the last append
        may itself have been torn by the crash) are skipped.
        """
        for rec in dead_letter.records():
            seq = rec.get("seq")
            if isinstance(seq, int):
                self.total = max(self.total, seq)
            for key, counts in (("reason", self.by_reason),
                                ("source", self.by_source)):
                name = rec.get(key)
                cum = rec.get(f"{key}_seq")
                if isinstance(name, str) and isinstance(cum, int):
                    counts[name] = max(counts.get(name, 0), cum)

    def reader_hook(self, source: str) -> OnError:
        """An ``on_error`` callback for the trace readers of ``source``."""
        def on_error(line: str, exc: Exception) -> None:
            self.divert(source, REASON_UNPARSABLE,
                        f"{type(exc).__name__}: {exc}", line)
        return on_error

    # -- guarding ------------------------------------------------------

    def guard(self, source: str,
              items: Iterable[object]) -> Iterator[EventBatch]:
        """Yield the valid rows of one source; divert the rest.

        Every :class:`EventBatch` (a trace-file chunk, a v2 frame, a run
        of v1 frames, a fault injection) is validated whole by
        :meth:`validate_batch` and re-emitted compacted; anything else
        is garbage and is diverted as ``not_an_event``.
        """
        for obj in items:
            if type(obj) is EventBatch:
                out = self.validate_batch(source, obj)
                if out is not None:
                    yield out
            else:
                self.divert(source, REASON_NOT_EVENT,
                            f"expected EventBatch, got "
                            f"{type(obj).__name__}", obj)

    def validate_batch(self, source: str,
                       batch: EventBatch) -> EventBatch | None:
        """The accept rules, over one columnar batch.

        A row is accepted when it holds its record's invariants, names
        only known uids (when ``known_uids`` is set), does not precede
        the source's clock and, for a job or publication, carries an id
        the source has not delivered before.  The conditions are checked
        in that canonical order, the first failure naming the reason,
        and failing rows are diverted *in row order*; accepted rows
        advance the source's clock and identity sets exactly as checking
        them one row at a time would.  Returns the surviving rows
        (compacted when any were diverted) or ``None`` when nothing
        survived.

        The clock and identity check is one bulk test for the common
        case (rows in time order, every id fresh) and an exact pass
        over the surviving rows, one at a time, otherwise.
        """
        n = batch.n
        if n == 0:
            return None
        kinds = batch.kinds
        ts = batch.ts
        known = self.known_uids
        keep = np.ones(n, dtype=bool)
        reasons: dict[int, tuple[str, str]] = {}

        def mark(rows: np.ndarray, reason: str, detail: str) -> None:
            """Divert ``rows`` not already diverted, with one ``detail``."""
            for r in rows.tolist():
                if r not in reasons:
                    reasons[r] = (reason, detail)
                    keep[r] = False

        jidx = pidx = None
        # 1. record invariants (a v1 frame's decode_event refuses to
        #    construct these rows: same reason code).
        if batch.n_jobs:
            jidx = np.flatnonzero(kinds == KIND_JOB_CODE)
            jbad = ((batch.job_end < batch.job_start)
                    | (batch.job_start < ts[jidx])
                    | (batch.job_nodes < 1) | (batch.job_cores < 1))
            if jbad.any():
                mark(jidx[jbad], REASON_UNPARSABLE,
                     "job row violates record invariants")
            # The engine scores a job as nodes * cores * (end - start)
            # in int64, which wraps silently: a product no int64 holds
            # is diverted like any other int outside int64.  The test is
            # exact integer arithmetic: a span that overflows turns
            # negative and fails the first term, and nodes * cores can
            # only wrap where the second term fails.
            nodes, cores = batch.job_nodes, batch.job_cores
            span = batch.job_end - batch.job_start
            fits = ((span >= 0)
                    & (nodes <= _I64_MAX // np.maximum(cores, 1))
                    & (nodes * cores <= _I64_MAX // np.maximum(span, 1)))
            if not fits.all():
                mark(jidx[~fits], REASON_UNPARSABLE,
                     "job core-seconds do not fit an int64")
        if batch.n_acc:
            aidx = np.flatnonzero(kinds == KIND_ACC_CODE)
            abad = ((batch.acc_op >= len(OP_BY_CODE))
                    | (batch.acc_path >= batch.n_pool))
            if abad.any():
                mark(aidx[abad], REASON_UNPARSABLE,
                     "access row has bad op code or pool index")
            # The pool is raw wire bytes: a path that is not UTF-8 would
            # otherwise raise in ``EventBatch.pool()`` on the engine
            # thread (v1 refuses it in decode_event: same reason code).
            undecodable = batch.undecodable_paths()
            if undecodable.size:
                mark(aidx[np.isin(batch.acc_path, undecodable)],
                     REASON_UNPARSABLE, "access row path is not UTF-8")
        if batch.n_pubs:
            pidx = np.flatnonzero(kinds == KIND_PUB_CODE)
            off = batch.pub_auth_off
            pbad = batch.pub_cit < 0
            for k in range(batch.n_pubs):
                lo, hi = int(off[k]), int(off[k + 1])
                if hi - lo > 1 and \
                        np.unique(batch.pub_auth[lo:hi]).size != hi - lo:
                    pbad[k] = True
            if pbad.any():
                mark(pidx[pbad], REASON_UNPARSABLE,
                     "publication row violates record invariants")

        # 2. unknown uids.
        if known is not None:
            karr = self._known_arr
            if karr is None:
                karr = self._known_arr = np.asarray(sorted(known), np.int64)
            if batch.n_jobs:
                ju = ~np.isin(batch.job_uid, karr)
                if ju.any():
                    mark(jidx[ju], REASON_UNKNOWN_UID,
                         "job row uid outside the known set")
            if batch.n_acc:
                au = ~np.isin(batch.acc_uid, karr)
                if au.any():
                    mark(aidx[au], REASON_UNKNOWN_UID,
                         "access row uid outside the known set")
            if batch.n_pubs and batch.pub_auth.size:
                auth_known = np.isin(batch.pub_auth, karr)
                if not auth_known.all():
                    lens = np.diff(batch.pub_auth_off)
                    grp = np.repeat(np.arange(batch.n_pubs), lens)
                    pu = np.zeros(batch.n_pubs, dtype=bool)
                    np.logical_or.at(pu, grp[~auth_known], True)
                    mark(pidx[pu], REASON_UNKNOWN_UID,
                         "publication row author outside the known set")

        # 3. time regression, and duplicates for identity-carrying rows:
        #    one bulk accept for an in-order batch of fresh ids, else an
        #    exact row-by-row pass.
        last = self._last_ts.get(source)
        sidx = np.flatnonzero(keep)
        if sidx.size:
            sts = ts[sidx]
            seen_jobs = self._seen(source, EVENT_JOB)
            seen_pubs = self._seen(source, EVENT_PUBLICATION)
            accepted_all = False
            if bool((sts[1:] >= sts[:-1]).all()) and \
                    (last is None or int(sts[0]) >= last):
                jids = (batch.job_id[keep[jidx]].tolist()
                        if batch.n_jobs else [])
                pids = (batch.pub_id[keep[pidx]].tolist()
                        if batch.n_pubs else [])
                if (len(set(jids)) == len(jids)
                        and len(set(pids)) == len(pids)
                        and seen_jobs.isdisjoint(jids)
                        and seen_pubs.isdisjoint(pids)):
                    seen_jobs.update(jids)
                    seen_pubs.update(pids)
                    self._last_ts[source] = int(sts[-1])
                    accepted_all = True
            if not accepted_all:
                kpos = batch.kpos()
                for r in sidx.tolist():
                    t = int(ts[r])
                    if last is not None and t < last:
                        reasons[r] = (REASON_REGRESSION,
                                      f"ts {t} after {last} from {source}")
                        keep[r] = False
                        continue
                    code = int(kinds[r])
                    seen = None
                    if code == KIND_JOB_CODE:
                        ident, seen = int(batch.job_id[kpos[r]]), seen_jobs
                    elif code == KIND_PUB_CODE:
                        ident, seen = int(batch.pub_id[kpos[r]]), seen_pubs
                    if seen is not None:
                        if ident in seen:
                            reasons[r] = (REASON_DUPLICATE,
                                          f"id {ident} redelivered")
                            keep[r] = False
                            continue
                        seen.add(ident)
                    last = t
                if last is not None:
                    self._last_ts[source] = last

        if reasons:
            for r in sorted(reasons):
                reason, detail = reasons[r]
                self.divert(source, reason, detail, batch.row_debug(r))
            if not keep.any():
                return None
            return batch.compact(keep)
        return batch

    def _seen(self, source: str, kind: str) -> set[int]:
        """The ids of ``kind`` already delivered by ``source``."""
        return self._seen_ids.setdefault((source, kind), set())

    # -- reporting -----------------------------------------------------

    def summary(self) -> dict:
        out: dict = {
            "quarantined": self.total,
            "by_reason": dict(sorted(self.by_reason.items())),
            "by_source": dict(sorted(self.by_source.items())),
        }
        if self.dead_letter is not None:
            out["dead_letter"] = {
                "path": self.dead_letter.path,
                "written": self.dead_letter.written,
                "rotations": self.dead_letter.rotations,
            }
        return out

