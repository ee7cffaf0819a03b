"""Columnar activity storage for rapid repeated activeness evaluation.

The paper's preparation procedure re-evaluates every user's activeness at
each purge trigger ("finishes rapidly, within one second").  The plain
:class:`~repro.core.activeness.ActivenessEvaluator` walks Python
``Activity`` objects and sorts them on every call -- fine for one shot,
wasteful when a year-long replay triggers 52 evaluations over a
mostly-append-only history.

:class:`ColumnarActivityStore` is the one activity store of both engines:
the batch ``FastEmulator``, ``Emulator`` and sweep runner load it with the
whole trace up front, and the streaming ``MultiTenantService`` appends to
it as events arrive.  It keeps each activity type's (uid, timestamp,
impact) columns **uid-major and time-minor** -- the order a stable
``np.lexsort((ts, uid))`` gives the ingestion-order rows:

* appends are buffered as chunks and folded in at the next
  consolidation (at most once between appends);
* a consolidation whose new rows all sit at or after the type's newest
  timestamp -- every engine append, since both feed time-ordered
  history -- sorts only the new rows and inserts each user's after that
  user's existing ones (``np.searchsorted(side="right")`` +
  ``np.insert``); any other re-sorts the whole type stably;
* :meth:`~ColumnarActivityStore.evaluate` finds user segments without
  sorting, masks rows after ``t_c`` only when the type holds some, and
  refolds only the users :func:`~repro.core.activeness.collapse_cutoff`
  cannot prove to rank exactly 0 (every user under the ``"skip"`` and
  ``"epsilon"`` relaxations).

Results equal ``ActivenessEvaluator.evaluate`` over an equivalent ledger
and are independent of how the history was chunked into appends (pinned
by tests).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..traces.schema import JobRecord, PublicationRecord
from .activeness import (ActivenessParams, ActivenessTable, RankAccumulator,
                         collapse_cutoff, evaluate_type_bulk, sorted_segments)
from .activity import (
    Activity,
    ActivityType,
    JOB_SUBMISSION,
    PUBLICATION,
)

__all__ = ["ColumnarActivityStore", "build_activity_store"]

#: ``max_ts`` of a type with no consolidated rows.
_NO_ROWS = np.iinfo(np.int64).min


class _TypeColumns:
    """One activity type's (uids, ts, impacts) columns, uid-major and
    time-minor, plus the chunks appended since the last consolidation."""

    __slots__ = ("_chunks", "_cols", "max_ts")

    def __init__(self) -> None:
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        empty_i = np.empty(0, dtype=np.int64)
        self._cols = (empty_i, empty_i.copy(), np.empty(0, dtype=np.float64))
        #: Newest timestamp of the consolidated columns.
        self.max_ts = _NO_ROWS

    def append_arrays(self, uids: np.ndarray, ts: np.ndarray,
                      impacts: np.ndarray) -> None:
        if not (uids.shape == ts.shape == impacts.shape):
            raise ValueError("columns must be parallel arrays")
        if uids.size == 0:
            return
        if not (impacts >= 0).all():
            raise ValueError("activity impact must be non-negative")
        self._chunks.append((uids.astype(np.int64, copy=True),
                             ts.astype(np.int64, copy=True),
                             impacts.astype(np.float64, copy=True)))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The consolidated columns, folding pending chunks in first.

        The result is the stable ``lexsort((ts, uids))`` of every row in
        ingestion order, whichever path below produced it: rows at or
        after ``max_ts`` sort after every existing row of their user
        (ties keep ingestion order, as the stable sort does).
        """
        if not self._chunks:
            return self._cols
        new = [np.concatenate(col) for col in zip(*self._chunks)]
        self._chunks = []
        uid, ts = new[0], new[1]
        if ts.min() >= self.max_ts:
            order = np.lexsort((ts, uid))
            at = np.searchsorted(self._cols[0], uid[order], side="right")
            self._cols = tuple(np.insert(old, at, col[order])
                               for old, col in zip(self._cols, new))
        else:
            uid, ts, imp = (np.concatenate(pair)
                            for pair in zip(self._cols, new))
            order = np.lexsort((ts, uid))
            self._cols = (uid[order], ts[order], imp[order])
        self.max_ts = max(self.max_ts, int(ts.max()))
        return self._cols

    def restrict(self, keep_mask) -> np.ndarray:
        """Keep only the users ``keep_mask`` keeps; return the dropped
        uids."""
        uids, ts, imp = self.columns()
        if uids.size == 0:
            return uids
        starts, counts = sorted_segments(uids)
        users = uids[starts]
        keep = np.asarray(keep_mask(users), dtype=bool)
        rows = np.repeat(keep, counts)
        self._cols = (uids[rows], ts[rows], imp[rows])
        self.max_ts = int(self._cols[1].max(initial=_NO_ROWS))
        return users[~keep]

    def __len__(self) -> int:
        return self._cols[0].size + sum(c[0].size for c in self._chunks)


def _paper_types() -> dict[ActivityType, _TypeColumns]:
    return {JOB_SUBMISSION: _TypeColumns(), PUBLICATION: _TypeColumns()}


class ColumnarActivityStore:
    """Activity history in sorted per-type columns.

    The two paper activity types are pre-registered so the per-type
    iteration order (and therefore the accumulator scatter order and the
    snapshot layout) does not depend on which kind of activity happens
    to arrive first.

    After each :meth:`evaluate`, ``last_eval_users`` holds the number of
    (user, type) histories with rows visible at ``t_c`` and
    ``last_eval_refolded`` how many of them were refolded.
    """

    def __init__(self) -> None:
        self._types = _paper_types()
        self.last_eval_users = 0
        self.last_eval_refolded = 0

    # ------------------------------------------------------------------
    # ingestion

    def _columns_for(self, activity_type: ActivityType) -> _TypeColumns:
        cols = self._types.get(activity_type)
        if cols is None:
            cols = self._types[activity_type] = _TypeColumns()
        return cols

    def append(self, activity_type: ActivityType, uid: int, ts: int,
               impact: float) -> None:
        """Append a single activity."""
        self._columns_for(activity_type).append_arrays(
            np.asarray([uid]), np.asarray([ts]), np.asarray([impact]))

    def extend(self, activity_type: ActivityType,
               activities: Iterable[Activity]) -> int:
        """Append a batch of :class:`Activity` records; returns the count."""
        acts = list(activities)
        if not acts:
            return 0
        self._columns_for(activity_type).append_arrays(
            np.fromiter((a.uid for a in acts), np.int64, len(acts)),
            np.fromiter((a.ts for a in acts), np.int64, len(acts)),
            np.fromiter((a.impact for a in acts), np.float64, len(acts)))
        return len(acts)

    def ingest_job_columns(self, uids: np.ndarray, ts: np.ndarray,
                           core_hours: np.ndarray,
                           activity_type: ActivityType = JOB_SUBMISSION,
                           ) -> int:
        """Append a columnar run of job submissions; returns the count.

        ``core_hours`` carries each job's unweighted core-hour impact;
        the weight multiply happens here, so each row's float is the
        ``JobRecord.core_hours() * weight`` of the record path.
        """
        uids = np.asarray(uids)
        if uids.size == 0:
            return 0
        self._columns_for(activity_type).append_arrays(
            uids, np.asarray(ts),
            np.asarray(core_hours, dtype=np.float64) * activity_type.weight)
        return int(uids.size)

    def ingest_jobs(self, jobs: Iterable[JobRecord],
                    activity_type: ActivityType = JOB_SUBMISSION) -> int:
        """Job traces (impact = core hours); returns the count."""
        jobs = list(jobs)
        n = len(jobs)
        return self.ingest_job_columns(
            np.fromiter((j.uid for j in jobs), np.int64, n),
            np.fromiter((j.submit_ts for j in jobs), np.int64, n),
            np.fromiter((j.core_hours() for j in jobs), np.float64, n),
            activity_type)

    def ingest_publications(self, pubs: Iterable[PublicationRecord],
                            activity_type: ActivityType = PUBLICATION) -> int:
        """Publications, one row per author (Eq. 8); returns the count."""
        uids: list[int] = []
        ts: list[int] = []
        impacts: list[float] = []
        for pub in pubs:
            for uid in pub.author_uids:
                uids.append(uid)
                ts.append(pub.ts)
                impacts.append(pub.author_score(uid) * activity_type.weight)
        if not uids:
            return 0
        self._columns_for(activity_type).append_arrays(
            np.asarray(uids), np.asarray(ts), np.asarray(impacts))
        return len(uids)

    # ------------------------------------------------------------------
    # inspection

    def types(self) -> list[ActivityType]:
        return [t for t, c in self._types.items() if len(c)]

    def total_activities(self) -> int:
        return sum(len(c) for c in self._types.values())

    # ------------------------------------------------------------------
    # shard restriction

    def restrict_users(self, keep_mask) -> int:
        """Drop every user ``keep_mask`` does not keep.

        ``keep_mask`` maps an int64 uid array to a boolean keep mask
        (shard routers pass ``ring.owner_mask``).  Rows appended since
        the last evaluation are filtered too, so a donor shard that
        sheds users at a rebalance boundary folds exactly the histories
        it still owns.  Returns the number of distinct users dropped.
        """
        dropped = [cols.restrict(keep_mask) for cols in self._types.values()]
        return int(np.unique(np.concatenate(dropped)).size)

    # ------------------------------------------------------------------
    # snapshot / restore

    def consolidate(self) -> None:
        """Fold every type's pending chunks into its sorted columns.

        Evaluation does this lazily per type; call it eagerly before
        forking worker processes so the sort is paid once, pre-fork,
        instead of once per child.
        """
        for cols in self._types.values():
            cols.columns()

    def snapshot_state(self) -> dict[ActivityType, tuple[np.ndarray,
                                                         np.ndarray,
                                                         np.ndarray]]:
        """``{type: (uids, ts, impacts)}`` columns, uid-major and
        time-minor.

        The arrays are copies, so later appends never alias a snapshot.
        Feed the result to :meth:`restore_state` (of this store or a
        fresh one) to rebuild an equivalent history: the columns and the
        type order round-trip exactly, so evaluations of the restored
        store are bit-identical.
        """
        return {atype: tuple(c.copy() for c in cols.columns())
                for atype, cols in self._types.items()}

    def restore_state(self, state: Mapping[ActivityType,
                                           tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]]) -> None:
        """Replace this store's history with a :meth:`snapshot_state`."""
        self._types = _paper_types()
        for atype, (uids, ts, imp) in state.items():
            self._columns_for(atype).append_arrays(
                np.asarray(uids), np.asarray(ts), np.asarray(imp))

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, t_c: int, params: ActivenessParams | None = None,
                 known_uids: Iterable[int] = (),
                 ) -> ActivenessTable:
        """Every user's activeness at ``t_c`` as one
        :class:`~repro.core.activeness.ActivenessTable` -- identical
        semantics to
        :meth:`repro.core.activeness.ActivenessEvaluator.evaluate` over an
        equivalent ledger.

        Activities after ``t_c`` are excluded (the batch engines load
        the whole trace up front and evaluate at every trigger).  Users
        whose newest visible activity of a type predates
        ``collapse_cutoff(t_c, params)`` rank exactly 0 for that type
        and are not refolded.
        """
        params = params or ActivenessParams()
        cutoff = collapse_cutoff(t_c, params)
        self.last_eval_users = self.last_eval_refolded = 0

        folded = []
        for atype, cols in self._types.items():
            uids, ts, imp = cols.columns()
            if cols.max_ts > t_c:
                visible = ts <= t_c
                uids, ts, imp = uids[visible], ts[visible], imp[visible]
            if uids.size == 0:
                continue
            starts, counts = sorted_segments(uids)
            last_ts = ts[starts + counts - 1]
            if cutoff is None or last_ts.min() >= cutoff:
                _, ranks = evaluate_type_bulk(uids, ts, imp, t_c, params,
                                              assume_sorted=True)
                refolded = starts.size
            else:
                hot = last_ts >= cutoff
                ranks = np.full(starts.size, -np.inf)
                refolded = int(np.count_nonzero(hot))
                if refolded:
                    rows = np.repeat(hot, counts)
                    ranks[hot] = evaluate_type_bulk(
                        uids[rows], ts[rows], imp[rows], t_c, params,
                        assume_sorted=True)[1]
            self.last_eval_users += starts.size
            self.last_eval_refolded += refolded
            folded.append((atype, (uids[starts], ranks, last_ts,
                                   np.add.reduceat(imp, starts))))

        acc = RankAccumulator.over([f[1][0] for f in folded], known_uids)
        for atype, columns in folded:
            acc.scatter(atype, *columns)
        return acc.table()


def build_activity_store(jobs: Iterable[JobRecord] = (),
                         publications: Iterable[PublicationRecord] = (),
                         ) -> ColumnarActivityStore:
    """A store pre-loaded with the paper's two activity sources.

    This is the trigger-time preparation input of the emulation: ingest
    once, then evaluate at every purge trigger against the consolidated
    columns.
    """
    store = ColumnarActivityStore()
    store.ingest_jobs(jobs)
    store.ingest_publications(publications)
    return store
