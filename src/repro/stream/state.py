"""Incremental state for the online retention service.

Three pieces, all designed so that streaming produces **bit-identical**
results to the batch columnar replay:

* :class:`PathCatalog` -- a growable path interner.  Batch compilation
  knows every path up front and assigns pids in string-sort order; a
  stream does not, so pids here are assigned in arrival order and the
  two scan orders the purge triggers need (plain-string order for the
  per-user ActiveDR walk and value tie-breaks, prefix-trie order for the
  FLT system scan) are maintained as explicit rank columns, brought up
  to date lazily when new paths intern.  This is exactly the
  :class:`~repro.emulation.compiled.TriggerEngine` catalog protocol.
* :class:`GrowableReplayState` -- live/atime/size/owner columns with
  amortized-doubling growth, mirroring the batch ``_ReplayState``.
* :class:`IncrementalActivenessState` -- per-(user, type) activity
  history with O(delta) appends and an O(recently-active) per-trigger
  evaluation.  The full rank fold (Eqs. 1-5) inherently needs a user's
  whole visible history (the period count ``m`` spans it), but under the
  faithful ``empty_period="zero"`` policy
  :func:`~repro.core.activeness.collapse_cutoff` proves that any user
  whose newest activity predates ``t_c - period`` ranks exactly 0 -- so
  each trigger refolds only the users active within the last period and
  scatters ``-inf`` for everyone else, instead of refolding the entire
  population's history the way ``ColumnarActivityStore.evaluate`` does.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Iterable, Mapping

import numpy as np

from ..core.activeness import (ActivenessParams, RankAccumulator,
                               UserActiveness, collapse_cutoff,
                               evaluate_type_bulk)
from ..core.activity import JOB_SUBMISSION, PUBLICATION, ActivityType
from ..emulation.emulator import deterministic_file_size
from ..traces.schema import PublicationRecord
from ..vfs.path_trie import split_path

__all__ = ["PathCatalog", "GrowableReplayState",
           "IncrementalActivenessState"]

_MIN_CAPACITY = 1024

#: reduceat segment anchor reused by every per-user impact refresh.
_SEG_START = np.zeros(1, dtype=np.intp)


def _grown(arr: np.ndarray, capacity: int, fill) -> np.ndarray:
    out = np.full(capacity, fill, dtype=arr.dtype)
    out[:arr.size] = arr
    return out


def _place(keys: list[str], order: array) -> np.ndarray:
    """Sort pids ``len(order) ..`` into ``order`` (pids by key); return
    every pid's rank.

    Equal keys keep pid order, as a stable argsort does: a new pid is the
    highest so far, so it goes after every equal key (``bisect_right``).
    A batch of new keys larger than an eighth of the placed ones is
    placed by one full stable sort instead.
    """
    n, done = len(keys), len(order)
    if n - done > done // 8:
        order[:] = array("q", sorted(range(n), key=keys.__getitem__))
    else:
        for pid in range(done, n):
            order.insert(bisect.bisect_right(order, keys[pid],
                                             key=keys.__getitem__), pid)
    rank = np.empty(n, dtype=np.int64)
    rank[np.frombuffer(order, np.int64)] = np.arange(n, dtype=np.int64)
    return rank


class PathCatalog:
    """Arrival-order path interner satisfying the trigger-engine catalog.

    ``det_size`` is stamped at intern time (it depends only on the
    path); ``snap_size`` is the snapshot size for preloaded files and 0
    for paths first seen in the trace -- the same convention batch
    compilation uses, which keeps the value-function smallness columns
    identical.  ``version`` advances on every intern so rank columns and
    engine-side value columns know when to extend.
    """

    __slots__ = ("_paths", "_pid_of", "_det_size", "_snap_size",
                 "version", "_scan_rank", "_order_rank", "_ranks_version",
                 "_scan_keys", "_path_order", "_scan_order")

    def __init__(self) -> None:
        self._paths: list[str] = []
        self._scan_keys: list[str] = []
        self._pid_of: dict[str, int] = {}
        self._det_size = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._snap_size = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self.version = 0
        self._scan_rank: np.ndarray | None = None
        self._order_rank: np.ndarray | None = None
        self._ranks_version = -1
        # Pids in each scan order, kept across triggers so new paths
        # are bisected in, not re-sorted.
        self._path_order = array("q")
        self._scan_order = array("q")

    # -- catalog protocol ----------------------------------------------

    @property
    def n_paths(self) -> int:
        return len(self._paths)

    @property
    def paths(self) -> list[str]:
        return self._paths

    @property
    def det_size(self) -> np.ndarray:
        return self._det_size[:len(self._paths)]

    @property
    def snap_size(self) -> np.ndarray:
        return self._snap_size[:len(self._paths)]

    def _ranks(self) -> tuple[np.ndarray, np.ndarray]:
        if self._ranks_version != self.version:
            # Plain-string order (iter_user_files / value tie-breaks),
            # and prefix-trie order (the FLT system scan): component
            # tuples compare identically to the components joined on
            # NUL (below every path character), and those keys are
            # built once per path at intern time.
            self._order_rank = _place(self._paths, self._path_order)
            self._scan_rank = _place(self._scan_keys, self._scan_order)
            self._ranks_version = self.version
        return self._order_rank, self._scan_rank

    @property
    def order_rank(self) -> np.ndarray:
        return self._ranks()[0]

    @property
    def scan_rank(self) -> np.ndarray:
        return self._ranks()[1]

    # -- interning -----------------------------------------------------

    def intern(self, path: str, snap_size: int = 0) -> int:
        """Pid of ``path``, assigning the next id on first sight."""
        pid = self._pid_of.get(path)
        if pid is not None:
            return pid
        pid = len(self._paths)
        if pid >= self._det_size.size:
            capacity = max(self._det_size.size * 2, _MIN_CAPACITY)
            self._det_size = _grown(self._det_size, capacity, 0)
            self._snap_size = _grown(self._snap_size, capacity, 0)
        self._paths.append(path)
        self._scan_keys.append("\x00".join(split_path(path)))
        self._pid_of[path] = pid
        self._det_size[pid] = deterministic_file_size(path)
        self._snap_size[pid] = snap_size
        self.version += 1
        return pid


class GrowableReplayState:
    """Mutable live/atime/size/owner columns that grow with the catalog.

    Duck-types the batch ``_ReplayState`` for the trigger engine and the
    day-replay kernel: the array properties are views over the first
    ``n`` slots (scatter-assignment through a view mutates the backing
    store), and ``purge_target`` mirrors ``core.policy.purge_target_bytes``.
    """

    __slots__ = ("_live", "_atime", "_size", "_owner", "_n",
                 "total_bytes", "file_count", "capacity_bytes")

    def __init__(self, capacity_bytes: int) -> None:
        self._live = np.zeros(_MIN_CAPACITY, dtype=np.bool_)
        self._atime = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self._size = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self._owner = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self._n = 0
        self.total_bytes = 0
        self.file_count = 0
        self.capacity_bytes = capacity_bytes

    @property
    def n_paths(self) -> int:
        return self._n

    @property
    def live(self) -> np.ndarray:
        return self._live[:self._n]

    @property
    def atime(self) -> np.ndarray:
        return self._atime[:self._n]

    @property
    def size(self) -> np.ndarray:
        return self._size[:self._n]

    @property
    def owner(self) -> np.ndarray:
        return self._owner[:self._n]

    def ensure(self, n_paths: int) -> None:
        """Extend the columns to cover ``n_paths`` catalog slots."""
        if n_paths <= self._n:
            return
        if n_paths > self._live.size:
            capacity = max(self._live.size * 2, n_paths, _MIN_CAPACITY)
            self._live = _grown(self._live, capacity, False)
            self._atime = _grown(self._atime, capacity, 0)
            self._size = _grown(self._size, capacity, 0)
            self._owner = _grown(self._owner, capacity, 0)
        self._n = n_paths

    def add_file(self, pid: int, size: int, atime: int, owner: int) -> None:
        """Materialize one preloaded (snapshot) file."""
        self._live[pid] = True
        self._atime[pid] = atime
        self._size[pid] = size
        self._owner[pid] = owner
        self.total_bytes += int(size)
        self.file_count += 1

    def purge_target(self, config) -> int:
        if self.capacity_bytes <= 0:
            return 0
        allowed = int(config.purge_target_utilization * self.capacity_bytes)
        return max(0, self.total_bytes - allowed)


# ---------------------------------------------------------------------------
# incremental activeness


class _UserSeries:
    """One user's (ts, impact) history for one activity type."""

    __slots__ = ("chunks", "count", "last_ts", "total_impact", "dirty")

    def __init__(self) -> None:
        self.chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self.count = 0
        self.last_ts = -1
        self.total_impact = 0.0
        self.dirty = True

    def append(self, ts: np.ndarray, imp: np.ndarray) -> None:
        self.chunks.append((ts, imp))
        self.count += ts.size
        self.dirty = True

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self.chunks) > 1:
            merged = (np.concatenate([c[0] for c in self.chunks]),
                      np.concatenate([c[1] for c in self.chunks]))
            self.chunks = [merged]
        return self.chunks[0]

    def refresh(self) -> None:
        """Recompute the cached per-user aggregates after appends.

        ``total_impact`` uses the same segment-reduction primitive
        (``np.add.reduceat``) as the batch fold, over the same values in
        the same order, so the cached float is bit-identical to the
        batch per-user ``impact_sums`` entry.
        """
        if not self.dirty:
            return
        ts, imp = self.columns()
        self.last_ts = int(ts[-1])
        self.total_impact = float(np.add.reduceat(imp, _SEG_START)[0])
        self.dirty = False


class _TypeState:
    """Per-type pending buffer plus per-user series."""

    __slots__ = ("users", "pend_uid", "pend_ts", "pend_imp")

    def __init__(self) -> None:
        self.users: dict[int, _UserSeries] = {}
        self.pend_uid: list[int] = []
        self.pend_ts: list[int] = []
        self.pend_imp: list[float] = []

    def __len__(self) -> int:
        return (sum(s.count for s in self.users.values())
                + len(self.pend_uid))

    def flush(self) -> None:
        """Distribute the pending delta into per-user chunk lists.

        Events arrive time-ordered, so a stable uid sort groups each
        user's new rows while preserving their within-user time order --
        the same relative order the batch store's stable
        ``lexsort((ts, uids))`` produces over the full trace.
        """
        if not self.pend_uid:
            return
        uid = np.asarray(self.pend_uid, dtype=np.int64)
        ts = np.asarray(self.pend_ts, dtype=np.int64)
        imp = np.asarray(self.pend_imp, dtype=np.float64)
        self.pend_uid, self.pend_ts, self.pend_imp = [], [], []
        order = np.argsort(uid, kind="stable")
        uid, ts, imp = uid[order], ts[order], imp[order]
        uniq, starts, counts = np.unique(uid, return_index=True,
                                         return_counts=True)
        for u, s, c in zip(uniq.tolist(), starts.tolist(), counts.tolist()):
            series = self.users.get(u)
            if series is None:
                series = self.users[u] = _UserSeries()
            series.append(ts[s:s + c], imp[s:s + c])


class IncrementalActivenessState:
    """Streaming counterpart of ``ColumnarActivityStore.evaluate``.

    Appends are O(1) per activity (buffered, then chunked per user);
    :meth:`evaluate` refolds only the users whose newest activity lies
    within one period of ``t_c`` (see :func:`collapse_cutoff`) and emits
    exact rank 0 for the rest, falling back to refolding every user when
    the empty-period relaxations make the shortcut unsound.  Results are
    bit-identical to the batch store over the same visible history.

    The two paper activity types are pre-registered so the per-type
    iteration order (and therefore the accumulator scatter order)
    matches ``build_activity_store`` regardless of which kind of event
    happens to arrive first.
    """

    __slots__ = ("_types", "last_eval_users", "last_eval_refolded")

    def __init__(self) -> None:
        self._types: dict[ActivityType, _TypeState] = {
            JOB_SUBMISSION: _TypeState(),
            PUBLICATION: _TypeState(),
        }
        self.last_eval_users = 0
        self.last_eval_refolded = 0

    # -- ingestion -----------------------------------------------------

    def add_jobs(self, uids: np.ndarray, ts: np.ndarray,
                 core_hours: np.ndarray,
                 activity_type: ActivityType = JOB_SUBMISSION) -> None:
        """Append a columnar run of job submissions.

        ``core_hours`` carries each job's unweighted core-hour impact;
        the weight multiply happens here so the per-row float is the
        ``JobRecord.core_hours() * weight`` expression (same operand
        order) the batch store folds, keeping the pending-buffer
        contents -- and every fold downstream -- bit-identical.
        """
        state = self._types.setdefault(activity_type, _TypeState())
        state.pend_uid.extend(uids.tolist())
        state.pend_ts.extend(ts.tolist())
        state.pend_imp.extend((core_hours * activity_type.weight).tolist())

    def add_publication(self, pub: PublicationRecord,
                        activity_type: ActivityType = PUBLICATION) -> None:
        state = self._types.setdefault(activity_type, _TypeState())
        for uid in pub.author_uids:
            state.pend_uid.append(uid)
            state.pend_ts.append(pub.ts)
            state.pend_imp.append(pub.author_score(uid)
                                  * activity_type.weight)

    def total_activities(self) -> int:
        return sum(len(s) for s in self._types.values())

    # -- evaluation ----------------------------------------------------

    def evaluate(self, t_c: int, params: ActivenessParams | None = None,
                 known_uids: Iterable[int] = (),
                 ) -> dict[int, UserActiveness]:
        """Every user's activeness at ``t_c``.

        The caller must not have ingested any activity with ``ts > t_c``
        (the service's boundary ordering guarantees this); under that
        contract the result equals
        ``ColumnarActivityStore.evaluate(t_c, params, known_uids)`` over
        the same history, bit for bit.
        """
        params = params or ActivenessParams()
        cutoff = collapse_cutoff(t_c, params)

        self.last_eval_users = 0
        self.last_eval_refolded = 0
        folded = []
        for atype, tstate in self._types.items():
            tstate.flush()
            if not tstate.users:
                continue
            uids_sorted = sorted(tstate.users)
            n = len(uids_sorted)
            uids_arr = np.asarray(uids_sorted, dtype=np.int64)
            last_ts = np.empty(n, dtype=np.int64)
            total_imp = np.empty(n, dtype=np.float64)
            refold: list[tuple[int, _UserSeries]] = []
            for i, u in enumerate(uids_sorted):
                series = tstate.users[u]
                series.refresh()
                last_ts[i] = series.last_ts
                total_imp[i] = series.total_impact
                if cutoff is None or series.last_ts >= cutoff:
                    refold.append((u, series))

            ranks = np.full(n, -np.inf, dtype=np.float64)
            if refold:
                k = len(refold)
                ruids = np.fromiter((u for u, _ in refold), np.int64, k)
                lens = np.fromiter((s.count for _, s in refold), np.int64, k)
                uid_arr = np.repeat(ruids, lens)
                ts_arr = np.concatenate([s.columns()[0] for _, s in refold])
                imp_arr = np.concatenate([s.columns()[1] for _, s in refold])
                # Already uid-major (ascending) and time-ordered within
                # each user -- the evaluate_type_bulk sorted contract.
                out_uids, out_ranks = evaluate_type_bulk(
                    uid_arr, ts_arr, imp_arr, t_c, params,
                    assume_sorted=True)
                ranks[np.searchsorted(uids_arr, out_uids)] = out_ranks
            self.last_eval_users += n
            self.last_eval_refolded += len(refold)
            folded.append((atype, (uids_arr, ranks, last_ts, total_imp)))

        all_uids = (np.unique(np.concatenate([f[1][0] for f in folded]))
                    if folded else np.empty(0, dtype=np.int64))
        acc = RankAccumulator(all_uids)
        for atype, columns in folded:
            acc.scatter(atype, *columns)
        return acc.finalize(known_uids)

    # -- shard restriction ---------------------------------------------

    def restrict_users(self, keep_mask) -> int:
        """Drop every user the fleet has migrated off this shard.

        ``keep_mask`` maps an int64 uid array to a boolean keep mask
        (shard routers pass ``ring.owner_mask``).  Both the settled
        per-user series and the pending buffers are filtered, so a
        donor shard that sheds users at a rebalance boundary folds
        exactly the histories it still owns.  Returns the number of
        users dropped.
        """
        dropped = 0
        for tstate in self._types.values():
            if tstate.users:
                uids = np.fromiter(tstate.users, np.int64,
                                   len(tstate.users))
                gone = uids[~np.asarray(keep_mask(uids), dtype=bool)]
                for u in gone.tolist():
                    del tstate.users[u]
                dropped += gone.size
            if tstate.pend_uid:
                uids = np.asarray(tstate.pend_uid, dtype=np.int64)
                mask = np.asarray(keep_mask(uids), dtype=bool)
                if not mask.all():
                    idx = np.flatnonzero(mask).tolist()
                    tstate.pend_uid = [tstate.pend_uid[i] for i in idx]
                    tstate.pend_ts = [tstate.pend_ts[i] for i in idx]
                    tstate.pend_imp = [tstate.pend_imp[i] for i in idx]
        return dropped

    # -- snapshot / restore --------------------------------------------

    def snapshot_state(self) -> dict[ActivityType, tuple[np.ndarray,
                                                         np.ndarray,
                                                         np.ndarray]]:
        """``{type: (uids, ts, impacts)}`` columns, uid-major.

        The same shape as ``ColumnarActivityStore.snapshot_state`` (and
        consumed by the same checkpoint serializer); rows are grouped by
        ascending uid with each user's rows in time order, which
        :meth:`restore_state` relies on to rebuild per-user series.
        """
        out = {}
        for atype, tstate in self._types.items():
            tstate.flush()
            uids_sorted = sorted(tstate.users)
            if not uids_sorted:
                empty_i = np.empty(0, dtype=np.int64)
                out[atype] = (empty_i, empty_i.copy(),
                              np.empty(0, dtype=np.float64))
                continue
            k = len(uids_sorted)
            lens = np.fromiter(
                (tstate.users[u].count for u in uids_sorted), np.int64, k)
            uids = np.repeat(np.asarray(uids_sorted, dtype=np.int64), lens)
            ts = np.concatenate(
                [tstate.users[u].columns()[0] for u in uids_sorted])
            imp = np.concatenate(
                [tstate.users[u].columns()[1] for u in uids_sorted])
            out[atype] = (uids, ts.copy(), imp.copy())
        return out

    def restore_state(self, state: Mapping[ActivityType,
                                           tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]]) -> None:
        """Rebuild from a :meth:`snapshot_state` payload.

        Aggregates are recomputed from the restored columns with the
        same primitives that produced the originals, so a resumed
        service evaluates bit-identically to one that never stopped.
        """
        self._types = {
            JOB_SUBMISSION: _TypeState(),
            PUBLICATION: _TypeState(),
        }
        for atype, (uids, ts, imp) in state.items():
            tstate = self._types.setdefault(atype, _TypeState())
            uids = np.asarray(uids, dtype=np.int64)
            ts = np.asarray(ts, dtype=np.int64)
            imp = np.asarray(imp, dtype=np.float64)
            uniq, starts, counts = np.unique(uids, return_index=True,
                                             return_counts=True)
            for u, s, c in zip(uniq.tolist(), starts.tolist(),
                               counts.tolist()):
                series = tstate.users[u] = _UserSeries()
                series.append(ts[s:s + c].copy(), imp[s:s + c].copy())
