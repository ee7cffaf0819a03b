"""Batched columnar replay: compile the trace once, replay it vectorized.

The reference :class:`~repro.emulation.emulator.Emulator` walks the access
log record by record through :class:`~repro.vfs.path_trie.PathTrie`
lookups -- faithful, but every experiment (lifetime sweeps, ablations,
calibration) pays the full per-record Python cost again.  This module
splits that work:

* :func:`compile_dataset` runs **once per dataset**: every path that can
  appear during the replay (snapshot files plus trace paths) is interned
  into a :class:`PathCatalog` in plain-string order, the in-window access
  records become parallel NumPy columns (path-id, uid, timestamp,
  op-code) bucketed by replay day in a :class:`ReplayIndex`, the snapshot
  file system becomes one :class:`ReplayState`, and the activity history
  is pre-ingested into a consolidated
  :class:`~repro.core.incremental.ColumnarActivityStore` -- the same
  store the streaming engine appends to as events arrive.
* :class:`FastEmulator` then replays whole-day slices against a copy of
  that state: liveness masks, vectorized atime updates, and per-group
  miss bincounts replace per-record trie traffic, and the purge triggers
  run columnar ports of the FLT / ActiveDR scans.

The replay core is shared by both engines, not private to the batch path:

* :class:`PathCatalog` interns paths to dense pids and keeps the two scan
  orders the purge triggers need.  A compiled trace interns every path up
  front; the streaming engine interns them in arrival order.
* :class:`ReplayState` holds one replay's ``live/atime/size/owner``
  columns over the catalog's pids, growing as the catalog grows.
* :class:`PolicyReplay` is one retention policy's replay over them:
  classification at each trigger, the :class:`TriggerEngine` purge, the
  :func:`replay_day_columns` day kernel, and the metrics, reports and
  group counts its :class:`EmulationResult` carries.

:class:`FastEmulator` drives one ``PolicyReplay`` over the days of a
compiled trace.  Every tenant of the streaming engine,
:class:`~repro.server.tenants.MultiTenantService`, is one, driven at the
day boundaries of the event feed -- which is how streaming stays
bit-identical to batch.

The fast path is **exact**, not approximate: for the full retention
spectrum -- ``FixedLifetimePolicy``, ``ActiveDRPolicy``,
``ValueBasedPolicy`` (with the stock ``CompositeValueFunction``), and
``ScratchAsCachePolicy`` -- it reproduces the reference emulator bit for
bit (same ``DailyMetrics`` arrays, the same ``RetentionReport`` sequence,
the same group-count history), which ``tests/test_compiled_replay.py``
pins.  Custom policies, custom value functions, or instrumented file
systems still need the reference ``Emulator`` -- :class:`FastEmulator`
rejects policy types it cannot replay exactly rather than silently
approximating them.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.activeness import ActivenessParams, ActivenessTable
from ..core.cache_policy import ScratchAsCachePolicy
from ..core.classification import GROUP_SCAN_ORDER, UserClass, scan_order
from ..core.exemption import ExemptionList
from ..core.flt import FixedLifetimePolicy
from ..core.incremental import ColumnarActivityStore, build_activity_store
from ..core.policy import RetentionPolicy
from ..core.report import RetentionReport
from ..core.retention import ActiveDRPolicy
from ..core.value_based import CompositeValueFunction, ValueBasedPolicy
from ..traces.schema import AppAccessRecord, JobRecord, PublicationRecord
from ..vfs.file_meta import DAY_SECONDS
from ..vfs.filesystem import VirtualFileSystem
from ..vfs.path_trie import split_path
from .emulator import EmulationResult, EmulatorConfig, deterministic_file_size
from .metrics import DailyMetrics

__all__ = ["OP_ACCESS", "OP_CREATE", "OP_TOUCH", "NEVER_POS", "PathCatalog",
           "ReplayState", "ReplayIndex", "CompiledTrace", "GroupLookup",
           "TriggerEngine", "PolicyReplay", "FastEmulator",
           "compile_dataset", "replay_bounds", "replay_day_columns"]

OP_ACCESS = 0
OP_CREATE = 1
OP_TOUCH = 2

_OP_CODES = {"access": OP_ACCESS, "create": OP_CREATE, "touch": OP_TOUCH}

#: Sentinel "this path is never materialized today" position, larger than
#: any within-day record index.  Scratch ``add_pos`` columns passed to
#: :func:`replay_day_columns` must be filled with it between days.
NEVER_POS = np.iinfo(np.int64).max
_NEVER = NEVER_POS


def replay_bounds(dataset) -> tuple[int, int]:
    """``(replay_start, replay_end)`` for a dataset or workspace.

    ``TitanDataset`` keeps the bounds on its config; CLI workspaces expose
    them directly.
    """
    cfg = getattr(dataset, "config", None)
    if cfg is not None and hasattr(cfg, "replay_start"):
        return cfg.replay_start, cfg.replay_end
    return dataset.replay_start, dataset.replay_end


# ---------------------------------------------------------------------------
# path catalog and replay state (shared by FastEmulator and the streaming
# engine)

_MIN_CAPACITY = 1024


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
    """Path interner: dense pids plus the columns the purge triggers read.

    Pids are assigned in intern order.  A compiled trace interns every
    path up front in plain-string order; the streaming engine interns
    them as they arrive.  Either way the two scan orders the triggers
    need -- plain-string order (the per-user ActiveDR walk and value
    tie-breaks) and prefix-trie order (the FLT system scan) -- are rank
    columns, brought up to date lazily when new paths intern.  A
    compiled trace's catalog is then frozen (:meth:`freeze`).

    ``det_size`` is stamped at intern time (it depends only on the
    path); ``snap_size`` is the snapshot size for snapshot files and 0
    for paths first seen in the trace, which keeps the value-function
    smallness columns identical across engines.  ``version`` advances on
    every intern so rank columns and engine-side value columns know when
    to extend.
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

    def freeze(self) -> None:
        """Compute both rank columns, then drop what only interning needs
        (the path -> pid dict, the scan keys and the two pid orders);
        :meth:`intern` on a frozen catalog raises."""
        self._ranks()
        self._pid_of = self._scan_keys = None
        self._path_order = self._scan_order = None
        self._det_size = self.det_size.copy()
        self._snap_size = self.snap_size.copy()

    def intern(self, path: str, snap_size: int = 0) -> int:
        """Pid of ``path``, assigning the next id on first sight."""
        if self._pid_of is None:
            raise RuntimeError("cannot intern into a frozen PathCatalog")
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

    def exempt_mask(self, exemptions: ExemptionList | None,
                    known: np.ndarray | None = None) -> np.ndarray | None:
        """Per-pid exemption flags (``None`` without exemptions).

        ``known`` is an earlier mask of this catalog: only the paths
        interned since are tested.  The mask is never cached here,
        because an ``ExemptionList`` can gain reservations between runs.
        """
        if exemptions is None:
            return None
        lo = 0 if known is None else known.size
        if known is not None and lo == self.n_paths:
            return known
        tail = np.fromiter((p in exemptions for p in self._paths[lo:]),
                           np.bool_, self.n_paths - lo)
        return tail if known is None else np.concatenate([known, tail])


class ReplayState:
    """One replay's file-system columns, indexed by catalog pid.

    ``live``/``atime``/``size``/``owner`` are plain attributes: views of
    the first :attr:`n_paths` slots of backing arrays that grow by
    doubling.  :meth:`ensure` re-slices them when the catalog grows, and
    scatter-assignment through a view mutates the backing array.
    ``purge_target`` mirrors ``core.policy.purge_target_bytes``.
    """

    COLUMNS = ("live", "atime", "size", "owner")

    __slots__ = COLUMNS + ("_backing", "total_bytes", "file_count",
                           "capacity_bytes")

    def __init__(self, capacity_bytes: int) -> None:
        self._backing = (np.zeros(0, dtype=np.bool_),
                         np.zeros(0, dtype=np.int64),
                         np.zeros(0, dtype=np.int64),
                         np.zeros(0, dtype=np.int64))
        self.live, self.atime, self.size, self.owner = self._backing
        self.total_bytes = 0
        self.file_count = 0
        self.capacity_bytes = int(capacity_bytes)

    @property
    def n_paths(self) -> int:
        return self.live.size

    def ensure(self, n_paths: int) -> None:
        """Extend the columns to cover ``n_paths`` catalog slots."""
        if n_paths <= self.live.size:
            return
        if n_paths > self._backing[0].size:
            capacity = max(self._backing[0].size * 2, n_paths, _MIN_CAPACITY)
            self._backing = tuple(_grown(col, capacity, 0)
                                  for col in self._backing)
        self.live, self.atime, self.size, self.owner = (
            col[:n_paths] for col in self._backing)

    def add_file(self, pid: int, size: int, atime: int, owner: int) -> None:
        """Materialize one snapshot file (``pid`` below :attr:`n_paths`)."""
        self.live[pid] = True
        self.atime[pid] = atime
        self.size[pid] = size
        self.owner[pid] = owner
        self.total_bytes += int(size)
        self.file_count += 1

    def copy(self) -> "ReplayState":
        """An independent copy: no column is shared with this state."""
        clone = ReplayState(self.capacity_bytes)
        clone.ensure(self.n_paths)
        for name in self.COLUMNS:
            getattr(clone, name)[:] = getattr(self, name)
        clone.total_bytes = self.total_bytes
        clone.file_count = self.file_count
        return clone

    def purge_target(self, config) -> int:
        if self.capacity_bytes <= 0:
            return 0
        allowed = int(config.purge_target_utilization * self.capacity_bytes)
        return max(0, self.total_bytes - allowed)


# ---------------------------------------------------------------------------
# the compiled trace


@dataclass(slots=True, frozen=True)
class ReplayIndex:
    """Day-bucketed columnar view of the in-window access records.

    All four columns are parallel and time-sorted; ``day_offsets`` has
    ``n_days + 1`` entries so day ``d`` occupies the half-open slice
    ``[day_offsets[d], day_offsets[d + 1])``.
    """

    replay_start: int
    n_days: int
    pid: np.ndarray   # int64 interned path ids
    uid: np.ndarray   # int64 accessing user
    ts: np.ndarray    # int64 epoch seconds, non-decreasing
    op: np.ndarray    # int8 op-codes (OP_ACCESS / OP_CREATE / OP_TOUCH)
    day_offsets: np.ndarray

    @property
    def n_records(self) -> int:
        return int(self.pid.size)

    def day_slice(self, day: int) -> tuple[np.ndarray, ...]:
        s = int(self.day_offsets[day])
        e = int(self.day_offsets[day + 1])
        return self.pid[s:e], self.uid[s:e], self.ts[s:e], self.op[s:e]


@dataclass(slots=True, frozen=True)
class CompiledTrace:
    """Everything a replay needs, compiled once and shared read-only.

    ``catalog`` holds the snapshot and in-window trace paths, interned
    in plain-string sort order -- exactly the order
    ``VirtualFileSystem.iter_user_files`` visits one user's files, so the
    ActiveDR per-user scan is an ascending-pid walk.  It is frozen at
    build (:meth:`PathCatalog.freeze`): both rank columns are computed
    before ``run_lifetime_sweep`` forks ranks over the trace, and nothing
    interns into it after.  ``snapshot`` is the snapshot file system;
    each replay starts from a copy of it.
    """

    catalog: PathCatalog
    snapshot: ReplayState
    index: ReplayIndex
    store: ColumnarActivityStore
    replay_start: int
    replay_end: int

    @property
    def n_records(self) -> int:
        return self.index.n_records

    @classmethod
    def build(cls, fs: VirtualFileSystem,
              accesses: Sequence[AppAccessRecord],
              jobs: Iterable[JobRecord] = (),
              publications: Iterable[PublicationRecord] = (),
              replay_start: int = 0, replay_end: int = 0) -> "CompiledTrace":
        """Compile a snapshot file system plus traces into columns.

        ``fs`` is read, never mutated; ``accesses`` must be time-sorted
        (the reference emulator has the same contract).
        """
        if replay_end <= replay_start:
            raise ValueError("replay_end must exceed replay_start")
        n_days = -(-(replay_end - replay_start) // DAY_SECONDS)
        window_end = replay_start + n_days * DAY_SECONDS

        snapshot = list(fs.iter_files())
        recs = [r for r in accesses if replay_start <= r.ts < window_end]

        snap_size = {p: meta.size for p, meta in snapshot}
        path_set = set(snap_size)
        path_set.update(r.path for r in recs)
        catalog = PathCatalog()
        intern = catalog.intern
        for path in sorted(path_set):
            intern(path, snap_size.get(path, 0))

        state = ReplayState(fs.capacity_bytes)
        state.ensure(catalog.n_paths)
        for path, meta in snapshot:
            state.add_file(intern(path), meta.size, meta.atime, meta.uid)

        n = len(recs)
        pid = np.fromiter((intern(r.path) for r in recs), np.int64, n)
        uid = np.fromiter((r.uid for r in recs), np.int64, n)
        ts = np.fromiter((r.ts for r in recs), np.int64, n)
        op = np.fromiter((_OP_CODES[r.op] for r in recs), np.int8, n)
        if n and np.any(np.diff(ts) < 0):
            raise ValueError("accesses must be time-sorted")
        catalog.freeze()  # once, pre-fork
        day = (ts - replay_start) // DAY_SECONDS
        day_offsets = np.searchsorted(day, np.arange(n_days + 1))
        index = ReplayIndex(replay_start=replay_start, n_days=n_days,
                            pid=pid, uid=uid, ts=ts, op=op,
                            day_offsets=day_offsets)

        store = build_activity_store(jobs, publications)
        store.consolidate()  # once, pre-fork

        return cls(catalog=catalog, snapshot=state, index=index,
                   store=store, replay_start=replay_start,
                   replay_end=replay_end)


def compile_dataset(dataset) -> CompiledTrace:
    """Compile a ``TitanDataset`` (or CLI workspace) for fast replay."""
    start, end = replay_bounds(dataset)
    return CompiledTrace.build(dataset.filesystem, dataset.accesses,
                               dataset.jobs, dataset.publications,
                               start, end)


# ---------------------------------------------------------------------------
# group lookup


class GroupLookup:
    """One classification: uid-sorted ``uids`` and their ``class_codes``
    (``UserClass`` values), looked up in bulk with the both-inactive
    default for unclassified uids."""

    __slots__ = ("uids", "class_codes")

    _DEFAULT = UserClass.BOTH_INACTIVE.value

    def __init__(self, uids: np.ndarray | None = None,
                 class_codes: np.ndarray | None = None) -> None:
        empty = np.empty(0, dtype=np.int64)
        self.uids = empty if uids is None else uids
        self.class_codes = empty if class_codes is None else class_codes

    def rows(self, uid_arr: np.ndarray) -> np.ndarray:
        """Row of each uid, ``-1`` where it is not classified."""
        if self.uids.size == 0:
            return np.full(uid_arr.size, -1, dtype=np.int64)
        idx = np.minimum(np.searchsorted(self.uids, uid_arr),
                         self.uids.size - 1)
        return np.where(self.uids[idx] == uid_arr, idx, -1)

    def codes(self, uid_arr: np.ndarray) -> np.ndarray:
        """Class code of each uid (both-inactive where unclassified)."""
        if self.uids.size == 0:
            return np.full(uid_arr.size, self._DEFAULT, dtype=np.int64)
        rows = self.rows(uid_arr)
        return np.where(rows >= 0, self.class_codes[rows], self._DEFAULT)

    def code_of(self, uid: int) -> int | None:
        """The class code of one uid, ``None`` when it is not classified."""
        row = int(self.rows(np.asarray([uid], dtype=np.int64))[0])
        return None if row < 0 else int(self.class_codes[row])

    def owner_rows(self, owners: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(uids, class_codes, rows)``: these columns plus a
        both-inactive row for each owner they lack, and each owner's
        row in them."""
        rows = self.rows(owners)
        miss = rows < 0
        if not miss.any():
            return self.uids, self.class_codes, rows
        extra, inv = np.unique(owners[miss], return_inverse=True)
        rows[miss] = self.uids.size + inv
        return (np.concatenate([self.uids, extra]),
                np.concatenate([self.class_codes,
                                np.full(extra.size, self._DEFAULT)]),
                rows)

    def restricted(self, keep_mask) -> "GroupLookup":
        """The classification of the uids ``keep_mask`` keeps."""
        if self.uids.size == 0:
            return self
        keep = np.asarray(keep_mask(self.uids), dtype=bool)
        if keep.all():
            return self
        return GroupLookup(self.uids[keep], self.class_codes[keep])

    def classes(self) -> dict[int, UserClass]:
        """``{uid: UserClass}``, the form ``EmulationResult`` reports."""
        return {uid: _CODE_TO_CLASS[code] for uid, code in zip(
            self.uids.tolist(), self.class_codes.tolist())}


_CODE_TO_CLASS = {cls.value: cls for cls in UserClass}
_N_CODES = len(UserClass) + 1


def _tally_groups(report: RetentionReport, uids: np.ndarray,
                  class_codes: np.ndarray, rows: np.ndarray,
                  sizes: np.ndarray, *, purged: bool) -> None:
    """Count files into the report's per-class tallies: ``rows`` are
    their owners' rows in ``uids``/``class_codes``, ``sizes`` their
    sizes."""
    file_codes = class_codes[rows]
    n_files = np.bincount(file_codes, minlength=_N_CODES)
    owns = np.zeros(uids.size, dtype=bool)
    owns[rows] = True
    for value in np.flatnonzero(n_files).tolist():
        tally = report.groups[_CODE_TO_CLASS[value]]
        n_bytes = int(sizes[file_codes == value].sum())
        users = uids[owns & (class_codes == value)].tolist()
        if purged:
            tally.purged_files += int(n_files[value])
            tally.purged_bytes += n_bytes
            tally.users_purged.update(users)
        else:
            tally.retained_files += int(n_files[value])
            tally.retained_bytes += n_bytes
            tally.users_scanned.update(users)


@dataclass(slots=True, frozen=True)
class _LiveOwners:
    """The live files at one instant (``idx``), each mapped to its
    owner's row of a classification that covers every owner."""

    idx: np.ndarray
    uids: np.ndarray
    class_codes: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(cls, state, lookup: GroupLookup) -> "_LiveOwners":
        idx = np.flatnonzero(state.live)
        return cls(idx, *lookup.owner_rows(state.owner[idx]))


def _log_lifetimes(config, table: ActivenessTable,
                   rows: np.ndarray) -> np.ndarray:
    """The ``log`` of each of ``rows``' Eq. (7) lifetime, undecayed.

    :func:`~repro.core.retention.adjusted_lifetime_seconds` up to its
    ``exp``, vectorized with the same float operations in the same
    order.  The ``exp`` itself stays ``math.exp``, one call per user:
    NumPy's SIMD ``exp`` can round differently from libm, and a
    lifetime one ulp off can flip a purge decision.
    """
    mult = np.zeros(rows.size)
    collapsed_any = np.zeros(rows.size, dtype=bool)
    for has, log_rank in ((table.has_op[rows], table.log_op[rows]),
                          (table.has_oc[rows], table.log_oc[rows])):
        collapsed = has & (log_rank == -np.inf)
        mult += np.where(has & ~collapsed, log_rank, 0.0)
        collapsed_any |= collapsed
    if not config.zero_rank_as_initial:
        mult[collapsed_any] = -np.inf
    inactive = table.codes[rows] == UserClass.BOTH_INACTIVE.value
    mult[inactive] = np.maximum(mult[inactive], 0.0)
    return math.log(config.lifetime_days * DAY_SECONDS) + mult


# ---------------------------------------------------------------------------
# day replay kernel (shared by FastEmulator and the streaming engine)


def replay_day_columns(config: EmulatorConfig, det_size: np.ndarray,
                       state, day: int, metrics: DailyMetrics,
                       lookup: GroupLookup, add_pos: np.ndarray,
                       pid: np.ndarray, uid: np.ndarray,
                       ts: np.ndarray, op: np.ndarray) -> None:
    """Apply one day's access records to a live/atime/size/owner state.

    ``state`` is any object with ``live/atime/size/owner`` arrays plus
    ``total_bytes``/``file_count`` counters indexed by the same pids as
    ``det_size``; ``add_pos`` is a per-pid scratch column pre-filled with
    :data:`NEVER_POS` (reset before returning).  The record columns must
    be one replay day, time-sorted.
    """
    if pid.size == 0:
        return
    is_access = op == OP_ACCESS
    metrics.accesses[day] = int(is_access.sum())

    live_start = state.live[pid]
    positions = np.arange(pid.size, dtype=np.int64)

    # Records that can materialize a currently-dead path.  Within one
    # day liveness is monotone -- nothing is removed -- so each path's
    # effective add position is the *first* such candidate.
    creates = config.apply_creates
    restore = config.restore_on_miss
    if creates and restore:
        can_add = op != OP_TOUCH
    elif creates:
        can_add = op == OP_CREATE
    elif restore:
        can_add = is_access
    else:
        can_add = None

    added: np.ndarray | None = None
    if can_add is not None:
        cand = can_add & ~live_start
        if cand.any():
            cpid = pid[cand]
            cpos = positions[cand]
            cuid = uid[cand]
            added, first = np.unique(cpid, return_index=True)
            add_pos[added] = cpos[first]
        else:
            added = None
    limit = add_pos[pid]

    # Misses: accesses to paths dead at day start and not yet
    # materialized.  With restore_on_miss the materializing access
    # itself still counts as a miss (position == limit).
    miss = is_access & ~live_start & (
        positions <= limit if restore else positions < limit)
    n_miss = int(miss.sum())
    if n_miss:
        metrics.misses[day] = n_miss
        counts = np.bincount(lookup.codes(uid[miss]), minlength=5)
        for cls in UserClass:
            c = int(counts[cls.value])
            if c:
                metrics.group_misses[cls][day] = c

    if added is not None:
        state.live[added] = True
        state.owner[added] = cuid[first]
        sizes = det_size[added]
        state.size[added] = sizes
        state.total_bytes += int(sizes.sum())
        state.file_count += int(added.size)

    # atime: last qualifying record per path.  A record qualifies when
    # the path was live at day start or the record is at/after the add
    # position (the materializing record stamps the atime itself, and
    # timestamps ascend within the day, so last-write wins == max).
    qual = live_start | (positions >= limit)
    if qual.any():
        qpid = pid[qual][::-1]
        qts = ts[qual][::-1]
        upq, last = np.unique(qpid, return_index=True)
        state.atime[upq] = qts[last]

    if added is not None:
        add_pos[added] = _NEVER  # reset scratch for the next day


# ---------------------------------------------------------------------------
# purge-trigger engine (shared by FastEmulator and the streaming engine)


class TriggerEngine:
    """Columnar purge triggers for the retention spectrum.

    One instance per (policy, run context).  :meth:`trigger` dispatches
    to the columnar port of the policy's scan, operating on

    * a :class:`PathCatalog`: paths, ``det_size`` / ``snap_size``
      columns, the ``order_rank`` / ``scan_rank`` scan orders, and a
      ``version`` counter that advances whenever paths are appended (so
      per-path value columns can be extended incrementally);
    * a :class:`ReplayState` whose columns cover the catalog.

    Constructing the engine raises ``TypeError`` for policy types (or
    custom value functions) it cannot replay exactly.
    """

    __slots__ = ("policy", "_trigger", "_type_weights", "_smallness_snap",
                 "_smallness_det", "_cols_src", "_cols_version",
                 "_cols_count")

    def __init__(self, policy: RetentionPolicy) -> None:
        if isinstance(policy, FixedLifetimePolicy):
            self._trigger = self._flt_trigger
        elif isinstance(policy, ActiveDRPolicy):
            self._trigger = self._activedr_trigger
        elif isinstance(policy, ValueBasedPolicy):
            if not isinstance(policy.value_function, CompositeValueFunction):
                raise TypeError(
                    "the columnar engine can only replay ValueBasedPolicy "
                    "with the stock CompositeValueFunction exactly; use the "
                    "reference Emulator for custom value functions")
            self._trigger = self._value_trigger
        elif isinstance(policy, ScratchAsCachePolicy):
            self._trigger = self._cache_trigger
        else:
            raise TypeError(
                f"the columnar engine cannot replay {type(policy).__name__} "
                "exactly; use the reference Emulator")
        self.policy = policy
        #: Per-pid basename-extension keep weights for the value trigger,
        #: cached per catalog and *extended* (never recomputed) as a
        #: growing catalog appends paths.  The source catalog is kept as
        #: a strong reference so the cache can never alias another one.
        self._type_weights: np.ndarray | None = None
        self._smallness_snap: np.ndarray | None = None
        self._smallness_det: np.ndarray | None = None
        self._cols_src: object | None = None
        self._cols_version = -1
        self._cols_count = 0

    def trigger(self, catalog, state, t_c: int,
                activeness: ActivenessTable,
                lookup: GroupLookup,
                exempt: np.ndarray | None) -> RetentionReport:
        """Run one purge trigger at ``t_c``; mutates ``state``.

        ``lookup`` is the classification of ``activeness``."""
        return self._trigger(catalog, state, t_c, activeness, lookup, exempt)

    # ------------------------------------------------------------------
    # shared tally helpers

    def _apply_purges(self, state, report: RetentionReport,
                      idxs: np.ndarray, group: UserClass | None,
                      lookup: GroupLookup | None) -> None:
        """Purge ``idxs``; tally under ``group`` (or per-owner lookup)."""
        sizes = state.size[idxs]
        total = int(sizes.sum())
        if group is not None:
            tally = report.groups[group]
            tally.purged_files += int(idxs.size)
            tally.purged_bytes += total
            tally.users_purged.update(np.unique(state.owner[idxs]).tolist())
        else:
            _tally_groups(report, *lookup.owner_rows(state.owner[idxs]),
                          sizes, purged=True)
        report.purged_bytes_total += total
        state.live[idxs] = False
        state.total_bytes -= total
        state.file_count -= int(idxs.size)

    def _record_survivors(self, state, report: RetentionReport,
                          lookup: GroupLookup,
                          live: _LiveOwners | None = None) -> None:
        """Tally the live files as retained; ``live`` is a mapping of the
        files live at the trigger's start, of which purges only cleared
        some."""
        if live is None:
            live = _LiveOwners.of(state, lookup)
        alive = state.live[live.idx]
        if not alive.any():
            return
        _tally_groups(report, live.uids, live.class_codes, live.rows[alive],
                      state.size[live.idx[alive]], purged=False)

    # ------------------------------------------------------------------
    # FLT

    def _flt_trigger(self, catalog, state, t_c: int,
                     activeness: ActivenessTable,
                     lookup: GroupLookup,
                     exempt: np.ndarray | None) -> RetentionReport:
        config = self.policy.config
        enforce = self.policy.enforce_target
        lifetime_seconds = config.lifetime_days * DAY_SECONDS
        target = state.purge_target(config) if enforce else 0
        report = RetentionReport(policy=self.policy.name, t_c=t_c,
                                 lifetime_days=config.lifetime_days,
                                 target_bytes=target)
        if enforce and target <= 0:
            self._record_survivors(state, report, lookup)
            return report

        stale = state.live & ((t_c - state.atime) > lifetime_seconds)
        if exempt is not None:
            stale &= ~exempt
        idxs = np.flatnonzero(stale)
        if idxs.size:
            idxs = idxs[np.argsort(catalog.scan_rank[idxs])]
            if enforce and target > 0:
                cum = np.cumsum(state.size[idxs])
                cut = int(np.searchsorted(cum, target, side="left"))
                if cut < idxs.size:
                    idxs = idxs[:cut + 1]
            self._apply_purges(state, report, idxs, None, lookup)

        self._record_survivors(state, report, lookup)
        if enforce and target > 0:
            report.target_met = report.purged_bytes_total >= target
        return report

    # ------------------------------------------------------------------
    # ActiveDR

    def _activedr_trigger(self, catalog, state, t_c: int,
                          activeness: ActivenessTable,
                          lookup: GroupLookup,
                          exempt: np.ndarray | None) -> RetentionReport:
        config = self.policy.config
        target = state.purge_target(config)
        report = RetentionReport(policy=self.policy.name, t_c=t_c,
                                 lifetime_days=config.lifetime_days,
                                 target_bytes=target)

        # Owners present on disk but absent from the evaluation are new
        # users: initial rank, classified both-inactive.
        idx = np.flatnonzero(state.live)
        owners = state.owner[idx]
        table = activeness.with_users(owners)
        live = _LiveOwners(idx, table.uids, table.codes,
                           np.searchsorted(table.uids, owners))
        if target > 0:
            self._scan_groups(catalog, state, t_c, report, table, live,
                              exempt, target)
            report.target_met = report.purged_bytes_total >= target
        self._record_survivors(state, report, lookup, live)
        if not report.target_met and self.policy.notifier is not None:
            from ..core.notify import notification_from_report
            self.policy.notifier.notify(notification_from_report(report))
        return report

    def _scan_groups(self, catalog, state, t_c: int,
                     report: RetentionReport, table: ActivenessTable,
                     live: _LiveOwners, exempt: np.ndarray | None,
                     target: int) -> None:
        """``ActiveDRPolicy.run``'s group scan over columns.

        Users owning live files are ordered once (:func:`scan_order`),
        and their files once, by user then plain-string path -- the
        ``iter_user_files`` visit order.  One pass over a group is then
        one stale mask, one cumsum and one cut: purging stops at the
        first file whose running total reaches the target, exactly
        where the per-user, per-file reference loop stops.
        """
        config = self.policy.config
        n_files = np.bincount(live.rows, minlength=live.uids.size)
        users, places = scan_order(table, np.flatnonzero(n_files))
        user_rank = np.empty(live.uids.size, dtype=np.int64)
        user_rank[users] = np.arange(users.size)
        files = live.idx[np.lexsort((catalog.order_rank[live.idx],
                                     user_rank[live.rows]))]
        per_user = n_files[users]
        first_file = np.concatenate(([0], np.cumsum(per_user)))
        bounds = np.searchsorted(places, np.arange(len(GROUP_SCAN_ORDER) + 1))
        log_lifetimes = _log_lifetimes(config, table, users)

        for place, group in enumerate(GROUP_SCAN_ORDER):
            lo, hi = bounds[place], bounds[place + 1]
            span = files[first_file[lo]:first_file[hi]]
            for retro in range(config.retrospective_passes + 1):
                if retro:
                    if report.purged_bytes_total >= target:
                        break
                    decay = (1.0 - config.rank_decay) ** retro
                    report.passes_used = max(report.passes_used, retro + 1)
                else:
                    decay = 1.0
                if span.size == 0:
                    continue
                log_lt = log_lifetimes[lo:hi]
                if decay < 1.0:
                    log_lt = log_lt + math.log(decay)
                # adjusted_lifetime_seconds' overflow guard: above 700
                # the lifetime is "never purge".
                lifetimes = np.repeat(
                    [math.inf if x > 700.0 else math.exp(x)
                     for x in log_lt.tolist()], per_user[lo:hi])
                stale = state.live[span] & ((t_c - state.atime[span])
                                            > lifetimes)
                if exempt is not None:
                    stale &= ~exempt[span]
                idxs = span[stale]
                if idxs.size == 0:
                    continue
                remaining = target - report.purged_bytes_total
                cum = np.cumsum(state.size[idxs])
                cut = int(np.searchsorted(cum, remaining, side="left"))
                if cut < idxs.size:
                    self._apply_purges(state, report, idxs[:cut + 1], group,
                                       lookup=None)
                    return
                self._apply_purges(state, report, idxs, group, lookup=None)

    # ------------------------------------------------------------------
    # value-based baseline (related work): lowest-value files first

    def _value_columns(self, catalog
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pid ``(type_weight, smallness_snap, smallness_det)``
        columns for the value function.

        All three are time-invariant per path: the type weight depends
        only on the path, and a live file's size is either its snapshot
        size or (once re-materialized during the replay) its
        deterministic ``det_size``.  Smallness uses ``math.log2`` per
        element so the scores are bit-identical to the scalar reference
        even where ``np.log2`` takes a differently-rounded SIMD path.
        Catalogs append paths but never change existing ones, so a
        version bump only computes the new tail.
        """
        if self._cols_src is not catalog:
            self._cols_src = catalog
            self._cols_version = -1
            self._cols_count = 0
            empty = np.empty(0, dtype=np.float64)
            self._type_weights = empty
            self._smallness_snap = empty.copy()
            self._smallness_det = empty.copy()
        if self._cols_version != catalog.version:
            n = catalog.n_paths
            lo = self._cols_count
            if n > lo:
                vf = self.policy.value_function

                def smallness_of(size: int) -> float:
                    if size > 4096:
                        return 1.0 / (1.0 + math.log2(max(size, 1) / 4096.0)
                                      / 10.0)
                    return 1.0

                new = n - lo
                self._type_weights = np.concatenate([
                    self._type_weights,
                    np.fromiter((vf.type_weight(p)
                                 for p in catalog.paths[lo:n]),
                                np.float64, new)])
                self._smallness_snap = np.concatenate([
                    self._smallness_snap,
                    np.fromiter((smallness_of(s)
                                 for s in catalog.snap_size[lo:n].tolist()),
                                np.float64, new)])
                self._smallness_det = np.concatenate([
                    self._smallness_det,
                    np.fromiter((smallness_of(s)
                                 for s in catalog.det_size[lo:n].tolist()),
                                np.float64, new)])
                self._cols_count = n
            self._cols_version = catalog.version
        return self._type_weights, self._smallness_snap, self._smallness_det

    def _file_values(self, catalog, state, idxs: np.ndarray,
                     t_c: int) -> np.ndarray:
        """Vectorized ``CompositeValueFunction`` over the ``idxs`` files.

        Mirrors the scalar ``__call__`` operation for operation so the
        scores (and therefore the purge order and target cut) are
        bit-identical to the reference policy run.  IEEE add / multiply
        / divide round identically whether vectorized or scalar; the two
        transcendentals do not (NumPy's SIMD ``log2`` / ``pow`` loops
        can differ from libm by an ulp), so smallness comes from the
        precomputed per-size columns and the recency power is folded
        with the scalar operator.
        """
        vf = self.policy.value_function
        type_weight, s_snap, s_det = self._value_columns(catalog)
        # A live file's size is snap_size until first purged, det_size
        # after any re-materialization; pick whichever column matches.
        smallness = np.where(state.size[idxs] == catalog.det_size[idxs],
                             s_det[idxs], s_snap[idxs])
        age_days = np.maximum((t_c - state.atime[idxs]) / DAY_SECONDS, 0.0)
        exponents = age_days / vf.recency_halflife_days
        recency = np.fromiter((0.5 ** e for e in exponents.tolist()),
                              np.float64, exponents.size)
        return (vf.w_recency * recency + vf.w_size * smallness
                + vf.w_type * type_weight[idxs])

    def _value_trigger(self, catalog, state, t_c: int,
                       activeness: ActivenessTable,
                       lookup: GroupLookup,
                       exempt: np.ndarray | None) -> RetentionReport:
        config = self.policy.config
        target = state.purge_target(config)
        report = RetentionReport(policy=self.policy.name, t_c=t_c,
                                 lifetime_days=config.lifetime_days,
                                 target_bytes=target)

        cand = np.flatnonzero(state.live & ~exempt if exempt is not None
                              else state.live)
        if cand.size:
            values = self._file_values(catalog, state, cand, t_c)
            # Ascending (value, path): ties break on plain-string path
            # order.
            order = np.lexsort((catalog.order_rank[cand], values))
            cand, values = cand[order], values[order]
            if target > 0:
                cum = np.cumsum(state.size[cand])
                cut = int(np.searchsorted(cum, target, side="left"))
                idxs = cand if cut >= cand.size else cand[:cut + 1]
            else:
                # No mandatory target: the information-lifecycle mode
                # purges everything below the value threshold.
                idxs = cand[values < self.policy.value_threshold]
            if idxs.size:
                self._apply_purges(state, report, idxs, None, lookup)

        self._record_survivors(state, report, lookup)
        if target > 0:
            report.target_met = report.purged_bytes_total >= target
        return report

    # ------------------------------------------------------------------
    # scratch-as-a-cache baseline (related work): evict non-resident users

    def _cache_trigger(self, catalog, state, t_c: int,
                       activeness: ActivenessTable,
                       lookup: GroupLookup,
                       exempt: np.ndarray | None) -> RetentionReport:
        config = self.policy.config
        report = RetentionReport(policy=self.policy.name, t_c=t_c,
                                 lifetime_days=config.lifetime_days,
                                 target_bytes=state.purge_target(config))

        live_idx = np.flatnonzero(state.live)
        if live_idx.size:
            owners = state.owner[live_idx]
            resident = self.policy.residency.resident_uids(t_c)
            if resident.size:
                pos = np.minimum(np.searchsorted(resident, owners),
                                 resident.size - 1)
                purge = resident[pos] != owners
            else:
                purge = np.ones(owners.size, dtype=np.bool_)
            if exempt is not None:
                purge &= ~exempt[live_idx]
            idxs = live_idx[purge]
            if idxs.size:
                self._apply_purges(state, report, idxs, None, lookup)

        self._record_survivors(state, report, lookup)
        # The cache policy ignores utilization targets entirely; what it
        # purges is dictated by residency alone.
        report.target_met = True
        return report


# ---------------------------------------------------------------------------
# one policy's replay (shared by FastEmulator and the streaming engine)


class PolicyReplay:
    """One retention policy's replay over a catalog and a replay state.

    Holds everything the replay of one policy accumulates: the state,
    the ``add_pos`` scratch column (first position at which each path
    materializes today, or :data:`NEVER_POS`), the daily metrics, purge
    reports and group-count history, and the classification as a
    :class:`GroupLookup` taken straight from the newest
    :class:`~repro.core.activeness.ActivenessTable`.  The caller supplies
    the days, the trigger instants and the evaluations:
    :class:`FastEmulator` from a compiled trace, the streaming engine at
    its day boundaries.
    """

    def __init__(self, engine: TriggerEngine, config: EmulatorConfig,
                 state: ReplayState, n_days: int) -> None:
        self.engine = engine
        self.policy = engine.policy
        self.config = config
        self.state = state
        self.add_pos = np.full(state.n_paths, _NEVER, dtype=np.int64)
        self.metrics = DailyMetrics(n_days)
        self.reports: list[RetentionReport] = []
        self.group_count_history: list[dict[UserClass, int]] = []
        self.lookup = GroupLookup()

    def due(self, day: int, n_days: int) -> bool:
        """Whether the purge trigger fires before replaying ``day``."""
        return (1 <= day < n_days
                and day % self.policy.config.purge_trigger_days == 0)

    def classify(self, activeness: ActivenessTable) -> None:
        self.lookup = GroupLookup(activeness.uids, activeness.codes)
        counts = np.bincount(activeness.codes, minlength=_N_CODES)
        self.group_count_history.append(
            {cls: int(counts[cls.value]) for cls in UserClass})

    def trigger(self, catalog: PathCatalog, t_c: int,
                activeness: ActivenessTable,
                exempt: np.ndarray | None) -> RetentionReport:
        """Reclassify, then run the purge trigger at ``t_c``."""
        self.classify(activeness)
        self.state.ensure(catalog.n_paths)
        report = self.engine.trigger(catalog, self.state, t_c, activeness,
                                     self.lookup, exempt)
        self.reports.append(report)
        return report

    def replay_day(self, det_size: np.ndarray, day: int, pid: np.ndarray,
                   uid: np.ndarray, ts: np.ndarray, op: np.ndarray) -> None:
        """Apply one day's time-sorted access records; ``det_size`` is the
        catalog's column, covering every pid in ``pid``."""
        n = det_size.size
        self.state.ensure(n)
        if self.add_pos.size < n:
            self.add_pos = _grown(
                self.add_pos, max(n, self.add_pos.size * 2, _MIN_CAPACITY),
                _NEVER)
        replay_day_columns(self.config, det_size, self.state, day,
                           self.metrics, self.lookup, self.add_pos,
                           pid, uid, ts, op)

    def result(self) -> EmulationResult:
        return EmulationResult(
            policy=self.policy.name,
            lifetime_days=self.policy.config.lifetime_days,
            metrics=self.metrics, reports=self.reports,
            group_count_history=self.group_count_history,
            final_classes=self.lookup.classes(),
            final_total_bytes=self.state.total_bytes,
            final_file_count=self.state.file_count)


# ---------------------------------------------------------------------------
# the batch fast emulator


class FastEmulator:
    """Columnar replay of a compiled trace against one retention policy.

    Drop-in for the reference :class:`Emulator` across the whole retention
    spectrum -- ``FixedLifetimePolicy``, ``ActiveDRPolicy``,
    ``ValueBasedPolicy`` (stock ``CompositeValueFunction`` only), and
    ``ScratchAsCachePolicy``: construction mirrors
    ``Emulator(policy, activeness_params, config, exemptions)`` and
    :meth:`run` returns the same :class:`EmulationResult`, bit-identical
    to the reference replay of the same dataset.
    """

    def __init__(self, policy: RetentionPolicy,
                 activeness_params: ActivenessParams | None = None,
                 config: EmulatorConfig | None = None,
                 exemptions: ExemptionList | None = None) -> None:
        self._engine = TriggerEngine(policy)
        self.policy = policy
        self.params = activeness_params or policy.config.activeness
        self.config = config or EmulatorConfig()
        self.exemptions = exemptions

    # ------------------------------------------------------------------

    def run(self, compiled: CompiledTrace,
            known_uids: Sequence[int] = (),
            activeness_cache: dict | None = None) -> EmulationResult:
        """Replay the compiled window; ``compiled`` itself is not mutated.

        ``activeness_cache`` memoizes the per-trigger activeness
        evaluations keyed by trigger instant.  Pass one dict across
        replays of the *same* compiled trace with the same params and
        ``known_uids`` (the paired FLT/ActiveDR comparison does) to
        evaluate each trigger once; the evaluations are read-only to
        every consumer, so sharing is exact.
        """
        index = compiled.index
        n_days = index.n_days
        catalog = compiled.catalog
        replay = PolicyReplay(self._engine, self.config,
                              compiled.snapshot.copy(), n_days)
        exempt = catalog.exempt_mask(self.exemptions)
        store = compiled.store

        def evaluate(t_c: int) -> ActivenessTable:
            if activeness_cache is None:
                return store.evaluate(t_c, self.params, known_uids)
            got = activeness_cache.get(t_c)
            if got is None:
                got = store.evaluate(t_c, self.params, known_uids)
                activeness_cache[t_c] = got
            return got

        det_size = catalog.det_size
        replay.classify(evaluate(compiled.replay_start))
        for day in range(n_days):
            if replay.due(day, n_days):
                t_c = compiled.replay_start + day * DAY_SECONDS
                replay.trigger(catalog, t_c, evaluate(t_c), exempt)
            replay.replay_day(det_size, day, *index.day_slice(day))
        return replay.result()
