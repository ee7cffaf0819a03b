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
* :class:`FastEmulator` then replays whole days against a copy of that
  state: one liveness gather per day, vectorized atime updates and
  per-group miss bincounts replace per-record trie traffic, and the
  purge triggers run columnar ports of the retention spectrum's scans.

Work that does not depend on a replay's state is done once for every
replay of the same records, not once per replay:

* a :class:`DayPlan` holds what each day's records do whatever the state
  (access counts, miss candidates, each path's first materializing and
  last record).  A compiled trace's index builds one per replay config
  on the first replay (:meth:`ReplayIndex.plan`), and every replay of a
  sweep shares it; the streaming engine builds one per flushed day and
  applies it to every tenant.
* the value trigger's per-path columns (type weight and smallness) are
  computed once per :class:`PathCatalog` (:meth:`PathCatalog.value_columns`).

The replay core is shared by both engines, not private to the batch path:

* :class:`PathCatalog` interns paths to dense pids and keeps the scan
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
from dataclasses import dataclass, field
from itertools import repeat
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

__all__ = ["OP_ACCESS", "OP_CREATE", "OP_TOUCH", "PathCatalog",
           "ReplayState", "ReplayIndex", "DayPlan", "CompiledTrace",
           "GroupLookup", "TriggerEngine", "PolicyReplay", "FastEmulator",
           "compile_dataset", "replay_bounds", "replay_day_columns"]

OP_ACCESS = 0
OP_CREATE = 1
OP_TOUCH = 2

_OP_CODES = {"access": OP_ACCESS, "create": OP_CREATE, "touch": OP_TOUCH}


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
    columns, brought up to date lazily when new paths intern, and
    :attr:`path_order` lists the pids in plain-string order.  A
    compiled trace's catalog is then frozen (:meth:`freeze`).

    ``det_size`` is stamped at intern time (it depends only on the
    path); ``snap_size`` is the snapshot size for snapshot files and 0
    for paths first seen in the trace, which keeps the value-function
    smallness columns identical across engines.  Those per-path value
    columns (:meth:`value_columns`) are computed once per catalog, on a
    value trigger's first use, and extended as paths intern: every
    replay of a catalog shares them.  ``version`` advances on every
    intern so the cached columns know when to extend.
    """

    __slots__ = ("_paths", "_pid_of", "_det_size", "_snap_size",
                 "version", "_scan_rank", "_order_rank", "_ranks_version",
                 "_scan_keys", "_path_order", "_scan_order",
                 "_order_pids", "_order_pids_version", "_value_cols")

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
        self._order_pids: np.ndarray | None = None
        self._order_pids_version = -1
        #: Type-weight key -> (type_weight, smallness_snap, smallness_det).
        self._value_cols: dict[tuple, tuple[np.ndarray, ...]] = {}

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

    @property
    def path_order(self) -> np.ndarray:
        """Every pid, in plain-string path order (the inverse of
        :attr:`order_rank`; the identity for a compiled catalog)."""
        if self._order_pids_version != self.version:
            rank = self.order_rank
            pids = np.empty(rank.size, dtype=np.int64)
            pids[rank] = np.arange(rank.size, dtype=np.int64)
            self._order_pids = pids
            self._order_pids_version = self.version
        return self._order_pids

    def value_columns(self, vf: CompositeValueFunction,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pid ``(type_weight, smallness_snap, smallness_det)``
        columns of a ``CompositeValueFunction``.

        All three are time-invariant per path: the type weight depends
        only on the path, and a live file's size is either its snapshot
        size or (once re-materialized during the replay) its
        deterministic ``det_size``.  Smallness uses ``math.log2`` per
        element so the scores are bit-identical to the scalar reference
        even where ``np.log2`` takes a differently-rounded SIMD path.
        The columns are cached per type-weight table, and paths never
        change once interned, so a grown catalog only computes its new
        tail.
        """
        key = (frozenset(vf.type_weights.items()), vf.default_type_weight)
        cols = self._value_cols.get(key)
        n = self.n_paths
        if cols is not None and cols[0].size == n:
            return cols
        lo = 0 if cols is None else cols[0].size

        def smallness_of(size: int) -> float:
            if size > 4096:
                return 1.0 / (1.0 + math.log2(max(size, 1) / 4096.0) / 10.0)
            return 1.0

        tail = (np.fromiter(map(vf.type_weight, self._paths[lo:n]),
                            np.float64, n - lo),
                np.fromiter(map(smallness_of, self.snap_size[lo:n].tolist()),
                            np.float64, n - lo),
                np.fromiter(map(smallness_of, self.det_size[lo:n].tolist()),
                            np.float64, n - lo))
        cols = tail if cols is None else tuple(
            np.concatenate(pair) for pair in zip(cols, tail))
        self._value_cols[key] = cols
        return cols

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
    ``[day_offsets[d], day_offsets[d + 1])``.  :meth:`plan` derives the
    records' :class:`DayPlan` on first use, once per replay config, and
    every replay of the index shares it.
    """

    replay_start: int
    n_days: int
    pid: np.ndarray   # int64 interned path ids
    uid: np.ndarray   # int64 accessing user
    ts: np.ndarray    # int64 epoch seconds, non-decreasing
    op: np.ndarray    # int8 op-codes (OP_ACCESS / OP_CREATE / OP_TOUCH)
    day_offsets: np.ndarray
    _plans: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_records(self) -> int:
        return int(self.pid.size)

    def plan(self, config: EmulatorConfig) -> "DayPlan":
        """The records' day plan under ``config``'s replay switches."""
        key = (config.apply_creates, config.restore_on_miss)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = DayPlan.build(
                config, self.pid, self.uid, self.ts, self.op,
                self.day_offsets)
        return plan


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
    each replay starts from a copy of it.  The index's day plans and the
    catalog's value columns are not built here: the first replay that
    needs one builds it (in each forked rank), and later replays share
    it.
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
# day plan and day kernel (shared by FastEmulator and the streaming engine)


def _heads(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``keys`` that start a run."""
    head = np.empty(keys.size, dtype=np.bool_)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return head


class DayPlan:
    """What each replay day's records do, as far as no replay state
    decides it.

    Within one day nothing is removed, so a day's effect on a replay
    state depends on that state only through which of the day's paths
    are live when the day starts.  Everything else is fixed by the
    records and the replay switches, and is derived here once, for
    every replay of the same records:

    * ``n_access``: the day's access count;
    * per distinct path of the day (a *group*, in pid order): its
      ``path``, the ``last_ts`` of its last record, which stamps the
      atime if the path is live at the end of the day, and its
      ``miss_count``;
    * the *miss candidates*, group by group: the access records that
      miss if their path is dead at day start -- those before the
      path's first materializing record, or with ``restore_on_miss`` up
      to and including it -- as rows (``miss_row``);
    * each path's first materializing record, a create (with
      ``apply_creates``) or an access (with ``restore_on_miss``), as its
      group (``mat_group``) and row (``mat_row``): it materializes the
      path, owned by its user, if the path is dead at day start.

    Groups are numbered from 0 within each day, and rows index the
    ``uid`` column the plan was built from.  The columns every applied
    day indexes with are int64; in a plan of many days, the rows and
    counts, read only where paths are dead, are int32.  A plan covers
    days ``first_day .. first_day + n_days - 1``;
    :func:`replay_day_columns` applies one of them to one state.
    """

    __slots__ = ("first_day", "n_access", "uid", "path", "last_ts",
                 "miss_count", "miss_row", "mat_group", "mat_row",
                 "_groups", "_misses", "_mats")

    @classmethod
    def build(cls, config: EmulatorConfig, pid: np.ndarray, uid: np.ndarray,
              ts: np.ndarray, op: np.ndarray, day_offsets: np.ndarray,
              first_day: int = 0) -> "DayPlan":
        """Plan the time-sorted records ``pid/uid/ts/op``, bucketed into
        days by ``day_offsets`` (``n_days + 1`` entries), under
        ``config``'s ``apply_creates`` / ``restore_on_miss``."""
        n = pid.size
        n_days = day_offsets.size - 1
        # A plan of many days serves many replays: its rows and counts
        # (and the build's temporaries) are int32 where they fit.  A
        # one-day plan serves one flush, and int64 indexes fastest.
        small = np.int32 if n_days > 1 and n < 2 ** 31 else np.int64
        # The records grouped by (day, path), in time order within each
        # group; temporaries are dropped as soon as they are used.
        if n_days == 1 or n == 0:
            key = pid
        else:
            key = np.repeat(np.arange(n_days, dtype=np.int64)
                            * (int(pid.max()) + 1), np.diff(day_offsets))
            key += pid
        order = np.argsort(key, kind="stable").astype(small, copy=False)
        head = _heads(key[order])
        del key
        group = np.cumsum(head, dtype=small)
        group -= 1
        n_groups = int(group[-1]) + 1 if n else 0
        tail = np.empty(n, dtype=np.bool_)
        tail[:-1] = head[1:]
        tail[-1:] = True
        last = order[tail]
        del head, tail

        creates, restore = config.apply_creates, config.restore_on_miss
        is_access = op == OP_ACCESS
        if creates and restore:
            can_add = op != OP_TOUCH
        elif creates:
            can_add = op == OP_CREATE
        elif restore:
            can_add = is_access
        else:
            can_add = None
        miss = is_access[order]
        if can_add is None:
            mat = order[:0]
        else:
            adds = np.flatnonzero(can_add[order])
            mat = adds[_heads(group[adds])]
            limit = np.full(n_groups, n, dtype=small)
            limit[group[mat]] = mat
            cmp = np.less_equal if restore else np.less
            miss &= cmp(np.arange(n, dtype=small), limit[group])
            del adds, limit

        plan = cls()
        plan.first_day = first_day
        plan.uid = uid
        plan.path = pid[last]
        plan.last_ts = ts[last]
        miss_count = np.bincount(group[miss], minlength=n_groups)
        plan.miss_count = miss_count.astype(small, copy=False)
        plan.miss_row = order[miss]
        plan.mat_row = order[mat]
        mat_group = group[mat].astype(np.int64)
        if n_days == 1:
            # The stream builds one of these per flushed day: its bounds
            # are the columns' ends, so skip the searches below.
            plan.n_access = [int(np.count_nonzero(is_access))]
            plan.mat_group = mat_group
            plan._groups = [0, n_groups]
            plan._misses = [0, int(plan.miss_row.size)]
            plan._mats = [0, int(mat.size)]
            return plan
        plan.n_access = np.diff(np.searchsorted(np.flatnonzero(is_access),
                                                day_offsets)).tolist()
        # Each day's first group, miss candidate and materializing record.
        group_day = np.searchsorted(day_offsets, last, side="right") - 1
        group_lo = np.searchsorted(group_day, np.arange(n_days + 1))
        plan.mat_group = mat_group - group_lo[group_day[mat_group]]
        plan._groups = group_lo.tolist()
        plan._misses = np.concatenate(
            ([0], np.cumsum(miss_count)))[group_lo].tolist()
        plan._mats = np.searchsorted(mat_group, group_lo).tolist()
        return plan

    def day(self, day: int) -> tuple[int, slice, slice, slice]:
        """Replay day ``day``'s access count, and its group,
        miss-candidate and materializing-record slices."""
        d = day - self.first_day
        g, m, a = self._groups, self._misses, self._mats
        return (self.n_access[d], slice(g[d], g[d + 1]),
                slice(m[d], m[d + 1]), slice(a[d], a[d + 1]))


def replay_day_columns(plan: DayPlan, day: int, state,
                       det_size: np.ndarray, metrics: DailyMetrics,
                       lookup: GroupLookup) -> None:
    """Apply replay day ``day`` of ``plan`` to a live/atime/size/owner
    state.

    ``state`` is any object with ``live/atime/size/owner`` arrays plus
    ``total_bytes``/``file_count`` counters, indexed by the same pids as
    ``det_size``.  The day's paths' liveness is read once, at day start:
    dead paths count their miss candidates as misses, per class of the
    accessing user, and materialize at their first materializing record;
    every path live at the end of the day takes its last record's
    timestamp as atime.
    """
    n_access, groups, misses, mats = plan.day(day)
    pids = plan.path[groups]
    if pids.size == 0:
        return
    metrics.accesses[day] = n_access
    live = state.live[pids]
    stamps = plan.last_ts[groups]
    if live.all():  # nothing misses or materializes
        state.atime[pids] = stamps
        return
    dead = ~live

    missed = np.repeat(dead, plan.miss_count[groups])
    if missed.any():
        uids = plan.uid[plan.miss_row[misses][missed]]
        metrics.misses[day] = uids.size
        counts = np.bincount(lookup.codes(uids), minlength=_N_CODES).tolist()
        for cls in UserClass:
            if counts[cls.value]:
                metrics.group_misses[cls][day] = counts[cls.value]

    at = plan.mat_group[mats]
    born = dead[at]
    if born.any():
        at = at[born]
        added = pids[at]
        state.live[added] = True
        state.owner[added] = plan.uid[plan.mat_row[mats][born]]
        sizes = det_size[added]
        state.size[added] = sizes
        state.total_bytes += int(sizes.sum())
        state.file_count += int(added.size)
        live[at] = True
    state.atime[pids[live]] = stamps[live]


# ---------------------------------------------------------------------------
# purge-trigger engine (shared by FastEmulator and the streaming engine)


class TriggerEngine:
    """Columnar purge triggers for the retention spectrum.

    One instance per (policy, run context).  :meth:`trigger` dispatches
    to the columnar port of the policy's scan, operating on

    * a :class:`PathCatalog`: paths, ``det_size`` / ``snap_size``
      columns, the ``order_rank`` / ``scan_rank`` scan orders and the
      pids in path order, and the value columns every value trigger of
      the catalog shares;
    * a :class:`ReplayState` whose columns cover the catalog.

    The engine itself holds nothing but the policy.  Constructing it
    raises ``TypeError`` for policy types (or custom value functions) it
    cannot replay exactly.
    """

    __slots__ = ("policy", "_trigger")

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

    def _size_type_terms(self, catalog, state, idxs: np.ndarray,
                         ) -> tuple[np.ndarray, np.ndarray]:
        """``w_size * smallness`` and ``w_type * type_weight`` of the
        ``idxs`` files, from the catalog's value columns."""
        vf = self.policy.value_function
        type_weight, s_snap, s_det = catalog.value_columns(vf)
        # A live file's size is snap_size until first purged, det_size
        # after any re-materialization; pick whichever column matches.
        smallness = np.where(state.size[idxs] == catalog.det_size[idxs],
                             s_det[idxs], s_snap[idxs])
        return vf.w_size * smallness, vf.w_type * type_weight[idxs]

    def _file_values(self, state, idxs: np.ndarray, t_c: int,
                     size_term: np.ndarray,
                     type_term: np.ndarray) -> np.ndarray:
        """Vectorized ``CompositeValueFunction`` over the ``idxs`` files,
        given their :meth:`_size_type_terms`.

        Mirrors the scalar ``__call__`` operation for operation so the
        scores (and therefore the purge order and target cut) are
        bit-identical to the reference policy run.  IEEE add / multiply
        / divide round identically whether vectorized or scalar; the two
        transcendentals do not (NumPy's SIMD ``log2`` / ``pow`` loops
        can differ from libm by an ulp), so smallness comes from the
        precomputed per-size columns and the recency power is libm's
        ``pow``, the scalar operator's own call, once per file.
        """
        vf = self.policy.value_function
        age_days = np.maximum((t_c - state.atime[idxs]) / DAY_SECONDS, 0.0)
        exponents = age_days / vf.recency_halflife_days
        recency = np.fromiter(map(pow, repeat(0.5), exponents.tolist()),
                              np.float64, exponents.size)
        return vf.w_recency * recency + size_term + type_term

    def _value_trigger(self, catalog, state, t_c: int,
                       activeness: ActivenessTable,
                       lookup: GroupLookup,
                       exempt: np.ndarray | None) -> RetentionReport:
        config = self.policy.config
        target = state.purge_target(config)
        report = RetentionReport(policy=self.policy.name, t_c=t_c,
                                 lifetime_days=config.lifetime_days,
                                 target_bytes=target)

        if target > 0:
            # Ascending (value, path): the candidates in plain-string
            # path order, then one stable sort on value.
            order = catalog.path_order
            keep = state.live[order]
            if exempt is not None:
                keep &= ~exempt[order]
            cand = order[keep]
            if cand.size:
                values = self._file_values(
                    state, cand, t_c,
                    *self._size_type_terms(catalog, state, cand))
                cand = cand[np.argsort(values, kind="stable")]
                cum = np.cumsum(state.size[cand])
                cut = int(np.searchsorted(cum, target, side="left"))
                idxs = cand if cut >= cand.size else cand[:cut + 1]
                self._apply_purges(state, report, idxs, None, lookup)
        else:
            # No mandatory target: the information-lifecycle mode purges
            # every file below the value threshold.  The purge set and
            # its tallies are order-free, so nothing is sorted.  With
            # w_recency >= 0 a value is fl(fl(r + a) + b) with r >= 0,
            # never below fl(a + b) (rounding is monotone), so a file
            # whose size and type terms reach the threshold is kept
            # without computing its recency.
            threshold = self.policy.value_threshold
            cand = np.flatnonzero(state.live & ~exempt if exempt is not None
                                  else state.live)
            size_term, type_term = self._size_type_terms(catalog, state,
                                                         cand)
            if self.policy.value_function.w_recency >= 0:
                low = size_term + type_term < threshold
                cand = cand[low]
                size_term, type_term = size_term[low], type_term[low]
            if cand.size:
                values = self._file_values(state, cand, t_c, size_term,
                                           type_term)
                idxs = cand[values < threshold]
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
    the daily metrics, purge reports and group-count history, and the
    classification as a :class:`GroupLookup` taken straight from the
    newest :class:`~repro.core.activeness.ActivenessTable`.  The caller
    supplies the days (as :class:`DayPlan` days), the trigger instants
    and the evaluations: :class:`FastEmulator` from a compiled trace,
    the streaming engine at its day boundaries.
    """

    def __init__(self, engine: TriggerEngine, state: ReplayState,
                 n_days: int) -> None:
        self.engine = engine
        self.policy = engine.policy
        self.state = state
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

    def replay_day(self, plan: DayPlan, day: int,
                   det_size: np.ndarray) -> None:
        """Apply replay day ``day`` of ``plan``; ``det_size`` is the
        catalog's column, covering every pid the plan names."""
        self.state.ensure(det_size.size)
        replay_day_columns(plan, day, self.state, det_size, self.metrics,
                           self.lookup)

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
        replay = PolicyReplay(self._engine, compiled.snapshot.copy(), n_days)
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
        plan = index.plan(self.config)
        replay.classify(evaluate(compiled.replay_start))
        for day in range(n_days):
            if replay.due(day, n_days):
                t_c = compiled.replay_start + day * DAY_SECONDS
                replay.trigger(catalog, t_c, evaluate(t_c), exempt)
            replay.replay_day(plan, day, det_size)
        return replay.result()
