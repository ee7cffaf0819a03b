"""Batched columnar replay: compile the trace once, replay it vectorized.

The reference :class:`~repro.emulation.emulator.Emulator` walks the access
log record by record through :class:`~repro.vfs.path_trie.PathTrie`
lookups -- faithful, but every experiment (lifetime sweeps, ablations,
calibration) pays the full per-record Python cost again.  This module
splits that work:

* :func:`compile_dataset` runs **once per dataset**: every path that can
  appear during the replay (snapshot files plus trace paths) is interned
  to a dense integer id, and the in-window access records become parallel
  NumPy columns (path-id, uid, timestamp, op-code) bucketed by replay day
  in a :class:`ReplayIndex`.  The snapshot file system is flattened to
  per-path ``live/size/atime/owner`` arrays, and the activity history is
  pre-ingested into a consolidated
  :class:`~repro.core.incremental.ColumnarActivityStore` -- the same
  store the streaming engine appends to as events arrive.
* :class:`FastEmulator` then replays whole-day slices against those
  arrays: liveness masks, vectorized atime updates, and per-group miss
  bincounts replace per-record trie traffic, and the purge triggers run
  columnar ports of the FLT / ActiveDR scans.

The replay kernels themselves are shared, not private to the batch path:
:func:`replay_day_columns` applies one day of access records to a
live/atime/size/owner column set, and :class:`TriggerEngine` holds the
columnar purge triggers for the whole retention spectrum, parameterized
by a *catalog* (paths, deterministic sizes, scan orders) rather than by
``CompiledTrace`` specifically.  The streaming engine,
:class:`~repro.server.tenants.MultiTenantService`, drives the same
kernels from a dynamically growing catalog, which is how streaming stays
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

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.activeness import ActivenessParams, UserActiveness
from ..core.cache_policy import ScratchAsCachePolicy
from ..core.classification import (UserClass, classify_all, group_counts,
                                   scan_ordered_uids)
from ..core.exemption import ExemptionList
from ..core.flt import FixedLifetimePolicy
from ..core.incremental import ColumnarActivityStore, build_activity_store
from ..core.policy import RetentionPolicy
from ..core.report import RetentionReport
from ..core.retention import ActiveDRPolicy, adjusted_lifetime_seconds
from ..core.value_based import CompositeValueFunction, ValueBasedPolicy
from ..traces.schema import AppAccessRecord, JobRecord, PublicationRecord
from ..vfs.file_meta import DAY_SECONDS
from ..vfs.filesystem import VirtualFileSystem
from ..vfs.path_trie import split_path
from .emulator import EmulationResult, EmulatorConfig, deterministic_file_size
from .metrics import DailyMetrics

__all__ = ["OP_ACCESS", "OP_CREATE", "OP_TOUCH", "NEVER_POS", "ReplayIndex",
           "CompiledTrace", "GroupLookup", "TriggerEngine", "FastEmulator",
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

    Path ids are assigned in plain-string sort order -- exactly the order
    ``VirtualFileSystem.iter_user_files`` visits one user's files, so the
    ActiveDR per-user scan is just an ascending-pid walk.  The prefix
    tree's system-scan order (payload-before-children, component-wise) is
    captured separately in ``scan_rank`` for the FLT walk.
    """

    paths: tuple[str, ...]
    det_size: np.ndarray        # deterministic_file_size per path
    scan_rank: np.ndarray       # position of each pid in trie (FLT) order
    snap_live: np.ndarray       # snapshot file-system columns
    snap_size: np.ndarray
    snap_atime: np.ndarray
    snap_uid: np.ndarray
    capacity_bytes: int
    index: ReplayIndex
    store: ColumnarActivityStore
    replay_start: int
    replay_end: int

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def n_records(self) -> int:
        return self.index.n_records

    # The TriggerEngine catalog protocol: pids here *are* assigned in
    # plain-string sort order, so the string-order rank is the identity
    # (signalled as None), and the path set never changes after build.
    @property
    def order_rank(self) -> np.ndarray | None:
        return None

    @property
    def version(self) -> int:
        return 0

    def exempt_mask(self, exemptions: ExemptionList | None,
                    ) -> np.ndarray | None:
        """Per-path exemption mask (``None`` when there are no exemptions)."""
        if exemptions is None:
            return None
        return np.fromiter((p in exemptions for p in self.paths),
                           np.bool_, len(self.paths))

    # ------------------------------------------------------------------

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

        path_set = {p for p, _ in snapshot}
        path_set.update(r.path for r in recs)
        paths = tuple(sorted(path_set))
        pid_of = {p: i for i, p in enumerate(paths)}
        n_paths = len(paths)

        det_size = np.fromiter((deterministic_file_size(p) for p in paths),
                               np.int64, n_paths)
        # FLT system-scan order: the prefix tree iterates payload-before-
        # children in component order, i.e. sorted by split_path.
        trie_order = np.fromiter(
            sorted(range(n_paths), key=lambda i: split_path(paths[i])),
            np.int64, n_paths)
        scan_rank = np.empty(n_paths, dtype=np.int64)
        scan_rank[trie_order] = np.arange(n_paths, dtype=np.int64)

        snap_live = np.zeros(n_paths, dtype=np.bool_)
        snap_size = np.zeros(n_paths, dtype=np.int64)
        snap_atime = np.zeros(n_paths, dtype=np.int64)
        snap_uid = np.zeros(n_paths, dtype=np.int64)
        for path, meta in snapshot:
            i = pid_of[path]
            snap_live[i] = True
            snap_size[i] = meta.size
            snap_atime[i] = meta.atime
            snap_uid[i] = meta.uid

        n = len(recs)
        pid = np.fromiter((pid_of[r.path] for r in recs), np.int64, n)
        uid = np.fromiter((r.uid for r in recs), np.int64, n)
        ts = np.fromiter((r.ts for r in recs), np.int64, n)
        op = np.fromiter((_OP_CODES[r.op] for r in recs), np.int8, n)
        if n and np.any(np.diff(ts) < 0):
            raise ValueError("accesses must be time-sorted")
        day = (ts - replay_start) // DAY_SECONDS
        day_offsets = np.searchsorted(day, np.arange(n_days + 1))
        index = ReplayIndex(replay_start=replay_start, n_days=n_days,
                            pid=pid, uid=uid, ts=ts, op=op,
                            day_offsets=day_offsets)

        store = build_activity_store(jobs, publications)
        store.consolidate()  # once, pre-fork

        return cls(paths=paths, det_size=det_size, scan_rank=scan_rank,
                   snap_live=snap_live, snap_size=snap_size,
                   snap_atime=snap_atime, snap_uid=snap_uid,
                   capacity_bytes=fs.capacity_bytes, index=index,
                   store=store, replay_start=replay_start,
                   replay_end=replay_end)


def compile_dataset(dataset) -> CompiledTrace:
    """Compile a ``TitanDataset`` (or CLI workspace) for fast replay."""
    start, end = replay_bounds(dataset)
    return CompiledTrace.build(dataset.filesystem, dataset.accesses,
                               dataset.jobs, dataset.publications,
                               start, end)


# ---------------------------------------------------------------------------
# replay state


class _ReplayState:
    """Mutable per-run columns; one instance per ``FastEmulator.run``."""

    __slots__ = ("live", "atime", "size", "owner", "total_bytes",
                 "file_count", "capacity_bytes")

    def __init__(self, compiled: CompiledTrace) -> None:
        self.live = compiled.snap_live.copy()
        self.atime = compiled.snap_atime.copy()
        self.size = compiled.snap_size.copy()
        self.owner = compiled.snap_uid.copy()
        self.total_bytes = int(compiled.snap_size[compiled.snap_live].sum())
        self.file_count = int(compiled.snap_live.sum())
        self.capacity_bytes = compiled.capacity_bytes

    def purge_target(self, config) -> int:
        # Mirrors core.policy.purge_target_bytes on columnar state.
        if self.capacity_bytes <= 0:
            return 0
        allowed = int(config.purge_target_utilization * self.capacity_bytes)
        return max(0, self.total_bytes - allowed)


class GroupLookup:
    """Vectorized uid -> UserClass code with the both-inactive default."""

    __slots__ = ("_uids", "_codes")

    _DEFAULT = UserClass.BOTH_INACTIVE.value

    def __init__(self, classes: dict[int, UserClass]) -> None:
        if classes:
            uids = np.fromiter(classes.keys(), np.int64, len(classes))
            codes = np.fromiter((c.value for c in classes.values()),
                                np.int64, len(classes))
            order = np.argsort(uids)
            self._uids = uids[order]
            self._codes = codes[order]
        else:
            self._uids = np.empty(0, dtype=np.int64)
            self._codes = np.empty(0, dtype=np.int64)

    def codes(self, uid_arr: np.ndarray) -> np.ndarray:
        if self._uids.size == 0:
            return np.full(uid_arr.size, self._DEFAULT, dtype=np.int64)
        idx = np.minimum(np.searchsorted(self._uids, uid_arr),
                         self._uids.size - 1)
        return np.where(self._uids[idx] == uid_arr,
                        self._codes[idx], self._DEFAULT)


_CODE_TO_CLASS = {cls.value: cls for cls in UserClass}


class _TargetReached(Exception):
    """Internal control flow: the purge target was hit mid-scan."""


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

    * a **catalog**: any object with ``paths`` / ``n_paths`` /
      ``det_size`` / ``snap_size`` / ``scan_rank`` columns, an
      ``order_rank`` column giving each pid's position in plain-string
      path order (``None`` when pids are already string-sorted, as in
      :class:`CompiledTrace`), and a ``version`` counter that advances
      whenever paths are appended (so per-path value columns can be
      extended incrementally);
    * a **state**: ``live/atime/size/owner`` arrays parallel to the
      catalog plus ``total_bytes``/``file_count`` and a
      ``purge_target(config)`` method.

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
                activeness: dict[int, UserActiveness],
                lookup: GroupLookup,
                exempt: np.ndarray | None) -> RetentionReport:
        """Run one purge trigger at ``t_c``; mutates ``state``."""
        return self._trigger(catalog, state, t_c, activeness, lookup, exempt)

    # ------------------------------------------------------------------
    # shared tally helpers

    def _apply_purges(self, state, report: RetentionReport,
                      idxs: np.ndarray, group: UserClass | None,
                      lookup: GroupLookup | None) -> None:
        """Purge ``idxs``; tally under ``group`` (or per-owner lookup)."""
        owners = state.owner[idxs]
        sizes = state.size[idxs]
        if group is not None:
            code_values = (group.value,)
            masks = {group.value: np.ones(idxs.size, dtype=np.bool_)}
        else:
            codes = lookup.codes(owners)
            code_values = np.unique(codes).tolist()
            masks = {v: codes == v for v in code_values}
        for value in code_values:
            m = masks[value]
            tally = report.groups[_CODE_TO_CLASS[value]]
            tally.purged_files += int(m.sum())
            tally.purged_bytes += int(sizes[m].sum())
            tally.users_purged.update(
                int(u) for u in np.unique(owners[m]).tolist())
        total = int(sizes.sum())
        report.purged_bytes_total += total
        state.live[idxs] = False
        state.total_bytes -= total
        state.file_count -= int(idxs.size)

    def _record_survivors(self, state, report: RetentionReport,
                          lookup: GroupLookup) -> None:
        live_idx = np.flatnonzero(state.live)
        if live_idx.size == 0:
            return
        owners = state.owner[live_idx]
        sizes = state.size[live_idx]
        codes = lookup.codes(owners)
        for value in np.unique(codes).tolist():
            m = codes == value
            tally = report.groups[_CODE_TO_CLASS[value]]
            tally.retained_files += int(m.sum())
            tally.retained_bytes += int(sizes[m].sum())
            tally.users_scanned.update(
                int(u) for u in np.unique(owners[m]).tolist())

    # ------------------------------------------------------------------
    # FLT

    def _flt_trigger(self, catalog, state, t_c: int,
                     activeness: dict[int, UserActiveness],
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
                          activeness: dict[int, UserActiveness],
                          lookup: GroupLookup,
                          exempt: np.ndarray | None) -> RetentionReport:
        config = self.policy.config
        target = state.purge_target(config)
        report = RetentionReport(policy=self.policy.name, t_c=t_c,
                                 lifetime_days=config.lifetime_days,
                                 target_bytes=target)

        full = dict(activeness)
        live_idx = np.flatnonzero(state.live)
        for u in np.unique(state.owner[live_idx]).tolist():
            full.setdefault(int(u), UserActiveness(int(u)))
        groups = scan_ordered_uids(full)

        if target <= 0:
            self._record_survivors(state, report, lookup)
            return report

        # Per-owner slices over the live files, in plain-string path
        # order -- exactly the iter_user_files visit order.  With
        # string-sorted pids (CompiledTrace) the pid is its own rank.
        owners_live = state.owner[live_idx]
        rank = catalog.order_rank
        order = np.lexsort((live_idx if rank is None else rank[live_idx],
                            owners_live))
        sorted_idx = live_idx[order]
        sorted_own = owners_live[order]
        uniq, starts, lens = np.unique(sorted_own, return_index=True,
                                       return_counts=True)
        slices = {int(u): (int(s), int(c))
                  for u, s, c in zip(uniq, starts, lens)}

        try:
            for group, uids in groups:
                for retro in range(config.retrospective_passes + 1):
                    if retro:
                        if report.purged_bytes_total >= target:
                            break
                        decay = (1.0 - config.rank_decay) ** retro
                        report.passes_used = max(report.passes_used,
                                                 retro + 1)
                    else:
                        decay = 1.0
                    self._scan_group_columnar(
                        state, t_c, report, full, group, uids, exempt,
                        target, decay, slices, sorted_idx)
        except _TargetReached:
            pass

        report.target_met = report.purged_bytes_total >= target
        self._record_survivors(state, report, lookup)
        if not report.target_met and self.policy.notifier is not None:
            from ..core.notify import notification_from_report
            self.policy.notifier.notify(notification_from_report(report))
        return report

    def _scan_group_columnar(self, state, t_c: int,
                             report: RetentionReport,
                             activeness: dict[int, UserActiveness],
                             group: UserClass, uids: list[int],
                             exempt: np.ndarray | None, target: int,
                             decay: float, slices, sorted_idx) -> None:
        config = self.policy.config
        for uid in uids:
            lifetime = adjusted_lifetime_seconds(config, activeness[uid],
                                                 group, decay)
            if math.isinf(lifetime):
                continue
            span = slices.get(uid)
            if span is None:
                continue
            idxs = sorted_idx[span[0]:span[0] + span[1]]
            stale = state.live[idxs] & ((t_c - state.atime[idxs]) > lifetime)
            if exempt is not None:
                stale &= ~exempt[idxs]
            idxs = idxs[stale]
            if idxs.size == 0:
                continue
            remaining = target - report.purged_bytes_total
            cum = np.cumsum(state.size[idxs])
            cut = int(np.searchsorted(cum, remaining, side="left"))
            if cut < idxs.size:
                self._apply_purges(state, report, idxs[:cut + 1], group,
                                   lookup=None)
                raise _TargetReached
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
                       activeness: dict[int, UserActiveness],
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
            # order (the pid itself when pids are string-sorted).
            rank = catalog.order_rank
            order = np.lexsort((cand if rank is None else rank[cand],
                                values))
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
                       activeness: dict[int, UserActiveness],
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
        metrics = DailyMetrics(n_days)
        result = EmulationResult(policy=self.policy.name,
                                 lifetime_days=self.policy.config.lifetime_days,
                                 metrics=metrics)

        state = _ReplayState(compiled)
        exempt = compiled.exempt_mask(self.exemptions)
        store = compiled.store

        def evaluate(t_c: int) -> dict[int, UserActiveness]:
            if activeness_cache is None:
                return store.evaluate(t_c, self.params, known_uids)
            got = activeness_cache.get(t_c)
            if got is None:
                got = store.evaluate(t_c, self.params, known_uids)
                activeness_cache[t_c] = got
            return got

        activeness = evaluate(compiled.replay_start)
        classes = classify_all(activeness)
        result.group_count_history.append(group_counts(classes))
        lookup = GroupLookup(classes)

        trigger_interval = self.policy.config.purge_trigger_days
        # Scratch column reused across days: first position at which each
        # path materializes today (or NEVER_POS).
        add_pos = np.full(compiled.n_paths, _NEVER, dtype=np.int64)

        for day in range(n_days):
            if day > 0 and day % trigger_interval == 0:
                t_c = compiled.replay_start + day * DAY_SECONDS
                activeness = evaluate(t_c)
                classes = classify_all(activeness)
                result.group_count_history.append(group_counts(classes))
                lookup = GroupLookup(classes)
                report = self._engine.trigger(compiled, state, t_c,
                                              activeness, lookup, exempt)
                result.reports.append(report)
            replay_day_columns(self.config, compiled.det_size, state, day,
                               metrics, lookup, add_pos,
                               *index.day_slice(day))

        result.final_classes = classes
        result.final_total_bytes = state.total_bytes
        result.final_file_count = state.file_count
        return result
