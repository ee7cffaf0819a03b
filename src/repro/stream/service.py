"""The online retention service: event-sourced, incremental, resumable.

:class:`OnlineRetentionService` is the streaming counterpart of the batch
:class:`~repro.emulation.compiled.FastEmulator`.  Where the batch path
compiles the whole trace up front and replays day slices, the service
consumes one merged :class:`~repro.stream.events.StreamEvent` at a time
and maintains everything incrementally:

* activity events (jobs, publications) append O(1) into an
  :class:`~repro.stream.state.IncrementalActivenessState`;
* access events intern their path into a growing
  :class:`~repro.stream.state.PathCatalog` and buffer into the current
  replay day;
* crossing a day boundary flushes the finished day through the shared
  :func:`~repro.emulation.compiled.replay_day_columns` kernel and -- on
  trigger days -- re-evaluates activeness *incrementally* and fires the
  policy's purge scan through the shared
  :class:`~repro.emulation.compiled.TriggerEngine`.

Because the kernels, the float fold order, and the boundary protocol all
match the batch path exactly, :meth:`finalize` returns an
:class:`~repro.emulation.emulator.EmulationResult` that is bit-identical
to ``FastEmulator.run`` over the same dataset, for the full retention
spectrum (pinned by ``tests/test_stream_service.py``).

Boundary protocol
-----------------
The batch loop for day ``d`` runs *trigger (if due), then replay day d*.
The service mirrors that with boundaries ``B = 0 .. n_days``:

* boundary 0 performs the initial activeness evaluation at
  ``replay_start``;
* boundary ``B >= 1`` first flushes day ``B - 1``, then (when
  ``B < n_days`` and ``B`` is a trigger day) evaluates activeness at
  ``t_c = replay_start + B * DAY`` and fires the purge trigger.

An arriving access of day ``d`` forces boundaries through ``d`` first; an
arriving activity at ``ts`` forces only boundaries strictly before ``ts``
(so an activity stamped exactly at a trigger instant is ingested before
that trigger evaluates -- the batch evaluators clip ``ts <= t_c``
inclusively).  :meth:`finalize` forces the remaining boundaries through
``n_days``.

Checkpointing
-------------
With a checkpoint directory configured the service snapshots itself after
trigger boundaries (every ``checkpoint_every_days`` days).  Checkpoints
happen *between* events -- the manifest cursor counts fully-consumed
merged events -- so resuming is: rebuild the same deterministic event
merge, ``skip_events(stream, cursor)``, and keep going.  The resumed run
is bit-identical to one that never stopped.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

import numpy as np

from ..core.activeness import ActivenessParams
from ..core.classification import classify_all, group_counts
from ..core.exemption import ExemptionList
from ..core.policy import RetentionPolicy
from ..emulation.compiled import (NEVER_POS, GroupLookup, TriggerEngine,
                                  replay_day_columns)
from ..emulation.emulator import EmulationResult, EmulatorConfig
from ..emulation.metrics import DailyMetrics
from ..vfs.file_meta import DAY_SECONDS
from ..vfs.filesystem import VirtualFileSystem
from .checkpoint import (CHECKPOINT_FORMAT, CheckpointManager,
                         activeness_from_arrays, activeness_to_arrays,
                         catalog_from_arrays, catalog_to_arrays,
                         load_checkpoint, metrics_from_arrays,
                         metrics_to_arrays, reports_from_jsonable,
                         reports_to_jsonable)
from .events import (EVENT_ACCESS, EVENT_JOB, EVENT_PUBLICATION, StreamEvent)
from .state import (GrowableReplayState, IncrementalActivenessState,
                    PathCatalog)

__all__ = ["OnlineRetentionService"]

_OP_CODES = {"access": 0, "create": 1, "touch": 2}  # mirrors compiled._OP_CODES


class OnlineRetentionService:
    """Streaming retention over a merged event feed.

    Parameters mirror ``FastEmulator`` plus the stream-specific knobs:

    snapshot_fs:
        The initial scratch file system (read once, never mutated).
    replay_start / replay_end:
        The replay window; accesses outside it are counted and dropped,
        exactly like batch compilation.  Activity events are *never*
        window-clipped (history before the window informs activeness).
    checkpoint_dir / checkpoint_every_days:
        When set, a rolling atomic checkpoint is written after trigger
        boundaries whose day is a multiple of ``checkpoint_every_days``.
    """

    def __init__(self, policy: RetentionPolicy, *,
                 snapshot_fs: VirtualFileSystem | None = None,
                 replay_start: int, replay_end: int,
                 capacity_bytes: int | None = None,
                 activeness_params: ActivenessParams | None = None,
                 config: EmulatorConfig | None = None,
                 exemptions: ExemptionList | None = None,
                 known_uids: Iterable[int] = (),
                 checkpoint_dir: str | None = None,
                 checkpoint_every_days: int = 7,
                 checkpoint_retain: int = 3,
                 checkpoint_manager: CheckpointManager | None = None,
                 ) -> None:
        if replay_end <= replay_start:
            raise ValueError("replay_end must exceed replay_start")
        self._engine = TriggerEngine(policy)
        self.policy = policy
        self.params = activeness_params or policy.config.activeness
        self.config = config or EmulatorConfig()
        self.exemptions = exemptions
        self.known_uids = [int(u) for u in known_uids]

        self.replay_start = int(replay_start)
        self.replay_end = int(replay_end)
        self.n_days = -(-(self.replay_end - self.replay_start) // DAY_SECONDS)
        self.window_end = self.replay_start + self.n_days * DAY_SECONDS

        self.catalog = PathCatalog()
        if capacity_bytes is None:
            capacity_bytes = (snapshot_fs.capacity_bytes
                              if snapshot_fs is not None else 0)
        self.state = GrowableReplayState(capacity_bytes)
        self.activity = IncrementalActivenessState()
        self.metrics = DailyMetrics(self.n_days)
        self.reports = []
        self.group_count_history = []
        self.classes = {}
        self._lookup: GroupLookup | None = None

        self._next_boundary = 0
        self._consumed = 0          # fully-processed merged events
        self.dropped_accesses = 0   # out-of-window access records
        self._buf_pid: list[int] = []
        self._buf_uid: list[int] = []
        self._buf_ts: list[int] = []
        self._buf_op: list[int] = []
        self._add_pos = np.full(0, NEVER_POS, dtype=np.int64)
        self._exempt: np.ndarray | None = (
            np.empty(0, dtype=np.bool_) if exemptions is not None else None)
        self._exempt_count = 0

        if checkpoint_manager is not None:
            self.checkpoints: CheckpointManager | None = checkpoint_manager
        else:
            self.checkpoints = (
                CheckpointManager(checkpoint_dir, retain=checkpoint_retain)
                if checkpoint_dir else None)
        self.checkpoint_every_days = int(checkpoint_every_days)

        self.stats = {
            "events_job": 0, "events_publication": 0, "events_access": 0,
            "triggers": 0, "trigger_seconds": 0.0,
            "eval_users": 0, "eval_refolded": 0,
            "checkpoints_written": 0, "checkpoint_failures": 0,
        }
        self.last_checkpoint_error: str | None = None

        if snapshot_fs is not None:
            self.load_snapshot(snapshot_fs)

    # ------------------------------------------------------------------
    # construction helpers

    def load_snapshot(self, fs: VirtualFileSystem) -> None:
        """Intern and materialize the initial file system."""
        for path, meta in fs.iter_files():
            pid = self.catalog.intern(path, snap_size=meta.size)
            self.state.ensure(self.catalog.n_paths)
            self.state.add_file(pid, meta.size, meta.atime, meta.uid)

    # ------------------------------------------------------------------
    # ingestion

    def ingest(self, event: StreamEvent) -> None:
        """Consume one merged event; may fire any number of boundaries."""
        kind = event.kind
        # Per-kind counters are bumped only *after* boundaries fire: a
        # checkpoint taken inside the boundary cascade must not have
        # counted the current (not yet consumed, will-be-redelivered)
        # event, or a resumed run would double-count it.
        if kind == EVENT_ACCESS:
            rec = event.payload
            if self.replay_start <= rec.ts < self.window_end:
                day = (rec.ts - self.replay_start) // DAY_SECONDS
                self._advance_boundaries(day)
                self.stats["events_access"] += 1
                self._buf_pid.append(self.catalog.intern(rec.path))
                self._buf_uid.append(rec.uid)
                self._buf_ts.append(rec.ts)
                self._buf_op.append(_OP_CODES[rec.op])
            else:
                self.stats["events_access"] += 1
                self.dropped_accesses += 1
        elif kind == EVENT_JOB:
            self._advance_boundaries_before(event.ts)
            self.stats["events_job"] += 1
            self.activity.add_job(event.payload)
        elif kind == EVENT_PUBLICATION:
            self._advance_boundaries_before(event.ts)
            self.stats["events_publication"] += 1
            self.activity.add_publication(event.payload)
        else:
            raise ValueError(f"unknown stream event kind {kind!r}")
        self._consumed += 1

    def run(self, events: Iterator[StreamEvent],
            stop_after_events: int | None = None) -> EmulationResult | None:
        """Drive the service from an event iterator.

        Returns the finalized result, or ``None`` when
        ``stop_after_events`` cut the run short (simulating a crash --
        resume from the latest checkpoint).
        """
        for event in events:
            if (stop_after_events is not None
                    and self._consumed >= stop_after_events):
                return None
            self.ingest(event)
        return self.finalize()

    # ------------------------------------------------------------------
    # boundaries

    def _advance_boundaries(self, day: int) -> None:
        """Fire every pending boundary up to and including ``day``."""
        while self._next_boundary <= min(day, self.n_days):
            self._boundary(self._next_boundary)

    def _advance_boundaries_before(self, ts: int) -> None:
        """Fire boundaries strictly earlier than an activity at ``ts``."""
        while (self._next_boundary <= self.n_days
               and self.replay_start + self._next_boundary * DAY_SECONDS
               < ts):
            self._boundary(self._next_boundary)

    def _boundary(self, boundary: int) -> None:
        triggered = False
        if boundary == 0:
            self._reclassify(self.replay_start)
        else:
            self._flush_day(boundary - 1)
            interval = self.policy.config.purge_trigger_days
            if boundary < self.n_days and boundary % interval == 0:
                self._fire_trigger(boundary)
                triggered = True
        self._next_boundary = boundary + 1
        if (triggered and self.checkpoints is not None
                and self.checkpoint_every_days > 0
                and boundary % self.checkpoint_every_days == 0):
            self._try_checkpoint()

    def _reclassify(self, t_c: int) -> dict:
        activeness = self.activity.evaluate(t_c, self.params, self.known_uids)
        self.stats["eval_users"] += self.activity.last_eval_users
        self.stats["eval_refolded"] += self.activity.last_eval_refolded
        self.classes = classify_all(activeness)
        self.group_count_history.append(group_counts(self.classes))
        self._lookup = GroupLookup(self.classes)
        return activeness

    def _fire_trigger(self, boundary: int) -> None:
        t_c = self.replay_start + boundary * DAY_SECONDS
        started = time.perf_counter()
        activeness = self._reclassify(t_c)
        self.state.ensure(self.catalog.n_paths)
        report = self._engine.trigger(self.catalog, self.state, t_c,
                                      activeness, self._lookup,
                                      self._exempt_mask())
        self.reports.append(report)
        self.stats["triggers"] += 1
        self.stats["trigger_seconds"] += time.perf_counter() - started

    def _flush_day(self, day: int) -> None:
        if not self._buf_pid:
            return
        pid = np.asarray(self._buf_pid, dtype=np.int64)
        uid = np.asarray(self._buf_uid, dtype=np.int64)
        ts = np.asarray(self._buf_ts, dtype=np.int64)
        op = np.asarray(self._buf_op, dtype=np.int8)
        self._buf_pid, self._buf_uid = [], []
        self._buf_ts, self._buf_op = [], []
        n = self.catalog.n_paths
        self.state.ensure(n)
        if self._add_pos.size < n:
            grown = np.full(max(n, self._add_pos.size * 2, 1024),
                            NEVER_POS, dtype=np.int64)
            grown[:self._add_pos.size] = self._add_pos
            self._add_pos = grown
        replay_day_columns(self.config, self.catalog.det_size, self.state,
                           day, self.metrics, self._lookup, self._add_pos,
                           pid, uid, ts, op)

    def _exempt_mask(self) -> np.ndarray | None:
        if self._exempt is None:
            return None
        n = self.catalog.n_paths
        if self._exempt.size < n:
            grown = np.zeros(max(n, self._exempt.size * 2, 1024),
                             dtype=np.bool_)
            grown[:self._exempt_count] = self._exempt[:self._exempt_count]
            self._exempt = grown
        if self._exempt_count < n:
            for i in range(self._exempt_count, n):
                self._exempt[i] = self.catalog.paths[i] in self.exemptions
            self._exempt_count = n
        return self._exempt[:n]

    # ------------------------------------------------------------------
    # completion

    def finalize(self) -> EmulationResult:
        """Flush the remaining boundaries and assemble the result.

        Identical (bit for bit) to ``FastEmulator.run`` over the same
        dataset: same ``DailyMetrics`` arrays, the same report sequence,
        the same group-count history and final classification.
        """
        self._advance_boundaries(self.n_days)
        result = EmulationResult(
            policy=self.policy.name,
            lifetime_days=self.policy.config.lifetime_days,
            metrics=self.metrics)
        result.reports = self.reports
        result.group_count_history = self.group_count_history
        result.final_classes = self.classes
        result.final_total_bytes = self.state.total_bytes
        result.final_file_count = self.state.file_count
        if self.checkpoints is not None:
            self._try_checkpoint()
        return result

    # ------------------------------------------------------------------
    # checkpoint / resume

    def _fingerprint(self) -> dict:
        cfg = self.policy.config
        return {
            "policy": self.policy.name,
            "lifetime_days": cfg.lifetime_days,
            "purge_trigger_days": cfg.purge_trigger_days,
            "period_days": self.params.period_days,
            "empty_period": self.params.empty_period,
            "epsilon": self.params.epsilon,
            "max_periods": self.params.max_periods,
            "apply_creates": self.config.apply_creates,
            "restore_on_miss": self.config.restore_on_miss,
        }

    def _try_checkpoint(self) -> str | None:
        """Checkpoint, surviving write failures.

        Checkpoints are advisory -- a failed write (disk full, transient
        ``EIO``) leaves the previous links of the chain intact, so the
        daemon records the failure and keeps serving rather than dying
        on a durability hiccup.  In-memory state is untouched by the
        failure; the next boundary simply tries again.
        """
        try:
            return self.save_checkpoint()
        except OSError as exc:
            self.stats["checkpoint_failures"] += 1
            self.last_checkpoint_error = f"{type(exc).__name__}: {exc}"
            return None

    def save_checkpoint(self) -> str:
        """Atomically snapshot the full service state; returns the path.

        Only legal between events with an empty day buffer -- i.e. right
        after a boundary, which is the only place the service calls it.
        """
        if self.checkpoints is None:
            raise ValueError("service has no checkpoint directory")
        if self._buf_pid:
            raise ValueError("cannot checkpoint with a partial day buffered")
        act_table, act_arrays = activeness_to_arrays(
            self.activity.snapshot_state())
        class_uids = np.fromiter(self.classes.keys(), np.int64,
                                 len(self.classes))
        class_codes = np.fromiter((c.value for c in self.classes.values()),
                                  np.int64, len(self.classes))
        ghist = np.zeros((len(self.group_count_history), 4), dtype=np.int64)
        for row, counts in enumerate(self.group_count_history):
            ghist[row] = [counts[cls] for cls in counts]
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "cursor": self._consumed,
            "next_boundary": self._next_boundary,
            "n_days": self.n_days,
            "replay_start": self.replay_start,
            "replay_end": self.replay_end,
            "capacity_bytes": self.state.capacity_bytes,
            "total_bytes": self.state.total_bytes,
            "file_count": self.state.file_count,
            "dropped_accesses": self.dropped_accesses,
            "known_uids": self.known_uids,
            "fingerprint": self._fingerprint(),
            "reports": reports_to_jsonable(self.reports),
            "activity_types": act_table,
            "stats": {k: v for k, v in self.stats.items()},
        }
        arrays = catalog_to_arrays(self.catalog)
        arrays.update({
            # Views, not copies: the write is synchronous.
            "live": self.state.live,
            "atime": self.state.atime,
            "size": self.state.size,
            "owner": self.state.owner,
            "class_uids": class_uids,
            "class_codes": class_codes,
            "group_count_history": ghist,
        })
        arrays.update(metrics_to_arrays(self.metrics))
        arrays.update(act_arrays)
        path = self.checkpoints.save(manifest, arrays)
        self.stats["checkpoints_written"] += 1
        return path

    @property
    def cursor(self) -> int:
        """Merged events fully consumed so far (the resume cursor)."""
        return self._consumed

    @classmethod
    def resume(cls, checkpoint_path: str, policy: RetentionPolicy, *,
               activeness_params: ActivenessParams | None = None,
               config: EmulatorConfig | None = None,
               exemptions: ExemptionList | None = None,
               checkpoint_dir: str | None = None,
               checkpoint_every_days: int = 7,
               checkpoint_retain: int = 3,
               checkpoint_manager: CheckpointManager | None = None,
               ) -> "OnlineRetentionService":
        """Rebuild a service from a checkpoint.

        The caller supplies the *same* policy/params/config/exemptions the
        original run used (policies hold live objects -- notifiers,
        residency indexes -- that a checkpoint cannot own); the stored
        fingerprint cross-checks the scalar knobs and refuses a mismatch.
        Feed the returned service ``skip_events(stream, service.cursor)``
        of the original deterministic merge to continue bit-identically.
        """
        from ..core.classification import UserClass

        manifest, arrays = load_checkpoint(checkpoint_path)
        service = cls(policy,
                      replay_start=manifest["replay_start"],
                      replay_end=manifest["replay_end"],
                      capacity_bytes=manifest["capacity_bytes"],
                      activeness_params=activeness_params,
                      config=config, exemptions=exemptions,
                      known_uids=manifest["known_uids"],
                      checkpoint_dir=checkpoint_dir,
                      checkpoint_every_days=checkpoint_every_days,
                      checkpoint_retain=checkpoint_retain,
                      checkpoint_manager=checkpoint_manager)
        stored = manifest["fingerprint"]
        current = service._fingerprint()
        if stored != current:
            diff = {k: (stored.get(k), current.get(k))
                    for k in set(stored) | set(current)
                    if stored.get(k) != current.get(k)}
            raise ValueError(
                f"checkpoint fingerprint mismatch (stored vs supplied): "
                f"{diff}")

        service.catalog = catalog_from_arrays(arrays)
        n = service.catalog.n_paths
        service.state.ensure(n)
        service.state.live[:] = np.asarray(arrays["live"], dtype=np.bool_)
        service.state.atime[:] = np.asarray(arrays["atime"], dtype=np.int64)
        service.state.size[:] = np.asarray(arrays["size"], dtype=np.int64)
        service.state.owner[:] = np.asarray(arrays["owner"], dtype=np.int64)
        service.state.total_bytes = int(manifest["total_bytes"])
        service.state.file_count = int(manifest["file_count"])

        service.metrics = metrics_from_arrays(arrays)
        service.reports = reports_from_jsonable(manifest["reports"])
        ghist = np.asarray(arrays["group_count_history"], dtype=np.int64)
        service.group_count_history = [
            {cls: int(row[i]) for i, cls in enumerate(UserClass)}
            for row in ghist]
        service.classes = {
            int(u): UserClass(int(c))
            for u, c in zip(arrays["class_uids"].tolist(),
                            arrays["class_codes"].tolist())}
        service._lookup = GroupLookup(service.classes)
        service.activity.restore_state(activeness_from_arrays(
            manifest["activity_types"], arrays))

        service._next_boundary = int(manifest["next_boundary"])
        service._consumed = int(manifest["cursor"])
        service.dropped_accesses = int(manifest["dropped_accesses"])
        # Counters continue from the first leg, like the cursor does
        # (checkpoints_written / checkpoint_failures restart: they count
        # this process's writes).
        saved_stats = dict(manifest.get("stats", {}))
        saved_stats.pop("checkpoints_written", None)
        saved_stats.pop("checkpoint_failures", None)
        service.stats.update(saved_stats)
        return service
