"""The streaming engine: N retention policies over ONE event feed and
ONE activeness state.

:class:`MultiTenantService` is the streaming counterpart of the batch
:class:`~repro.emulation.compiled.FastEmulator` and the only streaming
engine: plain ``serve`` runs it as a fleet of one tenant, ``serve
--listen``/``--tenant`` as a fleet of many, and every ``serve --shards``
worker as a fleet over its slice of the users.  Each *tenant* is
one policy configuration (FLT / ActiveDR / ValueBased / ScratchAsCache,
with its own lifetime, purge target, trigger cadence and activeness
period) making independent purge decisions over its own replica of the
replay state.  Everything that does not depend on the policy is shared:

* the event feed, cursor and day buffers (one merge, consumed once),
  and each flushed day's :class:`~repro.emulation.compiled.DayPlan` (one
  plan of the day's records, applied to every tenant);
* the :class:`~repro.emulation.compiled.PathCatalog` (pids are
  positional identity, so one interner serves every tenant), the
  exemption flags over it and its value-trigger columns;
* the :class:`~repro.core.incremental.ColumnarActivityStore`, the
  activity store the batch engines evaluate through -- and, decisively,
  its *evaluation*: at a boundary where several tenants trigger,
  activeness is refolded **once per distinct parameter set**, not once
  per tenant (``stats["activeness_evals"]`` counts the folds; four
  same-params tenants cost one).  Sharing the evaluation is sound
  because the batch ``ComparisonRunner`` already shares one evaluation
  per trigger across policies, and extra evaluation instants never
  perturb later ones (the store's sorted columns do not depend on when
  they are consolidated).

Boundary protocol
-----------------
The batch loop for day ``d`` runs *trigger (if due), then replay day d*.
The engine mirrors that with boundaries ``B = 0 .. n_days``: boundary 0
classifies every tenant at ``replay_start``; boundary ``B >= 1`` first
flushes day ``B - 1`` through the shared
:func:`~repro.emulation.compiled.replay_day_columns` kernel, one plan
applied to each tenant, then fires
the purge trigger of every tenant due at ``t_c = replay_start + B *
DAY`` through its :class:`~repro.emulation.compiled.TriggerEngine`.  An
arriving access of day ``d`` forces boundaries through ``d`` first; an
arriving activity at ``ts`` forces only boundaries strictly before
``ts`` (an activity stamped exactly at a trigger instant is ingested
before that trigger evaluates -- the batch evaluators clip ``ts <= t_c``
inclusively).  :meth:`MultiTenantService.finalize` forces the remaining
boundaries through ``n_days``.

Per tenant: one :class:`~repro.emulation.compiled.PolicyReplay`, the
same per-policy replay a batch ``FastEmulator`` run drives -- its
:class:`~repro.emulation.compiled.ReplayState` columns, daily metrics,
purge reports, classification + group lookup (refreshed on the tenant's
*own* trigger cadence, exactly as a standalone run would), and trigger
engine.  Because the shared pieces are read-only to the per-tenant
kernels, each tenant's finalized :class:`EmulationResult` is
**bit-identical** to an independent batch ``FastEmulator`` run of the
same policy (pinned by ``tests/test_server.py``).

Tenants are addable/removable at runtime: the admin plane enqueues ops
(:meth:`request_add_tenant` / :meth:`request_remove_tenant`, thread-safe)
and the engine applies them at the next day boundary -- the only place
the replay state is quiescent.  A new tenant clones the replay state of
a donor tenant (its scratch *as that tenant retained it*) and
participates from the admission boundary on.

Checkpoints pack every tenant into one digest-verified link of the
existing chain (format ``repro-server-checkpoint/3``): shared arrays
(catalog, activeness history) stored once, per-tenant arrays -- the
retention reports among them -- under a ``t<i>__`` namespace prefix,
per-tenant config fingerprints cross-checked on resume.  Checkpoints
happen *between* events -- the manifest cursor counts fully-consumed
merged events -- so resuming is: rebuild the same deterministic merge,
``skip_stream_items(stream, cursor)``, and keep going.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..core.activeness import ActivenessParams, ActivenessTable, safe_exp
from ..core.classification import UserClass
from ..core.config import RetentionConfig
from ..core.exemption import ExemptionList
from ..core.incremental import ColumnarActivityStore
from ..core.policy import RetentionPolicy
from ..core.report import RetentionReport
from ..emulation.compiled import (DayPlan, GroupLookup, PathCatalog,
                                  PolicyReplay, ReplayState, TriggerEngine)
from ..emulation.emulator import EmulationResult, EmulatorConfig
from ..emulation.runner import build_policy
from ..emulation.metrics import DailyMetrics
from ..vfs.file_meta import DAY_SECONDS
from ..vfs.filesystem import VirtualFileSystem
from ..stream.checkpoint import (SERVER_CHECKPOINT_FORMAT, CheckpointManager,
                                 activeness_from_arrays, activeness_to_arrays,
                                 catalog_from_arrays, catalog_to_arrays,
                                 load_checkpoint, metrics_from_arrays,
                                 metrics_to_arrays, report_json,
                                 reports_from_jsonable, reports_from_member,
                                 reports_member)
from ..stream.batch import (KIND_ACC_CODE, KIND_JOB_CODE, KIND_PUB_CODE,
                            BatchRun, EventBatch)
from ..traces.schema import PublicationRecord
from .metrics import MetricsHistory, tail_stats
from .ring import HashRing

__all__ = ["TenantSpec", "Tenant", "MultiTenantService", "POLICY_KINDS"]

#: Policy kinds a tenant spec can name.
POLICY_KINDS = ("flt", "flt-target", "activedr", "value", "cache")


@dataclass(frozen=True)
class TenantSpec:
    """The declarative identity of one tenant: policy kind + knobs.

    A spec is everything needed (plus workspace-derived context such as
    the job-residency index for ``cache``) to rebuild the tenant's
    policy object -- which is why checkpoints store specs, not policies.
    """

    name: str
    policy: str = "activedr"
    lifetime_days: float = 90.0
    target: float = 0.5
    purge_trigger_days: int = 7
    period_days: float = 7.0

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in ",=|\n"):
            raise ValueError(f"bad tenant name {self.name!r}: must be "
                             f"non-empty without ',', '=', '|' or newlines")
        if self.policy not in POLICY_KINDS:
            raise ValueError(f"unknown tenant policy {self.policy!r} "
                             f"(expected one of {POLICY_KINDS})")

    def retention_config(self) -> RetentionConfig:
        return RetentionConfig(
            lifetime_days=self.lifetime_days,
            purge_target_utilization=self.target,
            purge_trigger_days=self.purge_trigger_days,
            activeness=ActivenessParams(period_days=self.period_days))

    def build_policy(self, *, residency=None) -> RetentionPolicy:
        """Instantiate the live policy object this spec describes.

        ``residency`` (a :class:`~repro.core.JobResidencyIndex`) is
        required for ``cache`` tenants and ignored by the rest.
        """
        return build_policy(self.policy.removesuffix("-target"),
                            self.retention_config(),
                            enforce_target=self.policy == "flt-target",
                            residency=residency)

    # -- serialization -------------------------------------------------

    def to_jsonable(self) -> dict:
        return {"name": self.name, "policy": self.policy,
                "lifetime_days": self.lifetime_days, "target": self.target,
                "purge_trigger_days": self.purge_trigger_days,
                "period_days": self.period_days}

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "TenantSpec":
        return cls(name=data["name"], policy=data["policy"],
                   lifetime_days=float(data["lifetime_days"]),
                   target=float(data["target"]),
                   purge_trigger_days=int(data["purge_trigger_days"]),
                   period_days=float(data["period_days"]))

    @classmethod
    def parse(cls, text: str) -> "TenantSpec":
        """Parse the CLI spelling: ``name=t1,policy=activedr,lifetime=90``.

        Keys: ``name`` (required), ``policy``, ``lifetime``, ``target``,
        ``trigger`` (purge-trigger days), ``period`` (activeness period
        days).  Unknown keys are an error, not a silent default.
        """
        fields: dict = {}
        keys = {"name": ("name", str), "policy": ("policy", str),
                "lifetime": ("lifetime_days", float),
                "target": ("target", float),
                "trigger": ("purge_trigger_days", int),
                "period": ("period_days", float)}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep or key not in keys:
                raise ValueError(
                    f"bad tenant spec field {part!r} (expected "
                    f"key=value with key in {sorted(keys)})")
            attr, cast = keys[key]
            fields[attr] = cast(value)
        if "name" not in fields:
            raise ValueError(f"tenant spec {text!r} needs a name=<id> field")
        return cls(**fields)


class Tenant(PolicyReplay):
    """One policy's replay inside the multi-tenant engine, plus the
    tenant's spec, admission boundary and trigger statistics."""

    #: ``stats`` of a tenant that has not triggered yet.
    NO_STATS = {"triggers": 0, "trigger_seconds": 0.0, "purged_bytes": 0,
                "purged_files": 0, "target_misses": 0}

    def __init__(self, spec: TenantSpec, policy: RetentionPolicy,
                 state: ReplayState, n_days: int) -> None:
        super().__init__(TriggerEngine(policy), state, n_days)
        self.spec = spec
        self.admitted_boundary = 0
        self.stats = dict(self.NO_STATS)
        #: Recent per-trigger wall seconds (forensic tail-latency window
        #: for ``admin metrics``; not checkpointed -- ``stats`` stays
        #: JSON-able).  Change it through :meth:`note_trigger_latency`
        #: and :meth:`clear_trigger_latency`, which count the changes
        #: :attr:`trigger_latency` caches against.
        self.trigger_latency_log: deque = deque(maxlen=512)
        self._latency_changes = 0
        self._latency_tails = (0, tail_stats(()))

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def reports(self) -> list[RetentionReport]:
        return self._reports

    @reports.setter
    def reports(self, reports: list[RetentionReport]) -> None:
        # A replaced list (resume, reset_measurements) restarts the
        # cache of encoded reports.
        self._reports = reports
        self._report_texts: list[str] = []

    def encoded_reports(self) -> np.ndarray:
        """The checkpoint member holding this tenant's reports.

        Each report's JSON text is kept once encoded, so a link encodes
        only the reports made since the previous one.
        """
        texts = self._report_texts
        texts.extend(map(report_json, self._reports[len(texts):]))
        return reports_member(texts)

    @property
    def trigger_latency(self) -> dict:
        """``tail_stats`` of :attr:`trigger_latency_log`, computed on the
        first read after the window changed, not at every read (the
        engine samples every boundary; the window changes only at this
        tenant's triggers) nor at a change nobody reads.

        Only the engine thread changes the window.  An admin-thread read
        labels what it computes with the change count it saw *before*
        taking the window, so a result the engine overtakes is
        recomputed by the next read, never kept.
        """
        changes = self._latency_changes
        seen, tails = self._latency_tails
        if seen != changes:
            tails = tail_stats(self.trigger_latency_log)
            self._latency_tails = (changes, tails)
        return tails

    def note_trigger_latency(self, seconds: float) -> None:
        self.trigger_latency_log.append(seconds)
        self._latency_changes += 1

    def clear_trigger_latency(self) -> None:
        self.trigger_latency_log.clear()
        self._latency_changes += 1

    @property
    def params(self) -> ActivenessParams:
        return self.policy.config.activeness

    @property
    def params_key(self) -> tuple:
        p = self.params
        return (p.period_days, p.empty_period, p.epsilon, p.max_periods)

    def gauges(self) -> dict:
        """This tenant's share of :meth:`MultiTenantService.gauges`:
        triggers, live files and bytes, utilization, purge totals, target
        misses, trigger-latency tails and, once it has triggered, whether
        its newest trigger met the purge target."""
        stats, state = self.stats, self.state
        live_bytes = state.total_bytes
        capacity = state.capacity_bytes
        out = {
            "triggers": stats["triggers"],
            "live_files": state.file_count,
            "live_bytes": live_bytes,
            "utilization": (live_bytes / capacity) if capacity else 0.0,
            "purged_bytes": stats["purged_bytes"],
            "purged_files": stats["purged_files"],
            "target_misses": stats["target_misses"],
            "trigger_latency": dict(self.trigger_latency),
        }
        reports = self.reports
        if reports:
            out["target_met"] = bool(reports[-1].target_met)
        return out

    def describe(self) -> dict:
        return {
            "spec": self.spec.to_jsonable(),
            "policy": self.policy.name,
            "admitted_boundary": self.admitted_boundary,
            "reports": len(self.reports),
            **self.gauges(),
        }


class MultiTenantService:
    """Streaming retention for a fleet of policies over one event feed.

    ``tenants`` is a sequence of ``(TenantSpec, RetentionPolicy)`` pairs
    (build policies with :meth:`TenantSpec.build_policy`).
    ``policy_factory`` builds policies for tenants added at runtime (it
    receives the new tenant's spec); without one, runtime adds are
    refused.  Accesses outside ``replay_start .. replay_end`` are counted
    and dropped, as batch compilation does; activity never is.  With a
    checkpoint directory a link is written after each trigger boundary
    whose day is a multiple of ``checkpoint_every_days``.

    ``shard=(name, ring)`` makes the service a shard worker owning the
    users the :class:`~repro.server.ring.HashRing` gives ``name``: it
    keeps only those of ``known_uids``, classifies only those (the
    router duplicates a publication to every co-author's shard, so
    foreign authors acquire activity here), stamps ``{"shard": {"name",
    "ring"}}`` on every link, and can be split (:meth:`request_split`).
    It takes ``snapshot_fs`` as given, so the caller loads only the
    slice's files (``load_filesystem(uid_filter=...)``): the slice's
    usage, frozen when that file system is loaded, is the worker's
    capacity.
    """

    def __init__(self, tenants: Sequence[tuple[TenantSpec, RetentionPolicy]],
                 *,
                 snapshot_fs: VirtualFileSystem | None = None,
                 replay_start: int, replay_end: int,
                 capacity_bytes: int | None = None,
                 config: EmulatorConfig | None = None,
                 exemptions: ExemptionList | None = None,
                 known_uids: Iterable[int] = (),
                 checkpoint_dir: str | None = None,
                 checkpoint_every_days: int = 7,
                 checkpoint_retain: int = 3,
                 checkpoint_manager: CheckpointManager | None = None,
                 policy_factory: Callable[[TenantSpec],
                                          RetentionPolicy] | None = None,
                 metrics_history: MetricsHistory | None = None,
                 wall: Callable[[], float] = time.time,
                 shard: tuple[str, HashRing] | None = None,
                 ) -> None:
        if replay_end <= replay_start:
            raise ValueError("replay_end must exceed replay_start")
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [spec.name for spec, _policy in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")

        self.config = config or EmulatorConfig()
        self.exemptions = exemptions
        self.known_uids = [int(u) for u in known_uids]
        if shard is not None:
            name, ring = shard
            if name not in ring.shards:
                raise ValueError(f"shard {name!r} is not in the ring "
                                 f"({ring.shards})")
            uids = np.asarray(self.known_uids, dtype=np.int64)
            self.known_uids = uids[ring.member_mask(name, uids)].tolist()
        self.shard = shard
        self.policy_factory = policy_factory

        self.replay_start = int(replay_start)
        self.replay_end = int(replay_end)
        self.n_days = -(-(self.replay_end - self.replay_start) // DAY_SECONDS)
        self.window_end = self.replay_start + self.n_days * DAY_SECONDS

        if capacity_bytes is None:
            capacity_bytes = (snapshot_fs.capacity_bytes
                              if snapshot_fs is not None else 0)
        self.capacity_bytes = int(capacity_bytes)

        self.catalog = PathCatalog()
        self.activity = ColumnarActivityStore()
        self.tenants: list[Tenant] = [
            Tenant(spec, policy, ReplayState(self.capacity_bytes),
                   self.n_days)
            for spec, policy in tenants]

        self._next_boundary = 0
        self._consumed = 0
        self.dropped_accesses = 0
        #: Optional hook ``consumed -> dict`` supplying an ``ingest``
        #: section for every checkpoint manifest (the networked stream
        #: wires its SequenceLedger snapshot here, making per-source
        #: producer cursors durable across kill -9 + resume).
        self.ingest_snapshot: Callable[[int], dict] | None = None
        #: The ``ingest`` section of the manifest this service was
        #: resumed from (None on a fresh service or an old checkpoint;
        #: empty cursors for a seeded rebalance clone): the CLI seeds
        #: the listener's initial cursors from it.
        self.resumed_ingest: dict | None = None
        #: The newest *durable* per-source ingest cursors -- what the
        #: last checkpoint on our own chain recorded.  A shard router
        #: polls this (via ``admin health``) to trim its resend-retention
        #: lanes: rows at or below these cursors survive a kill -9.
        self.last_durable_ingest: dict | None = None
        #: The current day's in-window accesses as column slices
        #: ``(pid, uid, ts, op)``, concatenated when the day flushes.
        self._day_buf: list[tuple[np.ndarray, ...]] = []
        #: The catalog's exemption flags, extended as paths intern.
        self._exempt_flags: np.ndarray | None = None

        # Runtime tenant ops, enqueued by the admin thread and applied
        # at the next boundary (deque appends/pops are atomic).
        self._pending_ops: deque = deque()
        self.op_log: list[dict] = []
        # (at_boundary, dest_dir) of the newest applied shard split:
        # the fleet re-issues the split request when the donor respawns
        # mid-rebalance, and a re-issue racing the original ack can
        # queue the op twice -- the duplicate must be a no-op.
        self._last_applied_split: tuple | None = None

        if checkpoint_manager is not None:
            self.checkpoints: CheckpointManager | None = checkpoint_manager
        else:
            self.checkpoints = (
                CheckpointManager(checkpoint_dir, retain=checkpoint_retain)
                if checkpoint_dir else None)
        self.checkpoint_every_days = int(checkpoint_every_days)

        self.stats = {
            "events_job": 0, "events_publication": 0, "events_access": 0,
            "activeness_evals": 0, "eval_users": 0, "eval_refolded": 0,
            "checkpoints_written": 0, "checkpoint_failures": 0,
        }
        self.last_checkpoint_error: str | None = None
        #: params_key -> (t_c, table) of the newest evaluation, kept for
        #: the admin plane's ``query user`` and ``activity_summary``.
        self._last_eval: dict[tuple, tuple[int, ActivenessTable]] = {}

        #: The observability plane's sample store: one sample appended at
        #: every day boundary.  ``sample_extra`` (``serve`` sets the
        #: stream's ``gauges``) supplies each sample's ``stream`` section.
        self.metrics_history = metrics_history
        self.sample_extra: Callable[[], dict] | None = None
        self.last_metrics_error: str | None = None
        self._wall = wall
        # (wall stamp, path) of the newest checkpoint *we* wrote; both
        # sides of checkpoint_age() then read the same clock source.
        self._last_checkpoint_wall: float | None = None
        self._last_checkpoint_path: str | None = None

        if snapshot_fs is not None:
            self.load_snapshot(snapshot_fs)

    # ------------------------------------------------------------------
    # construction helpers

    def load_snapshot(self, fs: VirtualFileSystem) -> None:
        """Intern the initial file system once; give each tenant a copy."""
        files = [(self.catalog.intern(path, snap_size=meta.size), meta)
                 for path, meta in fs.iter_files()]
        state = ReplayState(self.capacity_bytes)
        state.ensure(self.catalog.n_paths)
        for pid, meta in files:
            state.add_file(pid, meta.size, meta.atime, meta.uid)
        for tenant in self.tenants:
            tenant.state = state.copy()

    def tenant(self, name: str) -> Tenant | None:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        return None

    # ------------------------------------------------------------------
    # runtime tenant ops (admin thread -> boundary application)

    def request_add_tenant(self, spec: TenantSpec,
                           clone_from: str | None = None) -> None:
        """Enqueue a tenant addition, applied at the next day boundary.

        The new tenant clones the replay state of ``clone_from`` (the
        first tenant when omitted) -- its scratch as that tenant has
        retained it -- and participates in flushes and triggers from the
        admission boundary on.
        """
        self._pending_ops.append(("add", spec, clone_from))

    def request_remove_tenant(self, name: str) -> None:
        """Enqueue a tenant removal, applied at the next day boundary."""
        self._pending_ops.append(("remove", name, None))

    def request_split(self, *, at_boundary: int, dest_dir: str,
                      ring: HashRing, new_shard: str) -> None:
        """Enqueue a shard split, applied exactly at ``at_boundary``.

        ``ring`` is the post-split ring, giving some of this shard's
        users to ``new_shard``.  At that boundary -- after the previous
        day's flush, before the boundary's own triggers, with the engine
        quiescent -- the full service state is checkpointed into
        ``dest_dir`` (the new worker's chain, stamped with the new
        shard's section and ``shard_seed_pending``), then this service
        narrows itself to the users ``ring`` leaves it and adopts
        ``ring``.  The seeded worker resumes the clone with
        ``next_boundary == at_boundary``, so it re-fires the boundary's
        triggers for *its* users while the donor's cover only the kept
        ones: every user triggers exactly once.

        Raises ``ValueError``, on the caller's (admin) thread, unless
        this is a shard worker, ``dest_dir`` is a non-empty path, the
        boundary has neither passed nor left the window, and ``ring``
        holds both shards.
        """
        if self.shard is None:
            raise ValueError("this service is not a shard worker")
        if not isinstance(dest_dir, str) or not dest_dir:
            raise ValueError(f"dest_dir must be a non-empty path, not "
                             f"{dest_dir!r}")
        name = self.shard[0]
        boundary = int(at_boundary)
        if boundary < self.next_boundary:
            raise ValueError(f"boundary {boundary} already passed (next is "
                             f"{self.next_boundary})")
        if boundary >= self.n_days:
            raise ValueError(f"boundary {boundary} is past the "
                             f"{self.n_days}-day window")
        if name not in ring.shards or new_shard not in ring.shards:
            raise ValueError("post-split ring must contain both the donor "
                             "and the new shard")
        self._pending_ops.append(("split", {
            "at_boundary": boundary, "dest_dir": dest_dir,
            "ring": ring, "new_shard": new_shard}, None))

    def _apply_pending_ops(self, boundary: int) -> None:
        deferred = []
        while True:
            try:
                op, arg, extra = self._pending_ops.popleft()
            except IndexError:
                break
            if (op == "split" and arg["at_boundary"] > boundary):
                deferred.append((op, arg, extra))
                continue
            entry = {"op": op, "boundary": boundary, "ok": False}
            try:
                if op == "add":
                    spec: TenantSpec = arg
                    entry["tenant"] = spec.name
                    self._apply_add(spec, extra, boundary)
                elif op == "split":
                    entry["dest"] = arg["dest_dir"]
                    if arg["at_boundary"] < boundary:
                        raise ValueError(
                            f"split scheduled for boundary "
                            f"{arg['at_boundary']} but the engine is "
                            f"already at {boundary}")
                    self._apply_split(arg)
                else:
                    entry["tenant"] = arg
                    self._apply_remove(arg)
                entry["ok"] = True
            except (ValueError, OSError) as exc:
                entry["error"] = str(exc)
            self.op_log.append(entry)
        # Ops scheduled for a later boundary wait their turn (order
        # within the queue is preserved).
        for item in reversed(deferred):
            self._pending_ops.appendleft(item)

    def _apply_split(self, payload: Mapping) -> None:
        key = (payload["at_boundary"], payload["dest_dir"])
        if key == self._last_applied_split:
            # Duplicate of a split this incarnation already applied
            # (fleet re-issue racing the original ack).  Applying it
            # again would clone the already-narrowed donor state over
            # the seed checkpoint in ``dest_dir``.
            return
        name = self.shard[0]
        ring: HashRing = payload["ring"]
        self.save_checkpoint(
            manager=CheckpointManager(payload["dest_dir"]),
            extra={"shard": {"name": payload["new_shard"],
                             "ring": ring.to_jsonable()},
                   "shard_seed_pending": True})
        self.restrict_users(lambda uids: ring.member_mask(name, uids))
        # From this boundary on the donor classifies, and stamps its own
        # links, under the post-split ring: a donor crash after the
        # split resumes with post-split ownership.
        self.shard = (name, ring)
        self._last_applied_split = key

    # ------------------------------------------------------------------
    # shard restriction (rebalance donor / seeded worker)

    def restrict_users(self, keep_mask) -> dict:
        """Narrow this service, in place, to the users ``keep_mask`` keeps.

        ``keep_mask`` maps an int64 uid array to a boolean keep mask.
        Live files owned by shed users are dropped from every tenant's
        replay state (with byte/count fixups), their activity histories
        are removed, classifications are filtered, and cached
        evaluations are invalidated.  Returns drop counters
        (``dropped_users``: distinct users whose activity was dropped).
        """
        uids = np.asarray(self.known_uids, dtype=np.int64)
        if uids.size:
            kept = uids[np.asarray(keep_mask(uids), dtype=bool)]
            self.known_uids = [int(u) for u in kept.tolist()]
        dropped_users = self.activity.restrict_users(keep_mask)
        dropped_files = dropped_bytes = 0
        for tenant in self.tenants:
            state = tenant.state
            if state.n_paths:
                keep = np.asarray(keep_mask(state.owner), dtype=bool)
                drop = state.live & ~keep
                n_drop = int(np.count_nonzero(drop))
                if n_drop:
                    bytes_drop = int(state.size[drop].sum())
                    state.live[drop] = False
                    state.total_bytes -= bytes_drop
                    state.file_count -= n_drop
                    dropped_files += n_drop
                    dropped_bytes += bytes_drop
            tenant.lookup = tenant.lookup.restricted(keep_mask)
        self._last_eval.clear()
        return {"dropped_users": dropped_users,
                "dropped_files": dropped_files,
                "dropped_bytes": dropped_bytes}

    def reset_measurements(self) -> None:
        """Zero every *additive* measurement (seeded-worker admission).

        A worker seeded from a donor's rebalance clone inherits the
        donor's metrics, reports and purge totals -- all of which the
        donor keeps reporting.  The fleet merge sums per-shard
        contributions, so the newcomer must start its own ledgers at
        zero and contribute only what happens from the cut boundary on.
        """
        for tenant in self.tenants:
            tenant.metrics = DailyMetrics(self.n_days)
            tenant.reports = []
            tenant.group_count_history = []
            tenant.clear_trigger_latency()
            tenant.stats = dict(Tenant.NO_STATS)
        self.dropped_accesses = 0

    def _apply_add(self, spec: TenantSpec, clone_from: str | None,
                   boundary: int) -> None:
        if self.tenant(spec.name) is not None:
            raise ValueError(f"tenant {spec.name!r} already exists")
        if self.policy_factory is None:
            raise ValueError("service has no policy factory; runtime "
                             "tenant addition is disabled")
        donor = (self.tenant(clone_from) if clone_from is not None
                 else (self.tenants[0] if self.tenants else None))
        if donor is None:
            raise ValueError(f"no donor tenant {clone_from!r} to clone")
        tenant = Tenant(spec, self.policy_factory(spec), donor.state.copy(),
                        self.n_days)
        tenant.admitted_boundary = boundary
        self.tenants.append(tenant)
        # Give the newcomer a classification immediately -- unless its
        # first trigger fires at this very boundary, which reclassifies
        # anyway (a double reclassify would double-append the group
        # history).
        if not tenant.due(boundary, self.n_days):
            t_c = self.replay_start + boundary * DAY_SECONDS
            evals = self._evaluate_for([tenant], min(t_c, self.window_end))
            tenant.classify(evals[tenant.params_key])

    def _apply_remove(self, name: str) -> None:
        tenant = self.tenant(name)
        if tenant is None:
            raise ValueError(f"no tenant {name!r}")
        if len(self.tenants) == 1:
            raise ValueError(f"cannot remove {name!r}: it is the last "
                             f"tenant")
        self.tenants.remove(tenant)

    # ------------------------------------------------------------------
    # ingestion

    def ingest_run(self, run: BatchRun) -> None:
        """Consume one merged batch run columnarly -- no per-event objects.

        The row rule is the module's boundary protocol: an in-window
        access of day ``d`` forces boundaries through ``d``, a job or
        publication at ``ts`` forces the boundaries strictly before
        ``ts``, an out-of-window access is counted and dropped, and
        counters bump only after the row's boundaries fire (a checkpoint
        inside the cascade must not count the row it has not consumed).
        Boundaries fire only at specific rows (the first in-window
        access of a not-yet-flushed day; the first job or publication
        whose timestamp passes the next pending boundary), and *between*
        two firings every observable effect of a row commutes across
        kinds -- accesses only append to the day buffers, jobs and
        publications only append to their own activity-store types, and
        the counters are sums.  So the run is cut at the exact rows that
        fire a boundary, each boundary-free span is ingested with three
        bulk per-kind appends, and the firing row's own advance call is
        issued verbatim.  The result -- boundary cascade order, buffer
        contents, pid assignment order, float fold order, the
        ``_consumed`` value any checkpoint inside a cascade observes --
        is bit-identical to applying the rule one row at a time, however
        the rows are cut into runs.
        """
        batch = run.batch
        lo, hi = run.lo, run.hi
        ts_all = batch.ts
        kinds = batch.kinds
        rs, we = self.replay_start, self.window_end
        n_days = self.n_days

        # Per-kind row positions within the run (global), their sorted
        # timestamps, and the kind-local column offset of the first one.
        if batch.single_kind:
            code = int(kinds[lo])
            full = np.arange(lo, hi, dtype=np.int64)
            empty = full[:0]
            idx_acc = full if code == KIND_ACC_CODE else empty
            idx_job = full if code == KIND_JOB_CODE else empty
            idx_pub = full if code == KIND_PUB_CODE else empty
        else:
            k = kinds[lo:hi]
            idx_acc = np.flatnonzero(k == KIND_ACC_CODE) + lo
            idx_job = np.flatnonzero(k == KIND_JOB_CODE) + lo
            idx_pub = np.flatnonzero(k == KIND_PUB_CODE) + lo
        kpos = batch.kpos()
        ts_acc = ts_all[idx_acc]
        ts_job = ts_all[idx_job]
        ts_pub = ts_all[idx_pub]
        a0 = int(kpos[idx_acc[0]]) if idx_acc.size else 0
        j0 = int(kpos[idx_job[0]]) if idx_job.size else 0
        p0 = int(kpos[idx_pub[0]]) if idx_pub.size else 0
        # The run's in-window access range: everything before aw0 is a
        # pre-window drop, everything at/after aw1 a post-window drop.
        aw0 = int(np.searchsorted(ts_acc, rs, side="left"))
        aw1 = int(np.searchsorted(ts_acc, we, side="left"))

        if idx_job.size:
            b = j0 + idx_job.size
            imp_job = (batch.job_nodes[j0:b] * batch.job_cores[j0:b]
                       * (batch.job_end[j0:b] - batch.job_start[j0:b])
                       ) / 3600.0
        if aw1 > aw0:
            # Pid assignment order is observable (purge tie-breaks,
            # checkpoint fingerprints), so new paths must be interned in
            # first-access order.  One ``np.unique`` over the run's
            # in-window accesses yields every first occurrence; the
            # spans below consume them through ``inext`` as their end
            # position passes each first occurrence, which is exactly
            # the per-event first-touch order.
            pid_map = batch.pid_map
            if pid_map is None:
                pid_map = batch.pid_map = np.full(batch.n_pool, -1,
                                                  dtype=np.int64)
            pwin = batch.acc_path[a0 + aw0:a0 + aw1]
            uniq, first = np.unique(pwin, return_index=True)
            iorder = np.argsort(first, kind="stable")
            iuniq = uniq[iorder].tolist()
            ifirst = first[iorder].tolist()
            n_uniq = len(iuniq)
            inext = 0
            pool = batch.pool()
            intern = self.catalog.intern
        stats = self.stats
        pa = pj = pp = 0  # per-kind rows already consumed
        cur = lo
        while cur < hi:
            # -- find the next row that fires a boundary ---------------
            nb = self._next_boundary
            nxt = hi
            fire_kind = -1
            if nb <= n_days:
                bt = rs + nb * DAY_SECONDS
                j = int(np.searchsorted(ts_acc, bt, side="left"))
                if j < aw1:  # in-window access with day >= nb
                    nxt = int(idx_acc[j])
                    fire_kind = KIND_ACC_CODE
                j = int(np.searchsorted(ts_job, bt, side="right"))
                if j < ts_job.size and int(idx_job[j]) < nxt:
                    nxt = int(idx_job[j])
                    fire_kind = KIND_JOB_CODE
                j = int(np.searchsorted(ts_pub, bt, side="right"))
                if j < ts_pub.size and int(idx_pub[j]) < nxt:
                    nxt = int(idx_pub[j])
                    fire_kind = KIND_PUB_CODE
            if nxt == cur:
                # The row at ``cur`` fires before it is ingested --
                # exactly the per-event advance calls, which also
                # guarantee it cannot fire again for the new boundary.
                t = int(ts_all[cur])
                if fire_kind == KIND_ACC_CODE:
                    self._advance_boundaries((t - rs) // DAY_SECONDS)
                else:
                    self._advance_boundaries_before(t)
                continue

            # -- bulk-ingest the boundary-free span [cur, nxt) ---------
            pa2 = int(np.searchsorted(idx_acc, nxt, side="left"))
            if pa2 > pa:
                stats["events_access"] += pa2 - pa
                s, e = max(pa, aw0), min(pa2, aw1)
                if e > s:
                    e_w = e - aw0
                    while inext < n_uniq and ifirst[inext] < e_w:
                        k = iuniq[inext]
                        if pid_map[k] < 0:
                            pid_map[k] = intern(pool[k])
                        inext += 1
                    self._day_buf.append((
                        pid_map[pwin[s - aw0:e_w]],
                        batch.acc_uid[a0 + s:a0 + e], ts_acc[s:e],
                        batch.acc_op[a0 + s:a0 + e]))
                else:
                    e = s
                self.dropped_accesses += (pa2 - pa) - (e - s)
                self._consumed += pa2 - pa
                pa = pa2
            pj2 = int(np.searchsorted(idx_job, nxt, side="left"))
            if pj2 > pj:
                stats["events_job"] += pj2 - pj
                self.activity.ingest_job_columns(
                    batch.job_uid[j0 + pj:j0 + pj2], ts_job[pj:pj2],
                    imp_job[pj:pj2])
                self._consumed += pj2 - pj
                pj = pj2
            pp2 = int(np.searchsorted(idx_pub, nxt, side="left"))
            if pp2 > pp:
                self._ingest_pub_run(batch, p0 + pp, p0 + pp2,
                                     ts_pub[pp:pp2])
                pp = pp2
            cur = nxt

    def _ingest_pub_run(self, batch: EventBatch, a: int, b: int,
                        ts: np.ndarray) -> None:
        """Publication rows ``[a, b)`` (kind-local) of a boundary-free
        span: rare enough to reconstruct records per row (author-rank
        scoring needs the author list anyway)."""
        off = batch.pub_auth_off
        self.activity.ingest_publications(
            PublicationRecord(int(batch.pub_id[k]), int(ts[k - a]),
                              batch.pub_auth[off[k]:off[k + 1]].tolist(),
                              int(batch.pub_cit[k]))
            for k in range(a, b))
        self.stats["events_publication"] += b - a
        self._consumed += b - a

    def run(self, runs: Iterator[BatchRun],
            stop_after_events: int | None = None,
            ) -> dict[str, EmulationResult] | None:
        """Drive the fleet from a merged run iterator (None = stopped
        early).  A stop lands exactly on ``stop_after_events``: a run
        crossing it is cut at the stop row."""
        for run in runs:
            if stop_after_events is not None:
                room = stop_after_events - self._consumed
                if room <= 0:
                    return None
                if run.n_rows > room:
                    self.ingest_run(BatchRun(run.batch, run.lo,
                                             run.lo + room))
                    return None
            self.ingest_run(run)
        return self.finalize()

    # ------------------------------------------------------------------
    # boundaries

    def _advance_boundaries(self, day: int) -> None:
        while self._next_boundary <= min(day, self.n_days):
            self._boundary(self._next_boundary)

    def _advance_boundaries_before(self, ts: int) -> None:
        while (self._next_boundary <= self.n_days
               and self.replay_start + self._next_boundary * DAY_SECONDS
               < ts):
            self._boundary(self._next_boundary)

    def _boundary(self, boundary: int) -> None:
        if boundary == 0:
            evals = self._evaluate_for(self.tenants, self.replay_start)
            for tenant in self.tenants:
                tenant.classify(evals[tenant.params_key])
        else:
            self._flush_day(boundary - 1)
        self._apply_pending_ops(boundary)
        triggered = False
        due = [t for t in self.tenants if t.due(boundary, self.n_days)]
        if due:
            t_c = self.replay_start + boundary * DAY_SECONDS
            evals = self._evaluate_for(due, t_c)
            exempt = self._exempt_flags = self.catalog.exempt_mask(
                self.exemptions, self._exempt_flags)
            for tenant in due:
                started = time.perf_counter()
                report = tenant.trigger(self.catalog, t_c,
                                        evals[tenant.params_key], exempt)
                stats = tenant.stats
                stats["triggers"] += 1
                stats["purged_bytes"] += report.purged_bytes_total
                stats["purged_files"] += report.purged_files_total
                if not report.target_met:
                    stats["target_misses"] += 1
                elapsed = time.perf_counter() - started
                stats["trigger_seconds"] += elapsed
                tenant.note_trigger_latency(elapsed)
            triggered = True
        self._next_boundary = boundary + 1
        if (triggered and self.checkpoints is not None
                and self.checkpoint_every_days > 0
                and boundary % self.checkpoint_every_days == 0):
            self._try_checkpoint()
        # Sampled after the checkpoint attempt so the chain counters in
        # the sample reflect this boundary's own write.
        self._sample_metrics(boundary)

    def _evaluate_for(self, tenants: Iterable[Tenant], t_c: int,
                      ) -> dict[tuple, ActivenessTable]:
        """One activeness fold per *distinct* parameter set at ``t_c``.

        This is where multi-tenant sharing pays: same-params tenants
        receive the same evaluation object (the batch ComparisonRunner
        shares evaluations the same way, so downstream consumers are
        known not to mutate it).
        """
        out: dict[tuple, ActivenessTable] = {}
        for tenant in tenants:
            key = tenant.params_key
            if key in out:
                continue
            result = self.activity.evaluate(t_c, tenant.params,
                                            self.known_uids)
            if self.shard is not None:
                # A shard worker classifies only the users it owns; see
                # the class doc.
                name, ring = self.shard
                result = ring.owned_filter(name)(result)
            self.stats["activeness_evals"] += 1
            self.stats["eval_users"] += self.activity.last_eval_users
            self.stats["eval_refolded"] += self.activity.last_eval_refolded
            out[key] = result
            self._last_eval[key] = (t_c, result)
        return out

    def _flush_day(self, day: int) -> None:
        """Replay the buffered day through every admitted tenant: one
        :class:`DayPlan` of the day's records, applied to each."""
        if not self._day_buf:
            return
        chunks, self._day_buf = self._day_buf, []
        cols = (chunks[0] if len(chunks) == 1
                else [np.concatenate(col) for col in zip(*chunks)])
        plan = DayPlan.build(self.config, *cols,
                             np.array([0, cols[0].size]), first_day=day)
        det_size = self.catalog.det_size
        for tenant in self.tenants:
            if day >= tenant.admitted_boundary:
                tenant.replay_day(plan, day, det_size)

    # ------------------------------------------------------------------
    # observability sampling

    def gauges(self) -> dict:
        """The engine's observable state in one read.

        The cursor and next boundary, the event, evaluation and
        checkpoint counters with the refold fraction, and per tenant
        :meth:`Tenant.gauges`.  Every reader renders this dict: the
        boundary sample, ``/metrics``, ``admin metrics`` and the tenant
        entries of ``admin tenants``/``status``.  Point-in-time reads
        only, so the admin thread may call it during ingest.
        """
        stats = self.stats
        eval_users = stats["eval_users"]
        return {
            "cursor": self._consumed,
            "next_boundary": self._next_boundary,
            "events_job": stats["events_job"],
            "events_publication": stats["events_publication"],
            "events_access": stats["events_access"],
            "dropped_accesses": self.dropped_accesses,
            "activeness_evals": stats["activeness_evals"],
            "eval_users": eval_users,
            "eval_refolded": stats["eval_refolded"],
            "refold_fraction": (stats["eval_refolded"] / eval_users
                                if eval_users else 0.0),
            "checkpoints_written": stats["checkpoints_written"],
            "checkpoint_failures": stats["checkpoint_failures"],
            # list() snapshot: the engine adds/removes tenants at a
            # boundary while the admin thread reads.
            "tenants": {t.name: t.gauges() for t in list(self.tenants)},
        }

    def _sample_metrics(self, boundary: int) -> None:
        """Append ``{"boundary": B, **gauges()}`` plus each tenant's
        linear days-to-capacity forecast against the previous sample,
        the exempt path count and ``sample_extra``'s ``stream`` section.
        A failed append never stops the engine (evidence, not state)."""
        history = self.metrics_history
        if history is None:
            return
        sample = {"boundary": boundary, **self.gauges()}
        prev = history.last() or {}
        prev_boundary = prev.get("boundary")
        capacity = self.capacity_bytes
        if (capacity and isinstance(prev_boundary, int)
                and boundary > prev_boundary):
            prev_tenants = prev.get("tenants") or {}
            for name, info in sample["tenants"].items():
                prev_info, live = prev_tenants.get(name), info["live_bytes"]
                growth = ((live - prev_info.get("live_bytes", live))
                          / (boundary - prev_boundary)) if prev_info else 0
                if growth > 0:
                    info["forecast_days_to_capacity"] = max(
                        0.0, (capacity - live) / growth)
        if self.exemptions is not None:
            self._exempt_flags = self.catalog.exempt_mask(
                self.exemptions, self._exempt_flags)
            sample["exempt_paths"] = int(np.count_nonzero(
                self._exempt_flags))
        if self.sample_extra is not None:
            sample["stream"] = self.sample_extra()
        try:
            history.append(sample)
        except (OSError, ValueError) as exc:
            self.last_metrics_error = f"{type(exc).__name__}: {exc}"

    def activity_summary(self) -> dict:
        """Rank distributions + class counts for the dashboard/admin.

        Per distinct activeness parameter set: user count, active counts
        and percentiles of the operation/outcome ranks from the newest
        evaluation.  Per tenant: the latest classification's group
        counts.  Point-in-time reads only (admin-thread safe).
        """
        def linear(log_rank: np.ndarray, has: np.ndarray) -> np.ndarray:
            # UserActiveness.op_rank / oc_rank, element by element.
            return np.fromiter(
                (safe_exp(x) if h else 0.0
                 for x, h in zip(log_rank.tolist(), has.tolist())),
                np.float64, log_rank.size)

        out: dict = {"params": {}, "tenants": {}}
        for key, (t_c, table) in list(self._last_eval.items()):
            op = linear(table.log_op, table.has_op)
            oc = linear(table.log_oc, table.has_oc)
            entry: dict = {
                "period_days": key[0],
                "evaluated_at": t_c,
                "users": int(op.size),
                "op_active": int(np.count_nonzero(op >= 1.0)),
                "oc_active": int(np.count_nonzero(oc >= 1.0)),
            }
            if op.size:
                qs = (10.0, 25.0, 50.0, 75.0, 90.0, 99.0)
                entry["op_rank_percentiles"] = {
                    f"p{int(q)}": float(v)
                    for q, v in zip(qs, np.percentile(op, qs))}
                entry["oc_rank_percentiles"] = {
                    f"p{int(q)}": float(v)
                    for q, v in zip(qs, np.percentile(oc, qs))}
            out["params"][f"period={key[0]:g}"] = entry
        for tenant in list(self.tenants):
            history = tenant.group_count_history
            counts = history[-1] if history else {}
            out["tenants"][tenant.name] = {
                "classes": {cls.label: int(n)
                            for cls, n in counts.items()},
                "triggers": tenant.stats["triggers"],
            }
        return out

    # ------------------------------------------------------------------
    # completion

    def finalize(self) -> dict[str, EmulationResult]:
        """Flush the remaining boundaries; one result per tenant.

        Each result is bit-identical to ``FastEmulator.run`` of that
        tenant's policy alone over the same dataset.
        """
        self._advance_boundaries(self.n_days)
        out = {tenant.name: tenant.result() for tenant in self.tenants}
        if self.checkpoints is not None:
            self._try_checkpoint()
        return out

    # ------------------------------------------------------------------
    # checkpoint / resume

    @staticmethod
    def _fingerprint_of(tenant: Tenant, config: EmulatorConfig) -> dict:
        cfg = tenant.policy.config
        p = tenant.params
        return {
            "policy": tenant.policy.name,
            "lifetime_days": cfg.lifetime_days,
            "purge_trigger_days": cfg.purge_trigger_days,
            "period_days": p.period_days,
            "empty_period": p.empty_period,
            "epsilon": p.epsilon,
            "max_periods": p.max_periods,
            "apply_creates": config.apply_creates,
            "restore_on_miss": config.restore_on_miss,
        }

    def _try_checkpoint(self) -> str | None:
        try:
            return self.save_checkpoint()
        except OSError as exc:
            self.stats["checkpoint_failures"] += 1
            self.last_checkpoint_error = f"{type(exc).__name__}: {exc}"
            return None

    def save_checkpoint(self, *, manager: CheckpointManager | None = None,
                        extra: Mapping | None = None) -> str:
        """One atomic link holding every tenant; returns the path.

        Shared arrays (catalog, activeness history) are stored once;
        per-tenant arrays live under a ``t<i>__`` prefix.  Pending
        runtime ops are *not* checkpointed -- they are in-flight admin
        requests, and the admin client re-issues on reconnect.

        ``manager`` redirects the write to a foreign chain (the
        rebalance clone into a new worker's directory) without touching
        this service's own chain bookkeeping; ``extra`` merges extra
        manifest keys on top of the ``shard`` section a shard worker
        writes.
        """
        own_chain = manager is None
        manager = self.checkpoints if manager is None else manager
        if manager is None:
            raise ValueError("service has no checkpoint directory")
        if self._day_buf:
            raise ValueError("cannot checkpoint with a partial day buffered")
        act_table, act_arrays = activeness_to_arrays(
            self.activity.snapshot_state())
        manifest = {
            "format": SERVER_CHECKPOINT_FORMAT,
            "cursor": self._consumed,
            "next_boundary": self._next_boundary,
            "n_days": self.n_days,
            "replay_start": self.replay_start,
            "replay_end": self.replay_end,
            "capacity_bytes": self.capacity_bytes,
            "dropped_accesses": self.dropped_accesses,
            "known_uids": self.known_uids,
            "activity_types": act_table,
            "stats": {k: v for k, v in self.stats.items()},
            "tenants": [],
        }
        if self.ingest_snapshot is not None:
            # Per-source producer cursors at exactly this consumed
            # count: a resumed server hands them to its listener so
            # reconnecting producers resume mid-stream instead of
            # replaying (exactly-once across kill -9).
            manifest["ingest"] = self.ingest_snapshot(self._consumed)
        if self.shard is not None:
            name, ring = self.shard
            manifest["shard"] = {"name": name, "ring": ring.to_jsonable()}
        if extra:
            manifest.update(extra)
        arrays = catalog_to_arrays(self.catalog)
        arrays.update(act_arrays)
        for i, tenant in enumerate(self.tenants):
            manifest["tenants"].append({
                "name": tenant.name,
                "spec": tenant.spec.to_jsonable(),
                "fingerprint": self._fingerprint_of(tenant, self.config),
                "stats": dict(tenant.stats),
                "admitted_boundary": tenant.admitted_boundary,
                "total_bytes": tenant.state.total_bytes,
                "file_count": tenant.state.file_count,
            })
            ghist = np.zeros((len(tenant.group_count_history), 4),
                             dtype=np.int64)
            for row, counts in enumerate(tenant.group_count_history):
                ghist[row] = [counts[cls] for cls in counts]
            prefix = f"t{i}__"
            # Views, not copies: the write is synchronous.
            for name in ReplayState.COLUMNS:
                arrays[prefix + name] = getattr(tenant.state, name)
            arrays[prefix + "class_uids"] = tenant.lookup.uids
            arrays[prefix + "class_codes"] = tenant.lookup.class_codes
            arrays[prefix + "group_count_history"] = ghist
            arrays[prefix + "reports"] = tenant.encoded_reports()
            for key, value in metrics_to_arrays(tenant.metrics).items():
                arrays[prefix + key] = value
        path = manager.save(manifest, arrays)
        if own_chain:
            self.stats["checkpoints_written"] += 1
            self._last_checkpoint_wall = self._wall()
            self._last_checkpoint_path = path
            self.last_durable_ingest = manifest.get("ingest")
        return path

    @property
    def cursor(self) -> int:
        """Merged events fully consumed so far (the resume cursor)."""
        return self._consumed

    @property
    def next_boundary(self) -> int:
        """The next day boundary the engine will fire (0..n_days+1)."""
        return self._next_boundary

    def checkpoint_age(self) -> float | None:
        """Seconds since the newest checkpoint link, clamped at >= 0.

        For links written by this process both the stamp and *now* come
        from the same injectable ``wall`` source, so an injected clock
        can never produce a negative age.  For links inherited from a
        dead incarnation the file mtime is the only evidence; the clamp
        still guarantees non-negative output if the filesystem clock
        disagrees with ours.
        """
        manager = self.checkpoints
        if manager is None:
            return None
        newest = manager.latest()
        if newest is None:
            return None
        if (newest == self._last_checkpoint_path
                and self._last_checkpoint_wall is not None):
            return max(0.0, self._wall() - self._last_checkpoint_wall)
        try:
            mtime = os.path.getmtime(newest)
        except OSError:
            return None
        return max(0.0, self._wall() - mtime)

    @classmethod
    def resume(cls, checkpoint_path: str, *,
               policy_factory: Callable[[TenantSpec], RetentionPolicy],
               loaded: tuple[dict, Mapping[str, np.ndarray]] | None = None,
               config: EmulatorConfig | None = None,
               exemptions: ExemptionList | None = None,
               checkpoint_dir: str | None = None,
               checkpoint_every_days: int = 7,
               checkpoint_retain: int = 3,
               checkpoint_manager: CheckpointManager | None = None,
               metrics_history: MetricsHistory | None = None,
               wall: Callable[[], float] = time.time,
               ) -> "MultiTenantService":
        """Rebuild the whole fleet from one checkpoint link.

        ``policy_factory`` turns each stored :class:`TenantSpec` back
        into a live policy (supplying workspace-derived context such as
        the job-residency index); the stored per-tenant fingerprints
        cross-check the rebuilt policies and refuse any drift.  Feed the
        resumed service ``skip_stream_items(stream, service.cursor)`` of
        the original deterministic merge to continue bit-identically.
        Any other checkpoint format -- including the
        ``repro-stream-checkpoint/*`` chains of the retired single-policy
        engine -- is refused with a ``ValueError`` naming it.
        ``loaded`` is the link's verified ``(manifest, arrays)`` when the
        caller has already read it (:meth:`CheckpointManager.load_newest`);
        without it the link is loaded and verified here.

        A link with a ``shard`` section resumes a shard worker on that
        section's name and ring, the ring it last classified under (a
        donor's post-split ring, say).  A rebalance clone
        (``shard_seed_pending``) is seeded here -- see :meth:`_seed`.
        """
        manifest, arrays = (loaded if loaded is not None
                            else load_checkpoint(checkpoint_path))
        if not str(manifest.get("format")).startswith(
                "repro-server-checkpoint/"):
            raise ValueError(
                f"{checkpoint_path} is a {manifest.get('format')!r} "
                f"checkpoint, not a multi-tenant server checkpoint "
                f"(expected {SERVER_CHECKPOINT_FORMAT!r})")
        section = manifest.get("shard")
        shard = (None if section is None else
                 (section["name"], HashRing.from_jsonable(section["ring"])))
        seed = bool(manifest.get("shard_seed_pending"))
        if seed and section is None:
            raise ValueError(f"{checkpoint_path} is a rebalance clone "
                             f"without a shard section")
        specs = [TenantSpec.from_jsonable(t["spec"])
                 for t in manifest["tenants"]]
        pairs = [(spec, policy_factory(spec)) for spec in specs]
        service = cls(pairs,
                      replay_start=manifest["replay_start"],
                      replay_end=manifest["replay_end"],
                      capacity_bytes=manifest["capacity_bytes"],
                      config=config, exemptions=exemptions,
                      known_uids=manifest["known_uids"],
                      checkpoint_dir=checkpoint_dir,
                      checkpoint_every_days=checkpoint_every_days,
                      checkpoint_retain=checkpoint_retain,
                      checkpoint_manager=checkpoint_manager,
                      policy_factory=policy_factory,
                      metrics_history=metrics_history, wall=wall,
                      shard=shard)

        service.catalog = catalog_from_arrays(arrays)
        n = service.catalog.n_paths
        for i, (tenant, stored) in enumerate(zip(service.tenants,
                                                 manifest["tenants"])):
            fingerprint = cls._fingerprint_of(tenant, service.config)
            if stored["fingerprint"] != fingerprint:
                diff = {k: (stored["fingerprint"].get(k), fingerprint.get(k))
                        for k in set(stored["fingerprint"]) | set(fingerprint)
                        if stored["fingerprint"].get(k)
                        != fingerprint.get(k)}
                raise ValueError(
                    f"tenant {tenant.name!r}: checkpoint fingerprint "
                    f"mismatch (stored vs rebuilt): {diff}")
            prefix = f"t{i}__"
            tenant.state.ensure(n)
            for name in ReplayState.COLUMNS:
                getattr(tenant.state, name)[:] = arrays[prefix + name]
            tenant.state.total_bytes = int(stored["total_bytes"])
            tenant.state.file_count = int(stored["file_count"])
            tenant.metrics = metrics_from_arrays({
                key: arrays[prefix + key]
                for key in ("metrics_accesses", "metrics_misses",
                            "metrics_group_misses")})
            tenant.reports = (
                reports_from_member(arrays[prefix + "reports"])
                if prefix + "reports" in arrays
                else reports_from_jsonable(stored["reports"]))  # /2, /1
            ghist = np.asarray(arrays[prefix + "group_count_history"],
                               dtype=np.int64)
            tenant.group_count_history = [
                {cls: int(row[j]) for j, cls in enumerate(UserClass)}
                for row in ghist]
            # Sorted by uid: links written before the classification
            # became columns store it in evaluation order.
            uids = np.asarray(arrays[prefix + "class_uids"], dtype=np.int64)
            order = np.argsort(uids, kind="stable")
            tenant.lookup = GroupLookup(uids[order], np.asarray(
                arrays[prefix + "class_codes"], dtype=np.int64)[order])
            tenant.admitted_boundary = int(stored["admitted_boundary"])
            tenant.stats.update(stored.get("stats", {}))

        service.activity.restore_state(activeness_from_arrays(
            manifest["activity_types"], arrays))
        service._next_boundary = int(manifest["next_boundary"])
        service._consumed = int(manifest["cursor"])
        service.resumed_ingest = manifest.get("ingest")
        service.last_durable_ingest = manifest.get("ingest")
        service.dropped_accesses = int(manifest["dropped_accesses"])
        saved_stats = dict(manifest.get("stats", {}))
        saved_stats.pop("checkpoints_written", None)
        saved_stats.pop("checkpoint_failures", None)
        service.stats.update(saved_stats)
        if seed:
            service._seed()
        if metrics_history is not None:
            # History must not fork from the checkpoint chain: drop every
            # sample the rollback un-happened; the resumed engine re-fires
            # (and re-samples) boundaries from ``next_boundary`` on.
            metrics_history.rewind(service._consumed,
                                   service._next_boundary)
        return service

    def _seed(self) -> None:
        """Admit a service resumed from a donor's rebalance clone as the
        worker of its own shard: narrow the donor's state to this
        shard's users, and zero the additive measurements the donor
        keeps reporting (the fleet merge sums per-shard ledgers and
        cursors), the cursor and the event and evaluation counters
        included: this worker counts only its own rows.  The clone's
        ``ingest`` cursors are the DONOR's lane sequence domain:
        this worker's edge starts a fresh one, and it advertises no
        durable cursors (admin health -> fleet lane trim) until its
        first own link, or the donor's larger cursors would trim rows
        not durable here yet.
        """
        name, ring = self.shard
        dropped = self.restrict_users(
            lambda uids: ring.member_mask(name, uids))
        self.reset_measurements()
        self._consumed = 0
        for key in ("events_job", "events_publication", "events_access",
                    "activeness_evals", "eval_users", "eval_refolded"):
            self.stats[key] = 0
        self.last_durable_ingest = None
        self.resumed_ingest = {"source_seqs": {}}
        self.op_log.append({"op": "seed", "boundary": self._next_boundary,
                            "ok": True, "shard": name, **dropped})

    # ------------------------------------------------------------------
    # introspection (read by the admin thread; point-in-time reads only)

    def describe(self) -> dict:
        return {
            "cursor": self._consumed,
            "next_boundary": self._next_boundary,
            "n_days": self.n_days,
            "replay_start": self.replay_start,
            "replay_end": self.replay_end,
            "dropped_accesses": self.dropped_accesses,
            "stats": dict(self.stats),
            # list() snapshots: the admin thread calls this while the
            # ingest thread may add/remove tenants at a boundary.
            "tenants": {t.name: t.describe() for t in list(self.tenants)},
        }

    def query_user(self, uid: int) -> dict:
        """Activeness + per-tenant verdicts for one user (admin plane)."""
        uid = int(uid)
        out: dict = {"uid": uid, "tenants": {}}
        for tenant in list(self.tenants):
            info: dict = {}
            code = tenant.lookup.code_of(uid)
            info["class"] = (UserClass(code).label if code is not None
                             else None)
            held = self._last_eval.get(tenant.params_key)
            if held is not None:
                t_c, activeness = held
                ua = activeness.get(uid)
                if ua is not None:
                    info["evaluated_at"] = t_c
                    info["op_rank"] = ua.op_rank
                    info["oc_rank"] = ua.oc_rank
            owner = tenant.state.owner
            mask = (owner == uid) & tenant.state.live
            info["live_files"] = int(np.count_nonzero(mask))
            info["live_bytes"] = int(tenant.state.size[mask].sum())
            last = tenant.reports[-1] if tenant.reports else None
            if last is not None:
                info["scanned_last_trigger"] = any(
                    uid in g.users_scanned for g in last.groups.values())
                info["purged_last_trigger"] = any(
                    uid in g.users_purged for g in last.groups.values())
            out["tenants"][tenant.name] = info
        return out
