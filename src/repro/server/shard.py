"""Horizontally sharded fleet: router, scatter/gather, rebalance.

One :class:`~repro.server.tenants.MultiTenantService` process tops out
at a few hundred thousand events per second; the paper's target systems
(Titan's ~1,100 project owners were a *sample* of multi-million-user
centers) need horizontal room.  The unit of partitioning that keeps the
emulation exact is the **user**: classification, per-user activeness
series, and FLT purge verdicts never couple users, so a fleet of N
workers each owning a disjoint user slice reproduces the single-process
answer as a plain union -- provided routing is consistent, sequencing
survives the extra hop, and rebalances only happen at day boundaries
(the only quiescent instant of the engine).

A shard worker is the service given one argument,
``MultiTenantService(shard=(name, ring))``: the service keeps and
classifies only the users the :class:`~repro.server.ring.HashRing`
(``server/ring.py``) gives ``name``, stamps that ``shard`` section on
every link, seeds itself when resumed from a rebalance clone, and
splits itself when its :class:`~repro.server.admin.AdminServer` is
asked ``shard-split``.  Pieces, front to back:

* :class:`ShardRouter` -- a full :class:`SocketListener` front (same
  auth/TLS/sequencing/backpressure as a single server) whose sources
  are drained by pump threads instead of the merge.  Every source
  yields batches (v1 frames are batched at the edge); rows are
  classified per user (publications are duplicated to every shard
  owning a co-author; the worker's service classifies only the users
  its ring slice owns, so foreign authors stay out of that shard's
  classification) and forwarded as v2 batch frames on
  per-``(source, worker)`` :class:`ShardLane`\\ s with deterministic
  forwarded sequence numbers.
* Exactly-once across the hop: each lane retains sent items until the
  owning worker reports them *durable* (its last checkpoint's ingest
  cursors, polled off ``admin health``).  A lost connection or a
  worker kill -9 costs a reconnect and a resend of the retained tail;
  the worker's edge dedupe drops anything it already holds.
* :class:`FleetAdmin` -- one admin socket for the fleet: ``status`` /
  ``health`` / ``metrics`` / ``activity`` / ``query`` fan out to every
  worker and merge (per-shard trigger-latency and per-tenant miss
  tails stay visible per shard), ``GET /metrics`` renders a
  fleet-level Prometheus exposition with ``shard`` labels, and
  ``shards`` / ``shards-rebalance`` drive topology.
* :class:`ShardFleet` -- per-worker crash-loop
  :class:`~repro.server.supervisor.Supervisor`\\ s, the durability
  polling loop, the day-boundary rebalance protocol (gate ->
  ``shard-split`` -> ring epoch flip -> clone-seeded worker), and the
  result JSON: :func:`result_to_jsonable` on each worker and
  :func:`merge_tenant_results`, which reconstructs per-tenant
  :class:`~repro.emulation.emulator.EmulationResult`\\ s bit-identical
  to a single-process run.

Rebalance protocol (see DESIGN.md section 13 for the proof sketch):
pick a cut boundary ``B`` strictly above both the router watermark and
the donor's next boundary; **gate** donor-destined rows with
``ts >= cut`` at the router; ask the donor (admin ``shard-split``) to
clone itself into the new worker's checkpoint directory at boundary
``B`` and then restrict itself to the keys it still owns under the
post-split ring; flip the ring epoch (rows route by ``(uid, ts)``,
so replayed gated rows and everything after land on the new owner);
spawn the new worker with ``--resume`` once the clone appears.  The
clone's manifest carries ``shard_seed_pending``: ``resume`` restricts
the new worker to its own keys, resets its additive measurement
ledgers (the donor keeps the pre-cut history), and starts a fresh lane
sequence domain.
"""

from __future__ import annotations

import json
import os
import queue
import random
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..core.classification import UserClass
from ..core.report import RetentionReport
from ..emulation.emulator import EmulationResult
from ..emulation.metrics import DailyMetrics
from ..stream.batch import (KIND_ACC_CODE, KIND_JOB_CODE, KIND_PUB_CODE,
                            EventBatch)
from ..stream.checkpoint import (CheckpointManager, reports_from_jsonable,
                                 reports_to_jsonable)
from ..vfs.file_meta import DAY_SECONDS
from .admin import AdminSocket, admin_request
from .ingest import (DEFAULT_SOURCES, ProducerSession, PublishRefused,
                     SocketListener, _backoff_delays)
from .metrics import Counter, _Exposition
from .protocol import BATCH_MAX_FRAME_BYTES, FrameError
from .ring import HashRing
from .supervisor import BackoffPolicy, Supervisor

__all__ = ["ShardLane", "ShardRouter", "FleetAdmin", "ShardFleet",
           "WorkerSpec", "batch_worker_masks", "merge_tenant_results",
           "result_to_jsonable"]


# ---------------------------------------------------------------------------
# row classification


def batch_worker_masks(batch: EventBatch, ring: HashRing,
                       order: Sequence[str],
                       remap: np.ndarray | None = None) -> np.ndarray:
    """``(len(order), batch.n)`` bool matrix: which rows each worker gets.

    Jobs and accesses go to their uid's owner; a publication row is
    duplicated to *every* worker owning at least one of its authors
    (each needs the row to fold that author's outcome score).  ``remap``
    translates ring shard indices to ``order`` positions and may be
    precomputed by the caller.
    """
    n = batch.n
    masks = np.zeros((len(order), n), dtype=bool)
    if n == 0:
        return masks
    if remap is None:
        pos = {name: i for i, name in enumerate(order)}
        remap = np.asarray([pos[s] for s in ring.shards], dtype=np.int64)
    kpos = batch.kpos()
    kinds = batch.kinds
    jrows = np.flatnonzero(kinds == KIND_JOB_CODE)
    if jrows.size:
        owners = remap[ring.owner_indices(batch.job_uid)]
        masks[owners[kpos[jrows]], jrows] = True
    arows = np.flatnonzero(kinds == KIND_ACC_CODE)
    if arows.size:
        owners = remap[ring.owner_indices(batch.acc_uid)]
        masks[owners[kpos[arows]], arows] = True
    prows = np.flatnonzero(kinds == KIND_PUB_CODE)
    if prows.size:
        if batch.pub_auth.size:
            off = batch.pub_auth_off
            lens = np.diff(off)
            owners = remap[ring.owner_indices(batch.pub_auth)]
            starts = np.minimum(off[:-1], max(owners.size - 1, 0))
            k = kpos[prows]
            for wi in range(len(order)):
                seg = np.logical_or.reduceat(owners == wi, starts)
                seg[lens == 0] = False
                hit = seg[k]
                if hit.any():
                    masks[wi, prows[hit]] = True
        # An author-less publication row folds into no user's score,
        # but a single-process serve still consumes it -- route it to
        # uid 0's ring owner so fleet cursors and row counters match.
        unrouted = ~masks[:, prows].any(axis=0)
        if unrouted.any():
            fallback = int(remap[ring.owner_indices(
                np.zeros(1, dtype=np.int64))[0]])
            masks[fallback, prows[unrouted]] = True
    return masks


# ---------------------------------------------------------------------------
# lanes: one sequenced producer per (source, worker)


class ShardLane:
    """One forwarding producer: router -> one worker, one source.

    The lane owns a deterministic per-lane sequence domain: the k-th
    row routed to this worker from this source is always wire seq ``k``
    (routing is a pure function of ``(uid, ts, ring epochs)``), which
    is what lets a restarted worker's edge dedupe make the resend of
    the retained tail exactly-once.  Every item is retained before it
    is sent and stays in ``_retained`` until :meth:`trim` -- fed by the
    fleet's durability poll of the worker's checkpointed ingest cursors
    -- releases it, so a connection lost mid-send costs a reconnect and
    a resend, never the in-flight batch.  Each (re)connection is one
    :class:`~repro.server.ingest.ProducerSession`, so frames are split
    to the worker's granted cap.

    The send queue is bounded in rows, not items: :meth:`submit` blocks
    while ``queue_rows`` or more rows wait, so a lane holds at most
    ``queue_rows`` plus one batch whatever the batches' sizes -- the
    same bound for a feed of full v2 frames and for a trickle of v1
    frames the front source batched.
    """

    def __init__(self, source: str, worker: str, address: str, *,
                 frame_cap: int = BATCH_MAX_FRAME_BYTES,
                 connect_timeout: float = 10.0,
                 retry_interval: float = 0.2, retry_cap: float = 2.0,
                 queue_rows: int = 512) -> None:
        self.source = source
        self.worker = worker
        self.address = address
        self.session = f"router:{source}->{worker}"
        self.frame_cap = int(frame_cap)
        self.connect_timeout = connect_timeout
        self.retry_interval = retry_interval
        self.retry_cap = retry_cap
        self.rows_submitted = 0          # pump thread only
        self.rows_sent = Counter()
        self.rows_resent = Counter()
        self.connects = Counter()
        self.last_error: str | None = None
        self.queue_rows = int(queue_rows)
        self._queued_rows = 0
        self._room = threading.Condition()
        self._queue: queue.Queue = queue.Queue()
        self._retained: deque = deque()  # (first_seq, n_rows, item)
        self._rlock = threading.Lock()
        self._next_seq = 1
        self._end_pending = False
        self._finish_called = False
        self.end_acked = threading.Event()
        self._reopen = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lane:{source}->{worker}", daemon=True)
        self._thread.start()

    # -- pump side ------------------------------------------------------

    def submit(self, item: EventBatch, n_rows: int) -> None:
        """Enqueue one batch; blocks while ``queue_rows`` rows wait
        (backpressure flows to the front listener's queues)."""
        with self._room:
            while self._queued_rows >= self.queue_rows:
                self._room.wait()
            self._queued_rows += n_rows
        first = self._next_seq
        self._next_seq += n_rows
        self.rows_submitted += n_rows
        self._queue.put((first, n_rows, item))

    def finish(self) -> None:
        """No more rows will ever be submitted; send ``end``."""
        if self._finish_called:
            return
        self._finish_called = True
        self._queue.put(None)

    # -- fleet side -----------------------------------------------------

    def trim(self, durable_seq: int) -> int:
        """Drop retained items the worker holds durably; returns rows
        released."""
        released = 0
        with self._rlock:
            while self._retained:
                first, n_rows, _item = self._retained[0]
                if first + n_rows - 1 > durable_seq:
                    break
                self._retained.popleft()
                released += n_rows
        return released

    def retained_rows(self) -> int:
        with self._rlock:
            return sum(n for _f, n, _i in self._retained)

    def reopen(self) -> None:
        """The worker restarted: reconnect, resend the retained tail
        (and the ``end``, if it was already delivered)."""
        self._reopen.set()

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: float | None = None) -> bool:
        return self.end_acked.wait(timeout)

    # -- sender thread --------------------------------------------------

    def _run(self) -> None:
        delays = None
        while not self._stop.is_set():
            try:
                self._session_once()
                delays = None
                # Clean end-of-session: idle until the fleet reopens the
                # lane (worker restarted before our rows were durable).
                while not self._stop.is_set():
                    if self._reopen.wait(0.2):
                        self._reopen.clear()
                        break
            except (OSError, FrameError, PublishRefused) as exc:
                if isinstance(exc, PublishRefused) and not exc.retryable:
                    self.last_error = f"fatal: {exc}"
                    return
                self.last_error = f"{type(exc).__name__}: {exc}"
                if delays is None:
                    delays = _backoff_delays(self.retry_interval,
                                             self.retry_cap, random.Random())
                if self._stop.wait(next(delays)):
                    return

    def _session_once(self) -> None:
        with ProducerSession(self.address, self.source,
                             producer=f"shard-router:{self.worker}",
                             session=self.session,
                             frame_cap=self.frame_cap,
                             connect_timeout=self.connect_timeout) as session:
            self.connects += 1
            with self._rlock:
                backlog = list(self._retained)
            for first_seq, n_rows, item in backlog:
                session.send_batch(item, first_seq)
                self.rows_sent += n_rows
                self.rows_resent += n_rows
            while not self._end_pending:
                try:
                    entry = self._queue.get(timeout=0.2)
                except queue.Empty:
                    if self._stop.is_set():
                        return
                    continue
                if entry is None:
                    self._end_pending = True
                    break
                first_seq, n_rows, item = entry
                with self._room:
                    self._queued_rows -= n_rows
                    self._room.notify_all()
                with self._rlock:
                    self._retained.append(entry)
                session.send_batch(item, first_seq)
                self.rows_sent += n_rows
            session.end()
            self.end_acked.set()

    def describe(self) -> dict:
        return {"worker": self.worker, "source": self.source,
                "rows_submitted": self.rows_submitted,
                "rows_sent": int(self.rows_sent),
                "rows_resent": int(self.rows_resent),
                "retained_rows": self.retained_rows(),
                "connects": int(self.connects),
                "end_acked": self.end_acked.is_set(),
                "last_error": self.last_error}


# ---------------------------------------------------------------------------
# the router


class ShardRouter:
    """The fleet's ingest front: listener in, per-worker lanes out.

    Producers speak to the router exactly as they would to a single
    server (same hello/auth/TLS, same v1 and v2 frames, same
    exactly-once edge sequencing).  Pump threads -- one per source, so
    per-source admission order is preserved -- iterate the front
    sources' batches and classify every row by owning shard under the
    *epoch* that
    covers its timestamp: a rebalance installs ``(cut_ts, new_ring)``
    and rows route by ``(uid, ts)``, which is what makes the flip exact
    at a day boundary instead of racy at a wall-clock instant.
    """

    def __init__(self, address: str, workers: Mapping[str, str],
                 ring: HashRing, *,
                 expected: Mapping[str, int] | Iterable[str] | None = None,
                 auth_token: str | None = None, ssl_context=None,
                 max_connections: int | None = None,
                 write_deadline: float | None = 30.0) -> None:
        if not workers:
            raise ValueError("a router needs at least one worker")
        missing = [s for s in ring.shards if s not in workers]
        if missing:
            raise ValueError(f"ring shards without workers: {missing}")
        self.ring = ring
        self._order: list[str] = list(workers)
        self._addresses: dict[str, str] = dict(workers)
        #: Epochs ascending by cut; the first covers all history.
        self._epochs: list[tuple[int, HashRing]] = [(-(1 << 62), ring)]
        self._remaps: dict[int, np.ndarray] = {}
        self._gate: dict | None = None
        #: A rebalance-born worker between epoch flip and process start:
        #: its rows buffer here (unbounded) instead of in bounded lanes,
        #: because backpressure against a worker that cannot exist yet
        #: would stall the pumps -- and with them the donor rows the
        #: clone checkpoint is waiting on.
        self._pending: dict | None = None
        self._lock = threading.RLock()
        self._source_ended: set[str] = set()
        self.rows_routed: dict[str, int] = {w: 0 for w in self._order}
        self.routing_errors = Counter()
        self.watermarks: dict[str, int] = {}
        self.listener = SocketListener(
            address, expected=expected or DEFAULT_SOURCES,
            auth_token=auth_token, ssl_context=ssl_context,
            max_connections=max_connections, write_deadline=write_deadline)
        self.address = self.listener.address
        self._lanes: dict[tuple[str, str], ShardLane] = {}
        self._source_names = [s.name for s in self.listener.sources()]
        for name in self._source_names:
            for worker in self._order:
                self._lanes[(name, worker)] = self._make_lane(name, worker)
        self._pumps = [threading.Thread(target=self._pump, args=(src,),
                                        name=f"pump:{src.name}", daemon=True)
                       for src in self.listener.sources()]
        for t in self._pumps:
            t.start()

    def _make_lane(self, source: str, worker: str) -> ShardLane:
        return ShardLane(source, worker, self._addresses[worker])

    def lane(self, source: str, worker: str) -> ShardLane:
        return self._lanes[(source, worker)]

    @property
    def workers(self) -> list[str]:
        return list(self._order)

    # -- pumps ----------------------------------------------------------

    def _pump(self, source) -> None:
        for batch in source:
            with self._lock:
                try:
                    self._route_batch(source.name, batch)
                except Exception as exc:  # noqa: BLE001 -- keep pumping
                    self.routing_errors += 1
                    self._last_routing_error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            self._source_ended.add(source.name)
            for worker in self._order:
                lane = self._lanes.get((source.name, worker))
                if lane is not None:   # pending workers: later
                    lane.finish()

    def _remap(self, ring: HashRing) -> np.ndarray:
        cached = self._remaps.get(id(ring))
        if cached is None:
            pos = {name: i for i, name in enumerate(self._order)}
            cached = np.asarray([pos[s] for s in ring.shards],
                                dtype=np.int64)
            self._remaps[id(ring)] = cached
        return cached

    def _segments(self, batch: EventBatch) -> list[tuple[HashRing,
                                                         EventBatch]]:
        """Split a batch into per-epoch slices (usually a no-op)."""
        if len(self._epochs) == 1:
            return [(self._epochs[0][1], batch)]
        segs: list[tuple[HashRing, EventBatch]] = []
        rest = batch
        for i, (_cut, ring) in enumerate(self._epochs):
            if i + 1 == len(self._epochs):
                if rest.n:
                    segs.append((ring, rest))
                break
            nxt = self._epochs[i + 1][0]
            pre, rest = rest.split_at_ts(nxt)
            if pre.n:
                segs.append((ring, pre))
            if rest.n == 0:
                break
        return segs

    def _route_batch(self, source: str, batch: EventBatch) -> None:
        if batch.n == 0:
            return
        self.watermarks[source] = max(self.watermarks.get(source, 0),
                                      int(batch.ts[-1]))
        gate = self._gate
        for ring, seg in self._segments(batch):
            masks = batch_worker_masks(seg, ring, self._order,
                                       self._remap(ring))
            for wi, name in enumerate(self._order):
                mask = masks[wi]
                count = int(mask.sum())
                if count == 0:
                    continue
                sub = seg if count == seg.n else seg.subset(mask)
                if (gate is not None and name == gate["donor"]
                        and int(sub.ts[-1]) >= gate["cut_ts"]):
                    pre, post = sub.split_at_ts(gate["cut_ts"])
                    if pre.n:
                        self._submit(source, name, pre, pre.n)
                    gate["buffer"].append((source, post))
                    continue
                self._submit(source, name, sub, count)

    def _submit(self, source: str, worker: str, item, n_rows: int) -> None:
        pending = self._pending
        if pending is not None and worker == pending["worker"]:
            pending["buffer"].append((source, item, n_rows))
            return
        self._lanes[(source, worker)].submit(item, n_rows)
        self.rows_routed[worker] += n_rows

    # -- rebalance hooks ------------------------------------------------

    @property
    def max_watermark(self) -> int:
        with self._lock:
            return max(self.watermarks.values(), default=0)

    def begin_rebalance(self, donor: str, cut_ts: int) -> None:
        """Install the gate: donor-destined rows with ``ts >= cut_ts``
        are buffered until the donor has the split request queued."""
        with self._lock:
            if self._gate is not None:
                raise RuntimeError("a rebalance is already in progress")
            if donor not in self._order:
                raise ValueError(f"unknown worker {donor!r}")
            wm = max(self.watermarks.values(), default=0)
            if wm >= cut_ts:
                raise ValueError(
                    f"cut ts {cut_ts} is not ahead of the routed "
                    f"watermark {wm}")
            self._gate = {"donor": donor, "cut_ts": int(cut_ts),
                          "buffer": []}

    def commit_rebalance(self, new_ring: HashRing, cut_ts: int,
                         new_worker: str, new_address: str) -> None:
        """Flip the epoch and replay the gated rows under the new ring.

        The new worker's rows keep buffering (``_pending``) until
        :meth:`activate_worker` -- its process only exists once the
        donor's boundary clone has been written and spawned, and
        bounded-lane backpressure before that point would deadlock the
        pumps against the very donor progress the clone needs.
        """
        with self._lock:
            gate = self._gate
            if gate is None:
                raise RuntimeError("no rebalance in progress")
            if new_worker not in self._order:
                self._order.append(new_worker)
                self._addresses[new_worker] = new_address
                self.rows_routed[new_worker] = 0
                self._remaps.clear()   # order grew; remaps are stale
                self._pending = {"worker": new_worker, "buffer": []}
            self._epochs.append((int(cut_ts), new_ring))
            self.ring = new_ring
            self._gate = None
            for source, batch in gate["buffer"]:
                self._route_batch(source, batch)

    def activate_worker(self, name: str) -> int:
        """Wire a rebalance-born worker's lanes once its process is up,
        replaying everything buffered since the epoch flip.  Returns the
        replayed row count."""
        with self._lock:
            pending = self._pending
            if pending is None or pending["worker"] != name:
                raise RuntimeError(f"worker {name!r} is not pending "
                                   f"activation")
            for source in self._source_names:
                self._lanes[(source, name)] = self._make_lane(source, name)
            self._pending = None
            replayed = 0
            for source, item, n_rows in pending["buffer"]:
                self._submit(source, name, item, n_rows)
                replayed += n_rows
            for source in self._source_ended:
                self._lanes[(source, name)].finish()
            return replayed

    def abort_rebalance(self) -> None:
        with self._lock:
            gate = self._gate
            if gate is None:
                return
            self._gate = None
            for source, batch in gate["buffer"]:
                self._route_batch(source, batch)

    # -- fleet hooks ----------------------------------------------------

    def trim(self, worker: str, cursors: Mapping[str, int]) -> int:
        released = 0
        for source, seq in cursors.items():
            lane = self._lanes.get((source, worker))
            if lane is not None:
                released += lane.trim(int(seq))
        return released

    def reopen_worker(self, worker: str) -> None:
        for source in self._source_names:
            lane = self._lanes.get((source, worker))
            if lane is not None:
                lane.reopen()

    def join(self, timeout: float | None = None) -> bool:
        """Wait until every lane's ``end`` has been acked."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for lane in list(self._lanes.values()):
            rem = (None if deadline is None
                   else max(0.0, deadline - time.monotonic()))
            if not lane.join(rem):
                return False
        return True

    def close(self) -> None:
        self.listener.close()
        for t in self._pumps:
            t.join(timeout=5.0)
        for lane in self._lanes.values():
            lane.stop()

    def describe(self) -> dict:
        with self._lock:
            epochs = [{"cut_ts": int(cut) if cut > -(1 << 61) else None,
                       "shards": list(ring.shards),
                       "digest": ring.digest()}
                      for cut, ring in self._epochs]
            gate = None
            if self._gate is not None:
                gate = {"donor": self._gate["donor"],
                        "cut_ts": self._gate["cut_ts"],
                        "buffered": len(self._gate["buffer"])}
            pending = None
            if self._pending is not None:
                pending = {"worker": self._pending["worker"],
                           "buffered": len(self._pending["buffer"])}
            return {
                "address": self.address,
                "workers": list(self._order),
                "rows_routed": dict(self.rows_routed),
                "routing_errors": int(self.routing_errors),
                "watermarks": dict(self.watermarks),
                "epochs": epochs,
                "gate": gate,
                "pending_worker": pending,
                "listener": self.listener.describe(),
                "lanes": {f"{s}->{w}": lane.describe()
                          for (s, w), lane in self._lanes.items()},
            }


# ---------------------------------------------------------------------------
# the scatter/gather admin plane


class FleetAdmin(AdminSocket):
    """One admin socket for the whole fleet.

    Runs on the worker planes' :class:`~repro.server.admin.AdminSocket`
    (JSON frames + HTTP ``GET /metrics``), but every read fans out to all
    worker admin planes in parallel and merges.  Fleet-level invariants
    (``healthy`` only when every shard answers healthy, events/s as the
    sum) live here; the per-shard detail -- crucially the TARE-style
    trigger-latency and per-tenant miss tails -- stays keyed by shard so
    a hot shard cannot hide behind a fleet mean.
    """

    def __init__(self, address: str, fleet: "ShardFleet", *,
                 gather_timeout: float = 5.0) -> None:
        self.fleet = fleet
        self.gather_timeout = gather_timeout
        self._started = time.monotonic()
        super().__init__(address)

    # -- scatter/gather -------------------------------------------------

    def _gather(self, request: dict) -> dict[str, dict]:
        """Fan ``request`` to every worker admin plane, in parallel."""
        results: dict[str, dict] = {}
        addresses = self.fleet.admin_addresses()

        def one(name: str, address: str) -> None:
            try:
                results[name] = admin_request(address, request,
                                              timeout=self.gather_timeout)
            except Exception as exc:  # noqa: BLE001 -- a down shard is data
                results[name] = {"ok": False,
                                 "error": f"{type(exc).__name__}: {exc}"}

        threads = [threading.Thread(target=one, args=item, daemon=True)
                   for item in addresses.items()]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results

    # -- dispatch -------------------------------------------------------

    def _commands(self) -> dict[str, Callable[[dict], dict]]:
        return {
            "status": self._cmd_status,
            "health": self._cmd_health,
            "metrics": self._cmd_metrics,
            "activity": self._cmd_activity,
            "tenants": self._cmd_tenants,
            "query": self._cmd_query,
            "shards": self._cmd_shards,
            "shards-rebalance": self._cmd_rebalance,
        }

    def _cmd_status(self, request: dict) -> dict:
        return {"ok": True, "fleet": True,
                "uptime": time.monotonic() - self._started,
                "workers": self.fleet.worker_names(),
                "router": self.fleet.router.describe(),
                "rebalances": self.fleet.rebalance_log(),
                "shards": self._gather({"cmd": "status"})}

    def _cmd_health(self, request: dict) -> dict:
        shards = self._gather({"cmd": "health"})
        up = {name: bool(r.get("ok")) for name, r in shards.items()}
        healthy = all(r.get("ok") and r.get("healthy")
                      for r in shards.values())
        return {"ok": True, "fleet": True,
                "healthy": healthy and bool(shards),
                "up": up,
                "cursor": sum(int(r.get("cursor", 0))
                              for r in shards.values() if r.get("ok")),
                "shards": shards}

    def _cmd_metrics(self, request: dict) -> dict:
        shards = self._gather({"cmd": "metrics"})
        ok = {n: r for n, r in shards.items() if r.get("ok")}
        router = self.fleet.router
        out = {
            "ok": True, "fleet": True,
            "cursor": sum(int(r.get("cursor", 0)) for r in ok.values()),
            "events_per_second": sum(float(r.get("events_per_second", 0.0))
                                     for r in ok.values()),
            "rows_routed": dict(router.rows_routed),
            "router_front": router.listener.describe(),
            # Per-shard TARE tails, never averaged away.
            "trigger_latency": {n: r.get("trigger_latency", {"count": 0})
                                for n, r in ok.items()},
            "miss_tails": {n: r.get("miss_tails", {})
                           for n, r in ok.items()},
            "trigger_latency_p99_max": max(
                (float(r.get("trigger_latency", {}).get("p99", 0.0))
                 for r in ok.values()), default=0.0),
            "shards": shards,
            # A fleet has no single boundary-sample ring; dashboards
            # render the summed cursor and the merged activity instead.
            "history": [],
            "history_samples": 0,
        }
        return out

    def _cmd_activity(self, request: dict) -> dict:
        shards = self._gather({"cmd": "activity"})
        ok = {n: r for n, r in shards.items() if r.get("ok")}
        params: dict[str, dict] = {}
        for r in ok.values():
            for key, entry in (r.get("params") or {}).items():
                agg = params.setdefault(key, {
                    "period_days": entry.get("period_days"),
                    "evaluated_at": entry.get("evaluated_at"),
                    "users": 0, "op_active": 0, "oc_active": 0})
                agg["users"] += int(entry.get("users", 0))
                agg["op_active"] += int(entry.get("op_active", 0))
                agg["oc_active"] += int(entry.get("oc_active", 0))
                agg["evaluated_at"] = max(agg["evaluated_at"] or 0,
                                          entry.get("evaluated_at") or 0)
        tenants: dict[str, dict] = {}
        for r in ok.values():
            for name, entry in (r.get("tenants") or {}).items():
                agg = tenants.setdefault(name, {"classes": {}})
                for label, count in (entry.get("classes") or {}).items():
                    agg["classes"][label] = (agg["classes"].get(label, 0)
                                             + int(count))
        return {"ok": True, "fleet": True, "params": params,
                "tenants": tenants, "shards": shards}

    def _cmd_tenants(self, request: dict) -> dict:
        action = request.get("action", "list")
        if action != "list":
            return {"ok": False,
                    "error": "tenant mutations must target a single "
                             "worker admin socket, not the fleet"}
        shards = self._gather({"cmd": "tenants"})
        merged: dict[str, dict] = {}
        for r in shards.values():
            if r.get("ok"):
                merged.update(r.get("tenants") or {})
        return {"ok": True, "fleet": True, "tenants": merged,
                "shards": shards}

    def _cmd_query(self, request: dict) -> dict:
        if "uid" not in request:
            return {"ok": False, "error": "query needs a uid"}
        uid = int(request["uid"])
        owner = self.fleet.router.ring.owner(uid)
        address = self.fleet.admin_addresses().get(owner)
        if address is None:
            return {"ok": False,
                    "error": f"no admin address for shard {owner!r}"}
        try:
            out = admin_request(address, {"cmd": "query", "uid": uid},
                                timeout=self.gather_timeout)
        except Exception as exc:  # noqa: BLE001 -- a down shard is data
            return {"ok": False, "shard": owner,
                    "error": f"{type(exc).__name__}: {exc}"}
        out["shard"] = owner
        return out

    def _cmd_shards(self, request: dict) -> dict:
        router = self.fleet.router
        return {"ok": True,
                "ring": router.ring.to_jsonable(),
                "ring_info": router.ring.describe(),
                "workers": self.fleet.describe_workers(),
                "epochs": router.describe()["epochs"],
                "rebalances": self.fleet.rebalance_log()}

    def _cmd_rebalance(self, request: dict) -> dict:
        try:
            entry = self.fleet.start_rebalance(
                donor=request.get("donor"),
                new_name=request.get("name"))
        except (ValueError, RuntimeError) as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, "queued": True, "rebalance": entry}

    # -- Prometheus -----------------------------------------------------

    def render_metrics(self) -> str:
        """Fleet-level text exposition: per-shard series labelled
        ``shard=...`` plus router-front totals."""
        health = self._gather({"cmd": "health"})
        metrics = self._gather({"cmd": "metrics"})
        ok = {n: r for n, r in sorted(metrics.items()) if r.get("ok")}
        router = self.fleet.router
        exp = _Exposition()
        exp.emit("repro_fleet_shards", float(len(self.fleet.worker_names())),
                 help="Workers in the fleet.")
        for n, r in sorted(health.items()):
            exp.emit("repro_fleet_up", 1.0 if r.get("ok") else 0.0,
                     {"shard": n}, help="1 when the shard answers admin.")
        for n, r in ok.items():
            exp.emit("repro_fleet_cursor", float(r.get("cursor", 0)),
                     {"shard": n}, type="counter",
                     help="Merged events consumed by each shard engine.")
        for n, r in ok.items():
            exp.emit("repro_fleet_events_per_second",
                     float(r.get("events_per_second", 0.0)), {"shard": n},
                     help="Per-shard ingest rate.")
        for n, r in ok.items():
            tl = r.get("trigger_latency") or {}
            for q in ("p50", "p95", "p99"):
                if q in tl:
                    exp.emit("repro_fleet_trigger_latency_seconds",
                             float(tl[q]), {"shard": n, "quantile": q},
                             help="Per-shard trigger latency tails.")
        for n, r in ok.items():
            for tenant, mt in sorted((r.get("miss_tails") or {}).items()):
                for q in ("p50", "p95", "p99"):
                    if q in mt:
                        exp.emit("repro_fleet_daily_miss_tail",
                                 float(mt[q]),
                                 {"shard": n, "tenant": tenant,
                                  "quantile": q},
                                 help="Per-shard per-tenant daily miss "
                                      "tails.")
        for n, v in sorted(router.rows_routed.items()):
            exp.emit("repro_fleet_rows_routed_total", float(v), {"shard": n},
                     type="counter",
                     help="Rows the router forwarded to each shard.")
        front = router.listener.describe()
        exp.emit("repro_fleet_router_connections_total",
                 float(front["connections_accepted"]), type="counter",
                 help="Producer connections accepted at the fleet front.")
        exp.emit("repro_fleet_router_batch_rows_total",
                 float(front["batch_rows_received"]), type="counter",
                 help="Batch rows received at the fleet front.")
        exp.emit("repro_fleet_router_duplicates_total",
                 float(front["duplicates_discarded"]), type="counter",
                 help="Duplicate rows discarded at the fleet front.")
        exp.emit("repro_fleet_routing_errors_total",
                 float(int(router.routing_errors)), type="counter",
                 help="Rows the router failed to classify.")
        return exp.render()


# ---------------------------------------------------------------------------
# fleet orchestration


@dataclass
class WorkerSpec:
    """Everything the fleet needs to run one shard worker."""

    name: str
    ingest_address: str
    admin_address: str
    checkpoint_dir: str
    result_path: str
    command: list[str] = field(default_factory=list)
    log_path: str | None = None


class ShardFleet:
    """Run N shard workers under supervision behind one router.

    The fleet owns process lifecycle (a crash-looped
    :class:`Supervisor` per worker; each respawn beyond the first
    reopens that worker's lanes so the retained tail is resent), the
    durability poll that trims lanes against checkpointed ingest
    cursors, and the rebalance state machine.  ``worker_factory`` is
    the CLI's hook for minting the spec (argv included) of a
    rebalance-born worker.
    """

    def __init__(self, router: ShardRouter, workers: Sequence[WorkerSpec],
                 *, directory: str, replay_start: int, n_days: int,
                 worker_factory: Callable[[str], WorkerSpec] | None = None,
                 poll_interval: float = 1.0,
                 backoff: BackoffPolicy | None = None,
                 log: Callable[[str], None] | None = None) -> None:
        self.router = router
        self.directory = directory
        self.replay_start = int(replay_start)
        self.n_days = int(n_days)
        self.worker_factory = worker_factory
        self.poll_interval = poll_interval
        self.backoff = backoff or BackoffPolicy(
            base=0.2, max_delay=2.0, jitter=0.1, seed=0,
            max_restarts=10, healthy_seconds=5.0)
        self._log = log or (lambda line: None)
        self.specs: dict[str, WorkerSpec] = {s.name: s for s in workers}
        self.processes: dict[str, subprocess.Popen] = {}
        self.reports: dict[str, object] = {}
        self.spawn_counts: dict[str, int] = {}
        self._threads: dict[str, threading.Thread] = {}
        self._rebalances: list[dict] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._poll_thread: threading.Thread | None = None

    # -- introspection --------------------------------------------------

    def worker_names(self) -> list[str]:
        with self._lock:
            return list(self.specs)

    def admin_addresses(self) -> dict[str, str]:
        with self._lock:
            return {name: spec.admin_address
                    for name, spec in self.specs.items()}

    def describe_workers(self) -> dict:
        with self._lock:
            return {name: {
                "ingest": spec.ingest_address,
                "admin": spec.admin_address,
                "checkpoint_dir": spec.checkpoint_dir,
                "rows_routed": self.router.rows_routed.get(name, 0),
                "spawns": self.spawn_counts.get(name, 0),
                "pid": (self.processes[name].pid
                        if name in self.processes
                        and self.processes[name].poll() is None else None),
            } for name, spec in self.specs.items()}

    def rebalance_log(self) -> list[dict]:
        with self._lock:
            return [dict(e) for e in self._rebalances]

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        for name in list(self.specs):
            self._start_worker(name)
        self._poll_thread = threading.Thread(
            target=self._poll_durability, name="fleet-durability",
            daemon=True)
        self._poll_thread.start()

    def _start_worker(self, name: str) -> None:
        spec = self.specs[name]

        def spawn(command: Sequence[str]):
            out = (open(spec.log_path, "ab")
                   if spec.log_path is not None else None)
            try:
                proc = subprocess.Popen(list(command), stdout=out,
                                        stderr=subprocess.STDOUT
                                        if out is not None else None)
            finally:
                if out is not None:
                    out.close()
            with self._lock:
                self.processes[name] = proc
                self.spawn_counts[name] = \
                    self.spawn_counts.get(name, 0) + 1
                count = self.spawn_counts[name]
            if count > 1:
                # A restart: the worker resumes from its checkpoint, so
                # the lanes must resend their retained (post-durable)
                # tails and, when already delivered, the end frames.
                self.router.reopen_worker(name)
            return proc

        def should_resume() -> bool:
            return CheckpointManager.holds_link(spec.checkpoint_dir)

        supervisor = Supervisor(spec.command, backoff=self.backoff,
                                should_resume=should_resume, spawn=spawn,
                                log=lambda line, n=name:
                                self._log(f"[{n}] {line}"))

        def run() -> None:
            rc = supervisor.run()
            with self._lock:
                self.reports[name] = supervisor.report
            self._log(f"worker {name} finished rc={rc} "
                      f"(restarts={supervisor.report.restarts})")

        thread = threading.Thread(target=run, name=f"worker:{name}",
                                  daemon=True)
        self._threads[name] = thread
        thread.start()

    def _poll_durability(self) -> None:
        while not self._stop.wait(self.poll_interval):
            for name, address in self.admin_addresses().items():
                try:
                    health = admin_request(address, {"cmd": "health"},
                                           timeout=2.0)
                except Exception:  # noqa: BLE001 -- worker may be down
                    continue
                cursors = ((health.get("ingest_cursors") or {})
                           .get("source_seqs") or {})
                if cursors:
                    self.router.trim(name, cursors)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every worker's supervisor loop has returned.

        Returns ``False`` (instead of hanging on workers starved of a
        dead peer's acks) as soon as any supervisor has given up for
        good -- the fleet cannot complete once a shard is permanently
        down, and the caller should fail loudly.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            threads = list(self._threads.items())
            if all(not t.is_alive() for _n, t in threads):
                return True
            for name, t in threads:
                if t.is_alive():
                    continue
                report = self.reports.get(name)
                if getattr(report, "final_returncode", 0) not in (0, None):
                    return False
            if (deadline is not None
                    and time.monotonic() >= deadline):
                return False
            time.sleep(0.25)

    def stop(self) -> None:
        self._stop.set()
        self.router.close()
        for proc in list(self.processes.values()):
            if proc.poll() is None:
                proc.terminate()

    # -- rebalance ------------------------------------------------------

    def start_rebalance(self, donor: str | None = None,
                        new_name: str | None = None) -> dict:
        """Validate, install the gate, and run the split in background.

        Returns the (live) log entry; progress lands in it as the
        background thread advances (visible via ``admin shards``).
        """
        if self.worker_factory is None:
            raise RuntimeError("this fleet cannot mint new workers "
                               "(no worker factory)")
        with self._lock:
            if any(e["status"] not in ("done", "failed")
                   for e in self._rebalances):
                raise RuntimeError("a rebalance is already in progress")
            if donor is None:
                donor = max(self.router.rows_routed,
                            key=self.router.rows_routed.get)
            if donor not in self.specs:
                raise ValueError(f"unknown donor shard {donor!r}")
            if new_name is None:
                i = len(self.specs)
                while f"s{i:02d}" in self.specs:
                    i += 1
                new_name = f"s{i:02d}"
            if new_name in self.specs:
                raise ValueError(f"shard {new_name!r} already exists")
            entry = {"donor": donor, "name": new_name,
                     "status": "preparing", "boundary": None}
            self._rebalances.append(entry)
        thread = threading.Thread(target=self._run_rebalance,
                                  args=(entry,), name="fleet-rebalance",
                                  daemon=True)
        thread.start()
        return dict(entry)

    def _run_rebalance(self, entry: dict) -> None:
        donor = entry["donor"]
        new_name = entry["name"]
        gated = False
        try:
            donor_admin = self.specs[donor].admin_address
            health = admin_request(donor_admin, {"cmd": "health"},
                                   timeout=10.0)
            if not health.get("ok"):
                raise RuntimeError(f"donor {donor} admin refused: "
                                   f"{health.get('error')}")
            next_boundary = int(health.get("next_boundary", 0))
            # The cut must sit strictly ahead of everything already
            # routed AND of the donor's engine position; retry upward a
            # few times in case rows race the watermark read.
            for _attempt in range(8):
                wm = self.router.max_watermark
                wm_day = ((wm - self.replay_start) // DAY_SECONDS + 1
                          if wm else 1)
                boundary = max(wm_day, next_boundary, 1)
                if boundary >= self.n_days:
                    raise RuntimeError(
                        f"too late to split: boundary {boundary} is at or "
                        f"past the end of the {self.n_days}-day window")
                cut_ts = self.replay_start + boundary * DAY_SECONDS
                try:
                    self.router.begin_rebalance(donor, cut_ts)
                    gated = True
                    break
                except ValueError:
                    continue
            if not gated:
                raise RuntimeError("could not install the rebalance gate "
                                   "ahead of the routed watermark")
            entry["boundary"] = boundary
            entry["cut_ts"] = cut_ts
            new_ring = self.router.ring.split(donor, new_name)
            spec = self.worker_factory(new_name)
            split_request = {
                "cmd": "shard-split",
                "at_boundary": boundary,
                "dest_dir": spec.checkpoint_dir,
                "ring": new_ring.to_jsonable(),
                "new_shard": new_name,
            }
            # Snapshot the donor's spawn count BEFORE asking: a respawn
            # between the ack and the snapshot would otherwise lose the
            # queued split with no re-issue.  If the respawn instead
            # races the ack, the re-issue below is redundant -- the
            # donor dedupes an already-applied (boundary, dest) split.
            split_spawn = self.spawn_counts.get(donor, 0)
            response = admin_request(donor_admin, split_request,
                                     timeout=10.0)
            if not response.get("ok"):
                raise RuntimeError(f"donor {donor} refused the split: "
                                   f"{response.get('error')}")
            # The donor has the op queued and can no longer cross the
            # boundary early (post-cut rows were gated): flip the epoch
            # and release the gated rows under the new ring.
            self.router.commit_rebalance(new_ring, cut_ts, new_name,
                                         spec.ingest_address)
            gated = False
            with self._lock:
                self.specs[new_name] = spec
            self._persist_ring(cut_ts, new_ring)
            entry["status"] = "waiting-for-clone"
            while not self._stop.is_set():
                if CheckpointManager.holds_link(spec.checkpoint_dir):
                    break
                donor_thread = self._threads.get(donor)
                if donor_thread is not None and not donor_thread.is_alive():
                    report = self.reports.get(donor)
                    if getattr(report, "final_returncode", 0) != 0:
                        raise RuntimeError(
                            f"donor {donor} died (rc="
                            f"{report.final_returncode}) before writing "
                            f"the clone")
                # Pending ops are deliberately not checkpointed: a
                # donor that crashed after acking the split but before
                # the boundary executed resumes WITHOUT the queued
                # split, and the ring epoch has already flipped.
                # Respawns are visible in spawn_counts -- re-issue the
                # identical request to the new incarnation (idempotent:
                # same boundary, same dest chain).
                spawns = self.spawn_counts.get(donor, 0)
                if spawns > split_spawn:
                    try:
                        response = admin_request(donor_admin,
                                                 split_request,
                                                 timeout=10.0)
                    except Exception:  # noqa: BLE001 -- admin not up yet
                        pass  # retry on the next poll tick
                    else:
                        if response.get("ok"):
                            split_spawn = spawns
                            self._log(
                                f"rebalance: re-issued shard-split to "
                                f"respawned donor {donor}")
                        else:
                            raise RuntimeError(
                                f"respawned donor {donor} refused the "
                                f"re-issued split: "
                                f"{response.get('error')}")
                time.sleep(0.25)
            if self._stop.is_set():
                entry["status"] = "failed"
                entry["error"] = "fleet stopped before the clone appeared"
                return
            entry["status"] = "starting"
            self._start_worker(new_name)
            replayed = self.router.activate_worker(new_name)
            entry["replayed_rows"] = replayed
            entry["status"] = "done"
            self._log(f"rebalance: {donor} -> {donor}+{new_name} at "
                      f"boundary {boundary}")
        except Exception as exc:  # noqa: BLE001 -- report, don't die
            if gated:
                self.router.abort_rebalance()
            entry["status"] = "failed"
            entry["error"] = f"{type(exc).__name__}: {exc}"
            self._log(f"rebalance failed: {entry['error']}")

    def _persist_ring(self, cut_ts: int, ring: HashRing) -> None:
        """Persist the new ring: rewrite ``ring.json`` (what workers
        read at startup) and append to the ``ring-epochs.json`` audit
        trail."""
        current = os.path.join(self.directory, "ring.json")
        tmp = f"{current}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(ring.to_jsonable(), f)
        os.replace(tmp, current)
        path = os.path.join(self.directory, "ring-epochs.json")
        epochs: list = []
        try:
            with open(path, "r", encoding="utf-8") as f:
                epochs = json.load(f)
        except (OSError, ValueError):
            epochs = []
        epochs.append({"cut_ts": int(cut_ts),
                       "ring": ring.to_jsonable(),
                       "digest": ring.digest()})
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(epochs, f, indent=1)
        os.replace(tmp, path)

    # -- results --------------------------------------------------------

    def collect_results(self) -> dict[str, EmulationResult]:
        """Read every worker's result JSON and merge per tenant."""
        payloads = []
        for name, spec in sorted(self.specs.items()):
            try:
                with open(spec.result_path, "r", encoding="utf-8") as f:
                    payloads.append(json.load(f))
            except OSError as exc:
                raise RuntimeError(
                    f"worker {name} left no result file at "
                    f"{spec.result_path}: {exc}") from exc
        return merge_tenant_results(payloads)


# ---------------------------------------------------------------------------
# result JSON: each worker writes it, the fleet merges it


def result_to_jsonable(result: EmulationResult) -> dict:
    """The mergeable subset of an :class:`EmulationResult` as JSON.

    Everything here is either additive across user-disjoint shards
    (daily ledgers, totals) or mergeable by trigger time (reports);
    :func:`merge_tenant_results` is the inverse.
    """
    metrics = result.metrics
    return {
        "policy": result.policy,
        "lifetime_days": result.lifetime_days,
        "n_days": int(metrics.n_days),
        "accesses": metrics.accesses.tolist(),
        "misses": metrics.misses.tolist(),
        "group_misses": {str(cls.value): series.tolist()
                         for cls, series in metrics.group_misses.items()},
        "reports": reports_to_jsonable(result.reports),
        "final_total_bytes": int(result.final_total_bytes),
        "final_file_count": int(result.final_file_count),
    }


def merge_tenant_results(payloads: Sequence[Mapping],
                         ) -> dict[str, EmulationResult]:
    """Union per-shard result payloads into per-tenant results.

    Every additive ledger sums (daily access/miss arrays, per-group
    misses, final file counts and bytes); retention reports align **by
    trigger time ``t_c``** -- a rebalance-seeded worker only has
    reports from its cut boundary on, so list-index alignment would be
    wrong -- and merge tally-wise within each trigger.  For per-user
    decomposable policies (FLT) the merged result is bit-identical to
    the single-process replay; that identity is what the sharded CI
    smoke asserts.
    """
    merged: dict[str, EmulationResult] = {}
    reports_by_tc: dict[str, dict[int, RetentionReport]] = {}
    for payload in payloads:
        for name, t in (payload.get("tenants") or {}).items():
            n_days = int(t["n_days"])
            result = merged.get(name)
            if result is None:
                result = EmulationResult(
                    policy=t["policy"],
                    lifetime_days=float(t["lifetime_days"]),
                    metrics=DailyMetrics(n_days))
                merged[name] = result
                reports_by_tc[name] = {}
            metrics = result.metrics
            metrics.accesses += np.asarray(t["accesses"], dtype=np.int64)
            metrics.misses += np.asarray(t["misses"], dtype=np.int64)
            for key, series in (t.get("group_misses") or {}).items():
                cls = UserClass(int(key))
                metrics.group_misses[cls] += np.asarray(series,
                                                        dtype=np.int64)
            for report in reports_from_jsonable(t.get("reports") or []):
                seen = reports_by_tc[name].get(report.t_c)
                if seen is None:
                    reports_by_tc[name][report.t_c] = report
                else:
                    seen.merge(report)
            result.final_total_bytes += int(t.get("final_total_bytes", 0))
            result.final_file_count += int(t.get("final_file_count", 0))
    for name, result in merged.items():
        result.reports = [reports_by_tc[name][tc]
                          for tc in sorted(reports_by_tc[name])]
    return merged
