"""The observability plane's substrate: counters, history, exposition.

Three pieces, shared by the engine, the admin plane, the CLI and the
dashboard:

* :class:`Counter` -- a lock-guarded integer that keeps the ``+= 1``
  call-site spelling.  The admin and listener counters used to be plain
  ints bumped from many threads; ``int.__iadd__`` is a read-modify-write
  race, so concurrent connections undercounted.  A :class:`Counter`
  compares and serializes like the int it wraps (``int(c)`` for JSON).
* :class:`MetricsHistory` -- a ring of per-boundary samples kept in the
  same rotating, crash-safe JSONL log as the dead letter
  (:class:`~repro.stream.reliability.jsonl.RotatingJsonl`), every sample
  stamped with a cumulative ``seq``.  The engine appends one sample at
  every day boundary; admin rate series are derived *from the ring*
  (timestamped anchors) instead of a shared mutable window, which is
  what makes two concurrent pollers consistent.  On resume the ring is
  :meth:`rewound <MetricsHistory.rewind>` to the restored checkpoint
  cursor so history never forks from the checkpoint chain.
* :func:`render_prometheus` -- the ``GET /metrics`` text exposition
  (Prometheus text format 0.0.4): stable series names under the
  ``repro_`` prefix, tenant/reason/source labels, TARE-style p50/p95/p99
  summaries for trigger and batch-decode latency.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterable

import numpy as np

from ..stream.reliability.jsonl import RotatingJsonl

__all__ = ["Counter", "MetricsHistory", "tail_stats", "render_prometheus"]


class Counter:
    """A lock-guarded monotonic counter safe for ``+=`` from any thread.

    Supports the int idioms the existing call sites and tests use:
    ``c += 1`` (atomic via ``__iadd__``), ``int(c)``, comparisons with
    numbers and other counters.  Reads are point-in-time (one attribute
    load, atomic under the GIL).
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, value: int = 0) -> None:
        self._lock = threading.Lock()
        self._value = int(value)

    def add(self, n: int = 1) -> int:
        with self._lock:
            self._value += n
            return self._value

    @property
    def value(self) -> int:
        return self._value

    def __iadd__(self, n: int) -> "Counter":
        self.add(int(n))
        return self

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def __bool__(self) -> bool:
        return self._value != 0

    def __eq__(self, other: object) -> bool:
        try:
            return self._value == int(other)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other) -> bool:
        return self._value < int(other)

    def __le__(self, other) -> bool:
        return self._value <= int(other)

    def __gt__(self, other) -> bool:
        return self._value > int(other)

    def __ge__(self, other) -> bool:
        return self._value >= int(other)

    def __hash__(self) -> int:
        return object.__hash__(self)

    def __repr__(self) -> str:
        return f"Counter({self._value})"


def tail_stats(samples: Iterable[float]) -> dict:
    """TARE-style tail summary (count + p50/p95/p99/max) of a latency
    log, in seconds.  Snapshot via ``list`` first: the deques grow on
    other threads while we read."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        return {"count": 0}
    p50, p95, p99 = np.percentile(arr, (50.0, 95.0, 99.0))
    return {"count": int(arr.size), "p50": float(p50), "p95": float(p95),
            "p99": float(p99), "max": float(arr.max())}


class MetricsHistory:
    """A ring of per-boundary metric samples kept in a rotating JSONL log.

    The file is the dead-letter log's class,
    :class:`~repro.stream.reliability.jsonl.RotatingJsonl`: one live file
    plus ``backups`` cascading numbered siblings (``<path>.1`` newest),
    every append flushed, torn lines skipped on read and ended before the
    next append.  On top of it:

    * a cumulative ``seq`` stamped into each sample, so counts survive
      rotation and reopen;
    * an in-memory deque of the most recent ``window`` samples (loaded
      from the surviving files on open), so rate derivation and
      ``admin metrics --history N`` never re-read the files;
    * injectable ``clock`` (monotonic) / ``wall`` sources -- every
      sample carries both stamps, plus the engine cursor and boundary;
    * :meth:`rate_anchor`: the oldest-usable ``(mono, cursor)`` pair for
      rate derivation, restricted to samples appended **by this
      process** (a previous incarnation's monotonic stamps are
      meaningless against our clock);
    * :meth:`rewind`: drop every sample *ahead* of a restored checkpoint
      (by cursor, boundary-tie-broken) and atomically rewrite the log
      with the survivors, so a kill -9 + rollback resume continues the
      history instead of forking it.
    """

    def __init__(self, path: str, *, max_bytes: int = 4_000_000,
                 backups: int = 2, window: int = 4096,
                 clock: Callable[[], float] = time.monotonic,
                 wall: Callable[[], float] = time.time) -> None:
        self._log = RotatingJsonl(path, max_bytes, backups)
        self.path = path
        self.clock = clock
        self.wall = wall
        self.seq = 0
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=window)
        for sample in self._log.records():
            self._ring.append(sample)
            seq = sample.get("seq")
            if isinstance(seq, int):
                self.seq = max(self.seq, seq)
        # Samples at or below this seq were written by a previous
        # incarnation: their monotonic stamps come from a dead process's
        # clock and must never anchor a rate in this one.
        self._incarnation_seq = self.seq

    @property
    def rotations(self) -> int:
        return self._log.rotations

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "MetricsHistory":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- appending -----------------------------------------------------

    def append(self, sample: dict) -> dict:
        """Stamp ``seq``/``mono``/``wall`` onto one sample and persist it."""
        with self._lock:
            self.seq += 1
            sample = dict(sample)
            sample["seq"] = self.seq
            sample.setdefault("mono", self.clock())
            sample.setdefault("wall", self.wall())
            self._ring.append(sample)
            self._log.append(sample)
        return sample

    # -- reading -------------------------------------------------------

    def samples(self) -> list[dict]:
        """Point-in-time snapshot of the in-memory ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def tail(self, n: int) -> list[dict]:
        """The newest ``n`` samples, oldest first."""
        if n <= 0:
            return []
        with self._lock:
            if n >= len(self._ring):
                return list(self._ring)
            return list(self._ring)[-n:]

    def last(self) -> dict | None:
        with self._lock:
            return self._ring[-1] if self._ring else None

    def rate_anchor(self, now: float,
                    min_age: float = 0.25) -> tuple[float, int] | None:
        """The ``(mono, cursor)`` pair rates should be measured against.

        Prefers the newest sample at least ``min_age`` seconds old (so
        back-to-back polls measure over a real window, not an epsilon);
        falls back to the oldest sample of this incarnation.  Returns
        ``None`` when this process has not appended yet -- the caller
        anchors on its own start then.  Being derived from immutable
        timestamped samples, the anchor is the same for every concurrent
        poller: no shared window to clobber.
        """
        with self._lock:
            candidates = [s for s in self._ring
                          if isinstance(s.get("seq"), int)
                          and s["seq"] > self._incarnation_seq
                          and isinstance(s.get("mono"), (int, float))
                          and isinstance(s.get("cursor"), int)]
        if not candidates:
            return None
        for sample in reversed(candidates):
            if now - sample["mono"] >= min_age:
                return (float(sample["mono"]), int(sample["cursor"]))
        oldest = candidates[0]
        return (float(oldest["mono"]), int(oldest["cursor"]))

    # -- resume --------------------------------------------------------

    def rewind(self, cursor: int, next_boundary: int | None = None) -> int:
        """Drop samples a checkpoint rollback has un-happened.

        Keeps every sample with ``sample.cursor < cursor``, and -- for
        samples *at* the restored cursor, where several boundaries can
        fire in one cascade at the same event count -- only those with
        ``sample.boundary < next_boundary``, since the resumed engine
        will re-fire (and re-sample) every boundary from
        ``next_boundary`` on.  Survivors are rewritten atomically into
        the live file (backups are consumed), so the on-disk history is
        exactly the prefix the restored checkpoint agrees with.  Returns
        the number of samples dropped.
        """
        cursor = int(cursor)

        def keep(sample: dict) -> bool:
            c = sample.get("cursor")
            if not isinstance(c, int):
                return False  # unreadable provenance: drop it
            if c < cursor:
                return True
            if c > cursor:
                return False
            if next_boundary is None:
                return True
            b = sample.get("boundary")
            return isinstance(b, int) and b < next_boundary

        with self._lock:
            survivors = [s for s in self._ring if keep(s)]
            dropped = len(self._ring) - len(survivors)
            self._log.rewrite(survivors)
            self._ring.clear()
            self._ring.extend(survivors)
            self.seq = max((s["seq"] for s in survivors
                            if isinstance(s.get("seq"), int)), default=0)
            self._incarnation_seq = self.seq
        return dropped


# ---------------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)


def _label_escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if v != v:  # NaN
        return "NaN"
    return repr(v)


class _Exposition:
    """Accumulates one scrape: HELP/TYPE once per family, then series."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._seen: set[str] = set()

    def emit(self, name: str, value, labels: dict | None = None, *,
             help: str = "", type: str = "gauge",
             family: str | None = None) -> None:
        family = family or name
        if family not in self._seen:
            self._seen.add(family)
            if help:
                self._lines.append(f"# HELP {family} {help}")
            self._lines.append(f"# TYPE {family} {type}")
        if labels:
            body = ",".join(f'{k}="{_label_escape(v)}"'
                            for k, v in labels.items())
            self._lines.append(f"{name}{{{body}}} {_fmt(value)}")
        else:
            self._lines.append(f"{name} {_fmt(value)}")

    def summary(self, family: str, tails: dict, labels: dict | None = None,
                *, help: str = "") -> None:
        """One TARE tail dict as a Prometheus summary (quantile series)."""
        labels = dict(labels or {})
        count = int(tails.get("count", 0))
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            if key in tails:
                self.emit(family, tails[key], {**labels, "quantile": q},
                          help=help, type="summary", family=family)
        self.emit(f"{family}_count", count, labels or None,
                  help=help, type="summary", family=family)

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_prometheus(service, *, stream=None, admin=None,
                      history: MetricsHistory | None = None,
                      rate: float | None = None,
                      uptime: float | None = None) -> str:
    """The ``GET /metrics`` text body for one scrape.

    ``service`` is the :class:`~repro.server.tenants.MultiTenantService`,
    rendered from its :meth:`~repro.server.tenants.MultiTenantService.gauges`;
    ``stream``/``admin`` enrich with listener/quarantine and admin-plane
    counters; ``rate`` is the history-derived events/s the caller
    already computed (the admin server owns the anchor logic).
    """
    exp = _Exposition()
    gauges = service.gauges()
    exp.emit("repro_up", 1, help="The retention server is answering.")
    if uptime is not None:
        exp.emit("repro_uptime_seconds", max(0.0, uptime),
                 help="Seconds since the admin plane started.")
    exp.emit("repro_cursor_events", gauges["cursor"],
             help="Merged events fully consumed (the resume cursor).")
    exp.emit("repro_next_boundary_day", gauges["next_boundary"],
             help="The next day boundary the engine will fire.")
    if rate is not None:
        exp.emit("repro_ingest_events_per_second", max(0.0, rate),
                 help="Ingest rate derived from the metrics history ring.")
    for kind in ("job", "publication", "access"):
        exp.emit("repro_events_total", gauges[f"events_{kind}"],
                 {"kind": kind}, type="counter",
                 help="Merged events consumed, by kind.")
    exp.emit("repro_dropped_accesses_total", gauges["dropped_accesses"],
             type="counter",
             help="Out-of-window access events dropped.")
    exp.emit("repro_activeness_evals_total", gauges["activeness_evals"],
             type="counter",
             help="Distinct-parameter activeness folds performed.")
    exp.emit("repro_eval_users_total", gauges["eval_users"], type="counter",
             help="User-type histories visited across evaluations.")
    exp.emit("repro_eval_refolded_total", gauges["eval_refolded"],
             type="counter",
             help="User-type histories actually refolded (cache misses).")
    exp.emit("repro_refold_fraction", gauges["refold_fraction"],
             help="Refolded share of evaluated user-type histories.")

    # -- checkpoint chain health --------------------------------------
    exp.emit("repro_checkpoints_written_total",
             gauges["checkpoints_written"],
             type="counter", help="Checkpoint links written.")
    exp.emit("repro_checkpoint_failures_total",
             gauges["checkpoint_failures"],
             type="counter", help="Checkpoint writes that failed.")
    age = service.checkpoint_age()
    if age is not None:
        exp.emit("repro_checkpoint_age_seconds", age,
                 help="Seconds since the newest checkpoint link was "
                      "written (clamped at zero).")

    # -- ingest plane --------------------------------------------------
    if stream is not None:
        quarantine = stream.quarantine
        exp.emit("repro_quarantined_total", int(quarantine.total),
                 type="counter", help="Events diverted to quarantine.")
        for reason, count in sorted(quarantine.by_reason.items()):
            exp.emit("repro_quarantined_reason_total", int(count),
                     {"reason": reason}, type="counter",
                     help="Quarantined events by reason code.")
        listener = getattr(stream, "listener", None)
        if listener is not None:
            exp.emit("repro_connections_accepted_total",
                     int(listener.connections_accepted), type="counter",
                     help="Producer connections accepted.")
            exp.emit("repro_connections_refused_total",
                     int(listener.connections_refused), type="counter",
                     help="Producer connections refused at handshake.")
            exp.emit("repro_decode_errors_total",
                     int(listener.decode_errors), type="counter",
                     help="Frames/rows that failed wire decoding.")
            exp.emit("repro_batches_received_total",
                     int(listener.batches_received), type="counter",
                     help="Binary batch frames decoded.")
            exp.emit("repro_batch_rows_received_total",
                     int(listener.batch_rows_received), type="counter",
                     help="Rows carried by decoded batch frames.")
            exp.summary("repro_batch_decode_seconds",
                        tail_stats(listener.decode_seconds),
                        help="Per-batch decode wall seconds "
                             "(recent window).")
            for src in listener.sources():
                exp.emit("repro_source_queue_depth", src.queue.qsize(),
                         {"source": src.name},
                         help="Backpressure queue depth per source.")

    # -- per-tenant ----------------------------------------------------
    for name, tenant in gauges["tenants"].items():
        label = {"tenant": name}
        exp.emit("repro_tenant_triggers_total", tenant["triggers"],
                 label, type="counter",
                 help="Purge triggers fired per tenant.")
        exp.emit("repro_tenant_live_files", tenant["live_files"], label,
                 help="Live files in the tenant's replay state.")
        exp.emit("repro_tenant_live_bytes", tenant["live_bytes"], label,
                 help="Live bytes in the tenant's replay state.")
        if service.capacity_bytes:
            exp.emit("repro_tenant_utilization", tenant["utilization"],
                     label, help="Live bytes over filesystem capacity.")
        exp.emit("repro_tenant_purged_bytes_total", tenant["purged_bytes"],
                 label, type="counter",
                 help="Bytes purged by the tenant's triggers.")
        exp.emit("repro_tenant_purged_files_total", tenant["purged_files"],
                 label, type="counter",
                 help="Files purged by the tenant's triggers.")
        exp.emit("repro_tenant_target_misses_total", tenant["target_misses"],
                 label, type="counter",
                 help="Triggers that failed to reach the purge target.")
        exp.summary("repro_trigger_latency_seconds",
                    tenant["trigger_latency"], label,
                    help="Per-trigger wall seconds (recent window).")

    # -- forecasts (from the newest history sample) --------------------
    if history is not None:
        newest = history.last()
        if newest:
            for name, info in (newest.get("tenants") or {}).items():
                forecast = (info or {}).get("forecast_days_to_capacity")
                if isinstance(forecast, (int, float)) and forecast >= 0:
                    exp.emit("repro_tenant_forecast_days_to_capacity",
                             forecast, {"tenant": name},
                             help="Linear-growth days until the tenant "
                                  "fills capacity (from the history "
                                  "ring).")
        exp.emit("repro_metrics_history_samples_total", history.seq,
                 type="counter",
                 help="Samples appended to the metrics history ring.")
        exp.emit("repro_metrics_history_rotations_total", history.rotations,
                 type="counter",
                 help="Metrics history file rotations this incarnation.")

    # -- admin plane ---------------------------------------------------
    if admin is not None:
        exp.emit("repro_admin_requests_total", int(admin.requests),
                 type="counter", help="Admin requests served.")
        exp.emit("repro_admin_errors_total", int(admin.errors),
                 type="counter", help="Admin requests that errored.")
    return exp.render()
