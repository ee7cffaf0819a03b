"""Span tracer for the pipeline benchmark's traced passes.

Every span is recorded from the benchmark's side of the API: the tracer
swaps each layer's public callable for a timing wrapper while a traced
pass runs and puts the original back afterwards, so untraced passes run
the program exactly as shipped.  Nothing under ``src/`` knows about it.

Spans (name, start, end, parent, thread) are kept in memory and written
out when the run ends.  A layer's self time is its span time minus the
time of the spans nested in it.  Per-row layers -- the trace readers, the
merged-stream pulls and the per-event ``ingest`` calls between them --
are timed in chunks of :data:`CHUNK_ROWS` rows and counted, so a million
rows never make a million spans or pay a million clock reads.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

CHUNK_ROWS = 256

#: The root spans the workloads open around their set-up and run phases.
SETUP_WINDOW = "workload.setup"
RUN_WINDOW = "workload.run"

#: Set-up layers: reported per pass as self seconds and calls.
SETUP_LAYERS = ("cli.workspace.load_workspace", "emulation.compile_dataset",
                "vfs.load_filesystem", "server.tenants.construct")
#: Per-row layers timed in chunks: self seconds, share and rows.
READ = "traces.io.read"
PULL = "stream.reliability.pull"
INGEST = "server.tenants.ingest"
CHUNK_LAYERS = (READ, PULL, INGEST)
#: Per-call layers: calls, self seconds, share and the latency tails.
INGEST_RUN = "server.tenants.ingest_run"
PULL_WAIT = "server.ingest.pull_wait"
DECODE = "server.protocol.decode_batch"
SAVE = "stream.checkpoint.save"
SPAN_LAYERS = (INGEST_RUN, PULL_WAIT, DECODE, "stream.state.evaluate",
               "core.incremental.evaluate", "core.classification.classify_all",
               "emulation.trigger", "emulation.replay_day_columns",
               "emulation.replay", "server.tenants.finalize", SAVE,
               "server.metrics.append")

#: Counts and ratios reported beside the layers: name -> unit.
EXTRA_METRICS = {
    f"{INGEST_RUN}.rows": "count",
    f"{SAVE}.bytes": "B",
    "stream.state.refold_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.unattributed_share": "frac",
}

_TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in SETUP_LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for layer in CHUNK_LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "frac"
        units[f"{layer}.rows"] = "count"
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "frac"
        units[f"{layer}.p50_ms"] = "ms"
        units[f"{layer}.tail_ms"] = "ms"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """In-memory span recorder plus the layer patches that feed it."""

    def __init__(self) -> None:
        #: Closed spans: (sid, name, start, end, parent sid, thread id).
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        #: Wrapped names absent from the program (reported, not fatal).
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, name, parent, time.perf_counter()

    def close(self, token: tuple) -> None:
        end = time.perf_counter()
        sid, name, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        elif sid in stack:
            stack.remove(sid)  # a generator span closed out of order
        self.spans.append((sid, name, start, end, parent,
                           threading.get_ident()))

    @contextmanager
    def span(self, name: str):
        token = self.open(name)
        try:
            yield
        finally:
            self.close(token)

    # -- wrappers ------------------------------------------------------

    def timed(self, name: str, fn, after=None):
        """``fn`` recorded as one span per call; ``after(args, result)``
        runs outside the span to bump counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def chunks(self, name: str, items):
        """Re-yield ``items``, timing each pull of CHUNK_ROWS rows."""
        it = iter(items)
        while True:
            token = self.open(name)
            chunk = list(itertools.islice(it, CHUNK_ROWS))
            self.close(token)
            if not chunk:
                return
            self.counters[f"{name}.rows"] += len(chunk)
            yield from chunk

    def file_pull(self, events):
        """The file path's engine loop split into its two layers.

        Pulling a chunk from the merged ``ReliableEventStream`` (guard,
        merge and the readers under them) is one ``pull`` span; the
        engine's work on that chunk until it asks for the next one --
        the per-event ``ingest`` calls and any boundaries they fire --
        is one ``ingest`` span, which the boundary spans nest in.
        """
        it = iter(events)
        while True:
            token = self.open(PULL)
            chunk = list(itertools.islice(it, CHUNK_ROWS))
            self.close(token)
            if not chunk:
                return
            self.counters[f"{PULL}.rows"] += len(chunk)
            self.counters[f"{INGEST}.rows"] += len(chunk)
            token = self.open(INGEST)
            try:
                yield from chunk
            finally:
                self.close(token)

    def pull_items(self, name: str, items):
        """Re-yield ``items`` with one span around every ``next``."""
        it = iter(items)
        while True:
            token = self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(token)
            yield item

    # -- patching ------------------------------------------------------

    def patch(self, name: str, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until
        :meth:`uninstall`; a missing attribute is recorded, not raised."""
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{name} ({owner.__name__}.{attr})")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every layer's public callable (see the layer table in
        README.md for what each one should move)."""
        import repro.cli.workspace as cli_workspace
        import repro.emulation as emulation
        import repro.emulation.compiled as compiled
        import repro.server.ingest as server_ingest
        import repro.server.tenants as tenants
        import repro.traces as traces
        import repro.vfs as vfs
        from repro.core.incremental import ColumnarActivityStore
        from repro.server.metrics import MetricsHistory
        from repro.stream.checkpoint import CheckpointManager
        from repro.stream.reliability.sources import ReliableEventStream
        from repro.stream.state import IncrementalActivenessState

        def timed(name, after=None):
            return lambda fn: self.timed(name, fn, after)

        def reader(fn):
            return functools.wraps(fn)(
                lambda *a, **k: self.chunks(READ, fn(*a, **k)))

        def count_rows(args, _result):
            self.counters[f"{INGEST_RUN}.rows"] += args[1].n_rows

        def count_bytes(_args, path):
            self.counters[f"{SAVE}.bytes"] += os.path.getsize(path)

        def wrap_sources(sources):
            return tuple((name, filename, reader(read), to_events)
                         for name, filename, read, to_events in sources)

        patch = self.patch
        patch("cli.workspace.load_workspace", cli_workspace, "load_workspace",
              timed("cli.workspace.load_workspace"))
        for owner in (emulation, emulation.runner):
            patch("emulation.compile_dataset", owner, "compile_dataset",
                  timed("emulation.compile_dataset"))
        for owner in (vfs, cli_workspace):
            patch("vfs.load_filesystem", owner, "load_filesystem",
                  timed("vfs.load_filesystem"))
        patch("server.tenants.construct", tenants.MultiTenantService,
              "__init__", timed("server.tenants.construct"))
        for owner in (traces, cli_workspace):
            for attr in ("read_users", "read_jobs", "read_publications",
                         "read_app_log"):
                patch(READ, owner, attr, reader)
        patch(READ, ReliableEventStream, "SOURCES", wrap_sources)
        patch(INGEST_RUN, tenants.MultiTenantService, "ingest_run",
              timed(INGEST_RUN, count_rows))
        patch(DECODE, server_ingest, "decode_batch", timed(DECODE))
        patch("stream.state.evaluate", IncrementalActivenessState,
              "evaluate", timed("stream.state.evaluate"))
        patch("core.incremental.evaluate", ColumnarActivityStore, "evaluate",
              timed("core.incremental.evaluate"))
        for owner in (tenants, compiled):
            patch("core.classification.classify_all", owner, "classify_all",
                  timed("core.classification.classify_all"))
            patch("emulation.replay_day_columns", owner, "replay_day_columns",
                  timed("emulation.replay_day_columns"))
        patch("emulation.trigger", compiled.TriggerEngine, "trigger",
              timed("emulation.trigger"))
        patch("emulation.replay", compiled.FastEmulator, "run",
              timed("emulation.replay"))
        patch("server.tenants.finalize", tenants.MultiTenantService,
              "finalize", timed("server.tenants.finalize"))
        patch(SAVE, CheckpointManager, "save", timed(SAVE, count_bytes))
        patch("server.metrics.append", MetricsHistory, "append",
              timed("server.metrics.append"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, the part of the
        self time spent outside set-up (``run_self_s``), durations."""
        child_time: dict[int, float] = defaultdict(float)
        parents: dict[int, tuple[str, int]] = {}
        for sid, name, start, end, parent, _thread in self.spans:
            child_time[parent] += end - start
            parents[sid] = (name, parent)

        def in_setup(sid: int) -> bool:
            name, parent = parents[sid]
            while parent in parents:
                name, parent = parents[parent]
            return name == SETUP_WINDOW

        out: dict[str, dict] = {}
        for sid, name, start, end, _parent, _thread in self.spans:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "run_self_s": 0.0,
                                        "durations": []})
            self_s = end - start - child_time.get(sid, 0.0)
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += self_s
            if not in_setup(sid):
                agg["run_self_s"] += self_s
            agg["durations"].append(end - start)
        return out

    def dump(self, path: str, header: dict) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump({**header, "missing": sorted(self.missing),
                       "counters": dict(self.counters),
                       "span_fields": ["id", "name", "start", "end",
                                       "parent", "thread"],
                       "spans": self.spans}, fh)
        os.replace(tmp, path)


def tail(durations: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(durations)
    for level in _TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= 10:
            return f"p{level:g}", float(np.percentile(durations, level))
    return None


def layer_metrics(summary: dict[str, dict], counters: dict[str, int],
                  n_passes: int) -> dict[str, float]:
    """Per-pass layer values for every name of
    :func:`per_layer_metric_units` except those the workload supplies
    (refold fraction, tracing overhead)."""
    window = summary.get(RUN_WINDOW, {}).get("total_s", 0.0)
    out: dict[str, float] = {}

    def stat(layer: str, key: str) -> float:
        return summary.get(layer, {}).get(key, 0)

    def share(layer: str) -> float:
        return stat(layer, "run_self_s") / window if window else 0.0

    for layer in SETUP_LAYERS:
        out[f"{layer}.self_s"] = stat(layer, "self_s") / n_passes
        out[f"{layer}.calls"] = stat(layer, "calls") / n_passes
    for layer in CHUNK_LAYERS:
        out[f"{layer}.self_s"] = stat(layer, "self_s") / n_passes
        out[f"{layer}.share"] = share(layer)
        out[f"{layer}.rows"] = counters.get(f"{layer}.rows", 0) / n_passes
    for layer in SPAN_LAYERS:
        durations = summary.get(layer, {}).get("durations", [])
        tail_at = tail(durations)
        out[f"{layer}.calls"] = stat(layer, "calls") / n_passes
        out[f"{layer}.self_s"] = stat(layer, "self_s") / n_passes
        out[f"{layer}.share"] = share(layer)
        out[f"{layer}.p50_ms"] = (1e3 * float(np.median(durations))
                                  if durations else 0.0)
        out[f"{layer}.tail_ms"] = 1e3 * tail_at[1] if tail_at else 0.0
    for name in (f"{INGEST_RUN}.rows", f"{SAVE}.bytes"):
        out[name] = counters.get(name, 0) / n_passes
    out["trace.unattributed_share"] = share(RUN_WINDOW)
    return out


def layer_table(summary: dict[str, dict], counters: dict[str, int],
                n_passes: int, missing) -> str:
    """Per-layer table, largest self time first.  ``work`` is rows for
    the per-row layers and calls for the rest; ``run share`` is self time
    outside set-up over run-window time; the run window's own self time
    is the engine thread's unattributed remainder."""
    window = summary.get(RUN_WINDOW, {}).get("total_s", 0.0)
    rows = []
    for name, agg in summary.items():
        if name == SETUP_WINDOW:
            continue
        durations = agg["durations"]
        tail_at = tail(durations) if name in SPAN_LAYERS else None
        rows.append((
            agg["self_s"] / n_passes,
            "engine unattributed" if name == RUN_WINDOW else name,
            (counters.get(f"{name}.rows") or agg["calls"]) / n_passes,
            agg["run_self_s"] / window if window else 0.0,
            (f"{1e3 * float(np.median(durations)):.3f}"
             if name in SPAN_LAYERS else "-"),
            (f"{tail_at[0]} {1e3 * tail_at[1]:.3f}" if tail_at else "-"),
            len(durations)))
    rows.sort(reverse=True)
    lines = [f"{'layer':34} {'work/pass':>10} {'self s/pass':>11} "
             f"{'run share':>9} {'p50 ms':>9} {'tail ms':>14} {'spans':>6}"]
    for self_s, label, work, share, p50, tail_text, spans in rows:
        lines.append(f"{label:34} {work:10.0f} {self_s:11.4f} "
                     f"{100 * share:8.1f}% {p50:>9} {tail_text:>14} "
                     f"{spans:6d}")
    for name in sorted(missing):
        lines.append(f"{name}: missing from the program")
    return "\n".join(lines)
