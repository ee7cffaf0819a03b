"""The benchmark's three workloads, each a repeatable pass over one workspace.

A pass is set-up (everything until the program is ready to take input)
followed by the run (input to finalized results).  Every pass checks its
results against the reference digests that ``prepare.py`` computed from
the lifetime-90 spectrum replay, and accounts for every input event:
events quarantined, lost or applied twice count as failed.

The workloads call only the program's public Python API, through module
attributes so that a traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro.cli.workspace as cli_workspace
import repro.emulation as emulation
import repro.traces as traces
import repro.vfs as vfs
from repro.core import JobResidencyIndex
from repro.emulation.runner import ACTIVEDR, FLT, SCRATCHCACHE, VALUEBASED
from repro.server import MetricsHistory, MultiTenantService, TenantSpec
from repro.server.ingest import NetworkEventStream, SocketListener
from repro.stream import CheckpointManager, ReliableEventStream
from repro.stream.checkpoint import reports_to_jsonable

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))

SWEEP_LIFETIMES = (7.0, 30.0, 60.0, 90.0)
#: The sweep lifetime every serve workload must reproduce bit for bit.
REFERENCE_LIFETIME = 90.0
#: Tenant name -> the sweep policy it must equal.
TENANT_POLICIES = {"flt": FLT, "activedr": ACTIVEDR, "value": VALUEBASED,
                   "cache": SCRATCHCACHE}
ONE_TENANT = ("activedr",)
FOUR_TENANTS = ("flt", "activedr", "value", "cache")
#: The single socket source the publisher feeds.
FEED = "feed"
CHECKPOINT_EVERY_DAYS = 28


def result_digest(result) -> str:
    """SHA-256 over everything an :class:`EmulationResult` reports."""
    metrics = result.metrics
    h = hashlib.sha256(result.policy.encode())
    for series in (metrics.accesses, metrics.misses,
                   *(metrics.group_misses[cls]
                     for cls in sorted(metrics.group_misses,
                                       key=lambda c: c.value))):
        h.update(np.ascontiguousarray(series, dtype=np.int64).tobytes())
    doc = {
        "reports": reports_to_jsonable(result.reports),
        "group_counts": [sorted((cls.value, int(n))
                                for cls, n in counts.items())
                         for counts in result.group_count_history],
        "final_classes": sorted((int(uid), cls.value)
                                for uid, cls in result.final_classes.items()),
        "final_total_bytes": int(result.final_total_bytes),
        "final_file_count": int(result.final_file_count),
    }
    h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


@dataclass
class Pass:
    """One set-up plus run of a workload."""

    setup_s: float
    run_s: float
    #: Input events applied in the run window (the throughput numerator).
    events: int
    #: Events quarantined, lost or applied twice.
    failed: int
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    traced: bool = False
    #: The process's peak resident memory when the pass ended.
    peak_rss_mb: float = 0.0
    #: How fast the host ran during the pass, relative to the probe's
    #: reference speed (below 1 while it runs slow).
    host_speed: float = 1.0

    @property
    def ref_setup_s(self) -> float:
        """Set-up time at the reference host speed."""
        return self.setup_s * self.host_speed

    @property
    def events_per_s(self) -> float:
        """Throughput at the reference host speed."""
        return self.events / (self.run_s * self.host_speed)

    @property
    def raw_events_per_s(self) -> float:
        """Throughput as the wall clock saw it."""
        return self.events / self.run_s


class Child:
    """A helper process that takes one-line commands on its standard
    input and answers each with one line on its standard output: the
    socket publisher and the host-speed probe.  ``cpus``, if given, are
    the CPUs it may run on."""

    def __init__(self, script: str, *args: str, cpus=None,
                 timeout: float = 120.0) -> None:
        self.name = os.path.splitext(script)[0]
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._buf = b""
        try:
            if cpus:
                os.sched_setaffinity(self.proc.pid, cpus)
            self.expect("ready", timeout)
        except BaseException:
            self.close()
            raise

    def send(self, line: str) -> None:
        self.proc.stdin.write(f"{line}\n".encode())
        self.proc.stdin.flush()

    def expect(self, word: str, timeout: float = 60.0) -> str:
        """The rest of the next line, which must start with ``word``."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"{self.name} sent no {word!r} in "
                                   f"{timeout:g}s")
            readable, _, _ = select.select([fd], [], [], left)
            if readable:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise EOFError(f"{self.name} exited")
                self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        head, _, rest = line.decode().partition(" ")
        if head != word:
            raise RuntimeError(f"{self.name} said {line!r}, expected "
                               f"{word!r}")
        return rest

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Context:
    """What every pass of one run shares: the prepared workspace, the
    reference digests, the publisher and, on traced passes, the tracer.

    The publisher is the load generator of ``serve_socket4``: one child
    process with one thread, which opens one connection per ``publish``
    and sends the whole pre-encoded feed without pause (it fits in the
    listener's queue, so nothing holds it back).
    """

    def __init__(self, work_dir: str, info: dict) -> None:
        self.work_dir = work_dir
        self.ws_dir = os.path.join(work_dir, "workspace")
        self.n_events = int(info["n_events"])
        self.reference: dict[str, str] = info["reference"]
        self.publisher: Child | None = None
        self.tracer: tracing.Tracer | None = None
        #: Sweep digests of the non-reference lifetimes, fixed by the
        #: first pass; later passes must repeat them.
        self.sweep_digests: dict[str, str] = {}

    def phase(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def address(self, tag: str) -> str:
        path = os.path.join(self.work_dir, f"{tag}.sock")
        rel = os.path.relpath(path)
        # AF_UNIX paths are limited to ~107 bytes; relative is shorter.
        return f"unix:{rel if len(rel) < len(path) else path}"

    def fresh_dir(self, tag: str) -> str:
        path = os.path.join(self.work_dir, tag)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def check_tenants(self, results: dict) -> list[str]:
        errors = []
        for name, result in results.items():
            policy = TENANT_POLICIES[name]
            if result_digest(result) != self.reference[policy]:
                errors.append(f"tenant {name}: result differs from the "
                              f"lifetime-{REFERENCE_LIFETIME:g} {policy} "
                              f"replay")
        return errors

    def unaccounted(self, cursor: int, *streams) -> int:
        """Quarantined events plus events lost or applied twice."""
        return (sum(int(s.quarantine.total) for s in streams)
                + abs(cursor - self.n_events))


def _refold_frac(service: MultiTenantService) -> float:
    users = service.stats["eval_users"]
    return service.stats["eval_refolded"] / users if users else 0.0


def build_service(ctx: Context, tenant_names, **kwargs) -> MultiTenantService:
    """What ``activedr serve`` builds before it takes input: the snapshot
    file system, the known users and one policy per tenant."""
    ws = ctx.ws_dir
    with open(os.path.join(ws, "meta.json")) as fh:
        meta = json.load(fh)
    fs = vfs.load_filesystem(os.path.join(ws, "snapshot"),
                             size_seed=int(meta.get("size_seed", 2021)),
                             capacity_bytes=None)
    known = [u.uid for u in traces.read_users(os.path.join(ws,
                                                           "users.txt.gz"))]
    residency: list = []

    def factory(spec: TenantSpec):
        if spec.policy != "cache":
            return spec.build_policy()
        if not residency:
            residency.append(JobResidencyIndex(list(
                traces.read_jobs(os.path.join(ws, "jobs.txt.gz")))))
        return spec.build_policy(residency=residency[0])

    specs = [TenantSpec(name=name, policy=name,
                        lifetime_days=REFERENCE_LIFETIME,
                        period_days=REFERENCE_LIFETIME)
             for name in tenant_names]
    return MultiTenantService(
        [(spec, factory(spec)) for spec in specs], snapshot_fs=fs,
        replay_start=int(meta["replay_start"]),
        replay_end=int(meta["replay_end"]), known_uids=known,
        policy_factory=factory, **kwargs)


# ---------------------------------------------------------------------------
# the workloads


def replay_sweep(ctx: Context) -> Pass:
    """The offline what-if sweep behind the paper's lifetime figures."""
    with ctx.phase(tracing.SETUP_WINDOW):
        t0 = time.perf_counter()
        ws = cli_workspace.load_workspace(ctx.ws_dir)
        compiled = emulation.compile_dataset(ws)
        t1 = time.perf_counter()
    with ctx.phase(tracing.RUN_WINDOW):
        sweep = emulation.run_lifetime_sweep(
            ws, lifetimes=SWEEP_LIFETIMES, policies="spectrum",
            engine="fast", compiled=compiled)
        t2 = time.perf_counter()
    errors = []
    replays = 0
    for lifetime, comparison in sweep.items():
        for policy, result in comparison.results.items():
            replays += 1
            got = result_digest(result)
            if lifetime == REFERENCE_LIFETIME:
                want = ctx.reference[policy]
            else:
                want = ctx.sweep_digests.setdefault(
                    f"{lifetime:g}/{policy}", got)
            if got != want:
                errors.append(f"lifetime {lifetime:g} {policy}: result "
                              f"differs from the reference")
    return Pass(t1 - t0, t2 - t1, ctx.n_events * replays, 0, errors)


def serve_file(ctx: Context) -> Pass:
    """One ActiveDR tenant served from the workspace's trace files."""
    with ctx.phase(tracing.SETUP_WINDOW):
        t0 = time.perf_counter()
        service = build_service(ctx, ONE_TENANT)
        t1 = time.perf_counter()
    with ctx.phase(tracing.RUN_WINDOW):
        stream = ReliableEventStream(ctx.ws_dir)
        events = iter(stream)
        if ctx.tracer:
            events = ctx.tracer.file_pull(events)
        results = service.run(events)
        t2 = time.perf_counter()
    return Pass(t1 - t0, t2 - t1, ctx.n_events,
                ctx.unaccounted(service.cursor, stream),
                ctx.check_tenants(results),
                {"refold_frac": _refold_frac(service)})


def _pull(ctx: Context, stream):
    events = iter(stream)
    if ctx.tracer:
        events = ctx.tracer.pull_items(tracing.PULL_WAIT, events)
    return events


def serve_socket4(ctx: Context) -> Pass:
    """Four tenants sharing one binary feed over a unix socket,
    checkpointing every 28 days."""
    checkpoint_dir = ctx.fresh_dir("checkpoints")
    with ctx.phase(tracing.SETUP_WINDOW):
        t0 = time.perf_counter()
        history = MetricsHistory(os.path.join(checkpoint_dir,
                                              "metrics-history.jsonl"))
        service = build_service(
            ctx, FOUR_TENANTS,
            checkpoint_manager=CheckpointManager(checkpoint_dir),
            checkpoint_every_days=CHECKPOINT_EVERY_DAYS,
            metrics_history=history)
        listener = SocketListener(ctx.address("serve"), expected={FEED: 1})
        stream = NetworkEventStream(listener)
        service.ingest_snapshot = stream.sequence_snapshot
        t1 = time.perf_counter()
    try:
        with ctx.phase(tracing.RUN_WINDOW):
            ctx.publisher.send(f"publish {listener.address}")
            results = service.run(_pull(ctx, stream))
            t2 = time.perf_counter()
        status = ctx.publisher.expect("done")
    finally:
        listener.close()
        history.close()
    errors = ctx.check_tenants(results)
    if status != "ok":
        errors.append(f"publisher finished with {status!r}")
    return Pass(t1 - t0, t2 - t1, ctx.n_events,
                ctx.unaccounted(service.cursor, stream), errors,
                {"refold_frac": _refold_frac(service)})


WORKLOADS = {
    "replay_sweep": replay_sweep,
    "serve_file": serve_file,
    "serve_socket4": serve_socket4,
}


def check_reference_emulator(ctx: Context) -> list[str]:
    """The per-record reference ``Emulator`` must equal the fast engine's
    lifetime-90 ActiveDR replay (the smoke run's extra gate)."""
    ws = cli_workspace.load_workspace(ctx.ws_dir)
    sweep = emulation.run_lifetime_sweep(
        ws, lifetimes=(REFERENCE_LIFETIME,), policies=(ACTIVEDR,),
        engine="reference")
    got = result_digest(sweep[REFERENCE_LIFETIME][ACTIVEDR])
    if got != ctx.reference[ACTIVEDR]:
        return ["reference Emulator differs from the fast replay"]
    return []
