"""Exactly-once ingestion under network chaos.

The acceptance bar for the sequenced wire protocol, pinned end to end:

1. frame decoding is byte-dribble-proof: any split of the byte stream
   (including one byte at a time, and cuts around a batch frame's CRC
   trailer) decodes to the identical frame sequence, and an oversized
   length prefix is refused before a single body byte is buffered;
2. reconnect backoff is seeded jittered-exponential -- deterministic
   given a seed, capped, and never a fixed interval;
3. the edge enforces auth (constant-time shared secret, non-retryable
   ``unauthorized``) and overload protection (connection quota with
   retryable ``busy`` refusals);
4. re-publishing the same session is idempotent: the server's cursor
   skips everything already held, duplicates never reach the engine;
5. four producers streaming through a FaultPlan-scripted chaos proxy --
   severed connections mid-frame, stalls, split bytes, CRC corruption,
   and a ``kill -9`` of the server with ``--resume`` -- still land
   every event exactly once: per-tenant summaries are bit-identical to
   the batch ``FastEmulator``.
"""

from __future__ import annotations

import glob
import itertools
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.faults import ChaosProxy, FaultPlan
from repro.server import (NetworkEventStream, PublishRefused,
                          SocketListener, publish_batches, publish_events)
from repro.server.ingest import _backoff_delays
from repro.server.protocol import (BinaryFrame, FrameError, FrameReader,
                                   connect_socket, encode_batch,
                                   encode_batch_frame, encode_frame,
                                   write_frame)
from repro.stream.batch import BatchBuilder
from repro.stream.events import (EVENT_JOB, StreamEvent, access_events,
                                 job_events, publication_events)
from repro.traces import JobRecord
from repro.traces.io import read_app_log, read_jobs, read_publications
from repro.synth import TitanConfig, generate_dataset

from conftest import as_runs, expand_events
from test_server import (SERVE_TENANTS, _cli_env, _sock,
                         _tenant_args, _tenant_summaries, _wait_for,
                         server_batch_summaries, server_workspace)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# helpers


@pytest.fixture(scope="module")
def jobs_events():
    ds = generate_dataset(TitanConfig(n_users=12, seed=5))
    return list(job_events(ds.jobs))[:200]


def _drain(stream):
    """Expand a NetworkEventStream into a flat event list."""
    return expand_events(stream)


def _payloads(events):
    return [ev.payload for ev in events]


def workspace_source_factory(directory, source):
    """A replayable event factory for one of a workspace's trace files."""
    read, to_events, filename = {
        "jobs": (read_jobs, job_events, "jobs.txt.gz"),
        "publications": (read_publications, publication_events,
                         "publications.txt.gz"),
        "accesses": (read_app_log, access_events, "app_log.txt.gz"),
    }[source]
    return lambda: to_events(read(os.path.join(directory, filename)))


class _ScriptedSocket:
    """A fake socket serving a byte string in scripted chunk sizes."""

    def __init__(self, data: bytes, chunk: int | None = None):
        self.data = data
        self.pos = 0
        self.chunk = chunk
        self.recv_into_calls = 0

    def recv(self, n: int) -> bytes:
        take = min(n, self.chunk or n, len(self.data) - self.pos)
        out = self.data[self.pos:self.pos + take]
        self.pos += take
        return out

    def recv_into(self, view) -> int:
        self.recv_into_calls += 1
        take = min(len(view), self.chunk or len(view),
                   len(self.data) - self.pos)
        view[:take] = self.data[self.pos:self.pos + take]
        self.pos += take
        return take


def _read_all(reader):
    frames = []
    while True:
        frame = reader.read()
        if frame is None:
            return frames
        frames.append(frame)


# ---------------------------------------------------------------------------
# 1. frame reassembly under arbitrary splits


def _mixed_wire_bytes(jobs_events):
    builder = BatchBuilder()
    for ev in jobs_events[:40]:
        builder.extend([ev])
    batch = builder.build()
    payload = encode_batch(batch, seq=7)
    return (encode_frame({"type": "hello", "source": "jobs", "seq": 1})
            + encode_batch_frame(payload)
            + encode_frame({"type": "end", "source": "jobs"})), payload


def test_framereader_byte_dribble_identical(jobs_events):
    wire, payload = _mixed_wire_bytes(jobs_events)
    oneshot = _read_all(FrameReader(_ScriptedSocket(wire),
                                    max_frame_bytes=1 << 23))
    for chunk in (1, 2, 3, 7):
        dripped = _read_all(FrameReader(_ScriptedSocket(wire, chunk=chunk),
                                        max_frame_bytes=1 << 23))
        assert dripped == oneshot, f"chunk={chunk}"
    assert [type(f) for f in oneshot] == [dict, BinaryFrame, dict]
    assert bytes(oneshot[1]) == payload


def test_framereader_split_at_batch_trailer(jobs_events):
    """Cuts straddling the CRC trailer/newline decode identically."""
    wire, payload = _mixed_wire_bytes(jobs_events)
    oneshot = _read_all(FrameReader(_ScriptedSocket(wire),
                                    max_frame_bytes=1 << 23))
    # The batch frame ends at: hello + header + payload + newline.
    hello_len = len(encode_frame({"type": "hello", "source": "jobs",
                                  "seq": 1}))
    frame_end = hello_len + len(encode_batch_frame(payload))
    for cut in range(frame_end - 6, frame_end + 2):
        sock = _ScriptedSocket(wire)
        orig_recv = sock.recv

        def recv(n, sock=sock, cut=cut, orig=orig_recv):
            if sock.pos < cut:
                n = min(n, cut - sock.pos)
            return orig(n)

        sock.recv = recv
        frames = _read_all(FrameReader(sock, max_frame_bytes=1 << 23))
        assert frames == oneshot, f"cut={cut}"


def test_framereader_oversized_prefix_never_allocates():
    sock = _ScriptedSocket(b"999999999\n" + b"x" * 64)
    reader = FrameReader(sock, max_frame_bytes=1 << 20)
    with pytest.raises(FrameError, match="out of range"):
        reader.read()
    # Refused on the header alone: the right-sized body buffer (and its
    # recv_into fill loop) must never have been created.
    assert sock.recv_into_calls == 0


# ---------------------------------------------------------------------------
# 2. seeded jittered exponential backoff


def test_backoff_deterministic_jittered_capped():
    import random

    def take(seed, n=12):
        return list(itertools.islice(
            _backoff_delays(0.2, 5.0, random.Random(seed)), n))

    a, b, c = take(3), take(3), take(4)
    assert a == b                      # seeded: reproducible
    assert a != c                      # seed actually matters
    for k, delay in enumerate(a):
        base = min(5.0, 0.2 * (1 << min(k, 16)))
        assert 0.5 * base <= delay < base   # jitter range [0.5, 1.0)
    assert max(a) < 5.0                # cap holds
    assert a[1] != a[0] * 2            # jittered, not fixed doubling


def _batched(events):
    builder = BatchBuilder()
    builder.extend(events)
    return [builder.build()]


@pytest.mark.parametrize("publish, to_items",
                         [(publish_events, list), (publish_batches, _batched)],
                         ids=["publish_events", "publish_batches"])
def test_publish_backoff_schedule_used(jobs_events, tmp_path, publish,
                                       to_items):
    """Both publishers' retry loop sleeps exactly the seeded backoff
    schedule."""
    import random

    slept = []
    clock_now = [0.0]

    def fake_sleep(s):
        slept.append(s)
        clock_now[0] += s

    def fake_clock():
        clock_now[0] += 0.001
        return clock_now[0]

    dead = _sock(tmp_path, "nobody.sock")
    with pytest.raises((OSError, ConnectionError)):
        publish(dead, "jobs", to_items(jobs_events[:5]), retry_for=2.0,
                retry_interval=0.2, retry_cap=5.0, retry_seed=11,
                sleep=fake_sleep, clock=fake_clock)
    expected = list(itertools.islice(
        _backoff_delays(0.2, 5.0, random.Random(11)), len(slept)))
    assert slept == expected and len(slept) >= 2


# ---------------------------------------------------------------------------
# 3. auth + overload protection


def test_auth_token_gates_ingest(jobs_events):
    listener = SocketListener("127.0.0.1:0", expected={"jobs": 1},
                              auth_token="sesame")
    stream = NetworkEventStream(listener)
    try:
        with pytest.raises(PublishRefused, match="unauthorized") as exc:
            publish_events(listener.address, "jobs", jobs_events[:10])
        assert not exc.value.retryable  # no point retrying a bad secret
        with pytest.raises(PublishRefused, match="unauthorized"):
            publish_events(listener.address, "jobs", jobs_events[:10],
                           auth_token="wrong")
        assert int(listener.auth_failures) == 2
        n = publish_events(listener.address, "jobs", jobs_events[:10],
                           auth_token="sesame")
        assert n == 10
        assert len(_drain(stream)) == 10
    finally:
        listener.close()


def test_connection_quota_busy_refusal_retryable(jobs_events):
    listener = SocketListener("127.0.0.1:0", expected={"jobs": 1},
                              max_connections=1)
    stream = NetworkEventStream(listener)
    hog = connect_socket(listener.address)
    try:
        write_frame(hog, {"type": "hello", "protocol": 1,
                          "source": "jobs", "producer": "hog"})
        assert FrameReader(hog).read()["type"] == "ok"  # hog owns the slot

        done = threading.Event()

        def release_after_first_refusal(_s):
            # Back off once, then free the slot so the retry can land.
            if not done.is_set():
                hog.close()
                done.set()

        n = publish_events(listener.address, "jobs", jobs_events[:10],
                           retry_for=30.0, retry_interval=0.01,
                           retry_seed=1, sleep=release_after_first_refusal)
        assert n == 10
        assert int(listener.busy_refusals) >= 1
        assert len(_drain(stream)) == 10
    finally:
        hog.close()
        listener.close()


# ---------------------------------------------------------------------------
# 4. edge dedupe


def test_republish_same_session_is_idempotent(jobs_events):
    listener = SocketListener("127.0.0.1:0", expected={"jobs": 1})
    stream = NetworkEventStream(listener)
    try:
        kwargs = dict(session="prod:abc", batch_size=5)
        assert publish_events(listener.address, "jobs", jobs_events[:30],
                              **kwargs) == 30
        # Same producer incarnation publishes the identical range again
        # (e.g. it never saw the end ack): the hello cursor skips all 30
        # and the duplicate end is idempotent for the session.
        assert publish_events(listener.address, "jobs", jobs_events[:30],
                              **kwargs) == 30
        got = _drain(stream)
        assert _payloads(got) == _payloads(jobs_events[:30])
        source = listener.sources()[0]
        assert source.acked_seq == 30
    finally:
        listener.close()


def test_republished_raw_payloads_are_discarded_at_the_edge(jobs_events):
    """Raw payloads travel verbatim, never skipped client-side: a second
    session resending the same sequenced payloads is deduped by the
    edge, row for row."""
    payloads = [encode_batch(_batched(jobs_events[:20])[0], seq=1),
                encode_batch(_batched(jobs_events[20:40])[0], seq=21)]
    listener = SocketListener("127.0.0.1:0", expected={"jobs": 2})
    try:
        publish_batches(listener.address, "jobs", payloads)
        publish_batches(listener.address, "jobs", payloads)
        source = listener.sources()[0]
        assert source.acked_seq == 40
        assert source.duplicate_rows == 40
    finally:
        listener.close()


def test_relay_seq_offset_holdoff(jobs_events):
    """A second-slice producer is held off until its predecessor lands."""
    listener = SocketListener("127.0.0.1:0", expected={"jobs": 2})
    stream = NetworkEventStream(listener)
    events = jobs_events[:60]
    try:
        results = {}

        def slice_b():
            results["b"] = publish_events(
                listener.address, "jobs", events[40:], seq_offset=40,
                session="prod:b", retry_for=30.0, retry_interval=0.01,
                retry_seed=2, batch_size=7)

        t = threading.Thread(target=slice_b)
        t.start()
        time.sleep(0.05)  # let B hit the hold-off refusal first
        results["a"] = publish_events(
            listener.address, "jobs", events[:40], session="prod:a",
            batch_size=7)
        got = _drain(stream)
        t.join()
        assert (results["a"], results["b"]) == (40, 20)
        assert _payloads(got) == _payloads(events)
    finally:
        listener.close()


def test_queued_v1_events_leave_the_source_as_one_batch(jobs_events):
    """v1 events queued between two v2 batches leave their socket source
    as one batch carrying their sequence numbers, and the ledger maps
    every consumed row back to its exact wire seq."""
    events = jobs_events[:30]

    def feed(listener):
        (before,) = (run.batch for run in as_runs(events[:10]))
        (after,) = (run.batch for run in as_runs(events[20:]))
        source = listener.sources()[0]
        assert source.admit_batch(before, 1) == ("ok", 0)
        for seq, ev in enumerate(events[10:20], start=11):
            assert source.admit_event(ev, seq) == "ok"
        assert source.admit_batch(after, 21) == ("ok", 0)
        source.producer_ended()
        return source, before, after

    with SocketListener("127.0.0.1:0", expected={"jobs": 1}) as listener:
        source, before, after = feed(listener)
        batches = list(source)
    assert batches[0] is before and batches[2] is after
    assert [(b.first_seq, b.seq_width, b.n) for b in batches] == [
        (1, 10, 10), (11, 10, 10), (21, 10, 10)]
    assert expand_events(batches) == events

    with SocketListener("127.0.0.1:0", expected={"jobs": 1}) as listener:
        stream = NetworkEventStream(listener)
        feed(listener)
        runs = _snapshots(stream, lambda consumed: {"jobs": consumed})
    assert expand_events(runs) == events


def _snapshots(stream, want):
    """Drain ``stream`` the way the engine does, checking the ledger's
    cursors at every row of each run before pulling the next."""
    runs, consumed = [], 0
    for run in stream:
        runs.append(run)
        for c in range(consumed, consumed + run.n_rows + 1):
            assert stream.sequence_snapshot(c)["source_seqs"] == want(c)
        consumed += run.n_rows
    return runs


def test_ledger_cursors_follow_rows_through_the_merge():
    """Two finely interleaved sources, one with a diverted row inside a
    batch and one at its end: after every consumed row, each source's
    cursor is the seq its last consumed row covers (a batch's last
    surviving row covers the batch's trailing diverted rows)."""
    def job(ts, job_id):
        return StreamEvent(ts, EVENT_JOB,
                           JobRecord(job_id, 1, ts, ts, ts + 5, 1))

    a = [job(100 + 2 * k, k) for k in range(10)]
    a.insert(5, job(50, 100))        # seq 6: a time regression
    a.append(job(130, 0))            # seq 12: job 0 again
    b = [job(101 + 2 * k, 200 + k) for k in range(10)]
    with SocketListener("127.0.0.1:0",
                        expected={"a": 1, "b": 1}) as listener:
        stream = NetworkEventStream(listener)
        src_a, src_b = listener.sources()
        (batch,) = (run.batch for run in as_runs(a))
        assert src_a.admit_batch(batch, 1) == ("ok", 0)
        for first, rows in ((1, b[:4]), (5, b[4:])):
            (batch,) = (run.batch for run in as_runs(rows))
            assert src_b.admit_batch(batch, first) == ("ok", 0)
        src_a.producer_ended()
        src_b.producer_ended()
        kept = [(ev.ts, 0, seq) for seq, ev in enumerate(a, 1)
                if seq not in (6, 12)]
        kept += [(ev.ts, 1, seq) for seq, ev in enumerate(b, 1)]
        kept.sort()

        def want(consumed):
            cursors = {"a": 0, "b": 0}
            for _ts, i, seq in kept[:consumed]:
                cursors["ab"[i]] = 12 if (i, seq) == (0, 11) else seq
            return cursors

        runs = _snapshots(stream, want)
    assert [ev.ts for ev in expand_events(runs)] == [t for t, _, _ in kept]


# ---------------------------------------------------------------------------
# 5. chaos proxy: severs, stalls, splits, corruption -- exactly once


@pytest.mark.parametrize("batch_size", [5, 0])
def test_sever_stall_split_corrupt_exactly_once(jobs_events, batch_size):
    """Sequenced v2 batches (``batch_size`` 5) and sequenced v1 frames
    (0), which the listener batches as they queue."""
    listener = SocketListener("127.0.0.1:0", expected={"jobs": 1})
    stream = NetworkEventStream(listener)
    specs = [
        {"target": "net:jobs", "kind": "sever", "at": 900},
        {"target": "net:jobs", "kind": "sever", "at": 2400},
        {"target": "net:jobs", "kind": "sever", "at": 5000},
        {"target": "net:jobs", "kind": "stall", "at": 3100, "arg": 0.01},
        {"target": "net:jobs", "kind": "split", "at": 3200, "arg": 40},
    ]
    if batch_size:
        # A v1 frame carries no CRC, so a flipped bit there can decode
        # as a different valid event: only v2 is corrupted.
        specs.append({"target": "net:jobs", "kind": "corrupt", "at": 4000})
    plan = FaultPlan(specs, seed=7)
    with ChaosProxy("127.0.0.1:0", listener.address, plan) as proxy:
        stats: dict = {}
        done: dict = {}

        def produce():
            done["n"] = publish_events(
                proxy.address, "jobs", jobs_events, batch_size=batch_size,
                retry_for=60.0, retry_interval=0.05, retry_seed=3,
                stats=stats)

        t = threading.Thread(target=produce)
        t.start()
        got = _drain(stream)
        t.join()
    listener.close()
    assert done["n"] == len(jobs_events)
    # Exactly once, in order: nothing lost, nothing doubled.
    assert _payloads(got) == _payloads(jobs_events)
    assert proxy.severed == 3
    assert proxy.stalled == 1 and proxy.splits == 1
    if batch_size:
        # The corrupt frame was caught by CRC and recovered via
        # gap-resend.
        assert proxy.corrupted == 1
        assert int(listener.decode_errors) >= 1
        assert int(listener.sequence_gaps) >= 1
    assert stats["retries"] >= 3
    assert len(stats.get("recovery_seconds", [])) >= 3
    # The ledger decomposes the final cursor exactly.
    snap = stream.sequence_snapshot(len(jobs_events))
    assert snap["source_seqs"] == {"jobs": len(jobs_events)}


def test_chaos_proxy_transparent_without_specs(jobs_events):
    listener = SocketListener("127.0.0.1:0", expected={"jobs": 1})
    stream = NetworkEventStream(listener)
    with ChaosProxy("127.0.0.1:0", listener.address, FaultPlan()) as proxy:
        n = publish_events(proxy.address, "jobs", jobs_events,
                           batch_size=50)
        got = _drain(stream)
    listener.close()
    assert n == len(jobs_events)
    assert _payloads(got) == _payloads(jobs_events)
    assert proxy.severed == 0 and proxy.forwarded_bytes > 0


def test_closed_chaos_proxy_takes_no_more_connections(jobs_events,
                                                      tmp_path):
    """Regression: ``close()`` without ``shutdown()`` left the accept
    thread blocked in ``accept()``, holding the socket open, so the
    proxy took one more connection."""
    listener = SocketListener(_sock(tmp_path, "up.sock"),
                              expected={"jobs": 1})
    stream = NetworkEventStream(listener)
    proxy = ChaosProxy(_sock(tmp_path, "proxy.sock"), listener.address,
                       FaultPlan())
    try:
        publish_events(proxy.address, "jobs", jobs_events, batch_size=50)
        _drain(stream)
        assert proxy.connections == 1
        time.sleep(0.2)  # the accept thread is back in accept()
        proxy.close()
        with pytest.raises(OSError):
            connect_socket(proxy.address, timeout=5.0).close()
        time.sleep(0.2)
        assert proxy.connections == 1
    finally:
        proxy.close()
        listener.close()


# ---------------------------------------------------------------------------
# 6. THE acceptance gate: four producers, scripted severs, kill -9,
#    resume -- per-tenant summaries bit-identical to batch


def test_four_producers_severs_kill9_resume_bit_identical(
        server_workspace, server_batch_summaries, tmp_path):
    ck = str(tmp_path / "ck")
    ingest = _sock(tmp_path, "ingest.sock")
    proxy_addr = _sock(tmp_path, "proxy.sock")
    env = _cli_env()

    def serve(*extra):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workspace", server_workspace, "--listen", ingest,
             *(_tenant_args()), "--checkpoint-dir", ck,
             "--auth-token", "chaos-secret",
             "--expect-producers", "jobs=1,publications=1,accesses=2",
             *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)

    n_accesses = sum(1 for _ in workspace_source_factory(
        server_workspace, "accesses")())
    half = n_accesses // 2
    plan = FaultPlan([
        {"target": "net:jobs", "kind": "sever", "at": 7001},
        {"target": "net:accesses", "kind": "sever", "at": 5003},
        {"target": "net:accesses", "kind": "sever", "at": 12007},
        {"target": "net:publications", "kind": "stall", "at": 301,
         "arg": 0.05},
        {"target": "net:jobs", "kind": "split", "at": 9000, "arg": 64},
    ], seed=42)

    # The four producers of the scenario: one per trace family, with the
    # access trace relayed as two sequenced slices (B holds off until
    # A's slice is durable).
    def producer_specs():
        acc = workspace_source_factory(server_workspace, "accesses")
        return [
            ("jobs", workspace_source_factory(server_workspace, "jobs"),
             0, "chaos:jobs"),
            ("publications",
             workspace_source_factory(server_workspace, "publications"),
             0, "chaos:pubs"),
            ("accesses", lambda: itertools.islice(acc(), 0, half),
             0, "chaos:acc-a"),
            ("accesses", lambda: itertools.islice(acc(), half, None),
             half, "chaos:acc-b"),
        ]

    def launch_producers(proxy, errors):
        threads = []
        for name, factory, offset, session in producer_specs():
            def run(name=name, factory=factory, offset=offset,
                    session=session):
                try:
                    publish_events(proxy.address, name, factory,
                                   producer=session, session=session,
                                   seq_offset=offset, batch_size=64,
                                   auth_token="chaos-secret",
                                   retry_for=180.0, retry_interval=0.05,
                                   retry_seed=offset + len(name))
                except Exception as exc:  # surfaced after join
                    errors.append((session, exc))
            t = threading.Thread(target=run, daemon=True)
            t.start()
            threads.append(t)
        return threads

    errors: list = []
    server1 = serve()
    with ChaosProxy(proxy_addr, ingest, plan) as proxy:
        threads = launch_producers(proxy, errors)
        try:
            _wait_for(lambda: glob.glob(os.path.join(ck, "checkpoint-*.npz")),
                      120, "a first checkpoint")
            os.kill(server1.pid, signal.SIGKILL)
            server1.wait(timeout=60)

            server2 = serve("--resume")
            try:
                # A producer that finished against the dead incarnation
                # may hold events the checkpoint never saw; its retry
                # window has closed by now, so run every producer once
                # more -- exactly-once makes the replay free.
                for t in threads:
                    t.join(timeout=240)
                errors.clear()
                for t in launch_producers(proxy, errors):
                    t.join(timeout=240)
                out, err = server2.communicate(timeout=240)
            finally:
                if server2.poll() is None:
                    server2.kill()
        finally:
            if server1.poll() is None:
                server1.kill()
    assert not errors, errors
    assert server2.returncode == 0, (out, err)
    assert "resumed from" in out, (out, err)
    assert proxy.severed >= 3, proxy.describe()

    summaries = _tenant_summaries(out)
    assert set(summaries) == {spec.name for spec in SERVE_TENANTS}
    for spec in SERVE_TENANTS:
        assert summaries[spec.name] == \
            server_batch_summaries[spec.name].strip(), spec.name
