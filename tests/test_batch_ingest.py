"""Binary columnar batch-ingest suite (protocol v2).

Pins the wire contract of the negotiated batch path end to end:

1. the ``hello`` handshake grants the capability intersection and a
   clamped batch-frame cap, and a v2 client facing a v1-only server
   falls back to JSON event frames (or, on the no-fallback
   ``publish_batches`` path, fails loudly);
2. an oversized length prefix is refused *before* any body bytes are
   buffered, under the negotiated cap, not the v1 default;
3. malformed rows inside an otherwise well-formed binary batch are
   diverted to the quarantine with the same dead-letter reason codes a
   v1 peer would produce, and the engine result stays bit-identical to
   a clean file replay;
4. torn and CRC-failing batch frames (via the faults harness) divert
   without poisoning the connection's earlier or -- for a CRC failure,
   where the envelope is still in sync -- later frames;
5. the admin plane reports TARE-style decode and trigger latency tails.
"""

from __future__ import annotations

import time

import pytest

from repro.emulation import replay_bounds
from repro.faults import corrupt_frame_bytes
from repro.server import (AdminServer, HashRing, MultiTenantService,
                          NetworkEventStream, ShardRouter, SocketListener,
                          TenantSpec, admin_request, publish_batches,
                          publish_events)
from repro.server.ingest import PublishRefused
from repro.server.protocol import (BATCH_MAX_FRAME_BYTES, CAP_BATCH,
                                   CAP_ZLIB, PROTOCOL_V2, FrameError,
                                   FrameReader, connect_socket,
                                   encode_batch, encode_batch_frame,
                                   write_frame)
from repro.stream import dataset_event_stream
from repro.stream.batch import BatchBuilder
from repro.stream.events import EVENT_ACCESS, EVENT_JOB, StreamEvent
from repro.stream.reliability.quarantine import (REASON_CORRUPT_FRAME,
                                                 REASON_UNKNOWN_UID,
                                                 REASON_UNPARSABLE)
from repro.traces.schema import AppAccessRecord, JobRecord
from repro.synth import TitanConfig, generate_dataset

from conftest import as_runs


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(TitanConfig(n_users=40, seed=7))


@pytest.fixture(scope="module")
def events(dataset):
    return list(dataset_event_stream(dataset))


@pytest.fixture(scope="module")
def known(dataset):
    return [u.uid for u in dataset.users]


def make_service(dataset, known):
    spec = TenantSpec(name="activedr", policy="activedr")
    start, end = replay_bounds(dataset)
    return MultiTenantService(
        [(spec, spec.build_policy())], snapshot_fs=dataset.filesystem,
        replay_start=start, replay_end=end, known_uids=known)


def assert_same_result(got, want, context):
    assert got.reports == want.reports, context
    assert got.final_classes == want.final_classes, context
    assert got.final_total_bytes == want.final_total_bytes, context
    assert got.final_file_count == want.final_file_count, context


def encode_events(rows):
    builder = BatchBuilder()
    builder.extend(rows)
    return encode_batch(builder.build())


def v2_connect(address, source, *, caps=(CAP_BATCH,),
               want=BATCH_MAX_FRAME_BYTES):
    sock = connect_socket(address, timeout=10)
    reader = FrameReader(sock)
    write_frame(sock, {"type": "hello", "source": source, "producer": "t",
                       "protocol": PROTOCOL_V2, "capabilities": list(caps),
                       "max_frame_bytes": int(want)})
    return sock, reader, reader.read_message()


def drain_rows(stream):
    """Total event rows the guarded merge delivers."""
    return sum(item.n_rows for item in iter(stream))


def _wait(predicate, seconds, what):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _sock(tmp_path, name):
    return f"unix:{tmp_path / name}"


# ---------------------------------------------------------------------------
# negotiation


def test_hello_negotiation_grants_intersection_and_clamped_cap(tmp_path):
    address = _sock(tmp_path, "nego.sock")
    with SocketListener(address, expected={"jobs": 3},
                        max_batch_frame_bytes=1 << 20):
        # Ask for more than the listener ceiling, plus a capability this
        # build has never heard of: the grant is the intersection, the
        # cap is clamped to the ceiling.
        sock, _, ack = v2_connect(address, "jobs",
                                  caps=(CAP_BATCH, CAP_ZLIB, "warp-drive"),
                                  want=8 << 20)
        sock.close()
        assert ack["type"] == "ok" and ack["protocol"] == PROTOCOL_V2
        assert ack["capabilities"] == [CAP_BATCH, CAP_ZLIB]
        assert ack["max_frame_bytes"] == 1 << 20
        # A modest ask is granted verbatim ...
        sock, _, ack = v2_connect(address, "jobs", want=64 << 10)
        sock.close()
        assert ack["max_frame_bytes"] == 64 << 10
        # ... and a degenerate one is floored, never zero or negative.
        sock, _, ack = v2_connect(address, "jobs", want=1)
        sock.close()
        assert ack["max_frame_bytes"] == 4096


def test_v2_publisher_falls_back_to_v1_only_server(tmp_path, events, known):
    address = _sock(tmp_path, "v1only.sock")
    rows = [ev for ev in events if ev.kind == EVENT_JOB][:50]
    with SocketListener(address, expected={"jobs": 1},
                        protocols=(1,)) as listener:
        stream = NetworkEventStream(listener, known_uids=known)
        # publish_events offers v2+batch, is told "unsupported protocol",
        # and silently reconnects on the v1 JSON path: same events,
        # no binary frames on the wire.
        assert publish_events(address, "jobs", rows, batch_size=8192) == 50
        assert drain_rows(stream) == 50
        assert listener.batches_received == 0
        assert stream.quarantine.total == 0


def test_publish_batches_refuses_a_server_granting_no_batch_frames(
        tmp_path, events):
    import socket as socketlib
    import threading

    address = _sock(tmp_path, "nobatch.sock")
    server = socketlib.socket(socketlib.AF_UNIX)
    server.bind(address[len("unix:"):])
    server.listen(1)

    def ack_without_batch():
        conn, _ = server.accept()
        with conn:
            hello = FrameReader(conn).read_message()
            write_frame(conn, {"type": "ok", "protocol": PROTOCOL_V2,
                               "source": hello["source"], "cursor": 0,
                               "capabilities": [],
                               "max_frame_bytes": 4096})

    thread = threading.Thread(target=ack_without_batch, daemon=True)
    thread.start()
    try:
        with pytest.raises(PublishRefused, match="no batch frames") as exc:
            publish_batches(address, "jobs", [encode_events(events[:10])],
                            retry_for=30.0)
        assert not exc.value.retryable
    finally:
        thread.join(timeout=10)
        server.close()
    assert not thread.is_alive()


def test_publish_batches_refuses_v1_only_server(tmp_path, events):
    address = _sock(tmp_path, "refuse.sock")
    payload = encode_events(events[:10])
    with SocketListener(address, expected={"jobs": 1}, protocols=(1,)):
        # The load-generator path has no fallback by design: a server
        # that cannot speak v2 fails the publish loudly.
        with pytest.raises(PublishRefused, match="unsupported protocol"):
            publish_batches(address, "jobs", [payload])


# ---------------------------------------------------------------------------
# frame cap


def test_oversized_length_prefix_refused_not_allocated(tmp_path, known):
    address = _sock(tmp_path, "cap.sock")
    with SocketListener(address, expected={"jobs": 1},
                        max_batch_frame_bytes=8192) as listener:
        stream = NetworkEventStream(listener, known_uids=known)
        sock, _, ack = v2_connect(address, "jobs", want=8192)
        assert ack["max_frame_bytes"] == 8192
        # A prefix past the negotiated cap: the reader refuses on the
        # header alone (no body bytes are ever buffered -- none are even
        # sent) and the connection dies with one dead-letter record.
        sock.sendall(b"b20000\n")
        _wait(lambda: stream.quarantine.total == 1, 10,
              "the oversized frame to be diverted")
        sock.close()
        assert stream.quarantine.by_reason == {REASON_UNPARSABLE: 1}


#: A small listener ceiling keeps the split tests fast.
SMALL_CAP = 64 << 10


def _wide_paths(n, width):
    """``n`` access rows, each path ``width`` four-byte UTF-8 characters."""
    return [StreamEvent(1_000 + i, EVENT_ACCESS,
                        AppAccessRecord(1_000 + i, 7,
                                        f"/p{i}/" + "\U0001F600" * width,
                                        "access"))
            for i in range(n)]


def _publish_through(producer, address, rows, **kwargs):
    """Publish ``rows`` as one producer of ``accesses`` to ``address``
    (for ``"router"``, through a one-worker router in front of it);
    returns the router, or None."""
    builder = BatchBuilder()
    builder.extend(rows)
    if producer == "publish_events":
        assert publish_events(address, "accesses", rows,
                              **kwargs) == len(rows)
        return None
    if producer == "publish_batches":
        assert publish_batches(address, "accesses", [builder.build()],
                               **kwargs) == len(rows)
        return None
    # The router's front grants the default ceiling, so it accepts the
    # batch whole; its lane must fit the worker's small cap.
    router = ShardRouter("127.0.0.1:0", {"w0": address}, HashRing(["w0"]),
                         expected={"accesses": 1})
    assert publish_batches(router.address, "accesses",
                           [encode_batch(builder.build())]) == len(rows)
    return router


@pytest.mark.parametrize("producer",
                         ["publish_events", "publish_batches", "router"])
def test_every_producer_splits_batches_to_the_granted_cap(producer):
    rows = _wide_paths(200, 100)
    assert len(encode_events(rows)) > SMALL_CAP
    with SocketListener("127.0.0.1:0", expected={"accesses": 1},
                        max_batch_frame_bytes=SMALL_CAP) as worker:
        router = _publish_through(producer, worker.address, rows)
        if router is not None:
            try:
                assert router.join(timeout=30)
                lane = router.lane("accesses", "w0")
                assert lane.last_error is None
                assert int(lane.connects) == 1
            finally:
                router.close()
        source = worker.sources()[0]
        got = [ev for batch in source for ev in batch.iter_events()]
    assert got == rows                       # every row, once, in order
    assert source.duplicate_rows == 0
    assert worker.batches_received > 1       # split, not refused
    assert worker.decode_errors == 0


@pytest.mark.parametrize("producer",
                         ["publish_events", "publish_batches", "router"])
def test_a_row_over_the_granted_cap_fails_at_once(producer):
    rows = [StreamEvent(1_000, EVENT_ACCESS,
                        AppAccessRecord(1_000, 7, "/" + "x" * SMALL_CAP,
                                        "access"))]
    with SocketListener("127.0.0.1:0", expected={"accesses": 1},
                        max_batch_frame_bytes=SMALL_CAP) as worker:
        if producer != "router":
            # A retry window far longer than the refusal may take: it
            # must not be retried.
            with pytest.raises(PublishRefused, match="cannot be split") \
                    as exc:
                _publish_through(producer, worker.address, rows,
                                 retry_for=30.0)
            assert not exc.value.retryable
            return
        router = _publish_through(producer, worker.address, rows)
        try:
            lane = router.lane("accesses", "w0")
            _wait(lambda: lane.last_error is not None, 30,
                  "the lane to give up")
            assert lane.last_error.startswith("fatal:"), lane.last_error
            assert int(lane.connects) == 1   # no reconnect loop
        finally:
            router.close()
    assert worker.batches_received == 0


def test_frame_reader_refuses_oversized_prefix_without_body():
    import socket as socketlib
    left, right = socketlib.socketpair()
    try:
        reader = FrameReader(right, max_frame_bytes=4096)
        # Only the header is on the wire; a reader that tried to buffer
        # the claimed body would block here instead of raising.
        left.sendall(b"b999999999\n")
        with pytest.raises(FrameError, match="out of range"):
            reader.read()
    finally:
        left.close()
        right.close()


# ---------------------------------------------------------------------------
# malformed batches


def test_malformed_batch_rows_quarantined_with_reason_codes(
        tmp_path, dataset, events, known):
    clean = make_service(dataset, known).run(as_runs(events))

    # Splice two poison rows into the stream at monotone positions: a
    # job a v1 decode_event would refuse (node count zero -- forged
    # post-build, the record class refuses to construct it) and an
    # access by a uid outside the known set.
    tainted = list(events)
    k = next(i for i, ev in enumerate(tainted)
             if ev.kind == EVENT_JOB and i > len(tainted) // 3)
    anchor = tainted[k]
    forged_id = 999_999_991
    bad_job = JobRecord(job_id=forged_id, uid=anchor.payload.uid,
                        submit_ts=anchor.ts,
                        start_ts=anchor.payload.start_ts,
                        end_ts=anchor.payload.end_ts, num_nodes=1)
    tainted.insert(k + 1, StreamEvent(anchor.ts, EVENT_JOB, bad_job))
    m = (2 * len(tainted)) // 3
    bad_acc = AppAccessRecord(ts=tainted[m].ts, uid=977_001,
                              path="/intruder/file")
    tainted.insert(m + 1, StreamEvent(bad_acc.ts, EVENT_ACCESS, bad_acc))

    builder = BatchBuilder()
    builder.extend(tainted)
    batch = builder.build()
    jrow = sum(1 for ev in tainted[:k + 1] if ev.kind == EVENT_JOB)
    assert batch.job_id[jrow] == forged_id
    batch.job_nodes[jrow] = 0

    address = _sock(tmp_path, "poison.sock")
    with SocketListener(address, expected={"all": 1}) as listener:
        stream = NetworkEventStream(listener, known_uids=known)
        sent = publish_batches(address, "all", [batch],
                               frame_cap=BATCH_MAX_FRAME_BYTES)
        assert sent == len(tainted)
        service = make_service(dataset, known)
        results = service.run(iter(stream))
        assert listener.batch_rows_received == len(tainted)

    # Exactly the two poison rows are dead-lettered, each under the
    # reason code its failure mode demands, and the engine result is
    # bit-identical to the clean file replay.
    assert stream.quarantine.by_reason == {REASON_UNPARSABLE: 1,
                                           REASON_UNKNOWN_UID: 1}
    assert service.cursor == len(events)
    assert_same_result(results["activedr"], clean["activedr"],
                       "poisoned-batch run")


# ---------------------------------------------------------------------------
# torn and CRC-failing frames (faults harness)


def test_crc_failing_batch_frame_diverts_and_stream_continues(
        tmp_path, events, known):
    chunks = [events[0:1000], events[1000:2000], events[2000:3000]]
    frames = [encode_batch_frame(encode_events(c)) for c in chunks]
    address = _sock(tmp_path, "crc.sock")
    with SocketListener(address, expected={"feed": 1}) as listener:
        stream = NetworkEventStream(listener, known_uids=known)
        sock, reader, ack = v2_connect(address, "feed")
        assert ack["type"] == "ok"
        # Frame 2 fails its CRC trailer; the envelope is intact, so the
        # reader stays in sync and frame 3 still lands.
        sock.sendall(frames[0]
                     + corrupt_frame_bytes(frames[1], "crc")
                     + frames[2])
        write_frame(sock, {"type": "end"})
        end_ack = reader.read_message()
        assert end_ack is not None and end_ack["type"] == "ok"
        sock.close()
        assert drain_rows(stream) == 2000
        assert listener.batches_received == 2
    assert stream.quarantine.by_reason == {REASON_CORRUPT_FRAME: 1}


def test_torn_batch_frame_diverts_tail_keeps_delivered_prefix(
        tmp_path, events, known):
    chunks = [events[0:1000], events[1000:2000]]
    frames = [encode_batch_frame(encode_events(c)) for c in chunks]
    address = _sock(tmp_path, "torn.sock")
    with SocketListener(address, expected={"feed": 1}) as listener:
        stream = NetworkEventStream(listener, known_uids=known)
        sock, _, ack = v2_connect(address, "feed")
        assert ack["type"] == "ok"
        # A producer killed mid-sendall: frame 2 stops short and the
        # connection closes inside the frame body.  Past the tear there
        # is no sync point, so the tail is one dead-letter record and
        # everything decoded before it stays delivered.
        sock.sendall(frames[0] + corrupt_frame_bytes(frames[1], "torn"))
        sock.close()
        _wait(lambda: stream.quarantine.total == 1, 10,
              "the torn frame to be diverted")
        listener.close()  # no end frame ever arrives; finish the source
        assert drain_rows(stream) == 1000
    assert stream.quarantine.by_reason == {REASON_UNPARSABLE: 1}


# ---------------------------------------------------------------------------
# admin latency tails


def test_admin_metrics_report_decode_and_trigger_tails(
        tmp_path, dataset, events, known):
    address = _sock(tmp_path, "feed.sock")
    payloads = [encode_events(events[i:i + 8192])
                for i in range(0, len(events), 8192)]
    with SocketListener(address, expected={"all": 1}) as listener:
        stream = NetworkEventStream(listener, known_uids=known)
        publish_batches(address, "all", payloads)
        service = make_service(dataset, known)
        service.run(iter(stream))
        admin_at = _sock(tmp_path, "admin.sock")
        with AdminServer(admin_at, service, stream=stream):
            metrics = admin_request(admin_at, {"cmd": "metrics"})
    assert metrics["ok"], metrics
    decode = metrics["batch_decode_latency"]
    assert decode["count"] == len(payloads)
    assert 0.0 <= decode["p50"] <= decode["p95"] <= decode["p99"]
    trigger = metrics["trigger_latency"]
    assert trigger["count"] >= 1
    assert 0.0 <= trigger["p50"] <= trigger["p99"] <= trigger["max"]
