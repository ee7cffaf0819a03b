"""Networked multi-tenant server suite.

The acceptance bar, pinned here end to end:

1. every tenant of a fleet -- sharing ONE event feed and ONE incremental
   activeness state -- finalizes **bit-identical** to an independent
   batch ``FastEmulator`` run of its policy, for all four paper policies;
2. the sharing is real: N same-params tenants refold activeness once per
   trigger boundary, not N times;
3. the same bit-identity holds when the events arrive over sockets from
   concurrent producers, when a producer misbehaves (out-of-order events
   hit the quarantine, never the engine), across a checkpoint / kill /
   resume cycle, and through the real CLI under a supervised ``kill -9``;
4. the admin plane answers during active ingestion without stalling the
   event loop.
"""

from __future__ import annotations

import binascii
import glob
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import render_emulation_summary
from repro.core.activeness import UserActiveness
from repro.core.cache_policy import JobResidencyIndex
from repro.core.classification import UserClass
from repro.emulation import (DayPlan, EmulatorConfig, FastEmulator,
                             compile_dataset, replay_bounds)
from repro.server import (AdminServer, HashRing, MultiTenantService,
                          NetworkEventStream, SocketListener, TenantSpec,
                          admin_request, publish_batches, publish_events)
from repro.server.ingest import PublishRefused
from repro.server.protocol import (MAX_FRAME_BYTES, PROTOCOL_VERSION,
                                   FrameError, FrameReader, connect_socket,
                                   decode_event, encode_batch, encode_event,
                                   encode_frame, format_address,
                                   parse_address, write_frame)
from repro.stream import (CheckpointManager, DeadLetterLog,
                          dataset_event_stream, load_checkpoint,
                          skip_stream_items)
from repro.stream.batch import BatchBuilder
from repro.stream.checkpoint import (SERVER_CHECKPOINT_FORMAT,
                                     reports_from_member,
                                     reports_to_jsonable)
from repro.stream.events import (EVENT_ACCESS, EVENT_JOB, EVENT_PUBLICATION,
                                 StreamEvent, access_events, job_events,
                                 publication_events)
from repro.stream.reliability.quarantine import (REASON_REGRESSION,
                                                 REASON_UNPARSABLE)
from repro.cli.workspace import save_workspace
from repro.synth import TitanConfig, generate_dataset
from repro.traces.schema import JobRecord

from conftest import as_runs, expand_events
from test_compiled_replay import assert_results_equal
from test_stream_checkpoint import LEGACY_FORMATS, rewrite_as_legacy_layout

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# helpers


def build_policy(spec, dataset):
    residency = (JobResidencyIndex(dataset.jobs)
                 if spec.policy == "cache" else None)
    return spec.build_policy(residency=residency)


def make_fleet(dataset, specs, **kwargs):
    start, end = replay_bounds(dataset)
    pairs = [(spec, build_policy(spec, dataset)) for spec in specs]
    return MultiTenantService(
        pairs, snapshot_fs=dataset.filesystem,
        replay_start=start, replay_end=end,
        known_uids=[u.uid for u in dataset.users],
        policy_factory=lambda spec: build_policy(spec, dataset),
        **kwargs)


def batch_result(dataset, compiled, spec):
    """Independent single-policy FastEmulator run of one tenant's spec."""
    policy = build_policy(spec, dataset)
    known = [u.uid for u in dataset.users]
    return FastEmulator(policy, spec.retention_config().activeness,
                        EmulatorConfig()).run(compiled, known_uids=known)


@pytest.fixture(scope="module")
def dataset(tiny_dataset):
    return tiny_dataset


@pytest.fixture(scope="module")
def compiled(dataset):
    return compile_dataset(dataset)


@pytest.fixture(scope="module")
def events(dataset):
    return list(dataset_event_stream(dataset))


ALL_KINDS = [
    TenantSpec(name="flt", policy="flt"),
    TenantSpec(name="flt-target", policy="flt-target"),
    TenantSpec(name="activedr", policy="activedr"),
    TenantSpec(name="value", policy="value"),
    TenantSpec(name="cache", policy="cache"),
]

HETERO = [
    TenantSpec(name="a", policy="activedr"),
    TenantSpec(name="b", policy="activedr", purge_trigger_days=14,
               period_days=14.0),
    TenantSpec(name="c", policy="value", lifetime_days=30.0),
    TenantSpec(name="d", policy="cache", target=0.6),
]


def _sock(tmp_path, name):
    return f"unix:{tmp_path / name}"


# ---------------------------------------------------------------------------
# tenant specs


def test_tenant_spec_parse_roundtrip():
    spec = TenantSpec.parse("name=t1,policy=value,lifetime=30,target=0.6,"
                            "trigger=14,period=14")
    assert spec == TenantSpec(name="t1", policy="value", lifetime_days=30.0,
                              target=0.6, purge_trigger_days=14,
                              period_days=14.0)
    assert TenantSpec.from_jsonable(spec.to_jsonable()) == spec
    # Defaults apply for unspecified knobs.
    assert TenantSpec.parse("name=x").policy == "activedr"


@pytest.mark.parametrize("text", [
    "policy=flt",                    # no name
    "name=t1,flavor=spicy",          # unknown key
    "name=t1,policy",                # not key=value
    "name=t1,policy=lru",            # unknown policy kind
    "name=a,b,policy=flt",           # comma inside a name
])
def test_tenant_spec_parse_rejects(text):
    with pytest.raises(ValueError):
        TenantSpec.parse(text)


def test_tenant_spec_config_matches_knobs():
    spec = TenantSpec(name="t", policy="flt", lifetime_days=30.0,
                      target=0.7, purge_trigger_days=14, period_days=3.5)
    cfg = spec.retention_config()
    assert cfg.lifetime_days == 30.0
    assert cfg.purge_target_utilization == 0.7
    assert cfg.purge_trigger_days == 14
    assert cfg.activeness.period_days == 3.5


# ---------------------------------------------------------------------------
# wire protocol


def test_frame_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        messages = [{"type": "hello", "protocol": PROTOCOL_VERSION},
                    {"type": "event", "x": [1, 2, 3]},
                    {"type": "end"}]
        for msg in messages:
            write_frame(a, msg)
        a.close()
        reader = FrameReader(b)
        assert [reader.read() for _ in range(3)] == messages
        assert reader.read() is None  # clean EOF
    finally:
        b.close()


@pytest.mark.parametrize("payload", [
    b"xyz\n{}\n",                    # non-numeric length prefix
    b"5\n{}\n",                      # length longer than the body
    b"2\n{}",                        # missing trailing newline
    b"7\nnotjson\n",                 # body is not JSON
    b"3\n[1]\n",                     # body is not an object
    str(MAX_FRAME_BYTES + 1).encode() + b"\n",  # hostile length
])
def test_frame_reader_rejects_garbage(payload):
    a, b = socket.socketpair()
    try:
        a.sendall(payload)
        a.close()
        with pytest.raises(FrameError):
            FrameReader(b).read()
    finally:
        b.close()


def test_frame_encode_escapes_newlines_and_rejects_oversize():
    # JSON string escaping keeps the one-line-body invariant: embedded
    # newlines ride as \n escapes, never as raw frame-breaking bytes.
    frame = encode_frame({"k": "a\nb"})
    assert frame.count(b"\n") == 2  # length prefix + trailing terminator
    with pytest.raises(FrameError):
        encode_frame({"k": "x" * (MAX_FRAME_BYTES + 1)})


def test_event_codec_roundtrip(events):
    by_kind = {}
    for ev in events:
        by_kind.setdefault(ev.kind, ev)
    assert len(by_kind) == 3
    for ev in by_kind.values():
        frame = json.loads(json.dumps(encode_event(ev)))
        got = decode_event(frame)
        assert got == ev
    with pytest.raises(ValueError):
        decode_event({"kind": "meteor"})


def test_parse_address_spellings():
    assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
    assert parse_address("tcp:localhost:9000") == ("tcp", ("localhost", 9000))
    assert parse_address("localhost:9000") == ("tcp", ("localhost", 9000))
    assert format_address(parse_address("unix:/tmp/x.sock")) == \
        "unix:/tmp/x.sock"
    assert format_address(parse_address("localhost:9000")) == \
        "tcp:localhost:9000"
    for bad in ("unix:", "localhost", ":9000", "tcp:host:notaport"):
        with pytest.raises(ValueError):
            parse_address(bad)


# ---------------------------------------------------------------------------
# in-process fleet: bit-identity + shared evaluation


def test_fleet_matches_batch_per_policy(dataset, compiled, events):
    service = make_fleet(dataset, ALL_KINDS)
    results = service.run(as_runs(events))
    for spec in ALL_KINDS:
        assert_results_equal(results[spec.name],
                             batch_result(dataset, compiled, spec))
    # All five tenants share one params set: activeness is folded once
    # per trigger boundary (+1 for the initial classification), not 5x.
    triggers = max(t.stats["triggers"] for t in service.tenants)
    assert triggers > 10
    assert service.stats["activeness_evals"] == triggers + 1


def test_heterogeneous_fleet_matches_batch(dataset, compiled, events):
    service = make_fleet(dataset, HETERO)
    results = service.run(as_runs(events))
    for spec in HETERO:
        assert_results_equal(results[spec.name],
                             batch_result(dataset, compiled, spec))
    # Two distinct params sets among four tenants: strictly fewer folds
    # than the naive one-per-tenant-per-trigger accounting.
    naive = sum(t.stats["triggers"] + 1 for t in service.tenants)
    assert service.stats["activeness_evals"] < naive
    by_cadence = {t.name: t.stats["triggers"] for t in service.tenants}
    assert by_cadence["b"] * 2 == by_cadence["a"]  # 14-day vs 7-day cadence


def test_engines_build_no_per_user_activeness_objects(
        dataset, compiled, events, monkeypatch):
    # Both engines classify and scan each evaluation as columns: the
    # batch replay and a streaming ActiveDR tenant build no
    # UserActiveness at all.
    built = []
    init = UserActiveness.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[:1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(UserActiveness, "__init__", counting_init)
    spec = TenantSpec(name="activedr", policy="activedr")
    batch = batch_result(dataset, compiled, spec)
    assert batch.reports and built == []
    service = make_fleet(dataset, [spec])
    service.run(as_runs(events))
    assert service.tenants[0].stats["triggers"] > 10
    assert built == []
    UserActiveness(1)  # the counter itself is live
    assert built == [(1,)]


def test_fleet_builds_one_day_plan_per_flushed_day(dataset, compiled, events,
                                                   monkeypatch):
    # Every admitted tenant replays a flushed day through one shared
    # DayPlan of its records: four tenants, one plan per day.
    built = []
    build = DayPlan.build

    def counting_build(*args, **kwargs):
        plan = build(*args, **kwargs)
        built.append(plan.first_day)
        return plan

    monkeypatch.setattr(DayPlan, "build", staticmethod(counting_build))
    service = make_fleet(dataset, HETERO)
    results = service.run(as_runs(events))
    assert len(service.tenants) == len(results) == 4
    days = np.flatnonzero(np.diff(compiled.index.day_offsets)).tolist()
    assert len(days) > 100
    assert built == days


def test_admin_reads_of_the_evaluation_match_per_user_values(dataset,
                                                             events):
    # activity_summary and query_user read the newest evaluation's
    # columns; they must report what the per-user objects do.
    service = make_fleet(dataset, HETERO[:1])
    service.run(as_runs(events))
    (_, (t_c, table)), = service._last_eval.items()
    users = list(table.values())
    op = np.asarray([ua.op_rank for ua in users])
    oc = np.asarray([ua.oc_rank for ua in users])
    (entry,) = service.activity_summary()["params"].values()
    qs = (10.0, 25.0, 50.0, 75.0, 90.0, 99.0)
    assert entry["users"] == len(users)
    assert entry["op_active"] == int(np.count_nonzero(op >= 1.0))
    assert entry["oc_active"] == int(np.count_nonzero(oc >= 1.0))
    for name, ranks in (("op", op), ("oc", oc)):
        assert entry[f"{name}_rank_percentiles"] == {
            f"p{int(q)}": float(v)
            for q, v in zip(qs, np.percentile(ranks, qs))}
    ranked = max(users, key=lambda ua: (ua.has_op, ua.log_op))
    assert ranked.has_op
    info = service.query_user(ranked.uid)["tenants"]["a"]
    assert info["evaluated_at"] == t_c
    assert info["op_rank"] == ranked.op_rank
    assert info["oc_rank"] == ranked.oc_rank
    assert info["class"] == service.tenants[0].result().final_classes[
        ranked.uid].label
    assert service.query_user(10**9)["tenants"]["a"]["class"] is None


def test_owned_filter_classifies_only_owned_users(dataset, compiled,
                                                  events):
    # A shard worker's ActiveDR tenant classifies the users its ring
    # slice owns, and runs its triggers over that classification.
    ring = HashRing(["s00", "s01"])
    spec = TenantSpec(name="activedr", policy="activedr")
    whole = batch_result(dataset, compiled, spec)
    owned = {uid: cls for uid, cls in whole.final_classes.items()
             if ring.owner(uid) == "s00"}
    assert 0 < len(owned) < len(whole.final_classes)
    service = make_fleet(dataset, [spec])
    service.owned_filter = ring.owned_filter("s00")
    result = service.run(as_runs(events))["activedr"]
    assert result.final_classes == owned
    assert service.tenants[0].stats["triggers"] > 10
    assert len(result.reports) == len(whole.reports)
    for counts in result.group_count_history:
        assert sum(counts.values()) == len(owned)


# ---------------------------------------------------------------------------
# socket ingestion


def _publish_dataset(address, dataset, *, jobs=None):
    """Publish the dataset's three trace families over three connections."""
    feeds = {
        "jobs": jobs if jobs is not None else list(job_events(dataset.jobs)),
        "publications": list(publication_events(dataset.publications)),
        "accesses": list(access_events(dataset.accesses)),
    }
    errors = []

    def worker(name):
        try:
            publish_events(address, name, feeds[name], retry_for=30.0)
        except BaseException as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(name,), daemon=True)
               for name in feeds]
    for t in threads:
        t.start()
    return threads, errors


def test_socket_ingest_matches_batch(dataset, compiled, tmp_path):
    address = _sock(tmp_path, "ingest.sock")
    specs = HETERO[:2]
    with SocketListener(address) as listener:
        stream = NetworkEventStream(
            listener, known_uids=[u.uid for u in dataset.users])
        threads, errors = _publish_dataset(address, dataset)
        service = make_fleet(dataset, specs)
        results = service.run(iter(stream))
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
        for spec in specs:
            assert_results_equal(results[spec.name],
                                 batch_result(dataset, compiled, spec))
        report = stream.report()
        assert report["quarantine"]["quarantined"] == 0
        listing = listener.describe()
        for info in listing["sources"].values():
            assert info["finished"] and info["health"] == "ok"
        assert listing["connections_accepted"] == 3


def test_socket_out_of_order_event_is_quarantined(dataset, compiled,
                                                  tmp_path):
    # A producer that regresses in time: its offending event is diverted
    # to the quarantine, never reaches the engine, and the run stays
    # bit-identical to batch.
    address = _sock(tmp_path, "ooo.sock")
    jobs = list(job_events(dataset.jobs))
    early = jobs[5].payload
    bad_rec = replace(jobs[40].payload, job_id=999_999_999,
                      submit_ts=early.submit_ts, start_ts=early.start_ts,
                      end_ts=early.end_ts)
    tainted = jobs[:41] + [StreamEvent(bad_rec.submit_ts, EVENT_JOB,
                                       bad_rec)] + jobs[41:]
    spec = TenantSpec(name="solo", policy="activedr")
    with SocketListener(address) as listener:
        stream = NetworkEventStream(
            listener, known_uids=[u.uid for u in dataset.users])
        threads, errors = _publish_dataset(address, dataset, jobs=tainted)
        service = make_fleet(dataset, [spec])
        results = service.run(iter(stream))
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
    assert stream.quarantine.total == 1
    assert stream.quarantine.by_reason == {REASON_REGRESSION: 1}
    assert_results_equal(results[spec.name],
                         batch_result(dataset, compiled, spec))


def _serve_v1_with_poisoned_frame(dataset, compiled, events, tmp_path,
                                  k, body):
    """Serve ``events`` as v1 frames with the raw frame ``body`` sent
    between events ``k - 1`` and ``k``: the listener must divert it as an
    unparsable row, and the feed -- checkpoints included -- must stay
    bit-identical."""
    wire = b"".join([*(encode_frame(encode_event(ev)) for ev in events[:k]),
                     b"%d\n%s\n" % (len(body), body),
                     *(encode_frame(encode_event(ev)) for ev in events[k:]),
                     encode_frame({"type": "end"})])
    spec = TenantSpec(name="solo", policy="activedr")
    address = _sock(tmp_path, "poison.sock")
    with SocketListener(address, expected={"all": 1}) as listener:
        stream = NetworkEventStream(
            listener, known_uids=[u.uid for u in dataset.users])
        sock = connect_socket(address, timeout=30)
        reader = FrameReader(sock)
        write_frame(sock, {"type": "hello", "protocol": 1, "source": "all"})
        assert reader.read_message()["type"] == "ok"
        sender = threading.Thread(target=sock.sendall, args=(wire,),
                                  daemon=True)
        sender.start()
        service = make_fleet(dataset, [spec],
                             checkpoint_dir=str(tmp_path / "ck"))
        results = service.run(iter(stream))
        sender.join(timeout=30)
        assert not sender.is_alive()
        assert reader.read_message()["type"] == "ok"  # the end ack
        sock.close()
    assert stream.quarantine.by_reason == {REASON_UNPARSABLE: 1}
    assert service.cursor == len(events)
    assert service.stats["checkpoints_written"] >= 1
    assert service.stats["checkpoint_failures"] == 0
    assert_results_equal(results[spec.name],
                         batch_result(dataset, compiled, spec))


def test_v1_path_that_is_not_utf8_is_quarantined(dataset, compiled, events,
                                                 tmp_path):
    # JSON decodes a "\ud800" escape to a lone surrogate, which no UTF-8
    # encoder (v2 codec, path catalog, checkpoint) accepts: the listener
    # must quarantine that row like any schema violation.
    k = next(i for i in range(len(events) // 2, len(events))
             if events[i].kind == EVENT_ACCESS)
    poisoned = json.dumps({"type": "event", "kind": "access",
                           "ts": events[k].ts, "uid": events[k].payload.uid,
                           "op": "access", "path": "/proj/\ud800x"})
    assert "\\ud800" in poisoned  # ASCII escape on the wire
    _serve_v1_with_poisoned_frame(dataset, compiled, events, tmp_path, k,
                                  poisoned.encode("ascii"))


@pytest.mark.parametrize("job_id", ["10000000000000000000", "1e19",
                                    "Infinity"])
def test_v1_int_outside_int64_is_quarantined(dataset, compiled, events,
                                             tmp_path, job_id):
    # JSON allows integers no int64 column holds (and Python's decoder
    # reads 1e19 and Infinity as floats).  v1 frames are batched behind
    # the edge, so the listener must divert such a frame as unparsable
    # -- the rule the columnar trace readers apply to files -- instead
    # of letting the batch build raise in the engine thread.
    k = next(i for i in range(len(events) // 2, len(events))
             if events[i].kind == EVENT_JOB)
    job = events[k].payload
    body = ('{"type": "event", "kind": "job", "job_id": %s, "uid": %d, '
            '"submit_ts": %d, "start_ts": %d, "end_ts": %d, '
            '"num_nodes": 1, "cores_per_node": 1}'
            % (job_id, job.uid, job.submit_ts, job.start_ts, job.end_ts))
    _serve_v1_with_poisoned_frame(dataset, compiled, events, tmp_path, k,
                                  body.encode("ascii"))


@pytest.mark.parametrize("feed", ["file", "v2"])
def test_job_impact_outside_int64_is_quarantined(dataset, compiled, events,
                                                 tmp_path, feed):
    # Every field of this job fits an int64, but the engine scores a job
    # as nodes * cores * (end - start) in int64, where 4e9 x 4e9 cores
    # over one second wraps to a negative impact.  The guard must divert
    # the row as unparsable -- the rule for ints an int64 cannot hold --
    # instead of letting the activity store raise in the engine thread.
    k = next(i for i in range(len(events) // 2, len(events))
             if events[i].kind == EVENT_JOB)
    job = events[k].payload
    bad = replace(job, job_id=999_999_999, end_ts=job.start_ts + 1,
                  num_nodes=4_000_000_000, cores_per_node=4_000_000_000)
    spec = TenantSpec(name="solo", policy="activedr")
    known = [u.uid for u in dataset.users]
    if feed == "file":
        from repro.stream import ReliableEventStream
        from repro.traces import write_jobs

        ws = save_workspace(dataset, str(tmp_path / "ws"), n_shards=1)
        at = next(i for i, rec in enumerate(dataset.jobs)
                  if rec.job_id == job.job_id)
        write_jobs(os.path.join(ws, "jobs.txt.gz"),
                   dataset.jobs[:at] + [bad] + dataset.jobs[at:])
        stream = ReliableEventStream(ws, known_uids=known)
        service = make_fleet(dataset, [spec])
        results = service.run(iter(stream))
    else:
        tainted = events[:k] + [StreamEvent(bad.submit_ts, EVENT_JOB,
                                            bad)] + events[k:]
        payloads = []
        for lo in range(0, len(tainted), 8192):
            builder = BatchBuilder()
            builder.extend(tainted[lo:lo + 8192])
            payloads.append(encode_batch(builder.build()))
        address = _sock(tmp_path, "impact.sock")
        with SocketListener(address, expected={"all": 1}) as listener:
            stream = NetworkEventStream(listener, known_uids=known)
            publish_batches(address, "all", payloads)
            service = make_fleet(dataset, [spec])
            results = service.run(iter(stream))
            assert listener.decode_errors == 0
    assert stream.quarantine.by_reason == {REASON_UNPARSABLE: 1}
    assert service.cursor == len(events)
    assert_results_equal(results[spec.name],
                         batch_result(dataset, compiled, spec))


def test_v2_pool_path_that_is_not_utf8_is_quarantined(dataset, compiled,
                                                      events, tmp_path):
    # A v2 frame carries its string pool as raw bytes under a CRC the
    # producer computed, so a pool entry that is not UTF-8 arrives
    # intact.  Only the access row naming it may be diverted -- the rest
    # of its frame must still be ingested -- and neither the reader nor
    # the engine thread may raise, dead-lettering included.
    k = next(i for i in range(len(events) // 2, len(events))
             if events[i].kind == EVENT_ACCESS)
    marker = "/proj/poison-Zx"
    poisoned = StreamEvent(events[k].ts, EVENT_ACCESS,
                           replace(events[k].payload, path=marker))
    tainted = events[:k] + [poisoned] + events[k:]
    payloads = []
    for lo in range(0, len(tainted), 8192):
        builder = BatchBuilder()
        builder.extend(tainted[lo:lo + 8192])
        payload = encode_batch(builder.build())
        at = payload.find(marker.encode())
        if at >= 0:
            body = bytearray(payload[:-4])
            body[at + marker.index("Z")] = 0xFF  # not a UTF-8 lead byte
            payload = bytes(body) + struct.pack(
                "<I", binascii.crc32(body) & 0xFFFFFFFF)
        payloads.append(payload)
    spec = TenantSpec(name="solo", policy="activedr")
    address = _sock(tmp_path, "pool.sock")
    dead_path = str(tmp_path / "dead.jsonl")
    with SocketListener(address, expected={"all": 1}) as listener, \
            DeadLetterLog(dead_path) as dead_letter:
        stream = NetworkEventStream(
            listener, known_uids=[u.uid for u in dataset.users],
            dead_letter=dead_letter)
        publish_batches(address, "all", payloads)
        service = make_fleet(dataset, [spec],
                             checkpoint_dir=str(tmp_path / "ck"))
        results = service.run(iter(stream))
        assert listener.decode_errors == 0
    with open(dead_path) as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 1
    assert "'path': '/proj/poison-\\\\xffx'" in records[0]["event"]
    assert stream.quarantine.total == 1
    assert stream.quarantine.by_reason == {REASON_UNPARSABLE: 1}
    assert service.cursor == len(events)
    assert service.stats["checkpoint_failures"] == 0
    assert_results_equal(results[spec.name],
                         batch_result(dataset, compiled, spec))


@pytest.mark.parametrize("kind", ["unix", "tcp"])
def test_listener_close_stops_the_accept_thread(tmp_path, kind):
    address = (_sock(tmp_path, "close.sock") if kind == "unix"
               else "127.0.0.1:0")
    listener = SocketListener(address, expected={"jobs": 1})
    accept_thread = listener._accept_thread
    # One accepted connection, then a pause: the thread is back, blocked
    # in accept(), when close() runs.
    client = connect_socket(listener.address, timeout=10)
    _wait_for(lambda: listener.connections_accepted == 1, 10,
              "the connection to be accepted")
    time.sleep(0.2)
    assert accept_thread.is_alive()
    listener.close()
    client.close()
    accept_thread.join(timeout=1.0)
    assert not accept_thread.is_alive()


def test_listener_close_does_not_block_on_a_full_queue(tmp_path, events):
    listener = SocketListener(_sock(tmp_path, "full.sock"),
                              expected={"jobs": 1}, queue_size=1)
    source = listener.sources()[0]
    source.push(events[0])  # the queue is now full; nobody is reading
    closer = threading.Thread(target=listener.close, daemon=True)
    closer.start()
    closer.join(timeout=2.0)
    assert not closer.is_alive(), "close() blocked on the full queue"
    assert source.finished
    # A consumer still iterating gets every queued item, then the end.
    assert expand_events(source) == [events[0]]


def test_listener_refuses_bad_handshakes(tmp_path):
    address = _sock(tmp_path, "refuse.sock")
    with SocketListener(address, expected={"jobs": 1}) as listener:
        # Unknown source.
        with pytest.raises(PublishRefused, match="unexpected source"):
            publish_events(address, "meteors", [])
        # Wrong protocol version.
        sock = connect_socket(address, timeout=10)
        try:
            write_frame(sock, {"type": "hello", "protocol": 999,
                               "source": "jobs"})
            answer = FrameReader(sock).read()
            assert answer["type"] == "error"
            assert "protocol" in answer["reason"]
        finally:
            sock.close()
        # A producer reconnecting to a finished source is refused:
        # late re-publishes belong to a restarted server.
        assert publish_events(address, "jobs", []) == 0
        _wait_for(lambda: listener.sources()[0].finished, 10,
                  "the jobs source to finish")
        with pytest.raises(PublishRefused, match="already finished"):
            publish_events(address, "jobs", [])
        assert listener.connections_refused == 2


# ---------------------------------------------------------------------------
# runtime tenant add / remove


def test_runtime_add_and_remove_tenant(dataset, compiled, events):
    service = make_fleet(dataset, HETERO[:2])
    half = len(events) // 2
    for run in as_runs(events[:half]):
        service.ingest_run(run)
    boundary_at_add = service._next_boundary
    service.request_add_tenant(TenantSpec(name="late", policy="value"),
                               clone_from="a")
    service.request_remove_tenant("b")
    results = service.run(as_runs(events[half:]))
    assert set(results) == {"a", "late"}
    ok_ops = [e for e in service.op_log if e["ok"]]
    assert [e["op"] for e in ok_ops] == ["add", "remove"]
    late = service.tenant("late")
    assert late.admitted_boundary >= boundary_at_add
    # The latecomer only triggered from its admission on.
    assert 0 < late.stats["triggers"] < service.tenant("a").stats["triggers"]
    # Its state genuinely diverged from the donor after admission.
    assert len(late.reports) == late.stats["triggers"]
    # The clone shares no column with its donor: the latecomer's purges
    # never reach the donor, which still equals its standalone run.
    assert_results_equal(results["a"],
                         batch_result(dataset, compiled, HETERO[0]))


def test_runtime_ops_refused_cases(dataset, events):
    service = make_fleet(dataset, [TenantSpec(name="only", policy="flt")])
    service.request_remove_tenant("only")       # last tenant
    service.request_remove_tenant("ghost")      # no such tenant
    service.request_add_tenant(TenantSpec(name="only", policy="value"))
    for run in as_runs(events, size=1):         # ops drain at a boundary
        service.ingest_run(run)
        if len(service.op_log) >= 3:
            break
    errors = [e for e in service.op_log if not e["ok"]]
    assert len(errors) == 3
    assert "last" in errors[0]["error"]
    assert "no tenant" in errors[1]["error"]
    assert "already exists" in errors[2]["error"]
    assert [t.name for t in service.tenants] == ["only"]


def test_runtime_add_without_factory_is_refused(dataset, events):
    start, end = replay_bounds(dataset)
    spec = TenantSpec(name="t", policy="activedr")
    service = MultiTenantService(
        [(spec, build_policy(spec, dataset))],
        snapshot_fs=dataset.filesystem, replay_start=start, replay_end=end,
        known_uids=[u.uid for u in dataset.users])
    service.request_add_tenant(TenantSpec(name="more", policy="flt"))
    for run in as_runs(events, size=1):
        service.ingest_run(run)
        if service.op_log:
            break
    errors = [e for e in service.op_log if not e["ok"]]
    assert len(errors) == 1 and "policy factory" in errors[0]["error"]


# ---------------------------------------------------------------------------
# checkpoint / resume


def test_checkpoint_resume_is_bit_identical(dataset, compiled, events,
                                            tmp_path):
    ckdir = str(tmp_path / "ck")
    service = make_fleet(dataset, HETERO, checkpoint_dir=ckdir)
    assert service.run(as_runs(events), stop_after_events=len(events) // 2) \
        is None
    assert service.stats["checkpoints_written"] >= 1
    newest, failures = CheckpointManager(ckdir).latest_verified()
    assert newest is not None and not failures

    resumed = MultiTenantService.resume(
        newest, policy_factory=lambda spec: build_policy(spec, dataset),
        checkpoint_dir=str(tmp_path / "ck2"))
    assert resumed.cursor <= len(events) // 2
    results = resumed.run(skip_stream_items(as_runs(events),
                                            resumed.cursor))
    for spec in HETERO:
        assert_results_equal(results[spec.name],
                             batch_result(dataset, compiled, spec))


def test_resume_from_legacy_layout_is_bit_identical(dataset, compiled,
                                                    events, tmp_path):
    # A chain written in an earlier layout survives the upgrade: it
    # resumes bit-identically and the chain continues in the current
    # layout.  Server /1 has ``<U`` catalog paths and manifest; /2 has
    # deflated members and the reports inline in the manifest.
    for legacy_format in LEGACY_FORMATS[SERVER_CHECKPOINT_FORMAT]:
        ckdir = str(tmp_path / legacy_format.replace("/", "-"))
        service = make_fleet(dataset, HETERO, checkpoint_dir=ckdir)
        service.run(as_runs(events), stop_after_events=len(events) // 2)
        newest = CheckpointManager(ckdir).latest()
        rewrite_as_legacy_layout(newest, legacy_format)
        legacy, arrays = load_checkpoint(newest)
        assert legacy["format"] == legacy_format
        assert all("reports" in entry for entry in legacy["tenants"])
        assert not any(name.endswith("__reports") for name in arrays)
        if legacy_format == "repro-server-checkpoint/1":
            assert arrays["paths"].dtype.kind == "U"
        else:
            assert "paths" not in arrays
        with zipfile.ZipFile(newest) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_DEFLATED}

        resumed = MultiTenantService.resume(
            newest, policy_factory=lambda spec: build_policy(spec, dataset),
            checkpoint_dir=ckdir)
        assert resumed.catalog.paths == \
            service.catalog.paths[:resumed.catalog.n_paths]
        results = resumed.run(skip_stream_items(as_runs(events),
                                                resumed.cursor))
        for spec in HETERO:
            assert_results_equal(results[spec.name],
                                 batch_result(dataset, compiled, spec))
        upgraded, arrays = load_checkpoint(CheckpointManager(ckdir).latest())
        assert upgraded["format"] == SERVER_CHECKPOINT_FORMAT
        assert "paths" not in arrays
        assert all("reports" not in entry for entry in upgraded["tenants"])
        assert len(reports_from_member(arrays["t0__reports"])) == \
            len(results[HETERO[0].name].reports)


def test_links_encode_each_path_and_report_once(dataset, events, tmp_path,
                                                monkeypatch):
    # Every link stores the whole catalog and every tenant's reports,
    # but a path is packed, and a report JSON-encoded, once: when the
    # first link after it appeared is written.
    import repro.server.tenants as tenants_module
    import repro.stream.batch as batch_module

    packed, encoded = [], []
    pack, encode = batch_module.pack_strings, tenants_module.report_json

    def counting_pack(strings):
        strings = list(strings)
        packed.extend(strings)
        return pack(strings)

    def counting_encode(report):
        encoded.append(report)
        return encode(report)

    monkeypatch.setattr(batch_module, "pack_strings", counting_pack)
    monkeypatch.setattr(tenants_module, "report_json", counting_encode)
    ckdir = str(tmp_path / "ck")
    service = make_fleet(dataset, HETERO, checkpoint_dir=ckdir)
    service.run(as_runs(events), stop_after_events=len(events) // 2)
    assert service.stats["checkpoints_written"] >= 5
    assert encoded and len(set(map(id, encoded))) == len(encoded)
    service.reset_measurements()
    encoded.clear()
    results = service.run(skip_stream_items(as_runs(events),
                                            service.cursor))
    assert service.stats["checkpoints_written"] >= 10

    assert packed == service.catalog.paths
    made_since = [r for name in results for r in results[name].reports]
    assert made_since and sorted(map(id, encoded)) == \
        sorted(map(id, made_since))
    manifest, arrays = CheckpointManager(ckdir).load()
    assert manifest["cursor"] == len(events)
    assert arrays["path_blob"].tobytes() == pack(service.catalog.paths)[1]
    for i, tenant in enumerate(service.tenants):
        # Only the reports made since reset_measurements, encoded as
        # json.dumps would encode the whole list.
        member = arrays[f"t{i}__reports"]
        assert member.tobytes() == json.dumps(
            reports_to_jsonable(tenant.reports)).encode("utf-8")
        assert reports_from_member(member) == tenant.reports


def test_resume_sorts_stored_class_columns(dataset, compiled, events,
                                           tmp_path):
    # Links written before classifications were kept as uid-sorted
    # columns store each tenant's class columns in evaluation order.
    # (90-day periods keep some users active at the cut.)
    specs = [HETERO[0], TenantSpec(name="p90", policy="activedr",
                                   period_days=90.0)]
    ckdir = str(tmp_path / "ck")
    service = make_fleet(dataset, specs, checkpoint_dir=ckdir)
    service.run(as_runs(events), stop_after_events=len(events) // 2)
    manifest, arrays = load_checkpoint(CheckpointManager(ckdir).latest())
    for i in range(len(specs)):
        for name in ("class_uids", "class_codes"):
            key = f"t{i}__{name}"
            arrays[key] = np.ascontiguousarray(arrays[key][::-1])
    unsorted = CheckpointManager(str(tmp_path / "unsorted")).save(
        manifest, arrays)
    resumed = MultiTenantService.resume(
        unsorted, policy_factory=lambda spec: build_policy(spec, dataset))
    active = 0
    for i, tenant in enumerate(resumed.tenants):
        codes = arrays[f"t{i}__class_codes"]
        active += int(np.count_nonzero(codes != UserClass.BOTH_INACTIVE.value))
        assert np.array_equal(
            tenant.lookup.codes(arrays[f"t{i}__class_uids"]), codes)
    assert active
    results = resumed.run(skip_stream_items(as_runs(events),
                                            resumed.cursor))
    for spec in specs:
        assert_results_equal(results[spec.name],
                             batch_result(dataset, compiled, spec))


def test_seed_pending_resume_leaves_durable_ingest_unset(dataset, tmp_path):
    """A rebalance clone must not advertise the donor's ingest cursors.

    The clone's ``ingest`` section belongs to the DONOR's lane sequence
    domain; if the seeded worker reported it as its own durable cursors
    (admin health), the fleet would trim the worker's fresh resend
    lanes -- whose seqs start at 1 -- against the donor's much larger
    cursors and a kill -9 in that window would lose rows for good.
    """
    service = make_fleet(dataset, HETERO[:2])
    service.ingest_snapshot = lambda consumed: {
        "consumed": consumed,
        "source_seqs": {"jobs": 5000, "access": 7000}}

    def factory(spec):
        return build_policy(spec, dataset)

    own = CheckpointManager(str(tmp_path / "own"))
    service.save_checkpoint(manager=own)
    newest, failures = own.latest_verified()
    assert newest and not failures
    resumed = MultiTenantService.resume(newest, policy_factory=factory)
    assert not resumed.resumed_seed_pending
    # An own-chain checkpoint's cursors ARE durable here.
    assert resumed.last_durable_ingest["source_seqs"]["jobs"] == 5000

    clone = CheckpointManager(str(tmp_path / "clone"))
    service.save_checkpoint(manager=clone,
                            extra={"shard_seed_pending": True})
    newest, failures = clone.latest_verified()
    assert newest and not failures
    seeded = MultiTenantService.resume(newest, policy_factory=factory)
    assert seeded.resumed_seed_pending
    assert seeded.resumed_ingest is not None   # CLI gates listener seeding
    assert seeded.last_durable_ingest is None  # donor's domain, not ours


def test_duplicate_split_request_applies_once(dataset, events, tmp_path):
    """A re-issued shard split must not re-clone the narrowed donor.

    The fleet re-sends ``shard-split`` when the donor respawns during a
    rebalance; if the re-issue races the original ack both requests are
    queued, and a second application would checkpoint the already-
    restricted donor state over the seed clone in ``dest_dir``.
    """
    service = make_fleet(dataset, HETERO[:1])
    dest = str(tmp_path / "seed")
    payload = dict(at_boundary=1, dest_dir=dest,
                   keep_mask=lambda uids: uids % 2 == 0)
    service.request_split(**payload)
    service.request_split(**payload)
    service.run(as_runs(events))
    splits = [e for e in service.op_log if e["op"] == "split"]
    assert len(splits) == 2 and all(e["ok"] for e in splits)
    # Exactly one clone checkpoint: the duplicate was a no-op.
    assert len(glob.glob(os.path.join(dest, "checkpoint-*.npz"))) == 1


def test_restrict_users_counts_each_dropped_user_once(dataset, events):
    """``dropped_users`` -- the rebalance's "shed N users" -- counts
    distinct users: once for a user with both job and publication
    history, and also for a user whose only row arrived after the last
    activeness evaluation."""
    service = make_fleet(dataset, HETERO[:1])
    ingested = events[:len(events) // 2]
    for run in as_runs(ingested):
        service.ingest_run(run)
    newcomer = (max(u.uid for u in dataset.users) + 1) | 1
    last = ingested[-1].ts
    late = StreamEvent(last, EVENT_JOB,
                       JobRecord(10**9, newcomer, last, last, last + 60, 1))
    (run,) = as_runs([late])
    service.ingest_run(run)
    ingested.append(late)

    job_users = {e.payload.uid for e in ingested if e.kind == EVENT_JOB}
    authors = {uid for e in ingested if e.kind == EVENT_PUBLICATION
               for uid in e.payload.author_uids}
    dropped = {uid for uid in job_users | authors if uid % 2}
    assert dropped & job_users & authors
    assert newcomer in dropped
    counts = service.restrict_users(lambda uids: uids % 2 == 0)
    assert counts["dropped_users"] == len(dropped)


def test_resume_refuses_fingerprint_drift(dataset, events, tmp_path):
    ckdir = str(tmp_path / "ck")
    service = make_fleet(dataset, HETERO[:2], checkpoint_dir=ckdir)
    service.run(as_runs(events), stop_after_events=len(events) // 2)
    newest, _failures = CheckpointManager(ckdir).latest_verified()

    def drifted_factory(spec):
        return build_policy(replace(spec, lifetime_days=5.0), dataset)

    with pytest.raises(ValueError, match="fingerprint mismatch"):
        MultiTenantService.resume(newest, policy_factory=drifted_factory)


def test_resume_refuses_partial_day_checkpoint(dataset, events, tmp_path):
    service = make_fleet(dataset, HETERO[:1],
                         checkpoint_dir=str(tmp_path / "ck"))
    for run in as_runs(events, size=1):
        service.ingest_run(run)
        if service._day_buf:
            break
    with pytest.raises(ValueError, match="partial day"):
        service.save_checkpoint()


# ---------------------------------------------------------------------------
# admin plane


def test_admin_plane_answers_during_ingestion(dataset, compiled, events,
                                              tmp_path):
    service = make_fleet(dataset, HETERO[:2],
                         checkpoint_dir=str(tmp_path / "ck"))
    hold_at = len(events) // 3
    holding = threading.Event()   # ingest thread parked at hold_at
    release = threading.Event()   # admin side done with mid-flight queries

    def gated():
        yield from as_runs(events[:hold_at])
        holding.set()
        assert release.wait(60)
        yield from as_runs(events[hold_at:])

    address = _sock(tmp_path, "admin.sock")
    with AdminServer(address, service) as admin:
        thread = threading.Thread(target=service.run, args=(gated(),),
                                  daemon=True)
        thread.start()
        # Query the plane while ingestion is demonstrably mid-flight
        # (the feed is parked, not finished -- a stalled admin plane
        # would deadlock here, failing the wait below).
        assert holding.wait(60)
        status = admin_request(address, {"cmd": "status"})
        health = admin_request(address, {"cmd": "health"})
        metrics = admin_request(address, {"cmd": "metrics"})
        query = admin_request(
            address, {"cmd": "query", "uid": dataset.users[0].uid})
        for response in (status, health, metrics, query):
            assert response["ok"], response
        assert status["cursor"] == hold_at
        assert set(status["tenants"]) == {"a", "b"}
        assert health["healthy"] and health["quarantined"] == 0
        assert metrics["cursor"] == hold_at
        assert metrics["events_per_second"] >= 0.0
        assert set(query["tenants"]) == {"a", "b"}
        for info in query["tenants"].values():
            assert info["class"] is not None
            assert info["live_files"] >= 0
        # Unknown commands answer, they do not disconnect.
        bad = admin_request(address, {"cmd": "selfdestruct"})
        assert bad == {"ok": False,
                       "error": "unknown command 'selfdestruct'"}
        assert admin.requests >= 5 and admin.errors >= 1
        release.set()
        thread.join(timeout=120)
        assert not thread.is_alive()
        after = admin_request(address, {"cmd": "metrics"})
        assert after["checkpoints_written"] >= 1
        assert "checkpoint_age_seconds" in after
    # The run was not perturbed by the concurrent admin traffic.
    results = service.finalize()
    for spec in HETERO[:2]:
        assert_results_equal(results[spec.name],
                             batch_result(dataset, compiled, spec))


def test_admin_tenant_ops_are_queued(dataset, events, tmp_path):
    service = make_fleet(dataset, HETERO[:2])
    address = _sock(tmp_path, "admin-ops.sock")
    with AdminServer(address, service):
        added = admin_request(address, {
            "cmd": "tenants", "action": "add",
            "spec": TenantSpec(name="late", policy="flt").to_jsonable(),
            "clone_from": "a"})
        assert added == {"ok": True, "queued": True, "tenant": "late"}
        removed = admin_request(address, {"cmd": "tenants",
                                          "action": "remove", "name": "b"})
        assert removed["queued"]
        # Ops apply at the next boundary, not immediately.
        assert {t.name for t in service.tenants} == {"a", "b"}
        results = service.run(as_runs(events))
        assert set(results) == {"a", "late"}
        listing = admin_request(address, {"cmd": "tenants"})
        assert set(listing["tenants"]) == {"a", "late"}


# ---------------------------------------------------------------------------
# the full networked acceptance scenario, through the real CLI


N_USERS, SEED = 30, 7
SERVE_TENANTS = [
    TenantSpec(name="flt", policy="flt"),
    TenantSpec(name="activedr", policy="activedr"),
    TenantSpec(name="value", policy="value"),
    TenantSpec(name="cache", policy="cache"),
]


@pytest.fixture(scope="module")
def server_workspace(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("server") / "ws")
    save_workspace(generate_dataset(TitanConfig(n_users=N_USERS, seed=SEED)),
                   directory, n_shards=1)
    return directory


@pytest.fixture(scope="module")
def server_batch_summaries(server_workspace):
    from repro.cli.workspace import load_workspace

    ws = load_workspace(server_workspace)
    compiled = compile_dataset(ws)
    return {spec.name: render_emulation_summary(
        batch_result(ws, compiled, spec)) for spec in SERVE_TENANTS}


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return env


def _tenant_args():
    out = []
    for spec in SERVE_TENANTS:
        out += ["--tenant", f"name={spec.name},policy={spec.policy}"]
    return out


def _tenant_summaries(stdout):
    """Per-tenant summary blocks from fleet-serve stdout."""
    blocks, name, lines = {}, None, []
    for line in stdout.splitlines():
        m = re.match(r"=== tenant (\S+) \[\S+\] ===", line)
        if m:
            if name is not None:
                blocks[name] = "\n".join(lines).strip()
            name, lines = m.group(1), []
        elif line.startswith("supervisor:"):
            break
        elif name is not None:
            lines.append(line)
    if name is not None:
        blocks[name] = "\n".join(lines).strip()
    return blocks


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


def test_supervised_kill9_resumes_bit_identical(server_workspace,
                                                server_batch_summaries,
                                                tmp_path):
    """serve --listen under supervision: SIGKILL mid-ingest, auto-resume,
    per-tenant summaries bit-identical to batch."""
    ck = str(tmp_path / "ck")
    ingest = _sock(tmp_path, "ingest.sock")
    env = _cli_env()
    supervise = subprocess.Popen(
        [sys.executable, "-m", "repro", "supervise",
         "--checkpoint-dir", ck, "--backoff-base", "0.05",
         "--backoff-max", "0.5", "--healthy-seconds", "0",
         "--", "serve", "--workspace", server_workspace,
         "--listen", ingest, *(_tenant_args()),
         "--checkpoint-dir", ck],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    def publish():
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "publish",
             "--workspace", server_workspace, "--connect", ingest,
             "--retry-for", "120"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)

    publisher = republisher = None
    try:
        publisher = publish()
        # Kill the serve child (not the supervisor) once it has durably
        # checkpointed part of the trace.  The producer dies with it
        # (small feeds may already have been fully acked by the dead
        # incarnation, so only a fresh whole-trace publish can feed the
        # restarted server's fresh sources) -- publisher first, so its
        # retry loop cannot race a half-publish against the resumed
        # server before the re-publish below starts.
        _wait_for(lambda: glob.glob(os.path.join(ck, "checkpoint-*.npz")),
                  120, "a first checkpoint")
        publisher.kill()
        publisher.wait(timeout=60)
        pgrep = subprocess.run(["pgrep", "-P", str(supervise.pid)],
                               capture_output=True, text=True)
        children = [int(p) for p in pgrep.stdout.split()]
        assert children, "no serve child under the supervisor"
        os.kill(children[0], signal.SIGKILL)

        # The operator's (or init system's) response to the crash: run
        # the publish again; --retry-for rides out the restart gap and
        # the resumed server's cursor skips everything already consumed.
        republisher = publish()
        out, err = supervise.communicate(timeout=240)
        pub_out, pub_err = republisher.communicate(timeout=60)
    finally:
        for proc in (publisher, republisher, supervise):
            if proc is not None and proc.poll() is None:
                proc.kill()
    assert supervise.returncode == 0, (out, err)
    assert republisher.returncode == 0, (pub_out, pub_err)
    assert "published" in pub_out
    # The second incarnation really resumed from the chain.
    assert "resumed from" in out, (out, err)
    assert "restart 1/" in err, err
    summaries = _tenant_summaries(out)
    assert set(summaries) == {spec.name for spec in SERVE_TENANTS}
    for spec in SERVE_TENANTS:
        assert summaries[spec.name] == \
            server_batch_summaries[spec.name].strip(), spec.name
