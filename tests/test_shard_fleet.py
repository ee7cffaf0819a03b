"""Router, result-merge and fleet-admin tests for the sharded fleet.

End-to-end fleet identity (kill -9, resume, rebalance) lives in the CI
sharded smoke; these tests cover the in-process pieces: routing
correctness under interleaved producers, the scatter/gather result
merge, and the fleet admin plane over real worker admin sockets.
"""

from __future__ import annotations

import binascii
import json
import re
import socket
import struct
import sys
import threading

import pytest

from repro.core.classification import UserClass
from repro.emulation.emulator import EmulationResult
from repro.faults import ChaosProxy, FaultPlan
from repro.server import (AdminServer, FleetAdmin, HashRing, ShardRouter,
                          SocketListener, TenantSpec, admin_request,
                          merge_tenant_results, publish_batches,
                          publish_events, scrape_metrics)
from repro.server.shard import ShardLane
from repro.server.ingest import _END
from repro.server.protocol import (FrameReader, connect_socket,
                                   encode_batch, encode_event, encode_frame,
                                   write_frame)
from repro.stream import (EVENT_ACCESS, EVENT_JOB, EVENT_PUBLICATION,
                          BatchBuilder, EventBatch, EventQuarantine,
                          StreamEvent, dataset_event_stream)
from repro.stream.reliability import REASON_UNPARSABLE
from repro.traces import AppAccessRecord, JobRecord, PublicationRecord

from conftest import as_runs
from test_observability import _SERIES_RE, _parse_exposition
from test_server import make_fleet


def _drain(listener: SocketListener) -> dict[str, list]:
    """Collect every routed event per source until each source ends."""
    out: dict[str, list] = {}
    for src in listener.sources():
        events = []
        while True:
            entry = src.queue.get(timeout=30)
            if entry is _END:
                break
            _seq, item = entry
            if isinstance(item, EventBatch):
                events.extend(item.iter_events())
            else:
                events.append(item)
        out[src.name] = events
    return out


def _job_events(uids, ts0):
    return [StreamEvent(ts0 + i, EVENT_JOB,
                        JobRecord(1000 + i, int(uid), ts0 + i, ts0 + i + 1,
                                  ts0 + i + 2, 1, 16))
            for i, uid in enumerate(uids)]


def test_router_routes_interleaved_producers_to_ring_owners():
    ring = HashRing(["w0", "w1"])
    expected_worker = {"jobs": 1, "publications": 1, "accesses": 1}
    with SocketListener("127.0.0.1:0", expected=expected_worker) as l0, \
            SocketListener("127.0.0.1:0", expected=expected_worker) as l1:
        router = ShardRouter(
            "127.0.0.1:0", {"w0": l0.address, "w1": l1.address}, ring,
            expected={"jobs": 2, "publications": 1, "accesses": 1})
        try:
            all_jobs = _job_events(range(800), ts0=1_000)
            # Two sequenced slices of one source, published concurrently:
            # the second holds off (gap-refused, retried) until the first
            # slice's rows are admitted -- the repo's multi-producer idiom.
            jobs_a, jobs_b = all_jobs[:400], all_jobs[400:]
            accesses = [StreamEvent(3_000 + i, EVENT_ACCESS,
                                    AppAccessRecord(3_000 + i, uid,
                                                    f"/f{uid}", "access"))
                        for i, uid in enumerate(range(0, 800, 7))]
            pubs = [StreamEvent(4_000 + i, EVENT_PUBLICATION,
                                PublicationRecord(i, 4_000 + i,
                                                  [i, 799 - i], 1))
                    for i in range(50)]

            threads = [
                threading.Thread(target=publish_events, args=(
                    router.address, "jobs", jobs_a),
                    kwargs=dict(session="pa", batch_size=16)),
                threading.Thread(target=publish_events, args=(
                    router.address, "jobs", jobs_b),
                    kwargs=dict(session="pb", batch_size=16,
                                seq_offset=len(jobs_a), retry_for=60.0,
                                retry_interval=0.05)),
                threading.Thread(target=publish_events, args=(
                    router.address, "accesses", accesses),
                    kwargs=dict(session="pc", batch_size=16)),
                threading.Thread(target=publish_events, args=(
                    router.address, "publications", pubs),
                    kwargs=dict(session="pd", batch_size=16)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=90)
                assert not t.is_alive()
            assert router.join(timeout=60)

            got0 = _drain(l0)
            got1 = _drain(l1)
        finally:
            router.close()

    by_worker = {"w0": got0, "w1": got1}
    # Jobs and accesses land exactly once, on their uid's ring owner.
    for source, published in (("jobs", all_jobs), ("accesses", accesses)):
        received = {w: by_worker[w][source] for w in ("w0", "w1")}
        assert (len(received["w0"]) + len(received["w1"])
                == len(published))
        for w, events in received.items():
            for ev in events:
                assert ring.owner(ev.payload.uid) == w
        want = {w: sorted((ev.ts, ev.payload.uid) for ev in published
                          if ring.owner(ev.payload.uid) == w)
                for w in ("w0", "w1")}
        for w in ("w0", "w1"):
            got = sorted((ev.ts, ev.payload.uid) for ev in received[w])
            assert got == want[w]

    # A publication reaches every worker owning one of its authors.
    for w in ("w0", "w1"):
        got_ids = sorted(ev.payload.pub_id
                         for ev in by_worker[w]["publications"])
        want_ids = sorted(p.payload.pub_id for p in pubs
                          if any(ring.owner(u) == w
                                 for u in p.payload.author_uids))
        assert got_ids == want_ids

    # Per-source admission order survives the hop: each slice's job
    # timestamps are strictly increasing, so the worker-side
    # subsequence of that slice must be too.
    set_a = {ev.payload.uid for ev in jobs_a}
    for w in ("w0", "w1"):
        ts_from_a = [ev.ts for ev in by_worker[w]["jobs"]
                     if ev.payload.uid in set_a]
        assert ts_from_a == sorted(ts_from_a)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_router_forwards_a_pool_path_that_is_not_utf8(n_workers):
    """A v2 frame's pool is raw bytes under the producer's CRC: the
    router forwards a path that is not UTF-8 undecoded, and the owning
    worker's guard diverts exactly the row that names it."""
    marker = "/proj/poison-Zx"
    accesses = [StreamEvent(3_000 + i, EVENT_ACCESS,
                            AppAccessRecord(3_000 + i, uid,
                                            marker if i == 17 else f"/f{uid}",
                                            "access"))
                for i, uid in enumerate(range(0, 400, 10))]
    builder = BatchBuilder()
    builder.extend(accesses)
    payload = encode_batch(builder.build())
    body = bytearray(payload[:-4])
    body[payload.find(marker.encode()) + marker.index("Z")] = 0xFF
    payload = bytes(body) + struct.pack("<I",
                                        binascii.crc32(body) & 0xFFFFFFFF)
    names = [f"w{i}" for i in range(n_workers)]
    workers = {name: SocketListener("127.0.0.1:0",
                                    expected={"accesses": 1})
               for name in names}
    try:
        router = ShardRouter(
            "127.0.0.1:0", {n: w.address for n, w in workers.items()},
            HashRing(names), expected={"accesses": 1})
        try:
            publish_batches(router.address, "accesses", [payload])
            assert router.join(timeout=30)
            routed = {n: list(w.sources()[0]) for n, w in workers.items()}
        finally:
            router.close()
    finally:
        for w in workers.values():
            w.close()
    assert int(router.routing_errors) == 0
    assert sum(b.n for bs in routed.values() for b in bs) == len(accesses)
    quarantine = EventQuarantine()
    kept = sum(out.n for name, bs in routed.items()
               for out in quarantine.guard(name, bs))
    assert quarantine.by_reason == {REASON_UNPARSABLE: 1}
    assert kept == len(accesses) - 1


@pytest.mark.parametrize("n_workers", [1, 2])
def test_router_diverts_a_v1_int_outside_int64(n_workers):
    """A v1 frame holding an int no int64 column holds is diverted at the
    router's edge, so the pump never builds a batch from it: every lane
    ends and every other row arrives."""
    jobs = _job_events(range(0, 400, 10), 3_000)
    body = (b'{"type": "event", "kind": "job", "job_id": 10000000000000000000,'
            b' "uid": 7, "submit_ts": 3005, "start_ts": 3005, "end_ts": 3006,'
            b' "num_nodes": 1, "cores_per_node": 1}')
    wire = b"".join([*(encode_frame(encode_event(ev)) for ev in jobs[:20]),
                     b"%d\n%s\n" % (len(body), body),
                     *(encode_frame(encode_event(ev)) for ev in jobs[20:]),
                     encode_frame({"type": "end"})])
    names = [f"w{i}" for i in range(n_workers)]
    workers = {name: SocketListener("127.0.0.1:0", expected={"jobs": 1})
               for name in names}
    try:
        router = ShardRouter(
            "127.0.0.1:0", {n: w.address for n, w in workers.items()},
            HashRing(names), expected={"jobs": 1})
        try:
            sock = connect_socket(router.address, timeout=30)
            reader = FrameReader(sock)
            write_frame(sock, {"type": "hello", "protocol": 1,
                               "source": "jobs"})
            assert reader.read_message()["type"] == "ok"
            sock.sendall(wire)
            assert reader.read_message()["type"] == "ok"  # the end ack
            sock.close()
            assert router.join(timeout=30)
            routed = {n: list(w.sources()[0]) for n, w in workers.items()}
        finally:
            router.close()
    finally:
        for w in workers.values():
            w.close()
    assert int(router.routing_errors) == 0
    assert int(router.listener.decode_errors) == 1
    got = sorted(ev.payload.job_id for bs in routed.values() for b in bs
                 for ev in b.iter_events())
    assert got == [ev.payload.job_id for ev in jobs]


def test_lane_queue_is_bounded_in_rows(tmp_path):
    """A lane admits batches while fewer than ``queue_rows`` rows wait
    for its worker, whatever the batches' sizes; once the worker is up
    and the lane drains, the blocked submit goes through, and the row
    count survives a pump and a sender racing on it."""
    address = f"unix:{tmp_path / 'w0.sock'}"
    chunks = [_job_events(range(i, i + 8), 3_000 + 10 * i)
              for i in (0, 8)] + [_job_events([99], 4_000),
                                  _job_events(range(1_500), 5_000)]
    batches = []
    for events in chunks:
        builder = BatchBuilder()
        builder.extend(events)
        batches.append(builder.build())
    lane = ShardLane("jobs", "w0", address, queue_rows=10,
                     retry_interval=0.05, retry_cap=0.1)
    worker = None
    interval = sys.getswitchinterval()
    try:
        lane.submit(batches[0], 8)
        lane.submit(batches[1], 8)      # 8 rows wait: still admitted
        third = threading.Thread(target=lane.submit,
                                 args=(batches[2], 1), daemon=True)
        third.start()
        third.join(0.5)
        assert third.is_alive()          # 16 rows wait: blocked
        worker = SocketListener(address, expected={"jobs": 1})
        third.join(30)
        assert not third.is_alive()
        sys.setswitchinterval(1e-6)
        for row in range(batches[3].n):
            lane.submit(batches[3].slice_rows(row, row + 1), 1)
        lane.finish()
        assert lane.join(timeout=30)
        assert lane._queued_rows == 0
        got = [int(ts) for b in worker.sources()[0] for ts in b.ts]
    finally:
        sys.setswitchinterval(interval)
        lane.stop()
        if worker is not None:
            worker.close()
    assert got == [ev.ts for events in chunks for ev in events]


def test_lane_resends_a_batch_lost_to_a_severed_connection():
    """A lane keeps every batch until its worker holds it durably, so a
    connection severed mid-frame costs a reconnect and a resend, never
    the batch: the worker ends with every row exactly once."""
    jobs = _job_events(range(500), 3_000)
    builder = BatchBuilder()
    builder.extend(jobs)
    plan = FaultPlan([{"target": "net:jobs", "kind": "sever", "at": 2000}])
    with SocketListener("127.0.0.1:0", expected={"jobs": 1}) as worker, \
            ChaosProxy("127.0.0.1:0", worker.address, plan) as proxy:
        router = ShardRouter("127.0.0.1:0", {"w0": proxy.address},
                             HashRing(["w0"]), expected={"jobs": 1})
        try:
            assert publish_batches(router.address, "jobs",
                                   [builder.build()]) == len(jobs)
            assert router.join(timeout=60)
            lane = router.lane("jobs", "w0")
            got = [ev.payload.job_id for batch in worker.sources()[0]
                   for ev in batch.iter_events()]
        finally:
            router.close()
    assert proxy.severed == 1
    assert int(lane.connects) == 2 and int(lane.rows_resent) == len(jobs)
    assert got == [ev.payload.job_id for ev in jobs]


def _tenant_payload(accesses, misses, *, n_days=4, cls=UserClass.BOTH_INACTIVE,
                    group=None, total_bytes=0, files=0):
    return {
        "policy": "FLTPolicy",
        "lifetime_days": 90.0,
        "n_days": n_days,
        "accesses": accesses,
        "misses": misses,
        "group_misses": {str(cls.value): group or [0] * n_days},
        "reports": [],
        "final_total_bytes": total_bytes,
        "final_file_count": files,
    }


def test_merge_tenant_results_sums_disjoint_shards():
    p0 = {"tenants": {"flt": _tenant_payload(
        [1, 2, 3, 4], [0, 1, 0, 0], group=[0, 1, 0, 0],
        total_bytes=100, files=3)}}
    p1 = {"tenants": {"flt": _tenant_payload(
        [4, 3, 2, 1], [1, 0, 0, 1], group=[1, 0, 0, 1],
        total_bytes=50, files=2)}}
    merged = merge_tenant_results([p0, p1])
    assert set(merged) == {"flt"}
    result = merged["flt"]
    assert isinstance(result, EmulationResult)
    assert result.metrics.accesses.tolist() == [5, 5, 5, 5]
    assert result.metrics.misses.tolist() == [1, 1, 0, 1]
    assert (result.metrics.group_misses[UserClass.BOTH_INACTIVE].tolist()
            == [1, 1, 0, 1])
    assert result.final_total_bytes == 150
    assert result.final_file_count == 5


def test_merge_tenant_results_keeps_tenants_separate():
    p0 = {"tenants": {"a": _tenant_payload([1, 0, 0, 0], [0] * 4),
                      "b": _tenant_payload([0, 1, 0, 0], [0] * 4)}}
    p1 = {"tenants": {"a": _tenant_payload([0, 0, 1, 0], [0] * 4)}}
    merged = merge_tenant_results([p0, p1])
    assert merged["a"].metrics.accesses.tolist() == [1, 0, 1, 0]
    assert merged["b"].metrics.accesses.tolist() == [0, 1, 0, 0]


# ---------------------------------------------------------------------------
# rebalance crash windows


class _StubFront:
    """The router's producer front, as the fleet admin reads it."""

    def describe(self):
        return {"connections_accepted": 3, "batch_rows_received": 8192,
                "duplicates_discarded": 5}


class _StubRouter:
    """Just enough router surface for ShardFleet._run_rebalance and
    FleetAdmin."""

    def __init__(self, ring):
        self.ring = ring
        self.rows_routed = {name: 0 for name in ring.shards}
        self.max_watermark = 0
        self.calls = []
        self.listener = _StubFront()
        self.routing_errors = 0

    def describe(self):
        return {"epochs": [{"cut_ts": None, "shards": list(self.ring.shards),
                            "digest": self.ring.digest()}]}

    def begin_rebalance(self, donor, cut_ts):
        self.calls.append(("begin", donor, cut_ts))

    def commit_rebalance(self, new_ring, cut_ts, new_worker, address):
        self.calls.append(("commit", new_worker))

    def abort_rebalance(self):
        self.calls.append(("abort",))

    def activate_worker(self, name):
        self.calls.append(("activate", name))
        return 0

    def reopen_worker(self, name):
        self.calls.append(("reopen", name))

    def close(self):
        pass


def test_rebalance_reissues_split_to_respawned_donor(tmp_path, monkeypatch):
    """Pending boundary ops are not checkpointed: when the donor
    respawns during waiting-for-clone, the fleet must re-issue the
    shard-split request to the new incarnation or the split is lost
    (ring already flipped, pending rows buffered forever)."""
    import sys
    import time

    from repro.server import shard as shard_mod
    from repro.server.shard import ShardFleet, WorkerSpec

    requests = []

    def fake_admin_request(address, request, timeout=None):
        requests.append(dict(request))
        if request["cmd"] == "health":
            return {"ok": True, "next_boundary": 1}
        assert request["cmd"] == "shard-split"
        return {"ok": True}

    monkeypatch.setattr(shard_mod, "admin_request", fake_admin_request)

    def make_spec(name):
        ck = tmp_path / f"{name}-ck"
        ck.mkdir(exist_ok=True)
        return WorkerSpec(
            name=name, ingest_address=f"127.0.0.1:{9000}",
            admin_address=f"127.0.0.1:{9001}",
            checkpoint_dir=str(ck),
            result_path=str(tmp_path / f"{name}.json"),
            command=[sys.executable, "-c", "pass"])

    ring = HashRing(["s00"])
    router = _StubRouter(ring)
    fleet = ShardFleet(router, [make_spec("s00")],
                       directory=str(tmp_path), replay_start=0, n_days=30,
                       worker_factory=make_spec)
    fleet.spawn_counts["s00"] = 1
    try:
        fleet.start_rebalance(donor="s00")

        def wait_for(pred, what, deadline=20.0):
            t0 = time.monotonic()
            while not pred():
                assert time.monotonic() - t0 < deadline, what
                time.sleep(0.05)

        def splits():
            return [r for r in requests if r["cmd"] == "shard-split"]

        wait_for(lambda: len(splits()) == 1, "original split request")
        wait_for(lambda: fleet.rebalance_log()[0]["status"]
                 == "waiting-for-clone", "waiting-for-clone phase")
        # The donor's supervisor respawns it (crash before boundary B):
        # its resumed incarnation has no queued split.
        fleet.spawn_counts["s00"] = 2
        wait_for(lambda: len(splits()) >= 2, "re-issued split request")
        assert splits()[0] == splits()[1]   # identical request, re-sent
        # The respawned donor executes the split: the clone appears and
        # the rebalance completes.
        clone_dir = fleet.specs["s01"].checkpoint_dir
        (tmp_path / "s01-ck" / "checkpoint-00000001.npz").write_bytes(b"x")
        assert clone_dir == str(tmp_path / "s01-ck")
        wait_for(lambda: fleet.rebalance_log()[0]["status"] == "done",
                 "rebalance completion")
        assert ("activate", "s01") in router.calls
    finally:
        fleet.stop()


# ---------------------------------------------------------------------------
# the scatter/gather admin plane


class _StubFleet:
    """Just enough ShardFleet surface for FleetAdmin: worker admin
    addresses behind a stub router with a real ring."""

    def __init__(self, admin_addresses):
        self.addresses = dict(admin_addresses)
        self.router = _StubRouter(HashRing(sorted(self.addresses)))
        self.rebalances = []

    def admin_addresses(self):
        return dict(self.addresses)

    def worker_names(self):
        return list(self.addresses)

    def describe_workers(self):
        return {name: {"admin": address}
                for name, address in self.addresses.items()}

    def rebalance_log(self):
        return [dict(entry) for entry in self.rebalances]

    def start_rebalance(self, donor=None, new_name=None):
        if donor not in self.addresses:
            raise ValueError(f"unknown donor {donor!r}")
        entry = {"donor": donor, "new": new_name, "status": "gating"}
        self.rebalances.append(entry)
        return entry


def _clock_after(start, now):
    """A clock that reads ``start`` once (the admin plane's start), then
    ``now`` forever: worker rates become cursor / (now - start)."""
    reads = iter([start])
    return lambda: next(reads, now)


@pytest.fixture(scope="module")
def fleet_events(tiny_dataset):
    return list(dataset_event_stream(tiny_dataset))


@pytest.fixture(scope="module")
def fleet_workers(tiny_dataset, fleet_events, tmp_path_factory):
    """Two worker admin planes over small one-tenant services that
    stopped at different cursors."""
    tmp = tmp_path_factory.mktemp("fleet-workers")
    workers = {}
    for name, stop in (("s00", None), ("s01", len(fleet_events) // 2)):
        service = make_fleet(tiny_dataset, [TenantSpec(name="flt",
                                                       policy="flt")])
        workers[name] = AdminServer(f"unix:{tmp / name}.sock", service,
                                    clock=_clock_after(0.0, 4.0))
        service.run(as_runs(fleet_events), stop_after_events=stop)
    yield workers
    for admin in workers.values():
        admin.close()


@pytest.fixture()
def fleet_admin(fleet_workers, tmp_path):
    fleet = _StubFleet({name: admin.address
                        for name, admin in fleet_workers.items()})
    with FleetAdmin(f"unix:{tmp_path / 'fleet.sock'}", fleet) as admin:
        yield admin


def test_fleet_admin_merges_worker_answers(fleet_workers, fleet_admin):
    address = fleet_admin.address
    services = {name: admin.service for name, admin in fleet_workers.items()}
    cursors = {name: service.cursor for name, service in services.items()}
    assert cursors["s00"] > cursors["s01"] > 0

    status = admin_request(address, {"cmd": "status"})
    assert status["ok"] and status["fleet"]
    assert status["workers"] == ["s00", "s01"]
    assert status["router"]["epochs"][0]["shards"] == ["s00", "s01"]
    assert {name: r["cursor"] for name, r in status["shards"].items()} \
        == cursors

    health = admin_request(address, {"cmd": "health"})
    assert health["ok"] and health["healthy"] is True
    assert health["up"] == {"s00": True, "s01": True}
    assert health["cursor"] == sum(cursors.values())

    metrics = admin_request(address, {"cmd": "metrics"})
    assert metrics["ok"] and metrics["cursor"] == sum(cursors.values())
    # every worker plane started at clock 0 and reads clock 4
    assert metrics["events_per_second"] == pytest.approx(
        sum(cursors.values()) / 4.0)
    assert metrics["trigger_latency"] == {
        name: r["trigger_latency"] for name, r in metrics["shards"].items()}
    for name, service in services.items():
        (tenant,) = service.tenants
        assert metrics["trigger_latency"][name]["count"] \
            == len(tenant.trigger_latency_log) > 0
        assert set(metrics["miss_tails"][name]) == {"flt"}
    assert metrics["trigger_latency_p99_max"] == max(
        tails["p99"] for tails in metrics["trigger_latency"].values())

    activity = admin_request(address, {"cmd": "activity"})
    shards = list(activity["shards"].values())
    assert activity["params"]
    for key, entry in activity["params"].items():
        assert entry["users"] == sum(r["params"][key]["users"]
                                     for r in shards)
    classes = {}
    for r in shards:
        for label, n in r["tenants"]["flt"]["classes"].items():
            classes[label] = classes.get(label, 0) + n
    assert activity["tenants"] == {"flt": {"classes": classes}}


def test_fleet_admin_tenants_query_export_and_shards(
        tiny_dataset, fleet_workers, fleet_admin):
    address = fleet_admin.address
    tenants = admin_request(address, {"cmd": "tenants"})
    assert tenants["ok"] and set(tenants["tenants"]) == {"flt"}
    added = admin_request(address, {
        "cmd": "tenants", "action": "add",
        "spec": TenantSpec(name="x", policy="flt").to_jsonable()})
    assert not added["ok"] and "single worker" in added["error"]

    uid = tiny_dataset.users[0].uid
    owner = fleet_admin.fleet.router.ring.owner(uid)
    before = {name: int(a.requests) for name, a in fleet_workers.items()}
    answer = admin_request(address, {"cmd": "query", "uid": uid})
    assert answer["shard"] == owner
    expected = fleet_workers[owner].handle({"cmd": "query", "uid": uid})
    assert answer == json.loads(json.dumps({**expected, "shard": owner}))
    after = {name: int(a.requests) for name, a in fleet_workers.items()}
    assert after == {name: before[name] + (name == owner)
                     for name in before}
    assert not admin_request(address, {"cmd": "query"})["ok"]

    exported = admin_request(address, {"cmd": "export"})
    assert exported["ok"] and exported["format"] == "prom"
    assert "version=0.0.4" in exported["content_type"]
    assert "repro_fleet_up" in _parse_exposition(exported["text"])
    bad = admin_request(address, {"cmd": "export", "format": "xml"})
    assert not bad["ok"] and "unknown export format" in bad["error"]

    shards = admin_request(address, {"cmd": "shards"})
    assert shards["ok"]
    ring = fleet_admin.fleet.router.ring
    assert HashRing.from_jsonable(shards["ring"]).digest() == ring.digest()
    assert shards["ring_info"]["shards"] == ["s00", "s01"]
    assert shards["workers"] == {name: {"admin": a.address}
                                 for name, a in fleet_workers.items()}
    assert shards["rebalances"] == []
    queued = admin_request(address, {"cmd": "shards-rebalance",
                                     "donor": "s00", "name": "s02"})
    assert queued["ok"] and queued["queued"]
    assert queued["rebalance"]["donor"] == "s00"
    refused = admin_request(address, {"cmd": "shards-rebalance",
                                      "donor": "s09"})
    assert not refused["ok"] and "s09" in refused["error"]


def test_fleet_admin_refuses_unknown_commands_and_bad_frames(fleet_admin):
    address = fleet_admin.address
    assert admin_request(address, {"cmd": "nope"}) == {
        "ok": False, "error": "unknown command 'nope'"}
    assert int(fleet_admin.errors) == 1
    sock = connect_socket(address, timeout=10.0)
    try:
        sock.sendall(b"xyz\n{}")
        answer = FrameReader(sock).read()
    finally:
        sock.close()
    assert answer["ok"] is False and answer["error"].startswith("bad frame")
    # the plane keeps answering after both refusals
    assert admin_request(address, {"cmd": "health"})["healthy"] is True


def test_fleet_admin_reports_a_stopped_worker(fleet_workers, tmp_path):
    stopped = AdminServer(f"unix:{tmp_path / 's02.sock'}",
                          fleet_workers["s00"].service)
    stopped.close()
    addresses = {name: a.address for name, a in fleet_workers.items()}
    addresses["s02"] = stopped.address
    with FleetAdmin(f"unix:{tmp_path / 'fleet.sock'}",
                    _StubFleet(addresses)) as admin:
        health = admin_request(admin.address, {"cmd": "health"})
        assert health["ok"] and health["healthy"] is False
        assert health["up"] == {"s00": True, "s01": True, "s02": False}
        assert health["cursor"] == sum(a.service.cursor
                                       for a in fleet_workers.values())
        metrics = admin_request(admin.address, {"cmd": "metrics"})
        assert set(metrics["trigger_latency"]) == {"s00", "s01"}
        seen = _parse_exposition(scrape_metrics(admin.address))
    assert dict(seen["repro_fleet_up"]) == {
        '{shard="s00"}': 1.0, '{shard="s01"}': 1.0, '{shard="s02"}': 0.0}
    assert set(dict(seen["repro_fleet_cursor"])) == {
        '{shard="s00"}', '{shard="s01"}'}


def _http_exchange(address, request):
    sock = connect_socket(address, timeout=10.0)
    try:
        sock.sendall(request)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    finally:
        sock.close()
    head, _sep, body = data.partition(b"\r\n\r\n")
    return head.decode("latin-1"), body


def test_fleet_admin_serves_metrics_over_http(fleet_workers, fleet_admin):
    address = fleet_admin.address
    seen = _parse_exposition(scrape_metrics(address))
    assert seen["repro_fleet_shards"] == [("", 2.0)]
    assert dict(seen["repro_fleet_up"]) == {'{shard="s00"}': 1.0,
                                           '{shard="s01"}': 1.0}
    assert dict(seen["repro_fleet_cursor"]) == {
        f'{{shard="{name}"}}': float(a.service.cursor)
        for name, a in fleet_workers.items()}
    assert {labels for labels, _v
            in seen["repro_fleet_trigger_latency_seconds"]} == {
        f'{{shard="{name}",quantile="{q}"}}'
        for name in ("s00", "s01") for q in ("p50", "p95", "p99")}
    assert seen["repro_fleet_router_batch_rows_total"] == [("", 8192.0)]
    assert seen["repro_fleet_routing_errors_total"] == [("", 0.0)]

    head, body = _http_exchange(address, b"HEAD /metrics HTTP/1.0\r\n\r\n")
    assert head.startswith("HTTP/1.0 200") and body == b""
    assert "version=0.0.4" in head
    head, _body = _http_exchange(address, b"GET /nope HTTP/1.0\r\n\r\n")
    assert head.startswith("HTTP/1.0 404")
    # Any uppercase first byte routes a request to HTTP, which refuses
    # every method but GET and HEAD with 405, over the socket and direct.
    head, _body = _http_exchange(address, b"POST /metrics HTTP/1.0\r\n\r\n")
    assert head.startswith("HTTP/1.0 405")
    client, server = socket.socketpair()
    try:
        client.sendall(b"POST /metrics HTTP/1.0\r\n\r\n")
        fleet_admin._serve_http(server)
        server.close()
        assert client.recv(65536).startswith(b"HTTP/1.0 405")
    finally:
        client.close()
    assert int(fleet_admin.http_requests) == 5
    # frames still work on the same socket afterwards
    assert admin_request(address, {"cmd": "health"})["healthy"] is True


_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\.)*)"')


def _label_values(line):
    """The unescaped labels of one exposition line; asserts the label
    body is well formed (every value quoted, quotes and backslashes
    escaped)."""
    if "{" not in line:
        return {}
    body = line[line.index("{") + 1:line.rindex("}")]
    labels, pos = {}, 0
    while pos < len(body):
        m = _LABEL_RE.match(body, pos)
        assert m, f"malformed label body: {line!r}"
        labels[m.group(1)] = re.sub(
            r"\\(.)", lambda e: "\n" if e.group(1) == "n" else e.group(1),
            m.group(2))
        pos = m.end()
        if pos < len(body):
            assert body[pos] == ",", f"malformed label body: {line!r}"
            pos += 1
    return labels


def test_fleet_exposition_escapes_label_values(tiny_dataset, fleet_events,
                                               tmp_path):
    name = 'a"b\\c'
    service = make_fleet(tiny_dataset, [TenantSpec(name=name, policy="flt")])
    service.run(as_runs(fleet_events))
    with AdminServer(f"unix:{tmp_path / 's00.sock'}", service) as worker, \
            FleetAdmin(f"unix:{tmp_path / 'fleet.sock'}",
                       _StubFleet({"s00": worker.address})) as admin:
        text = scrape_metrics(admin.address)
    tenants = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _SERIES_RE.match(line), line
        tenants.add(_label_values(line).get("tenant"))
    assert tenants == {None, name}
