"""Networked-ingest benchmark: socket producers vs file replay.

Measures, on one seeded dataset:

* merged-stream ingest throughput (events/sec) of the multi-tenant
  retention server fed from an in-memory file replay (the merged
  stream as pre-built 8,192-row runs, what a merge hands the engine)
  vs. over a Unix socket, for both wire protocols -- v1
  JSON-per-event frames and the negotiated v2 binary columnar batch
  frames -- each with one producer connection and with four concurrent
  producer shards.  Socket rows use
  the standard load-generator methodology (iperf/wrk style): producers
  pre-encode their wire bytes *outside* the timed window and then blast
  them down the socket, so the clock measures the server's ingest
  capacity -- accept, decode, validate, merge, retention engine -- and
  not the generator's encode speed.  Producer-side encode cost is
  measured separately and reported as ``producer_encode`` per protocol;
* per-batch decode latency and per-trigger latency tails (p50/p95/p99)
  on the binary path;
* binary-path crash fidelity: a four-tenant server is stopped mid-feed,
  resumed from its newest checkpoint, re-fed over fresh binary
  connections, and every tenant's final state is asserted bit-identical
  to the uninterrupted file replay; the crash fleet also carries a
  :class:`MetricsHistory`, so the run reports how many per-boundary
  samples were rewound on resume and the latency of rendering the full
  Prometheus exposition over the finished fleet;
* the fleet-sharing overhead: wall time of a four-tenant server (one
  tenant per policy of the retention spectrum) against a single-tenant
  server over the same feed, plus the shared-activeness factor (a
  same-cadence fleet must fold the activeness state once per trigger,
  not once per tenant per trigger).

Single-producer socket runs are asserted bit-identical to the file
replay before any number is reported; the ``--smoke`` run additionally
gates binary x1 >= JSON x1 throughput and the <4x fleet-sharing factor
for CI.  Results go to ``BENCH_net_ingest.json`` at the repo root
(override with ``--out``)::

    PYTHONPATH=src python benchmarks/bench_net_ingest.py
    PYTHONPATH=src python benchmarks/bench_net_ingest.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time

import numpy as np

from bench_stream_ingest import merged_runs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ONE_TENANT = ("name=activedr,policy=activedr",)
FOUR_TENANTS = ("name=flt,policy=flt", "name=activedr,policy=activedr",
                "name=value,policy=value", "name=cache,policy=cache")


def assert_result_equal(got, want, context):
    assert got.policy == want.policy, context
    assert np.array_equal(got.metrics.accesses, want.metrics.accesses), context
    assert np.array_equal(got.metrics.misses, want.metrics.misses), context
    assert got.reports == want.reports, context
    assert got.final_classes == want.final_classes, context
    assert got.final_total_bytes == want.final_total_bytes, context
    assert got.final_file_count == want.final_file_count, context


def run_bench(n_users: int, seed: int) -> dict:
    from repro.core import JobResidencyIndex
    from repro.emulation import replay_bounds
    from repro.server.metrics import tail_stats
    from repro.server.metrics import MetricsHistory, render_prometheus
    from repro.server.ingest import (DEFAULT_BATCH_EVENTS,
                                     NetworkEventStream, SocketListener,
                                     publish_batches, publish_events)
    from repro.server.protocol import (PROTOCOL_V1, FrameReader,
                                       connect_socket, encode_batch,
                                       encode_event, encode_frame,
                                       write_frame)
    from repro.server.tenants import MultiTenantService, TenantSpec
    from repro.stream import dataset_event_stream, skip_stream_items
    from repro.stream.batch import BatchBuilder
    from repro.synth import TitanConfig, generate_dataset

    t0 = time.perf_counter()
    dataset = generate_dataset(TitanConfig(n_users=n_users, seed=seed))
    generate_seconds = time.perf_counter() - t0

    events = list(dataset_event_stream(dataset))
    n_events = len(events)
    known = [u.uid for u in dataset.users]
    start, end = replay_bounds(dataset)
    residency = JobResidencyIndex(dataset.jobs)

    def make_fleet(spec_texts, **kwargs):
        specs = [TenantSpec.parse(text) for text in spec_texts]
        return MultiTenantService(
            [(s, s.build_policy(residency=residency)) for s in specs],
            snapshot_fs=dataset.filesystem, replay_start=start,
            replay_end=end, known_uids=known,
            policy_factory=lambda s: s.build_policy(residency=residency),
            **kwargs)

    # Scheduler noise on a shared box swings single runs by ~15%, which
    # is larger than the socket-vs-file margin under test, so every
    # throughput row reports the best of REPEATS runs.
    REPEATS = 3

    # -- file replay baseline: the engine fed pre-built runs from memory
    file_seconds = file_results = None
    for _ in range(REPEATS):
        service = make_fleet(ONE_TENANT)
        runs = merged_runs(events)
        t0 = time.perf_counter()
        results = service.run(iter(runs))
        elapsed = time.perf_counter() - t0
        if file_seconds is None or elapsed < file_seconds:
            file_seconds, file_results = elapsed, results

    # -- socket ingest: P concurrent producer shards -------------------
    def shard(n_producers, contiguous):
        # Both shard styles keep every shard internally time-sorted (any
        # subsequence of a sorted list is sorted), satisfying the
        # per-source monotonicity contract, so nothing lands in
        # quarantine.  The JSON path keeps round-robin shards
        # (fine-grained interleave); the binary path uses contiguous
        # chunks, whose merge runs span whole batches instead of
        # degenerating to single-row ping-pong between sources.
        if contiguous:
            return [events[i * n_events // n_producers:
                           (i + 1) * n_events // n_producers]
                    for i in range(n_producers)]
        return [events[i::n_producers] for i in range(n_producers)]

    # -- producer-side pre-encode (untimed by the ingest clock) --------
    def preencode_binary(shards):
        t0 = time.perf_counter()
        per_shard = []
        for rows in shards:
            frames = []
            for i in range(0, len(rows), DEFAULT_BATCH_EVENTS):
                builder = BatchBuilder()
                builder.extend(rows[i:i + DEFAULT_BATCH_EVENTS])
                frames.append(encode_batch(builder.build()))
            per_shard.append(frames)
        return per_shard, time.perf_counter() - t0

    def preencode_json(shards):
        t0 = time.perf_counter()
        per_shard = []
        for rows in shards:
            chunks, buf = [], bytearray()
            for ev in rows:
                buf += encode_frame(encode_event(ev))
                if len(buf) >= 1 << 18:
                    chunks.append(bytes(buf))
                    buf = bytearray()
            if buf:
                chunks.append(bytes(buf))
            per_shard.append(chunks)
        return per_shard, time.perf_counter() - t0

    def blast_json(address, source, chunks):
        # The v1 load generator: pre-encoded event frames sent as raw
        # byte chunks, the hello pipelined and both acks collected last.
        sock = connect_socket(address, timeout=10.0)
        try:
            reader = FrameReader(sock)
            write_frame(sock, {"type": "hello", "source": source,
                               "producer": "bench",
                               "protocol": PROTOCOL_V1})
            sock.settimeout(None)
            try:
                for chunk in chunks:
                    sock.sendall(chunk)
                write_frame(sock, {"type": "end"})
            except OSError:
                pass
            for _ in ("hello", "end"):
                ack = reader.read_message()
                assert ack is not None and ack.get("type") == "ok", ack
        finally:
            sock.close()

    def socket_run(per_shard, *, binary):
        # With one producer the socket order is exactly the file order
        # (bit-identity); with four, the merge may reorder
        # equal-timestamp ties across shards, which is the documented
        # throughput-mode tradeoff.
        n_producers = len(per_shard)
        with tempfile.TemporaryDirectory() as sockdir:
            address = f"unix:{os.path.join(sockdir, 'ingest.sock')}"
            listener = SocketListener(
                address,
                expected={f"shard-{i}": 1 for i in range(n_producers)})
            stream = NetworkEventStream(listener, known_uids=known)
            if binary:
                threads = [
                    threading.Thread(
                        target=publish_batches,
                        args=(address, f"shard-{i}", per_shard[i]),
                        kwargs={"producer": f"bench-{i}"}, daemon=True)
                    for i in range(n_producers)]
            else:
                threads = [
                    threading.Thread(
                        target=blast_json,
                        args=(address, f"shard-{i}", per_shard[i]),
                        daemon=True)
                    for i in range(n_producers)]
            fleet = make_fleet(ONE_TENANT)
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            results = fleet.run(iter(stream))
            elapsed = time.perf_counter() - t0
            for t in threads:
                t.join()
            decode = tail_stats(listener.decode_seconds)
            listener.close()
        assert fleet.cursor == n_events, (fleet.cursor, n_events)
        assert stream.quarantine.total == 0, stream.quarantine.summary()
        return elapsed, results, fleet, decode

    def socket_rows(*, binary):
        rows, extras = {}, {}
        label = "binary" if binary else "json"
        preencode = preencode_binary if binary else preencode_json
        for n_producers in (1, 4):
            per_shard, encode_seconds = preencode(
                shard(n_producers, contiguous=binary))
            if n_producers == 1:
                extras["producer_encode"] = {
                    "seconds": round(encode_seconds, 3),
                    "events_per_sec": round(n_events / encode_seconds),
                }
            elapsed = results = fleet = decode = None
            for _ in range(REPEATS):
                run = socket_run(per_shard, binary=binary)
                if elapsed is None or run[0] < elapsed:
                    elapsed, results, fleet, decode = run
            row = {
                "seconds": round(elapsed, 3),
                "events_per_sec": round(n_events / elapsed),
                "socket_vs_file": round(elapsed / file_seconds, 2),
                "quarantined": 0,
            }
            if n_producers == 1:
                assert_result_equal(results["activedr"],
                                    file_results["activedr"],
                                    f"socket-1-{label}")
                row["bit_identical_to_file"] = True
                if binary:
                    extras["decode_latency"] = decode
                    extras["trigger_latency"] = tail_stats(
                        [s for t in fleet.tenants
                         for s in t.trigger_latency_log])
            rows[str(n_producers)] = row
        return rows, extras

    json_rows, json_extras = socket_rows(binary=False)
    binary_rows, binary_extras = socket_rows(binary=True)

    # -- chaos: what exactly-once costs and buys -----------------------
    # (a) clean-path sequencing/dedupe overhead: the same pre-encoded
    # single-producer binary feed, with and without explicit sequence
    # numbers in the frames (the sequenced frames exercise the header
    # parse + contiguity/dedupe check on every batch);
    # (b) reconnect-recovery latency: one producer streams the full
    # feed through a fault proxy that severs the connection at six
    # scripted byte offsets; each failure->next-successful-handshake
    # latency is a recovery sample.
    from repro.faults import ChaosProxy, FaultPlan

    def preencode_binary_seq(shards):
        per_shard = []
        for rows in shards:
            frames, seq = [], 1
            for i in range(0, len(rows), DEFAULT_BATCH_EVENTS):
                builder = BatchBuilder()
                builder.extend(rows[i:i + DEFAULT_BATCH_EVENTS])
                frames.append(encode_batch(builder.build(), seq=seq))
                seq += len(builder)
            per_shard.append(frames)
        return per_shard

    plain_shard = shard(1, contiguous=True)
    noseq_frames, _ = preencode_binary(plain_shard)
    seq_frames = preencode_binary_seq(plain_shard)
    # The overhead is the median of per-repeat seq/noseq ratios: each
    # repeat runs both legs back to back, taking turns to go first, so
    # a slow stretch of the host scales both legs of a pair alike and
    # one outlier pair does not move the median.
    SEQ_REPEATS = 7
    legs = [("noseq", noseq_frames), ("seq", seq_frames)]
    best = {"noseq": float("inf"), "seq": float("inf")}
    ratios = []
    for i in range(SEQ_REPEATS):
        took = {leg: socket_run(frames, binary=True)[0]
                for leg, frames in (legs if i % 2 == 0 else legs[::-1])}
        ratios.append(took["seq"] / took["noseq"])
        best = {leg: min(best[leg], took[leg]) for leg in best}
    noseq_seconds, seq_seconds = best["noseq"], best["seq"]
    seq_overhead = float(np.median(ratios))

    total_wire = sum(len(f) + 16 for f in seq_frames[0])
    sever_plan = FaultPlan(
        [{"target": "net:shard-0", "kind": "sever",
          "at": int(total_wire * frac) + 13}
         for frac in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)], seed=9)
    with tempfile.TemporaryDirectory() as sockdir:
        address = f"unix:{os.path.join(sockdir, 'chaos.sock')}"
        listener = SocketListener(address, expected={"shard-0": 1})
        stream = NetworkEventStream(listener, known_uids=known)
        stats: dict = {}
        with ChaosProxy(f"unix:{os.path.join(sockdir, 'proxy.sock')}",
                        address, sever_plan) as proxy:
            publisher = threading.Thread(
                target=publish_events,
                args=(proxy.address, "shard-0", plain_shard[0]),
                kwargs={"retry_for": 120.0, "retry_interval": 0.05,
                        "retry_seed": 17, "stats": stats}, daemon=True)
            publisher.start()
            rows_seen = 0
            for run in stream:
                rows_seen += run.n_rows
            publisher.join()
            severed = proxy.severed
        listener.close()
    assert rows_seen == n_events, (rows_seen, n_events)
    assert stream.quarantine.total == 0, stream.quarantine.summary()
    recovery = tail_stats(stats.get("recovery_seconds", []))
    chaos_row = {
        "seq_overhead": {
            "noseq_seconds": round(noseq_seconds, 3),
            "seq_seconds": round(seq_seconds, 3),
            "overhead_x": round(seq_overhead, 3),
        },
        "reconnect_recovery": {
            "severs": severed,
            "reconnect_attempts": stats.get("retries", 0),
            "duplicates_discarded": int(listener.duplicates_discarded),
            "recovery_seconds": recovery,
            "events_exactly_once": True,
        },
    }

    # -- binary-path crash fidelity: stop a four-tenant server mid-feed,
    #    resume from its newest checkpoint, re-feed over fresh binary
    #    connections, and demand bit-identity for every tenant ----------
    four_file_results = make_fleet(FOUR_TENANTS).run(iter(merged_runs(events)))

    def quiet_publish(address, name, feed):
        try:
            publish_events(address, name, feed, producer="bench-crash",
                           retry_for=20.0)
        except OSError:
            pass  # the first server dies mid-feed by design

    def binary_feed(address, n_producers=2):
        shards = shard(n_producers, contiguous=True)
        threads = [
            threading.Thread(target=quiet_publish,
                             args=(address, f"shard-{i}", shards[i]),
                             daemon=True)
            for i in range(n_producers)]
        for t in threads:
            t.start()
        return threads

    with tempfile.TemporaryDirectory() as workdir:
        expected = {"shard-0": 1, "shard-1": 1}
        address = f"unix:{os.path.join(workdir, 'crash.sock')}"
        listener = SocketListener(address, expected=expected)
        stream = NetworkEventStream(listener, known_uids=known)
        history = MetricsHistory(os.path.join(workdir, "hist.jsonl"))
        fleet = make_fleet(FOUR_TENANTS,
                           checkpoint_dir=os.path.join(workdir, "ckpt"),
                           checkpoint_every_days=7,
                           metrics_history=history)
        binary_feed(address)
        stopped = fleet.run(iter(stream), stop_after_events=n_events // 2)
        assert stopped is None, "crash run unexpectedly drained the feed"
        listener.close()
        samples_before_crash = history.seq
        history.close()

        newest = fleet.checkpoints.latest()
        assert newest is not None, "no checkpoint written before the stop"
        history = MetricsHistory(os.path.join(workdir, "hist.jsonl"))
        resumed = MultiTenantService.resume(
            newest,
            policy_factory=lambda s: s.build_policy(residency=residency),
            metrics_history=history)
        samples_rewound = samples_before_crash - history.seq
        address = f"unix:{os.path.join(workdir, 'resume.sock')}"
        listener = SocketListener(address, expected=expected)
        stream = NetworkEventStream(listener, known_uids=known)
        threads = binary_feed(address)
        resumed_results = resumed.run(
            skip_stream_items(iter(stream), resumed.cursor))
        for t in threads:
            t.join()
        listener.close()

        # -- observability overhead: exposition render latency over the
        #    finished four-tenant fleet with its full history attached --
        render_times = []
        for _ in range(20):
            t0 = time.perf_counter()
            text = render_prometheus(resumed, history=history,
                                     rate=0.0, uptime=1.0)
            render_times.append(time.perf_counter() - t0)
        observability_row = {
            "history_samples_before_crash": samples_before_crash,
            "history_samples_rewound_on_resume": samples_rewound,
            "history_samples_final": history.seq,
            "exposition_bytes": len(text),
            "exposition_render": tail_stats(render_times),
        }
        history.close()
    assert resumed.cursor == n_events, (resumed.cursor, n_events)
    crash_row = {"stopped_after_events": int(n_events // 2), "tenants": {}}
    for name, want in four_file_results.items():
        assert_result_equal(resumed_results[name], want,
                            f"crash-resume-{name}")
        crash_row["tenants"][name] = {"bit_identical_to_file": True}

    # -- fleet overhead: 4 tenants sharing one feed and one activeness -
    def best_of(spec_texts, repeats=2):
        best = fleet = None
        for _ in range(repeats):
            fleet = make_fleet(spec_texts)
            runs = merged_runs(events)
            t0 = time.perf_counter()
            fleet.run(iter(runs))
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best, fleet

    one_seconds, one = best_of(ONE_TENANT)
    four_seconds, four = best_of(FOUR_TENANTS)

    overhead = four_seconds / one_seconds
    evals_one = one.stats["activeness_evals"]
    evals_four = four.stats["activeness_evals"]
    # Same cadence everywhere: the fleet folds once per trigger, so the
    # evaluation count must not scale with the tenant count at all.
    assert evals_four == evals_one, (evals_four, evals_one)
    assert overhead < 4.0, f"4-tenant overhead {overhead:.2f}x"

    return {
        "benchmark": "net_ingest",
        "dataset": {
            "n_users": n_users,
            "seed": seed,
            "snapshot_files": dataset.filesystem.file_count,
            "merged_events": n_events,
            "generate_seconds": round(generate_seconds, 3),
        },
        "ingest": {
            "file": {
                "seconds": round(file_seconds, 3),
                "events_per_sec": round(n_events / file_seconds),
            },
            "socket_by_producers": json_rows,
            "producer_encode": {
                "json": json_extras["producer_encode"],
                "binary": binary_extras.pop("producer_encode"),
            },
            "binary": {
                "batch_events": DEFAULT_BATCH_EVENTS,
                "socket_by_producers": binary_rows,
                "crash_resume": crash_row,
                **binary_extras,
            },
        },
        "chaos": chaos_row,
        "observability": observability_row,
        "fleet_overhead": {
            "one_tenant_seconds": round(one_seconds, 3),
            "four_tenant_seconds": round(four_seconds, 3),
            "overhead_x": round(overhead, 2),
            "activeness_evals_one_tenant": evals_one,
            "activeness_evals_four_tenants": evals_four,
            "evals_shared": True,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=300,
                        help="synthetic user count (default: the seeded "
                             "dataset the acceptance numbers quote)")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--out",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_net_ingest.json"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI-sized run; does not overwrite the "
                             "committed JSON unless --out is given")
    args = parser.parse_args(argv)

    if args.smoke:
        # Below ~100 users the fixed per-tenant boundary work dominates
        # the shared per-event work and the 4x gate is meaningless; 150
        # is the smallest scale where sharing is visible.
        args.users = 150
        if args.out == os.path.join(REPO_ROOT, "BENCH_net_ingest.json"):
            args.out = os.path.join(REPO_ROOT, "BENCH_net_ingest.smoke.json")

    result = run_bench(args.users, args.seed)
    result["smoke"] = args.smoke

    if args.smoke:
        # CI gate: the negotiated binary path must never be slower than
        # the v1 JSON framing it replaced as the default.
        json_x1 = result["ingest"]["socket_by_producers"]["1"]
        bin_x1 = result["ingest"]["binary"]["socket_by_producers"]["1"]
        assert bin_x1["events_per_sec"] >= json_x1["events_per_sec"], (
            f"binary x1 {bin_x1['events_per_sec']} ev/s slower than "
            f"JSON x1 {json_x1['events_per_sec']} ev/s")
        # CI gate: explicit sequencing + edge dedupe must stay in the
        # noise on the clean path (the committed full-size run holds
        # the tighter <=5% figure; smoke runs get a scheduler margin).
        overhead = result["chaos"]["seq_overhead"]["overhead_x"]
        assert overhead <= 1.10, (
            f"sequencing overhead {overhead}x on the clean path")

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")

    data = result["dataset"]
    print(f"dataset: {data['n_users']} users, "
          f"{data['merged_events']} merged events")
    file_row = result["ingest"]["file"]
    print(f"  file replay: {file_row['seconds']}s "
          f"({file_row['events_per_sec']} ev/s)")
    for count, row in result["ingest"]["socket_by_producers"].items():
        suffix = (" bit-identical to file"
                  if row.get("bit_identical_to_file") else "")
        print(f"  socket x{count} (json): {row['seconds']}s "
              f"({row['events_per_sec']} ev/s, "
              f"{row['socket_vs_file']}x file){suffix}")
    binary = result["ingest"]["binary"]
    for count, row in binary["socket_by_producers"].items():
        suffix = (" bit-identical to file"
                  if row.get("bit_identical_to_file") else "")
        print(f"  socket x{count} (binary): {row['seconds']}s "
              f"({row['events_per_sec']} ev/s, "
              f"{row['socket_vs_file']}x file){suffix}")
    encode = result["ingest"]["producer_encode"]
    print(f"  producer encode: json {encode['json']['events_per_sec']} "
          f"ev/s, binary {encode['binary']['events_per_sec']} ev/s "
          f"(untimed by the ingest clock)")
    decode = binary.get("decode_latency", {})
    if decode.get("count"):
        print(f"  binary decode: p50 {decode['p50'] * 1e6:.0f}us "
              f"p99 {decode['p99'] * 1e6:.0f}us over {decode['count']} "
              f"batches")
    crash = binary["crash_resume"]
    print(f"  crash resume: {len(crash['tenants'])} tenants bit-identical "
          f"after stop at event {crash['stopped_after_events']}")
    chaos = result["chaos"]
    rec = chaos["reconnect_recovery"]
    tail = rec["recovery_seconds"]
    print(f"  chaos: sequencing overhead "
          f"{chaos['seq_overhead']['overhead_x']}x clean path; "
          f"{rec['severs']} severs recovered in "
          f"p50 {tail.get('p50', 0) * 1e3:.0f}ms "
          f"p95 {tail.get('p95', 0) * 1e3:.0f}ms "
          f"p99 {tail.get('p99', 0) * 1e3:.0f}ms, exactly once")
    obs = result["observability"]
    render = obs["exposition_render"]
    print(f"  observability: {obs['history_samples_final']} history "
          f"samples ({obs['history_samples_rewound_on_resume']} rewound "
          f"on resume), /metrics render p50 {render['p50'] * 1e3:.1f}ms "
          f"over {obs['exposition_bytes']} bytes")
    fleet = result["fleet_overhead"]
    print(f"  fleet: 4 tenants at {fleet['overhead_x']}x one tenant "
          f"({fleet['activeness_evals_four_tenants']} activeness evals, "
          f"shared)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
