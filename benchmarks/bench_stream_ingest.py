"""Stream-ingest benchmark: the streaming engine vs. batch replay.

Measures, on one seeded dataset:

* merged-stream ingest throughput (events/sec) of the streaming engine
  as plain ``serve`` runs it -- a one-tenant ``MultiTenantService`` fed
  the merged stream as pre-built 8,192-row runs, the form a merge hands
  it -- per policy of the retention spectrum, against the batch
  ``FastEmulator`` wall time over the same trace;
* per-trigger latency (reclassification plus the policy purge scan; the
  incremental activeness evaluation, shared by all tenants of a
  boundary, is outside it) and the refold fraction -- the share of
  user-type histories a trigger actually refolds, the O(delta) claim in
  numbers;
* a checkpoint / kill / resume cycle: wall time to checkpoint, to
  resume, and to finish from mid-trace.

Every streamed result is asserted bit-identical to the batch engine
before any number is reported, and the resumed run must equal the
uninterrupted one -- the ``--smoke`` run doubles as the CI
streaming-equivalence gate.  Results go to ``BENCH_stream_ingest.json``
at the repo root (override with ``--out``)::

    PYTHONPATH=src python benchmarks/bench_stream_ingest.py
    PYTHONPATH=src python benchmarks/bench_stream_ingest.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def assert_results_equal(streamed, batch, context):
    assert streamed.policy == batch.policy, context
    assert np.array_equal(streamed.metrics.accesses,
                          batch.metrics.accesses), context
    assert np.array_equal(streamed.metrics.misses,
                          batch.metrics.misses), context
    for cls, series in batch.metrics.group_misses.items():
        assert np.array_equal(streamed.metrics.group_misses[cls],
                              series), (context, cls)
    assert streamed.reports == batch.reports, context
    assert streamed.group_count_history == batch.group_count_history, context
    assert streamed.final_classes == batch.final_classes, context
    assert streamed.final_total_bytes == batch.final_total_bytes, context
    assert streamed.final_file_count == batch.final_file_count, context


def merged_runs(events):
    """``events`` as the 8,192-row runs a merge hands the engine, built
    afresh on every call: a batch caches the pids of the first catalog
    that ingests it, so two services must never share one."""
    from repro.server.ingest import DEFAULT_BATCH_EVENTS
    from repro.stream.batch import BatchBuilder, BatchRun

    runs = []
    for i in range(0, len(events), DEFAULT_BATCH_EVENTS):
        builder = BatchBuilder()
        builder.extend(events[i:i + DEFAULT_BATCH_EVENTS])
        batch = builder.build()
        runs.append(BatchRun(batch, 0, batch.n))
    return runs


def run_bench(n_users: int, seed: int, kill_fraction: float) -> dict:
    from repro.core import JobResidencyIndex
    from repro.emulation import (EmulatorConfig, FastEmulator,
                                 compile_dataset, replay_bounds)
    from repro.server import MultiTenantService, TenantSpec
    from repro.stream import (CheckpointManager, dataset_event_stream,
                              skip_stream_items)
    from repro.synth import TitanConfig, generate_dataset

    t0 = time.perf_counter()
    dataset = generate_dataset(TitanConfig(n_users=n_users, seed=seed))
    generate_seconds = time.perf_counter() - t0

    residency = JobResidencyIndex(dataset.jobs)
    specs = {name: TenantSpec(name=kind, policy=kind)
             for name, kind in (("FLT", "flt"), ("ActiveDR", "activedr"),
                                ("ValueBased", "value"),
                                ("ScratchAsCache", "cache"))}

    def build_policy(spec):
        return spec.build_policy(residency=residency)

    compiled = compile_dataset(dataset)
    events = list(dataset_event_stream(dataset))
    n_events = len(events)
    known = [u.uid for u in dataset.users]
    start, end = replay_bounds(dataset)

    def make_service(name, **kwargs):
        spec = specs[name]
        return MultiTenantService(
            [(spec, build_policy(spec))], snapshot_fs=dataset.filesystem,
            replay_start=start, replay_end=end, known_uids=known, **kwargs)

    def batch_run(name):
        spec = specs[name]
        return FastEmulator(build_policy(spec),
                            spec.retention_config().activeness,
                            EmulatorConfig()).run(compiled,
                                                  known_uids=known)

    per_policy = {}
    for name, spec in specs.items():
        t0 = time.perf_counter()
        batch = batch_run(name)
        batch_seconds = time.perf_counter() - t0

        service = make_service(name)
        runs = merged_runs(events)
        t0 = time.perf_counter()
        streamed = service.run(iter(runs))[spec.name]
        stream_seconds = time.perf_counter() - t0
        assert_results_equal(streamed, batch, name)

        stats = service.stats
        tenant = service.tenant(spec.name).stats
        per_policy[name] = {
            "batch_seconds": round(batch_seconds, 3),
            "stream_seconds": round(stream_seconds, 3),
            "events_per_sec": round(n_events / stream_seconds),
            "stream_vs_batch": round(stream_seconds / batch_seconds, 2),
            "triggers": tenant["triggers"],
            "trigger_latency_ms": round(
                1e3 * tenant["trigger_seconds"]
                / max(1, tenant["triggers"]), 3),
            "refold_fraction": round(
                stats["eval_refolded"] / max(1, stats["eval_users"]), 4),
            "bit_identical_to_batch": True,
        }

    # The same ActiveDR service fed by the horizon merge over the three
    # raw columnar chunk readers vs. by ReliableEventStream, which wraps
    # the same readers in retrying sources and the quarantine guard, both
    # parsing the workspace from disk: "overhead_fraction" is the cost of
    # the retry and guard layer itself.
    from repro.cli.workspace import save_workspace
    from repro.stream import ReliableEventStream
    from repro.stream.batch import horizon_merge

    with tempfile.TemporaryDirectory() as wsdir:
        save_workspace(dataset, wsdir, n_shards=1)

        def plain_runs():
            return horizon_merge(
                reader(os.path.join(wsdir, filename))
                for _name, filename, reader, _to_items
                in ReliableEventStream.SOURCES)

        reliable_streams = []

        def reliable_runs():
            stream = ReliableEventStream(wsdir)
            reliable_streams.append(stream)
            return iter(stream)

        # Best of three per leg, the legs alternating so that neither
        # always runs on a colder process.
        best: dict = {}
        results: dict = {}
        for repeat in range(3):
            legs = [("plain", plain_runs), ("reliable", reliable_runs)]
            for leg, make_runs in (legs if repeat % 2 == 0 else legs[::-1]):
                service = make_service("ActiveDR")
                t0 = time.perf_counter()
                results[leg] = service.run(make_runs())["activedr"]
                elapsed = time.perf_counter() - t0
                best[leg] = min(best.get(leg, elapsed), elapsed)
        plain_seconds, plain_result = best["plain"], results["plain"]
        reliable_seconds, reliable_result = (best["reliable"],
                                             results["reliable"])
        assert_results_equal(reliable_result, plain_result, "reliability")
        reliability_overhead = {
            "plain_seconds": round(plain_seconds, 3),
            "reliable_seconds": round(reliable_seconds, 3),
            "overhead_fraction": round(
                reliable_seconds / plain_seconds - 1.0, 4),
            "quarantined": reliable_streams[-1].quarantine.total,
            "bit_identical_to_plain": True,
        }

    # Checkpoint / kill / resume cycle under ActiveDR.
    kill_at = int(n_events * kill_fraction)
    with tempfile.TemporaryDirectory() as ckdir:
        service = make_service("ActiveDR", checkpoint_dir=ckdir,
                               checkpoint_every_days=7)
        runs = merged_runs(events)
        t0 = time.perf_counter()
        interrupted = service.run(iter(runs), stop_after_events=kill_at)
        first_leg_seconds = time.perf_counter() - t0
        assert interrupted is None
        checkpoints_written = service.stats["checkpoints_written"]
        checkpoint_bytes = os.path.getsize(
            CheckpointManager(ckdir).latest())

        t0 = time.perf_counter()
        resumed = MultiTenantService.resume(
            CheckpointManager(ckdir).latest(), policy_factory=build_policy)
        resume_seconds = time.perf_counter() - t0
        cursor = resumed.cursor

        runs = merged_runs(events)
        t0 = time.perf_counter()
        streamed = resumed.run(
            skip_stream_items(iter(runs), cursor))["activedr"]
        second_leg_seconds = time.perf_counter() - t0

    assert_results_equal(streamed, batch_run("ActiveDR"), "resume")

    return {
        "benchmark": "stream_ingest",
        "dataset": {
            "n_users": n_users,
            "seed": seed,
            "snapshot_files": dataset.filesystem.file_count,
            "merged_events": n_events,
            "replay_records": compiled.n_records,
            "generate_seconds": round(generate_seconds, 3),
        },
        "per_policy": per_policy,
        "reliability_overhead": reliability_overhead,
        "checkpoint_resume": {
            "kill_after_events": kill_at,
            "resume_cursor": cursor,
            "checkpoints_written": checkpoints_written,
            "checkpoint_bytes": checkpoint_bytes,
            "first_leg_seconds": round(first_leg_seconds, 3),
            "resume_seconds": round(resume_seconds, 3),
            "second_leg_seconds": round(second_leg_seconds, 3),
            "bit_identical_to_batch": True,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=500,
                        help="synthetic user count (default: the seeded "
                             "dataset the acceptance numbers quote)")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--kill-fraction", type=float, default=0.5,
                        help="fraction of the merged stream to ingest "
                             "before the simulated crash")
    parser.add_argument("--out",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_stream_ingest.json"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI-sized run; does not overwrite the "
                             "committed JSON unless --out is given")
    args = parser.parse_args(argv)

    if args.smoke:
        args.users = 40
        if args.out == os.path.join(REPO_ROOT, "BENCH_stream_ingest.json"):
            args.out = os.path.join(REPO_ROOT,
                                    "BENCH_stream_ingest.smoke.json")

    result = run_bench(args.users, args.seed, args.kill_fraction)
    result["smoke"] = args.smoke

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")

    print(f"dataset: {result['dataset']['n_users']} users, "
          f"{result['dataset']['merged_events']} merged events")
    for name, row in result["per_policy"].items():
        print(f"  {name}: {row['stream_seconds']}s stream "
              f"({row['events_per_sec']} ev/s, "
              f"{row['stream_vs_batch']}x batch) "
              f"trigger {row['trigger_latency_ms']}ms, "
              f"refold {100 * row['refold_fraction']:.1f}%")
    rel = result["reliability_overhead"]
    print(f"  reliability layer: {rel['plain_seconds']}s plain vs "
          f"{rel['reliable_seconds']}s guarded "
          f"({100 * rel['overhead_fraction']:+.1f}%), "
          f"{rel['quarantined']} quarantined")
    ck = result["checkpoint_resume"]
    print(f"  kill/resume: cursor {ck['resume_cursor']} "
          f"of {result['dataset']['merged_events']}, "
          f"checkpoint {ck['checkpoint_bytes']} B, "
          f"resume {ck['resume_seconds']}s, bit-identical")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
