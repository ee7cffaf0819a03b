"""Build one run's inputs from a seed: workspace, reference digests, feed.

``run.py`` starts this in a child process, so generation never counts
toward the workload process's time or memory::

    python3 benchmarks/pipeline/prepare.py --users 300 --seed 2021 --out DIR

It writes into ``DIR``:

* ``workspace/`` -- :func:`make_dataset` saved with ``save_workspace``;
* ``feed.frames`` -- the merged event stream as sequenced protocol-v2
  batch payloads of ``DEFAULT_BATCH_EVENTS`` rows, each preceded by its
  length as a little-endian u32 (what the socket publisher sends);
* ``info.json`` -- event counts, generation times and the digest of every
  policy's lifetime-90 spectrum replay, the reference every workload
  must reproduce.  Written last, so its presence marks a complete set.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import struct
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: Seed of the facility every run serves: the user population, the
#: scratch file trees of the snapshot and their file sizes, and the job
#: and publication history that makes users active.
FACILITY_SEED = 2021


def make_dataset(n_users: int, seed: int):
    """A fixed facility with one seeded year of file accesses.

    ``generate_dataset`` draws everything from one seed.  At a few
    hundred users that swings the trace volume by ~27% between seeds (the
    population), and the purge work by ~22% (the job history decides who
    is active, and so how far each weekly trigger has to scan), which
    would bury any change the benchmark should resolve.  So the
    population, file trees, jobs and publications come from
    :data:`FACILITY_SEED`, and ``seed`` draws the application access log,
    ~80% of the merged events.  The dataset keeps the facility's config:
    its seed also draws the snapshot's file sizes when a workspace is
    loaded, and sizes drawn from ``seed`` moved the sweep's trigger work
    by another ~15% between seeds.
    """
    from repro.synth import (AccessTraceConfig, TitanConfig,
                             generate_accesses, generate_dataset)

    facility = generate_dataset(TitanConfig(n_users=n_users,
                                            seed=FACILITY_SEED))
    if seed == FACILITY_SEED:
        return facility
    cfg = facility.config
    accesses = generate_accesses(
        facility.profiles, facility.trees,
        AccessTraceConfig(replay_start=cfg.replay_start,
                          replay_end=cfg.replay_end), seed)
    return replace(facility, accesses=accesses)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    from repro.cli.workspace import load_workspace, save_workspace
    from repro.emulation import run_lifetime_sweep
    from repro.server.ingest import DEFAULT_BATCH_EVENTS
    from repro.server.protocol import encode_batch
    from repro.stream import BatchBuilder
    from repro.stream.events import workspace_event_stream

    from workloads import REFERENCE_LIFETIME, result_digest

    t0 = time.perf_counter()
    dataset = make_dataset(args.users, args.seed)
    t1 = time.perf_counter()
    ws_dir = os.path.join(args.out, "workspace")
    save_workspace(dataset, ws_dir, n_shards=1)
    t2 = time.perf_counter()

    sweep = run_lifetime_sweep(load_workspace(ws_dir),
                               lifetimes=(REFERENCE_LIFETIME,),
                               policies="spectrum", engine="fast")
    reference = {policy: result_digest(result) for policy, result
                 in sweep[REFERENCE_LIFETIME].results.items()}

    events = workspace_event_stream(ws_dir)
    seq = 1
    frames = 0
    with open(os.path.join(args.out, "feed.frames"), "wb") as fh:
        while True:
            builder = BatchBuilder()
            builder.extend(itertools.islice(events, DEFAULT_BATCH_EVENTS))
            if not len(builder):
                break
            payload = encode_batch(builder.build(), seq=seq)
            fh.write(struct.pack("<I", len(payload)))
            fh.write(payload)
            seq += len(builder)
            frames += 1

    n_events = (len(dataset.jobs) + len(dataset.publications)
                + len(dataset.accesses))
    if seq - 1 != n_events:
        raise SystemExit(f"feed holds {seq - 1} events, dataset {n_events}")
    info = {
        "users": args.users,
        "seed": args.seed,
        "n_events": n_events,
        "n_jobs": len(dataset.jobs),
        "n_publications": len(dataset.publications),
        "n_accesses": len(dataset.accesses),
        "snapshot_files": dataset.filesystem.file_count,
        "feed_frames": frames,
        "generate_s": t1 - t0,
        "write_s": t2 - t1,
        "reference": reference,
    }
    path = os.path.join(args.out, "info.json")
    with open(f"{path}.tmp", "w") as fh:
        json.dump(info, fh, indent=1)
    os.replace(f"{path}.tmp", path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
