"""The fault-injection substrate: plans, IO wrappers, stream wrappers.

Determinism is the load-bearing property throughout -- the same plan
must produce byte-identical corruption and fire each spec exactly
``count`` times regardless of how many wrappers are rebuilt around it.
"""

from __future__ import annotations

import errno
import io
import json
import os

import pytest

from repro.faults import (FaultPlan, FaultSpec, FaultyIO, FaultyStream,
                          InjectedIOError, corrupt_file, trace_writer_wrap)
from repro.stream import EVENT_JOB, EventBatch, StreamEvent
from repro.traces import JobRecord

from conftest import as_runs, expand_events


# ---------------------------------------------------------------- plans

def test_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("jobs", "meteor", at=0)
    with pytest.raises(ValueError, match="non-negative"):
        FaultSpec("jobs", "eio", at=-1)
    with pytest.raises(ValueError, match="count"):
        FaultSpec("jobs", "eio", at=0, count=0)


def test_plan_json_round_trip(tmp_path):
    plan = FaultPlan([{"target": "jobs", "kind": "stall", "at": 3},
                      FaultSpec("checkpoint", "kill", at=40)], seed=7)
    path = str(tmp_path / "plan.json")
    with open(path, "w") as fh:
        json.dump(plan.to_dict(), fh)
    loaded = FaultPlan.from_json(path)
    assert loaded.seed == 7
    assert loaded.specs == plan.specs


def test_claim_is_plan_global():
    spec = FaultSpec("jobs", "eio", at=5, count=2)
    plan = FaultPlan([spec])
    assert plan.claim(spec)
    assert plan.fired(spec) == 1
    # A rebuilt wrapper shares the plan, so the second claim is the last.
    assert plan.claim(spec)
    assert not plan.claim(spec)
    assert plan.fired(spec) == 2


def test_for_target_indexes_by_position():
    plan = FaultPlan([{"target": "a", "kind": "eio", "at": 1},
                      {"target": "a", "kind": "stall", "at": 1},
                      {"target": "b", "kind": "eio", "at": 2}])
    by_at = plan.for_target("a")
    assert sorted(by_at) == [1]
    assert len(by_at[1]) == 2
    assert plan.has_target("b") and not plan.has_target("c")


def test_plan_rng_is_deterministic():
    spec = FaultSpec("accesses", "malformed", at=9)
    a = FaultPlan([spec], seed=3).rng(spec).random()
    b = FaultPlan([spec], seed=3).rng(spec).random()
    c = FaultPlan([spec], seed=4).rng(spec).random()
    assert a == b != c


# ---------------------------------------------------------------- FaultyIO

def _io(plan, target="ck", **kw):
    return FaultyIO(io.BytesIO(), plan, target, **kw)


def test_faulty_io_write_eio_once():
    plan = FaultPlan([{"target": "ck", "kind": "eio", "at": 1}])
    fh = _io(plan)
    fh.write(b"aa")
    with pytest.raises(OSError) as exc:
        fh.write(b"bb")
    assert exc.value.errno == errno.EIO
    # The write index was consumed and the fault is spent: a re-opened
    # handle continues the count and does not re-fire.
    fh2 = _io(plan)
    fh2.write(b"cc")


def test_faulty_io_partial_write_disk_full():
    plan = FaultPlan([{"target": "ck", "kind": "partial_write", "at": 0}])
    inner = io.BytesIO()
    fh = FaultyIO(inner, plan, "ck")
    with pytest.raises(OSError) as exc:
        fh.write(b"abcdef")
    assert exc.value.errno == errno.ENOSPC
    assert inner.getvalue() == b"abc"  # the torn half made it to disk


def test_faulty_io_kill_hook():
    killed = []
    plan = FaultPlan([{"target": "ck", "kind": "kill", "at": 0}])
    fh = FaultyIO(io.BytesIO(), plan, "ck", kill=lambda: killed.append(1))
    fh.write(b"x")
    assert killed == [1]


def test_faulty_io_read_truncate_then_eof():
    plan = FaultPlan([{"target": "ck", "kind": "truncate", "at": 1,
                       "arg": 2}])
    fh = FaultyIO(io.BytesIO(b"abcdefgh"), plan, "ck")
    assert fh.read(4) == b"abcd"
    assert fh.read(4) == b"ef"   # truncated to arg=2 bytes
    assert fh.read(4) == b""     # and EOF forever after
    assert fh.read() == b""


def test_faulty_io_read_bitflip_deterministic():
    def flipped():
        plan = FaultPlan([{"target": "ck", "kind": "bitflip", "at": 0}],
                         seed=11)
        return FaultyIO(io.BytesIO(b"\x00" * 32), plan, "ck").read()

    first, second = flipped(), flipped()
    assert first == second
    assert first != b"\x00" * 32
    assert sum(bin(b).count("1") for b in first) == 1  # exactly one bit


def test_faulty_io_stall_calls_sleep():
    slept = []
    plan = FaultPlan([{"target": "ck", "kind": "stall", "at": 0,
                       "arg": 0.25}])
    fh = FaultyIO(io.BytesIO(), plan, "ck", sleep=slept.append)
    fh.write(b"x")
    assert slept == [0.25]


def test_faulty_io_passthrough():
    plan = FaultPlan([])
    inner = io.BytesIO()
    with FaultyIO(inner, plan, "ck") as fh:
        fh.write(b"data")
        fh.flush()
        assert fh.tell() == 4
    assert inner.closed


# ---------------------------------------------------------------- streams

class _Source:
    """Minimal stand-in for a ResilientSource: owns pos / last_batch."""

    def __init__(self, name, items):
        self.name = name
        self.pos = 0
        self.last_batch = None
        self._items = items

    def events(self):
        # Like ResilientSource's reopen: resume after already-consumed
        # rows, counting from the current position.
        for item in self._items[self.pos:]:
            self.pos += item.n
            self.last_batch = item
            yield item


def _events(n):
    """``n`` job rows as one-row batches."""
    return [run.batch for run in as_runs(
        [StreamEvent(100 + i, EVENT_JOB,
                     JobRecord(i, 1, 100 + i, 100 + i, 110 + i, 1))
         for i in range(n)], size=1)]


def _drain(plan, items):
    src = _Source("jobs", items)
    out = []
    stream = FaultyStream(src.events(), plan, src)
    while True:
        try:
            out.append(next(stream))
        except StopIteration:
            return out
        except OSError:
            continue  # transient injection; the retry layer's job
    return out


def test_stream_injections_never_consume_events():
    items = _events(10)
    plan = FaultPlan([
        {"target": "jobs", "kind": "malformed", "at": 3, "count": 2},
        {"target": "jobs", "kind": "duplicate", "at": 5},
        {"target": "jobs", "kind": "regress", "at": 7},
        {"target": "jobs", "kind": "stall", "at": 8},
    ], seed=1)
    out = _drain(plan, items)
    # Every real event is delivered, in order: dropping anything that is
    # not the next expected item leaves exactly the clean sequence.
    remaining = iter(items)
    expected = next(remaining)
    delivered = []
    for ev in out:
        if ev is expected:
            delivered.append(ev)
            expected = next(remaining, None)
    assert delivered == items
    assert len(out) == len(items) + 4  # stall raised, 4 objects inserted


def test_stream_duplicate_and_regress_shapes():
    items = _events(4)
    plan = FaultPlan([
        {"target": "jobs", "kind": "duplicate", "at": 2},
        {"target": "jobs", "kind": "regress", "at": 3, "arg": 10},
    ])
    out = _drain(plan, items)
    # A verbatim one-row copy of the last delivered row...
    assert expand_events(out[2:3]) == expand_events(items[1:2])
    # ...and a copy of it with ts shifted back, every column else kept.
    regressed = out[4]
    assert regressed.ts.tolist() == [int(items[2].ts[0]) - 10]
    assert regressed.row_debug(0) == dict(items[2].row_debug(0),
                                          ts=int(items[2].ts[0]) - 10)


def test_stream_stall_is_transient_and_single_shot():
    items = _events(3)
    src = _Source("jobs", items)
    plan = FaultPlan([{"target": "jobs", "kind": "stall", "at": 1}])
    stream = FaultyStream(src.events(), plan, src)
    assert next(stream) == items[0]
    with pytest.raises(InjectedIOError):
        next(stream)
    # A rebuilt wrapper (simulating a source reopen) does not re-fire.
    stream2 = FaultyStream(src.events(), plan, src)
    assert next(stream2) == items[1]


def test_stream_malformed_shapes_are_deterministic():
    def garbage_kinds():
        plan = FaultPlan([{"target": "jobs", "kind": "malformed", "at": 2,
                           "count": 6}], seed=5)
        out = _drain(plan, _events(6))
        return [type(x).__name__ for x in out if type(x) is not EventBatch]

    assert garbage_kinds() == garbage_kinds()
    assert len(garbage_kinds()) == 6


# ---------------------------------------------------------------- files

def test_corrupt_file_truncate(tmp_path):
    path = str(tmp_path / "f.bin")
    with open(path, "wb") as fh:
        fh.write(b"x" * 1000)
    corrupt_file(path, "truncate", frac=0.25)
    assert os.path.getsize(path) == 250


def test_corrupt_file_bitflip_deterministic(tmp_path):
    out = []
    for trial in range(2):
        path = str(tmp_path / f"f{trial}.bin")
        with open(path, "wb") as fh:
            fh.write(bytes(range(256)))
        # Same seed and size: the flip lands identically (path differs,
        # so use one name per trial round to keep the seed inputs equal).
        corrupt_file(path, "bitflip", seed=9)
        with open(path, "rb") as fh:
            out.append(fh.read())
    assert out[0] != bytes(range(256))
    with pytest.raises(ValueError, match="unknown corruption"):
        corrupt_file(path, "shred")


def test_corrupt_file_torn_tail_chops_only_the_end(tmp_path):
    path = str(tmp_path / "f.bin")
    payload = bytes(range(256)) * 4
    with open(path, "wb") as fh:
        fh.write(payload)
    corrupt_file(path, "torn_tail", seed=3)
    size = os.path.getsize(path)
    assert len(payload) - 64 <= size < len(payload)
    # A pure tail chop: everything before the tear is byte-identical.
    with open(path, "rb") as fh:
        assert fh.read() == payload[:size]


# ---------------------------------------------------------- trace writers

def _jobs(n):
    from repro.traces.schema import JobRecord
    return [JobRecord(i + 1, 1, 100 + i, 100 + i, 200 + i, 1)
            for i in range(n)]


def test_trace_writer_eio_aborts_atomically(tmp_path):
    from repro.traces.io import read_jobs, write_jobs

    path = str(tmp_path / "jobs.txt")
    write_jobs(path, _jobs(10))  # a good generation already on disk
    plan = FaultPlan([{"target": "jobs_writer", "kind": "eio", "at": 4}])
    with pytest.raises(OSError) as exc:
        write_jobs(path, _jobs(8), wrap=trace_writer_wrap(plan, "jobs_writer"))
    assert exc.value.errno == errno.EIO
    # The atomic writer aborted into tmp removal: the previous
    # generation survives intact and no torn sibling is left behind.
    assert [j.job_id for j in read_jobs(path)] == list(range(1, 11))
    assert not os.path.exists(path + ".tmp")


def test_trace_writer_kill_fires_with_flushed_torn_tail(tmp_path):
    from repro.traces.io import write_jobs

    path = str(tmp_path / "jobs.txt")
    ref = str(tmp_path / "ref.txt")
    jobs = _jobs(6)
    write_jobs(ref, jobs[:3])
    observed = []

    def kill():
        # What a real SIGKILL would leave on disk at this instant: the
        # flushed prefix in the .tmp sibling, no destination file yet.
        observed.append((os.path.getsize(path + ".tmp"),
                         os.path.exists(path)))

    plan = FaultPlan([{"target": "jobs_writer", "kind": "kill", "at": 3}])
    n = write_jobs(path, jobs,
                   wrap=trace_writer_wrap(plan, "jobs_writer", kill=kill))
    # The kill hook saw exactly the first three records, already flushed,
    # and the destination untouched -- the torn-.tmp crash signature.
    assert observed == [(os.path.getsize(ref), False)]
    assert n == len(jobs)  # the surviving process finished normally


def test_torn_gzip_trace_tail_survives_reliable_stream(tmp_path):
    """The headline regression: a writer killed mid-append leaves a jobs
    trace whose final gzip member is truncated.  The reliable stream must
    deliver every record before the tear exactly once, let the torn
    source die gracefully, and keep the other feeds flowing."""
    from repro.cli.workspace import save_workspace
    from repro.stream.events import EVENT_JOB
    from repro.stream.reliability import ReliableEventStream, RetryPolicy
    from repro.synth import TitanConfig, generate_dataset

    dataset = generate_dataset(TitanConfig(n_users=15, seed=3))
    clean_ws = str(tmp_path / "clean")
    torn_ws = str(tmp_path / "torn")
    for ws in (clean_ws, torn_ws):
        save_workspace(dataset, ws, n_shards=1)

    def stream(ws):
        return ReliableEventStream(
            ws, retry=RetryPolicy(max_attempts=2, base_delay=0.0,
                                  max_delay=0.0, jitter=0.0),
            sleep=lambda s: None)

    clean = expand_events(stream(clean_ws))
    jobs_path = os.path.join(torn_ws, "jobs.txt.gz")
    # Tear repeatedly until the cut is deep enough to eat real records,
    # not just the 8-byte gzip trailer.
    size0 = os.path.getsize(jobs_path)
    while size0 - os.path.getsize(jobs_path) < 256:
        corrupt_file(jobs_path, "torn_tail", seed=13)

    torn = stream(torn_ws)
    events = expand_events(torn)

    clean_jobs = [ev for ev in clean if ev.kind == EVENT_JOB]
    got_jobs = [ev for ev in events if ev.kind == EVENT_JOB]
    # Every job decoded before the tear is delivered, in order, once.
    assert got_jobs == clean_jobs[:len(got_jobs)]
    assert 0 < len(got_jobs) < len(clean_jobs)
    # The other feeds are untouched by the dying jobs source.
    assert ([ev for ev in events if ev.kind != EVENT_JOB]
            == [ev for ev in clean if ev.kind != EVENT_JOB])
    report = torn.report()
    jobs_info = report["sources"]["jobs"]
    assert jobs_info["health"] == "dead"
    assert "jobs" in report["held_watermarks"]
    assert jobs_info["last_error"] is not None
    assert torn.degraded
    # A torn tail is an I/O failure, not bad data: nothing quarantined.
    assert torn.quarantine.total == 0
