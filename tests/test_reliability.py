"""Reliability layer: retry/health semantics, quarantine, dead letters.

The headline property (the satellite task's quarantine invariant): for
*any* seeded-random interleaving of valid and injected-invalid events,
the guarded stream -- and the service state computed from it -- equals
what the valid subsequence alone produces.
"""

from __future__ import annotations

import itertools
import json
import os
import random

import pytest

from repro.emulation import replay_bounds
from repro.faults import FaultPlan
from repro.server import MultiTenantService, TenantSpec
from repro.stream import dataset_event_stream
from repro.stream.events import (access_events, job_events,
                                 publication_events)
from repro.stream.reliability import (DeadLetterLog, EventQuarantine,
                                      ReliableEventStream, ResilientSource,
                                      RetryPolicy, SourceHealth,
                                      TailingFileSource)
from repro.stream.reliability.quarantine import (REASON_DUPLICATE,
                                                 REASON_NOT_EVENT,
                                                 REASON_REGRESSION,
                                                 REASON_UNKNOWN_UID,
                                                 REASON_UNPARSABLE)
from repro.server.ingest import DEFAULT_BATCH_EVENTS
from repro.stream.batch import EventBatch, horizon_merge
from repro.stream.events import EVENT_JOB, StreamEvent
from repro.traces.io import job_block
from repro.traces.schema import JobRecord

from conftest import as_runs, expand_events
from test_compiled_replay import assert_results_equal

_FAST = RetryPolicy(base_delay=0.0, max_delay=0.0, jitter=0.0)


def _chunks(events, size=DEFAULT_BATCH_EVENTS):
    """``events`` as EventBatch chunks of ``size`` rows, as a trace
    file's columnar reader delivers them."""
    return [run.batch for run in as_runs(events, size)]


# ---------------------------------------------------------------- retry

def test_retry_policy_backoff_and_jitter():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                         jitter=0.2, seed=1)
    delays = [policy.delay("jobs", i) for i in range(6)]
    # Deterministic: same policy, same source, same schedule.
    assert delays == [policy.delay("jobs", i) for i in range(6)]
    # Bounded by max_delay plus the jitter band.
    assert all(0.0 <= d <= 0.5 * 1.2 for d in delays)
    # Jitter differs per source.
    assert policy.delay("jobs", 0) != policy.delay("accesses", 0)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)


class _FlakyFactory:
    """Replayable source that raises OSError at scripted absolute indexes."""

    def __init__(self, items, fail_at=(), fail_opens=0):
        self.items = items
        self.fail_at = set(fail_at)   # index -> fail once when reached
        self.fail_opens = fail_opens  # initial open() failures
        self.opens = 0

    def __call__(self):
        self.opens += 1
        if self.opens <= self.fail_opens:
            raise OSError("scripted open failure")
        return self._gen()

    def _gen(self):
        for i, item in enumerate(self.items):
            if i in self.fail_at:
                self.fail_at.discard(i)  # transient: fails once
                raise OSError(f"scripted failure at {i}")
            yield item


def _jobs(n, start=100, step=10):
    return [StreamEvent(start + step * i, EVENT_JOB,
                        JobRecord(start + i, 1, start + step * i,
                                  start + step * i,
                                  start + step * i + 10, 1))
            for i in range(n)]


def test_resilient_source_retries_and_recovers():
    items = _chunks(_jobs(20), 1)
    factory = _FlakyFactory(items, fail_at={0, 7, 15}, fail_opens=2)
    src = ResilientSource("jobs", factory, policy=_FAST,
                          sleep=lambda s: None)
    assert list(src) == items
    assert src.health is SourceHealth.OK
    assert src.retries == 5  # 2 failed opens + 3 mid-stream failures
    assert src.episodes >= 1
    assert src.pos == len(items)


def test_resilient_source_dies_after_budget():
    class _AlwaysDown:
        def __call__(self):
            raise OSError("feed is gone")

    src = ResilientSource("jobs", _AlwaysDown(),
                          policy=RetryPolicy(max_attempts=3, base_delay=0.0,
                                             max_delay=0.0, jitter=0.0),
                          sleep=lambda s: None)
    assert list(src) == []
    assert src.health is SourceHealth.DEAD
    assert src.last_error is not None
    # Dead stays dead: the iterator does not resurrect.
    assert list(src) == []


def test_resilient_source_deadline():
    clock_value = [0.0]

    def clock():
        clock_value[0] += 10.0
        return clock_value[0]

    class _AlwaysDown:
        def __call__(self):
            raise OSError("down")

    src = ResilientSource("jobs", _AlwaysDown(),
                          policy=RetryPolicy(max_attempts=100,
                                             base_delay=0.0, max_delay=0.0,
                                             jitter=0.0, deadline=5.0),
                          sleep=lambda s: None, clock=clock)
    assert list(src) == []
    assert src.health is SourceHealth.DEAD


def test_dead_source_excluded_from_merge_with_watermark():
    good = _jobs(5)
    dying_items = _jobs(3, start=105)
    factory = _FlakyFactory(_chunks(dying_items, 1), fail_at={2})
    # One retry budget: the mid-stream failure at index 2 kills it.
    dying = ResilientSource(
        "dying", factory,
        policy=RetryPolicy(max_attempts=1, base_delay=0.0, max_delay=0.0,
                           jitter=0.0),
        sleep=lambda s: None)
    healthy = ResilientSource("healthy", lambda: _chunks(good, 1),
                              policy=_FAST, sleep=lambda s: None)
    merged = expand_events(horizon_merge([healthy, dying]))
    # The merge finished (no exception) with everything the dead source
    # managed to deliver plus the full healthy feed.
    assert [ev for ev in merged if ev in good] == good
    assert dying.health is SourceHealth.DEAD
    assert dying.watermark == dying_items[1].ts  # held where it died


# ---------------------------------------------------------------- tailing

def _jl(*ids):
    """Job trace lines whose job ids (and timestamps) are ``ids``."""
    return "".join(f"{i}|1|{i}|{i}|{i}|1|1\n" for i in ids)


def _ids(chunks):
    return [int(i) for chunk in chunks for i in chunk.job_id]


def test_tailing_file_source_yields_complete_lines(tmp_path):
    path = str(tmp_path / "feed.txt")
    with open(path, "w") as fh:
        fh.write(_jl(1, 2) + "3|1|3|3|3|1|1")  # no newline: in progress

    polls = []

    def sleep(seconds):
        polls.append(seconds)
        if len(polls) == 1:
            # The writer finishes the line and closes the feed mid-poll.
            with open(path, "a") as fh:
                fh.write("\n" + _jl(4))

    tail = TailingFileSource(path, job_block, poll_interval=0.01,
                             stop_when=lambda: len(polls) >= 2,
                             sleep=sleep, clock=lambda: 0.0)
    chunks = list(tail())
    assert all(type(c) is EventBatch for c in chunks)
    assert [_ids([c]) for c in chunks] == [[1, 2], [3, 4]]  # one per read
    # As a replayable factory it restarts from the head.
    assert _ids(itertools.islice(tail(), 1)) == [1, 2, 3, 4]


def test_tailing_file_source_follows_rotation(tmp_path):
    path = str(tmp_path / "feed.txt")
    with open(path, "w") as fh:
        fh.write(_jl(1, 2))
    polls = []

    def sleep(seconds):
        polls.append(seconds)
        if len(polls) == 1:
            # Classic logrotate: rename the full file, recreate the path.
            os.replace(path, path + ".1")
            with open(path, "w") as fh:
                fh.write(_jl(3, 4))

    tail = TailingFileSource(path, job_block, poll_interval=0.01,
                             stop_when=lambda: len(polls) >= 2,
                             sleep=sleep, clock=lambda: 0.0)
    # Old-incarnation lines delivered exactly once, new file read from
    # offset 0 -- nothing duplicated, nothing skipped.
    assert _ids(tail()) == [1, 2, 3, 4]


def test_tailing_rotation_abandons_torn_line(tmp_path):
    path = str(tmp_path / "feed.txt")
    with open(path, "w") as fh:
        fh.write(_jl(1) + "part")  # a write in progress, never finished
    polls = []
    bad = []

    def sleep(seconds):
        polls.append(seconds)
        if len(polls) == 1:
            os.replace(path, path + ".1")
            with open(path, "w") as fh:
                fh.write(_jl(2))

    tail = TailingFileSource(
        path, job_block, poll_interval=0.01,
        stop_when=lambda: len(polls) >= 2, sleep=sleep,
        clock=lambda: 0.0,
        on_error=lambda line, exc: bad.append((line, str(exc))))
    # The torn fragment is routed to on_error, never spliced onto the
    # new file's first line (which would parse as garbage like "part2").
    assert _ids(tail()) == [1, 2]
    assert bad == [("part", "torn line abandoned by rotation")]


def test_tailing_file_source_detects_truncation(tmp_path):
    path = str(tmp_path / "feed.txt")
    with open(path, "w") as fh:
        fh.write(_jl(100, 200) + "20")  # trailing "20" torn by the rewrite
    polls = []
    bad = []

    def sleep(seconds):
        polls.append(seconds)
        if len(polls) == 1:
            # copytruncate-style rewrite in place: same inode, shorter.
            with open(path, "w") as fh:
                fh.write(_jl(3))

    tail = TailingFileSource(
        path, job_block, poll_interval=0.01,
        stop_when=lambda: len(polls) >= 2, sleep=sleep,
        clock=lambda: 0.0,
        on_error=lambda line, exc: bad.append((line, str(exc))))
    # Without the st_size check the stale offset would swallow the new
    # content entirely; with it, the handle rewinds and parses the
    # rewritten file from its beginning.
    assert _ids(tail()) == [100, 200, 3]
    assert bad == [("20", "torn line abandoned by truncation")]


def test_tailing_file_source_idle_timeout_and_on_error(tmp_path):
    path = str(tmp_path / "feed.txt")
    with open(path, "w") as fh:
        fh.write(_jl(1) + "not-a-number\n" + _jl(2))
    clock_value = [0.0]

    def clock():
        clock_value[0] += 1.0
        return clock_value[0]

    bad = []
    tail = TailingFileSource(path, job_block, idle_timeout=3.0,
                             on_error=lambda line, exc: bad.append(line),
                             sleep=lambda s: None, clock=clock)
    assert _ids(tail()) == [1, 2]
    assert bad == ["not-a-number"]


def test_tailing_file_source_feeds_a_guarded_resilient_source(tmp_path):
    # The tail is a ResilientSource factory: a read error mid-feed costs
    # a reopen that skips the rows already delivered, the trace reader's
    # rule diverts a line it cannot hold (an id no int64 holds), and the
    # guard validates the chunks whole (a repeated job id).
    path = str(tmp_path / "jobs.txt")
    with open(path, "w") as fh:
        fh.write(_jl(1, 2))

    def writer_catches_up(seconds):
        with open(path, "a") as fh:
            fh.write("99999999999999999999|1|3|3|3|1|1\n" + _jl(2, 4))

    quarantine = EventQuarantine()
    tail = TailingFileSource(path, job_block, idle_timeout=0.0,
                             sleep=lambda s: None,
                             on_error=quarantine.reader_hook("jobs"))
    opened = []

    def factory():
        opened.append(1)
        for chunk in tail():
            if len(opened) == 1:
                yield chunk.slice_rows(0, 1)
                raise OSError("EIO")
            yield chunk

    source = ResilientSource("jobs", factory, sleep=writer_catches_up)
    assert _ids(quarantine.guard("jobs", source)) == [1, 2, 4]
    assert source.pos == 4 and source.retries == 1
    assert quarantine.by_reason == {REASON_UNPARSABLE: 1,
                                    REASON_DUPLICATE: 1}


# ---------------------------------------------------------------- quarantine

def _job_event(ts=1000, job_id=1, uid=1):
    return StreamEvent(ts, EVENT_JOB,
                       JobRecord(job_id, uid, ts, ts, ts + 10, 1))


def _job_batch(ts=1000, job_id=1, uid=1):
    return _chunks([_job_event(ts, job_id, uid)])[0]


def test_quarantine_reason_codes():
    quarantine = EventQuarantine(known_uids=[1, 2])
    good = _job_batch()
    bad = [
        ("garbage line", REASON_NOT_EVENT),
        (None, REASON_NOT_EVENT),
        (_job_event(job_id=3), REASON_NOT_EVENT),  # rows travel in batches
        (_job_batch(uid=99, job_id=7), REASON_UNKNOWN_UID),
        (_job_batch(ts=900, job_id=8), REASON_REGRESSION),
        (_job_batch(job_id=1), REASON_DUPLICATE),
    ]
    stream = [good] + [obj for obj, _reason in bad]
    out = list(quarantine.guard("jobs", stream))
    assert out == [good]
    summary = quarantine.summary()
    assert summary["quarantined"] == len(bad)
    for _obj, reason in bad:
        assert summary["by_reason"][reason] >= 1
    assert summary["by_source"] == {"jobs": len(bad)}


def test_quarantine_unknown_uid_is_opt_in():
    quarantine = EventQuarantine()  # no known_uids: anything goes
    batch = _job_batch(uid=424242)
    assert list(quarantine.guard("jobs", [batch])) == [batch]
    assert quarantine.total == 0


def test_quarantine_duplicate_ids_scoped_per_source():
    quarantine = EventQuarantine()
    a, b = _job_batch(job_id=5), _job_batch(job_id=5)
    assert list(quarantine.guard("jobs", [a])) == [a]
    # Same id from a *different* source is a different feed's counter.
    assert list(quarantine.guard("jobs2", [b])) == [b]
    assert quarantine.total == 0


def test_quarantine_diverts_job_core_seconds_outside_int64():
    # The engine scores a job as nodes * cores * (end - start) in int64:
    # 3577 * 42799 * 60247241209 is exactly 2**63 - 1 and fits; one more
    # core-second, or a span that itself overflows, does not.
    nodes, cores, span = 3577, 42799, 60247241209
    assert nodes * cores * span == (1 << 63) - 1
    rows = [JobRecord(1, 1, -2**62, -2**62, 2**62, 1, 1),
            JobRecord(2, 1, 1000, 1000, 1000 + span, nodes, cores),
            JobRecord(3, 1, 1000, 1000, 1002, 1 << 31, 1 << 31),
            JobRecord(4, 1, 1000, 1000, 1001, 4_000_000_000, 4_000_000_000)]
    quarantine = EventQuarantine()
    out = expand_events(quarantine.guard("jobs", _chunks(
        [StreamEvent(r.submit_ts, EVENT_JOB, r) for r in rows])))
    assert [ev.payload.job_id for ev in out] == [2]
    assert quarantine.by_reason == {REASON_UNPARSABLE: 3}


def test_dead_letter_rotation(tmp_path):
    path = str(tmp_path / "dead.jsonl")
    log = DeadLetterLog(path, max_bytes=200, backups=1)
    quarantine = EventQuarantine(dead_letter=log)
    for i in range(20):
        quarantine.divert("jobs", REASON_NOT_EVENT, f"detail {i}",
                          "x" * 40)
    log.close()
    assert log.written == 20
    assert log.rotations >= 1
    assert os.path.exists(path) and os.path.exists(f"{path}.1")
    assert os.path.getsize(path) <= 200 + 200  # one record of slack
    # Every surviving line is valid JSON with the reason code.
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            assert rec["reason"] == REASON_NOT_EVENT
    summary = quarantine.summary()
    assert summary["dead_letter"]["written"] == 20
    assert summary["dead_letter"]["rotations"] == log.rotations


def test_dead_letter_rotation_boundary_is_strict(tmp_path):
    # Measure one record's exact on-disk size with a probe log...
    probe = DeadLetterLog(str(tmp_path / "probe.jsonl"), max_bytes=10_000)
    EventQuarantine(dead_letter=probe).divert(
        "jobs", REASON_NOT_EVENT, "d", "x")
    probe.close()
    size = os.path.getsize(probe.path)

    # ...then set max_bytes to exactly that size: a file AT the limit
    # must not rotate (the trigger is strictly greater-than).
    path = str(tmp_path / "dead.jsonl")
    log = DeadLetterLog(path, max_bytes=size, backups=1)
    quarantine = EventQuarantine(dead_letter=log)
    quarantine.divert("jobs", REASON_NOT_EVENT, "d", "x")
    assert log.rotations == 0
    quarantine.divert("jobs", REASON_NOT_EVENT, "d", "x")
    assert log.rotations == 1
    # The reopened live file keeps accepting appends after rotation.
    quarantine.divert("jobs", REASON_NOT_EVENT, "d", "x")
    log.close()
    assert os.path.exists(path) and os.path.exists(f"{path}.1")
    with open(path) as fh:
        assert len(fh.readlines()) == 1
    with open(f"{path}.1") as fh:
        assert len(fh.readlines()) == 2


def test_dead_letter_resume_from_restores_counts(tmp_path):
    path = str(tmp_path / "dead.jsonl")
    log = DeadLetterLog(path, max_bytes=300, backups=1)
    quarantine = EventQuarantine(dead_letter=log)
    for i in range(12):
        # The final two records cover both sources and both reasons, so
        # the newest surviving file always carries every lifetime max.
        quarantine.divert("jobs" if i % 2 else "accesses",
                          (REASON_UNPARSABLE if i % 3 == 2
                           else REASON_NOT_EVENT),
                          f"detail {i}", "x" * 30)
    log.close()
    # Rotation has dropped the oldest records -- the counts can no longer
    # be recovered by counting surviving lines.
    assert log.rotations >= 2
    surviving = 0
    for candidate in (path, f"{path}.1"):
        with open(candidate) as fh:
            surviving += len(fh.readlines())
    assert surviving < 12
    # The crash that ends a daemon can tear its final append mid-line;
    # resume must skip it (a parsed seq of 99 would corrupt the total).
    with open(path, "a") as fh:
        fh.write('{"seq": 99, "reason"')

    fresh = EventQuarantine()
    fresh.resume_from(DeadLetterLog(path, max_bytes=300, backups=1))
    # The cumulative per-record counters let the restarted quarantine
    # continue the old daemon's lifetime totals exactly.
    assert fresh.total == quarantine.total == 12
    assert fresh.by_reason == quarantine.by_reason
    assert fresh.by_source == quarantine.by_source


def test_dead_letter_append_after_torn_tail_survives_restart(tmp_path):
    path = str(tmp_path / "dead.jsonl")
    with DeadLetterLog(path) as log:
        EventQuarantine(dead_letter=log).divert(
            "jobs", REASON_NOT_EVENT, "first", "x")
    with open(path, "a") as fh:
        fh.write('{"seq": 2, "reason"')  # the crash tore the next append
    # serve --resume: restore the counts, then divert the next row
    with DeadLetterLog(path) as log:
        quarantine = EventQuarantine(dead_letter=log)
        quarantine.resume_from(log)
        assert quarantine.total == 1
        quarantine.divert("accesses", REASON_UNPARSABLE, "second", "y")
    # one more restart: the row diverted after the tear is on record
    restarted = EventQuarantine()
    with DeadLetterLog(path) as log:
        restarted.resume_from(log)
    assert restarted.total == 2
    assert restarted.by_reason == {REASON_NOT_EVENT: 1, REASON_UNPARSABLE: 1}
    assert restarted.by_source == {"jobs": 1, "accesses": 1}


def test_reader_hook_diverts_unparsable_rows(tmp_path):
    from repro.traces.io import read_jobs
    path = str(tmp_path / "jobs.txt")
    with open(path, "w") as fh:
        fh.write("1|1|100|100|110|2|16\n")
        fh.write("CORRUPTED GZIP FRAGMENT\n")
        fh.write("2|1|200|200|210|2|16\n")
    quarantine = EventQuarantine()
    jobs = list(read_jobs(path, on_error=quarantine.reader_hook("jobs")))
    assert [j.job_id for j in jobs] == [1, 2]
    assert quarantine.by_reason == {REASON_UNPARSABLE: 1}


# ---------------------------------------------------------------- property

def _guarded_merge(dataset, plan, quarantine):
    """The ReliableEventStream merge, over in-memory trace lists."""
    sources = [
        ResilientSource("jobs", lambda: _chunks(job_events(dataset.jobs)),
                        policy=_FAST, plan=plan, sleep=lambda s: None),
        ResilientSource("publications",
                        lambda: _chunks(publication_events(
                            dataset.publications)),
                        policy=_FAST, plan=plan, sleep=lambda s: None),
        ResilientSource("accesses",
                        lambda: _chunks(access_events(dataset.accesses)),
                        policy=_FAST, plan=plan, sleep=lambda s: None),
    ]
    return iter(ReliableEventStream(sources=sources, quarantine=quarantine))


def _random_plan(rng, sizes):
    """A random insertion-only fault plan over the three sources."""
    specs = []
    for target, size in sizes.items():
        n_faults = rng.randint(0, 8)
        for _ in range(n_faults):
            kind = rng.choice(["malformed", "duplicate", "regress",
                               "stall", "eio"])
            # duplicate/regress need ids to be jobs/pubs to stay
            # quarantinable: a duplicated access is legitimate traffic.
            if kind == "duplicate" and target == "accesses":
                kind = "malformed"
            spec = {"target": target, "kind": kind,
                    "at": rng.randrange(max(1, size)),
                    "count": rng.randint(1, 3)}
            if kind == "regress":
                spec["arg"] = rng.choice([1, 3600, 86_400])
            specs.append(spec)
    return FaultPlan(specs, seed=rng.randrange(1 << 30))


def test_property_guarded_stream_equals_valid_subsequence(tiny_dataset):
    clean = list(dataset_event_stream(tiny_dataset))
    sizes = {"jobs": len(tiny_dataset.jobs),
             "publications": len(tiny_dataset.publications),
             "accesses": len(tiny_dataset.accesses)}
    rng = random.Random(20210815)
    for trial in range(25):
        plan = _random_plan(rng, sizes)
        quarantine = EventQuarantine()
        got = expand_events(_guarded_merge(tiny_dataset, plan, quarantine))
        assert got == clean, (
            f"trial {trial}: guarded stream diverged under plan "
            f"{plan.to_dict()}")
        inserted = sum(spec.count for spec in plan.specs
                       if spec.kind in ("malformed", "duplicate", "regress"))
        assert quarantine.total <= inserted


def test_property_service_state_matches_under_faults(tiny_dataset):
    """End to end: the *service result* is unchanged by injected faults."""
    start, end = replay_bounds(tiny_dataset)
    known = [u.uid for u in tiny_dataset.users]

    def run(events):
        spec = TenantSpec(name="activedr", policy="activedr")
        service = MultiTenantService(
            [(spec, spec.build_policy())],
            snapshot_fs=tiny_dataset.fresh_filesystem(),
            replay_start=start, replay_end=end, known_uids=known)
        return service.run(events)["activedr"]

    baseline = run(as_runs(dataset_event_stream(tiny_dataset)))
    sizes = {"jobs": len(tiny_dataset.jobs),
             "publications": len(tiny_dataset.publications),
             "accesses": len(tiny_dataset.accesses)}
    rng = random.Random(4)
    for _trial in range(3):
        plan = _random_plan(rng, sizes)
        quarantine = EventQuarantine()
        faulty = run(_guarded_merge(tiny_dataset, plan, quarantine))
        assert_results_equal(faulty, baseline)


# ---------------------------------------------------------------- workspace

def test_reliable_event_stream_survives_missing_file(tmp_path):
    """A workspace losing one feed degrades; the merge still completes."""
    from repro.cli.workspace import save_workspace
    from repro.synth import TitanConfig, generate_dataset

    ws = str(tmp_path / "ws")
    save_workspace(generate_dataset(TitanConfig(n_users=15, seed=3)), ws,
                   n_shards=1)
    os.unlink(os.path.join(ws, "publications.txt.gz"))
    stream = ReliableEventStream(
        ws, retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0,
                              jitter=0.0), sleep=lambda s: None)
    events = expand_events(stream)
    assert events  # jobs + accesses still flowed
    report = stream.report()
    assert report["sources"]["publications"]["health"] == "dead"
    assert "publications" in report["held_watermarks"]
    assert report["sources"]["jobs"]["health"] == "ok"
    assert stream.degraded


# ---------------------------------------------------------------- columnar

def test_faulted_source_cuts_chunks_at_scripted_rows():
    events = _jobs(20)
    plan = FaultPlan([{"target": "jobs", "kind": "duplicate", "at": 5},
                      {"target": "jobs", "kind": "stall", "at": 9},
                      {"target": "jobs", "kind": "malformed", "at": 12}],
                     seed=3)
    src = ResilientSource("jobs", lambda: _chunks(events, 8), policy=_FAST,
                          plan=plan, sleep=lambda s: None)
    items = list(src)
    # The 8-row chunks are cut at rows 5, 9 and 12, so each fault lands
    # between the same two rows as in a per-row stream; the stall's
    # reopen skips exactly the 9 rows already delivered.
    assert [item.n if type(item) is EventBatch else None
            for item in items] == [5, 1, 3, 1, 3, None, 4, 4]
    assert expand_events(items[:1] + items[2:5] + items[6:]) == events
    # The duplicate is a one-row batch of the row before its position.
    assert expand_events(items[1:2]) == events[4:5]
    assert (src.pos, src.retries) == (20, 1)
    quarantine = EventQuarantine()
    src = ResilientSource("jobs", lambda: _chunks(events, 8), policy=_FAST,
                          plan=FaultPlan(plan.specs, seed=3),
                          sleep=lambda s: None)
    assert expand_events(quarantine.guard("jobs", src)) == events
    assert quarantine.by_reason == {REASON_DUPLICATE: 1,
                                    REASON_NOT_EVENT: 1}


def test_regress_fault_shifts_a_copy_of_the_last_row():
    events = _jobs(6)
    plan = FaultPlan([{"target": "jobs", "kind": "regress", "at": 4,
                       "arg": 25}])
    src = ResilientSource("jobs", lambda: _chunks(events), policy=_FAST,
                          plan=plan, sleep=lambda s: None)
    items = list(src)
    (row,) = expand_events(items[1:2])
    assert (row.ts, row.payload.job_id) == (events[3].ts - 25,
                                            events[3].payload.job_id)
    assert expand_events(items[:1] + items[2:]) == events
    quarantine = EventQuarantine()
    assert expand_events(quarantine.guard("jobs", iter(items))) == events
    assert quarantine.by_reason == {REASON_REGRESSION: 1}


def _write_job_lines(directory, lines):
    """A workspace whose jobs trace is ``lines`` verbatim and whose other
    two traces are empty."""
    import gzip

    from repro.traces import write_app_log, write_publications

    with gzip.open(os.path.join(directory, "jobs.txt.gz"), "wt") as fh:
        fh.write("".join(line + "\n" for line in lines))
    write_publications(os.path.join(directory, "publications.txt.gz"), [])
    write_app_log(os.path.join(directory, "app_log.txt.gz"), [])


def test_reopened_file_source_rediverts_its_chunks_malformed_lines(
        tmp_path):
    """A stall on a file source holding malformed lines.  The reopen
    re-reads the chunk that holds ``pos``, so that chunk's malformed
    lines are diverted again on both sides of ``pos``: 4 diversions
    here, where a per-event reader, which re-diverts only the lines
    before ``pos``, makes 3."""
    lines = [f"{i}|1|{100 + i}|{100 + i}|{110 + i}|1|1" for i in range(20)]
    lines.insert(3, "not|a|job")            # before the stall's row 9
    lines.insert(16, "15|x|115|115|125|1|1")  # after it
    _write_job_lines(str(tmp_path), lines)
    plan = FaultPlan([{"target": "jobs", "kind": "stall", "at": 9}], seed=1)
    stream = ReliableEventStream(str(tmp_path), plan=plan, retry=_FAST,
                                 sleep=lambda s: None)
    events = expand_events(stream)
    assert [ev.payload.job_id for ev in events] == list(range(20))
    report = stream.report()
    assert report["sources"]["jobs"]["retries"] == 1
    assert report["quarantine"]["by_reason"] == {"unparsable_row": 4}


def test_file_row_dead_letters_hold_the_row_columns(tmp_path):
    """A row the guard diverts from a trace-file chunk is logged as its
    raw columns (``EventBatch.row_debug``), not as a StreamEvent repr."""
    lines = [f"{i}|1|{100 + i}|{100 + i}|{110 + i}|1|1" for i in range(5)]
    lines.append("2|1|104|104|114|1|1")  # job 2 again
    _write_job_lines(str(tmp_path), lines)
    path = str(tmp_path / "dead.jsonl")
    with DeadLetterLog(path) as log:
        stream = ReliableEventStream(str(tmp_path), dead_letter=log)
        assert len(expand_events(stream)) == 5
    with open(path) as fh:
        (record,) = [json.loads(line) for line in fh]
    assert (record["reason"], record["detail"]) == (
        REASON_DUPLICATE, "id 2 redelivered")
    assert record["event"] == repr(
        {"kind": "job", "ts": 104, "job_id": 2, "uid": 1, "start_ts": 104,
         "end_ts": 114, "num_nodes": 1, "cores_per_node": 1})


def test_property_chunked_sources_fault_like_event_sources(tiny_dataset,
                                                           tmp_path):
    """The same random plan fires at the same rows, with the same
    dead-letter reasons and details, whether a source delivers one-row
    chunks (the per-event form), 37-row chunks or its whole feed as one
    chunk."""
    clean = list(dataset_event_stream(tiny_dataset))
    feeds = {"jobs": list(job_events(tiny_dataset.jobs)),
             "publications": list(publication_events(
                 tiny_dataset.publications)),
             "accesses": list(access_events(tiny_dataset.accesses))}
    sizes = {name: len(events) for name, events in feeds.items()}
    rng = random.Random(99)
    for trial in range(8):
        specs = _random_plan(rng, sizes).to_dict()
        letters = []
        for chunk in (1, 37, None):
            plan = FaultPlan.from_dict(specs)
            path = str(tmp_path / f"dead-{trial}-{chunk}.jsonl")
            with DeadLetterLog(path) as log:
                quarantine = EventQuarantine(dead_letter=log)
                sources = [
                    ResilientSource(
                        name, lambda ev=events: _chunks(
                            ev, chunk or len(ev)),
                        policy=_FAST, plan=plan, sleep=lambda s: None)
                    for name, events in feeds.items()]
                got = expand_events(ReliableEventStream(
                    sources=sources, quarantine=quarantine))
            assert got == clean, f"trial {trial}, chunk {chunk}"
            with open(path) as fh:
                records = [json.loads(line) for line in fh]
            letters.append(sorted(
                (rec["source"], rec["source_seq"], rec["reason"],
                 rec["detail"]) for rec in records))
        assert letters[0] == letters[1] == letters[2], f"trial {trial}"


def test_reliable_stream_rows_equal_the_per_event_merge(tmp_path):
    from repro.cli.workspace import save_workspace
    from repro.stream import workspace_event_stream
    from repro.synth import TitanConfig, generate_dataset

    ws = str(tmp_path / "ws")
    save_workspace(generate_dataset(TitanConfig(n_users=40, seed=8)), ws,
                   n_shards=1)
    runs = list(ReliableEventStream(ws))
    assert expand_events(runs) == list(workspace_event_stream(ws))
    assert any(not run.batch.single_kind for run in runs)


def test_reliable_stream_breaks_timestamp_ties_like_the_heap(tmp_path):
    """Equal timestamps across all three sources, in runs that cross
    chunk borders: activity first, then accesses, each in file order."""
    from repro.stream import workspace_event_stream
    from repro.traces import (AppAccessRecord, PublicationRecord,
                              write_app_log, write_jobs, write_publications)
    from repro.traces.io import CHUNK_ROWS

    n = 3 * CHUNK_ROWS
    ts = [100 * (i // 5000) for i in range(n)]   # long same-ts runs
    write_app_log(str(tmp_path / "app_log.txt.gz"),
                  [AppAccessRecord(t, i % 9, f"/p/{i % 300}")
                   for i, t in enumerate(ts)])
    write_jobs(str(tmp_path / "jobs.txt.gz"),
               [JobRecord(i, i % 9, t, t, t + 5, 1)
                for i, t in enumerate(ts)])
    write_publications(str(tmp_path / "publications.txt.gz"),
                       [PublicationRecord(i, t, [i % 9], 1)
                        for i, t in enumerate(ts[::2500])])
    clean = list(workspace_event_stream(str(tmp_path)))
    assert expand_events(ReliableEventStream(str(tmp_path))) == clean
