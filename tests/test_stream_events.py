"""Merged event stream: ordering, tie-breaking, validation, resume skip."""

from __future__ import annotations

import itertools

import pytest

from repro.cli.workspace import save_workspace
from repro.stream import (
    EVENT_ACCESS,
    EVENT_JOB,
    EVENT_PUBLICATION,
    StreamEvent,
    dataset_event_stream,
    merge_event_streams,
    skip_stream_items,
    workspace_event_stream,
)
from repro.stream.batch import BatchBuilder, BatchRun
from repro.traces.schema import AppAccessRecord, JobRecord, PublicationRecord

from conftest import as_runs, expand_events


def job(ts, uid=1, job_id=0):
    return JobRecord(job_id=job_id, uid=uid, submit_ts=ts, start_ts=ts,
                     end_ts=ts + 3600, num_nodes=1)


def pub(ts, pub_id=0):
    return PublicationRecord(pub_id=pub_id, ts=ts, author_uids=[1],
                             citations=0)


def access(ts, path="/proj/a/x"):
    return AppAccessRecord(ts=ts, uid=1, path=path)


def test_merge_is_time_ordered(tiny_dataset):
    stream = dataset_event_stream(tiny_dataset)
    last = None
    count = 0
    for event in stream:
        if last is not None:
            assert event.ts >= last
        last = event.ts
        count += 1
    assert count == (len(tiny_dataset.jobs)
                     + len(tiny_dataset.publications)
                     + len(tiny_dataset.accesses))


def test_merge_ties_put_activity_before_access():
    # A purge trigger at instant t_c must see every activity with
    # ts <= t_c, so at equal timestamps jobs and publications sort
    # before the access records of the same instant.
    events = list(merge_event_streams(
        jobs=[job(100)], publications=[pub(100)], accesses=[access(100)]))
    assert [e.kind for e in events] == [EVENT_JOB, EVENT_PUBLICATION,
                                        EVENT_ACCESS]


def test_merge_is_stable_within_source():
    jobs = [job(50, job_id=1), job(50, job_id=2), job(50, job_id=3)]
    events = list(merge_event_streams(jobs=jobs))
    assert [e.payload.job_id for e in events] == [1, 2, 3]


@pytest.mark.parametrize("source", ["jobs", "publications", "accesses"])
def test_merge_rejects_time_regression(source):
    kwargs = {
        "jobs": [job(100), job(99)],
        "publications": [pub(100), pub(99)],
        "accesses": [access(100), access(99)],
    }
    stream = merge_event_streams(**{source: kwargs[source]})
    with pytest.raises(ValueError, match="regress"):
        list(stream)


def test_workspace_stream_matches_dataset_stream(tiny_dataset, tmp_path):
    directory = save_workspace(tiny_dataset, str(tmp_path / "ws"))
    from_disk = list(workspace_event_stream(directory))
    in_memory = list(dataset_event_stream(tiny_dataset))
    assert len(from_disk) == len(in_memory)
    for a, b in zip(from_disk, in_memory):
        assert (a.ts, a.kind) == (b.ts, b.kind)
        assert a.payload == b.payload


def test_workspace_stream_is_lazy(tiny_dataset, tmp_path):
    directory = save_workspace(tiny_dataset, str(tmp_path / "ws"))
    stream = workspace_event_stream(directory)
    head = list(itertools.islice(stream, 5))
    assert len(head) == 5
    assert all(isinstance(e, StreamEvent) for e in head)


def test_skip_events_positions_cursor(tiny_dataset):
    everything = list(dataset_event_stream(tiny_dataset))
    tail = skip_stream_items(as_runs(everything, 100), 100)
    assert expand_events(tail) == everything[100:]
    assert expand_events(skip_stream_items(as_runs(everything), 0)) == \
        everything
    assert list(skip_stream_items(iter([]), 5)) == []

    # A run counts its row width; the one the cursor lands inside is
    # sliced, not exploded, and what follows it passes through as is.
    builder = BatchBuilder()
    builder.extend(everything[:300])
    batch = builder.build()
    runs = [BatchRun(batch, 0, 120), BatchRun(batch, 120, 300)]
    rest = list(as_runs(everything[300:]))
    skipped = list(skip_stream_items(iter(runs + rest), 150))
    assert (skipped[0].lo, skipped[0].hi) == (150, 300)
    assert list(skipped[0].iter_events()) == everything[150:300]
    assert skipped[1:] == rest


def test_skip_events_rejects_negative_cursor():
    with pytest.raises(ValueError):
        skip_stream_items(iter([]), -1)
