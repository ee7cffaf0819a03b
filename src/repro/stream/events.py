"""Unified event schema and k-way merge for the online retention service.

A production retention daemon does not receive "the trace" -- it receives
interleaved feeds: scheduler job submissions, parallel-file-system access
records, and (slow, bursty) publication metadata.  This module unifies
the three existing trace families into one time-ordered
:class:`StreamEvent` sequence via a stable k-way heap merge over the
``traces/io`` readers, so the service consumes exactly one clock.

Ordering contract
-----------------
The merged stream is sorted by timestamp.  Ties are resolved
deterministically: **activity events (jobs, publications) come before
access events at the same timestamp**, because a purge trigger fired at
instant ``t_c`` must see every activity with ``ts <= t_c`` (the batch
evaluators clip inclusively) while the access replay is day-bucketed and
insensitive to sub-day ordering.  Within one source the original trace
order is preserved (``heapq.merge`` is stable), which is what makes the
engine's ``ColumnarActivityStore`` order rows of equal (uid, ts) -- and
so fold floats -- exactly as the batch engines' does, a requirement for
bit-identical results.

Each source iterator is validated to be non-decreasing in time; a
regression raises ``ValueError`` at the offending event rather than
silently corrupting the stream clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from ..traces.io import read_app_log, read_jobs, read_publications
from ..traces.schema import AppAccessRecord, JobRecord, PublicationRecord

__all__ = ["EVENT_JOB", "EVENT_PUBLICATION", "EVENT_ACCESS", "StreamEvent",
           "job_events", "publication_events", "access_events",
           "merge_event_streams", "dataset_event_stream",
           "workspace_event_stream"]

EVENT_JOB = "job"
EVENT_PUBLICATION = "publication"
EVENT_ACCESS = "access"

_Payload = Union[JobRecord, PublicationRecord, AppAccessRecord]


@dataclass(slots=True, frozen=True)
class StreamEvent:
    """One merged event: a timestamp, a kind tag, and the source record."""

    ts: int
    kind: str
    payload: _Payload


def job_events(jobs: Iterable[JobRecord]) -> Iterator[StreamEvent]:
    """Job records as :class:`StreamEvent`\\ s keyed on ``submit_ts``."""
    for job in jobs:
        yield StreamEvent(job.submit_ts, EVENT_JOB, job)


def publication_events(pubs: Iterable[PublicationRecord],
                       ) -> Iterator[StreamEvent]:
    for pub in pubs:
        yield StreamEvent(pub.ts, EVENT_PUBLICATION, pub)


def access_events(accesses: Iterable[AppAccessRecord],
                  ) -> Iterator[StreamEvent]:
    for rec in accesses:
        yield StreamEvent(rec.ts, EVENT_ACCESS, rec)


def _validated(events: Iterator[StreamEvent], source: str,
               ) -> Iterator[StreamEvent]:
    last = None
    for ev in events:
        if last is not None and ev.ts < last:
            raise ValueError(
                f"{source} events regress in time: {ev.ts} after {last}")
        last = ev.ts
        yield ev


def merge_event_streams(jobs: Iterable[JobRecord] = (),
                        publications: Iterable[PublicationRecord] = (),
                        accesses: Iterable[AppAccessRecord] = (),
                        ) -> Iterator[StreamEvent]:
    """Stable time-ordered merge of the three trace families.

    Sources may be lists or lazy iterators (the workspace reader streams
    straight off disk); each must be internally time-sorted.  At equal
    timestamps the merge emits jobs, then publications, then accesses --
    ``heapq.merge`` breaks key ties by source position, so listing the
    activity sources first implements the activity-before-access
    contract, and within one source the original order is kept.
    """
    return heapq.merge(
        _validated(job_events(jobs), "job"),
        _validated(publication_events(publications), "publication"),
        _validated(access_events(accesses), "access"),
        key=lambda ev: ev.ts)


def dataset_event_stream(dataset) -> Iterator[StreamEvent]:
    """Merged event stream of an in-memory ``TitanDataset`` / workspace."""
    return merge_event_streams(dataset.jobs, dataset.publications,
                               dataset.accesses)


def workspace_event_stream(directory: str) -> Iterator[StreamEvent]:
    """Merged event stream read lazily from a workspace directory.

    Unlike :func:`~repro.cli.workspace.load_workspace` this never holds a
    full trace family in memory -- the three gzip readers are consumed
    record by record as the merge advances, so serving a workspace is
    O(open files), not O(trace size).  Yields the same sequence as
    ``dataset_event_stream(load_workspace(directory))``.
    """
    import os

    return merge_event_streams(
        read_jobs(os.path.join(directory, "jobs.txt.gz")),
        read_publications(os.path.join(directory, "publications.txt.gz")),
        read_app_log(os.path.join(directory, "app_log.txt.gz")))
