"""Shared fixtures: tiny deterministic datasets, file-system builders,
the batch-run builder and the merged-stream expander."""

from __future__ import annotations

import itertools

import pytest

from repro.core import ActivenessParams, RetentionConfig
from repro.server.ingest import DEFAULT_BATCH_EVENTS
from repro.stream import BatchBuilder, BatchRun, EventBatch
from repro.synth import TitanConfig, generate_dataset
from repro.vfs import DAY_SECONDS, FileMeta, VirtualFileSystem

#: A fixed "now" for unit tests: 2016-07-01 UTC.
NOW = 1_467_331_200


def make_fs(entries, capacity=None):
    """Build a VirtualFileSystem from (path, uid, size, age_days) tuples."""
    fs = VirtualFileSystem()
    for path, uid, size, age_days in entries:
        atime = NOW - int(age_days * DAY_SECONDS)
        fs.add_file(path, FileMeta(size=size, atime=atime, mtime=atime,
                                   ctime=atime - DAY_SECONDS, uid=uid))
    if capacity is None:
        fs.freeze_capacity()
    else:
        fs.capacity_bytes = capacity
    return fs


def as_runs(events, size=DEFAULT_BATCH_EVENTS):
    """``events`` as whole-batch ``BatchRun``s of at most ``size`` rows,
    the form ``MultiTenantService.run`` consumes (``run.batch`` is the
    chunk a columnar source delivers).

    The batches are built afresh on every call: a batch caches the pids
    of the first catalog that ingests it (``EventBatch.pid_map``), so
    two services must never share one.
    """
    it = iter(events)
    while True:
        builder = BatchBuilder()
        builder.extend(itertools.islice(it, size))
        if not len(builder):
            return
        batch = builder.build()
        yield BatchRun(batch, 0, batch.n)


def expand_events(items):
    """A stream as a list of events, every BatchRun (or EventBatch) row
    by row."""
    out = []
    for item in items:
        if isinstance(item, (BatchRun, EventBatch)):
            out.extend(item.iter_events())
        else:
            out.append(item)
    return out


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small but structurally complete synthetic Titan dataset."""
    return generate_dataset(TitanConfig(n_users=60, seed=11))


@pytest.fixture()
def default_config():
    return RetentionConfig()


@pytest.fixture()
def weekly_params():
    return ActivenessParams(period_days=7)
