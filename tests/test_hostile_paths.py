"""Hostile-path round-trips: spaces, unicode, dotted directories, and the
delimiter guards in the line-oriented trace formats; atomic-write crash
behaviour for the writers that feed them."""

from __future__ import annotations

import gzip
import os

import pytest

from repro.traces.io import (
    atomic_output,
    read_app_log,
    read_app_log_chunks,
    read_users,
    write_app_log,
    write_users,
)
from repro.traces.schema import AppAccessRecord, UserRecord
from repro.vfs.snapshot import (
    SnapshotRecord,
    SnapshotWriter,
    iter_snapshot,
    write_snapshot,
)

HOSTILE_PATHS = [
    "/proj/v1.2/output",                 # dotted directory
    "/proj/a b/run 7/data.out",          # spaces
    "/proj/αβγ/δ εζ/结果.h5",             # unicode, mixed scripts
    "/proj/x/.hidden/..weird/file",      # dot-files and double dots
    "/proj/tab\tname/file",              # embedded tab
    "/proj/trailing./dir/v2..out",
]


@pytest.mark.parametrize("path", HOSTILE_PATHS)
def test_snapshot_record_line_round_trip(path):
    rec = SnapshotRecord(path, 4, 100, 200, 300, 7, flags=1, size=4096)
    assert SnapshotRecord.from_line(rec.to_line()) == rec


def test_snapshot_record_rejects_delimiter_and_newline():
    for bad in ("/proj/a|b/file", "/proj/a\nb/file"):
        with pytest.raises(ValueError):
            SnapshotRecord(bad, 1, 0, 0, 0, 0).to_line()


def test_snapshot_shards_round_trip_hostile_paths(tmp_path):
    records = [SnapshotRecord(p, i + 1, 10 * i, 20 * i, 30 * i, i,
                              size=100 * i)
               for i, p in enumerate(HOSTILE_PATHS)]
    directory = str(tmp_path / "snap")
    write_snapshot(directory, records, n_shards=3)
    loaded = sorted(iter_snapshot(directory), key=lambda r: r.path)
    assert loaded == sorted(records, key=lambda r: r.path)


@pytest.mark.parametrize("path", HOSTILE_PATHS + ["/proj/pipe|name/file",
                                                 "/proj/cr\rname/file"])
def test_app_log_round_trip_hostile_paths(tmp_path, path):
    # The app log carries the path as the *last* field, so even '|' is
    # legal there -- the reader splits at most three times -- and lines
    # end only at '\n', so '\r' is legal too.  Both readers agree.
    log = str(tmp_path / "app_log.txt.gz")
    records = [AppAccessRecord(1000 + i, 7, path, op)
               for i, op in enumerate(("access", "create", "touch"))]
    assert write_app_log(log, records) == 3
    assert list(read_app_log(log)) == records
    assert [ev.payload for chunk in read_app_log_chunks(log)
            for ev in chunk.iter_events()] == records


def test_app_log_rejects_newline_in_path(tmp_path):
    rec = AppAccessRecord(1, 2, "/proj/a\nb")
    with pytest.raises(ValueError):
        write_app_log(str(tmp_path / "log.txt.gz"), [rec])


def test_users_round_trip_hostile_names(tmp_path):
    users = [UserRecord(1, "Ada Lovelace", 100),
             UserRecord(2, "Δρ. Μαρία", 200),
             UserRecord(3, "tab\tted", 300)]
    path = str(tmp_path / "users.txt.gz")
    assert write_users(path, users) == 3
    assert list(read_users(path)) == users


def test_users_rejects_delimiter_in_name(tmp_path):
    for bad in ("a|b", "a\nb"):
        with pytest.raises(ValueError):
            write_users(str(tmp_path / "users.txt.gz"),
                        [UserRecord(1, bad, 0)])


# ---------------------------------------------------------------------------
# atomic writes


@pytest.mark.parametrize("name", ["plain.txt", "zipped.txt.gz"])
def test_atomic_output_commits_on_success(tmp_path, name):
    path = str(tmp_path / name)
    with atomic_output(path) as fh:
        fh.write("hello αβ\n")
    opener = gzip.open if name.endswith(".gz") else open
    with opener(path, "rt") as fh:
        assert fh.read() == "hello αβ\n"
    assert not os.path.exists(f"{path}.tmp")


@pytest.mark.parametrize("name", ["plain.txt", "zipped.txt.gz"])
def test_atomic_output_preserves_old_content_on_crash(tmp_path, name):
    path = str(tmp_path / name)
    with atomic_output(path) as fh:
        fh.write("original\n")
    with pytest.raises(RuntimeError):
        with atomic_output(path) as fh:
            fh.write("torn half-write")
            raise RuntimeError("simulated crash")
    opener = gzip.open if name.endswith(".gz") else open
    with opener(path, "rt") as fh:
        assert fh.read() == "original\n"
    assert not os.path.exists(f"{path}.tmp")


def test_atomic_output_crash_leaves_no_destination(tmp_path):
    path = str(tmp_path / "fresh.txt")
    with pytest.raises(RuntimeError):
        with atomic_output(path) as fh:
            fh.write("never lands")
            raise RuntimeError("simulated crash")
    assert not os.path.exists(path)
    assert not os.path.exists(f"{path}.tmp")


def test_write_app_log_guard_fires_before_commit(tmp_path):
    # A mid-stream validation error aborts the atomic write: no partial
    # trace file appears.
    path = str(tmp_path / "log.txt.gz")
    records = [AppAccessRecord(1, 2, "/proj/fine"),
               AppAccessRecord(2, 2, "/proj/bad\npath")]
    with pytest.raises(ValueError):
        write_app_log(path, records)
    assert not os.path.exists(path)
    assert not os.path.exists(f"{path}.tmp")


def test_snapshot_writer_abort_removes_tmp_shards(tmp_path):
    directory = str(tmp_path / "snap")
    rec = SnapshotRecord("/proj/a/file", 1, 0, 0, 0, 0)
    with pytest.raises(RuntimeError):
        with SnapshotWriter(directory, n_shards=2) as writer:
            writer.write(rec)
            raise RuntimeError("simulated crash")
    assert os.listdir(directory) == []


def test_snapshot_writer_commit_leaves_only_final_shards(tmp_path):
    directory = str(tmp_path / "snap")
    records = [SnapshotRecord(p, 1, 0, 0, 0, 0) for p in HOSTILE_PATHS]
    with SnapshotWriter(directory, n_shards=2) as writer:
        for rec in records:
            writer.write(rec)
    names = sorted(os.listdir(directory))
    assert names and all(not n.endswith(".tmp") for n in names)
    assert sorted(r.path for r in iter_snapshot(directory)) == \
        sorted(r.path for r in records)
