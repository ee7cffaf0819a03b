"""Tests for trace schemas and log I/O."""

import gzip
import json

import pytest

from repro.stream.reliability import DeadLetterLog, EventQuarantine
from repro.traces import (
    AppAccessRecord,
    JobRecord,
    PublicationRecord,
    UserRecord,
    read_app_log,
    read_jobs,
    read_publications,
    read_users,
    write_app_log,
    write_jobs,
    write_publications,
    write_users,
)
from repro.traces.io import (CHUNK_ROWS, read_app_log_chunks, read_job_chunks,
                             read_publication_chunks)


# ---------------------------------------------------------------- schema

def test_user_record_validation():
    with pytest.raises(ValueError):
        UserRecord(-1, "bad", 0)


def test_job_record_core_hours():
    job = JobRecord(1, 2, 100, 200, 200 + 3600, num_nodes=4,
                    cores_per_node=16)
    assert job.num_cores == 64
    assert job.duration_seconds == 3600
    assert job.core_hours() == pytest.approx(64.0)


def test_job_record_time_ordering_enforced():
    with pytest.raises(ValueError):
        JobRecord(1, 2, 100, 90, 200, 1)     # start before submit
    with pytest.raises(ValueError):
        JobRecord(1, 2, 100, 200, 150, 1)    # end before start


def test_job_record_counts_enforced():
    with pytest.raises(ValueError):
        JobRecord(1, 2, 0, 0, 10, 0)


def test_app_record_ops():
    for op in ("access", "create", "touch"):
        AppAccessRecord(0, 1, "/p", op)
    with pytest.raises(ValueError):
        AppAccessRecord(0, 1, "/p", "delete")


def test_publication_author_score_eq8():
    # c=4, n=3 authors: scores (c+1)*(n-i+1) for 1-based i -> 15, 10, 5.
    pub = PublicationRecord(1, 0, [10, 20, 30], citations=4)
    assert pub.author_score(10) == 15.0
    assert pub.author_score(20) == 10.0
    assert pub.author_score(30) == 5.0


def test_publication_single_author_score():
    # c=0, n=1: (0+1)*(1-1+1) = 1.
    pub = PublicationRecord(1, 0, [5], citations=0)
    assert pub.author_score(5) == 1.0


def test_publication_non_author_raises():
    pub = PublicationRecord(1, 0, [5], citations=0)
    with pytest.raises(ValueError):
        pub.author_score(99)


def test_publication_validation():
    with pytest.raises(ValueError):
        PublicationRecord(1, 0, [1, 1], citations=0)
    with pytest.raises(ValueError):
        PublicationRecord(1, 0, [1], citations=-1)


# ---------------------------------------------------------------- I/O

def test_users_roundtrip(tmp_path):
    users = [UserRecord(i, f"user{i}", 1000 + i) for i in range(5)]
    path = str(tmp_path / "users.txt")
    assert write_users(path, users) == 5
    assert list(read_users(path)) == users


def test_jobs_roundtrip_gz(tmp_path):
    jobs = [JobRecord(i, i % 3, 100 * i, 100 * i + 5, 100 * i + 65, i + 1, 16)
            for i in range(8)]
    path = str(tmp_path / "jobs.txt.gz")
    assert write_jobs(path, jobs) == 8
    assert list(read_jobs(path)) == jobs


def test_app_log_roundtrip_preserves_pipes_in_nothing(tmp_path):
    accesses = [AppAccessRecord(10, 1, "/scratch/u/f.h5", "access"),
                AppAccessRecord(11, 2, "/scratch/u/new.out", "create"),
                AppAccessRecord(12, 3, "/scratch/u/old.dat", "touch")]
    path = str(tmp_path / "apps.log")
    write_app_log(path, accesses)
    assert list(read_app_log(path)) == accesses


def test_publications_roundtrip(tmp_path):
    pubs = [PublicationRecord(0, 500, [1, 2, 3], 12),
            PublicationRecord(1, 900, [4], 0)]
    path = str(tmp_path / "pubs.txt")
    write_publications(path, pubs)
    assert list(read_publications(path)) == pubs


def test_empty_file_roundtrip(tmp_path):
    path = str(tmp_path / "empty.txt")
    assert write_jobs(path, []) == 0
    assert list(read_jobs(path)) == []


def test_large_app_log_roundtrip_chunked_writes(tmp_path):
    # Exceeds the writelines chunk size several times over, gzip included.
    n = 120_000
    accesses = [AppAccessRecord(1_000 + i, i % 500,
                                f"/scratch/u{i % 500}/run{i // 500}/out.dat",
                                ("access", "create", "touch")[i % 3])
                for i in range(n)]
    path = str(tmp_path / "apps.log.gz")
    assert write_app_log(path, accesses) == n
    assert list(read_app_log(path)) == accesses


# ---------------------------------------------------------------- columnar

#: Lines of every shape, per trace family: plain rows, rows only the
#: per-line parser reads (ints ``int()`` accepts but that are not plain
#: digits), and each malformed-row shape.
MIXED_LINES = {
    "jobs": (read_jobs, read_job_chunks, [
        "1|1|100|100|110|2|16",
        "2|+1|200|200|210|2|16",           # sign
        "3| 1|300|300|310|2|16",           # padding
        "4|1_0|400|400|410|2|16",          # digit separator
        "5|-3|500|500|510|2|16",           # negative
        "6|1|600|600|610|2|16\r",          # trailing CR (int() strips it)
        "7|١|700|700|710|2|16",       # a non-ASCII digit
        "8|1|800|800|810|2",               # too few fields
        "9|1|900|900|910|2|16|7",          # too many fields
        "10|x|1000|1000|1010|2|16",        # not an int
        "11||1100|1100|1110|2|16",         # empty field
        "12|1|1200|1250|1240|2|16",        # ends before it starts
        "13|1|1300|1290|1310|2|16",        # starts before submit
        "14|1|1400|1400|1410|0|16",        # no nodes
        "",                                # blank: skipped, not diverted
        "CORRUPTED GZIP FRAGMENT",
        "0015|1|1500|1500|1510|2|16",      # leading zeros
    ]),
    "accesses": (read_app_log, read_app_log_chunks, [
        "100|1|access|/p/a",
        "101|1|create|/p/b",
        "102|2|touch|/p/a",
        "103|1|delete|/p/a",               # unknown op
        "104|1|Access|/p/a",               # ops are case-sensitive
        "105|1| access|/p/a",
        "106|1|access|/p/pipe|name",       # '|' inside the path
        "107|1|access",                    # too few fields
        "1e3|1|access|/p/a",               # not an int
        "+108|1|access|/p/a",
        "109| 1|access|/p/c",
        "1_10|1|access|/p/a",
        "111|1|access|",                   # empty path
        "112|1|access|/p/cr\r",            # CR kept in the path
        "113|1|touch|/p/αβ/结果",
        "",
        "114|1|create|/p/d",
    ]),
    "publications": (read_publications, read_publication_chunks, [
        "1|100|3|4,5,6",
        "2|200|0|",                        # no authors
        "3|300|1|4,5,4",                   # duplicate authors
        "4|400|1",                         # too few fields
        "5|500|1|4,x",                     # author not an int
        "6|600|1|4,,5",                    # empty author
        "7|700|1|4,",                      # trailing comma
        "8|800|-1|4",                      # negative citations
        "9|900|0|+4,5",
        "10|1000| 2|4",
        "11|1100|0|1_0",
        "12|1200|0|4,+4",                  # duplicate, spelled twice
        "13|1300|0| 4, 5",
        "14|1400|2|7",
    ]),
}


def _dead_letters(path):
    with open(path) as fh:
        return [(rec["reason"], rec["detail"], rec["event"])
                for rec in map(json.loads, fh)]


def _chunk_records(chunks):
    return [ev.payload for chunk in chunks for ev in chunk.iter_events()]


@pytest.mark.parametrize("family", sorted(MIXED_LINES))
def test_columnar_readers_match_record_readers(tmp_path, family):
    read_records, read_chunks, lines = MIXED_LINES[family]
    path = str(tmp_path / f"{family}.txt.gz")
    with gzip.open(path, "wt", newline="") as fh:
        fh.write("\n".join(lines))     # the last line has no newline
    seen = {}
    for name, reader in (("records", read_records), ("chunks", read_chunks)):
        dead = str(tmp_path / f"{name}.jsonl")
        with DeadLetterLog(dead) as log:
            hook = EventQuarantine(dead_letter=log).reader_hook(family)
            out = list(reader(path, on_error=hook))
        seen[name] = (out, _dead_letters(dead))
    records, diverted = seen["records"]
    chunks, chunk_diverted = seen["chunks"]
    assert all(chunk.single_kind for chunk in chunks)
    assert _chunk_records(chunks) == records
    assert chunk_diverted == diverted
    assert len(records) + len(diverted) == sum(1 for ln in lines if ln)
    assert len(diverted) >= 5


def test_columnar_reader_chunks_a_long_trace(tmp_path):
    n = 2 * CHUNK_ROWS + 100
    lines = [f"{1000 + i}|{i % 7}|{('access', 'create', 'touch')[i % 3]}"
             f"|/p/u{i % 7}/f{i % 50}" for i in range(n)]
    for i in range(0, n, 997):
        lines[i] = f"garbage {i}"
    path = str(tmp_path / "apps.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    errors, chunk_errors = [], []
    records = list(read_app_log(path, on_error=lambda *a: errors.append(a)))
    chunks = list(read_app_log_chunks(
        path, on_error=lambda *a: chunk_errors.append(a)))
    assert [chunk.n for chunk in chunks][:2] == [CHUNK_ROWS - 9,
                                                  CHUNK_ROWS - 8]
    assert _chunk_records(chunks) == records
    assert [line for line, _exc in chunk_errors] == \
        [line for line, _exc in errors]


def test_columnar_reader_diverts_bytes_that_are_not_utf8(tmp_path):
    path = str(tmp_path / "apps.txt")
    with open(path, "wb") as fh:
        fh.write(b"100|1|access|/p/a\n"
                 b"101|1|access|/p/\xff\xfe\n"
                 b"102|1|access|/p/\xce\xb1\n")
    diverted = []
    chunks = list(read_app_log_chunks(
        path, on_error=lambda line, exc: diverted.append((line, exc))))
    assert [r.path for r in _chunk_records(chunks)] == ["/p/a", "/p/α"]
    [(line, exc)] = diverted
    assert line == "101|1|access|/p/\\xff\\xfe"
    assert isinstance(exc, UnicodeDecodeError)
    with pytest.raises(UnicodeDecodeError):
        list(read_app_log_chunks(path))


def test_columnar_reader_diverts_ints_an_int64_cannot_hold(tmp_path):
    path = str(tmp_path / "jobs.txt")
    with open(path, "w") as fh:
        fh.write("1|1|100|100|110|2|16\n"
                 "2|1|200|200|210|2|99999999999999999999\n"
                 "3|1|300|300|310|2|16\n")
    diverted = []
    chunks = list(read_job_chunks(
        path, on_error=lambda line, exc: diverted.append(exc)))
    assert [j.job_id for j in _chunk_records(chunks)] == [1, 3]
    assert [type(exc) for exc in diverted] == [OverflowError]
