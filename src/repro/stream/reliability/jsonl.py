"""A rotating, crash-safe JSONL log: one JSON object per line.

The dead-letter log of diverted rows and the metrics history of
per-boundary samples are the same file format with the same durability
model, so both are a :class:`RotatingJsonl`:

* every record is appended as one line and flushed at once -- the log
  is forensic evidence, and the crash it documents may be imminent;
* when the live file grows past ``max_bytes`` it is renamed to
  ``<path>.1`` (cascading through ``backups`` numbered siblings, the
  oldest dropped) and the directory is fsynced, so a pathological writer
  cannot grow the log without bound;
* a crash can tear the final line.  Readers skip torn lines, and the
  next writer ends the fragment with a newline before its first record,
  so a new record is never glued onto a fragment and lost with it.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator

from ...traces.io import atomic_output, fsync_directory

__all__ = ["RotatingJsonl", "read_records"]


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, default=repr) + "\n"


def read_records(path: str, backups: int) -> Iterator[dict]:
    """Every readable record of the log at ``path``, oldest first.

    Yields the surviving numbered backups (``<path>.<backups>`` down to
    ``<path>.1``), then the live file, skipping missing files, blank and
    torn lines, and lines that are not JSON objects.
    """
    paths = [f"{path}.{i}" for i in range(backups, 0, -1)]
    paths.append(path)
    for candidate in paths:
        try:
            fh = open(candidate)
        except OSError:
            continue
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    yield record


class RotatingJsonl:
    """Append-only JSONL file plus cascading numbered backups.

    ``written`` counts the records this instance appended and
    ``rotations`` the renames it made.  Callers that append from several
    threads hold their own lock around :meth:`append`.
    """

    def __init__(self, path: str, max_bytes: int = 4_000_000,
                 backups: int = 1) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.path = path
        self.max_bytes = int(max_bytes)
        self.backups = int(backups)
        self.written = 0
        self.rotations = 0
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        try:
            with open(path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                torn = fh.read(1) != b"\n"
        except OSError:  # missing or empty: nothing to end
            torn = False
        self._fh = open(path, "a")
        if torn:
            self._fh.write("\n")
            self._fh.flush()

    def append(self, record: dict) -> None:
        self._fh.write(_line(record))
        self._fh.flush()
        self.written += 1
        if self._fh.tell() > self.max_bytes:
            self._rotate()

    def _rotate(self) -> None:
        self._fh.close()
        for i in range(self.backups, 0, -1):
            older = f"{self.path}.{i}"
            newer = self.path if i == 1 else f"{self.path}.{i - 1}"
            if os.path.exists(newer):
                os.replace(newer, older)
        if self.backups < 1:
            os.unlink(self.path)
        fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        self._fh = open(self.path, "a")
        self.rotations += 1

    def records(self) -> Iterator[dict]:
        """Every readable record, oldest first (see :func:`read_records`)."""
        return read_records(self.path, self.backups)

    def rewrite(self, records: Iterable[dict]) -> None:
        """Replace the whole log with ``records``, oldest first.

        The backups are unlinked, oldest first, and only then is the
        live file rewritten atomically (tmp sibling, fsync, rename), so
        afterwards the files hold exactly ``records``.  A crash or a
        failure (raised) at any step leaves a suffix of the old records
        or the new ones -- in order, none twice -- never old backups
        in front of a new live file.
        """
        records = list(records)  # may be read from the files unlinked
        self._fh.close()
        try:
            for i in range(self.backups, 0, -1):
                try:
                    os.unlink(f"{self.path}.{i}")
                except FileNotFoundError:
                    pass
            with atomic_output(self.path) as fh:
                for record in records:
                    fh.write(_line(record))
        finally:
            self._fh = open(self.path, "a")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RotatingJsonl":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
