"""Crash-safe, self-verifying checkpoint chains for the retention service.

A checkpoint is one ``.npz`` written atomically and durably (tmp sibling
+ fsync + ``os.replace`` + directory fsync): either the old checkpoint
or the new one exists, never a torn file.  The container is a plain
zip of ``.npy`` members, *stored* (not compressed), so
``np.load(path, allow_pickle=False)`` still opens it.  Inside, a single
JSON *manifest* entry, stored as UTF-8 bytes (a ``uint8`` array),
carries the scalars -- resume cursor, boundary position, counters,
config fingerprint -- and the bulk state travels as native NumPy arrays:

* the path catalog (paths + snapshot sizes, in intern order -- pids are
  positional, so order *is* identity), the paths packed as one UTF-8
  blob plus byte offsets (:func:`catalog_to_arrays`),
* the replay state columns (live/atime/size/owner),
* the daily metrics and group-count history,
* the retention reports, one UTF-8 JSON array per tenant
  (:func:`report_json`, :func:`reports_member`),
* the current user classification (kept verbatim: it cannot be
  re-derived after resume because activeness at the *old* trigger instant
  would see newer history),
* the activity store's sorted columns, per activity type.

Everything round-trips exactly: ints and bools verbatim, floats through
JSON's shortest-round-trip repr or float64 arrays, sets as sorted lists.
That exactness is what lets a resumed service continue bit-identically
(pinned by ``tests/test_stream_checkpoint.py``).

Why stored members: a link is written on the engine thread, between two
events, so the engine waits for it.  Deflate at level 1 reads about
100 MB/s and keeps about a quarter of the bytes, so storing wins on any
disk faster than about 75 MB/s.  On a 2-vCPU VM (ext4, whose fsync is
likely cheaper than a real device's) a late 4.55 MB link of the
benchmark's ``serve_socket4`` took 9.9 ms to write and fsync stored,
against 57 ms deflated to 1.15 MB; a pass of that workload now writes
about 55 MB of links instead of 14 MB (three retained).  The parts of
a link that only grow -- the catalog's paths and the reports -- are
encoded once, as they are added
(:meth:`~repro.emulation.compiled.PathCatalog.packed_paths`, the
tenants' report cache), not again at every link.

Formats
-------
The streaming engine stamps :data:`SERVER_CHECKPOINT_FORMAT`
(``repro-server-checkpoint/3``): stored members, and each tenant's
reports in a ``t<i>__reports`` member.  Server ``/2`` deflated its
members and kept the reports in the manifest's tenant entries; server
``/1`` also stored the manifest as a 0-d fixed-width UCS4 (``<U``)
string and the catalog as a ``<U`` ``paths`` array, four bytes per
character before compression.  Both still load and resume, so a
running chain survives the upgrade and its next link is written in the
new layout: the reader does not care how a member is compressed,
:func:`load_checkpoint` and :func:`catalog_from_arrays` are the only
two places that decode the ``<U`` layout, and the resume reads a
tenant's reports from its entry when the link has no reports member.
The ``repro-stream-checkpoint/*`` formats (:data:`CHECKPOINT_FORMAT` and
its ``<U`` predecessors), written by the retired single-policy engine,
still load and verify here so that the engine can refuse such a chain
by name instead of reporting it as corrupt.

Durability and verification
---------------------------
Every array carries a CRC32 *and* a SHA-256 digest (over its raw bytes,
dtype, and shape) in the manifest; :func:`load_checkpoint` recomputes
and compares them, so a torn write, a truncated npz, or silent bit rot
is reported as :class:`CheckpointCorruption` naming the failing array
and digests rather than surfacing as a numerically-wrong resume.  (The
manifest itself is covered by the npz container's zip CRC, which every
member carries.)
:class:`CheckpointManager` keeps a *chain* of the last ``retain``
checkpoints (``checkpoint-<seq>.npz``), garbage-collects older ones,
and on load falls back to the newest checkpoint that verifies -- the
rollback that lets a daemon survive a corrupt head.

This module is pure serialization -- it does not import the service; the
service imports it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zipfile
import zlib
from typing import IO, Any, Callable, Mapping, Sequence

import numpy as np

from ..core.activity import ActivityCategory, ActivityType
from ..core.classification import UserClass
from ..core.report import GroupTally, RetentionReport
from ..emulation.compiled import PathCatalog
from ..emulation.metrics import DailyMetrics
from ..traces.io import fsync_directory
from .batch import unpack_strings

__all__ = ["CHECKPOINT_FORMAT", "SERVER_CHECKPOINT_FORMAT",
           "CheckpointCorruption",
           "atomic_write_npz", "load_checkpoint", "verify_checkpoint",
           "reports_to_jsonable", "reports_from_jsonable",
           "report_json", "reports_member", "reports_from_member",
           "metrics_to_arrays", "metrics_from_arrays",
           "activeness_to_arrays", "activeness_from_arrays",
           "catalog_to_arrays", "catalog_from_arrays",
           "ingest_cursors", "CheckpointManager"]

#: The retired single-policy engine's format (read, never written).
CHECKPOINT_FORMAT = "repro-stream-checkpoint/3"

#: The multi-tenant server checkpoint: same container (atomic npz link,
#: per-array digests), different payload schema (shared arrays once,
#: per-tenant arrays under a ``t<i>__`` prefix, a ``tenants`` manifest).
SERVER_CHECKPOINT_FORMAT = "repro-server-checkpoint/3"

#: Formats this reader still accepts: stream /1 predates per-array
#: digests; stream /2 and server /1 are the ``<U`` layouts, and server
#: /2 keeps the reports in the manifest (module doc).
_ACCEPTED_FORMATS = (CHECKPOINT_FORMAT, "repro-stream-checkpoint/2",
                     "repro-stream-checkpoint/1",
                     SERVER_CHECKPOINT_FORMAT, "repro-server-checkpoint/2",
                     "repro-server-checkpoint/1")

_MANIFEST_KEY = "__manifest__"
_DIGESTS_KEY = "array_digests"

#: Stable serialization order for the four user classes.
_CLASSES = tuple(UserClass)


class CheckpointCorruption(ValueError):
    """A checkpoint failed to load or verify.

    ``array`` names the first failing array when digest verification
    caught the damage; it is ``None`` for container-level failures
    (truncated zip, missing manifest, unknown format).
    """

    def __init__(self, path: str, reason: str,
                 array: str | None = None) -> None:
        super().__init__(f"checkpoint {path}: {reason}")
        self.path = path
        self.reason = reason
        self.array = array


# ---------------------------------------------------------------------------
# atomic npz container


def _array_digest(arr: np.ndarray) -> dict:
    contiguous = np.ascontiguousarray(arr)
    raw = memoryview(contiguous)  # the array's bytes, not a copy of them
    return {
        "dtype": contiguous.dtype.str,
        "shape": list(contiguous.shape),
        "crc32": zlib.crc32(raw),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def _write_npz(fh: IO[bytes], arrays: Mapping[str, np.ndarray]) -> None:
    """What ``np.savez`` writes: every member stored, with its zip CRC.

    Not deflated: at engine speed deflate costs more than writing the
    bytes it saves (module doc).
    """
    with zipfile.ZipFile(fh, mode="w", compression=zipfile.ZIP_STORED,
                         allowZip64=True) as archive:
        for name, arr in arrays.items():
            with archive.open(f"{name}.npy", mode="w",
                              force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(arr),
                                          allow_pickle=False)


def atomic_write_npz(path: str, manifest: Mapping[str, Any],
                     arrays: Mapping[str, np.ndarray], *,
                     opener: Callable[[str], IO[bytes]] | None = None,
                     ) -> None:
    """Write ``arrays`` + JSON ``manifest`` to ``path`` atomically.

    The payload is fully written and fsynced to a same-directory ``.tmp``
    sibling, then renamed over ``path`` and the directory fsynced -- a
    crash at any instant leaves either the previous checkpoint or the
    complete new one, and the survivor is durable across power loss.

    The manifest is augmented with per-array CRC32/SHA-256 digests so
    readers can verify every array byte for byte, and stored as UTF-8
    JSON bytes.  The arrays are written as they are, without a copy, so
    the caller must not mutate them until this returns.  ``opener`` replaces
    the tmp-file ``open`` -- the hook the fault-injection harness uses
    to script torn writes, ``EIO``, and mid-write kills.
    """
    if _MANIFEST_KEY in arrays:
        raise ValueError(f"array name {_MANIFEST_KEY!r} is reserved")
    manifest = dict(manifest)
    manifest[_DIGESTS_KEY] = {name: _array_digest(arr)
                              for name, arr in arrays.items()}
    payload = dict(arrays)
    payload[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    tmp = f"{path}.tmp"
    try:
        with (opener(tmp) if opener is not None else open(tmp, "wb")) as fh:
            _write_npz(fh, payload)
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    os.replace(tmp, path)
    fsync_directory(os.path.dirname(os.path.abspath(path)))


def load_checkpoint(path: str, verify: bool = True,
                    ) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back ``(manifest, arrays)`` written by :func:`atomic_write_npz`.

    With ``verify`` (the default) every array's digest is recomputed and
    compared; any container damage or digest mismatch raises
    :class:`CheckpointCorruption` naming the failure.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != _MANIFEST_KEY}
            manifest = _decode_manifest(data[_MANIFEST_KEY]) \
                if _MANIFEST_KEY in data.files else None
    except (zipfile.BadZipFile, EOFError, OSError, KeyError, ValueError,
            zlib.error) as exc:
        raise CheckpointCorruption(
            path, f"unreadable npz ({type(exc).__name__}: {exc})") from exc
    if not isinstance(manifest, dict):
        raise CheckpointCorruption(
            path, "not a stream checkpoint (no manifest)")
    if manifest.get("format") not in _ACCEPTED_FORMATS:
        raise CheckpointCorruption(
            path, f"unsupported checkpoint format "
                  f"{manifest.get('format')!r}")
    if verify:
        _verify_digests(path, manifest, arrays)
    return manifest, arrays


def _decode_manifest(stored: np.ndarray) -> Any:
    if stored.dtype.kind == "U":  # stream /2, server /1: a 0-d UCS4 string
        return json.loads(str(stored))
    return json.loads(stored.tobytes().decode("utf-8"))


def _verify_digests(path: str, manifest: Mapping[str, Any],
                    arrays: Mapping[str, np.ndarray]) -> None:
    digests = manifest.get(_DIGESTS_KEY)
    if digests is None:
        return  # format /1: no digests recorded; container CRC only
    missing = sorted(set(digests) - set(arrays))
    if missing:
        raise CheckpointCorruption(
            path, f"array {missing[0]!r} missing from container",
            array=missing[0])
    extra = sorted(set(arrays) - set(digests))
    if extra:
        raise CheckpointCorruption(
            path, f"array {extra[0]!r} has no recorded digest",
            array=extra[0])
    for name in digests:
        expected = digests[name]
        actual = _array_digest(arrays[name])
        if actual != expected:
            raise CheckpointCorruption(
                path,
                f"digest mismatch in array {name!r}: stored "
                f"sha256={expected['sha256'][:16]}… crc32={expected['crc32']}"
                f", recomputed sha256={actual['sha256'][:16]}… "
                f"crc32={actual['crc32']}",
                array=name)


def verify_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Load ``path`` with full digest verification (alias for clarity)."""
    return load_checkpoint(path, verify=True)


# ---------------------------------------------------------------------------
# reports


def _report_to_jsonable(r: RetentionReport) -> dict:
    return {
        "policy": r.policy,
        "t_c": r.t_c,
        "lifetime_days": r.lifetime_days,
        "target_bytes": r.target_bytes,
        "purged_bytes_total": r.purged_bytes_total,
        "target_met": r.target_met,
        "passes_used": r.passes_used,
        "groups": {
            str(cls.value): {
                "purged_files": t.purged_files,
                "purged_bytes": t.purged_bytes,
                "retained_files": t.retained_files,
                "retained_bytes": t.retained_bytes,
                "users_purged": sorted(t.users_purged),
                "users_scanned": sorted(t.users_scanned),
            } for cls, t in r.groups.items()
        },
    }


def reports_to_jsonable(reports: list[RetentionReport]) -> list[dict]:
    """JSON-safe encoding of a report list; exact under round-trip."""
    return [_report_to_jsonable(r) for r in reports]


def report_json(report: RetentionReport) -> str:
    """One report's JSON text: ``json.dumps`` of its JSON-safe form."""
    return json.dumps(_report_to_jsonable(report))


def reports_member(texts: Sequence[str]) -> np.ndarray:
    """A tenant's ``reports`` member: the :func:`report_json` texts of its
    reports joined into one JSON array, as UTF-8 bytes (a ``uint8``
    array, digested like every other array).

    The bytes equal ``json.dumps(reports_to_jsonable(reports))``, so the
    member decodes with :func:`reports_from_member`.
    """
    return np.frombuffer(("[" + ", ".join(texts) + "]").encode("utf-8"),
                         dtype=np.uint8)


def reports_from_member(member: np.ndarray) -> list[RetentionReport]:
    """The reports a :func:`reports_member` array holds."""
    return reports_from_jsonable(json.loads(member.tobytes()))


def reports_from_jsonable(data: list[dict]) -> list[RetentionReport]:
    out = []
    for d in data:
        report = RetentionReport(
            policy=d["policy"], t_c=d["t_c"],
            lifetime_days=d["lifetime_days"],
            target_bytes=d["target_bytes"],
            purged_bytes_total=d["purged_bytes_total"],
            target_met=d["target_met"], passes_used=d["passes_used"])
        for key, g in d["groups"].items():
            report.groups[UserClass(int(key))] = GroupTally(
                purged_files=g["purged_files"],
                purged_bytes=g["purged_bytes"],
                retained_files=g["retained_files"],
                retained_bytes=g["retained_bytes"],
                users_purged=set(g["users_purged"]),
                users_scanned=set(g["users_scanned"]))
        out.append(report)
    return out


# ---------------------------------------------------------------------------
# metrics


def metrics_to_arrays(metrics: DailyMetrics) -> dict[str, np.ndarray]:
    return {
        "metrics_accesses": metrics.accesses,
        "metrics_misses": metrics.misses,
        "metrics_group_misses": np.stack(
            [metrics.group_misses[cls] for cls in _CLASSES]),
    }


def metrics_from_arrays(arrays: Mapping[str, np.ndarray]) -> DailyMetrics:
    accesses = np.asarray(arrays["metrics_accesses"], dtype=np.int64)
    metrics = DailyMetrics(int(accesses.size))
    metrics.accesses[:] = accesses
    metrics.misses[:] = np.asarray(arrays["metrics_misses"], dtype=np.int64)
    stacked = np.asarray(arrays["metrics_group_misses"], dtype=np.int64)
    for i, cls in enumerate(_CLASSES):
        metrics.group_misses[cls][:] = stacked[i]
    return metrics


# ---------------------------------------------------------------------------
# activeness history


def activeness_to_arrays(state: Mapping[ActivityType,
                                        tuple[np.ndarray, np.ndarray,
                                              np.ndarray]],
                         ) -> tuple[list[dict], dict[str, np.ndarray]]:
    """Flatten a ``snapshot_state`` mapping into (type table, arrays).

    The type table keeps the mapping's iteration order, which restore
    preserves -- per-type scatter order is part of bit-identity.
    """
    table = []
    arrays: dict[str, np.ndarray] = {}
    for i, (atype, (uids, ts, imp)) in enumerate(state.items()):
        table.append({"name": atype.name, "category": atype.category.value,
                      "weight": atype.weight})
        arrays[f"act_{i}_uids"] = uids
        arrays[f"act_{i}_ts"] = ts
        arrays[f"act_{i}_imp"] = imp
    return table, arrays


def activeness_from_arrays(table: list[dict],
                           arrays: Mapping[str, np.ndarray],
                           ) -> dict[ActivityType, tuple[np.ndarray,
                                                         np.ndarray,
                                                         np.ndarray]]:
    out = {}
    for i, entry in enumerate(table):
        atype = ActivityType(entry["name"],
                             ActivityCategory(entry["category"]),
                             entry["weight"])
        out[atype] = (np.asarray(arrays[f"act_{i}_uids"], dtype=np.int64),
                      np.asarray(arrays[f"act_{i}_ts"], dtype=np.int64),
                      np.asarray(arrays[f"act_{i}_imp"], dtype=np.float64))
    return out


# ---------------------------------------------------------------------------
# path catalog


def catalog_to_arrays(catalog: PathCatalog) -> dict[str, np.ndarray]:
    """The catalog's paths (UTF-8 blob + offsets) and snapshot sizes.

    Paths are stored in intern order: pids are positional, so the order
    is the identity a resumed service must reproduce.  The paths are
    ``pack_strings(catalog.paths)``, read from the catalog's packed pool
    (:meth:`PathCatalog.packed_paths`); all three arrays are views of the
    catalog's columns, not copies.
    """
    offsets, blob = catalog.packed_paths()
    return {"path_offsets": offsets, "path_blob": blob,
            "snap_size": catalog.snap_size}


def catalog_from_arrays(arrays: Mapping[str, np.ndarray]) -> PathCatalog:
    """Re-intern a stored catalog, in its stored order."""
    if "paths" in arrays:  # stream /2, server /1: a ``<U`` array
        paths = arrays["paths"].tolist()
    else:
        paths = unpack_strings(arrays["path_offsets"],
                               arrays["path_blob"].tobytes())
    catalog = PathCatalog()
    snap_size = np.asarray(arrays["snap_size"], dtype=np.int64).tolist()
    for path, size in zip(paths, snap_size, strict=True):
        catalog.intern(path, snap_size=size)
    return catalog


def ingest_cursors(manifest: Mapping[str, Any]) -> dict[str, int]:
    """Per-source producer cursors stored in a server checkpoint.

    The networked server's checkpoints carry an ``ingest`` section
    (written by the SequenceLedger via the service's
    ``ingest_snapshot`` hook) mapping each socket source to the highest
    per-source sequence number the checkpointed fold covers.  Returns
    ``{}`` for file-fed or pre-sequencing checkpoints, which resume by
    global cursor skip instead.
    """
    section = manifest.get("ingest") or {}
    seqs = section.get("source_seqs") or {}
    return {str(name): int(seq) for name, seq in seqs.items()}


# ---------------------------------------------------------------------------
# manager


class CheckpointManager:
    """Owns a verified chain of checkpoints inside a directory.

    The service hands it (manifest, arrays) payloads; each save writes a
    new ``checkpoint-<seq>.npz`` link atomically, then garbage-collects
    everything but the newest ``retain`` links.  Loading walks the chain
    newest-first and returns the first checkpoint whose digests verify,
    so a corrupt head (torn write, truncation, bit rot) rolls back to
    the newest good state instead of killing the daemon.

    ``opener`` is forwarded to :func:`atomic_write_npz` -- the fault
    plan's entry point for scripting checkpoint-write failures.
    """

    _NAME_RE = re.compile(r"^checkpoint-(\d{8})\.npz$")

    def __init__(self, directory: str, retain: int = 3,
                 opener: Callable[[str], IO[bytes]] | None = None) -> None:
        if retain < 1:
            raise ValueError("must retain at least one checkpoint")
        self.directory = directory
        self.retain = int(retain)
        self._opener = opener
        os.makedirs(directory, exist_ok=True)

    # -- chain enumeration ---------------------------------------------

    def _entries(self) -> list[tuple[int, str]]:
        entries = []
        for name in os.listdir(self.directory):
            match = self._NAME_RE.match(name)
            if match:
                entries.append((int(match.group(1)),
                                os.path.join(self.directory, name)))
        entries.sort()
        return entries

    def paths(self) -> list[str]:
        """Retained checkpoint paths, oldest first."""
        return [path for _seq, path in self._entries()]

    def latest(self) -> str | None:
        """Newest checkpoint path by sequence, *without* verification."""
        entries = self._entries()
        return entries[-1][1] if entries else None

    def load_newest(self) -> tuple[str | None,
                                   tuple[dict, dict[str, np.ndarray]] | None,
                                   list[tuple[str, str]]]:
        """``(path, (manifest, arrays), failures)`` of the newest
        checkpoint that verifies.

        Walks the chain newest-first, loading and verifying each link
        once; every link that fails verification is recorded as
        ``(path, reason)`` and skipped.  ``path`` and the payload are
        ``None`` when nothing in the chain verifies (or the chain is
        empty).  The payload is what a resume reads, so it need not load
        the link again.
        """
        failures: list[tuple[str, str]] = []
        for _seq, path in reversed(self._entries()):
            try:
                loaded = load_checkpoint(path, verify=True)
            except CheckpointCorruption as exc:
                failures.append((path, exc.reason))
                continue
            return path, loaded, failures
        return None, None, failures

    def latest_verified(self) -> tuple[str | None, list[tuple[str, str]]]:
        """``(path, failures)`` of :meth:`load_newest`, without the
        payload."""
        path, _loaded, failures = self.load_newest()
        return path, failures

    # -- writing -------------------------------------------------------

    def save(self, manifest: Mapping[str, Any],
             arrays: Mapping[str, np.ndarray]) -> str:
        entries = self._entries()
        seq = entries[-1][0] + 1 if entries else 1
        path = os.path.join(self.directory, f"checkpoint-{seq:08d}.npz")
        atomic_write_npz(path, manifest, arrays, opener=self._opener)
        self.gc()
        return path

    def gc(self) -> list[str]:
        """Drop all but the newest ``retain`` checkpoints; returns them."""
        entries = self._entries()
        removed = []
        for _seq, path in entries[:-self.retain]:
            try:
                os.unlink(path)
            except OSError:
                continue
            removed.append(path)
        if removed:
            fsync_directory(self.directory)
        return removed

    # -- loading -------------------------------------------------------

    def load(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Load the newest checkpoint that verifies.

        Raises :class:`FileNotFoundError` when the chain is empty and
        :class:`CheckpointCorruption` when checkpoints exist but none
        verifies (the message lists every failure).
        """
        _path, loaded, failures = self.load_newest()
        if loaded is None:
            if not failures:
                raise FileNotFoundError(
                    f"no checkpoint found in {self.directory}")
            detail = "; ".join(f"{p}: {reason}" for p, reason in failures)
            raise CheckpointCorruption(
                self.directory,
                f"no checkpoint in the chain verifies ({detail})")
        return loaded
