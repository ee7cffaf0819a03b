"""Checkpoint container: atomicity, exact round-trips, format guards."""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib

import numpy as np
import pytest

from repro.core.classification import UserClass
from repro.core.report import GroupTally, RetentionReport
from repro.emulation.metrics import DailyMetrics
from repro.stream import atomic_write_npz, load_checkpoint
from repro.stream.checkpoint import (
    CHECKPOINT_FORMAT,
    SERVER_CHECKPOINT_FORMAT,
    CheckpointCorruption,
    CheckpointManager,
    activeness_from_arrays,
    activeness_to_arrays,
    catalog_from_arrays,
    catalog_to_arrays,
    metrics_from_arrays,
    metrics_to_arrays,
    reports_from_jsonable,
    reports_to_jsonable,
    verify_checkpoint,
)
from repro.stream.state import PathCatalog

from test_hostile_paths import HOSTILE_PATHS

#: The format each current format replaced: same payload, ``<U`` layout.
LEGACY_FORMATS = {CHECKPOINT_FORMAT: "repro-stream-checkpoint/2",
                  SERVER_CHECKPOINT_FORMAT: "repro-server-checkpoint/1"}


def manifest(**extra):
    base = {"format": CHECKPOINT_FORMAT, "cursor": 42}
    base.update(extra)
    return base


def _legacy_digest(arr):
    raw = np.ascontiguousarray(arr).tobytes()
    return {"dtype": arr.dtype.str, "shape": list(arr.shape),
            "crc32": zlib.crc32(raw),
            "sha256": hashlib.sha256(raw).hexdigest()}


def rewrite_as_legacy_layout(path):
    """Rewrite a checkpoint the way the previous format's writer did.

    That writer stored the catalog as a ``<U`` ``paths`` array and the
    manifest as a 0-d ``<U`` JSON string under the previous format
    string, through ``np.savez_compressed``, with digests taken over a
    ``tobytes()`` copy of each array.
    """
    stored, arrays = load_checkpoint(path)
    offsets = arrays.pop("path_offsets").tolist()
    blob = arrays.pop("path_blob").tobytes()
    arrays["paths"] = np.asarray(
        [blob[lo:hi].decode("utf-8") for lo, hi in zip(offsets, offsets[1:])],
        dtype=np.str_)
    stored["format"] = LEGACY_FORMATS[stored["format"]]
    stored["array_digests"] = {name: _legacy_digest(arr)
                               for name, arr in arrays.items()}
    np.savez_compressed(path, __manifest__=np.asarray(json.dumps(stored)),
                        **arrays)


def hostile_catalog():
    catalog = PathCatalog()
    for i, path in enumerate(HOSTILE_PATHS):
        catalog.intern(path, snap_size=4096 * (i + 1))
    catalog.intern("/proj/first/seen/in/the/trace")  # snap_size 0
    return catalog


def assert_same_catalog(got, want):
    assert got.paths == want.paths  # intern order is pid identity
    assert np.array_equal(got.snap_size, want.snap_size)
    assert np.array_equal(got.det_size, want.det_size)
    assert np.array_equal(got.scan_rank, want.scan_rank)
    assert np.array_equal(got.order_rank, want.order_rank)


def test_npz_round_trip(tmp_path):
    path = str(tmp_path / "ck.npz")
    arrays = {
        "ints": np.arange(5, dtype=np.int64),
        "floats": np.array([0.1, -np.inf, 3.5e300]),
        "bools": np.array([True, False, True]),
        "paths": np.asarray(["/proj/α β/v1.2/out", "/proj/x"],
                            dtype=np.str_),
    }
    atomic_write_npz(path, manifest(lifetime=90.0, name="π"), arrays)
    loaded_manifest, loaded = load_checkpoint(path)
    digests = loaded_manifest.pop("array_digests")
    assert set(digests) == set(arrays)
    assert loaded_manifest == manifest(lifetime=90.0, name="π")
    for key, value in arrays.items():
        assert np.array_equal(loaded[key], value), key
    assert not os.path.exists(f"{path}.tmp")


def test_atomic_write_preserves_old_on_failure(tmp_path):
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(generation=1), {"a": np.arange(3)})

    class Unserializable:
        pass

    with pytest.raises(TypeError):
        # json.dumps fails mid-write; the destination must be untouched.
        atomic_write_npz(path, manifest(bad=Unserializable()),
                         {"a": np.arange(4)})
    loaded_manifest, arrays = load_checkpoint(path)
    assert loaded_manifest["generation"] == 1
    assert np.array_equal(arrays["a"], np.arange(3))


def test_write_rejects_reserved_array_name(tmp_path):
    with pytest.raises(ValueError):
        atomic_write_npz(str(tmp_path / "ck.npz"), manifest(),
                         {"__manifest__": np.arange(3)})


def test_load_rejects_foreign_npz(tmp_path):
    path = str(tmp_path / "other.npz")
    np.savez(path, a=np.arange(3))
    with pytest.raises(ValueError, match="manifest"):
        load_checkpoint(path)
    # A manifest entry that is not UTF-8 JSON is damage, not a crash.
    np.savez(path, __manifest__=np.frombuffer(b"\xff\xfe", np.uint8))
    with pytest.raises(CheckpointCorruption):
        load_checkpoint(path)


def test_load_rejects_unknown_format(tmp_path):
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, {"format": "something-else/9"}, {})
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)


def test_reports_round_trip_exactly():
    report = RetentionReport(policy="activedr", t_c=1_467_331_200,
                             lifetime_days=90.0,
                             target_bytes=1234567890123,
                             purged_bytes_total=987654321,
                             target_met=True, passes_used=2)
    report.groups[UserClass.BOTH_ACTIVE] = GroupTally(
        purged_files=3, purged_bytes=100, retained_files=7,
        retained_bytes=900, users_purged={9, 2}, users_scanned={2, 9, 11})
    report.groups[UserClass.BOTH_INACTIVE] = GroupTally()
    encoded = reports_to_jsonable([report])
    # Must survive an actual JSON round-trip (it lives in the manifest).
    decoded = reports_from_jsonable(json.loads(json.dumps(encoded)))
    assert decoded == [report]


def test_metrics_round_trip_exactly():
    metrics = DailyMetrics(4)
    metrics.record_access(0)
    metrics.record_access(1)
    metrics.record_miss(1, UserClass.BOTH_INACTIVE)
    metrics.record_access(3)
    metrics.record_miss(3, UserClass.OPERATION_ACTIVE_ONLY)
    restored = metrics_from_arrays(metrics_to_arrays(metrics))
    assert np.array_equal(restored.accesses, metrics.accesses)
    assert np.array_equal(restored.misses, metrics.misses)
    for cls in UserClass:
        assert np.array_equal(restored.group_misses[cls],
                              metrics.group_misses[cls])


def test_activeness_arrays_round_trip(tiny_dataset, tmp_path):
    from repro.core.incremental import build_activity_store

    store = build_activity_store(tiny_dataset.jobs,
                                 tiny_dataset.publications)
    state = store.snapshot_state()
    table, arrays = activeness_to_arrays(state)
    # Through an actual npz file, like the service does.
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(activity_types=table), arrays)
    loaded_manifest, loaded_arrays = load_checkpoint(path)
    restored = activeness_from_arrays(loaded_manifest["activity_types"],
                                      loaded_arrays)
    assert list(restored) == list(state)  # type identity and order
    for atype in state:
        for mine, theirs in zip(state[atype], restored[atype]):
            assert np.array_equal(mine, theirs)


def test_catalog_round_trips_hostile_paths(tmp_path):
    catalog = hostile_catalog()
    arrays = catalog_to_arrays(catalog)
    assert arrays["path_blob"].dtype == np.uint8
    assert "paths" not in arrays
    assert_same_catalog(catalog_from_arrays(arrays), catalog)
    # Through an actual npz file, like the services do.
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(), arrays)
    _manifest, loaded = load_checkpoint(path)
    assert_same_catalog(catalog_from_arrays(loaded), catalog)
    assert_same_catalog(catalog_from_arrays(catalog_to_arrays(PathCatalog())),
                        PathCatalog())


def test_checkpoint_opens_with_plain_np_load(tmp_path):
    path = str(tmp_path / "ck.npz")
    arrays = catalog_to_arrays(hostile_catalog())
    atomic_write_npz(path, manifest(name="π"), arrays)
    with np.load(path, allow_pickle=False) as data:
        assert set(data.files) == set(arrays) | {"__manifest__"}
        stored = data["__manifest__"]
        assert stored.dtype == np.uint8  # UTF-8 JSON, not UCS4
        decoded = json.loads(stored.tobytes().decode("utf-8"))
        assert decoded["name"] == "π"
        for key, value in arrays.items():
            assert np.array_equal(data[key], value), key
    with zipfile.ZipFile(path) as archive:
        assert archive.testzip() is None
        assert {info.compress_type for info in archive.infolist()} == \
            {zipfile.ZIP_DEFLATED}


def test_legacy_layout_loads_and_verifies(tmp_path):
    catalog = hostile_catalog()
    live = np.zeros(64, dtype=np.bool_)
    live[::3] = True
    arrays = catalog_to_arrays(catalog)
    arrays.update({"live": live[:40],  # a view, like the state columns
                   "ghist": np.zeros((0, 4), dtype=np.int64),
                   "imp": np.array([0.5, -0.0, 1e-300])})
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(note="αβγ"), arrays)
    fresh_manifest, _ = load_checkpoint(path)
    rewrite_as_legacy_layout(path)
    legacy_manifest, legacy = load_checkpoint(path)  # digests verify
    assert legacy_manifest["format"] == "repro-stream-checkpoint/2"
    assert legacy["paths"].dtype.kind == "U"
    assert legacy_manifest["note"] == "αβγ"
    # The copy-free digests equal the old writer's tobytes() digests.
    for name in ("snap_size", "live", "ghist", "imp"):
        assert legacy_manifest["array_digests"][name] == \
            fresh_manifest["array_digests"][name], name
    assert_same_catalog(catalog_from_arrays(legacy), catalog)


def _tamper_array(path, name):
    """Rewrite the npz with one array modified but the old digests."""
    manifest, arrays = load_checkpoint(path, verify=False)
    arrays[name] = np.asarray(arrays[name]) + 1
    payload = dict(arrays)
    payload["__manifest__"] = np.asarray(json.dumps(manifest))
    np.savez_compressed(path, **payload)


def test_load_detects_tampered_array(tmp_path):
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(), {"a": np.arange(4),
                                        "b": np.ones(3)})
    _tamper_array(path, "b")
    with pytest.raises(CheckpointCorruption) as exc:
        verify_checkpoint(path)
    assert exc.value.array == "b"
    assert "digest mismatch" in exc.value.reason
    assert "sha256" in exc.value.reason  # names the digests, not a trace
    # Verification is opt-out for forensics.
    loaded_manifest, arrays = load_checkpoint(path, verify=False)
    assert np.array_equal(arrays["b"], np.ones(3) + 1)


def test_load_detects_truncated_npz(tmp_path):
    from repro.faults import corrupt_file
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(), {"a": np.arange(100)})
    corrupt_file(path, "truncate")
    with pytest.raises(CheckpointCorruption) as exc:
        load_checkpoint(path)
    assert exc.value.path == path


def test_load_detects_missing_array(tmp_path):
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(), {"a": np.arange(4),
                                        "b": np.ones(3)})
    loaded_manifest, arrays = load_checkpoint(path, verify=False)
    payload = {"a": arrays["a"],
               "__manifest__": np.asarray(json.dumps(loaded_manifest))}
    np.savez_compressed(path, **payload)
    with pytest.raises(CheckpointCorruption) as exc:
        load_checkpoint(path)
    assert exc.value.array == "b"
    assert "missing" in exc.value.reason


def test_manager_keeps_bounded_chain(tmp_path):
    mgr = CheckpointManager(str(tmp_path / "ck"), retain=3)
    assert mgr.latest() is None
    with pytest.raises(FileNotFoundError):
        mgr.load()
    saved = [mgr.save(manifest(cursor=10 * i), {"a": np.arange(i + 2)})
             for i in range(5)]
    assert len(set(saved)) == 5  # every save is a distinct chain link
    assert mgr.paths() == saved[-3:]  # GC keeps the newest `retain`
    assert mgr.latest() == saved[-1]
    loaded_manifest, arrays = mgr.load()
    assert loaded_manifest["cursor"] == 40
    assert np.array_equal(arrays["a"], np.arange(6))
    assert sorted(os.listdir(mgr.directory)) == [
        os.path.basename(p) for p in saved[-3:]]


def test_manager_rolls_back_past_corrupt_head(tmp_path):
    from repro.faults import corrupt_file
    mgr = CheckpointManager(str(tmp_path / "ck"), retain=3)
    for i in range(3):
        mgr.save(manifest(cursor=i), {"a": np.arange(i + 2)})
    corrupt_file(mgr.latest(), "truncate")
    newest, failures = mgr.latest_verified()
    assert newest == mgr.paths()[-2]
    assert len(failures) == 1 and failures[0][0] == mgr.paths()[-1]
    loaded_manifest, _arrays = mgr.load()
    assert loaded_manifest["cursor"] == 1  # rolled back one link


def test_manager_raises_when_nothing_verifies(tmp_path):
    from repro.faults import corrupt_file
    mgr = CheckpointManager(str(tmp_path / "ck"), retain=2)
    for i in range(2):
        mgr.save(manifest(cursor=i), {"a": np.arange(9)})
    for path in mgr.paths():
        corrupt_file(path, "truncate")
    with pytest.raises(CheckpointCorruption, match="no checkpoint"):
        mgr.load()
    with pytest.raises(ValueError):
        CheckpointManager(str(tmp_path / "x"), retain=0)
