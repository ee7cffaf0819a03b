"""Property tests for the consistent-hash shard ring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ActivenessParams
from repro.core.incremental import ColumnarActivityStore
from repro.server import HashRing, splitmix64
from repro.server.shard import batch_worker_masks
from repro.stream import (EVENT_ACCESS, EVENT_JOB, EVENT_PUBLICATION,
                          BatchBuilder, StreamEvent)
from repro.traces import AppAccessRecord, JobRecord, PublicationRecord
from repro.vfs import DAY_SECONDS

UIDS = np.arange(20_000, dtype=np.int64)


def test_splitmix64_deterministic_and_spread():
    a = splitmix64(UIDS)
    b = splitmix64(UIDS)
    assert np.array_equal(a, b)
    # A finalizer must not collide on small sequential inputs.
    assert np.unique(a).size == UIDS.size


def test_placement_deterministic_across_constructions():
    r1 = HashRing(["s00", "s01", "s02"])
    r2 = HashRing(["s02", "s00", "s01"])       # order must not matter
    assert np.array_equal(r1.owner_indices(UIDS), r2.owner_indices(UIDS))
    assert r1.digest() == r2.digest()


def test_placement_roughly_balanced():
    ring = HashRing([f"s{i:02d}" for i in range(4)])
    owners = ring.owner_indices(UIDS)
    counts = np.bincount(owners, minlength=4)
    # 64 virtual points per shard keeps the imbalance moderate.
    assert counts.min() > 0.5 * UIDS.size / 4
    assert counts.max() < 1.7 * UIDS.size / 4


def test_add_moves_only_to_new_shard_and_about_k_over_n():
    ring = HashRing([f"s{i:02d}" for i in range(4)])
    before = ring.owner_indices(UIDS)
    before_names = [ring.shards[int(i)] for i in before]
    grown = HashRing([f"s{i:02d}" for i in range(5)])
    after_names = [grown.shards[int(i)] for i in grown.owner_indices(UIDS)]
    moved = [i for i in range(UIDS.size)
             if before_names[i] != after_names[i]]
    # Every moved key landed on the new shard, none shuffled between
    # surviving shards.
    assert all(after_names[i] == "s04" for i in moved)
    expected = UIDS.size / 5
    assert 0.3 * expected <= len(moved) <= 2.0 * expected


def test_remove_moves_only_departed_keys():
    ring = HashRing([f"s{i:02d}" for i in range(5)])
    before_names = [ring.shards[int(i)] for i in ring.owner_indices(UIDS)]
    shrunk = HashRing([f"s{i:02d}" for i in range(5)])
    shrunk.remove("s02")
    after_names = [shrunk.shards[int(i)] for i in shrunk.owner_indices(UIDS)]
    for b, a in zip(before_names, after_names):
        if b != "s02":
            assert a == b            # survivors keep every key they had
    moved = sum(1 for b, a in zip(before_names, after_names) if b != a)
    expected = UIDS.size / 5
    assert 0.3 * expected <= moved <= 2.0 * expected


def test_split_moves_only_donor_keys():
    ring = HashRing(["s00", "s01"])
    before_names = [ring.shards[int(i)] for i in ring.owner_indices(UIDS)]
    new_ring = ring.split("s00", "s02")
    after_names = [new_ring.shards[int(i)]
                   for i in new_ring.owner_indices(UIDS)]
    n_moved = 0
    for b, a in zip(before_names, after_names):
        if b == "s01":
            assert a == "s01"        # the bystander shard is untouched
        elif a != b:
            assert b == "s00" and a == "s02"
            n_moved += 1
    # The split hands the new shard alternate donor points, so roughly
    # half the donor's keys move.
    donor_keys = before_names.count("s00")
    assert 0.2 * donor_keys <= n_moved <= 0.8 * donor_keys
    # Epoch values: the original ring is unchanged.
    assert ring.shards == ["s00", "s01"]


def test_split_rejects_unknown_and_duplicate_names():
    ring = HashRing(["s00", "s01"])
    with pytest.raises(ValueError):
        ring.split("nope", "s02")
    with pytest.raises(ValueError):
        ring.split("s00", "s01")


def test_serialization_round_trip_preserves_split_placement():
    ring = HashRing(["s00", "s01"]).split("s00", "s02")
    clone = HashRing.from_jsonable(ring.to_jsonable())
    assert np.array_equal(ring.owner_indices(UIDS),
                          clone.owner_indices(UIDS))
    assert ring.digest() == clone.digest()
    # A name-derived reconstruction would NOT reproduce a split ring:
    # the explicit assignment is load-bearing.
    assert HashRing(["s00", "s01", "s02"]).digest() != ring.digest()


def test_member_mask_partitions_population():
    ring = HashRing(["a", "b", "c"])
    masks = [ring.member_mask(name, UIDS) for name in ring.shards]
    total = np.zeros(UIDS.size, dtype=int)
    for m in masks:
        total += m.astype(int)
    assert (total == 1).all()        # every uid owned exactly once


def test_batch_worker_masks_route_rows_to_owners():
    ring = HashRing(["w0", "w1"])
    order = ["w0", "w1"]
    events = [
        StreamEvent(10, EVENT_JOB, JobRecord(1, 3, 10, 11, 12, 1, 16)),
        StreamEvent(11, EVENT_ACCESS, AppAccessRecord(11, 7, "/f", "access")),
        StreamEvent(12, EVENT_PUBLICATION,
                    PublicationRecord(1, 12, [3, 7], 2)),
    ]
    builder = BatchBuilder()
    builder.extend(events)
    batch = builder.build()
    masks = batch_worker_masks(batch, ring, order)
    owner_of = {uid: ring.owner(uid) for uid in (3, 7)}
    # Job row 0 (uid 3) and access row 1 (uid 7) each to one owner.
    assert masks[order.index(owner_of[3]), 0]
    assert masks[:, 0].sum() == 1
    assert masks[order.index(owner_of[7]), 1]
    assert masks[:, 1].sum() == 1
    # The publication row reaches every worker owning an author.
    expect = {owner_of[3], owner_of[7]}
    got = {order[i] for i in range(2) if masks[i, 2]}
    assert got == expect


def test_author_less_publication_routes_to_deterministic_fallback():
    # An author-less publication folds into no user's score, but a
    # single-process serve still consumes the row: the fleet must route
    # it somewhere (exactly once, deterministically) or cursors and the
    # summary identity check diverge.  The fallback is uid 0's owner.
    ring = HashRing(["w0", "w1"])
    order = ["w0", "w1"]
    fallback = order.index(ring.owner(0))
    events = [
        StreamEvent(10, EVENT_PUBLICATION, PublicationRecord(1, 10, [], 2)),
        StreamEvent(11, EVENT_PUBLICATION,
                    PublicationRecord(2, 11, [3], 1)),
    ]
    builder = BatchBuilder()
    builder.extend(events)
    batch = builder.build()
    masks = batch_worker_masks(batch, ring, order)
    assert masks[fallback, 0] and masks[:, 0].sum() == 1
    # The authored row is untouched by the fallback path.
    assert masks[order.index(ring.owner(3)), 1]
    assert masks[:, 1].sum() == 1

    # Same when the batch carries no author table at all.
    builder = BatchBuilder()
    builder.extend(events[:1])
    batch = builder.build()
    masks = batch_worker_masks(batch, ring, order)
    assert masks[fallback, 0] and masks.sum() == 1


def _evaluation(uids):
    """An activeness table over ``uids``: one job each, alternate users
    recent (active) and stale."""
    store = ColumnarActivityStore()
    uids = np.asarray(uids, dtype=np.int64)
    store.ingest_job_columns(uids, np.where(uids % 2, 50, 99) * DAY_SECONDS,
                             np.full(uids.size, 10.0))
    return store.evaluate(100 * DAY_SECONDS, ActivenessParams())


def test_owned_filter_keeps_only_ring_owned_rows():
    ring = HashRing(["s00", "s01"])
    table = _evaluation(np.arange(200))
    got = ring.owned_filter("s00")(table)
    owned = ring.member_mask("s00", table.uids)
    assert 0 < owned.sum() < table.uids.size
    assert set(got) == {int(u) for u in table.uids[owned]}
    for col, full in zip((*got.columns(), got.codes),
                         (*table.columns(), table.codes)):
        assert np.array_equal(col, full[owned])
    assert {u: got[u] for u in got} == {u: table[u] for u in got}


def test_owned_filter_passes_an_all_owned_evaluation_through():
    ring = HashRing(["s00", "s01"])
    uids = np.arange(200)
    table = _evaluation(uids[ring.member_mask("s01", uids)])
    assert ring.owned_filter("s01")(table) is table
    assert len(ring.owned_filter("s00")(table)) == 0
