"""Tests for the columnar activity store, the one store both engines
evaluate activeness through."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ActivenessEvaluator,
    ActivenessParams,
    Activity,
    ActivityLedger,
    JOB_SUBMISSION,
    PUBLICATION,
    SHELL_LOGIN,
    activities_from_jobs,
    activities_from_publications,
)
from repro.core.activeness import collapse_cutoff
from repro.core.incremental import ColumnarActivityStore
from repro.traces import JobRecord, PublicationRecord
from repro.vfs import DAY_SECONDS

T_C = 1_000 * DAY_SECONDS
L = 7 * DAY_SECONDS

PARAM_VARIANTS = [
    ActivenessParams(),
    ActivenessParams(period_days=30.0),
    ActivenessParams(empty_period="skip"),
    ActivenessParams(empty_period="epsilon", epsilon=1e-6),
    ActivenessParams(max_periods=3),
]
PARAM_IDS = ["default", "p30", "skip", "epsilon", "maxp"]

PAPER_TYPES = (JOB_SUBMISSION, PUBLICATION)


def _assert_same(a, b):
    assert set(a) == set(b)
    for uid in a:
        ua, ub = a[uid], b[uid]
        assert ua.has_op == ub.has_op and ua.has_oc == ub.has_oc
        for x, y in ((ua.log_op, ub.log_op), (ua.log_oc, ub.log_oc)):
            if math.isinf(x) or math.isinf(y):
                assert x == y
            else:
                assert x == pytest.approx(y, rel=1e-12, abs=1e-12)
        assert ua.last_ts == ub.last_ts
        assert ua.total_impact == pytest.approx(ub.total_impact)


def test_evaluation_is_a_table_in_evaluator_order():
    # Known uids first, as given, then every other user ascending --
    # the order the per-user consumers have always iterated.
    store = ColumnarActivityStore()
    store.ingest_job_columns(np.asarray([8, 2, 5]), np.asarray([1, 2, 3]),
                             np.asarray([1.0, 1.0, 1.0]))
    table = store.evaluate(T_C, known_uids=[9, 5, 1])
    assert list(table) == [9, 5, 1, 2, 8]
    assert table.uids.tolist() == [1, 2, 5, 8, 9]
    assert dict(table) == dict(ActivenessEvaluator().evaluate(
        _ledger_of(store), T_C, known_uids=[9, 5, 1]))


def _ledger_of(store):
    ledger = ActivityLedger()
    for atype, (uids, ts, imp) in store.snapshot_state().items():
        for u, t, i in zip(uids.tolist(), ts.tolist(), imp.tolist()):
            ledger.add(atype, Activity(u, t, i))
    return ledger


def test_empty_store():
    store = ColumnarActivityStore()
    assert store.total_activities() == 0
    assert store.types() == []
    result = store.evaluate(T_C, known_uids=[3])
    assert list(result) == [3]
    assert not result[3].has_op


def test_append_and_extend_count():
    store = ColumnarActivityStore()
    store.append(JOB_SUBMISSION, 1, T_C - 5, 2.0)
    assert store.extend(JOB_SUBMISSION,
                        [Activity(1, T_C - 4, 1.0),
                         Activity(2, T_C - 3, 1.0)]) == 2
    assert store.extend(JOB_SUBMISSION, []) == 0
    assert store.total_activities() == 3
    assert store.types() == [JOB_SUBMISSION]


def test_negative_impact_rejected():
    store = ColumnarActivityStore()
    with pytest.raises(ValueError):
        store.append(JOB_SUBMISSION, 1, T_C, -1.0)


def test_matches_ledger_evaluator_on_mixed_types():
    ledger = ActivityLedger()
    store = ColumnarActivityStore()
    entries = [
        (JOB_SUBMISSION, 1, T_C - 5, 10.0),
        (JOB_SUBMISSION, 1, T_C - L - 20, 4.0),
        (JOB_SUBMISSION, 2, T_C - 40 * L, 7.0),
        (SHELL_LOGIN, 1, T_C - 3, 1.0),
        (PUBLICATION, 2, T_C - 2 * L, 8.0),
        (PUBLICATION, 3, T_C - 1, 6.0),
    ]
    for atype, uid, ts, impact in entries:
        ledger.add(atype, Activity(uid, ts, impact))
        store.append(atype, uid, ts, impact)
    params = ActivenessParams(period_days=7)
    expected = ActivenessEvaluator(params).evaluate(ledger, T_C,
                                                    known_uids=[1, 2, 3, 4])
    got = store.evaluate(T_C, params, known_uids=[1, 2, 3, 4])
    _assert_same(expected, got)


def test_clips_future_activities():
    store = ColumnarActivityStore()
    store.append(JOB_SUBMISSION, 1, T_C - 5, 1.0)
    store.append(JOB_SUBMISSION, 1, T_C + 100, 99.0)  # future: invisible
    result = store.evaluate(T_C)
    assert result[1].total_impact == pytest.approx(1.0)
    assert result[1].last_ts == T_C - 5
    # At a later clock the future activity becomes visible.
    later = store.evaluate(T_C + 200)
    assert later[1].total_impact == pytest.approx(100.0)


def test_ingest_jobs_matches_extractor():
    jobs = [JobRecord(i, i % 3, T_C - i * 1000, T_C - i * 1000 + 10,
                      T_C - i * 1000 + 3610, i + 1, 16) for i in range(12)]
    ledger = ActivityLedger()
    ledger.extend(JOB_SUBMISSION, activities_from_jobs(jobs))
    store = ColumnarActivityStore()
    assert store.ingest_jobs(jobs) == 12
    params = ActivenessParams(period_days=7)
    _assert_same(ActivenessEvaluator(params).evaluate(ledger, T_C),
                 store.evaluate(T_C, params))


def test_ingest_publications_matches_extractor():
    pubs = [PublicationRecord(0, T_C - 50, [1, 2, 3], 7),
            PublicationRecord(1, T_C - 2 * L, [2], 0)]
    ledger = ActivityLedger()
    ledger.extend(PUBLICATION, activities_from_publications(pubs))
    store = ColumnarActivityStore()
    assert store.ingest_publications(pubs) == 4
    params = ActivenessParams(period_days=7)
    _assert_same(ActivenessEvaluator(params).evaluate(ledger, T_C),
                 store.evaluate(T_C, params))


def test_incremental_appends_reach_same_state_as_bulk():
    """Feeding the history in many small batches equals one big batch."""
    acts = [Activity(uid, T_C - k * 3600, float(k % 5 + 1))
            for k, uid in enumerate([1, 2, 1, 3, 2, 1, 4, 2] * 10)]
    bulk = ColumnarActivityStore()
    bulk.extend(JOB_SUBMISSION, acts)
    incremental = ColumnarActivityStore()
    for act in acts:
        incremental.extend(JOB_SUBMISSION, [act])
    params = ActivenessParams(period_days=7)
    _assert_same(bulk.evaluate(T_C, params),
                 incremental.evaluate(T_C, params))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4),
                          st.integers(T_C - 20 * L, T_C),
                          st.floats(0.01, 1e4)),
                min_size=1, max_size=40))
def test_property_store_equals_evaluator(rows):
    ledger = ActivityLedger()
    store = ColumnarActivityStore()
    for uid, ts, impact in rows:
        ledger.add(JOB_SUBMISSION, Activity(uid, ts, impact))
        store.append(JOB_SUBMISSION, uid, ts, impact)
    params = ActivenessParams(period_days=7)
    _assert_same(ActivenessEvaluator(params).evaluate(ledger, T_C),
                 store.evaluate(T_C, params))


def test_reevaluation_after_append_is_consistent():
    store = ColumnarActivityStore()
    store.append(JOB_SUBMISSION, 1, T_C - 2 * L, 1.0)
    first = store.evaluate(T_C)
    assert first[1].has_op
    store.append(JOB_SUBMISSION, 1, T_C - 5, 1.0)
    second = store.evaluate(T_C)
    # New recent activity can only improve recency.
    assert second[1].last_ts > first[1].last_ts


# ---------------------------------------------------------------------------
# sorted columns: any chunking of the appends, one result

#: Timestamps on a half-day grid over 100 days, so equal (uid, ts) pairs
#: -- whose order decides float sums -- occur; a few lie after ``T_C``.
_TS = st.integers(-200, 24).map(lambda k: T_C + k * DAY_SECONDS // 2)
_ROWS = st.lists(st.tuples(st.sampled_from(PAPER_TYPES), st.integers(0, 6),
                           _TS, st.floats(0.01, 1e4)),
                 min_size=1, max_size=60)


def _feed(store, rows):
    for atype in PAPER_TYPES:
        store.extend(atype, [Activity(uid, ts, imp)
                             for kind, uid, ts, imp in rows if kind == atype])


def _bulk_store(rows):
    store = ColumnarActivityStore()
    _feed(store, rows)
    return store


def _check_store(store, rows, t_c, params):
    """``store``, fed ``rows`` in some chunking, evaluated at ``t_c``:
    equal to one bulk-built store, close to the ledger evaluator, and
    refolding exactly the (user, type) histories the cutoff keeps."""
    got = store.evaluate(t_c, params, known_uids=[99])
    assert got == _bulk_store(rows).evaluate(t_c, params, known_uids=[99])

    newest: dict = {}
    ledger = ActivityLedger()
    for atype, uid, ts, imp in rows:
        if ts <= t_c:
            newest[atype, uid] = max(ts, newest.get((atype, uid), ts))
            ledger.add(atype, Activity(uid, ts, imp))
    _assert_same(ActivenessEvaluator(params).evaluate(ledger, t_c,
                                                      known_uids=[99]), got)
    cutoff = collapse_cutoff(t_c, params)
    assert store.last_eval_users == len(newest)
    assert store.last_eval_refolded == sum(
        1 for ts in newest.values() if cutoff is None or ts >= cutoff)


@pytest.mark.parametrize("params", PARAM_VARIANTS, ids=PARAM_IDS)
@settings(max_examples=40, deadline=None)
@given(rows=_ROWS, data=st.data())
def test_property_chunked_appends_equal_one_bulk_store(params, rows, data):
    """Time-ordered chunks (each consolidation inserts the new rows after
    every user's existing ones) and shuffled chunks (consolidations
    re-sort), evaluated as they arrive and at instants with future
    rows, equal one store built from the same rows in one append."""
    if data.draw(st.booleans(), label="time_ordered"):
        rows = sorted(rows, key=lambda row: row[2])
    else:
        rows = data.draw(st.permutations(rows), label="shuffled")
    cuts = data.draw(st.lists(st.integers(1, len(rows)), max_size=5,
                              unique=True), label="cuts")
    instants = data.draw(st.lists(_TS, min_size=1, max_size=3),
                         label="instants")
    store = ColumnarActivityStore()
    done = 0
    for cut in sorted(cuts) + [len(rows)]:
        _feed(store, rows[done:cut])
        done = max(done, cut)
        _check_store(store, rows[:done], data.draw(st.sampled_from(instants)),
                     params)
    for t_c in instants:
        _check_store(store, rows, t_c, params)


def test_out_of_order_append_resorts_the_type():
    """Rows older than the type's newest consolidated row cannot go after
    their user's rows: the type is re-sorted, and every evaluation equals
    a store that received all rows in one append."""
    early = [(JOB_SUBMISSION, uid, T_C - k * L, float(k + 1))
             for k in range(6) for uid in (1, 2)]
    late = [(JOB_SUBMISSION, 1, T_C - 10 * L + 5, 3.0),
            (PUBLICATION, 2, T_C - 2 * L, 1.0),
            (JOB_SUBMISSION, 2, T_C - L // 2, 2.0)]
    store = _bulk_store(early)
    store.evaluate(T_C)
    _feed(store, late)
    reference = _bulk_store(early + late)
    for params in PARAM_VARIANTS:
        assert store.evaluate(T_C, params) == reference.evaluate(T_C, params)


def test_restrict_users_equals_a_store_of_the_kept_users():
    """Narrowing drops settled and not-yet-consolidated rows alike and
    counts each dropped user once, however many types hold its rows."""
    rng = random.Random(7)
    rows = [(rng.choice(PAPER_TYPES), rng.randrange(9),
             T_C - rng.randrange(40 * L), rng.uniform(0.5, 50.0))
            for _ in range(300)]
    rows.sort(key=lambda row: row[2])
    settled, pending = rows[:200], rows[200:]
    # uid 1 has both kinds of history; uid 10 only pending rows.
    settled += [(JOB_SUBMISSION, 1, T_C - 40 * L, 3.0),
                (PUBLICATION, 1, T_C - 40 * L, 5.0)]
    pending.append((JOB_SUBMISSION, 10, T_C - L, 2.0))
    params = ActivenessParams()

    store = ColumnarActivityStore()
    _feed(store, settled)
    store.evaluate(T_C - 10 * L, params)
    _feed(store, pending)

    def keep(uids):
        return uids % 3 != 1

    dropped = {uid for _, uid, _, _ in settled + pending if uid % 3 == 1}
    assert {1, 10} <= dropped
    assert store.restrict_users(keep) == len(dropped)
    kept = [row for row in settled + pending if row[1] % 3 != 1]
    reference = _bulk_store(kept)
    for t_c in (T_C - 3 * L, T_C):
        assert store.evaluate(t_c, params) == reference.evaluate(t_c, params)
    assert store.restrict_users(keep) == 0

    # Appends after the narrowing land as they would in the reference.
    later = [(JOB_SUBMISSION, 2, T_C + 5, 4.0), (PUBLICATION, 12, T_C + 9, 1.0)]
    _feed(store, later)
    _feed(reference, later)
    assert store.evaluate(T_C + L, params) == reference.evaluate(T_C + L,
                                                                 params)
