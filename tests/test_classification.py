"""Tests for user classification and the retention scan order."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GROUP_SCAN_ORDER,
    UserActiveness,
    UserClass,
    classify,
    classify_all,
    group_counts,
    scan_ordered_uids,
)
from repro.core.activeness import ActivenessTable
from repro.core.classification import scan_order

_CODES = {cls.value: cls for cls in UserClass}


def _ua(uid, op=None, oc=None, last_ts=-1, impact=0.0):
    """op/oc: None = no history, else the log rank."""
    return UserActiveness(
        uid,
        log_op=op if op is not None else 0.0,
        log_oc=oc if oc is not None else 0.0,
        has_op=op is not None,
        has_oc=oc is not None,
        last_ts=last_ts,
        total_impact=impact,
    )


def test_classify_quadrants():
    assert classify(_ua(1, op=0.5, oc=0.5)) is UserClass.BOTH_ACTIVE
    assert classify(_ua(1, op=0.5, oc=-0.5)) is UserClass.OPERATION_ACTIVE_ONLY
    assert classify(_ua(1, op=-0.5, oc=0.5)) is UserClass.OUTCOME_ACTIVE_ONLY
    assert classify(_ua(1, op=-0.5, oc=-0.5)) is UserClass.BOTH_INACTIVE


def test_classify_boundary_phi_equals_one_is_active():
    assert classify(_ua(1, op=0.0, oc=0.0)) is UserClass.BOTH_ACTIVE


def test_classify_no_history_is_inactive():
    assert classify(_ua(1)) is UserClass.BOTH_INACTIVE
    assert classify(_ua(1, op=5.0)) is UserClass.OPERATION_ACTIVE_ONLY
    assert classify(_ua(1, oc=5.0)) is UserClass.OUTCOME_ACTIVE_ONLY


def test_classify_collapsed_rank_is_inactive():
    assert classify(_ua(1, op=-math.inf, oc=-math.inf)) is UserClass.BOTH_INACTIVE


def test_classify_all_and_group_counts():
    users = {
        1: _ua(1, op=1.0, oc=1.0),
        2: _ua(2, op=1.0, oc=-1.0),
        3: _ua(3),
        4: _ua(4),
    }
    classes = classify_all(users)
    counts = group_counts(classes)
    assert counts[UserClass.BOTH_ACTIVE] == 1
    assert counts[UserClass.OPERATION_ACTIVE_ONLY] == 1
    assert counts[UserClass.BOTH_INACTIVE] == 2
    assert counts[UserClass.OUTCOME_ACTIVE_ONLY] == 0


def test_scan_order_group_sequence():
    assert GROUP_SCAN_ORDER == (UserClass.BOTH_INACTIVE,
                                UserClass.OUTCOME_ACTIVE_ONLY,
                                UserClass.OPERATION_ACTIVE_ONLY,
                                UserClass.BOTH_ACTIVE)
    users = {
        1: _ua(1, op=1.0, oc=1.0),        # both active
        2: _ua(2, op=1.0, oc=-1.0),       # op only
        3: _ua(3, op=-1.0, oc=1.0),       # oc only
        4: _ua(4),                        # both inactive
    }
    order = scan_ordered_uids(users)
    assert [cls for cls, _ in order] == list(GROUP_SCAN_ORDER)
    assert [uids for _, uids in order] == [[4], [3], [2], [1]]


def test_scan_order_ascending_rank_within_inactive():
    users = {
        1: _ua(1, op=-0.1, oc=-1.0),
        2: _ua(2, op=-2.0, oc=-1.0),
        3: _ua(3, op=-1.0, oc=-1.0),
    }
    order = dict(scan_ordered_uids(users))
    assert order[UserClass.BOTH_INACTIVE] == [2, 3, 1]


def test_scan_order_active_groups_sort_by_outcome_first():
    # Section 3.4: op-active-only and both-active ascend by outcome rank.
    users = {
        1: _ua(1, op=2.0, oc=3.0),
        2: _ua(2, op=3.0, oc=1.0),
        3: _ua(3, op=1.0, oc=2.0),
    }
    order = dict(scan_ordered_uids(users))
    assert order[UserClass.BOTH_ACTIVE] == [2, 3, 1]


def test_scan_order_staleness_tiebreak():
    # All collapse to rank 0 -> older last activity is purged first.
    users = {
        1: _ua(1, op=-math.inf, last_ts=500),
        2: _ua(2, op=-math.inf, last_ts=100),
        3: _ua(3, op=-math.inf, last_ts=300),
    }
    order = dict(scan_ordered_uids(users))
    assert order[UserClass.BOTH_INACTIVE] == [2, 3, 1]


def test_scan_order_impact_tiebreak_then_uid():
    users = {
        5: _ua(5, op=-math.inf, last_ts=100, impact=10.0),
        6: _ua(6, op=-math.inf, last_ts=100, impact=5.0),
        7: _ua(7, op=-math.inf, last_ts=100, impact=5.0),
    }
    order = dict(scan_ordered_uids(users))
    assert order[UserClass.BOTH_INACTIVE] == [6, 7, 5]


def test_no_history_sorts_before_collapsed_history():
    # has_op=False sorts as -inf rank with last_ts=-1: first to purge.
    users = {
        1: _ua(1, op=-math.inf, last_ts=100),
        2: _ua(2),
    }
    order = dict(scan_ordered_uids(users))
    assert order[UserClass.BOTH_INACTIVE] == [2, 1]


def test_labels():
    assert UserClass.BOTH_ACTIVE.label == "Both Active"
    assert UserClass.BOTH_INACTIVE.label == "Both Inactive"


# ---------------------------------------------------------------- columns

_LOG_RANKS = st.one_of(st.none(), st.just(-math.inf), st.just(0.0),
                       st.floats(-50.0, 50.0, allow_nan=False))


def _table_of(users):
    """An ``ActivenessTable`` holding ``users`` (UserActiveness objects)."""
    users = sorted(users, key=lambda ua: ua.uid)
    cols = [np.asarray([getattr(ua, name) for ua in users], dtype=dtype)
            for name, dtype in (("uid", np.int64), ("log_op", np.float64),
                                ("log_oc", np.float64), ("has_op", bool),
                                ("has_oc", bool), ("last_ts", np.int64),
                                ("total_impact", np.float64))]
    return ActivenessTable(*cols)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_LOG_RANKS, _LOG_RANKS, st.integers(-1, 3),
                          st.sampled_from([0.0, 1.5, 2.0])),
                max_size=40))
def test_table_classes_and_scan_order_match_per_user(rows):
    users = [_ua(uid, op, oc, last_ts, impact)
             for uid, (op, oc, last_ts, impact) in enumerate(rows)]
    table = _table_of(users)
    by_uid = {ua.uid: ua for ua in users}
    assert dict(table) == by_uid
    assert [_CODES[c] for c in table.codes.tolist()] == \
        [classify(by_uid[u]) for u in table.uids.tolist()]
    ordered, places = scan_order(table)
    expected = scan_ordered_uids(by_uid)
    assert table.uids[ordered].tolist() == \
        [uid for _, uids in expected for uid in uids]
    assert [GROUP_SCAN_ORDER[p] for p in places.tolist()] == \
        [cls for cls, uids in expected for _ in uids]


def test_table_columns_are_read_only():
    table = _table_of([_ua(1, op=0.5), _ua(2)])
    with pytest.raises(ValueError):
        table.codes[0] = UserClass.BOTH_INACTIVE.value
    with pytest.raises(ValueError):
        table.log_op[1] = 1.0


def test_table_with_users_adds_default_rows():
    table = _table_of([_ua(5, op=0.5, oc=0.5, last_ts=3, impact=2.0),
                       _ua(9, op=-1.0)])
    assert table.with_users(np.asarray([9, 5, 9])) is table
    grown = table.with_users(np.asarray([7, 9, 1, 7]))
    assert grown.uids.tolist() == [1, 5, 7, 9]
    assert dict(grown) == {**dict(table), 1: UserActiveness(1),
                           7: UserActiveness(7)}
    assert grown.codes.tolist() == [4, 1, 4, 4]


def test_table_rows_keep_the_mapping_order_of_known_uids():
    table = _table_of([_ua(uid, op=0.0) for uid in (1, 3, 5, 7)])
    table = ActivenessTable(*table.columns(), known=np.asarray([7, 2, 3]))
    assert list(table) == [7, 3, 1, 5]
    kept = table.rows(np.asarray([True, False, True, True]))
    assert list(kept) == [7, 1, 5]
    assert 3 not in kept and kept.get(3) is None and kept[5] == table[5]
    # Keys compare as a dict's would.
    assert 7.0 in kept and 7.5 not in kept and "7" not in kept
