"""Property tests of the day plan: applying a ``DayPlan`` day by day must
equal the per-record day rule of the reference emulator, and a plan of
many days must equal one-day plans of each day's records (the streaming
engine's form)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classification import UserClass
from repro.emulation import DayPlan, EmulatorConfig, replay_day_columns
from repro.emulation.compiled import (OP_ACCESS, OP_CREATE, OP_TOUCH,
                                      GroupLookup, ReplayState)
from repro.emulation.metrics import DailyMetrics

CONFIGS = [EmulatorConfig(apply_creates=c, restore_on_miss=r)
           for c in (True, False) for r in (True, False)]
N_UIDS = 4


@st.composite
def _day_records(draw):
    """Random record columns over a few paths and days, plus a random
    initial state and classification."""
    n_paths = draw(st.integers(1, 6))
    n_days = draw(st.integers(1, 4))
    per_day = draw(st.lists(st.integers(0, 12), min_size=n_days,
                            max_size=n_days))
    n = sum(per_day)
    pid = draw(st.lists(st.integers(0, n_paths - 1), min_size=n,
                        max_size=n))
    uid = draw(st.lists(st.integers(1, N_UIDS), min_size=n, max_size=n))
    op = draw(st.lists(st.sampled_from([OP_ACCESS, OP_CREATE, OP_TOUCH]),
                       min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    # Non-decreasing timestamps within each day (equal stamps allowed).
    ts, day_offsets, k = [], [0], 0
    for d, count in enumerate(per_day):
        t = 1000 * d
        for _ in range(count):
            t += steps[k]
            ts.append(t)
            k += 1
        day_offsets.append(day_offsets[-1] + count)
    live = draw(st.lists(st.booleans(), min_size=n_paths,
                         max_size=n_paths))
    classes = draw(st.lists(st.sampled_from([c.value for c in UserClass]),
                            min_size=N_UIDS, max_size=N_UIDS))
    return {
        "n_paths": n_paths, "n_days": n_days,
        "pid": np.asarray(pid, dtype=np.int64),
        "uid": np.asarray(uid, dtype=np.int64),
        "ts": np.asarray(ts, dtype=np.int64),
        "op": np.asarray(op, dtype=np.int8),
        "day_offsets": np.asarray(day_offsets, dtype=np.int64),
        "live": live,
        "lookup": GroupLookup(np.arange(1, N_UIDS + 1, dtype=np.int64),
                              np.asarray(classes, dtype=np.int64)),
        "config": draw(st.sampled_from(CONFIGS)),
    }


def _initial_state(case) -> ReplayState:
    n_paths = case["n_paths"]
    state = ReplayState(capacity_bytes=10 ** 9)
    state.ensure(n_paths)
    for p, live in enumerate(case["live"]):
        if live:
            state.add_file(p, size=100 + p, atime=-p, owner=1 + p % N_UIDS)
    return state


def _det_size(case) -> np.ndarray:
    return 5000 + 7 * np.arange(case["n_paths"], dtype=np.int64)


def _per_record(case) -> tuple[ReplayState, DailyMetrics]:
    """The reference emulator's day rule, one record at a time."""
    config, lookup = case["config"], case["lookup"]
    state, det_size = _initial_state(case), _det_size(case)
    metrics = DailyMetrics(case["n_days"])
    offsets = case["day_offsets"].tolist()

    def add(p, uid, t):
        state.add_file(p, int(det_size[p]), t, uid)

    for day in range(case["n_days"]):
        for k in range(offsets[day], offsets[day + 1]):
            p, uid, t = (int(case["pid"][k]), int(case["uid"][k]),
                         int(case["ts"][k]))
            op = int(case["op"][k])
            live = bool(state.live[p])
            if op == OP_CREATE:
                if config.apply_creates and not live:
                    add(p, uid, t)
                elif live:
                    state.atime[p] = t
            elif op == OP_TOUCH:
                if live:
                    state.atime[p] = t
            else:
                metrics.accesses[day] += 1
                if live:
                    state.atime[p] = t
                    continue
                code = lookup.code_of(uid)
                metrics.misses[day] += 1
                metrics.group_misses[UserClass(code)][day] += 1
                if config.restore_on_miss:
                    add(p, uid, t)
    return state, metrics


def _apply(plans, case) -> tuple[ReplayState, DailyMetrics]:
    """Apply ``plans[day]`` for every day to a fresh initial state."""
    state, det_size = _initial_state(case), _det_size(case)
    metrics = DailyMetrics(case["n_days"])
    for day in range(case["n_days"]):
        replay_day_columns(plans[day], day, state, det_size, metrics,
                           case["lookup"])
    return state, metrics


def _assert_same(got, want) -> None:
    (gs, gm), (ws, wm) = got, want
    for name in ReplayState.COLUMNS:
        assert np.array_equal(getattr(gs, name), getattr(ws, name)), name
    assert gs.total_bytes == ws.total_bytes
    assert gs.file_count == ws.file_count
    assert np.array_equal(gm.accesses, wm.accesses)
    assert np.array_equal(gm.misses, wm.misses)
    for cls in UserClass:
        assert np.array_equal(gm.group_misses[cls], wm.group_misses[cls])


def _build(case) -> DayPlan:
    return DayPlan.build(case["config"], case["pid"], case["uid"],
                         case["ts"], case["op"], case["day_offsets"])


@settings(max_examples=300, deadline=None)
@given(_day_records())
def test_plan_matches_the_per_record_day_rule(case):
    plan = _build(case)
    assert len(plan.n_access) == case["n_days"]
    _assert_same(_apply([plan] * case["n_days"], case), _per_record(case))


def _day_content(plan: DayPlan, day: int) -> tuple:
    n_access, groups, misses, mats = plan.day(day)
    return (n_access, plan.path[groups].tolist(), plan.last_ts[groups].tolist(),
            plan.miss_count[groups].tolist(),
            plan.uid[plan.miss_row[misses]].tolist(),
            plan.mat_group[mats].tolist(),
            plan.uid[plan.mat_row[mats]].tolist())


@settings(max_examples=300, deadline=None)
@given(_day_records())
def test_multi_day_plan_equals_one_day_plans(case):
    plan = _build(case)
    offsets = case["day_offsets"].tolist()
    one_day = []
    for day in range(case["n_days"]):
        s, e = offsets[day], offsets[day + 1]
        one_day.append(DayPlan.build(
            case["config"], case["pid"][s:e], case["uid"][s:e],
            case["ts"][s:e], case["op"][s:e], np.array([0, e - s]),
            first_day=day))
        assert _day_content(one_day[day], day) == _day_content(plan, day)
    _assert_same(_apply(one_day, case),
                 _apply([plan] * case["n_days"], case))
