"""User classification: the 2x2 activeness matrix (Fig. 4) and scan order.

ActiveDR classifies every user by whether their operation and outcome
activeness ranks reach 1.0, then scans user directories group by group,
least-protected first (section 3.4):

1. **BOTH_INACTIVE** and **OUTCOME_ACTIVE_ONLY** first, in ascending order
   of user activeness (operation rank primary, outcome rank secondary);
2. then **OPERATION_ACTIVE_ONLY** and **BOTH_ACTIVE**, "in an ascending
   order of the outcome activeness".

Files of users visited earlier face the purge first, so the ordering *is*
the policy's protection mechanism.

:func:`classify_all` and :func:`scan_ordered_uids` read one
:class:`~repro.core.activeness.UserActiveness` at a time (the reference
policy's path); :func:`scan_order` is the same order over an
:class:`~repro.core.activeness.ActivenessTable`'s columns, as one
``np.lexsort``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .activeness import ActivenessTable, UserActiveness

__all__ = ["UserClass", "classify", "classify_all", "group_counts",
           "scan_ordered_uids", "scan_order", "GROUP_SCAN_ORDER"]


class UserClass(Enum):
    """The four activeness categories of Fig. 4.

    Values match the paper's Fig. 5 group labels G(1)..G(4).
    """

    BOTH_ACTIVE = 1
    OPERATION_ACTIVE_ONLY = 2
    OUTCOME_ACTIVE_ONLY = 3
    BOTH_INACTIVE = 4

    @property
    def label(self) -> str:
        return {
            UserClass.BOTH_ACTIVE: "Both Active",
            UserClass.OPERATION_ACTIVE_ONLY: "Operation Active Only",
            UserClass.OUTCOME_ACTIVE_ONLY: "Outcome Active Only",
            UserClass.BOTH_INACTIVE: "Both Inactive",
        }[self]


#: Purge scan order: least-protected group first.
GROUP_SCAN_ORDER: tuple[UserClass, ...] = (
    UserClass.BOTH_INACTIVE,
    UserClass.OUTCOME_ACTIVE_ONLY,
    UserClass.OPERATION_ACTIVE_ONLY,
    UserClass.BOTH_ACTIVE,
)


def classify(activeness: UserActiveness) -> UserClass:
    """Map one user's activeness to their Fig. 4 quadrant."""
    if activeness.op_active:
        return (UserClass.BOTH_ACTIVE if activeness.oc_active
                else UserClass.OPERATION_ACTIVE_ONLY)
    return (UserClass.OUTCOME_ACTIVE_ONLY if activeness.oc_active
            else UserClass.BOTH_INACTIVE)


def classify_all(activeness: Mapping[int, UserActiveness],
                 ) -> dict[int, UserClass]:
    """Classification for every evaluated user."""
    return {uid: classify(ua) for uid, ua in activeness.items()}


def group_counts(classes: Mapping[int, UserClass]) -> dict[UserClass, int]:
    """Population of each quadrant (the Fig. 5 percentages derive from it)."""
    counts = {cls: 0 for cls in UserClass}
    for cls in classes.values():
        counts[cls] += 1
    return counts


def scan_ordered_uids(activeness: Mapping[int, UserActiveness],
                      ) -> list[tuple[UserClass, list[int]]]:
    """Users grouped and ordered exactly as the retention scan visits them.

    Returns the four groups in :data:`GROUP_SCAN_ORDER`; within the first
    two groups users ascend by (operation rank, outcome rank), within the
    last two by (outcome rank, operation rank) per section 3.4.

    Under the faithful Eq. (5) most inactive users share rank exactly 0,
    so rank ties break by *staleness*: users whose most recent activity is
    older come first (are purged first), then lower total impact, then uid
    for determinism.  This keeps "ascending order of user activeness"
    meaningful inside the collapsed group.
    """
    by_class: dict[UserClass, list[UserActiveness]] = {c: [] for c in UserClass}
    for ua in activeness.values():
        by_class[classify(ua)].append(ua)

    neg_inf = -float("inf")

    ordered: list[tuple[UserClass, list[int]]] = []
    for cls in GROUP_SCAN_ORDER:
        members = by_class[cls]
        if cls in (UserClass.BOTH_INACTIVE, UserClass.OUTCOME_ACTIVE_ONLY):
            members.sort(key=lambda ua: (ua.log_op if ua.has_op else neg_inf,
                                         ua.log_oc if ua.has_oc else neg_inf,
                                         ua.last_ts, ua.total_impact, ua.uid))
        else:
            members.sort(key=lambda ua: (ua.log_oc if ua.has_oc else neg_inf,
                                         ua.log_op if ua.has_op else neg_inf,
                                         ua.last_ts, ua.total_impact, ua.uid))
        ordered.append((cls, [ua.uid for ua in members]))
    return ordered


#: Each class code's place in :data:`GROUP_SCAN_ORDER`.
_SCAN_POSITION = np.zeros(len(UserClass) + 1, dtype=np.int64)
for _place, _cls in enumerate(GROUP_SCAN_ORDER):
    _SCAN_POSITION[_cls.value] = _place
_SCAN_POSITION.flags.writeable = False


def scan_order(table: ActivenessTable, rows: np.ndarray | None = None,
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, places)``: the rows of ``table`` (all, or ``rows``) in
    scan order, and each one's group index in :data:`GROUP_SCAN_ORDER`.

    The order is :func:`scan_ordered_uids` with its groups concatenated
    -- group first, then the same five keys -- as one ``np.lexsort``.
    The uid key is unique, so the order is total and equals the
    reference sort; ``places`` is non-decreasing, so each group is one
    contiguous block.
    """
    if rows is None:
        rows = np.arange(table.uids.size)
    codes = table.codes[rows]
    op = np.where(table.has_op[rows], table.log_op[rows], -np.inf)
    oc = np.where(table.has_oc[rows], table.log_oc[rows], -np.inf)
    op_first = ((codes == UserClass.BOTH_INACTIVE.value)
                | (codes == UserClass.OUTCOME_ACTIVE_ONLY.value))
    place = _SCAN_POSITION[codes]
    order = np.lexsort((table.uids[rows], table.total_impact[rows],
                        table.last_ts[rows],
                        np.where(op_first, oc, op),
                        np.where(op_first, op, oc), place))
    return rows[order], place[order]
