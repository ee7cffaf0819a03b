"""User-activeness evaluation -- Eqs. (1)-(6) of the paper.

For a user's activities of one type, sorted by timestamp ``a_0 .. a_{k-1}``
and evaluated at current time ``t_c`` with period length ``d`` days:

* the number of periods (Eq. 1)::

      m = ceil((a_{k-1}.ts - a_0.ts) / to_ts(d)),   clamped to >= 1

* the per-period average activeness (Eq. 2)::

      Avg(D) = sum(impacts) / m

* each activity lands in period ``e`` (Eq. 4; periods are anchored at
  ``t_c`` and count back, so the most recent period has the largest
  index)::

      e = m - ceil((t_c - a.ts) / to_ts(d)) + 1

  activities older than the ``m``-period window get ``e < 1`` and drop out;

* per-period activeness ratio (Eq. 3): ``b_e = D_e / Avg(D)`` where ``D_e``
  sums the impacts that fell in period ``e``;

* the overall rank of the type (Eq. 5)::

      Phi = prod_{e=1..m} (b_e)^e

  so recent periods dominate through the exponent; ``Phi >= 1`` means the
  user is *active* for this type, ``Phi < 1`` inactive.

* category ranks (Eq. 6) multiply the type ranks within the operation and
  outcome categories.

Numerical notes
---------------
``Phi`` ranges across many orders of magnitude (the paper's Fig. 5 spans
[0, 1e7]); with ~100 periods the literal product over ``b^e`` overflows
float64, so all rank arithmetic here is performed in log space
(``log Phi = sum e * log b_e``) and only materialized linearly for
reporting.

A period with no activity has ``b_e = 0``, which collapses the product to
zero.  That is the faithful reading of Eq. (5) and reproduces the paper's
extreme skew (92-95 % of users rank as both-inactive); ``empty_period``
exposes two relaxations (``"skip"``: ignore empty periods; ``"epsilon"``:
floor ``b`` at a small constant) for the ablation study.

Both a plain-Python reference implementation and a vectorized NumPy bulk
evaluator are provided; property tests pin them to each other.

An evaluation is one :class:`ActivenessTable`: uid-sorted rank columns
plus each user's Fig. 4 class code, which both replay engines classify
and scan as arrays.  It is also a read-only mapping from uid to
:class:`UserActiveness`, built on first per-user access, for the
reference ``Emulator``/``ActiveDRPolicy``, the CLI's ``evaluate`` and
``retain`` and the admin ``query_user``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..vfs.file_meta import DAY_SECONDS
from .activity import Activity, ActivityCategory, ActivityLedger, ActivityType

__all__ = [
    "ActivenessParams",
    "UserActiveness",
    "type_log_rank",
    "collapse_cutoff",
    "evaluate_type_bulk",
    "fold_type_ranks",
    "ActivenessTable",
    "RankAccumulator",
    "ActivenessEvaluator",
    "safe_exp",
]

_EMPTY_POLICIES = ("zero", "skip", "epsilon")


def safe_exp(log_value: float) -> float:
    """``exp`` that saturates to ``inf`` instead of raising on overflow."""
    if log_value == -math.inf:
        return 0.0
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, slots=True)
class ActivenessParams:
    """Tunables of the activeness evaluation.

    Attributes
    ----------
    period_days:
        Length ``d`` of one evaluation period; the paper sweeps
        7 / 30 / 60 / 90 days.
    empty_period:
        Treatment of periods with no activity inside the ``m``-period
        window: ``"zero"`` (faithful Eq. 5 -- the rank collapses to 0),
        ``"skip"`` (empty periods contribute factor 1), or ``"epsilon"``
        (``b`` floored at ``epsilon``).
    epsilon:
        Floor used by the ``"epsilon"`` policy.
    max_periods:
        Optional cap on ``m``: evaluate at most this many recent periods
        (the paper's introduction speaks of "a specified number of
        periods").  ``None`` (default) derives ``m`` purely from the
        activity span per Eq. (1).  With a cap, activities older than
        ``max_periods`` periods before ``t_c`` drop out of both the
        window *and* the Eq. (2) average.
    """

    period_days: float = 7.0
    empty_period: str = "zero"
    epsilon: float = 1e-9
    max_periods: int | None = None

    def __post_init__(self) -> None:
        if self.period_days <= 0:
            raise ValueError("period_days must be positive")
        if self.empty_period not in _EMPTY_POLICIES:
            raise ValueError(f"empty_period must be one of {_EMPTY_POLICIES}")
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.max_periods is not None and self.max_periods < 1:
            raise ValueError("max_periods must be >= 1 when set")

    @property
    def period_seconds(self) -> int:
        """``to_ts(d)`` of Eq. (1): the period length in trace time units."""
        return int(round(self.period_days * DAY_SECONDS))


@dataclass(slots=True)
class UserActiveness:
    """Evaluated activeness of one user at one instant.

    ``log_op`` / ``log_oc`` are ``log Phi_op`` / ``log Phi_oc`` (Eq. 6);
    ``has_op`` / ``has_oc`` record whether the user had *any* activity in
    the category -- users without history default to the initial rank 1.0
    for lifetime purposes (section 3.4) but are classified *inactive*.
    """

    uid: int
    log_op: float = 0.0
    log_oc: float = 0.0
    has_op: bool = False
    has_oc: bool = False
    #: Timestamp of the user's most recent activity (any type); -1 when the
    #: user has no history.  Used only as a scan-order tie-breaker: under
    #: the faithful Eq. (5) most inactive users collapse to rank exactly 0,
    #: and "ascending activeness" must still purge the longest-idle users
    #: first for the prioritization of section 3.4 to mean anything.
    last_ts: int = -1
    #: Total impact across all activities (secondary tie-breaker).
    total_impact: float = 0.0

    @property
    def op_rank(self) -> float:
        """Linear ``Phi_op`` (0 when the user has no operation history)."""
        return safe_exp(self.log_op) if self.has_op else 0.0

    @property
    def oc_rank(self) -> float:
        return safe_exp(self.log_oc) if self.has_oc else 0.0

    @property
    def op_active(self) -> bool:
        """Active iff ``Phi_op >= 1`` -- users without history are inactive."""
        return self.has_op and self.log_op >= 0.0

    @property
    def oc_active(self) -> bool:
        return self.has_oc and self.log_oc >= 0.0

    def log_lifetime_multiplier(self, *, zero_rank_as_initial: bool = True) -> float:
        """``log(Phi_op * Phi_oc)`` as used by the Eq. (7) lifetime rule.

        Categories without history contribute the initial rank 1.0
        (section 3.4's new-user rule).  With ``zero_rank_as_initial`` a
        category whose computed rank collapsed to exactly 0 (an empty
        period under the faithful Eq. 5) also falls back to the initial
        rank -- otherwise every such user's lifetime would be zero, which
        contradicts the first-scan protection of section 3.4.
        """
        total = 0.0
        for has, log_rank in ((self.has_op, self.log_op),
                              (self.has_oc, self.log_oc)):
            if not has:
                continue
            if log_rank == -math.inf:
                if not zero_rank_as_initial:
                    return -math.inf
                continue  # fall back to initial rank 1.0 (log 0)
            total += log_rank
        return total


# ----------------------------------------------------------------------
# scalar reference implementation

def _ceil_div(numerator: int, denominator: int) -> int:
    return -((-numerator) // denominator)


def type_log_rank(timestamps: Sequence[int], impacts: Sequence[float],
                  t_c: int, params: ActivenessParams) -> float:
    """``log Phi_lambda`` for one user's activities of one type.

    Reference (plain Python) implementation of Eqs. (1)-(5).  Activities
    need not be pre-sorted.  Activities after ``t_c`` are rejected --
    callers clip the ledger first.  Returns ``0.0`` (rank 1.0, the initial
    rank) when there are no activities.
    """
    k = len(timestamps)
    if k != len(impacts):
        raise ValueError("timestamps and impacts must have equal length")
    if k == 0:
        return 0.0
    order = sorted(range(k), key=lambda i: timestamps[i])
    ts = [int(timestamps[i]) for i in order]
    imp = [float(impacts[i]) for i in order]
    if ts[-1] > t_c:
        raise ValueError("activity timestamp after evaluation time t_c")

    length = params.period_seconds
    if params.max_periods is not None:
        # Window cap: only the last max_periods periods are visible; a
        # user whose entire history is older ranks 0 (stale, not new).
        horizon = t_c - params.max_periods * length
        keep = [i for i, t in enumerate(ts) if t >= horizon]
        if not keep:
            return -math.inf
        ts = [ts[i] for i in keep]
        imp = [imp[i] for i in keep]
    m = max(_ceil_div(ts[-1] - ts[0], length), 1)          # Eq. (1)
    avg = sum(imp) / m                                      # Eq. (2)
    if avg <= 0.0:
        return -math.inf  # all impacts zero: no measurable activeness

    period_sums = [0.0] * (m + 1)  # index 1..m
    for t, d in zip(ts, imp):
        q = max(_ceil_div(t_c - t, length), 1)
        e = m - q + 1                                       # Eq. (4)
        if 1 <= e <= m:
            period_sums[e] += d

    log_rank = 0.0
    for e in range(1, m + 1):
        b = period_sums[e] / avg                            # Eq. (3)
        if b <= 0.0:
            if params.empty_period == "zero":
                return -math.inf
            if params.empty_period == "skip":
                continue
            b = params.epsilon
        log_rank += e * math.log(b)                         # Eq. (5), log space
    return log_rank


def collapse_cutoff(t_c: int, params: ActivenessParams) -> int | None:
    """Timestamp below which a user's *newest* activity forces rank 0.

    Under the faithful ``empty_period="zero"`` policy, period ``e = m``
    (the newest, anchored at ``t_c``) is always inside the evaluation
    window: by Eq. (4) an activity lands there iff
    ``ceil((t_c - ts) / L) <= 1``, i.e. ``ts >= t_c - L``.  A user whose
    most recent activity satisfies ``last_ts < t_c - L`` therefore has
    an empty newest period, so Eq. (5) collapses their type rank to
    exactly 0 (``log rank = -inf``) -- regardless of how the rest of the
    history buckets, and regardless of ``max_periods`` (a cap only
    shrinks the window, never repopulates period ``m``).

    Incremental evaluators use this to skip the full per-user fold for
    stale users: only users with ``last_ts >= t_c - L`` need their
    history refolded.  Returns the cutoff ``t_c - L`` (collapse iff
    ``last_ts < cutoff``), or ``None`` when the shortcut is unsound
    (the ``"skip"`` and ``"epsilon"`` relaxations keep stale users at
    finite ranks that depend on the whole history).
    """
    if params.empty_period != "zero":
        return None
    return t_c - params.period_seconds


# ----------------------------------------------------------------------
# vectorized bulk implementation

def sorted_segments(uids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, counts)`` of each uid's run in a uid-sorted column --
    ``np.unique(uids, return_index=True, return_counts=True)`` without
    its sort."""
    head = np.empty(uids.size, dtype=bool)
    head[:1] = True
    np.not_equal(uids[1:], uids[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    return starts, np.diff(starts, append=uids.size)


def evaluate_type_bulk(uids: np.ndarray, timestamps: np.ndarray,
                       impacts: np.ndarray, t_c: int,
                       params: ActivenessParams, *,
                       assume_sorted: bool = False,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """``log Phi_lambda`` for *all* users of one activity type at once.

    Parameters are parallel arrays over activities.  Returns
    ``(unique_uids, log_ranks)`` with users in ascending uid order.
    Numerically identical to :func:`type_log_rank` per user (pinned by
    property tests).

    ``assume_sorted`` declares the inputs already sorted by
    ``np.lexsort((timestamps, uids))`` (uid-major, time-minor), skipping
    the internal sort -- callers that need per-user aggregates anyway
    (see :func:`fold_type_ranks`) sort once and share the order.
    """
    uids = np.asarray(uids, dtype=np.int64)
    ts = np.asarray(timestamps, dtype=np.int64)
    imp = np.asarray(impacts, dtype=np.float64)
    if not (uids.shape == ts.shape == imp.shape):
        raise ValueError("uids, timestamps, impacts must be parallel arrays")
    if uids.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if ts.max() > t_c:
        raise ValueError("activity timestamp after evaluation time t_c")

    if not assume_sorted:
        order = np.lexsort((ts, uids))
        uids, ts, imp = uids[order], ts[order], imp[order]

    length = params.period_seconds

    if params.max_periods is not None:
        # Apply the window cap up front; users whose whole history falls
        # outside the window still appear in the output, at rank 0.
        all_uids = uids[sorted_segments(uids)[0]]
        keep = ts >= t_c - params.max_periods * length
        uids, ts, imp = uids[keep], ts[keep], imp[keep]
        if uids.size == 0:
            return all_uids, np.full(all_uids.size, -np.inf)
        in_uids, in_ranks = evaluate_type_bulk(
            uids, ts, imp, t_c,
            ActivenessParams(period_days=params.period_days,
                             empty_period=params.empty_period,
                             epsilon=params.epsilon),
            assume_sorted=True)  # masking preserves the sort
        ranks = np.full(all_uids.size, -np.inf)
        ranks[np.searchsorted(all_uids, in_uids)] = in_ranks
        return all_uids, ranks

    starts, counts = sorted_segments(uids)
    unique_uids = uids[starts]
    n_users = unique_uids.size
    first_ts = ts[starts]
    last_ts = ts[starts + counts - 1]

    span = last_ts - first_ts
    m_u = np.maximum(-((-span) // length), 1)               # Eq. (1)
    sums = np.add.reduceat(imp, starts)
    avg_u = sums / m_u                                      # Eq. (2)

    # Period index per activity (Eq. 4).
    q = np.maximum(-((ts - t_c) // length), 1)
    m_per_act = np.repeat(m_u, counts)
    e_act = m_per_act - q + 1
    in_window = e_act >= 1  # e <= m is guaranteed because q >= 1

    # Per-(user, period) impact sums via a flat bincount.
    max_m = int(m_u.max())
    user_idx_per_act = np.repeat(np.arange(n_users), counts)
    stride = max_m + 1
    keys = user_idx_per_act[in_window] * stride + e_act[in_window]
    period_sums = np.bincount(keys, weights=imp[in_window],
                              minlength=n_users * stride)

    # Expand to one row per (user, e=1..m_u) and fold Eq. (5) in log space.
    # ``offsets`` marks each user's first row; it doubles as the reduceat
    # segment index below, so it is computed exactly once.
    total_rows = int(m_u.sum())
    user_idx_flat = np.repeat(np.arange(n_users), m_u)
    offsets = np.concatenate(([0], np.cumsum(m_u)[:-1]))
    e_flat = np.arange(total_rows) - np.repeat(offsets, m_u) + 1
    d_flat = period_sums[user_idx_flat * stride + e_flat]
    avg_flat = avg_u[user_idx_flat]

    log_ranks = np.zeros(n_users, dtype=np.float64)
    zero_avg = avg_u <= 0.0

    with np.errstate(divide="ignore", invalid="ignore"):
        b_flat = d_flat / avg_flat

    # "Empty" means the period ratio is not positive -- judged on the
    # ratio (not the raw sum) so denormal underflow agrees with the
    # scalar reference.  NaN ratios (avg == 0) are handled by zero_avg.
    empty = b_flat <= 0.0
    if params.empty_period == "zero":
        b_safe = np.where(empty, 1.0, b_flat)
        contrib = e_flat * np.log(b_safe)
        collapsed = np.bincount(user_idx_flat, weights=empty.astype(np.float64),
                                minlength=n_users) > 0
    elif params.empty_period == "skip":
        b_safe = np.where(empty, 1.0, b_flat)  # log(1) = 0 contribution
        contrib = e_flat * np.log(b_safe)
        collapsed = np.zeros(n_users, dtype=bool)
    else:  # epsilon
        b_safe = np.where(empty, params.epsilon, b_flat)
        contrib = e_flat * np.log(b_safe)
        collapsed = np.zeros(n_users, dtype=bool)

    contrib = np.where(np.isfinite(avg_flat) & (avg_flat > 0), contrib, 0.0)
    log_ranks = np.add.reduceat(contrib, offsets)
    log_ranks[collapsed | zero_avg] = -np.inf
    return unique_uids, log_ranks


def fold_type_ranks(uid_arr: np.ndarray, ts_arr: np.ndarray,
                    imp_arr: np.ndarray, t_c: int,
                    params: ActivenessParams,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Segment-fold one activity type's columns per user.

    Returns parallel arrays ``(uids, log_ranks, last_ts, impact_sums)``
    with users in ascending uid order.  The uid-major/time-minor lexsort
    is computed once and reused for the rank evaluation *and* the
    per-user recency / total-impact aggregates (no second argsort pass).
    """
    uid_arr = np.asarray(uid_arr, dtype=np.int64)
    ts_arr = np.asarray(ts_arr, dtype=np.int64)
    imp_arr = np.asarray(imp_arr, dtype=np.float64)
    if uid_arr.size == 0:
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        return empty_i, empty_f, empty_i.copy(), empty_f.copy()
    order = np.lexsort((ts_arr, uid_arr))
    uid_s, ts_s, imp_s = uid_arr[order], ts_arr[order], imp_arr[order]
    uids, log_ranks = evaluate_type_bulk(uid_s, ts_s, imp_s, t_c, params,
                                         assume_sorted=True)
    # Per-user recency / volume for the scan-order tie-breakers: within a
    # uid the timestamps ascend, so the last row of each segment is the max.
    starts, counts = sorted_segments(uid_s)
    last_ts = ts_s[starts + counts - 1]
    impact_sums = np.add.reduceat(imp_s, starts)
    return uids, log_ranks, last_ts, impact_sums


#: Fig. 4 class codes, equal to ``UserClass`` values in
#: :mod:`repro.core.classification` (which imports this module, so the
#: values are restated here; a test pins them to ``classify``).
_BOTH_ACTIVE, _OP_ONLY, _OC_ONLY, _BOTH_INACTIVE = 1, 2, 3, 4


class ActivenessTable(Mapping[int, UserActiveness]):
    """One evaluation: every user's activeness as uid-sorted columns.

    ``uids`` is sorted and unique; ``log_op``/``log_oc``/``has_op``/
    ``has_oc``/``last_ts``/``total_impact`` are the
    :class:`UserActiveness` fields of each row (a category without
    history reads ``log 0``, a user without any history ``last_ts -1``),
    and ``codes`` the row's Fig. 4 class (``UserClass`` value), computed
    once per table.  Every column is read-only, so one table can be
    shared by every consumer of the evaluation.

    The table is also a read-only ``Mapping[int, UserActiveness]`` for
    the per-user consumers (the reference ``Emulator`` and
    ``ActiveDRPolicy.run``, the CLI, ``parallel.retention`` and the
    admin ``query_user``).  A single lookup builds one object; iterating
    builds them all once, in the order the evaluators have always
    returned: the known uids as given, then every other user ascending.
    The engines read the columns and build none.
    """

    __slots__ = ("uids", "log_op", "log_oc", "has_op", "has_oc",
                 "last_ts", "total_impact", "codes", "_known", "_users")

    def __init__(self, uids: np.ndarray, log_op: np.ndarray,
                 log_oc: np.ndarray, has_op: np.ndarray,
                 has_oc: np.ndarray, last_ts: np.ndarray,
                 total_impact: np.ndarray,
                 known: np.ndarray | None = None) -> None:
        self.uids, self.log_op, self.log_oc = uids, log_op, log_oc
        self.has_op, self.has_oc, self.last_ts = has_op, has_oc, last_ts
        self.total_impact = total_impact
        op_active = has_op & (log_op >= 0.0)
        oc_active = has_oc & (log_oc >= 0.0)
        self.codes = np.where(op_active,
                              np.where(oc_active, _BOTH_ACTIVE, _OP_ONLY),
                              np.where(oc_active, _OC_ONLY, _BOTH_INACTIVE))
        for col in (*self.columns(), self.codes):
            col.flags.writeable = False
        self._known = np.empty(0, np.int64) if known is None else known
        self._users: dict[int, UserActiveness] | None = None

    def columns(self) -> tuple[np.ndarray, ...]:
        """The :class:`UserActiveness` field columns, in field order."""
        return (self.uids, self.log_op, self.log_oc, self.has_op,
                self.has_oc, self.last_ts, self.total_impact)

    def rows(self, keep: np.ndarray) -> "ActivenessTable":
        """The table of the rows a boolean mask (or index array) keeps."""
        return ActivenessTable(*(col[keep] for col in self.columns()),
                               known=self._known)

    def with_users(self, uids: np.ndarray) -> "ActivenessTable":
        """This table plus a row for each of ``uids`` it lacks, holding
        what a user without history evaluates to (the initial rank,
        classified both-inactive)."""
        uids = np.asarray(uids, dtype=np.int64)
        if self.uids.size:
            at = np.minimum(np.searchsorted(self.uids, uids),
                            self.uids.size - 1)
            uids = uids[self.uids[at] != uids]
        if uids.size == 0:
            return self
        merged = np.union1d(self.uids, uids)
        at = np.searchsorted(merged, self.uids)
        cols = []
        for col, fill in zip(self.columns()[1:],
                             (0.0, 0.0, False, False, -1, 0.0)):
            out = np.full(merged.size, fill, dtype=col.dtype)
            out[at] = col
            cols.append(out)
        return ActivenessTable(merged, *cols, known=self._known)

    def row_of(self, uid) -> int | None:
        """Row index of ``uid``, or ``None`` when it is not evaluated."""
        try:
            key = int(uid)
        except (TypeError, ValueError):
            return None
        if key != uid:  # 5.5 or "5": no dict key of this table equals it
            return None
        row = int(np.searchsorted(self.uids, key))
        if row < self.uids.size and self.uids[row] == key:
            return row
        return None

    def _as_dict(self) -> dict[int, UserActiveness]:
        if self._users is None:
            users = {row[0]: UserActiveness(*row) for row in zip(
                *(col.tolist() for col in self.columns()))}
            if self._known.size:
                ordered = {u: users[u] for u in self._known.tolist()
                           if u in users}
                ordered.update(users)  # kept keys keep their place
                users = ordered
            self._users = users
        return self._users

    # -- Mapping -------------------------------------------------------

    def __len__(self) -> int:
        return int(self.uids.size)

    def __iter__(self):
        return iter(self._as_dict())

    def __contains__(self, uid) -> bool:
        return self.row_of(uid) is not None

    def __getitem__(self, uid) -> UserActiveness:
        if self._users is not None:
            return self._users[uid]
        row = self.row_of(uid)
        if row is None:
            raise KeyError(uid)
        return UserActiveness(*(col[row].item() for col in self.columns()))

    def keys(self):
        return self._as_dict().keys()

    def values(self):
        return self._as_dict().values()

    def items(self):
        return self._as_dict().items()

    def __repr__(self) -> str:
        return f"ActivenessTable({self.uids.size} users)"


class RankAccumulator:
    """Preallocated per-uid columns folding Eq. (6) across activity types.

    One array slot per uid and one scatter-add per type; :meth:`table`
    hands the columns over as the evaluation's :class:`ActivenessTable`
    without building a per-user object.  The arithmetic is the sequence
    of float operations of a per-user fold (category ranks start at
    ``log 1 = 0`` and add each type's log rank in type order), so
    results are bit-identical to it.
    """

    __slots__ = ("uids", "log_op", "log_oc", "has_op", "has_oc",
                 "last_ts", "total_impact", "known")

    def __init__(self, uids: np.ndarray,
                 known: np.ndarray | None = None) -> None:
        self.uids = np.asarray(uids, dtype=np.int64)  # sorted, unique
        #: The seed uids as given (they fix the table's mapping order).
        self.known = known
        n = self.uids.size
        self.log_op = np.zeros(n, dtype=np.float64)
        self.log_oc = np.zeros(n, dtype=np.float64)
        self.has_op = np.zeros(n, dtype=np.bool_)
        self.has_oc = np.zeros(n, dtype=np.bool_)
        self.last_ts = np.full(n, -1, dtype=np.int64)
        self.total_impact = np.zeros(n, dtype=np.float64)

    @classmethod
    def over(cls, folded_uids: Sequence[np.ndarray],
             known_uids: Iterable[int] = ()) -> "RankAccumulator":
        """An accumulator over every uid that some type folded or
        ``known_uids`` lists; known users without activity keep the
        initial rank, both categories inactive."""
        known = (known_uids.astype(np.int64)
                 if isinstance(known_uids, np.ndarray)
                 else np.fromiter(known_uids, np.int64))
        return cls(np.unique(np.concatenate([*folded_uids, known])), known)

    def scatter(self, atype: ActivityType, uids: np.ndarray,
                log_ranks: np.ndarray, last_ts: np.ndarray,
                impact_sums: np.ndarray) -> None:
        """Fold one type's :func:`fold_type_ranks` output in.

        Every uid in ``uids`` must be present in ``self.uids``.
        """
        if uids.size == 0:
            return
        idx = np.searchsorted(self.uids, uids)
        if atype.category is ActivityCategory.OPERATION:
            self.log_op[idx] += log_ranks
            self.has_op[idx] = True
        else:
            self.log_oc[idx] += log_ranks
            self.has_oc[idx] = True
        self.last_ts[idx] = np.maximum(self.last_ts[idx], last_ts)
        self.total_impact[idx] += impact_sums

    def table(self) -> ActivenessTable:
        """The accumulated columns as an :class:`ActivenessTable`."""
        return ActivenessTable(self.uids, self.log_op, self.log_oc,
                               self.has_op, self.has_oc, self.last_ts,
                               self.total_impact, known=self.known)


# ----------------------------------------------------------------------
# the evaluator facade

class ActivenessEvaluator:
    """Evaluates every user's operation and outcome activeness.

    The evaluator folds the per-type ranks of Eq. (5) into the category
    ranks of Eq. (6)::

        log Phi_op = sum over operation types of log Phi_lambda
        log Phi_oc = sum over outcome  types of log Phi_lambda

    Types a user has no activities of contribute the initial rank 1.0
    (log 0), matching the paper's new-user rule.
    """

    def __init__(self, params: ActivenessParams | None = None) -> None:
        self.params = params or ActivenessParams()

    def evaluate(self, ledger: ActivityLedger, t_c: int,
                 known_uids: Iterable[int] = (),
                 ) -> ActivenessTable:
        """Activeness of every user at time ``t_c``.

        ``known_uids`` adds users (e.g. the system user list) that may have
        no recorded activity; they come out with the initial rank and both
        categories inactive.
        """
        folded: list[tuple[ActivityType, tuple[np.ndarray, ...]]] = []
        for atype in ledger.types():
            acts = ledger.activities(atype)
            if not acts:
                continue
            uid_arr = np.fromiter((a.uid for a in acts), dtype=np.int64,
                                  count=len(acts))
            ts_arr = np.fromiter((a.ts for a in acts), dtype=np.int64,
                                 count=len(acts))
            imp_arr = np.fromiter((a.impact for a in acts), dtype=np.float64,
                                  count=len(acts))
            folded.append((atype, fold_type_ranks(uid_arr, ts_arr, imp_arr,
                                                  t_c, self.params)))

        acc = RankAccumulator.over([f[1][0] for f in folded], known_uids)
        for atype, columns in folded:
            acc.scatter(atype, *columns)
        return acc.table()
