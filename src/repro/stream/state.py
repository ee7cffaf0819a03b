"""Incremental state for the online retention service.

Two pieces, both designed so that streaming produces **bit-identical**
results to the batch columnar replay:

* :class:`PathCatalog` -- a growable path interner.  Batch compilation
  knows every path up front and assigns pids in string-sort order; a
  stream does not, so pids here are assigned in arrival order and the
  two scan orders the purge triggers need (plain-string order for the
  per-user ActiveDR walk and value tie-breaks, prefix-trie order for the
  FLT system scan) are maintained as explicit rank columns, brought up
  to date lazily when new paths intern.  This is exactly the
  :class:`~repro.emulation.compiled.TriggerEngine` catalog protocol.
* :class:`GrowableReplayState` -- live/atime/size/owner columns with
  amortized-doubling growth, mirroring the batch ``_ReplayState``.

The engine's activeness history is not kept here: it is the batch
engines' :class:`~repro.core.incremental.ColumnarActivityStore`, which
appends in time order and refolds per trigger only the users
:func:`~repro.core.activeness.collapse_cutoff` cannot rule out.
:class:`IncrementalActivenessState` remains as a name for that store.
"""

from __future__ import annotations

import bisect
from array import array

import numpy as np

from ..core.incremental import ColumnarActivityStore
from ..emulation.emulator import deterministic_file_size
from ..vfs.path_trie import split_path

__all__ = ["PathCatalog", "GrowableReplayState",
           "IncrementalActivenessState"]

_MIN_CAPACITY = 1024


def _grown(arr: np.ndarray, capacity: int, fill) -> np.ndarray:
    out = np.full(capacity, fill, dtype=arr.dtype)
    out[:arr.size] = arr
    return out


def _place(keys: list[str], order: array) -> np.ndarray:
    """Sort pids ``len(order) ..`` into ``order`` (pids by key); return
    every pid's rank.

    Equal keys keep pid order, as a stable argsort does: a new pid is the
    highest so far, so it goes after every equal key (``bisect_right``).
    A batch of new keys larger than an eighth of the placed ones is
    placed by one full stable sort instead.
    """
    n, done = len(keys), len(order)
    if n - done > done // 8:
        order[:] = array("q", sorted(range(n), key=keys.__getitem__))
    else:
        for pid in range(done, n):
            order.insert(bisect.bisect_right(order, keys[pid],
                                             key=keys.__getitem__), pid)
    rank = np.empty(n, dtype=np.int64)
    rank[np.frombuffer(order, np.int64)] = np.arange(n, dtype=np.int64)
    return rank


class PathCatalog:
    """Arrival-order path interner satisfying the trigger-engine catalog.

    ``det_size`` is stamped at intern time (it depends only on the
    path); ``snap_size`` is the snapshot size for preloaded files and 0
    for paths first seen in the trace -- the same convention batch
    compilation uses, which keeps the value-function smallness columns
    identical.  ``version`` advances on every intern so rank columns and
    engine-side value columns know when to extend.
    """

    __slots__ = ("_paths", "_pid_of", "_det_size", "_snap_size",
                 "version", "_scan_rank", "_order_rank", "_ranks_version",
                 "_scan_keys", "_path_order", "_scan_order")

    def __init__(self) -> None:
        self._paths: list[str] = []
        self._scan_keys: list[str] = []
        self._pid_of: dict[str, int] = {}
        self._det_size = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._snap_size = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self.version = 0
        self._scan_rank: np.ndarray | None = None
        self._order_rank: np.ndarray | None = None
        self._ranks_version = -1
        # Pids in each scan order, kept across triggers so new paths
        # are bisected in, not re-sorted.
        self._path_order = array("q")
        self._scan_order = array("q")

    # -- catalog protocol ----------------------------------------------

    @property
    def n_paths(self) -> int:
        return len(self._paths)

    @property
    def paths(self) -> list[str]:
        return self._paths

    @property
    def det_size(self) -> np.ndarray:
        return self._det_size[:len(self._paths)]

    @property
    def snap_size(self) -> np.ndarray:
        return self._snap_size[:len(self._paths)]

    def _ranks(self) -> tuple[np.ndarray, np.ndarray]:
        if self._ranks_version != self.version:
            # Plain-string order (iter_user_files / value tie-breaks),
            # and prefix-trie order (the FLT system scan): component
            # tuples compare identically to the components joined on
            # NUL (below every path character), and those keys are
            # built once per path at intern time.
            self._order_rank = _place(self._paths, self._path_order)
            self._scan_rank = _place(self._scan_keys, self._scan_order)
            self._ranks_version = self.version
        return self._order_rank, self._scan_rank

    @property
    def order_rank(self) -> np.ndarray:
        return self._ranks()[0]

    @property
    def scan_rank(self) -> np.ndarray:
        return self._ranks()[1]

    # -- interning -----------------------------------------------------

    def intern(self, path: str, snap_size: int = 0) -> int:
        """Pid of ``path``, assigning the next id on first sight."""
        pid = self._pid_of.get(path)
        if pid is not None:
            return pid
        pid = len(self._paths)
        if pid >= self._det_size.size:
            capacity = max(self._det_size.size * 2, _MIN_CAPACITY)
            self._det_size = _grown(self._det_size, capacity, 0)
            self._snap_size = _grown(self._snap_size, capacity, 0)
        self._paths.append(path)
        self._scan_keys.append("\x00".join(split_path(path)))
        self._pid_of[path] = pid
        self._det_size[pid] = deterministic_file_size(path)
        self._snap_size[pid] = snap_size
        self.version += 1
        return pid


class GrowableReplayState:
    """Mutable live/atime/size/owner columns that grow with the catalog.

    Duck-types the batch ``_ReplayState`` for the trigger engine and the
    day-replay kernel: the array properties are views over the first
    ``n`` slots (scatter-assignment through a view mutates the backing
    store), and ``purge_target`` mirrors ``core.policy.purge_target_bytes``.
    """

    __slots__ = ("_live", "_atime", "_size", "_owner", "_n",
                 "total_bytes", "file_count", "capacity_bytes")

    def __init__(self, capacity_bytes: int) -> None:
        self._live = np.zeros(_MIN_CAPACITY, dtype=np.bool_)
        self._atime = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self._size = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self._owner = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self._n = 0
        self.total_bytes = 0
        self.file_count = 0
        self.capacity_bytes = capacity_bytes

    @property
    def n_paths(self) -> int:
        return self._n

    @property
    def live(self) -> np.ndarray:
        return self._live[:self._n]

    @property
    def atime(self) -> np.ndarray:
        return self._atime[:self._n]

    @property
    def size(self) -> np.ndarray:
        return self._size[:self._n]

    @property
    def owner(self) -> np.ndarray:
        return self._owner[:self._n]

    def ensure(self, n_paths: int) -> None:
        """Extend the columns to cover ``n_paths`` catalog slots."""
        if n_paths <= self._n:
            return
        if n_paths > self._live.size:
            capacity = max(self._live.size * 2, n_paths, _MIN_CAPACITY)
            self._live = _grown(self._live, capacity, False)
            self._atime = _grown(self._atime, capacity, 0)
            self._size = _grown(self._size, capacity, 0)
            self._owner = _grown(self._owner, capacity, 0)
        self._n = n_paths

    def add_file(self, pid: int, size: int, atime: int, owner: int) -> None:
        """Materialize one preloaded (snapshot) file."""
        self._live[pid] = True
        self._atime[pid] = atime
        self._size[pid] = size
        self._owner[pid] = owner
        self.total_bytes += int(size)
        self.file_count += 1

    def purge_target(self, config) -> int:
        if self.capacity_bytes <= 0:
            return 0
        allowed = int(config.purge_target_utilization * self.capacity_bytes)
        return max(0, self.total_bytes - allowed)


# ---------------------------------------------------------------------------
# activeness


class IncrementalActivenessState(ColumnarActivityStore):
    """The streaming engine's activeness state under its former name: the
    one :class:`~repro.core.incremental.ColumnarActivityStore` that both
    engines evaluate through."""
