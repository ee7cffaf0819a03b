"""The consistent-hash ring that partitions a fleet's users.

The paper's purge decisions never couple users, so a fleet partitions
by user and a shard worker is the service restricted to one ring slice.
:class:`HashRing` is the one membership rule every layer reads: the
router routes rows by it, and a worker's service keeps, classifies,
checkpoints and splits its slice by it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, Mapping

import numpy as np

from ..core.activeness import ActivenessTable

__all__ = ["HashRing", "splitmix64"]


_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(values) -> np.ndarray:
    """Vectorized splitmix64 finalizer: the uid -> ring-key hash.

    Stable across processes and Python versions (never ``hash()``),
    cheap enough to run per row on the routing hot path.
    """
    z = np.atleast_1d(np.asarray(values)).astype(np.uint64)
    with np.errstate(over="ignore"):
        z = z + _SM_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM_M1
        z = (z ^ (z >> np.uint64(27))) * _SM_M2
        return z ^ (z >> np.uint64(31))


class HashRing:
    """Consistent-hash ring over named shards.

    Every shard owns ``replicas`` explicit ring points derived from
    ``blake2b("<name>#<i>")``; a uid belongs to the owner of the first
    point at or clockwise-after ``splitmix64(uid)``.  Placement is a
    pure function of the *point assignment*, which is why the ring
    serializes the assignment explicitly: after :meth:`split` the
    points of the donor are shared with the new shard in a way no
    name-derived reconstruction would reproduce.
    """

    def __init__(self, shards: Iterable[str] = (), *, replicas: int = 64,
                 _assignment: Mapping[int, str] | None = None) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._assign: dict[int, str] = dict(_assignment or {})
        for name in shards:
            self.add(name)
        self._rebuild()

    # -- construction ---------------------------------------------------

    @staticmethod
    def _point(name: str, i: int) -> int:
        digest = hashlib.blake2b(f"{name}#{i}".encode("utf-8"),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def _rebuild(self) -> None:
        items = sorted(self._assign.items())
        self._points = np.asarray([p for p, _ in items], dtype=np.uint64)
        self._point_owner = [o for _, o in items]
        self.shards: list[str] = sorted(set(self._point_owner))
        index = {name: i for i, name in enumerate(self.shards)}
        self._owner_idx = np.asarray(
            [index[o] for o in self._point_owner], dtype=np.int64)

    def add(self, name: str) -> None:
        if not name:
            raise ValueError("shard names must be non-empty")
        if any(o == name for o in self._assign.values()):
            raise ValueError(f"shard {name!r} already on the ring")
        for i in range(self.replicas):
            p = self._point(name, i)
            while p in self._assign:   # 64-bit collision: deterministic probe
                p = (p + 1) % (1 << 64)
            self._assign[p] = name
        self._rebuild()

    def remove(self, name: str) -> None:
        points = [p for p, o in self._assign.items() if o == name]
        if not points:
            raise ValueError(f"shard {name!r} is not on the ring")
        if len(set(self._assign.values())) == 1:
            raise ValueError("cannot remove the last shard")
        for p in points:
            del self._assign[p]
        self._rebuild()

    def split(self, donor: str, new_name: str) -> "HashRing":
        """A new ring where ``new_name`` takes alternate points of
        ``donor`` -- every moved key was a donor key, nothing else
        shifts.  ``self`` is unchanged (rings are epoch values)."""
        donor_points = sorted(p for p, o in self._assign.items()
                              if o == donor)
        if not donor_points:
            raise ValueError(f"shard {donor!r} is not on the ring")
        if any(o == new_name for o in self._assign.values()):
            raise ValueError(f"shard {new_name!r} already on the ring")
        if len(donor_points) < 2:
            raise ValueError(f"shard {donor!r} has too few points to split")
        assignment = dict(self._assign)
        for p in donor_points[1::2]:
            assignment[p] = new_name
        return HashRing(replicas=self.replicas, _assignment=assignment)

    # -- placement ------------------------------------------------------

    def owner_indices(self, uids) -> np.ndarray:
        """Index into :attr:`shards` of each uid's owner."""
        h = splitmix64(uids)
        slot = np.searchsorted(self._points, h, side="left")
        slot[slot == self._points.size] = 0      # clockwise wraparound
        return self._owner_idx[slot]

    def owner(self, uid: int) -> str:
        return self.shards[int(self.owner_indices([int(uid)])[0])]

    def member_mask(self, name: str, uids) -> np.ndarray:
        """Bool mask of the uids owned by shard ``name``."""
        try:
            idx = self.shards.index(name)
        except ValueError:
            raise ValueError(f"shard {name!r} is not on the ring") from None
        return self.owner_indices(np.asarray(uids, dtype=np.int64)) == idx

    def owned_filter(self, name: str,
                     ) -> Callable[[ActivenessTable], ActivenessTable]:
        """Restrict an activeness evaluation to this shard's users.

        Publication rows are duplicated to co-author shards so scores
        fold identically everywhere, but only the owner may *classify*
        a user -- otherwise a co-author would be counted (and purged)
        on several shards at once.  The filter masks the table's rows.
        """

        def filt(table: ActivenessTable) -> ActivenessTable:
            keep = self.member_mask(name, table.uids)
            return table if keep.all() else table.rows(keep)

        return filt

    # -- serialization --------------------------------------------------

    def to_jsonable(self) -> dict:
        return {"replicas": self.replicas,
                "points": [[int(p), o]
                           for p, o in sorted(self._assign.items())]}

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "HashRing":
        return cls(replicas=int(data.get("replicas", 64)),
                   _assignment={int(p): str(o)
                                for p, o in data["points"]})

    def digest(self) -> str:
        text = json.dumps(self.to_jsonable(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> dict:
        counts = {name: 0 for name in self.shards}
        for o in self._point_owner:
            counts[o] += 1
        return {"shards": list(self.shards), "replicas": self.replicas,
                "points": int(self._points.size),
                "points_per_shard": counts, "digest": self.digest()}
