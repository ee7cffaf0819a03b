"""Names the streaming engine's state has had, kept importable.

The engine's path catalog and replay state are the batch engine's:
:class:`~repro.emulation.compiled.PathCatalog` is re-exported here, and
each tenant replays into a :class:`~repro.emulation.compiled.ReplayState`
through a :class:`~repro.emulation.compiled.PolicyReplay`.  Its
activeness history is the batch engines'
:class:`~repro.core.incremental.ColumnarActivityStore`, which appends in
time order and refolds per trigger only the users
:func:`~repro.core.activeness.collapse_cutoff` cannot rule out;
:class:`IncrementalActivenessState` remains as a name for that store.
"""

from __future__ import annotations

from ..core.incremental import ColumnarActivityStore
from ..emulation.compiled import PathCatalog

__all__ = ["PathCatalog", "IncrementalActivenessState"]


class IncrementalActivenessState(ColumnarActivityStore):
    """The streaming engine's activeness state under its former name: the
    one :class:`~repro.core.incremental.ColumnarActivityStore` that both
    engines evaluate through."""
