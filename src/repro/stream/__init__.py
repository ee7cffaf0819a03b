"""Streaming building blocks: ingestion, engine state, crash-safe
checkpoint/resume.

The batch pipeline (``repro.emulation``) answers "what would this policy
have done over this year of traces"; the streaming engine answers the
production question -- "run the policy *now*, continuously, over live
feeds" -- while provably computing the same thing.  This package holds
what that engine (:class:`repro.server.MultiTenantService`) consumes and
persists: the merged event feed and its columnar batches, the
self-verifying checkpoint chain, and the reliability layer.  Its path
catalog and per-tenant replay state are the batch engine's
(:mod:`repro.emulation.compiled`; ``PathCatalog`` is re-exported here),
and its activeness history is the batch engines'
:class:`~repro.core.incremental.ColumnarActivityStore`
(``IncrementalActivenessState`` remains as a name for it).  The engine
is pinned bit-identical to the batch ``FastEmulator`` across the full
retention spectrum, including across a checkpoint / kill / resume
cycle.
"""

from .batch import BatchBuilder, BatchRun, EventBatch, skip_stream_items
from .checkpoint import (CheckpointCorruption, CheckpointManager,
                         atomic_write_npz, ingest_cursors, load_checkpoint,
                         verify_checkpoint)
from .events import (EVENT_ACCESS, EVENT_JOB, EVENT_PUBLICATION, StreamEvent,
                     dataset_event_stream, merge_event_streams,
                     workspace_event_stream)
from .reliability import (DeadLetterLog, EventQuarantine,
                          ReliableEventStream, ResilientSource, RetryPolicy,
                          SourceHealth, TailingFileSource)
from .state import IncrementalActivenessState, PathCatalog

__all__ = [
    "BatchBuilder",
    "BatchRun",
    "EventBatch",
    "skip_stream_items",
    "CheckpointCorruption",
    "CheckpointManager",
    "atomic_write_npz",
    "ingest_cursors",
    "load_checkpoint",
    "verify_checkpoint",
    "EVENT_ACCESS",
    "EVENT_JOB",
    "EVENT_PUBLICATION",
    "StreamEvent",
    "dataset_event_stream",
    "merge_event_streams",
    "workspace_event_stream",
    "DeadLetterLog",
    "EventQuarantine",
    "ReliableEventStream",
    "ResilientSource",
    "RetryPolicy",
    "SourceHealth",
    "TailingFileSource",
    "IncrementalActivenessState",
    "PathCatalog",
]
