"""Fault-tolerant ingestion: resilient sources and event quarantine.

This subpackage hardens the ingest side of the online retention service.
:mod:`~repro.stream.reliability.sources` keeps unreliable feeds flowing
(retry with deterministic backoff, per-source health, graceful death
with watermark holds); :mod:`~repro.stream.reliability.quarantine`
keeps bad *data* out of the merge (schema / ordering / duplicate guards
backed by a bounded dead-letter log).  :class:`ReliableEventStream`
composes both into a drop-in replacement for
``workspace_event_stream`` that degrades instead of crashing.
"""

from .quarantine import (REASON_DUPLICATE, REASON_NOT_EVENT,
                         REASON_REGRESSION, REASON_UNKNOWN_UID,
                         REASON_UNPARSABLE, DeadLetterLog, EventQuarantine)
from .sources import (ReliableEventStream, ResilientSource, RetryPolicy,
                      SourceHealth, TailingFileSource)

__all__ = [
    "DeadLetterLog",
    "EventQuarantine",
    "REASON_UNPARSABLE",
    "REASON_NOT_EVENT",
    "REASON_REGRESSION",
    "REASON_DUPLICATE",
    "REASON_UNKNOWN_UID",
    "ReliableEventStream",
    "ResilientSource",
    "RetryPolicy",
    "SourceHealth",
    "TailingFileSource",
]
