"""Resilient event sources: retry, backoff, health, graceful death.

A production feed fails in boring ways -- a transient ``EIO``, an NFS
stall, a log shipper restarting -- and the right response is almost
never "crash the daemon".  :class:`ResilientSource` wraps a *replayable*
source (a zero-argument factory returning a fresh iterator from the
start) and absorbs transient failures by re-opening the factory and
fast-forwarding to the exact record where the failure struck.  Retries
follow :class:`RetryPolicy`: bounded attempts, exponential backoff with
*deterministic seeded jitter* (two runs of the same plan sleep the same
amounts -- reproducibility extends to the failure path), and an optional
wall-clock deadline per failure episode.

Health is a three-state ladder.  ``OK`` flows; a failing source is
``DEGRADED`` while the retry loop works on it and returns to ``OK`` on
the next successful record; a source whose episode exhausts its attempt
or deadline budget goes ``DEAD`` -- it raises ``StopIteration``, so a
merge over guarded sources *naturally* continues without it (graceful
degradation), and its last-emitted timestamp is held as an explicit
**watermark** in the report so the operator can see exactly how far the
dead feed got.

Position bookkeeping is the part that makes fault injection composable:
``pos`` counts *underlying* rows consumed -- ``n`` per columnar
:class:`~repro.stream.batch.EventBatch` chunk; injected faults never
advance it -- so a re-opened source skips exactly the rows already
delivered, slicing the chunk it lands inside, and a
:class:`~repro.faults.io.FaultyStream` keyed on ``pos`` fires each
scripted fault exactly once across any number of reopens.  A source a
fault plan targets cuts its chunks at the plan's positions for it, so
``pos`` stops at each and every fault lands between the same two rows
whatever the chunk size.
"""

from __future__ import annotations

import enum
import os
import random
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ...traces.io import (parse_blocks, read_app_log_chunks, read_job_chunks,
                          read_publication_chunks)
from ..batch import BatchRun, EventBatch, horizon_merge, skip_stream_items
from .quarantine import DeadLetterLog, EventQuarantine

__all__ = ["SourceHealth", "RetryPolicy", "ResilientSource",
           "TailingFileSource", "ReliableEventStream"]


class SourceHealth(enum.Enum):
    OK = "ok"               # flowing normally
    DEGRADED = "degraded"   # currently failing; retry loop engaged
    DEAD = "dead"           # retry budget exhausted; excluded from merge


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for one failure episode of one source.

    An *episode* starts at the first error after a success and ends when
    a record is delivered (budgets reset) or the budget is exhausted
    (source goes DEAD).  ``deadline`` caps an episode's wall-clock
    seconds; ``jitter`` spreads each delay by up to +/- that fraction,
    seeded per ``(seed, source, attempt)`` so schedules are exactly
    reproducible.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    deadline: float | None = None
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, source: str, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (zero-based) of ``source``."""
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** attempt)
        if self.jitter:
            rng = random.Random(f"{self.seed}|{source}|{attempt}")
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


class ResilientSource:
    """A retrying, health-tracked iterator over a replayable source.

    ``factory`` must return a fresh iterator over the *same* sequence of
    :class:`~repro.stream.batch.EventBatch` chunks each call (file
    readers and pure generators qualify); recovery re-opens it and skips
    the ``pos`` rows already delivered.  When a fault ``plan`` targets
    this source's name, the underlying iterator is wrapped in a
    :class:`~repro.faults.io.FaultyStream` keyed on this object's
    ``pos`` / ``last_batch``.
    """

    def __init__(self, name: str, factory: Callable[[], Iterable], *,
                 policy: RetryPolicy | None = None,
                 plan=None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.name = name
        self._factory = factory
        self.policy = policy or RetryPolicy()
        self._plan = plan
        self._sleep = sleep
        self._clock = clock
        self.pos = 0                # underlying rows consumed
        #: The most recent underlying chunk; kept only under a fault
        #: plan, whose duplicate and regress faults copy its last row.
        self.last_batch: EventBatch | None = None
        self.watermark: int | None = None  # ts of last emitted row
        self.health = SourceHealth.OK
        self.retries = 0            # reopen attempts, lifetime total
        self.episodes = 0           # failure episodes entered
        self.last_error: str | None = None
        self._it: Iterator | None = None
        self._gen: Iterator | None = None
        self._exhausted = False
        self._faulted = plan is not None and plan.has_target(name)

    def _open(self) -> Iterator:
        raw = iter(self._factory())
        if self.pos:
            raw = skip_stream_items(raw, self.pos)
        if self._faulted:
            from ...faults.io import FaultyStream
            return FaultyStream(self._rows(raw), self._plan, self)
        return self._rows(raw)

    def _rows(self, raw: Iterator) -> Iterator[EventBatch]:
        """Count each chunk's rows into ``pos``.  Under a fault plan a
        chunk is cut at this source's scripted positions, so the
        :class:`FaultyStream` above sees ``pos`` stop on each."""
        cuts = sorted(self._plan.for_target(self.name)) if self._faulted \
            else ()
        for item in raw:
            start, lo = self.pos, 0
            for hi in [at - start for at in cuts
                       if start < at < start + item.n] + [item.n]:
                part = item.slice_rows(lo, hi) if hi - lo < item.n else item
                self.pos += part.n
                if self._faulted:
                    self.last_batch = part
                yield part
                lo = hi

    def __iter__(self) -> Iterator:
        if self._gen is None:
            self._gen = self._run()
        return self._gen

    def __next__(self):
        if self._gen is None:
            self._gen = self._run()
        return next(self._gen)

    def _run(self) -> Iterator:
        ok = SourceHealth.OK
        attempt = 0
        episode_start: float | None = None
        while not self._exhausted:
            try:
                if self._it is None:
                    self._it = self._open()
                it = self._it
                while True:
                    ev = next(it)
                    if attempt:
                        attempt = 0
                        episode_start = None
                    if self.health is not ok:
                        self.health = ok
                    if type(ev) is EventBatch and ev.n:
                        self.watermark = int(ev.ts[-1])
                    yield ev
            except StopIteration:
                self._exhausted = True
                return
            # EOFError / zlib.error are what a torn gzip tail raises --
            # a writer killed mid-append leaves a truncated final
            # member, and gzip reports that as EOFError ("compressed
            # file ended before the end-of-stream marker") or a zlib
            # decompression error, not as OSError.  They get the same
            # retry -> DEAD ladder: the records before the tear were
            # already delivered, and the merge continues without the
            # dead source instead of crashing the daemon.
            except (OSError, EOFError, zlib.error) as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                self._it = None
                if episode_start is None:
                    episode_start = self._clock()
                    self.episodes += 1
                self.health = SourceHealth.DEGRADED
                attempt += 1
                policy = self.policy
                out_of_attempts = attempt >= policy.max_attempts
                past_deadline = (
                    policy.deadline is not None
                    and self._clock() - episode_start >= policy.deadline)
                if out_of_attempts or past_deadline:
                    self.health = SourceHealth.DEAD
                    self._exhausted = True
                    return
                self.retries += 1
                self._sleep(policy.delay(self.name, attempt - 1))

    def describe(self) -> dict:
        return {
            "health": self.health.value,
            "pos": self.pos,
            "watermark": self.watermark,
            "retries": self.retries,
            "episodes": self.episodes,
            "last_error": self.last_error,
        }


class TailingFileSource:
    """A replayable factory that follows a growing line-oriented file.

    Calling the instance opens the file from the start and yields the
    complete lines of each read as single-kind :class:`EventBatch`
    chunks, parsed by ``parse`` -- one of the columnar trace readers'
    block parsers (:func:`~repro.traces.io.job_block`,
    :func:`~repro.traces.io.publication_block`,
    :func:`~repro.traces.io.access_block`) -- so a line is diverted to
    ``on_error`` (or raises) exactly when the trace reader would divert
    it.  A trailing line without ``\\n`` is a write in progress and is
    left for the next poll.  At end of file it polls until the file
    grows, ``stop_when()`` goes true, or no growth is seen for
    ``idle_timeout`` seconds -- whichever comes first.  Plain text only:
    a gzip stream cannot be tailed mid-member.

    Rotation and truncation are handled at the poll point, where the
    path is re-stat'ed whenever the current handle hits EOF:

    * **rotation** (the path now names a different inode -- the classic
      ``logrotate`` rename-and-recreate): the old handle is closed and
      the new file is read *from offset 0*.  Events already yielded from
      the old file stay delivered exactly once; nothing in the new file
      is skipped.
    * **truncation** (same inode, ``st_size`` below the bytes already
      consumed -- copytruncate-style rewrite in place): the handle seeks
      back to 0 and parses the new content from its beginning.  Without
      the check, the stale offset would silently swallow everything the
      writer emits until the file regrows past it.

    Either way a partial unterminated line buffered from the old
    incarnation is a torn write that will never be completed; it is
    routed to ``on_error`` (or raised), never spliced onto new content.

    As a factory of chunks it slots straight into
    :class:`ResilientSource`, whose reopen-and-skip recovery then also
    covers tail sources, and a guard over it validates the chunks
    whole.
    """

    def __init__(self, path: str, parse: Callable, *,
                 poll_interval: float = 0.05,
                 idle_timeout: float = 5.0,
                 stop_when: Callable[[], bool] | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic,
                 on_error: Callable[[str, Exception], None] | None = None,
                 ) -> None:
        self.path = path
        self.parse = parse
        self.poll_interval = poll_interval
        self.idle_timeout = idle_timeout
        self.stop_when = stop_when
        self._sleep = sleep
        self._clock = clock
        self.on_error = on_error

    def __call__(self) -> Iterator:
        # Binary mode throughout: a text handle's tell() is an opaque
        # cookie, and detecting truncation requires comparing st_size
        # against a true byte offset.
        fh = open(self.path, "rb")
        try:
            st = os.fstat(fh.fileno())
            identity = (st.st_dev, st.st_ino)
            offset = 0          # bytes consumed from the current inode
            buffer = b""
            idle_since: float | None = None
            while True:
                chunk = fh.read(65536)
                if chunk:
                    idle_since = None
                    offset += len(chunk)
                    buffer += chunk
                    cut = buffer.rfind(b"\n") + 1
                    if cut:
                        lines, buffer = buffer[:cut], buffer[cut:]
                        yield from parse_blocks(lines, True, self.parse,
                                                self.on_error)[0]
                    continue
                # EOF on the current handle: did the path move on
                # without us?
                try:
                    st = os.stat(self.path)
                except OSError:
                    st = None   # mid-rotation gap; poll again
                if st is not None:
                    rotated = (st.st_dev, st.st_ino) != identity
                    shrunk = not rotated and st.st_size < offset
                    if rotated or shrunk:
                        if buffer:
                            torn = buffer.decode("utf-8", "replace")
                            buffer = b""
                            exc = ValueError(
                                "torn line abandoned by rotation"
                                if rotated else
                                "torn line abandoned by truncation")
                            if self.on_error is None:
                                raise exc
                            self.on_error(torn, exc)
                        if rotated:
                            fh.close()
                            fh = open(self.path, "rb")
                            st = os.fstat(fh.fileno())
                            identity = (st.st_dev, st.st_ino)
                        else:
                            fh.seek(0)
                        offset = 0
                        idle_since = None
                        continue
                if self.stop_when is not None and self.stop_when():
                    return
                now = self._clock()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= self.idle_timeout:
                    return
                self._sleep(self.poll_interval)
        finally:
            fh.close()


class ReliableEventStream:
    """The fault-tolerant replacement for ``workspace_event_stream``.

    Wraps each of a workspace's three trace feeds in a
    :class:`ResilientSource` over its columnar reader, guards every
    source through one shared :class:`~.quarantine.EventQuarantine`
    (``guard``: chunks are validated whole), and merges the
    surviving rows with :func:`~repro.stream.batch.horizon_merge` into
    mixed-kind :class:`~repro.stream.batch.BatchRun` items (sources
    listed in jobs-publications-accesses order, preserving the merge's
    activity-before-access tie-break).  Under a fault plan that only
    *inserts* faults, the rows of the runs are exactly the clean
    ``workspace_event_stream`` sequence -- the invariant the chaos suite
    is built on.

    ``SOURCES`` lists ``(name, filename, reader, to_items)``; a source's
    items are ``to_items(reader(path, on_error=hook))``.
    """

    SOURCES = (("jobs", "jobs.txt.gz", read_job_chunks, iter),
               ("publications", "publications.txt.gz",
                read_publication_chunks, iter),
               ("accesses", "app_log.txt.gz", read_app_log_chunks, iter))

    def __init__(self, directory: str | None = None, *,
                 sources: Iterable | None = None,
                 plan=None,
                 quarantine: EventQuarantine | None = None,
                 retry: RetryPolicy | None = None,
                 known_uids: Iterable[int] | None = None,
                 dead_letter: DeadLetterLog | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if quarantine is None:
            quarantine = EventQuarantine(dead_letter=dead_letter,
                                         known_uids=known_uids)
        self.quarantine = quarantine
        self.retry = retry or RetryPolicy()
        if sources is not None:
            # Pre-built sources (e.g. socket sources): anything with
            # name / health / episodes / describe() and iterability.
            # Listing order is the merge tie-break order, exactly as
            # for the workspace files below.
            self.sources = list(sources)
            return
        if directory is None:
            raise ValueError(
                "ReliableEventStream needs a workspace directory or "
                "explicit sources")
        self.sources = [
            ResilientSource(
                name,
                self._make_factory(os.path.join(directory, filename),
                                   reader, to_items, name),
                policy=self.retry, plan=plan, sleep=sleep, clock=clock)
            for name, filename, reader, to_items in self.SOURCES]

    def _make_factory(self, path: str, reader, to_items,
                      name: str) -> Callable[[], Iterator]:
        hook = self.quarantine.reader_hook(name)
        return lambda: to_items(reader(path, on_error=hook))

    def __iter__(self) -> Iterator[BatchRun]:
        return horizon_merge(self.quarantine.guard(src.name, src)
                             for src in self.sources)

    # -- reporting -----------------------------------------------------

    def report(self) -> dict:
        sources = {src.name: src.describe() for src in self.sources}
        held = {name: info["watermark"] for name, info in sources.items()
                if info["health"] == SourceHealth.DEAD.value}
        return {
            "sources": sources,
            "held_watermarks": held,
            "quarantine": self.quarantine.summary(),
        }

    def gauges(self) -> dict:
        """The stream's counters, the ``stream`` section of every
        boundary sample (``MultiTenantService.sample_extra``)."""
        return {"quarantined": int(self.quarantine.total)}

    @property
    def degraded(self) -> bool:
        """True when any source is not (or was not always) healthy."""
        return any(src.health is not SourceHealth.OK or src.episodes
                   for src in self.sources)
