"""Fault-injecting wrappers for file handles and event iterators.

:class:`FaultyIO` wraps a binary file object and fires plan specs at
scripted read/write call indices -- ``EIO``, stalls, ``SIGKILL`` mid
write (a scripted ``kill -9`` *during* a checkpoint write), disk-full
partial writes, short reads, bit-flips.  Operation indices are counted
on the plan, cumulatively across every handle opened for the same
target, so "kill during the 3rd checkpoint's write" is expressible as a
single absolute write index.

:class:`FaultyStream` wraps a batch iterator and *inserts* faults --
stalls (a transient ``InjectedIOError`` the retry layer must absorb),
malformed garbage, duplicate and time-regressed copies of real rows.
Injections never consume or replace an underlying row, so the valid
subsequence is exactly the clean stream: a pipeline that quarantines
every injection provably computes the fault-free answer.

:func:`corrupt_file` applies after-the-fact corruption (truncation,
bit-flips) to files already on disk -- torn-write simulation for
checkpoint-chain tests.
"""

from __future__ import annotations

import errno
import os
import signal
from typing import IO, Callable, Iterator

from .plan import FaultPlan, FaultSpec

__all__ = ["InjectedIOError", "FaultyIO", "FaultyStream", "corrupt_file",
           "corrupt_frame_bytes", "trace_writer_wrap"]


class InjectedIOError(OSError):
    """A scripted transient I/O failure (``errno.EAGAIN``)."""

    def __init__(self, message: str) -> None:
        super().__init__(errno.EAGAIN, message)


def _default_kill() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


class FaultyIO:
    """A file-object proxy that injects faults at scripted call indices.

    Reads and writes are counted separately (plan counter keys
    ``{target}#r`` / ``{target}#w``).  Anything not intercepted is
    delegated to the wrapped handle, so the proxy drops into any code
    that expects a file object (including ``np.savez``).
    """

    def __init__(self, fh: IO[bytes], plan: FaultPlan, target: str, *,
                 sleep: Callable[[float], None] | None = None,
                 kill: Callable[[], None] | None = None) -> None:
        self._fh = fh
        self._plan = plan
        self._target = target
        self._specs = plan.for_target(target)
        self._reads = plan.counter(f"{target}#r")
        self._writes = plan.counter(f"{target}#w")
        self._sleep = sleep or __import__("time").sleep
        self._kill = kill or _default_kill
        self._truncated = False

    # -- intercepted calls ---------------------------------------------

    def write(self, data) -> int:
        index = self._writes.n
        self._writes.n += 1
        for spec in self._specs.get(index, ()):
            if not self._plan.claim(spec):
                continue
            if spec.kind == "eio":
                raise OSError(errno.EIO, f"injected EIO on write {index} "
                                         f"of {self._target}")
            if spec.kind == "stall":
                self._sleep(float(spec.arg or 0.01))
            elif spec.kind == "kill":
                self._fh.flush()
                self._kill()
            elif spec.kind == "partial_write":
                self._fh.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC,
                              f"injected disk-full after partial write "
                              f"{index} of {self._target}")
        return self._fh.write(data)

    def writelines(self, lines) -> None:
        # The trace writers batch records through ``writelines``; routing
        # each line through :meth:`write` keeps write-index fault specs
        # meaningful (one index per record, not per 8192-record batch).
        for line in lines:
            self.write(line)

    def read(self, size: int = -1) -> bytes:
        if self._truncated:
            return b""
        index = self._reads.n
        self._reads.n += 1
        data = None
        for spec in self._specs.get(index, ()):
            if not self._plan.claim(spec):
                continue
            if spec.kind == "eio":
                raise OSError(errno.EIO, f"injected EIO on read {index} "
                                         f"of {self._target}")
            if spec.kind == "stall":
                self._sleep(float(spec.arg or 0.01))
            elif spec.kind == "truncate":
                data = self._fh.read(size)
                keep = int(spec.arg) if spec.arg is not None else len(data) // 2
                data = data[:keep]
                self._truncated = True
            elif spec.kind == "bitflip":
                buf = bytearray(self._fh.read(size))
                if buf:
                    rng = self._plan.rng(spec)
                    bit = rng.randrange(8 * len(buf))
                    buf[bit // 8] ^= 1 << (bit % 8)
                data = bytes(buf)
        if data is None:
            data = self._fh.read(size)
        return data

    # -- passthrough ---------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self._fh, name)

    def __enter__(self) -> "FaultyIO":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._fh.close()

    def __iter__(self):
        return iter(self._fh)


class FaultyStream:
    """A batch-iterator proxy that *inserts* scripted stream faults.

    ``source`` is any object with an integer ``pos`` (absolute index of
    the next underlying row -- typically maintained by the replayable
    source that owns the iterator, which cuts its chunks so ``pos``
    stops at every scripted position) and a ``last_batch`` attribute;
    faults fire when ``pos`` reaches a spec's ``at``.  ``duplicate``
    re-inserts the last delivered row as a one-row batch, ``regress``
    the same row with its ``ts`` shifted back, and ``malformed``
    something that is not a batch at all.  Because firing state lives
    on the plan, a retry that re-opens the stream (and thus rebuilds
    this wrapper) resumes exactly where the fault schedule left off
    instead of replaying already-fired faults.
    """

    def __init__(self, batches: Iterator, plan: FaultPlan, source) -> None:
        self._batches = batches
        self._plan = plan
        self._source = source
        self._specs = plan.for_target(source.name)

    def __iter__(self) -> "FaultyStream":
        return self

    def __next__(self):
        injected = self._inject_at(self._source.pos)
        if injected is not _NOTHING:
            return injected
        return next(self._batches)

    def _inject_at(self, pos: int):
        for spec in self._specs.get(pos, ()):
            if not self._plan.claim(spec):
                continue
            if spec.kind == "stall":
                raise InjectedIOError(
                    f"injected stall at event {pos} of {self._source.name}")
            if spec.kind == "eio":
                raise OSError(errno.EIO, f"injected EIO at event {pos} of "
                                         f"{self._source.name}")
            if spec.kind == "malformed":
                return self._garbage(spec, pos)
            last = self._source.last_batch
            if last is None or spec.kind not in ("duplicate", "regress"):
                continue  # nothing to copy yet (spec spent), or no-op kind
            row = last.take([last.n - 1])
            if spec.kind == "regress":
                row.ts = row.ts - (int(spec.arg) if spec.arg is not None
                                   else 86_400)
            return row
        return _NOTHING

    def _garbage(self, spec: FaultSpec, pos: int):
        rng = self._plan.rng(spec)
        # Advance the RNG once per firing so consecutive injections from
        # one spec (count > 1) differ, yet the sequence stays seeded.
        for _ in range(self._plan.fired(spec)):
            rng.random()
        shape = rng.choice(["none", "text", "object"])
        if shape == "none":
            return None
        if shape == "text":
            return f"garbage|{self._source.name}|{pos}|{rng.random():.6f}"
        return object()


_NOTHING = object()


def trace_writer_wrap(plan: FaultPlan, target: str, *,
                      sleep: Callable[[float], None] | None = None,
                      kill: Callable[[], None] | None = None,
                      ) -> Callable[[IO], IO]:
    """A ``wrap`` hook for the trace writers, driven by a fault plan.

    Pass the result as ``write_jobs(..., wrap=...)`` (or any other trace
    writer / ``atomic_output``): every record the writer emits becomes
    one counted write on ``{target}#w``, so a plan can script "EIO on
    record 1000" or "SIGKILL while appending record 52_000" against a
    trace *writer* exactly the way checkpoint plans script faults
    against the checkpoint stream.  The atomic writers turn an injected
    failure into an aborted tmp sibling (destination untouched); a
    ``kill`` leaves the torn ``.tmp`` tail behind for crash-recovery
    tests.
    """
    def wrap(fh: IO) -> IO:
        return FaultyIO(fh, plan, target, sleep=sleep, kill=kill)
    return wrap


def corrupt_file(path: str, kind: str = "truncate", *, seed: int = 0,
                 frac: float = 0.5) -> None:
    """Corrupt an on-disk file in place (torn-write simulation).

    ``truncate`` keeps the first ``frac`` of the file -- what a crash
    between a partial write and the rename-barrier fsync can leave
    behind; ``torn_tail`` chops a seeded-random sliver (1--64 bytes) off
    the end -- the signature a killed appender leaves: a final record
    cut mid-line, or a gzip member missing its end-of-stream marker;
    ``bitflip`` flips one seeded-random bit in place -- silent media
    corruption.
    """
    size = os.path.getsize(path)
    if kind == "truncate":
        with open(path, "r+b") as fh:
            fh.truncate(max(1, int(size * frac)))
    elif kind == "torn_tail":
        import random

        rng = random.Random(f"{seed}|{path}|{size}")
        cut = min(max(1, size - 1), rng.randrange(1, 65))
        with open(path, "r+b") as fh:
            fh.truncate(size - cut)
    elif kind == "bitflip":
        import random

        rng = random.Random(f"{seed}|{path}|{size}")
        offset = rng.randrange(max(1, size))
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ (1 << rng.randrange(8))]))
    else:
        raise ValueError(f"unknown corruption kind {kind!r}")


def corrupt_frame_bytes(frame: bytes, kind: str = "bitflip", *,
                        seed: int = 0) -> bytes:
    """Damage one encoded wire frame the way a faulty transport would.

    ``bitflip`` flips one seeded-random bit inside the *payload* (never
    the length header, so the frame stays parseable and the damage must
    be caught by the CRC trailer); ``torn`` chops a seeded-random sliver
    off the end -- what a producer killed mid-``sendall`` leaves in the
    stream; ``crc`` flips the low bit of the payload's final byte --
    the CRC trailer itself for a v2 binary batch frame.
    """
    import random

    rng = random.Random(f"{seed}|frame|{len(frame)}")
    head = frame.index(b"\n") + 1
    if kind == "bitflip":
        body = bytearray(frame)
        # Payload spans [head, len-1); the final byte is the "\n" epilogue.
        offset = head + rng.randrange(max(1, len(frame) - 1 - head))
        body[offset] ^= 1 << rng.randrange(8)
        return bytes(body)
    if kind == "torn":
        cut = rng.randrange(1, max(2, min(65, len(frame) - head)))
        return frame[:len(frame) - cut]
    if kind == "crc":
        body = bytearray(frame)
        body[len(frame) - 2] ^= 0x01
        return bytes(body)
    raise ValueError(f"unknown frame corruption kind {kind!r}")
