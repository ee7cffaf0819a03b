"""Host-speed sampler: how fast one CPU runs while a pass runs on it.

``run.py`` pins the workload process to one CPU and starts this from
it, so it runs on the same CPU.  Every :data:`INTERVAL_S` it times
:func:`kernel`, a fixed piece of interpreter work of under a
millisecond, and keeps the time with the moment it was taken.  On a
shared host the time swings by up to twice
within seconds as neighbours come and go, and a pass slows with it; the
kernel never changes with the program, so its time measures only the
host.  It prints ``ready``, then answers each line ``speed <t0> <t1>``
on standard input (``time.monotonic`` seconds) with ``done <seconds>``,
the mean kernel time over that window, and exits at end of input.
"""

from __future__ import annotations

import os
import select
import sys
import time

#: Seconds between samples: ~20 samples per second of pass, taking about
#: 2% of the CPU away from the pass.
INTERVAL_S = 0.05


def kernel() -> int:
    """Dictionary updates, integer arithmetic and calls -- the mix the
    engine's per-event paths spend their time on."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        key = (i * 2654435761) & 1023
        counts[key] = counts.get(key, 0) + 1
        acc ^= key
    return acc


def window_mean(samples: list[tuple[float, float]], t0: float,
                t1: float) -> float:
    """Mean kernel time of the samples taken in ``[t0, t1]``; for a window
    too short to hold one, the sample taken nearest its middle."""
    inside = [dt for t, dt in samples if t0 <= t <= t1]
    if inside:
        return sum(inside) / len(inside)
    middle = (t0 + t1) / 2
    return min(samples, key=lambda s: abs(s[0] - middle))[1]


def main() -> int:
    kernel()  # warm up before the first sample
    samples: list[tuple[float, float]] = []
    stdin = sys.stdin.fileno()
    buf = b""
    print("ready", flush=True)
    while True:
        began = time.monotonic()
        kernel()
        ended = time.monotonic()
        samples.append(((began + ended) / 2, ended - began))
        readable, _, _ = select.select([stdin], [], [], INTERVAL_S)
        if not readable:
            continue
        chunk = os.read(stdin, 4096)
        if not chunk:
            return 0
        buf += chunk
        while b"\n" in buf:
            line, _, buf = buf.partition(b"\n")
            command, *window = line.decode().split()
            if command != "speed" or len(window) != 2:
                print(f"probe: unknown command {line!r}", file=sys.stderr)
                return 2
            t0, t1 = map(float, window)
            print("done", repr(window_mean(samples, t0, t1)), flush=True)
            # Passes are asked about in order; older samples are done with.
            samples = [s for s in samples if s[0] >= t0]


if __name__ == "__main__":
    raise SystemExit(main())
