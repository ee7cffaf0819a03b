"""Load generator for the socket workloads.

Reads the pre-encoded feed written by ``prepare.py`` once, prints
``ready``, then serves commands from standard input, one per line:

    publish <address>   send the whole feed to <address> as the single
                        producer of source ``feed`` with
                        ``publish_batches``, then print ``done ok`` or
                        ``done error``

and exits at end of input.
"""

from __future__ import annotations

import os
import struct
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def load_payloads(path: str) -> list[bytes]:
    payloads = []
    with open(path, "rb") as fh:
        while True:
            head = fh.read(4)
            if not head:
                return payloads
            (size,) = struct.unpack("<I", head)
            payloads.append(fh.read(size))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, SRC)
    from repro.server.ingest import publish_batches
    from repro.server.protocol import BATCH_MAX_FRAME_BYTES

    payloads = load_payloads(argv[0])
    print("ready", len(payloads), flush=True)
    for line in sys.stdin:
        command, _, address = line.strip().partition(" ")
        if command != "publish":
            print(f"publisher: unknown command {line!r}", file=sys.stderr)
            return 2
        try:
            publish_batches(address, "feed", payloads,
                            producer="pipeline-bench",
                            frame_cap=BATCH_MAX_FRAME_BYTES)
            status = "ok"
        except Exception as exc:  # report and keep serving commands
            print(f"publisher: {type(exc).__name__}: {exc}", file=sys.stderr)
            status = "error"
        print("done", status, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
