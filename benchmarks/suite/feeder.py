"""The live-feed workload's feeder process.

Reads length-prefixed frames from a file, connects to the service's unix
socket and sends frame *i* at ``t0 + i * interval`` on the monotonic
clock (``interval`` 0 sends flat out).  Prints one JSON line: frames and
bytes sent, and how late each send started (``lags_ms``).  Uses only the
standard library, so it starts in a few milliseconds.

    python3 feeder.py --socket feed.sock --frames frames.bin --t0 T --interval S [--cpu N]
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import struct
import time

#: The feeder busy-waits this last stretch before each due time.
SPIN_S = 0.001


def read_frames(path: str):
    with open(path, "rb") as source:
        data = source.read()
    frames, offset = [], 0
    while offset < len(data):
        (length,) = struct.unpack_from("!I", data, offset)
        frames.append(data[offset:offset + 4 + length])
        offset += 4 + length
    return frames


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--frames", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the first frame's due time")
    parser.add_argument("--interval", type=float, required=True)
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args(argv)

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    frames = read_frames(args.frames)
    lags = []
    with socket.socket(socket.AF_UNIX) as connection:
        connection.connect(args.socket)
        for index, frame in enumerate(frames):
            due = args.t0 + index * args.interval
            # Sleep to within a millisecond of the due time, then spin:
            # a sleeping VM wakes late by a varying amount.
            pause = due - SPIN_S - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            now = time.monotonic()
            while now < due:
                now = time.monotonic()
            lags.append((now - due) * 1e3)
            connection.sendall(frame)
        connection.shutdown(socket.SHUT_WR)
        # Wait for the service to close its end: every frame was read.
        connection.recv(1)
    print(json.dumps({"frames": len(frames),
                      "bytes": sum(len(frame) for frame in frames),
                      "lags_ms": lags}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
