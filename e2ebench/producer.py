"""The load generator of the serve workloads, as a process of its own.

A relay pushing telemetry to the service is a separate program, so the
generator runs in its own interpreter and never competes with the
service for its interpreter lock.  It reads pre-encoded NDJSON lines,
writes them to the listener's Unix socket and prints, as one JSON line,
when each write returned (``time.perf_counter``, the system-wide
monotonic clock the service side reads too) and the listener's reply.

Usage: ``python3 -m e2ebench.producer SOCKET PAYLOAD [RATE]``, where
``PAYLOAD`` is a file of NDJSON lines.  Without ``RATE`` the lines go out
in ~64 KiB writes as fast as the socket takes them (closed loop); with
it, line ``k`` falls due ``k / RATE`` seconds after the start and each
write carries every line due by then (open loop).  Each write is
reported as ``[first_line, end_line, written_at]``.
"""

from __future__ import annotations

import json
import socket
import sys
import time


def _reply(sk: socket.socket) -> dict:
    sk.shutdown(socket.SHUT_WR)
    data = b""
    while True:
        chunk = sk.recv(4096)
        if not chunk:
            break
        data += chunk
    lines = data.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def flood(sk: socket.socket, lines, chunk_bytes: int = 1 << 16) -> dict:
    """Closed loop: write ~``chunk_bytes`` of lines after another as fast
    as the socket takes them.  The gap between one write returning and
    the next being issued is the generator's lag."""
    chunks, ends = [], []
    start = size = 0
    for i, line in enumerate(lines):
        size += len(line)
        if size >= chunk_bytes or i == len(lines) - 1:
            chunks.append(b"".join(lines[start:i + 1]))
            ends.append(i + 1)
            start, size = i + 1, 0
    writes, gaps = [], []
    start = 0
    first = previous = time.perf_counter()
    for chunk, end in zip(chunks, ends):
        issued = time.perf_counter()
        sk.sendall(chunk)
        written = time.perf_counter()
        writes.append((start, end, written))
        gaps.append((end - start, issued - previous))
        previous = written
        start = end
    return {"first_write": first, "writes": writes, "gaps": gaps}


def paced(sk: socket.socket, lines, rate: float) -> dict:
    """Open loop: every due line is written as soon as the generator gets
    to it; a write carries all lines due by then."""
    writes = []
    n = len(lines)
    t0 = time.perf_counter() + 0.01
    i = 0
    while i < n:
        now = time.perf_counter()
        due_end = min(n, int((now - t0) * rate) + 1) if now >= t0 else 0
        if due_end > i:
            sk.sendall(b"".join(lines[i:due_end]))
            writes.append((i, due_end, time.perf_counter()))
            i = due_end
        else:
            time.sleep(max(t0 + i / rate - now, 0.0))
    return {"first_write": t0, "writes": writes, "gaps": []}


def main(argv) -> int:
    sock_path, payload_path = argv[:2]
    rate = float(argv[2]) if len(argv) > 2 else None
    with open(payload_path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sk:
        sk.connect(sock_path)
        out = flood(sk, lines) if rate is None else paced(sk, lines, rate)
        out["reply"] = _reply(sk)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
