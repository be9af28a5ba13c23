"""Multi-producer network ingestion: a TCP/UDS front door for the service.

A fleet-wide deployment has many monitoring relays — one per rack, per
LDMS aggregator, per site — all pushing telemetry at once.
:class:`NetListener` turns one :class:`~repro.serve.service.IngestService`
into that shared endpoint: an asyncio TCP and/or Unix-domain-socket
listener accepting N concurrent producer connections, each speaking the
same newline-delimited JSON :class:`~repro.serve.stream.Sample` encoding
the file/stdin path reads (``parse_sample``).  Each socket read is
decoded as one block (:class:`LineDecoder`) and submitted in
per-connection micro-batches of blocks.

Design points (the full wire-protocol spec lives in ``docs/serving.md``):

- **Backpressure rides TCP flow control.**  Each connection handler
  awaits :meth:`~repro.serve.service.IngestService.submit_many` before
  reading more bytes; under the ``block`` policy a full ingest queue
  suspends the handler, the socket receive buffer fills, the kernel
  closes the TCP window, and the *producer's* writes stall.  Slow
  consumers slow producers — no unbounded buffering anywhere.
- **Per-connection fault isolation.**  A malformed, oversized, or
  undecodable line is a *protocol error*: the offending connection gets
  one ``{"error": ...}`` reply and is closed, after the valid samples
  parsed before the bad line were submitted.  Every other producer — and
  every session fed by this producer so far — is untouched.
- **Clean-EOF acknowledgement.**  A producer that half-closes its write
  side receives one ``{"ok": true, "accepted": N, "lines": M}`` summary
  line back, so a relay can confirm delivery counts end to end.

The producer side of the protocol is :func:`push_samples` (one
connection) and :func:`replay_samples` (N concurrent producers over a
job-partitioned stream) — the machinery behind ``efd replay --connect``,
the multi-producer equivalence tests, and
``benchmarks/test_bench_net_ingest.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.serve.service import IngestService
from repro.serve.stream import MAX_NODES, Sample, SampleBlock, parse_sample

__all__ = [
    "LineDecoder",
    "NetListener",
    "ProtocolError",
    "push_samples",
    "replay_samples",
    "split_by_job",
]

#: Socket bytes pulled per read: large enough to frame hundreds of
#: samples per event-loop turn, small enough to keep batches timely.
_READ_CHUNK = 1 << 16


class ProtocolError(ValueError):
    """A producer sent a line the listener cannot accept.

    Carries the valid :attr:`parsed` prefix of the current micro-batch
    (samples decoded before the bad line) so the handler can still
    submit them: a protocol error costs the producer its connection,
    never data the service already understood.
    """

    def __init__(self, reason: str, parsed: Optional[SampleBlock] = None):
        super().__init__(reason)
        self.parsed: SampleBlock = SampleBlock() if parsed is None else parsed


_NAN = float("nan")
_NONE = type(None)
_FLOAT_INT = {float, int}
_VALUE_TYPES = {float, int, _NONE}
_NODES_TYPES = {int, _NONE}


def _decode_bulk(data: bytes, max_bytes: int
                 ) -> Optional[Tuple[SampleBlock, int]]:
    """The common case of :meth:`LineDecoder.decode`, in one pass.

    ``data`` is complete lines joined by ``\n``.  One strict UTF-8
    decode, blank and ``#`` lines dropped, one ``json.loads`` of the
    remaining lines joined into a JSON array, then the per-object type
    checks column by column.  Returns the block and the number of lines
    consumed, or ``None`` whenever any line could need the per-line
    path: an oversized or undecodable line, a line not starting with
    ``{``, a decode error, a missing field, an extra key, or a value
    that is not already its final type (coercion).

    Why the array decode equals decoding line by line: the lines are
    joined by ``",\n"``, and strict ``json.loads`` rejects a raw newline
    inside a string, so no string spans two lines.  Every line starts
    with ``{``, so a join can only sit between two top-level values or
    inside an array.  Objects whose values are all checked scalars and
    that carry no other key hold no array, so no value spans two lines;
    every line starts a value, and with as many values as lines each
    line decoded to exactly one object of its own.
    """
    if len(data) > max_bytes and max(map(len, data.split(b"\n"))) > max_bytes:
        return None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    lines = text.split("\n")
    kept = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    if not kept:
        return SampleBlock(), len(lines)
    if not all(line[0] == "{" for line in kept):
        return None
    n = len(kept)
    try:
        objs = json.loads("[" + ",\n".join(kept) + "]")
        if len(objs) != n:
            return None  # some line held more than one value
        jobs = [o["job"] for o in objs]
        nodes = [o["node"] for o in objs]
        times = [o["t"] for o in objs]
        values = [o["value"] for o in objs]
        n_nodes = [o.get("nodes") for o in objs]
        if (set(map(type, jobs)) != {str} or not all(jobs)
                or set(map(type, nodes)) != {int} or min(nodes) < 0):
            return None
        time_types = set(map(type, times))
        value_types = set(map(type, values))
        nodes_types = set(map(type, n_nodes))
        if (not time_types <= _FLOAT_INT or not value_types <= _VALUE_TYPES
                or not nodes_types <= _NODES_TYPES):
            return None
        n_absent = n_nodes.count(None)
        if sum(map(len, objs)) != 5 * n - n_absent:
            return None  # an extra key (or an explicit "nodes": null)
        if int in nodes_types:
            present = [x for x in n_nodes if x is not None]
            if min(present) < 1 or max(present) > MAX_NODES:
                return None
        if int in time_types:
            times = list(map(float, times))
        if value_types != {float}:
            values = [_NAN if v is None else float(v) for v in values]
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
        return None
    return SampleBlock(jobs, nodes, times, values, n_nodes), len(lines)


def _decode_lines(lines: Iterable[bytes], lineno: int, max_bytes: int,
                  out: SampleBlock) -> int:
    """The per-line reference decoder: append ``lines`` to ``out`` one
    by one through :func:`~repro.serve.stream.parse_sample`; returns the
    new line count.  Raises :class:`ProtocolError` carrying ``out`` (the
    valid prefix) on the first line that is oversized, undecodable, or
    not a valid sample."""
    for raw in lines:
        lineno += 1
        if len(raw) > max_bytes:
            raise ProtocolError(
                f"sample line {lineno}: exceeds max_line_bytes={max_bytes}",
                out,
            )
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"sample line {lineno}: not valid UTF-8: {exc}", out
            )
        if not text or text.startswith("#"):
            continue
        try:
            out.append(parse_sample(text, lineno))
        except ValueError as exc:
            raise ProtocolError(str(exc), out)
    return lineno


class LineDecoder:
    """Frames one connection's NDJSON bytes into sample blocks.

    :meth:`feed` takes the bytes of one socket read and appends the
    samples of every line it completes to a block; :meth:`finish`
    decodes an unterminated last line at EOF.  Each read's complete
    lines are decoded in one pass (see :func:`_decode_bulk`); a chunk
    holding a line that needs coercion or is invalid goes through the
    per-line :func:`~repro.serve.stream.parse_sample` instead, so the
    samples, the :class:`ProtocolError` text and its line number never
    depend on where the reads split the stream.  :attr:`lineno` counts
    the lines consumed so far.
    """

    def __init__(self, max_line_bytes: int):
        self.max_line_bytes = max_line_bytes
        self.lineno = 0
        self._buf = bytearray()

    def feed(self, chunk: bytes, out: SampleBlock) -> None:
        buf = self._buf
        buf += chunk
        cut = buf.rfind(b"\n")
        if cut >= 0:
            data = bytes(buf[:cut])
            del buf[:cut + 1]
            # Decode the complete lines BEFORE rejecting an oversized
            # unterminated tail: valid samples that shared a read with
            # the bad line must still ride along in exc.parsed, or
            # acceptance would depend on chunk boundaries.
            self.decode(data, out)
        if len(buf) > self.max_line_bytes:
            raise ProtocolError(
                f"sample line {self.lineno + 1}: exceeds "
                f"max_line_bytes={self.max_line_bytes}",
                out,
            )

    def finish(self, out: SampleBlock) -> None:
        """End of stream: a trailing unterminated line is still a line."""
        if self._buf:
            data = bytes(self._buf)
            self._buf.clear()
            self.decode(data, out)

    def decode(self, data: bytes, out: SampleBlock) -> None:
        """Append the samples of complete lines ``data`` (joined by
        ``\n``, no trailing newline) to ``out``."""
        decoded = _decode_bulk(data, self.max_line_bytes)
        if decoded is None:
            self.lineno = _decode_lines(data.split(b"\n"), self.lineno,
                                        self.max_line_bytes, out)
        else:
            out.extend(decoded[0])
            self.lineno += decoded[1]


class NetListener:
    """TCP + Unix-domain-socket listener feeding an :class:`IngestService`.

    Parameters
    ----------
    service:
        A *started* :class:`~repro.serve.service.IngestService`; its
        :class:`~repro.serve.config.ServeConfig` supplies the framing
        knobs (``net_batch_samples``, ``net_batch_delay``,
        ``max_line_bytes``) and its
        :class:`~repro.engine.stats.EngineStats` accumulates the
        connection counters.
    host, port:
        TCP endpoint.  ``port=0`` binds an ephemeral port; read the
        actual one from :attr:`tcp_address` after :meth:`start`.
    uds:
        Unix-domain-socket path.  TCP and UDS may be served at once; at
        least one endpoint is required.

    Use as an async context manager, inside the service's own context::

        async with IngestService(engine, config) as service:
            async with NetListener(service, uds="/run/efd.sock") as listener:
                ...  # producers connect and stream
            await service.drain()
    """

    def __init__(
        self,
        service: IngestService,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        uds: Optional[str] = None,
    ):
        if port is None and uds is None:
            raise ValueError("NetListener needs a TCP port and/or a UDS path")
        self.service = service
        self.config = service.config
        self.host = host
        self.port = port
        self.uds_path = uds
        self.tcp_address: Optional[Tuple[str, int]] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._closing = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "NetListener":
        """Bind every configured endpoint and begin accepting producers."""
        if self._servers:
            raise RuntimeError("listener already started")
        limit = self.config.max_line_bytes
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle, host=self.host, port=self.port, limit=limit
            )
            self.tcp_address = server.sockets[0].getsockname()[:2]
            self._servers.append(server)
        if self.uds_path is not None:
            server = await asyncio.start_unix_server(
                self._handle, path=self.uds_path, limit=limit
            )
            self._servers.append(server)
        return self

    async def __aenter__(self) -> "NetListener":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    @property
    def endpoints(self) -> List[str]:
        """Human-readable bound endpoints (``tcp://h:p``, ``unix://path``)."""
        out = []
        if self.tcp_address is not None:
            out.append(f"tcp://{self.tcp_address[0]}:{self.tcp_address[1]}")
        if self.uds_path is not None:
            out.append(f"unix://{self.uds_path}")
        return out

    @property
    def n_connections(self) -> int:
        """Producer connections currently being served."""
        return len(self._conn_tasks)

    async def close(self, abort: bool = True) -> None:
        """Stop accepting and shut down producer connections.

        With ``abort`` (default) open connections are cancelled: each
        handler submits the samples it already parsed, then closes its
        socket — the graceful-drain path (SIGTERM).  With
        ``abort=False`` the call waits for every producer to finish on
        its own (EOF or error), which never returns under a producer
        that streams forever.
        """
        self._closing = True
        for server in self._servers:
            server.close()
        tasks = list(self._conn_tasks)
        if abort:
            for task in tasks:
                task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        self._servers = []
        if self.uds_path is not None and os.path.exists(self.uds_path):
            try:
                os.unlink(self.uds_path)
            except OSError:
                pass

    # -- connection handling -------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        stats = self.service.stats
        stats.record_conn_open()
        dropped = False
        n_accepted = 0
        decoder = LineDecoder(self.config.max_line_bytes)
        try:
            if self._closing:
                return
            eof = False
            while not eof:
                try:
                    batch, eof = await self._read_batch(reader, decoder)
                except ProtocolError as exc:
                    dropped = True
                    stats.add(n_protocol_errors=1)
                    n_accepted += await self._submit(exc.parsed)
                    await self._reply(writer, {
                        "error": str(exc), "accepted": n_accepted,
                    })
                    return
                n_accepted += await self._submit(batch)
            await self._reply(writer, {
                "ok": True, "accepted": n_accepted, "lines": decoder.lineno,
            })
        except asyncio.CancelledError:
            pass  # close(abort=True): just stop; the socket closes below
        except (ConnectionError, RuntimeError, OSError):
            # Producer vanished mid-stream, or the service stopped under
            # us — either way this connection is done; peers unaffected.
            dropped = True
        finally:
            self._conn_tasks.discard(task)
            stats.record_conn_close(dropped=dropped)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _submit(self, batch: SampleBlock) -> int:
        if not batch:
            return 0
        return await self.service.submit_many(batch)

    async def _read_batch(
        self, reader: asyncio.StreamReader, decoder: LineDecoder
    ) -> Tuple[SampleBlock, bool]:
        """Read one micro-batch of samples off the wire.

        Each socket read pulls up to 64 KiB and ``decoder`` turns its
        complete lines into samples in one pass — hundreds of samples
        per event-loop turn instead of one.  Reading stops once at least
        ``net_batch_samples`` samples are decoded (a single read may
        overshoot) or a ``net_batch_delay`` window closes with no new
        bytes, so a trickling producer's samples are never held hostage
        to an unfilled batch.  Returns ``(block, eof)``; raises
        :class:`ProtocolError` (with the valid prefix attached) on a
        line it cannot accept.
        """
        cfg = self.config
        loop = asyncio.get_running_loop()
        block = SampleBlock()
        deadline: Optional[float] = None
        while len(block) < cfg.net_batch_samples:
            try:
                if deadline is None:
                    chunk = await reader.read(_READ_CHUNK)
                    deadline = loop.time() + cfg.net_batch_delay
                else:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        chunk = await asyncio.wait_for(
                            reader.read(_READ_CHUNK), remaining
                        )
                    except asyncio.TimeoutError:
                        break
            except asyncio.CancelledError:
                # Graceful drain (close(abort=True)): treat the cancel
                # as EOF so everything already decoded is still
                # submitted and the producer still gets a summary.  The
                # buffered tail is NOT decoded — a cut stream ends in an
                # incomplete line, not a sample.
                return block, True
            if not chunk:
                decoder.finish(block)
                return block, True
            decoder.feed(chunk, block)
        return block, False

    async def _reply(self, writer: asyncio.StreamWriter, payload: Dict) -> None:
        try:
            writer.write((json.dumps(payload) + "\n").encode("utf-8"))
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # producer already gone; its loss

    def __repr__(self) -> str:
        return (
            f"NetListener({', '.join(self.endpoints) or 'unbound'}, "
            f"connections={self.n_connections})"
        )


# ---------------------------------------------------------------------------
# Producer side: the protocol's client half
# ---------------------------------------------------------------------------

async def push_samples(
    samples: Iterable[Sample],
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    uds: Optional[str] = None,
    batch_lines: int = 256,
) -> Dict:
    """Stream samples over one connection; return the server's summary.

    Writes NDJSON with a :meth:`~asyncio.StreamWriter.drain` every
    ``batch_lines`` lines (so a blocked server propagates backpressure
    into this coroutine), half-closes the write side, and reads the
    one-line JSON reply — ``{"ok": true, "accepted": N, "lines": M}`` on
    success, ``{"error": ...}`` if the server refused a line.
    """
    if (port is None) == (uds is None):
        raise ValueError("push_samples needs exactly one of port / uds")
    if uds is not None:
        reader, writer = await asyncio.open_unix_connection(uds)
    else:
        reader, writer = await asyncio.open_connection(host, port)
    try:
        try:
            buf: List[str] = []
            for sample in samples:
                buf.append(sample.to_json())
                if len(buf) >= batch_lines:
                    writer.write(("\n".join(buf) + "\n").encode("utf-8"))
                    buf = []
                    await writer.drain()
            if buf:
                writer.write(("\n".join(buf) + "\n").encode("utf-8"))
            await writer.drain()
            writer.write_eof()
            reply = await reader.readline()
        except (ConnectionError, OSError) as exc:
            # The server hung up mid-stream — almost always because it
            # refused a line and closed after replying.  Its parting
            # {"error": ...} line is usually still in the read buffer;
            # surface that instead of crashing the producer.
            try:
                reply = await reader.readline()
            except (ConnectionError, OSError):
                reply = b""
            if not reply:
                return {"error": f"connection closed mid-stream: {exc}"}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if not reply:
        return {"error": "connection closed without a summary"}
    try:
        return json.loads(reply.decode("utf-8"))
    except ValueError:
        return {"error": f"unparseable summary: {reply[:80]!r}"}


def split_by_job(
    samples: Iterable[Sample], n: int
) -> List[List[Sample]]:
    """Partition a sample stream across ``n`` producers, by job id.

    Jobs are assigned round-robin in order of first appearance and a
    job's samples all ride the same producer in their original order —
    the invariant the service's equivalence guarantee rests on (per-node
    timestamps stay non-decreasing within each connection).
    """
    if n < 1:
        raise ValueError(f"need n >= 1 producers, got {n}")
    streams: List[List[Sample]] = [[] for _ in range(n)]
    owner: Dict[str, int] = {}
    for sample in samples:
        slot = owner.setdefault(sample.job, len(owner) % n)
        streams[slot].append(sample)
    return streams


async def replay_samples(
    samples: Sequence[Sample],
    producers: int = 1,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    uds: Optional[str] = None,
    batch_lines: int = 256,
) -> List[Dict]:
    """Replay a stream as N concurrent producers; return their summaries.

    The stream is partitioned with :func:`split_by_job` and each
    partition pushed over its own connection concurrently — the
    many-relays-one-recognizer topology in miniature.
    """
    streams = [s for s in split_by_job(samples, producers) if s]
    return list(await asyncio.gather(*(
        push_samples(stream, host=host, port=port, uds=uds,
                     batch_lines=batch_lines)
        for stream in streams
    )))
