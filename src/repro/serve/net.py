"""Multi-producer network ingestion: a TCP/UDS front door for the service.

A fleet-wide deployment has many monitoring relays — one per rack, per
LDMS aggregator, per site — all pushing telemetry at once.
:class:`NetListener` turns one :class:`~repro.serve.service.IngestService`
into that shared endpoint: an asyncio TCP and/or Unix-domain-socket
listener accepting N concurrent producer connections, each speaking the
same newline-delimited JSON :class:`~repro.serve.stream.Sample` encoding
the file/stdin path reads (``parse_sample``).  The event loop reads
and frames the bytes (:class:`LineDecoder`); each read's complete lines
are decoded as one block in a forked decode process, which runs on the
host's second CPU (inline on a one-CPU host, and for a read of a few
lines), and the blocks are submitted in per-connection micro-batches.

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
import gc
import json
import marshal
import os
import signal
import socket
import struct
import time
from collections import deque
from typing import (Deque, Dict, Iterable, List, NoReturn, Optional, Sequence,
                    Set, Tuple)

from repro.engine.stats import EngineStats
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
#: Spans one connection may have out for decoding: enough to keep the
#: decode process busy while the loop submits a batch, few enough that
#: a full ingest queue still stops reads.
_MAX_SPANS = 4
#: Spans shorter than this decode inline even with a decode process: a
#: round trip costs the loop about as much as decoding ~20 lines and
#: adds a process wake-up to the batch's latency.  A trickling
#: producer's reads (a few lines each) stay inline; a flood's 64 KiB
#: reads go out.
_INLINE_SPAN_BYTES = 4096


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


def _decode_span(data: bytes, lineno: int, max_bytes: int
                 ) -> Tuple[SampleBlock, Optional[str]]:
    """Decode one span of complete lines: the one decode both places run.

    ``data`` is complete lines joined by ``\n`` (no trailing newline)
    and ``lineno`` the number of the line before them.  Returns the
    samples and ``None``, or the valid prefix and the
    :class:`ProtocolError` text of the first line the span cannot
    accept.  :func:`_decode_bulk` takes the common case; a span it
    refuses goes through the per-line reference :func:`_decode_lines`.
    """
    decoded = _decode_bulk(data, max_bytes)
    if decoded is not None:
        return decoded[0], None
    out = SampleBlock()
    try:
        _decode_lines(data.split(b"\n"), lineno, max_bytes, out)
    except ProtocolError as exc:
        return out, str(exc)
    return out, None


class _Span:
    """One read's complete lines, out for decoding.

    ``future`` resolves to :func:`_decode_span`'s ``(block, error)``.
    The bytes stay here until the span is taken, so a span whose decode
    process died can still be decoded inline.
    """

    __slots__ = ("data", "lineno", "future")

    def __init__(self, data: bytes, lineno: int, future: asyncio.Future):
        self.data = data
        self.lineno = lineno
        self.future = future


#: A span request: payload length, then the number of the line before
#: the span (for the error text).  The payload is the span's bytes.
_SPAN_HEAD = struct.Struct("<IQ")
#: A reply: payload length.  The payload is a marshal of the block's
#: five columns and the error text (``None`` when the span was valid).
_REPLY_HEAD = struct.Struct("<I")
#: Seconds :meth:`_DecodeWorker.close` waits for the process to exit at
#: EOF before it kills it.
_REAP_TIMEOUT = 2.0


def _decode_in_worker() -> bool:
    """Whether a listener forks a decode process.

    Only with a second usable CPU to run it on: on one CPU the process
    would take turns with the event loop and only add a hop, so spans
    are decoded inline.
    """
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no sched_getaffinity: not Linux
        return False


def _serve_spans(sock: socket.socket, max_bytes: int) -> None:
    """The decode process's loop: answer span requests in order, until
    the listener closes its end of the socket."""
    read = sock.makefile("rb").read
    while True:
        head = read(_SPAN_HEAD.size)
        if len(head) < _SPAN_HEAD.size:
            return
        size, lineno = _SPAN_HEAD.unpack(head)
        data = read(size)
        if len(data) < size:
            return
        block, error = _decode_span(data, lineno, max_bytes)
        reply = marshal.dumps((block.jobs, block.nodes, block.times,
                               block.values, block.n_nodes, error))
        sock.sendall(_REPLY_HEAD.pack(len(reply)) + reply)


def _decode_process(sock: socket.socket, max_bytes: int) -> NoReturn:
    """The forked child: keep only ``sock``, serve spans, then leave.

    The service's executor threads do not exist here, so the child runs
    only code that takes no lock one of them could have held at the
    fork: no import, logging or asyncio, just the decoders, ``marshal``
    and blocking socket calls.  Every other inherited descriptor
    (listening sockets, the store's mapped files, the delta-log) is
    closed first, so none outlives the listener through this process.
    The collector is pointed away from the inherited heap, so
    collections never touch (and copy) its pages.  Ctrl-C reaches the
    whole process group; the listener, not this process, decides when
    decoding stops, so SIGINT is ignored here.  ``os._exit`` leaves
    without running the parent's exit handlers or flushing its buffers.
    """
    try:
        fd = sock.fileno()
        os.closerange(3, fd)
        os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        gc.freeze()
        _serve_spans(sock, max_bytes)
    finally:
        os._exit(0)


class _DecodeWorker(asyncio.Protocol):
    """The listener's decode process, seen from the event loop.

    :meth:`spawn` forks the process, which inherits every import of the
    service.  The loop writes each span to it as a frame over an
    ``AF_UNIX`` socket pair and reads the replies in
    :meth:`data_received`, with no helper thread.  The process answers
    in order, so each reply resolves the oldest span waiting.  It holds
    no state, so one process serves every connection.

    If the process dies, each span still waiting is decoded inline, and
    so is every later one (``decode_worker_deaths`` counts the event):
    no connection fails and no line is lost.
    """

    def __init__(self, max_line_bytes: int, stats: EngineStats):
        self.max_line_bytes = max_line_bytes
        self.stats = stats
        self.pid: Optional[int] = None
        self._transport: Optional[asyncio.Transport] = None
        self._waiting: Deque[_Span] = deque()
        self._buf = bytearray()
        self._closing = False

    @classmethod
    async def spawn(cls, max_line_bytes: int,
                    stats: EngineStats) -> "_DecodeWorker":
        worker = cls(max_line_bytes, stats)
        ours, theirs = socket.socketpair()
        try:
            pid = os.fork()
        except OSError:
            ours.close()
            theirs.close()
            raise
        if pid == 0:
            _decode_process(theirs, max_line_bytes)
        theirs.close()
        worker.pid = pid
        await asyncio.get_running_loop().create_unix_connection(
            lambda: worker, sock=ours
        )
        return worker

    @property
    def alive(self) -> bool:
        return self._transport is not None

    def decode(self, span: _Span) -> None:
        """Send ``span`` to the live process; ``span.future`` resolves
        with its reply (or with an inline decode, if the process dies
        first)."""
        self._waiting.append(span)
        self._transport.write(
            _SPAN_HEAD.pack(len(span.data), span.lineno) + span.data
        )

    # -- asyncio.Protocol ----------------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        buf = self._buf
        buf += data
        head = _REPLY_HEAD.size
        while len(buf) >= head:
            (size,) = _REPLY_HEAD.unpack_from(buf)
            end = head + size
            if len(buf) < end:
                return
            with memoryview(buf) as view:
                reply = marshal.loads(view[head:end])
            del buf[:end]
            future = self._waiting.popleft().future
            if not future.done():  # a taken-over or abandoned span
                future.set_result((SampleBlock(*reply[:5]), reply[5]))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._transport = None
        if not self._closing:
            self.stats.add(decode_worker_deaths=1)
        while self._waiting:
            span = self._waiting.popleft()
            if not span.future.done():
                span.future.set_result(
                    _decode_span(span.data, span.lineno, self.max_line_bytes)
                )

    async def close(self) -> None:
        """Close the socket (the process exits at EOF) and reap it."""
        self._closing = True
        if self._transport is not None:
            self._transport.abort()
        pid, self.pid = self.pid, None
        give_up = time.monotonic() + _REAP_TIMEOUT
        while True:
            try:
                if os.waitpid(pid, os.WNOHANG)[0]:
                    return
            except ChildProcessError:  # already reaped
                return
            if time.monotonic() > give_up:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            await asyncio.sleep(0.001)


class LineDecoder:
    """One connection's line framing, and its spans out for decoding.

    :meth:`feed` takes the bytes of one socket read.  Its complete lines
    become one span, which goes to the listener's decode process (or is
    decoded inline: without one, or when it is short), while the
    unterminated tail waits for the next read.  :meth:`finish` makes
    that tail a span at EOF.  :meth:`take` appends the samples of the
    decoded spans to a block in stream order, and raises
    :class:`ProtocolError` at the first line that a span refused.  The partial-line buffer, the line count and
    the oversized-tail check all stay here, so the samples, the error
    text and its line number never depend on where the reads split the
    stream or on where a span is decoded.  :attr:`lineno` counts the
    lines framed so far; :attr:`reading` turns false at EOF or at an
    oversized tail.
    """

    def __init__(self, max_line_bytes: int,
                 worker: Optional[_DecodeWorker] = None):
        self.max_line_bytes = max_line_bytes
        self.lineno = 0
        self.reading = True
        self._worker = worker
        self._buf = bytearray()
        self._spans: Deque[_Span] = deque()

    @property
    def in_flight(self) -> int:
        """Spans framed and not yet taken."""
        return len(self._spans)

    def feed(self, chunk: bytes) -> None:
        buf = self._buf
        buf += chunk
        cut = buf.rfind(b"\n")
        if cut >= 0:
            self._send(bytes(buf[:cut]))
            del buf[:cut + 1]
        if len(buf) > self.max_line_bytes:
            # After the complete lines' span: their samples still ride
            # along in the error's prefix, or acceptance would depend
            # on where the reads split the stream.
            self._refuse(f"sample line {self.lineno + 1}: exceeds "
                         f"max_line_bytes={self.max_line_bytes}")

    def finish(self) -> None:
        """End of stream: a trailing unterminated line is still a line."""
        self.reading = False
        if self._buf:
            data = bytes(self._buf)
            self._buf.clear()
            self._send(data)

    def _send(self, data: bytes) -> None:
        span = _Span(data, self.lineno,
                     asyncio.get_running_loop().create_future())
        self.lineno += data.count(b"\n") + 1
        self._spans.append(span)
        worker = self._worker
        if (worker is None or not worker.alive
                or len(data) < _INLINE_SPAN_BYTES):
            span.future.set_result(
                _decode_span(data, span.lineno, self.max_line_bytes)
            )
        else:
            worker.decode(span)

    def _refuse(self, reason: str) -> None:
        """Queue ``reason`` behind the spans framed so far and stop."""
        self.reading = False
        span = _Span(b"", self.lineno,
                     asyncio.get_running_loop().create_future())
        span.future.set_result((SampleBlock(), reason))
        self._spans.append(span)

    async def wait(self) -> None:
        """Until the oldest span out is decoded."""
        await self._spans[0].future

    def take(self, out: SampleBlock) -> None:
        """Append the samples of every decoded span at the head to
        ``out``."""
        spans = self._spans
        while spans and spans[0].future.done():
            self._absorb(*spans.popleft().future.result(), out)

    def take_now(self, out: SampleBlock) -> None:
        """Append the samples of every span out to ``out`` without
        waiting: a span still out is decoded inline (graceful drain)."""
        spans = self._spans
        while spans:
            span = spans.popleft()
            future = span.future
            if future.done() and not future.cancelled():
                result = future.result()
            else:
                future.cancel()
                result = _decode_span(span.data, span.lineno,
                                      self.max_line_bytes)
            self._absorb(*result, out)

    def _absorb(self, block: SampleBlock, error: Optional[str],
                out: SampleBlock) -> None:
        out.extend(block)
        if error is not None:
            self.abandon()
            raise ProtocolError(error, out)

    def abandon(self) -> None:
        """Drop every span out: their replies are discarded."""
        for span in self._spans:
            span.future.cancel()
        self._spans.clear()


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
        self._worker: Optional[_DecodeWorker] = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "NetListener":
        """Fork the decode process (on a host with a second CPU), bind
        every configured endpoint and begin accepting producers."""
        if self._servers:
            raise RuntimeError("listener already started")
        limit = self.config.max_line_bytes
        if _decode_in_worker():
            try:
                self._worker = await _DecodeWorker.spawn(limit,
                                                         self.service.stats)
            except OSError:
                self._worker = None  # no process to spare: decode inline
        try:
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
        except BaseException:
            # An endpoint would not bind: leave no server or process.
            for server in self._servers:
                server.close()
            self._servers = []
            await self._stop_worker()
            raise
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

    @property
    def decode_pid(self) -> Optional[int]:
        """Process id of the live decode process; ``None`` while spans
        are decoded inline (one CPU, or the process died)."""
        worker = self._worker
        return worker.pid if worker is not None and worker.alive else None

    async def close(self, abort: bool = True) -> None:
        """Stop accepting, shut down producer connections, then stop and
        reap the decode process.

        With ``abort`` (default) open connections are cancelled: each
        handler submits the samples of every complete line it already
        read, then closes its socket — the graceful-drain path
        (SIGTERM).  With ``abort=False`` the call waits for every
        producer to finish on its own (EOF or error), which never
        returns under a producer that streams forever.
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
        await self._stop_worker()
        if self.uds_path is not None and os.path.exists(self.uds_path):
            try:
                os.unlink(self.uds_path)
            except OSError:
                pass

    async def _stop_worker(self) -> None:
        if self._worker is not None:
            worker, self._worker = self._worker, None
            await worker.close()

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
        decoder = LineDecoder(self.config.max_line_bytes, self._worker)
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
            decoder.abandon()
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

        Each socket read pulls up to 64 KiB, and ``decoder`` frames its
        complete lines into one span and sends it out for decoding at
        once, so decoding overlaps the reads.  At most ``_MAX_SPANS``
        spans are out per connection: at that depth the batch waits for
        the oldest instead of reading, so a connection whose batches
        wait on a full ingest queue stops reading.  Decoded spans join
        the batch in stream order.

        The batch ends once it holds at least ``net_batch_samples``
        decoded samples (one span may overshoot; spans still out carry
        over to the next batch), or when its ``net_batch_delay`` window
        closes.  The window opens at the batch's first read, or at its
        start when spans carried over, and is never extended: a
        trickling producer's samples wait at most that long for an
        unfilled batch, plus the time to decode the spans read in it,
        which all join the batch.  Returns ``(block, eof)``; raises
        :class:`ProtocolError` (with the valid prefix attached) on a
        line it cannot accept.
        """
        cfg = self.config
        loop = asyncio.get_running_loop()
        block = SampleBlock()
        deadline: Optional[float] = None
        if decoder.in_flight:
            deadline = loop.time() + cfg.net_batch_delay
        try:
            while True:
                decoder.take(block)
                if len(block) >= cfg.net_batch_samples:
                    return block, False
                if not decoder.reading or decoder.in_flight >= _MAX_SPANS:
                    if not decoder.in_flight:
                        return block, True
                    await decoder.wait()
                    continue
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
                if chunk:
                    decoder.feed(chunk)
                else:
                    decoder.finish()
            # The window closed: every span read in it joins this batch.
            while decoder.in_flight:
                await decoder.wait()
                decoder.take(block)
            return block, False
        except asyncio.CancelledError:
            # Graceful drain (close(abort=True)): treat the cancel as
            # EOF, so the samples of every complete line read so far are
            # still submitted (spans still out are decoded inline) and
            # the producer still gets a summary.  The buffered tail is
            # NOT decoded — a cut stream ends in an incomplete line, not
            # a sample.
            decoder.take_now(block)
            return block, True

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
