"""Delta-log shipping: leader/replica replication for columnar EFDs.

The ROADMAP north-star is serving verdicts to millions of concurrent
sessions — a fleet of read replicas behind cheap L4 load balancing, not
one writer process.  PR 5's generation-tagged ``delta-log.jsonl``
segments plus the atomic manifest replace are already a crash-safe
replication unit; this module puts them on the wire:

- :class:`ReplicationPublisher` — the leader endpoint.  Each follower
  connection gets its own asyncio task that *tails the on-disk state*:
  it re-reads the manifest generation every poll, streams newly
  appended delta-log records as ``records`` frames, and ships a full
  base snapshot (manifest + every referenced column/filter file,
  verbatim bytes) whenever the follower's generation no longer matches
  — i.e. after every compaction.  Backpressure rides TCP flow control
  exactly like :class:`~repro.serve.net.NetListener`: the handler
  awaits ``writer.drain()`` after every frame, so a slow follower
  stalls its own stream and nobody else's.
- :class:`ReplicationFollower` — dials the leader, reports its on-disk
  position ``(generation, applied records)``, and applies what arrives:
  record frames are replayed through the attached
  :class:`~repro.engine.columnar.ColumnarDictionary` (which appends
  them to the replica's *own* delta-log — making every replica a valid
  replication source in turn), snapshots are written to disk unreferenced
  and committed by one atomic manifest replace, then the store is
  reloaded in place.  Either way the replica's directory is always an
  exact old-or-new generation, never mixed state.
- :func:`elect_and_promote` — failover: query every candidate's
  ``status``, promote the one with the highest ``(generation,
  records)`` position (it folds its pending log, advancing the
  generation — a fence no stale leader can cross), and point the rest
  at the winner with ``follow`` control frames.

Wire protocol (spec in ``docs/serving.md``): every frame is a u32
big-endian length prefix followed by the payload.  Control and stream
frames are JSON objects; the only binary frames are the snapshot file
bodies, which arrive between a ``snapshot`` header (naming the files in
order) and the ``snapshot-commit`` trailer.

Frames from follower to leader (one per connection, then the leader
talks)::

    {"op": "subscribe", "generation": G, "applied": N}   # start stream
    {"op": "status"}                                     # position query
    {"op": "promote"}                                    # failover control
    {"op": "follow", "target": "HOST:PORT"}              # re-point replica

Frames from leader to follower::

    {"op": "snapshot", "generation": G, "manifest": {...},
     "files": ["shard-00.g3.mmap", ...]}                 # then N binary
                                                         # frames, then:
    {"op": "snapshot-commit", "generation": G}
    {"op": "records", "generation": G, "start": S,
     "total": T, "records": [...]}                       # delta-log slice
    {"op": "sync", "generation": G, "total": T}          # idle heartbeat

Duplicate delivery is idempotent (records carry absolute segment
indexes; a replica skips what it already applied), reconnection resumes
from the follower's on-disk position, and a torn frame or a leader
killed mid-snapshot leaves the replica serving its previous generation
intact — the fault-injection sweep in ``tests/test_replicate.py`` holds
the line on all of it.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import struct
import threading
from typing import Awaitable, Callable, Dict, List, Optional, Set, Tuple

from repro._util import framing
from repro._util.backoff import BackoffPolicy
from repro._util.framing import MAX_FRAME_BYTES, FramingError, encode_frame
from repro.core.serialization import fingerprint_from_record
from repro.engine.columnar import (
    _MANIFEST_NAME,
    _manifest_files,
    _read_manifest,
    _remove_superseded_files,
)
from repro.engine.deltalog import DeltaLog, pending_records, segment_path
from repro.engine.stats import EngineStats

__all__ = [
    "MAX_FRAME_BYTES",
    "ReplicationError",
    "ReplicationFollower",
    "ReplicationPublisher",
    "elect_and_promote",
    "local_position",
    "parse_replica_endpoint",
    "replication_request",
]

#: u32 big-endian frame length prefix, kept for byte-count accounting
#: (the codec itself lives in :mod:`repro._util.framing`).
_LEN = struct.Struct(">I")

#: Pending threshold forced onto replica stores: a replica must never
#: self-compact (that would advance its generation past the leader's),
#: so its overlay threshold is effectively infinite.
_REPLICA_MAX_PENDING = 1 << 62


class ReplicationError(FramingError):
    """A replication peer sent something the protocol cannot accept
    (torn frame, oversized frame, mis-sequenced records, bad commit).
    Both ends treat it as a connection loss: drop the link and let the
    follower's reconnect-from-disk-position logic recover."""


# ---------------------------------------------------------------------------
# Frame codec — thin wrappers over repro._util.framing that raise the
# protocol-specific ReplicationError so existing except clauses hold.
# ---------------------------------------------------------------------------

async def _read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One frame off the wire; ``None`` on clean EOF between frames."""
    return await framing.read_frame(reader, error=ReplicationError)


def _parse_json(payload: bytes, *, require_op: bool = True) -> dict:
    """Decode a JSON control frame (op object unless ``require_op=False``)."""
    return framing.parse_json(
        payload, require_op=require_op, error=ReplicationError
    )


async def _send_json(writer: asyncio.StreamWriter, obj: dict) -> int:
    """Write one JSON frame and drain (backpressure); returns wire bytes."""
    return await framing.send_json(writer, obj)


# ---------------------------------------------------------------------------
# Positions and endpoints
# ---------------------------------------------------------------------------

def local_position(directory: str) -> Tuple[int, int]:
    """A columnar directory's replication position on disk.

    ``(delta generation, records applied at that generation)`` — the
    pair a follower reports at subscribe time and ``status`` reports to
    an elector.  ``(-1, 0)`` for a directory with no manifest yet (a
    bootstrapping replica, which any generation mismatch resolves via a
    full snapshot).  An unreadable segment raises
    :class:`~repro.engine.deltalog.SegmentReadError` — a replica must
    not silently report a shorter position than it durably holds.
    """
    try:
        manifest = _read_manifest(directory)
    except FileNotFoundError:
        return -1, 0
    generation = int(manifest.get("delta_generation", 0))
    return generation, pending_records(directory, generation)


def parse_replica_endpoint(value: str) -> Dict[str, object]:
    """``HOST:PORT`` / ``:PORT`` / ``unix:PATH`` -> connect kwargs."""
    if value.startswith("unix:"):
        path = value[len("unix:"):]
        if not path:
            raise ValueError(f"invalid replication endpoint {value!r}")
        return {"uds": path}
    host, sep, port = value.rpartition(":")
    if not sep:
        host = ""
    try:
        return {"host": host or "127.0.0.1", "port": int(port)}
    except ValueError:
        raise ValueError(f"invalid replication endpoint {value!r}")


# ---------------------------------------------------------------------------
# Leader side
# ---------------------------------------------------------------------------

class _SegmentCursor:
    """Incremental reader over a live ``delta-log.jsonl`` (leader side).

    Tracks a byte offset into the segment so each poll parses only what
    was appended since the last one, carrying an unterminated final
    line until its newline arrives (appends are line-atomic but reads
    are not).  Detects the segment being replaced under it (compaction:
    inode change) and a header naming a different generation; both mean
    the caller must re-read the manifest — signalled by ``poll()``
    returning ``None``.
    """

    def __init__(self, directory: str, generation: int):
        self.path = segment_path(directory)
        self.generation = int(generation)
        self.count = 0            # mutation records parsed so far
        self._offset = 0
        self._buffer = b""
        self._ident: Optional[Tuple[int, int]] = None

    def poll(self) -> Optional[List[dict]]:
        """Mutation records appended since the last poll (maybe empty);
        ``None`` when the segment no longer belongs to this generation."""
        try:
            st = os.stat(self.path)
        except OSError:
            # No segment: nothing pending (or compaction mid-swap; the
            # manifest re-read next loop sorts it out).
            return []
        ident = (st.st_ino, st.st_dev)
        if self._ident is not None and ident != self._ident:
            return None  # replaced under us — re-resolve the generation
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
        self._ident = ident
        self._offset += len(chunk)
        data = self._buffer + chunk
        lines = data.split(b"\n")
        self._buffer = lines.pop()  # unterminated tail: not yet committed
        fresh: List[dict] = []
        for line in lines:
            if not line.strip():
                continue
            record = json.loads(line)  # leader's own log: corrupt -> raise
            if record.get("op") == "open":
                if int(record.get("generation", 0)) != self.generation:
                    return None
                continue
            fresh.append(record)
        self.count += len(fresh)
        return fresh


class ReplicationPublisher:
    """Leader endpoint: stream delta-log records and base swaps.

    Publishes the state of one *columnar* directory; the process that
    owns it keeps writing through its normal
    :class:`~repro.engine.columnar.ColumnarDictionary` (appends land in
    the segment, compactions swap the manifest) and the publisher picks
    everything up from disk — no in-process coupling, so a replica that
    also publishes (for promotion) reuses this class unchanged.

    Parameters
    ----------
    directory:
        Columnar EFD directory to publish.
    host, port, uds:
        Endpoints, NetListener-style: ``port=0`` binds ephemeral (read
        :attr:`tcp_address` after :meth:`start`); TCP and UDS may both
        be served.
    stats:
        :class:`~repro.engine.stats.EngineStats` receiving the
        ``repl_*_shipped`` counters and the follower gauge.
    poll_interval, heartbeat:
        Seconds between idle segment polls, and between ``sync``
        heartbeat frames to an idle follower.
    role:
        ``"leader"`` or ``"replica"`` — reported in ``status`` replies
        (a publishing replica flips to ``"leader"`` on promotion).
    on_promote, on_follow:
        Async callbacks backing the ``promote`` / ``follow`` control
        ops; ``None`` (a plain leader) answers them with an error.
    """

    def __init__(
        self,
        directory: str,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        uds: Optional[str] = None,
        stats: Optional[EngineStats] = None,
        poll_interval: float = 0.02,
        heartbeat: float = 0.5,
        role: str = "leader",
        on_promote: Optional[Callable[[], Awaitable[dict]]] = None,
        on_follow: Optional[Callable[[dict], Awaitable[dict]]] = None,
    ):
        if port is None and uds is None:
            raise ValueError(
                "ReplicationPublisher needs a TCP port and/or a UDS path"
            )
        manifest = _read_manifest(directory)
        if manifest.get("layout") != "columnar":
            raise ValueError(
                f"replication requires a columnar directory, got "
                f"layout={manifest.get('layout')!r} at {directory!r}"
            )
        self.directory = directory
        self.host = host
        self.port = port
        self.uds_path = uds
        self.stats = stats if stats is not None else EngineStats()
        self.poll_interval = poll_interval
        self.heartbeat = heartbeat
        self.role = role
        self.on_promote = on_promote
        self.on_follow = on_follow
        self.tcp_address: Optional[Tuple[str, int]] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._closing = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "ReplicationPublisher":
        """Bind every configured endpoint and begin accepting followers."""
        if self._servers:
            raise RuntimeError("publisher already started")
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle, host=self.host, port=self.port
            )
            self.tcp_address = server.sockets[0].getsockname()[:2]
            self._servers.append(server)
        if self.uds_path is not None:
            server = await asyncio.start_unix_server(
                self._handle, path=self.uds_path
            )
            self._servers.append(server)
        return self

    async def __aenter__(self) -> "ReplicationPublisher":
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
    def n_followers(self) -> int:
        """Follower connections currently streaming."""
        return len(self._conn_tasks)

    async def close(self) -> None:
        """Stop accepting and cut every follower stream."""
        self._closing = True
        for server in self._servers:
            server.close()
        tasks = list(self._conn_tasks)
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
        follower = False
        try:
            if self._closing:
                return
            payload = await _read_frame(reader)
            if payload is None:
                return
            msg = _parse_json(payload)
            op = msg.get("op")
            if op == "subscribe":
                follower = True
                self.stats.add(repl_followers=1)
                await self._stream(
                    writer,
                    int(msg.get("generation", -1)),
                    int(msg.get("applied", 0)),
                )
            elif op == "status":
                await _send_json(writer, self.status())
            elif op == "promote":
                if self.on_promote is None:
                    reply = {"error": f"{self.role} cannot be promoted"}
                else:
                    reply = await self.on_promote()
                await _send_json(writer, reply)
            elif op == "follow":
                if self.on_follow is None:
                    reply = {"error": f"{self.role} cannot re-follow"}
                else:
                    reply = await self.on_follow(msg)
                await _send_json(writer, reply)
            else:
                await _send_json(writer, {"error": f"unknown op {op!r}"})
        except asyncio.CancelledError:
            pass  # close(): just stop; the socket closes below
        except (ReplicationError, ConnectionError, OSError):
            pass  # follower vanished / compaction race — it will redial
        finally:
            self._conn_tasks.discard(task)
            if follower:
                self.stats.add(repl_followers=-1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def status(self) -> dict:
        """The ``status`` control reply: role + on-disk position."""
        generation, applied = local_position(self.directory)
        return {
            "op": "status",
            "role": self.role,
            "generation": generation,
            "records": applied,
            "directory": os.path.abspath(self.directory),
        }

    async def _stream(
        self,
        writer: asyncio.StreamWriter,
        follower_gen: int,
        applied: int,
    ) -> None:
        """One follower's tail loop: snapshots on generation mismatch,
        record slices as the segment grows, heartbeats when idle."""
        loop = asyncio.get_running_loop()
        cursor: Optional[_SegmentCursor] = None
        last_sent = loop.time()
        need_sync = True  # tell the follower where the leader is, now
        while not self._closing:
            manifest = _read_manifest(self.directory)
            generation = int(manifest.get("delta_generation", 0))
            if follower_gen != generation:
                await self._send_snapshot(writer, manifest, generation)
                follower_gen = generation
                applied = 0
                cursor = None
                last_sent = loop.time()
                need_sync = True
                continue
            if cursor is None:
                cursor = _SegmentCursor(self.directory, generation)
            fresh = cursor.poll()
            if fresh is None:
                cursor = None  # segment swapped: re-resolve the generation
                continue
            if fresh:
                start = cursor.count - len(fresh)
                if start < applied:
                    # The follower already holds a prefix (catch-up after
                    # reconnect): ship only what it is missing.
                    fresh = fresh[applied - start:]
                    start = applied
            if fresh:
                n_bytes = await _send_json(writer, {
                    "op": "records",
                    "generation": generation,
                    "start": start,
                    "total": cursor.count,
                    "records": fresh,
                })
                applied = start + len(fresh)
                self.stats.add(repl_segments_shipped=1,
                               repl_records_shipped=len(fresh),
                               repl_bytes_shipped=n_bytes)
                last_sent = loop.time()
                need_sync = False
                continue  # the segment may still be growing: poll again
            now = loop.time()
            if need_sync or now - last_sent >= self.heartbeat:
                await _send_json(writer, {
                    "op": "sync",
                    "generation": generation,
                    "total": cursor.count,
                })
                last_sent = now
                need_sync = False
            await asyncio.sleep(self.poll_interval)

    async def _send_snapshot(
        self, writer: asyncio.StreamWriter, manifest: dict, generation: int
    ) -> None:
        """Ship the whole base: manifest + every referenced file, verbatim.

        The files are immutable once a manifest references them, but a
        concurrent compaction may *remove* them after the next swap —
        the resulting :class:`OSError` intentionally kills this
        connection, and the follower's reconnect gets a fresh, current
        snapshot instead of a torn one.
        """
        loop = asyncio.get_running_loop()
        names = _manifest_files(manifest)
        total = await _send_json(writer, {
            "op": "snapshot",
            "generation": generation,
            "manifest": manifest,
            "files": names,
        })
        for name in names:
            path = os.path.join(self.directory, name)
            with open(path, "rb") as fh:
                data = await loop.run_in_executor(None, fh.read)
            frame = encode_frame(data)
            writer.write(frame)
            await writer.drain()
            total += len(frame)
        total += await _send_json(writer, {
            "op": "snapshot-commit", "generation": generation,
        })
        self.stats.add(repl_snapshots_shipped=1, repl_bytes_shipped=total)


# ---------------------------------------------------------------------------
# Follower side
# ---------------------------------------------------------------------------

class ReplicationFollower:
    """Replica: dial a leader, apply its stream to a local directory.

    The reconnect loop derives its subscribe position from *disk*
    (:func:`local_position`), so duplicate delivery after any crash or
    cut is skipped by absolute record index and the protocol is
    idempotent end to end.  Record frames apply through the attached
    store (:meth:`attach`) under the owning service's engine lock —
    which appends them to the replica's own delta-log, keeping the
    directory a valid replication source for chained followers and
    promotion.  Snapshot frames are written to disk *unreferenced*
    (generation-suffixed names) and committed by one atomic manifest
    replace; only then is the store reloaded in place, so readers flip
    from exact-old to exact-new state in one step.
    """

    def __init__(
        self,
        directory: str,
        host: Optional[str] = None,
        port: Optional[int] = None,
        uds: Optional[str] = None,
        stats: Optional[EngineStats] = None,
        reconnect_delay: float = 0.2,
        reconnect_cap: Optional[float] = None,
        reconnect_rng: Optional[random.Random] = None,
    ):
        if (port is None) == (uds is None):
            raise ValueError(
                "ReplicationFollower needs exactly one of port / uds"
            )
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._upstream: Dict[str, object] = (
            {"uds": uds} if uds is not None
            else {"host": host or "127.0.0.1", "port": port}
        )
        self.stats = stats if stats is not None else EngineStats()
        # ``reconnect_delay`` is the backoff *base*: redial delays grow
        # exponentially from it (full jitter, capped) so a replica fleet
        # doesn't hammer a restarting leader in lockstep, and reset to it
        # after any successful subscribe.
        self.reconnect_delay = reconnect_delay
        self._backoff = BackoffPolicy(
            base=reconnect_delay,
            cap=reconnect_cap if reconnect_cap is not None
            else max(reconnect_delay * 32.0, reconnect_delay),
            rng=reconnect_rng,
        )
        self._redial_attempt = 0
        self.store = None  # attached ColumnarDictionary, if any
        self.on_swap: Optional[Callable[[int], None]] = None
        self.generation = -1
        self.applied = 0
        self.leader_position: Optional[Tuple[int, int]] = None
        self._lock = threading.Lock()
        self._raw_log: Optional[DeltaLog] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._task: Optional["asyncio.Task[None]"] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "ReplicationFollower":
        """Begin (re)connecting and applying in a background task."""
        if self._task is not None and not self._task.done():
            raise RuntimeError("follower already started")
        self._loop = asyncio.get_running_loop()
        self._closed = False
        self.generation, self.applied = local_position(self.directory)
        self._task = self._loop.create_task(self._run())
        return self

    async def __aenter__(self) -> "ReplicationFollower":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def close(self) -> None:
        """Stop following; the directory stays serveable as-is."""
        self._closed = True
        if self._writer is not None:
            self._writer.close()
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
            self._task = None
        if self._raw_log is not None:
            self._raw_log.close()
            self._raw_log = None

    def attach(self, store, lock: Optional[threading.Lock] = None) -> None:
        """Serve reads from ``store``, an open
        :class:`~repro.engine.columnar.ColumnarDictionary` on this
        follower's directory.

        Incoming records apply *through* the store (overlay stays hot,
        the replica's own delta-log mirrors the leader's byte for byte)
        and base swaps reload it in place.  ``lock`` is the owning
        service's engine lock so applies serialize with recognition.
        The store's auto-compaction threshold is disabled — a replica
        must never advance its generation on its own.
        """
        if self._raw_log is not None:
            self._raw_log.close()
            self._raw_log = None
        store._delta.max_pending = _REPLICA_MAX_PENDING
        self.store = store
        if lock is not None:
            self._lock = lock
        # Records may have landed in the raw log between the store being
        # opened and this attach; fold them in by re-reading disk.
        if store.delta_pending != self.applied:
            store._reload(store.version + 1)
            store._delta.max_pending = _REPLICA_MAX_PENDING

    # -- position helpers ----------------------------------------------------
    @property
    def lag(self) -> Tuple[int, int]:
        """``(generations, records)`` behind the leader's last report."""
        if self.leader_position is None:
            return 0, 0
        lead_gen, lead_total = self.leader_position
        lag_gen = max(0, lead_gen - self.generation)
        if lag_gen:
            return lag_gen, lead_total
        return 0, max(0, lead_total - self.applied)

    @property
    def synced(self) -> bool:
        """True when the replica matches the leader's last reported
        position exactly (same generation, all records applied)."""
        return self.leader_position is not None and self.lag == (0, 0)

    async def wait_ready(self, timeout: float = 30.0) -> bool:
        """Await the replica holding the leader's *generation* (its base
        is current; records may still be streaming)."""
        return await self._wait(
            lambda: self.leader_position is not None
            and self.generation == self.leader_position[0],
            timeout,
        )

    async def wait_synced(self, timeout: float = 30.0) -> bool:
        """Await full convergence with the leader's last report."""
        return await self._wait(lambda: self.synced, timeout)

    async def wait_position(
        self, generation: int, applied: int, timeout: float = 30.0
    ) -> bool:
        """Await the replica reaching at least ``(generation, applied)``."""
        return await self._wait(
            lambda: (self.generation, self.applied) >= (generation, applied),
            timeout,
        )

    async def _wait(self, done: Callable[[], bool], timeout: float) -> bool:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not done():
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    # -- failover ------------------------------------------------------------
    async def promote(self) -> dict:
        """Become the leader: stop following and fold the pending log.

        The fold advances the generation — a fence: any replica that
        re-follows this node sees a generation mismatch and swaps to
        the promoted base, and a stale leader's frames can never apply
        here again.  (With nothing pending the generation stays put,
        which is equally safe: the replicas are already converged.)
        Returns the post-promotion status position.
        """
        await self.close()
        folded = 0
        store = self.store
        if store is not None and store.delta_pending:
            loop = asyncio.get_running_loop()

            def _fold() -> int:
                with self._lock:
                    return store.compact_delta()

            folded = await loop.run_in_executor(None, _fold)
        generation, applied = local_position(self.directory)
        self.generation, self.applied = generation, applied
        return {
            "op": "status",
            "role": "leader",
            "generation": generation,
            "records": applied,
            "folded": folded,
        }

    async def refollow(
        self, host: Optional[str] = None, port: Optional[int] = None,
        uds: Optional[str] = None,
    ) -> None:
        """Point this follower at a new upstream (post-election)."""
        if (port is None) == (uds is None):
            raise ValueError("refollow needs exactly one of port / uds")
        self._upstream = (
            {"uds": uds} if uds is not None
            else {"host": host or "127.0.0.1", "port": port}
        )
        self.leader_position = None
        if self._closed or self._task is None or self._task.done():
            await self.start()
        elif self._writer is not None:
            self._writer.close()  # kick the loop into redialing

    # -- the follow loop -----------------------------------------------------
    async def _run(self) -> None:
        while not self._closed:
            try:
                await self._follow_once()
            except asyncio.CancelledError:
                return
            except (ReplicationError, ConnectionError, OSError):
                pass  # leader gone or stream torn: redial from disk state
            if self._closed:
                return
            await asyncio.sleep(self._next_redial_delay())

    def _next_redial_delay(self) -> float:
        """One full-jitter redial delay; the envelope doubles per
        consecutive failed dial (capped) and :meth:`_follow_once` resets
        it on a successful subscribe."""
        delay = self._backoff.delay(self._redial_attempt)
        self._redial_attempt += 1
        return delay

    async def _follow_once(self) -> None:
        if "uds" in self._upstream:
            reader, writer = await asyncio.open_unix_connection(
                self._upstream["uds"]
            )
        else:
            reader, writer = await asyncio.open_connection(
                self._upstream["host"], self._upstream["port"]
            )
        self._writer = writer
        try:
            self.generation, self.applied = local_position(self.directory)
            await _send_json(writer, {
                "op": "subscribe",
                "generation": self.generation,
                "applied": self.applied,
            })
            self._redial_attempt = 0  # dialed and subscribed: reset backoff
            while not self._closed:
                payload = await _read_frame(reader)
                if payload is None:
                    return
                msg = _parse_json(payload)
                op = msg.get("op")
                if op == "records":
                    await self._apply_records(msg, len(payload))
                elif op == "snapshot":
                    await self._receive_snapshot(reader, msg)
                elif op == "sync":
                    self.leader_position = (
                        int(msg.get("generation", -1)),
                        int(msg.get("total", 0)),
                    )
                    self._record_lag()
                # anything else (e.g. a duplicated commit frame relayed
                # by a flaky link) is ignorable: state is disk-anchored
        finally:
            self._writer = None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _record_lag(self) -> None:
        lag_gen, lag_records = self.lag
        self.stats.record_replica_lag(lag_gen, lag_records)

    # -- applying records ----------------------------------------------------
    async def _apply_records(self, msg: dict, n_bytes: int) -> None:
        generation = int(msg.get("generation", -1))
        if generation != self.generation:
            # A frame from before a swap (duplicate delivery straddling
            # a snapshot): disk-anchored state makes it safely droppable.
            return
        records = msg.get("records", [])
        start = int(msg.get("start", 0))

        def _apply() -> int:
            with self._lock:
                return self._apply_slice(records, start)

        applied = await self._loop.run_in_executor(None, _apply)
        if applied:
            self.stats.add(repl_segments_applied=1,
                           repl_records_applied=applied,
                           repl_bytes_applied=n_bytes)
        self.leader_position = (
            generation, int(msg.get("total", start + len(records)))
        )
        self._record_lag()

    def _apply_slice(self, records: List[dict], start: int) -> int:
        """Apply one records frame under the engine lock; returns how
        many were new (duplicates skip by absolute index)."""
        n_new = 0
        for index, record in enumerate(records, start=start):
            if index < self.applied:
                continue  # duplicate delivery: already durable here
            if index > self.applied:
                raise ReplicationError(
                    f"record gap: expected index {self.applied}, got {index}"
                )
            op = record.get("op")
            if op == "label":
                label = str(record["label"])
                if self.store is not None:
                    self.store.register_label(label)
                else:
                    self._log().append_label(label)
            elif op == "add":
                fp = fingerprint_from_record(record)
                label = str(record["label"])
                count = int(record.get("count", 1))
                if self.store is not None:
                    self.store.add_repeated(fp, label, count)
                else:
                    self._log().append_add(fp, label, count)
            else:
                raise ReplicationError(f"unknown record op {op!r}")
            self.applied += 1
            n_new += 1
        return n_new

    def _log(self) -> DeltaLog:
        """Unattached bootstrap path: append straight to the delta-log
        (the store opened later replays it)."""
        if self._raw_log is None:
            self._raw_log = DeltaLog(
                self.directory, generation=self.generation,
                max_pending=_REPLICA_MAX_PENDING,
            )
        return self._raw_log

    # -- applying snapshots --------------------------------------------------
    async def _receive_snapshot(
        self, reader: asyncio.StreamReader, msg: dict
    ) -> None:
        """Receive a full base and swap to it atomically.

        File bodies stream straight to their final (generation-suffixed)
        names — *unreferenced* until the manifest replace, so a leader
        killed mid-snapshot leaves harmless orphans and the previous
        generation fully intact.  The swap happens only after the
        ``snapshot-commit`` trailer confirms the leader finished.
        """
        generation = int(msg.get("generation", -1))
        manifest = msg.get("manifest")
        names = list(msg.get("files", []))
        if not isinstance(manifest, dict):
            raise ReplicationError("snapshot frame carries no manifest")
        loop = asyncio.get_running_loop()
        total = 0
        for name in names:
            payload = await _read_frame(reader)
            if payload is None:
                raise ReplicationError("leader closed mid-snapshot")
            path = os.path.join(self.directory, os.path.basename(name))

            def _write(p=path, data=payload) -> None:
                with open(p, "wb") as fh:
                    fh.write(data)

            await loop.run_in_executor(None, _write)
            total += len(payload) + _LEN.size
        payload = await _read_frame(reader)
        if payload is None:
            raise ReplicationError("leader closed before snapshot commit")
        commit = _parse_json(payload)
        if commit.get("op") != "snapshot-commit" or \
                int(commit.get("generation", -2)) != generation:
            raise ReplicationError("snapshot commit missing or mismatched")

        def _install() -> None:
            with self._lock:
                self._install_snapshot(manifest, generation)

        await loop.run_in_executor(None, _install)
        self.stats.add(repl_snapshots_applied=1,
                       repl_bytes_applied=total + len(payload) + _LEN.size)
        self.leader_position = (generation, 0)
        self._record_lag()
        if self.on_swap is not None:
            self.on_swap(generation)

    def _install_snapshot(self, manifest: dict, generation: int) -> None:
        """Commit a received base: one atomic manifest replace, then
        cleanup + in-place store reload (under the engine lock)."""
        old_manifest = None
        try:
            old_manifest = _read_manifest(self.directory)
        except (FileNotFoundError, ValueError):
            pass  # bootstrapping (or a half-written dir): nothing to keep
        # The local segment (if any) belongs to the pre-swap generation;
        # close our writer so the stale-generation replay can remove it.
        if self._raw_log is not None:
            self._raw_log.close()
            self._raw_log = None
        if self.store is not None:
            self.store._delta.close()
        tmp = os.path.join(
            self.directory, f"{_MANIFEST_NAME}.repl-{os.getpid()}"
        )
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
        os.replace(tmp, os.path.join(self.directory, _MANIFEST_NAME))
        if old_manifest is not None:
            _remove_superseded_files(self.directory, old_manifest, manifest)
        if self.store is not None:
            self.store._reload(self.store.version + 1)
            self.store._delta.max_pending = _REPLICA_MAX_PENDING
        self.generation = generation
        self.applied = 0


# ---------------------------------------------------------------------------
# Control client + election
# ---------------------------------------------------------------------------

async def replication_request(
    msg: dict,
    host: Optional[str] = None,
    port: Optional[int] = None,
    uds: Optional[str] = None,
    timeout: float = 10.0,
) -> dict:
    """One control round-trip: connect, send ``msg``, return the reply."""

    async def _roundtrip() -> dict:
        if uds is not None:
            reader, writer = await asyncio.open_unix_connection(uds)
        else:
            reader, writer = await asyncio.open_connection(
                host or "127.0.0.1", port
            )
        try:
            await _send_json(writer, msg)
            payload = await _read_frame(reader)
            if payload is None:
                raise ReplicationError("peer closed without a reply")
            return _parse_json(payload, require_op=False)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.wait_for(_roundtrip(), timeout)


async def elect_and_promote(
    candidates: List[str], timeout: float = 10.0
) -> dict:
    """Failover: promote the most-advanced reachable replica.

    Queries every candidate's ``status``, elects the maximum
    ``(generation, records)`` position, sends it ``promote``, and points
    every other reachable candidate at the winner with ``follow``.
    Returns ``{"winner", "promoted", "statuses", "unreachable",
    "refollowed"}``.  Raises :class:`ReplicationError` when no
    candidate answers.
    """
    statuses: Dict[str, dict] = {}
    unreachable: Dict[str, str] = {}
    for cand in candidates:
        try:
            statuses[cand] = await replication_request(
                {"op": "status"}, timeout=timeout,
                **parse_replica_endpoint(cand),
            )
        except (ReplicationError, ConnectionError, OSError,
                asyncio.TimeoutError) as exc:
            unreachable[cand] = f"{type(exc).__name__}: {exc}"
    if not statuses:
        raise ReplicationError(
            f"no promotion candidate reachable out of {candidates}"
        )
    winner = max(
        statuses,
        key=lambda c: (
            int(statuses[c].get("generation", -1)),
            int(statuses[c].get("records", 0)),
        ),
    )
    promoted = await replication_request(
        {"op": "promote"}, timeout=timeout,
        **parse_replica_endpoint(winner),
    )
    if "error" in promoted:
        raise ReplicationError(
            f"candidate {winner} refused promotion: {promoted['error']}"
        )
    refollowed: Dict[str, dict] = {}
    for cand in statuses:
        if cand == winner:
            continue
        try:
            refollowed[cand] = await replication_request(
                {"op": "follow", "target": winner}, timeout=timeout,
                **parse_replica_endpoint(cand),
            )
        except (ReplicationError, ConnectionError, OSError,
                asyncio.TimeoutError) as exc:
            refollowed[cand] = {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "winner": winner,
        "promoted": promoted,
        "statuses": statuses,
        "unreachable": unreachable,
        "refollowed": refollowed,
    }
