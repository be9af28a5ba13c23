"""Crash/fault injection for the columnar write paths.

Every base rewrite (delta-log fold, reshard —
each of which also rebuilds the per-shard filters) follows the same
protocol: write every new data file under generation-suffixed names,
then commit with one atomic ``os.replace`` of the manifest, then clean
up superseded files.  The invariant this suite enforces at **every**
interruption point: reloading the directory either yields exactly the
expected merged dictionary (old base plus replayed delta-log before
the commit; new base with the stale-generation segment discarded after
it) or raises a named error — never a mixed or silently truncated
state.

:class:`FaultInjector` is the reusable helper: it seams into the
engine's file-commit events (each data-file write, the manifest
replace, each cleanup removal) and can kill the operation before the
Nth event, tear the Nth file mid-write, or enforce an ENOSPC byte
budget like a nearly-full disk.  Post-commit media damage (truncated
or bit-flipped mmap segments) is injected directly on the files.

:class:`FrameProxy` extends the same idea to the wire: a frame-aware
TCP proxy that drops, tears, or duplicates replication frames between
a leader and a follower.  ``tests/test_replicate.py`` sweeps it over a
live leader→replica link.
"""

from __future__ import annotations

import builtins
import errno
import os
import shutil

import pytest

import repro.engine.columnar as columnar_mod
import repro.engine.mmapstore as mmapstore_mod
from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint
from repro.engine import (
    ShardedDictionary,
    compact_shards,
    load_columnar,
    reshard,
    save_columnar,
)


class InjectedFault(RuntimeError):
    """The simulated crash — deliberately not an OSError subclass so a
    swallowed-too-broadly except clause in the code under test would
    show up as a missed injection, not a silent pass."""


class FaultInjector:
    """Crashes the columnar write path at a chosen commit event.

    Events, in operation order: one per data file opened for writing
    (shards, filters, key-order, manifest temp), one for the atomic
    ``os.replace`` commit, one per post-commit ``os.remove`` cleanup.

    Modes:

    - ``fail_after=N`` — raise :class:`InjectedFault` *before* event N
      executes (the file is never created / the commit never happens).
    - ``torn=True`` with ``fail_after=N`` — event N's file is created
      and half its first write lands before the crash (a torn file).
    - ``byte_budget=B`` — writes succeed until B bytes have landed,
      then fail with ``OSError(ENOSPC)`` mid-write, like a filling
      disk.  Metadata operations (replace/remove) stay free.

    With no mode set it only counts, so a dry run measures how many
    interruption points an operation has.
    """

    _PATCH_MODULES = (columnar_mod, mmapstore_mod)

    def __init__(self, fail_after=None, torn=False, byte_budget=None):
        self.fail_after = fail_after
        self.torn = torn
        self.byte_budget = byte_budget
        self.events = 0
        self._written = 0
        self._real_open = builtins.open
        self._real_replace = os.replace
        self._real_remove = os.remove

    def install(self, mp: pytest.MonkeyPatch) -> "FaultInjector":
        for mod in self._PATCH_MODULES:
            mp.setattr(mod, "open", self._open, raising=False)
        mp.setattr(os, "replace", self._replace)
        mp.setattr(os, "remove", self._remove)
        return self

    def _fatal(self) -> bool:
        fatal = (
            self.fail_after is not None and self.events == self.fail_after
        )
        self.events += 1
        return fatal

    def _open(self, path, mode="r", *args, **kwargs):
        if "w" not in str(mode):
            return self._real_open(path, mode, *args, **kwargs)
        if self._fatal():
            if self.torn:
                return _TornFile(self._real_open(path, mode, *args, **kwargs))
            raise InjectedFault(f"crash before writing {path!r}")
        if self.byte_budget is not None:
            return _BudgetFile(self, self._real_open(path, mode, *args, **kwargs))
        return self._real_open(path, mode, *args, **kwargs)

    def _replace(self, src, dst, **kwargs):
        if self._fatal():
            raise InjectedFault(f"crash before committing {dst!r}")
        return self._real_replace(src, dst, **kwargs)

    def _remove(self, path, **kwargs):
        if self._fatal():
            raise InjectedFault(f"crash before removing {path!r}")
        return self._real_remove(path, **kwargs)

    def charge(self, n: int) -> int:
        """ENOSPC accounting: bytes of an attempted write that land."""
        if self.byte_budget is None:
            return n
        allowed = min(n, max(0, self.byte_budget - self._written))
        self._written += allowed
        return allowed


class _TornFile:
    """File proxy whose first write lands only halfway, then crashes."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: max(1, len(data) // 2)])
        self._fh.flush()
        self._fh.close()
        raise InjectedFault(f"torn write to {self._fh.name!r}")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if not self._fh.closed:
            self._fh.close()
        return False


class FrameProxy:
    """Frame-aware TCP proxy injecting replication socket faults.

    Sits between a :class:`~repro.engine.replicate.ReplicationFollower`
    and its leader.  The follower→leader direction is forwarded
    untouched; on the leader→follower direction the proxy decodes the
    u32-length frame stream and can, counting frames across the
    proxy's whole lifetime (reconnections included):

    - ``drop_after=N`` — forward N frames, then cut the connection
      between frames (a clean mid-stream disconnect).
    - ``tear_at=N`` — forward only the first half of frame N's bytes,
      then cut (a torn frame: the follower dies mid-``readexactly``;
      also what a leader killed mid-send looks like).
    - ``duplicate_at=N`` — deliver frame N twice back to back.
    - ``stall_at=N`` — swallow frame N and hold the connection open
      without ever delivering another byte (a black-hole: the reader
      sees no EOF, only silence — the fault only a deadline catches).

    Each fault is armed once: after it fires (``.fired``), every later
    connection through the proxy is a clean passthrough, so the
    follower's reconnect loop can be asserted to converge.
    :class:`~repro.engine.remote.RemoteShardBackend` opens a fresh
    connection per request, so the same proxy also fault-injects the
    remote probe protocol — ``tests/test_faultinject.py`` sweeps it
    over a live shard-server topology in ``TestRemoteFaultSweep``.
    """

    def __init__(self, host: str, port: int, drop_after=None, tear_at=None,
                 duplicate_at=None, stall_at=None):
        self.upstream = (host, port)
        self.drop_after = drop_after
        self.tear_at = tear_at
        self.duplicate_at = duplicate_at
        self.stall_at = stall_at
        self.fired = False
        self.frames = 0
        self.port = None
        self._server = None
        self._tasks = set()

    async def __aenter__(self):
        import asyncio

        self._server = await asyncio.start_server(
            self._handle, host="127.0.0.1", port=0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        import asyncio

        self._server.close()
        await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    async def _handle(self, reader, writer):
        import asyncio

        try:
            up_reader, up_writer = await asyncio.open_connection(*self.upstream)
        except OSError:
            writer.close()
            return
        pumps = (
            asyncio.ensure_future(self._pump_raw(reader, up_writer)),
            asyncio.ensure_future(self._pump_frames(up_reader, writer)),
        )
        self._tasks.update(pumps)
        done, pending = await asyncio.wait(
            pumps, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        await asyncio.gather(*pumps, return_exceptions=True)
        for w in (writer, up_writer):
            w.close()
        self._tasks.difference_update(pumps)

    async def _pump_raw(self, reader, writer):
        import asyncio

        try:
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass

    async def _pump_frames(self, reader, writer):
        import asyncio
        import struct

        try:
            while True:
                header = await reader.readexactly(4)
                (length,) = struct.unpack(">I", header)
                payload = await reader.readexactly(length)
                index = self.frames
                self.frames += 1
                frame = header + payload
                if not self.fired and self.drop_after is not None \
                        and index >= self.drop_after:
                    self.fired = True
                    break
                if not self.fired and self.tear_at == index:
                    self.fired = True
                    writer.write(frame[: max(1, len(frame) // 2)])
                    await writer.drain()
                    break
                if not self.fired and self.stall_at == index:
                    self.fired = True
                    # Black-hole: never deliver, never close.  The pump
                    # parks until the client gives up and closes its
                    # side (the raw pump's EOF cancels us).
                    await asyncio.Event().wait()
                if not self.fired and self.duplicate_at == index:
                    self.fired = True
                    writer.write(frame)
                writer.write(frame)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                asyncio.CancelledError):
            pass


class _BudgetFile:
    """File proxy enforcing the injector's global byte budget."""

    def __init__(self, injector, fh):
        self._injector = injector
        self._fh = fh

    def write(self, data):
        allowed = self._injector.charge(len(data))
        self._fh.write(data[:allowed])
        if allowed < len(data):
            self._fh.flush()
            self._fh.close()
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        return len(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if not self._fh.closed:
            self._fh.close()
        return False


# ---------------------------------------------------------------------------
# The operations under test, each returning (directory, expected flat EFD).


def _fp(i: int) -> Fingerprint:
    return Fingerprint(
        metric=f"m{i % 2}",
        node=i % 4,
        interval=(0.0, 60.0) if i % 3 else (60.0, 120.0),
        value=float(i) * 50.0,
    )


def _seed_directory(tmp_path, n_base: int = 40, n_delta: int = 6,
                    filters: bool = True):
    """A columnar directory with a pending delta-log, plus the expected
    merged (base ∪ overlay) reference dictionary."""
    expected = ExecutionFingerprintDictionary()
    sharded = ShardedDictionary(2)
    for i in range(n_base):
        sharded.add(_fp(i), f"app{i % 5}_X")
        expected.add(_fp(i), f"app{i % 5}_X")
    directory = str(tmp_path / "seed")
    save_columnar(sharded, directory, filters=filters)
    store = load_columnar(directory)
    for i in range(10_000, 10_000 + n_delta):
        store.add(_fp(i), f"late{i % 3}_Y")
        expected.add(_fp(i), f"late{i % 3}_Y")
    return directory, expected


def _assert_state(directory, expected):
    """The crash invariant: a reload serves exactly the merged state."""
    store = load_columnar(directory)
    assert list(store.entries()) == list(expected.entries())
    assert store.labels() == expected.labels()
    for fp, _ in expected.entries():
        assert store.lookup_counts(fp) == expected.lookup_counts(fp)
    # And the store still answers batches (filters + overlay intact).
    keys = [fp for fp, _ in expected.entries()]
    misses = [_fp(i) for i in range(90_000, 90_020)]
    assert store.lookup_many(keys + misses) == [
        expected.lookup(fp) for fp in keys
    ] + [[] for _ in misses]


_UNFILTERED = {"filters": False, "n_base": 80}

#: name -> (``_seed_directory`` arguments, the rewrite).  An unfiltered
#: base commits fewer files, and every rewrite must keep the base's
#: filter kind; it gets twice the keys so that its rewrite still
#: outgrows the largest ENOSPC budget below.
OPERATIONS = {
    "fold-mmap": ({}, lambda d: compact_shards(d)),
    "fold-unfiltered": (_UNFILTERED, lambda d: compact_shards(d)),
    "reshard-mmap": ({}, lambda d: reshard(d, 3)),
    "reshard-unfiltered": (_UNFILTERED, lambda d: reshard(d, 3)),
}


def _copy(directory, tmp_path, tag):
    dst = str(tmp_path / f"run-{tag}")
    shutil.copytree(directory, dst)
    return dst


class TestCrashPointSweep:
    """Kill (and tear) the operation at every commit event in turn."""

    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    def test_every_interruption_point(self, name, tmp_path):
        seed, op = OPERATIONS[name]
        directory, expected = _seed_directory(tmp_path, **seed)
        # Dry run on a copy to count this operation's commit events.
        with pytest.MonkeyPatch.context() as mp:
            counter = FaultInjector().install(mp)
            op(_copy(directory, tmp_path, "dry"))
        total = counter.events
        assert total >= 5, f"{name}: expected a multi-event write path"
        for n in range(total):
            run_dir = _copy(directory, tmp_path, f"kill{n}")
            with pytest.MonkeyPatch.context() as mp:
                FaultInjector(fail_after=n).install(mp)
                with pytest.raises(InjectedFault):
                    op(run_dir)
            _assert_state(run_dir, expected)

    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    def test_torn_file_at_every_write(self, name, tmp_path):
        seed, op = OPERATIONS[name]
        directory, expected = _seed_directory(tmp_path, **seed)
        with pytest.MonkeyPatch.context() as mp:
            counter = FaultInjector().install(mp)
            op(_copy(directory, tmp_path, "dry"))
        for n in range(counter.events):
            run_dir = _copy(directory, tmp_path, f"torn{n}")
            with pytest.MonkeyPatch.context() as mp:
                FaultInjector(fail_after=n, torn=True).install(mp)
                with pytest.raises(InjectedFault):
                    op(run_dir)
            _assert_state(run_dir, expected)

    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    def test_interrupted_then_retried_succeeds(self, name, tmp_path):
        # A crashed rewrite must be recoverable by simply re-running it.
        seed, op = OPERATIONS[name]
        directory, expected = _seed_directory(tmp_path, **seed)
        run_dir = _copy(directory, tmp_path, "retry")
        with pytest.MonkeyPatch.context() as mp:
            FaultInjector(fail_after=2).install(mp)
            with pytest.raises(InjectedFault):
                op(run_dir)
        op(run_dir)  # no injector: the retry completes
        _assert_state(run_dir, expected)
        store = load_columnar(run_dir)
        assert store.delta_pending == 0
        assert (store.filter_info() is None) == (
            not seed.get("filters", True)
        )


class TestDiskFull:
    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    @pytest.mark.parametrize("budget", (0, 200, 5_000))
    def test_enospc_mid_rewrite(self, name, budget, tmp_path):
        seed, op = OPERATIONS[name]
        directory, expected = _seed_directory(tmp_path, **seed)
        run_dir = _copy(directory, tmp_path, f"enospc{budget}")
        with pytest.MonkeyPatch.context() as mp:
            FaultInjector(byte_budget=budget).install(mp)
            with pytest.raises(OSError) as exc_info:
                op(run_dir)
            assert exc_info.value.errno == errno.ENOSPC
        _assert_state(run_dir, expected)


class TestRemoteFaultSweep:
    """The distributed fan-out gate: frame faults, refused connections,
    and a host killed under traffic, over a live 3-host topology.

    :class:`FrameProxy` sits in front of one shard host and injects one
    wire fault (dropped reply, torn frame, duplicate frame, black-hole
    stall); the resilience layer of
    :class:`~repro.engine.remote.RemoteShardBackend` must absorb it.
    The invariant, mirroring the crash/wire invariants above: a
    *recovered* batch is element-wise equal to the flat store, a
    *degraded* batch marks exactly the unreachable shard's keys (and
    nothing else), and the ``remote_*`` counters reconcile with what
    the sweep actually did — never a silently wrong verdict.
    """

    N_SHARDS = 3

    FRAME_FAULTS = {
        "drop": {"drop_after": 0},
        "torn": {"tear_at": 0},
        "duplicate": {"duplicate_at": 0},
        "stall": {"stall_at": 0},
    }

    def _topology(self, n_keys: int = 60):
        """Flat reference + one single-shard server thread per shard,
        each host holding its own store copy (real fleets do not share
        heap)."""
        from repro.engine.remote import ShardServerThread

        flat = ExecutionFingerprintDictionary()
        stores = [ShardedDictionary(self.N_SHARDS)
                  for _ in range(self.N_SHARDS)]
        for i in range(n_keys):
            label = f"app{i % 5}_X"
            flat.add(_fp(i), label)
            for store in stores:
                store.add(_fp(i), label)
        threads = [
            ShardServerThread(stores[k], n_shards=self.N_SHARDS,
                              shards=[k]).start()
            for k in range(self.N_SHARDS)
        ]
        return flat, stores, threads

    def _client(self, specs, **kwargs):
        import random

        from repro.engine.remote import RemoteShardBackend

        kwargs.setdefault("n_shards", self.N_SHARDS)
        kwargs.setdefault("rng", random.Random(0))
        kwargs.setdefault("sync_tables", False)
        kwargs.setdefault("backoff_base", 0.01)
        kwargs.setdefault("backoff_cap", 0.05)
        return RemoteShardBackend(specs, **kwargs)

    @pytest.mark.parametrize("mode", sorted(FRAME_FAULTS))
    def test_frame_fault_recovers_to_exact_answers(self, mode):
        import asyncio

        flat, _, threads = self._topology()
        try:
            host, port = threads[1].endpoint.rsplit(":", 1)
            probes = [_fp(i) for i in range(80)]  # 60 hits + 20 misses

            async def sweep():
                async with FrameProxy(
                    host, int(port), **self.FRAME_FAULTS[mode]
                ) as proxy:
                    specs = [
                        f"0@{threads[0].endpoint}",
                        f"1@127.0.0.1:{proxy.port}",
                        f"2@{threads[2].endpoint}",
                    ]

                    def run():
                        # Mirrors off: the background filter fetch
                        # would race the probe fan-out for the proxy's
                        # frame-0-armed fault, making the retry
                        # counters nondeterministic.  Mirror recovery
                        # is covered by the killed-host test below.
                        remote = self._client(
                            specs, deadline=10.0, try_timeout=0.5, retries=3,
                            filter_mirrors=False,
                        )
                        verdicts = remote.probe_many(probes)
                        remote.close()
                        return remote, verdicts

                    loop = asyncio.get_running_loop()
                    remote, verdicts = await loop.run_in_executor(None, run)
                    return remote, verdicts, proxy.fired

            remote, verdicts, fired = asyncio.run(sweep())
            assert fired, f"{mode}: the armed fault never fired"
            # Recovered batch: element-wise equal to the flat store.
            assert [v.labels for v in verdicts] == [
                flat.lookup(p) for p in probes
            ]
            assert not any(v.degraded for v in verdicts)
            assert remote.last_degraded == {}
            # Counters reconcile with what the sweep did.
            stats = remote.engine_stats
            assert stats.remote_degraded == 0
            assert stats.remote_hedges == 0  # one host per shard: no replica
            assert stats.remote_calls == self.N_SHARDS + stats.remote_retries
            if mode == "duplicate":
                # On a pooled pipelined connection the duplicated reply
                # shows up where the next reply (or the hello ack) was
                # expected: a request-id desync, retried on a fresh
                # socket rather than trusted.
                assert stats.remote_retries >= 1
            elif mode == "stall":
                assert stats.remote_timeouts >= 1
                assert stats.remote_retries >= 1
            else:  # drop / torn: a transport error, then a clean retry
                assert stats.remote_errors >= 1
                assert stats.remote_retries >= 1
        finally:
            for thread in threads:
                thread.stop()

    def test_refused_connection_fails_over_through_the_breaker(self):
        import socket

        flat, _, threads = self._topology()
        # A port that refuses: bind, learn the number, close.
        probe_sock = socket.socket()
        probe_sock.bind(("127.0.0.1", 0))
        dead_port = probe_sock.getsockname()[1]
        probe_sock.close()
        try:
            specs = [
                f"1@127.0.0.1:{dead_port}",  # shard 1's primary: refused
                f"0@{threads[0].endpoint}",
                f"1@{threads[1].endpoint}",  # shard 1's live replica
                f"2@{threads[2].endpoint}",
            ]
            remote = self._client(
                specs, deadline=10.0, try_timeout=0.5, retries=2,
            )
            probes = [_fp(i) for i in range(80)]
            verdicts = remote.probe_many(probes)
            assert [v.labels for v in verdicts] == [
                flat.lookup(p) for p in probes
            ]
            assert not any(v.degraded for v in verdicts)
            stats = remote.engine_stats
            assert stats.remote_errors >= 1  # the refusal
            # Failover happens *within* the attempt — the walk reaches
            # the live replica without burning the retry budget, even
            # with the default breaker threshold (3 failures) untripped.
            assert stats.remote_retries == 0
            assert stats.remote_breaker_opens == 0
            assert stats.remote_degraded == 0
            # Two more batches: one refusal each trips the breaker at
            # the default threshold of 3 consecutive failures.
            for _ in range(2):
                assert remote.lookup_many(probes) == [
                    flat.lookup(p) for p in probes
                ]
            assert stats.remote_breaker_opens >= 1
            # The next batch goes straight to the replica: the open
            # breaker keeps the dead primary out of the admission list.
            errors_before = stats.remote_errors
            assert remote.lookup_many(probes) == [
                flat.lookup(p) for p in probes
            ]
            assert stats.remote_errors == errors_before
            assert stats.remote_degraded == 0
            remote.close()
        finally:
            for thread in threads:
                thread.stop()

    def test_host_killed_under_traffic_degrades_exactly_its_shard(
        self, tmp_path
    ):
        import re
        import subprocess
        import sys

        from repro.engine import save_columnar
        from repro.engine.sharded import shard_index

        flat, stores, threads = self._topology()
        threads[1].stop()  # shard 1 moves to a killable subprocess
        directory = str(tmp_path / "host1")
        save_columnar(stores[1], directory)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "shardserve",
             "--dir", directory, "--shards", "1",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            m = re.search(r"tcp://([0-9.]+):(\d+)", proc.stdout.readline())
            assert m, "shardserve never reported its endpoint"
            specs = [
                f"0@{threads[0].endpoint}",
                f"1@{m.group(1)}:{m.group(2)}",
                f"2@{threads[2].endpoint}",
            ]
            remote = self._client(
                specs, deadline=2.0, try_timeout=0.4, retries=1,
            )
            probes = [_fp(i) for i in range(80)]
            # Healthy batch across all three hosts first.
            assert remote.lookup_many(probes) == [
                flat.lookup(p) for p in probes
            ]
            assert remote.last_degraded == {}
            assert remote.warm_filter_mirrors()

            proc.kill()  # SIGKILL: no goodbye frame, just dead sockets
            proc.wait(timeout=30)

            verdicts = remote.probe_many(probes)
            dead = {p for p in probes if shard_index(p, self.N_SHARDS) == 1}
            dead_stored = {p for p in dead if flat.lookup(p)}
            marked = {p for p, v in zip(probes, verdicts) if v.degraded}
            # Keys the dead shard actually stored must cross the wire
            # (Bloom filters have no false negatives) and so degrade;
            # dead-shard *misses* resolve locally from the warmed
            # mirrors and stay exact — modulo the odd false positive,
            # which degrades harmlessly.
            assert dead_stored <= marked <= dead
            assert set(remote.last_degraded) == marked
            for probe, verdict in zip(probes, verdicts):
                if verdict.degraded:
                    assert verdict.labels == [] and verdict.reason
                else:
                    assert verdict.labels == flat.lookup(probe)
            stats = remote.engine_stats
            assert stats.remote_degraded == len(marked)
            assert stats.filter_mirror_hits >= len(dead) - len(marked)
            assert stats.remote_errors + stats.remote_timeouts >= 1
            assert stats.remote_hedges == (
                stats.remote_hedges_won + stats.remote_hedges_lost
            )
            remote.close()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=30)
            for thread in threads:
                thread.stop()


class TestPostCommitMediaDamage:
    """Damage that happens *after* a clean commit — a truncated or
    bit-flipped mmap segment must raise by name when its columns are
    finally read, never decode garbage."""

    def _committed(self, tmp_path):
        directory, expected = _seed_directory(tmp_path)
        compact_shards(directory)  # fold cleanly: single-generation base
        return directory, expected

    def _damage_one(self, directory, mutate):
        victim = sorted(
            f for f in os.listdir(directory) if f.endswith(".mmap")
        )[0]
        path = os.path.join(directory, victim)
        data = bytearray(open(path, "rb").read())
        open(path, "wb").write(bytes(mutate(data)))
        return victim

    def test_truncated_segment_raises_by_name(self, tmp_path):
        directory, _ = self._committed(tmp_path)
        victim = self._damage_one(directory, lambda d: d[: len(d) - 64])
        store = load_columnar(directory)  # lazy: load itself is clean
        with pytest.raises(ValueError, match="truncated"):
            store.warm_index()
        with pytest.raises(ValueError, match=victim):
            store.warm_index()

    def test_bit_flipped_segment_fails_checksum(self, tmp_path):
        directory, _ = self._committed(tmp_path)
        def flip(data):
            data[len(data) // 2] ^= 0x01
            return data
        victim = self._damage_one(directory, flip)
        store = load_columnar(directory)
        with pytest.raises(ValueError, match="checksum"):
            store.warm_index()
        with pytest.raises(ValueError, match=victim):
            store.warm_index()

    def test_deleted_segment_named(self, tmp_path):
        directory, _ = self._committed(tmp_path)
        victim = sorted(
            f for f in os.listdir(directory) if f.endswith(".mmap")
        )[0]
        os.remove(os.path.join(directory, victim))
        store = load_columnar(directory)
        with pytest.raises(FileNotFoundError, match=victim):
            store.warm_index()
