"""Leader→replica delta-log shipping under socket-level faults.

The wire invariant mirrors the crash invariant of
``tests/test_faultinject.py`` one layer out: whatever the network does
to the replication stream — connections dropped between frames, frames
torn mid-byte, duplicate segment delivery, the leader killed mid
base-swap — a reload of the replica directory yields **exactly** the
state after some prefix of the leader's committed records at one
generation, never a mixed or partially-applied record, and once the
link heals the replica converges to a byte-identical copy of the
leader's directory (base files *and* delta-log segment).

:class:`test_faultinject.FrameProxy` injects the faults; each one is
armed once, so the follower's reconnect loop is what the sweep
actually exercises.  ``make replicate-smoke`` runs the ``smoke``
subset: one live bootstrap → trickle → base-swap round trip.
"""

from __future__ import annotations

import asyncio
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

from test_faultinject import FrameProxy, InjectedFault

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint
from repro.engine import ShardedDictionary, save_columnar
from repro.engine.columnar import (
    _manifest_files,
    _read_manifest,
    load_columnar,
)
from repro.engine.replicate import (
    ReplicationFollower,
    ReplicationPublisher,
    local_position,
    replication_request,
)

N_BASE = 24
N_DELTA = 10


def _fp(i: int) -> Fingerprint:
    return Fingerprint(
        metric=f"m{i % 2}",
        node=i % 4,
        interval=(0.0, 60.0) if i % 3 else (60.0, 120.0),
        value=float(i) * 50.0,
    )


def _base_pairs(n: int = N_BASE):
    return [(_fp(i), f"app{i % 5}_X") for i in range(n)]


def _delta_ops(n: int = N_DELTA):
    """(fingerprint, label, count) appends the leader will make live."""
    return [
        (_fp(10_000 + i), f"late{i % 3}_Y", 1 + i % 2) for i in range(n)
    ]


def _seed_leader(tmp_path, n_base: int = N_BASE,
                 filters: bool = True) -> str:
    sharded = ShardedDictionary(2)
    for fp, label in _base_pairs(n_base):
        sharded.add(fp, label)
    directory = str(tmp_path / "leader")
    save_columnar(sharded, directory, filters=filters)
    return directory


def _snapshot(store):
    """Comparable view of a store: entries, labels, per-key counts."""
    entries = list(store.entries())
    return (
        entries,
        store.labels(),
        [store.lookup_counts(fp) for fp, _ in entries],
    )


def _expected_states(delta_ops, n_base: int = N_BASE):
    """``states[j]`` = flat snapshot after the base plus the first j
    delta records — the only states a replica may ever serve before
    the base swap."""
    efd = ExecutionFingerprintDictionary()
    for fp, label in _base_pairs(n_base):
        efd.add(fp, label)
    states = [_snapshot(efd)]
    for fp, label, count in delta_ops:
        efd.add_repeated(fp, label, count)
        states.append(_snapshot(efd))
    return states


def _assert_dirs_equal(leader_dir: str, replica_dir: str) -> None:
    """Byte-for-byte equivalence of everything the manifest references,
    plus the live delta-log segment."""
    lm = _read_manifest(leader_dir)
    rm = _read_manifest(replica_dir)
    assert rm == lm
    names = sorted(set(_manifest_files(lm)))
    for directory in (leader_dir, replica_dir):
        assert os.path.exists(os.path.join(directory, "delta-log.jsonl")) \
            == os.path.exists(os.path.join(leader_dir, "delta-log.jsonl"))
    if os.path.exists(os.path.join(leader_dir, "delta-log.jsonl")):
        names.append("delta-log.jsonl")
    for name in names:
        with open(os.path.join(leader_dir, name), "rb") as fh:
            expected = fh.read()
        with open(os.path.join(replica_dir, name), "rb") as fh:
            actual = fh.read()
        assert actual == expected, f"{name} differs between leader and replica"


def _assert_old_or_new(copy_dir, states, post_swap_leader=None):
    """The never-mixed invariant on a frozen copy of the replica dir.

    Either the directory is not bootstrapped yet (no manifest — the
    "old" state of an empty replica), or it loads to exactly
    ``states[applied]`` at the pre-swap generation, or (after a
    compaction swap) to the leader's post-swap state.
    """
    generation, applied = local_position(copy_dir)
    if generation < 0:
        return  # pre-bootstrap: nothing committed, nothing mixed
    store = load_columnar(copy_dir)
    if post_swap_leader is not None and generation \
            == post_swap_leader["generation"]:
        assert _snapshot(store) == post_swap_leader["state"]
        return
    assert 0 <= applied < len(states)
    assert _snapshot(store) == states[applied], (
        f"replica at generation {generation} applied={applied} serves a "
        f"state that is not the exact prefix state"
    )


async def _settled_copy(replica_dir, tmp_path, tag):
    """Freeze the replica directory for offline inspection."""
    dst = str(tmp_path / f"copy-{tag}")
    await asyncio.get_running_loop().run_in_executor(
        None, shutil.copytree, replica_dir, dst
    )
    return dst


async def _drive_link(tmp_path, filters, proxy_kwargs=None,
                      tear_swap=False, crash_apply_at=None):
    """One full replication round trip, optionally through a fault.

    Bootstraps an empty replica over the (possibly faulty) link,
    trickles ``N_DELTA`` appends, waits for convergence, compacts the
    leader (base swap), waits for the swap to land, and returns the
    mid-fault directory copies taken along the way for offline
    invariant checks.  ``filters`` picks whether the leader's base
    (and so every shipped snapshot) carries the per-shard key filters.
    """
    leader_dir = _seed_leader(tmp_path, filters=filters)
    replica_dir = str(tmp_path / "replica")
    ops = _delta_ops()
    leader = load_columnar(leader_dir)
    copies = []
    proxy = None
    follower = None
    injected = {"count": 0}
    async with ReplicationPublisher(
        leader_dir, port=0, poll_interval=0.005, heartbeat=0.02
    ) as publisher:
        host, port = publisher.tcp_address
        try:
            if proxy_kwargs is not None:
                proxy = FrameProxy(host, port, **proxy_kwargs)
                await proxy.__aenter__()
                host, port = "127.0.0.1", proxy.port
            follower = ReplicationFollower(
                replica_dir, host=host, port=port, reconnect_delay=0.01
            )
            await follower.start()
            assert await follower.wait_ready(timeout=30.0), \
                "replica never bootstrapped"
            store = load_columnar(replica_dir)
            if crash_apply_at is not None:
                # Replica process dies mid-apply: the Nth applied record
                # raises out of the apply path, killing the follower.
                real_apply = type(store).add_repeated

                def _crashing(self, fp, label, count):
                    if injected["count"] == crash_apply_at:
                        raise InjectedFault("replica crash mid-apply")
                    injected["count"] += 1
                    return real_apply(self, fp, label, count)

                store.add_repeated = _crashing.__get__(store)
            follower.attach(store)
            sampled = False
            for i, (fp, label, count) in enumerate(ops):
                leader.add_repeated(fp, label, count)
                await asyncio.sleep(0.01)
                if proxy is not None and proxy.fired and not sampled:
                    sampled = True
                    copies.append(
                        await _settled_copy(replica_dir, tmp_path, f"mid{i}")
                    )
            if crash_apply_at is not None:
                # The follower task died on the injected fault; a fresh
                # follower on the same directory must resume from the
                # durable position and converge.
                await follower.close()
                copies.append(
                    await _settled_copy(replica_dir, tmp_path, "crashed")
                )
                store = load_columnar(replica_dir)
                follower = ReplicationFollower(
                    replica_dir, host=host, port=port, reconnect_delay=0.01
                )
                await follower.start()
                follower.attach(store)
            assert await follower.wait_position(
                leader._delta.generation, leader.delta_pending, timeout=30.0
            ), f"replica never converged (lag={follower.lag})"
            copies.append(
                await _settled_copy(replica_dir, tmp_path, "preswap")
            )
            _assert_dirs_equal(leader_dir, replica_dir)
            if tear_swap and proxy is not None:
                # Arm a tear a few frames ahead: it lands inside the
                # base-swap snapshot the compaction is about to ship —
                # the leader dying mid-swap, as seen from the replica.
                proxy.tear_at = proxy.frames + 2
                proxy.fired = False
            generation = leader._delta.generation
            leader.compact_delta()
            assert leader._delta.generation == generation + 1
            assert await follower.wait_position(
                generation + 1, 0, timeout=30.0
            ), f"replica never swapped (lag={follower.lag})"
            _assert_dirs_equal(leader_dir, replica_dir)
            assert (load_columnar(replica_dir).filter_info() is None) \
                == (not filters)
            if proxy is not None and (proxy_kwargs or tear_swap):
                assert proxy.fired, "the armed fault never fired"
        finally:
            if follower is not None:
                await follower.close()
            if proxy is not None:
                await proxy.__aexit__(None, None, None)
    post_swap = {
        "generation": leader._delta.generation,
        "state": _snapshot(leader),
    }
    return ops, copies, post_swap


#: Bases with and without the per-shard key filters: the snapshot
#: frames differ (no ``.filter`` files), and the swap must keep the kind.
FILTERS = pytest.mark.parametrize(
    "filters", (True, False), ids=("filtered", "unfiltered")
)


class TestSmokeRoundTrip:
    """Clean-link round trip: bootstrap, trickle, base swap, converge."""

    @FILTERS
    def test_smoke_bootstrap_trickle_swap(self, filters, tmp_path):
        ops, copies, post_swap = asyncio.run(
            _drive_link(tmp_path, filters)
        )
        states = _expected_states(ops)
        for copy_dir in copies:
            _assert_old_or_new(copy_dir, states, post_swap)


class TestSocketFaultSweep:
    """Every fault kind at frame indices spanning the bootstrap
    snapshot (header/file/commit frames) and the records stream."""

    FAULTS = [
        ("drop_after", n) for n in (0, 1, 4, 9, 14)
    ] + [
        ("tear_at", n) for n in (0, 2, 5, 9, 14)
    ] + [
        ("duplicate_at", n) for n in (1, 4, 9, 14)
    ]

    @FILTERS
    @pytest.mark.parametrize("fault", FAULTS,
                             ids=[f"{k}{n}" for k, n in FAULTS])
    def test_fault_recovers_exact_state(self, fault, filters, tmp_path):
        kind, index = fault
        ops, copies, post_swap = asyncio.run(
            _drive_link(tmp_path, filters, proxy_kwargs={kind: index})
        )
        states = _expected_states(ops)
        for copy_dir in copies:
            _assert_old_or_new(copy_dir, states, post_swap)

    @FILTERS
    def test_leader_killed_mid_base_swap(self, filters, tmp_path):
        # Passthrough proxy during the trickle; the tear is armed right
        # before compaction so it hits the swap snapshot's frames.
        ops, copies, post_swap = asyncio.run(
            _drive_link(tmp_path, filters,
                        proxy_kwargs={"tear_at": 10 ** 9},
                        tear_swap=True)
        )
        states = _expected_states(ops)
        for copy_dir in copies:
            _assert_old_or_new(copy_dir, states, post_swap)

    @FILTERS
    def test_replica_crash_mid_apply_resumes(self, filters, tmp_path):
        ops, copies, post_swap = asyncio.run(
            _drive_link(tmp_path, filters, crash_apply_at=3)
        )
        states = _expected_states(ops)
        for copy_dir in copies:
            _assert_old_or_new(copy_dir, states, post_swap)


class TestControlPlane:
    """status / promote / follow round trips against a live publisher."""

    def test_status_reports_position(self, tmp_path):
        directory = _seed_leader(tmp_path)

        async def run():
            store = load_columnar(directory)
            store.add(_fp(10_000), "late0_Y")
            async with ReplicationPublisher(directory, port=0) as pub:
                host, port = pub.tcp_address
                return await replication_request(
                    {"op": "status"}, host=host, port=port
                )

        status = asyncio.run(run())
        assert status["role"] == "leader"
        assert status["generation"] == 0
        assert status["records"] == 1

    def test_reply_without_op_key_round_trips(self, tmp_path):
        # Replies are not requests: the publisher's error replies and
        # the CLI's follow ack ({"ok": ...}) carry no "op" key, and the
        # control client must hand them back instead of rejecting the
        # frame (which made elect_and_promote report a successful
        # re-follow as failed).
        directory = _seed_leader(tmp_path)

        async def run():
            async def on_follow(msg):
                return {"ok": True, "target": str(msg.get("target", ""))}

            async with ReplicationPublisher(
                directory, port=0, role="replica", on_follow=on_follow
            ) as pub:
                host, port = pub.tcp_address
                ack = await replication_request(
                    {"op": "follow", "target": "h:1"}, host=host, port=port
                )
                refused = await replication_request(
                    {"op": "promote"}, host=host, port=port
                )
                return ack, refused

        ack, refused = asyncio.run(run())
        assert ack == {"ok": True, "target": "h:1"}
        assert "error" in refused  # no on_promote: refusal, not a parse error

    def test_promote_folds_and_leads(self, tmp_path):
        leader_dir = _seed_leader(tmp_path)
        replica_dir = str(tmp_path / "replica")

        async def run():
            leader = load_columnar(leader_dir)
            async with ReplicationPublisher(
                leader_dir, port=0, poll_interval=0.005, heartbeat=0.02
            ) as pub:
                host, port = pub.tcp_address
                follower = ReplicationFollower(
                    replica_dir, host=host, port=port, reconnect_delay=0.01
                )
                await follower.start()
                assert await follower.wait_ready(timeout=30.0)
                store = load_columnar(replica_dir)
                follower.attach(store)
                for fp, label, count in _delta_ops(4):
                    leader.add_repeated(fp, label, count)
                assert await follower.wait_position(0, 4, timeout=30.0)
                reply = await follower.promote()
                return reply, local_position(replica_dir)

        reply, (generation, applied) = asyncio.run(run())
        assert reply["role"] == "leader"
        assert reply["folded"] == 4
        # Promotion compacts: the pending records are fenced into a new
        # generation no stale leader can confuse with its own.
        assert (generation, applied) == (1, 0)
        promoted = load_columnar(replica_dir)
        expected = _expected_states(_delta_ops(4))[-1]
        assert _snapshot(promoted) == expected

    def test_elect_and_promote_picks_most_advanced(self, tmp_path):
        from repro.engine.replicate import elect_and_promote

        leader_dir = _seed_leader(tmp_path)
        ahead_dir = str(tmp_path / "ahead")
        behind_dir = str(tmp_path / "behind")

        async def run():
            leader = load_columnar(leader_dir)
            async with ReplicationPublisher(
                leader_dir, port=0, poll_interval=0.005, heartbeat=0.02
            ) as pub:
                host, port = pub.tcp_address
                followers, pubs = [], []
                for directory in (ahead_dir, behind_dir):
                    f = ReplicationFollower(
                        directory, host=host, port=port,
                        reconnect_delay=0.01,
                    )
                    await f.start()
                    assert await f.wait_ready(timeout=30.0)
                    f.attach(load_columnar(directory))
                    followers.append(f)

                    async def on_promote(f=f):
                        return await f.promote()

                    async def on_follow(msg, f=f):
                        from repro.engine.replicate import (
                            parse_replica_endpoint,
                        )
                        await f.refollow(
                            **parse_replica_endpoint(str(msg["target"]))
                        )
                        return {"ok": True}

                    p = ReplicationPublisher(
                        directory, port=0, poll_interval=0.005,
                        heartbeat=0.02, role="replica",
                        on_promote=on_promote, on_follow=on_follow,
                    )
                    await p.start()
                    pubs.append(p)
                for fp, label, count in _delta_ops(6):
                    leader.add_repeated(fp, label, count)
                assert await followers[0].wait_position(0, 6, timeout=30.0)
                # Partition the second replica mid-stream: it stays
                # behind at whatever it managed to apply.
                await followers[1].close()
                behind_applied = followers[1].applied
                # Leader dies; failover across the two replica
                # publishers must elect the caught-up one.
                candidates = [
                    f"127.0.0.1:{p.tcp_address[1]}" for p in pubs
                ]
                outcome = await elect_and_promote(candidates, timeout=10.0)
                try:
                    return outcome, candidates, behind_applied
                finally:
                    for f in followers:
                        await f.close()
                    for p in pubs:
                        await p.close()

        outcome, candidates, behind_applied = asyncio.run(run())
        assert outcome["winner"] == candidates[0]
        assert outcome["promoted"]["role"] == "leader"
        assert outcome["promoted"]["generation"] == 1
        assert set(outcome["refollowed"]) == {candidates[1]}
        ahead = load_columnar(ahead_dir)
        assert _snapshot(ahead) == _expected_states(_delta_ops(6))[-1]
        # The behind replica never applied a record it did not have.
        assert behind_applied <= 6


class TestFollowerRedialBackoff:
    """The redial delay sequence: exponential from ``reconnect_delay``
    with full jitter, capped, and reset by a successful subscribe —
    shared machinery with the remote-probe retry policy
    (:class:`repro._util.backoff.BackoffPolicy`)."""

    class _MaxRng:
        """``uniform(0, b) == b``: exposes the envelope as the delays."""

        def uniform(self, a, b):
            return b

    def test_delay_sequence_doubles_and_caps(self, tmp_path):
        follower = ReplicationFollower(
            str(tmp_path / "r"), host="127.0.0.1", port=1,
            reconnect_delay=0.01, reconnect_cap=0.08,
            reconnect_rng=self._MaxRng(),
        )
        delays = [follower._next_redial_delay() for _ in range(6)]
        assert delays == pytest.approx([0.01, 0.02, 0.04, 0.08, 0.08, 0.08])

    def test_default_cap_is_32x_base(self, tmp_path):
        follower = ReplicationFollower(
            str(tmp_path / "r"), host="127.0.0.1", port=1,
            reconnect_delay=0.25, reconnect_rng=self._MaxRng(),
        )
        delays = [follower._next_redial_delay() for _ in range(12)]
        assert max(delays) == pytest.approx(8.0)

    def test_delays_are_full_jitter_within_the_envelope(self, tmp_path):
        import random as random_mod

        follower = ReplicationFollower(
            str(tmp_path / "r"), host="127.0.0.1", port=1,
            reconnect_delay=0.5, reconnect_cap=64.0,
            reconnect_rng=random_mod.Random(11),
        )
        for attempt in range(8):
            delay = follower._next_redial_delay()
            assert 0.0 <= delay <= min(64.0, 0.5 * 2 ** attempt)

    def test_successful_subscribe_resets_the_sequence(self, tmp_path):
        async def run():
            leader_dir = _seed_leader(tmp_path)
            replica_dir = str(tmp_path / "replica")
            async with ReplicationPublisher(
                leader_dir, port=0, poll_interval=0.005, heartbeat=0.02
            ) as publisher:
                host, port = publisher.tcp_address
                follower = ReplicationFollower(
                    replica_dir, host=host, port=port,
                    reconnect_delay=0.01, reconnect_rng=self._MaxRng(),
                )
                # Pretend the leader was unreachable for a while first.
                follower._redial_attempt = 7
                await follower.start()
                assert await follower.wait_ready(timeout=30.0)
                assert follower._redial_attempt == 0
                # The next redial (if the link dropped now) starts from
                # the base again, not from the accumulated envelope.
                assert follower._next_redial_delay() == pytest.approx(0.01)
                await follower.close()

        asyncio.run(run())


class TestCLIFailover:
    """Subprocess round trip: leader + two replicas, SIGKILL the
    leader, ``efd promote``, the survivors re-converge."""

    @staticmethod
    def _spawn(env, argv, out_path):
        out = open(out_path, "w", encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=out, stderr=subprocess.STDOUT, env=env,
        )
        return proc, out

    @staticmethod
    def _await_line(path, pattern, deadline, proc=None):
        rx = re.compile(pattern)
        while time.monotonic() < deadline:
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as fh:
                    for line in fh:
                        m = rx.search(line)
                        if m:
                            return m
            if proc is not None and proc.poll() is not None:
                raise AssertionError(
                    f"process exited rc={proc.returncode} before "
                    f"{pattern!r}: {open(path).read()}"
                )
            time.sleep(0.05)
        raise AssertionError(f"timed out waiting for {pattern!r} in {path}")

    def test_kill_leader_promote_converge(self, tmp_path):
        from repro.cli import main

        leader_dir = _seed_leader(tmp_path)
        replica_dirs = [str(tmp_path / f"replica{i}") for i in (0, 1)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        deadline = time.monotonic() + 60.0
        procs, outs = [], []
        try:
            leader_out = str(tmp_path / "leader.out")
            proc, out = self._spawn(
                env,
                ["serve", "--efd-dir", leader_dir, "--depth", "2",
                 "--publish", "127.0.0.1:0", "--quiet"],
                leader_out,
            )
            procs.append(proc)
            outs.append(out)
            m = self._await_line(
                leader_out, r"publishing on tcp://([0-9.]+):(\d+)",
                deadline, proc,
            )
            leader_ep = f"{m.group(1)}:{m.group(2)}"
            replica_eps = []
            replica_outs = []
            for i, directory in enumerate(replica_dirs):
                out_path = str(tmp_path / f"replica{i}.out")
                proc, out = self._spawn(
                    env,
                    ["serve", "--efd-dir", directory, "--depth", "2",
                     "--follow", leader_ep,
                     "--publish", "127.0.0.1:0", "--quiet"],
                    out_path,
                )
                procs.append(proc)
                outs.append(out)
                m = self._await_line(
                    out_path, r"publishing on tcp://([0-9.]+):(\d+)",
                    deadline, proc,
                )
                replica_eps.append(f"{m.group(1)}:{m.group(2)}")
                replica_outs.append(out_path)

            # Trickle records into the leader's delta-log from here: the
            # publisher ships from disk, so an out-of-process append is
            # indistinguishable from a learn-while-serving write.
            writer_store = load_columnar(leader_dir)
            for fp, label, count in _delta_ops(4):
                writer_store.add_repeated(fp, label, count)

            async def _statuses():
                out = {}
                for ep in replica_eps:
                    host, port = ep.rsplit(":", 1)
                    out[ep] = await replication_request(
                        {"op": "status"}, host=host, port=int(port),
                        timeout=10.0,
                    )
                return out

            while time.monotonic() < deadline:
                statuses = asyncio.run(_statuses())
                if all(s.get("records") == 4 for s in statuses.values()):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError(f"replicas never caught up: {statuses}")

            procs[0].kill()
            procs[0].wait(timeout=30)

            rc = main(["promote", "--candidates", *replica_eps])
            assert rc == 0

            new_leader = None
            while time.monotonic() < deadline:
                statuses = asyncio.run(_statuses())
                leaders = [
                    ep for ep, s in statuses.items()
                    if s.get("role") == "leader"
                ]
                if len(leaders) == 1 and all(
                    s.get("generation") == 1 and s.get("records") == 0
                    for s in statuses.values()
                ):
                    new_leader = leaders[0]
                    break
                time.sleep(0.1)
            assert new_leader is not None, f"never converged: {statuses}"

            for proc in procs[1:]:
                proc.send_signal(signal.SIGTERM)
            for proc in procs[1:]:
                assert proc.wait(timeout=30) == 0
            _assert_dirs_equal(replica_dirs[0], replica_dirs[1])
            for directory in replica_dirs:
                generation, applied = local_position(directory)
                assert (generation, applied) == (1, 0)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            for out in outs:
                out.close()
