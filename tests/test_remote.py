"""Distributed shard fan-out: protocol, resilience primitives, client.

Unit coverage for the pieces :mod:`repro.engine.remote` composes —
the shared full-jitter :class:`~repro._util.backoff.BackoffPolicy`,
the per-host :class:`~repro.engine.remote.CircuitBreaker` state
machine (driven by an injected clock, no sleeping), host-spec parsing
— plus live-socket coverage of the framed probe protocol, hedged
probes racing a black-hole primary, degraded-verdict semantics, and
the ``efd shardserve`` / ``efd serve --remote`` subprocess round trip.

The fault sweeps over a live multi-host topology (dropped / torn /
duplicated / stalled frames, refused connections, a host killed under
traffic) live in ``tests/test_faultinject.py``; the healthy-path
equivalence matrix against the single-process stores lives in
``tests/test_engine_properties.py``.
"""

from __future__ import annotations

import os
import random
import re
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro._util import framing
from repro._util.backoff import BackoffPolicy
from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint
from repro.engine import ShardedDictionary
from repro.engine.remote import (
    CircuitBreaker,
    RemoteDegradedError,
    RemoteError,
    RemoteHost,
    RemoteShardBackend,
    ShardServerThread,
    parse_remote_spec,
)
from repro.engine.sharded import shard_index
from repro.engine.stats import EngineStats


def _fp(i: int) -> Fingerprint:
    return Fingerprint(
        metric=f"m{i % 2}",
        node=i % 4,
        interval=(0.0, 60.0) if i % 3 else (60.0, 120.0),
        value=float(i) * 50.0,
    )


def _seed_stores(n_hosts: int, n_shards: int = 3, n_keys: int = 60):
    """A flat reference plus one full-replica store per host."""
    flat = ExecutionFingerprintDictionary()
    stores = [ShardedDictionary(n_shards) for _ in range(n_hosts)]
    for i in range(n_keys):
        label = f"app{i % 5}_X"
        flat.add(_fp(i), label)
        for store in stores:
            store.add(_fp(i), label)
    return flat, stores


class _MaxRng:
    """Degenerate rng: ``uniform(0, b) == b`` — exposes the backoff
    envelope itself as the delay sequence."""

    def uniform(self, a: float, b: float) -> float:
        return b


# ---------------------------------------------------------------------------
# Backoff policy (shared by remote retries and the replication redial)
# ---------------------------------------------------------------------------

class TestBackoffPolicy:
    def test_envelope_doubles_from_base_and_caps(self):
        policy = BackoffPolicy(base=0.01, cap=0.1, rng=_MaxRng())
        delays = [policy.delay(a) for a in range(8)]
        assert delays[:4] == pytest.approx([0.01, 0.02, 0.04, 0.08])
        assert delays[4:] == pytest.approx([0.1] * 4)  # clamped at cap

    def test_full_jitter_spans_zero_to_envelope(self):
        policy = BackoffPolicy(base=0.5, cap=64.0, rng=random.Random(7))
        for attempt in range(10):
            samples = [policy.delay(attempt) for _ in range(50)]
            bound = min(64.0, 0.5 * 2 ** attempt)
            assert all(0.0 <= d <= bound for d in samples)
            # Full jitter, not equal jitter: the low half is reachable.
            assert min(samples) < bound / 2

    def test_deterministic_under_seeded_rng(self):
        a = BackoffPolicy(base=0.02, cap=1.0, rng=random.Random(3))
        b = BackoffPolicy(base=0.02, cap=1.0, rng=random.Random(3))
        assert [a.delay(i) for i in range(6)] == [b.delay(i) for i in range(6)]

    def test_default_cap_is_32x_base(self):
        policy = BackoffPolicy(base=0.25, rng=_MaxRng())
        assert policy.delay(20) == pytest.approx(8.0)

    @pytest.mark.parametrize("kwargs", (
        {"base": 0.0}, {"base": -1.0}, {"base": 1.0, "cap": 0.5},
    ))
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)


# ---------------------------------------------------------------------------
# Circuit breaker state machine (injected clock: no sleeping)
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = {"now": 0.0}
        opens = []
        breaker = CircuitBreaker(
            failures=kwargs.pop("failures", 3),
            reset_timeout=kwargs.pop("reset_timeout", 10.0),
            clock=lambda: clock["now"],
            on_open=lambda: opens.append(clock["now"]),
        )
        return breaker, clock, opens

    def test_trips_open_after_consecutive_failures(self):
        breaker, _, opens = self._breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert opens == [0.0]  # fired exactly once

    def test_success_resets_the_consecutive_count(self):
        breaker, _, _ = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock, _ = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()       # claims the probe slot
        assert not breaker.allow()   # second caller refused
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_the_window(self):
        breaker, clock, opens = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        breaker.record_failure()     # probe failed: instant re-open
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert opens == [0.0, 10.0]
        clock["now"] = 19.9
        assert not breaker.allow()   # window restarted at the re-open
        clock["now"] = 20.0
        assert breaker.allow()

    def test_would_allow_peeks_without_claiming(self):
        breaker, clock, _ = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 10.0
        # Peeking any number of times never consumes the probe slot.
        for _ in range(5):
            assert breaker.would_allow()
        assert breaker.allow()        # the dial claims it
        assert not breaker.would_allow()
        assert not breaker.allow()
        breaker.release()             # never dialed: hand it back
        assert breaker.would_allow()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_unresolved_probe_slot_expires_after_reset_timeout(self):
        # A claimant that dies without reporting an outcome must not
        # lock the host out of rotation forever.
        breaker, clock, _ = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()        # claimed, outcome never reported
        assert not breaker.would_allow()
        clock["now"] = 20.0           # one reset window later
        assert breaker.would_allow()
        assert breaker.allow()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failures=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=0.0)


# ---------------------------------------------------------------------------
# Host specs
# ---------------------------------------------------------------------------

class TestParseRemoteSpec:
    def test_shard_list_and_endpoint(self):
        host = parse_remote_spec("0,2@10.0.0.1:4000")
        assert host.endpoint == "10.0.0.1:4000"
        assert host.shards == (0, 2)
        assert host.serves(0) and not host.serves(1)

    def test_all_and_bare_endpoint_are_full_replicas(self):
        for spec in ("all@h:9", "ALL@h:9", "h:9", ":9"):
            host = parse_remote_spec(spec)
            assert host.shards is None
            assert host.serves(7)

    def test_unix_endpoints(self):
        assert parse_remote_spec("unix:/tmp/s.sock").endpoint == "unix:/tmp/s.sock"
        host = parse_remote_spec("1@unix:/tmp/s.sock")
        assert host.endpoint == "unix:/tmp/s.sock"
        assert host.shards == (1,)

    @pytest.mark.parametrize("spec", (
        "", "@h:9", "x@h:9", "-1@h:9", "1@", "1@nohost", ",@h:9",
    ))
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_remote_spec(spec)

    def test_str_round_trips_the_shape(self):
        assert str(parse_remote_spec("0,2@h:9")) == "0,2@h:9"
        assert str(parse_remote_spec("h:9")) == "all@h:9"


# ---------------------------------------------------------------------------
# Wire protocol against a live server
# ---------------------------------------------------------------------------

class TestShardServerProtocol:
    def _request(self, endpoint: str, msg: dict) -> dict:
        host = RemoteHost(endpoint=endpoint)
        sock = host.connect(5.0)
        try:
            sock.settimeout(5.0)
            return framing.request_json_sock(sock, msg, error=RemoteError)
        finally:
            sock.close()

    def test_ping_status_probe_entries(self):
        """Control ops stay JSON; a JSON ``probe`` is not an op any
        more — probes are binary v2 frames — and its refusal leaves the
        socket live."""
        flat, stores = _seed_stores(1)
        with ShardServerThread(stores[0], n_shards=3, shards=[0, 1]) as thread:
            assert self._request(thread.endpoint, {"op": "ping"}) == {"ok": True}
            status = self._request(thread.endpoint, {"op": "status"})
            assert status["n_shards"] == 3 and status["shards"] == [0, 1]
            assert status["labels"] == stores[0].labels()
            served = sum(int(n) for n in status["keys_by_shard"].values())
            assert served == sum(
                1 for fp, _ in flat.entries() if shard_index(fp, 3) in (0, 1)
            )
            owned = [fp for fp, _ in flat.entries()
                     if shard_index(fp, 3) == 0][:5]
            from repro.core.serialization import fingerprint_to_record
            sock = RemoteHost(endpoint=thread.endpoint).connect(5.0)
            try:
                sock.settimeout(5.0)
                reply = framing.request_json_sock(sock, {
                    "op": "probe",
                    "keys": [fingerprint_to_record(fp) for fp in owned],
                    "counts": True,
                }, error=RemoteError)
                assert "unknown op 'probe'" in reply["error"]
                assert framing.request_json_sock(
                    sock, {"op": "ping"}, error=RemoteError
                ) == {"ok": True}
            finally:
                sock.close()
            dump = self._request(thread.endpoint, {"op": "entries", "shard": 1})
            assert len(dump["entries"]) == status["keys_by_shard"]["1"]

    def test_status_on_a_columnar_host_decodes_no_key(
        self, tmp_path, monkeypatch
    ):
        """``status`` reads shard sizes and string tables from the
        columns and the overlay, never by decoding every key (on a
        large host that would overrun the client's ``sync_tables``
        timeout)."""
        from repro.engine import load_columnar, save_columnar
        from repro.engine.columnar import ColumnarDictionary

        flat, stores = _seed_stores(1)
        directory = str(tmp_path / "store")
        save_columnar(stores[0], directory)
        late = Fingerprint(metric="late_metric", node=1,
                           interval=(1.0, 2.0), value=5.0)
        flat.add(late, "late_Q")

        def decode(self, index):
            raise AssertionError(f"shard {index} keys decoded")

        monkeypatch.setattr(ColumnarDictionary, "_shard_fingerprints", decode)
        with load_columnar(directory) as store:
            store.add(late, "late_Q")
            with ShardServerThread(store, n_shards=3) as thread:
                status = self._request(thread.endpoint, {"op": "status"})
            sizes = store.shard_sizes()
        assert status["keys_by_shard"] == {
            str(s): n for s, n in enumerate(sizes)
        }
        assert status["keys"] == len(flat) == sum(sizes)
        assert status["labels"] == flat.labels()
        assert status["metrics"] == flat.metrics()
        assert [tuple(iv) for iv in status["intervals"]] == flat.intervals()

    @staticmethod
    def _v2_probe(sock, shard: int, fps) -> dict:
        """One v2 probe bucket whose tables ride in-band; returns the
        JSON error reply the test expects."""
        frame = framing.encode_probe_request(
            1, shard,
            np.arange(len(fps), dtype="<i4"), np.arange(len(fps), dtype="<i4"),
            np.asarray([fp.node for fp in fps], dtype="<i8"),
            np.asarray([fp.value for fp in fps], dtype="<f8"),
            table_ext={
                "metrics": [fp.metric for fp in fps],
                "intervals": [list(fp.interval) for fp in fps],
            },
        )
        framing.send_frame_sock(sock, frame)
        raw = framing.recv_frame_sock(sock, error=RemoteError)
        assert raw is not None and not framing.is_v2_frame(raw)
        return framing.parse_json(raw, require_op=False, error=RemoteError)

    def test_refusals_are_error_replies_not_disconnects(self):
        _, stores = _seed_stores(1)
        with ShardServerThread(stores[0], n_shards=3, shards=[0]) as thread:
            foreign = next(
                fp for fp, _ in stores[0].entries() if shard_index(fp, 3) == 2
            )
            sock = RemoteHost(endpoint=thread.endpoint).connect(5.0)
            try:
                sock.settimeout(5.0)
                # A bucket for a shard this host does not serve.
                reply = self._v2_probe(sock, 2, [foreign])
                assert "shard 2 not served here" in reply["error"]
                # A misrouted key inside the ownership spot-check sample
                # (a bucket this small is checked key by key).
                reply = self._v2_probe(sock, 0, [foreign])
                assert "belongs to shard 2" in reply["error"]
                assert framing.request_json_sock(
                    sock, {"op": "ping"}, error=RemoteError
                ) == {"ok": True}
            finally:
                sock.close()
            assert "unknown op" in self._request(
                thread.endpoint, {"op": "nope"})["error"]
            assert "error" in self._request(
                thread.endpoint,
                {"op": "learn", "records": [{"op": "add", "metric": 3}]},
            )
            # The server survived every refusal on one live socket path.
            assert self._request(thread.endpoint, {"op": "ping"}) == {"ok": True}


# ---------------------------------------------------------------------------
# Client behavior: degradation contract, hedging, strictness
# ---------------------------------------------------------------------------

def _client(specs, **kwargs) -> RemoteShardBackend:
    kwargs.setdefault("n_shards", 3)
    kwargs.setdefault("rng", random.Random(0))
    kwargs.setdefault("stats", EngineStats())
    return RemoteShardBackend(specs, **kwargs)


class TestDegradedVerdicts:
    def test_dead_shard_marks_exactly_its_keys(self):
        flat, stores = _seed_stores(3)
        threads = [
            ShardServerThread(stores[k], n_shards=3, shards=[k]).start()
            for k in range(3)
        ]
        try:
            specs = [f"{k}@{threads[k].endpoint}" for k in range(3)]
            threads[1].stop()
            remote = _client(
                specs, deadline=1.5, try_timeout=0.3, retries=1,
                backoff_base=0.01, backoff_cap=0.02, sync_tables=False,
            )
            probes = [_fp(i) for i in range(40)]
            verdicts = remote.probe_many(probes)
            dead = {p for p in probes if shard_index(p, 3) == 1}
            marked = {p for p, v in zip(probes, verdicts) if v.degraded}
            assert marked == dead
            assert set(remote.last_degraded) == dead
            assert all(v.reason for v in verdicts if v.degraded)
            # Live shards still answer exactly.
            for probe, verdict in zip(probes, verdicts):
                if not verdict.degraded:
                    assert verdict.labels == flat.lookup(probe)
                else:
                    assert verdict.labels == []
            # lookup_many resolves degraded keys as unknown, not wrong.
            assert remote.lookup_many(probes) == [
                [] if p in dead else flat.lookup(p) for p in probes
            ]
            stats = remote.engine_stats
            assert stats.remote_degraded == 2 * len(dead)  # both batches
            assert stats.remote_errors >= 1
            assert stats.remote

            # Strict single-key ops refuse to guess.
            victim = next(iter(dead))
            with pytest.raises(RemoteDegradedError) as exc_info:
                remote.lookup(victim)
            assert victim in exc_info.value.reasons
            with pytest.raises(RemoteDegradedError):
                victim in remote  # noqa: B015 — membership is the call
            with pytest.raises(RemoteDegradedError):
                remote.add(victim, "new_X")
            remote.close()
        finally:
            for thread in threads:
                thread.stop()

    def test_uncovered_shard_is_a_constructor_error(self):
        with pytest.raises(ValueError, match=r"shard\(s\) \[1, 2\]"):
            _client(["0@127.0.0.1:1"], sync_tables=False)


class TestConstructorChecks:
    """Every tuning parameter is range-checked where it is used, before
    anything dials; the error names the offending parameter."""

    @pytest.mark.parametrize("kwargs,named", [
        ({"deadline": 0.0}, "deadline"),
        ({"try_timeout": 0.0}, "try_timeout"),
        ({"retries": -1}, "retries"),
        ({"backoff_base": 0.0}, "backoff base"),
        ({"backoff_base": 0.5, "backoff_cap": 0.1}, "backoff cap"),
        ({"hedge_delay": 0.0}, "hedge_delay"),
        ({"hedge_percentile": 0.0}, "hedge_percentile"),
        ({"hedge_percentile": 1.5}, "hedge_percentile"),
        ({"breaker_failures": 0}, "breaker failures"),
        ({"breaker_reset": 0.0}, "breaker reset_timeout"),
        ({"pool_size": 0}, "pool_size"),
        ({"pipeline_chunk": 0}, "pipeline_chunk"),
    ])
    def test_bad_value_names_the_parameter(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            _client(["all@127.0.0.1:1"], sync_tables=False, **kwargs)


class TestBreakerAdmission:
    def test_half_open_replica_is_not_consumed_by_admission(self):
        """Regression: building the candidate list must not claim a
        half-open host's probe slot.  A recovered replica that batches
        merely *list* (while a healthy primary answers) has to stay
        dialable, so it can take over the moment the primary dies."""
        flat, stores = _seed_stores(2)
        threads = [
            ShardServerThread(stores[k], n_shards=3).start() for k in range(2)
        ]
        try:
            remote = _client(
                [f"all@{threads[k].endpoint}" for k in range(2)],
                deadline=5.0, try_timeout=0.5, retries=3,
                backoff_base=0.01, backoff_cap=0.02,
                breaker_reset=0.05, sync_tables=False,
            )
            # One bucket only (shard 0): the walk is strictly sequential.
            probes = [fp for fp, _ in flat.entries()
                      if shard_index(fp, 3) == 0][:10]
            assert probes
            # Trip the *second* host's breaker, then let it go half-open.
            for _ in range(3):
                remote.hosts[1].breaker.record_failure()
            time.sleep(0.06)
            assert remote.hosts[1].breaker.state == CircuitBreaker.HALF_OPEN
            # Healthy batches ride the primary; listing the half-open
            # replica as a candidate must not eat its probe slot.
            for _ in range(3):
                assert not any(v.degraded for v in remote.probe_many(probes))
            assert remote.hosts[1].breaker.would_allow()
            # Primary dies: the half-open replica must still be dialed.
            threads[0].stop()
            verdicts = remote.probe_many(probes)
            assert not any(v.degraded for v in verdicts)
            assert [v.labels for v in verdicts] == [
                flat.lookup(p) for p in probes
            ]
            assert remote.hosts[1].breaker.state == CircuitBreaker.CLOSED
            remote.close()
        finally:
            for thread in threads:
                thread.stop()


class TestMalformedReplies:
    def test_host_without_v2_degrades_malformed(self):
        """A host that answers the hello with something other than a v2
        ack (here: a bare labels list) does not speak the probe
        protocol: the bucket degrades with an explicit ``malformed``
        reason — it must not crash the batch merge."""
        import json
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        listener.settimeout(0.1)  # so closing the listener ends serve()
        port = listener.getsockname()[1]
        rogue = json.dumps({"labels": [["app0_X"]]}).encode("utf-8")

        def answer(conn):
            with conn:
                try:
                    framing.recv_frame_sock(conn)
                    framing.send_frame_sock(conn, rogue)
                except (OSError, framing.FramingError):
                    pass

        def serve():
            # One thread per connection: the pooled client dials
            # concurrently (probe path + background mirror fetch), and
            # a serial accept loop would starve one exchange into a
            # timeout instead of the malformed reply under test.
            while True:
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue  # re-check: listener may have closed
                except OSError:
                    return  # listener closed: test over
                conn.settimeout(5.0)
                threading.Thread(target=answer, args=(conn,),
                                 daemon=True).start()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            remote = _client(
                [f"all@127.0.0.1:{port}"], n_shards=1,
                deadline=2.0, try_timeout=0.5, retries=0, sync_tables=False,
            )
            probes = [_fp(i) for i in range(6)]
            verdicts = remote.probe_many(probes)
            assert all(v.degraded for v in verdicts)
            assert all("malformed" in v.reason for v in verdicts)
            assert set(remote.last_degraded) == set(probes)
            stats = remote.engine_stats
            assert stats.remote_errors >= 1
            assert stats.remote_degraded == len(probes)
            remote.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)


class TestShardSizesUnreachable:
    def test_unreachable_shard_is_surfaced_not_silent(self):
        _, stores = _seed_stores(3)
        threads = [
            ShardServerThread(stores[k], n_shards=3, shards=[k]).start()
            for k in range(3)
        ]
        try:
            specs = [f"{k}@{threads[k].endpoint}" for k in range(3)]
            threads[1].stop()
            remote = _client(
                specs, deadline=1.5, try_timeout=0.3, retries=0,
                backoff_base=0.01, backoff_cap=0.02, sync_tables=False,
            )
            sizes = remote.shard_sizes()
            # The undercount is explicit, not silent.
            assert remote.last_sizes_unreachable == [1]
            assert sizes[1] == 0 and sizes[0] > 0 and sizes[2] > 0
            assert remote.engine_stats.remote_degraded >= 1
            assert len(remote) == sizes[0] + sizes[2]
            # Degraded snapshots are not cached: a healthy poll would
            # re-count.  (Live shards answer again on the next call.)
            assert remote.shard_sizes() == sizes
            assert remote.last_sizes_unreachable == [1]
            remote.close()
        finally:
            for thread in threads:
                thread.stop()


class TestHedgedProbes:
    def test_black_hole_primary_loses_to_hedged_replica(self):
        flat, stores = _seed_stores(1)
        hole = socket.socket()
        hole.bind(("127.0.0.1", 0))
        hole.listen(1)  # accepts nothing: connects park in the backlog
        thread = ShardServerThread(stores[0], n_shards=3).start()
        try:
            hole_ep = f"127.0.0.1:{hole.getsockname()[1]}"
            remote = _client(
                [f"all@{hole_ep}", f"all@{thread.endpoint}"],
                deadline=10.0, try_timeout=8.0, retries=0,
                hedge_delay=0.05, sync_tables=False,
            )
            probes = [fp for fp, _ in flat.entries()][:10]
            start = time.monotonic()
            verdicts = remote.probe_many(probes)
            elapsed = time.monotonic() - start
            assert [v.labels for v in verdicts] == [
                flat.lookup(p) for p in probes
            ]
            assert not any(v.degraded for v in verdicts)
            stats = remote.engine_stats
            assert stats.remote_hedges >= 1
            assert stats.remote_hedges_won >= 1
            assert stats.remote_hedges == (
                stats.remote_hedges_won + stats.remote_hedges_lost
            )
            # The hedge answered; nobody waited out the 8s primary.
            assert elapsed < 5.0
            remote.close()
        finally:
            thread.stop()
            hole.close()


class TestClientTables:
    def test_sync_tables_and_write_through(self):
        flat, stores = _seed_stores(2)
        threads = [
            ShardServerThread(stores[k], n_shards=3).start() for k in range(2)
        ]
        try:
            remote = _client([f"all@{t.endpoint}" for t in threads])
            assert remote.labels() == flat.labels()
            assert remote.app_names() == flat.app_names()
            assert remote.metrics() == flat.metrics()
            assert remote.intervals() == flat.intervals()
            assert len(remote) == len(flat)

            new = Fingerprint(metric="m9", node=9, interval=(0.0, 60.0),
                              value=1.0)
            remote.add(new, "fresh_Z")
            flat.add(new, "fresh_Z")
            assert remote.lookup(new) == ["fresh_Z"]
            assert remote.labels() == flat.labels()
            # The write reached every replica of the owning shard.
            for store in stores:
                assert store.lookup(new) == ["fresh_Z"]
            assert len(remote) == len(flat)
            stats = remote.stats()
            ref = flat.stats()
            assert (stats.n_keys, stats.n_insertions, stats.n_labels) == (
                ref.n_keys, ref.n_insertions, ref.n_labels
            )
            remote.close()
        finally:
            for thread in threads:
                thread.stop()


# ---------------------------------------------------------------------------
# CLI round trip: efd shardserve + efd serve --remote
# ---------------------------------------------------------------------------

class TestShardserveCLI:
    @staticmethod
    def _env():
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return env

    def test_subprocess_round_trip(self, tmp_path):
        from repro.engine import save_columnar

        flat, stores = _seed_stores(1)
        directory = str(tmp_path / "store")
        save_columnar(stores[0], directory)
        env = self._env()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "shardserve",
             "--dir", directory, "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            m = re.search(r"listening on tcp://([0-9.]+):(\d+)", line)
            assert m, line
            endpoint = f"{m.group(1)}:{m.group(2)}"
            assert "serving shard(s) 0,1,2 of 3" in proc.stdout.readline()
            remote = _client([f"all@{endpoint}"])
            probes = [fp for fp, _ in flat.entries()]
            assert remote.lookup_many(probes) == [
                flat.lookup(p) for p in probes
            ]
            assert remote.last_degraded == {}
            remote.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert "connections" in out  # the exit stats render

    def test_serve_remote_flag_builds_the_fanout_engine(self, tmp_path):
        from repro.engine import save_columnar

        _, stores = _seed_stores(1)
        directory = str(tmp_path / "store")
        save_columnar(stores[0], directory)
        env = self._env()
        backend = subprocess.Popen(
            [sys.executable, "-m", "repro", "shardserve",
             "--dir", directory, "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        front = None
        try:
            m = re.search(r"tcp://([0-9.]+):(\d+)",
                          backend.stdout.readline())
            assert m
            endpoint = f"{m.group(1)}:{m.group(2)}"
            front = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--remote", f"all@{endpoint}", "--remote-shards", "3",
                 "--depth", "2", "--listen", "127.0.0.1:0", "--quiet"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=env,
            )
            assert "listening on tcp://" in front.stdout.readline()
            front.send_signal(signal.SIGTERM)
            out, _ = front.communicate(timeout=30)
            assert front.returncode == 0, out
        finally:
            if front is not None and front.poll() is None:
                front.kill()
                front.communicate(timeout=30)
            backend.send_signal(signal.SIGTERM)
            backend.communicate(timeout=30)

    def test_serve_remote_requires_shard_count(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--remote-shards"):
            main(["serve", "--remote", "all@127.0.0.1:1", "--depth", "2",
                  "--listen", "127.0.0.1:0"])

    def test_serve_remote_unreachable_fleet_is_a_named_exit(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match=r"no remote host answered "
                                             r"for shard\(s\) 0 of 1"):
            main(["serve", "--remote", "all@127.0.0.1:1",
                  "--remote-shards", "1", "--depth", "2",
                  "--input", os.devnull])

    def test_serve_bad_remote_value_is_a_named_exit(self):
        from repro.cli import main

        with pytest.raises(SystemExit,
                           match="efd serve: deadline must be positive"):
            main(["serve", "--remote", "all@127.0.0.1:1",
                  "--remote-shards", "1", "--depth", "2",
                  "--remote-deadline", "0", "--input", os.devnull])

    def test_serve_family_spec_requires_family(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--family-spec requires --family"):
            main(["serve", "--efd", str(tmp_path / "efd.json"),
                  "--depth", "2", "--family-spec",
                  str(tmp_path / "spec.json"), "--input", os.devnull])
