"""Protocol v2: the binary probe codec, negotiation, and filter mirrors.

Three layers of coverage for the v2 wire path in
:mod:`repro.engine.remote` / :mod:`repro._util.framing`:

- **codec**: encode/decode round trips for every v2 frame type, and
  hostile payloads (truncated columns, bad version bytes, trailing
  garbage) raising :class:`~repro._util.framing.FramingError` by name;
- **client**: a live v2 client against rogue servers that answer the
  handshake correctly and then reply with corrupted binary frames —
  every bucket must come back *degraded with a named reason*, never a
  traceback, and the host stays breaker-healthy (it answered);
- **negotiation**: v2 is the only probe protocol — a server that
  refuses the hello degrades every bucket with a reason naming the
  hello and the endpoint, while a v2 server stays exact under deep
  pipelining and in-band table extension.

The healthy-path equivalence matrix lives in
``tests/test_engine_properties.py``; fault sweeps over the transport
live in ``tests/test_faultinject.py``.
"""

from __future__ import annotations

import json
import random
import socket
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util import framing
from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint
from repro.engine import ShardedDictionary
from repro.engine.remote import (
    CircuitBreaker,
    RemoteOpError,
    RemoteShardBackend,
    ShardServer,
    ShardServerThread,
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
    flat = ExecutionFingerprintDictionary()
    stores = [ShardedDictionary(n_shards) for _ in range(n_hosts)]
    for i in range(n_keys):
        label = f"app{i % 5}_X"
        flat.add(_fp(i), label)
        for store in stores:
            store.add(_fp(i), label)
    return flat, stores


def _client(specs, **kwargs) -> RemoteShardBackend:
    kwargs.setdefault("n_shards", 3)
    kwargs.setdefault("rng", random.Random(0))
    kwargs.setdefault("stats", EngineStats())
    return RemoteShardBackend(specs, **kwargs)


# ---------------------------------------------------------------------------
# Codec round trips and hostile payloads (no sockets)
# ---------------------------------------------------------------------------

class TestV2Codec:
    def _request(self, n=5, counts=False, ext=None):
        return framing.encode_probe_request(
            request_id=7,
            shard=2,
            metric_id=np.arange(n, dtype="<i4"),
            interval_id=np.zeros(n, dtype="<i4"),
            node=np.arange(n, dtype="<i8") * 3,
            value=np.linspace(0.0, 1.0, n).astype("<f8"),
            table_ext=ext,
            counts=counts,
        )

    def test_probe_request_round_trip(self):
        ext = {"metrics": ["m9"], "intervals": [[0.0, 30.0]]}
        req = framing.decode_probe_request(self._request(ext=ext, counts=True))
        assert req["request_id"] == 7
        assert req["shard"] == 2
        assert req["counts"] is True
        assert req["ext"] == ext
        assert req["metric_id"].tolist() == [0, 1, 2, 3, 4]
        assert req["node"].tolist() == [0, 3, 6, 9, 12]
        assert req["value"][-1] == 1.0

    def test_probe_reply_round_trip_with_counts(self):
        raw = framing.encode_probe_reply(
            request_id=11,
            store_version=42,
            match_counts=np.array([2, 0, 1], dtype="<u4"),
            label_ids=np.array([0, 1, 1], dtype="<i4"),
            new_labels=["app0_X", "app1_X"],
            label_counts=np.array([3, 1, 5], dtype="<u8"),
        )
        assert framing.is_v2_frame(raw)
        rep = framing.decode_probe_reply(raw)
        assert rep["request_id"] == 11
        assert rep["store_version"] == 42
        assert rep["match_counts"].tolist() == [2, 0, 1]
        assert rep["label_ids"].tolist() == [0, 1, 1]
        assert rep["label_counts"].tolist() == [3, 1, 5]
        assert rep["new_labels"] == ["app0_X", "app1_X"]

    def test_filters_round_trip(self):
        req_id, shards = framing.decode_filters_request(
            framing.encode_filters_request(3, [2, 0])
        )
        assert req_id == 3
        assert shards == [0, 2]  # canonicalized order
        raw = framing.encode_filters_reply(
            4, 9, [(0, b"\x01\x02"), (2, b"")],
            {"metrics": ["m0"], "intervals": [[0.0, 60.0]]},
        )
        rep = framing.decode_filters_reply(raw)
        assert rep["request_id"] == 4
        assert rep["store_version"] == 9
        assert rep["filters"] == [(0, b"\x01\x02"), (2, b"")]
        assert rep["tables"]["metrics"] == ["m0"]

    def test_json_frames_are_never_v2(self):
        assert not framing.is_v2_frame(json.dumps({"op": "ping"}).encode())

    @pytest.mark.parametrize("cut,what", [
        (4, "value column"),       # tail of the last column
        (200, "metric id column"),  # most of every column
    ])
    def test_truncated_request_columns_raise_by_name(self, cut, what):
        raw = self._request(n=8)
        with pytest.raises(framing.FramingError, match="truncated"):
            framing.decode_probe_request(raw[:-cut])

    def test_wrong_version_byte_raises_by_name(self):
        raw = bytearray(self._request())
        raw[4] = 9  # version byte follows the 4-byte magic
        with pytest.raises(framing.FramingError, match="version byte 9"):
            framing.decode_probe_request(bytes(raw))

    def test_trailing_garbage_is_a_length_mismatch(self):
        raw = self._request() + b"xx"
        with pytest.raises(framing.FramingError, match="length mismatch"):
            framing.decode_probe_request(raw)

    def test_reply_label_column_shorter_than_counts(self):
        # match_counts promise 3 label ids; only 1 shipped.
        raw = framing.encode_probe_reply(
            0, 1, np.array([3], dtype="<u4"), np.array([0], dtype="<i4")
        )
        with pytest.raises(framing.FramingError, match="label-id column"):
            framing.decode_probe_reply(raw)

    def test_wrong_op_raises_by_name(self):
        raw = self._request()
        with pytest.raises(framing.FramingError, match="probe reply"):
            framing.decode_probe_reply(raw)

    def test_header_shorter_than_fixed_size(self):
        with pytest.raises(framing.FramingError, match="shorter than"):
            framing.v2_header(framing.V2_MAGIC + b"\x02")


# ---------------------------------------------------------------------------
# Hostile v2 replies through a live client: degrade by name, no traceback
# ---------------------------------------------------------------------------

def _valid_reply(request_id: int, n: int) -> bytes:
    """A structurally perfect all-miss reply for an ``n``-key probe."""
    return framing.encode_probe_reply(
        request_id, 1, np.zeros(n, dtype="<u4"), np.empty(0, dtype="<i4")
    )


def _mut_version_byte(valid: bytes, n: int) -> bytes:
    raw = bytearray(valid)
    raw[4] = 9
    return bytes(raw)


def _mut_truncate_columns(valid: bytes, n: int) -> bytes:
    # Promise n matched labels, ship an empty label-id column.
    return framing.encode_probe_reply(
        framing.decode_probe_reply(valid)["request_id"],
        1, np.ones(n, dtype="<u4"), np.empty(0, dtype="<i4"),
    )


def _mut_count_mismatch(valid: bytes, n: int) -> bytes:
    return framing.encode_probe_reply(
        framing.decode_probe_reply(valid)["request_id"],
        1, np.zeros(n - 1, dtype="<u4"), np.empty(0, dtype="<i4"),
    )


def _mut_label_id_out_of_range(valid: bytes, n: int) -> bytes:
    # One match per key, every label id far beyond the table.
    return framing.encode_probe_reply(
        framing.decode_probe_reply(valid)["request_id"],
        1, np.ones(n, dtype="<u4"), np.full(n, 99, dtype="<i4"),
    )


def _mut_trailing_garbage(valid: bytes, n: int) -> bytes:
    return valid + b"\x00\x00"


class _RogueV2Server:
    """A server that negotiates v2 flawlessly, then answers every probe
    with ``mutate(valid_reply)`` — the client must degrade the bucket
    with a named reason, never traceback, and never blame the host."""

    def __init__(self, mutate):
        self.mutate = mutate
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.listener.settimeout(0.1)
        self.port = self.listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(5.0)
            threading.Thread(
                target=self._answer, args=(conn,), daemon=True
            ).start()

    def _answer(self, conn):
        with conn:
            try:
                while True:
                    raw = framing.recv_frame_sock(conn)
                    if raw is None:
                        return
                    if not framing.is_v2_frame(raw):
                        msg = framing.parse_json(raw)
                        assert msg.get("op") == "hello"
                        framing.send_frame_sock(conn, json.dumps({
                            "ok": True, "proto": 2, "labels": ["app0_X"],
                            "version": 1, "n_shards": 1, "shards": [0],
                        }).encode("utf-8"))
                        continue
                    req = framing.decode_probe_request(raw)
                    n = len(req["node"])
                    framing.send_frame_sock(
                        conn, self.mutate(_valid_reply(req["request_id"], n), n)
                    )
            except (OSError, framing.FramingError):
                pass

    def close(self):
        self.listener.close()
        self._thread.join(timeout=5.0)


class TestHostileV2Replies:
    @pytest.mark.parametrize("mutate,named_reason", [
        (_mut_version_byte, "version byte"),
        (_mut_truncate_columns, "truncated"),
        (_mut_count_mismatch, "match counts"),
        (_mut_label_id_out_of_range, "label id out of table range"),
        (_mut_trailing_garbage, "length mismatch"),
    ])
    def test_corrupt_reply_degrades_with_named_reason(
        self, mutate, named_reason
    ):
        server = _RogueV2Server(mutate)
        try:
            remote = _client(
                [f"all@127.0.0.1:{server.port}"], n_shards=1,
                deadline=2.0, try_timeout=0.5, retries=0,
                sync_tables=False, filter_mirrors=False,
            )
            probes = [_fp(i) for i in range(5)]
            verdicts = remote.probe_many(probes)
            assert all(v.degraded for v in verdicts)
            assert all("malformed" in v.reason for v in verdicts)
            assert all(named_reason in v.reason for v in verdicts)
            assert set(remote.last_degraded) == set(probes)
            stats = remote.engine_stats
            assert stats.remote_degraded == len(probes)
            # The host *answered* — garbage is a protocol bug, not an
            # outage, so the breaker must not move toward open.
            assert remote.hosts[0].breaker.state == CircuitBreaker.CLOSED
            remote.close()
        finally:
            server.close()

    def test_sane_second_connection_recovers(self):
        """Degrading evicts the poisoned connection; the next batch
        redials and a now-sane server answers normally."""
        state = {"corrupt": True}

        def sometimes(valid, n):
            return _mut_trailing_garbage(valid, n) if state["corrupt"] \
                else valid

        server = _RogueV2Server(sometimes)
        try:
            remote = _client(
                [f"all@127.0.0.1:{server.port}"], n_shards=1,
                deadline=2.0, try_timeout=0.5, retries=0,
                sync_tables=False, filter_mirrors=False,
            )
            probes = [_fp(i) for i in range(5)]
            assert all(v.degraded for v in remote.probe_many(probes))
            state["corrupt"] = False
            verdicts = remote.probe_many(probes)
            assert all(not v.degraded for v in verdicts)
            assert all(v.labels == [] for v in verdicts)
            assert remote.engine_stats.remote_pool_redials >= 2
            remote.close()
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Negotiation: the hello is mandatory, v2 is the only probe protocol
# ---------------------------------------------------------------------------

class TestNegotiation:
    def test_refused_hello_degrades_every_key(self, monkeypatch):
        """A server that refuses the hello (as a pre-v2 build would,
        with its stock unknown-op reply) cannot be probed: every key
        comes back degraded with a reason naming the hello and the
        endpoint, and neither the probe path nor a table sync raises."""
        def refuse_hello(self, msg, state=None):
            raise RemoteOpError("unknown op 'hello'")

        monkeypatch.setattr(ShardServer, "_op_hello", refuse_hello)
        _, stores = _seed_stores(1)
        thread = ShardServerThread(stores[0], n_shards=3).start()
        try:
            remote = _client(
                [f"all@{thread.endpoint}"], deadline=3.0, try_timeout=1.0,
                retries=0, breaker_failures=100, sync_tables=False,
            )
            probes = [_fp(i) for i in range(0, 80, 2)]
            verdicts = remote.probe_many(probes, counts=True)
            assert all(v.degraded for v in verdicts)
            for verdict in verdicts:
                assert "hello" in verdict.reason
                assert thread.endpoint in verdict.reason
            assert set(remote.last_degraded) == set(probes)
            assert remote.engine_stats.remote_degraded == len(probes)
            remote.sync_tables()  # unreachable hosts are skipped
            assert remote.labels() == []
            remote.close()
        finally:
            thread.stop()

    def test_v2_negotiation_and_pipelining_stay_exact(self):
        """Tiny pipeline chunks force many in-flight frames per bucket;
        answers must stay element-wise exact and the pool must reuse
        sockets across batches."""
        flat, stores = _seed_stores(1)
        thread = ShardServerThread(stores[0], n_shards=3).start()
        try:
            remote = _client(
                [f"all@{thread.endpoint}"], deadline=5.0, try_timeout=2.0,
                pipeline_chunk=4,
            )
            probes = [_fp(i) for i in range(100)]  # 60 hits, 40 misses
            for _ in range(3):
                verdicts = remote.probe_many(probes, counts=True)
                assert [v.labels for v in verdicts] == [
                    flat.lookup(p) for p in probes
                ]
                assert [v.counts for v in verdicts] == [
                    flat.lookup_counts(p) for p in probes
                ]
            stats = remote.engine_stats
            assert stats.remote_encode_s > 0.0  # binary frames were built
            assert stats.remote_bytes_sent > 0
            assert stats.remote_bytes_received > 0
            assert stats.remote_decode_s >= 0.0
            assert stats.remote_pool_reuses >= 2  # batches 2 and 3
            assert stats.remote_pool_checkouts == (
                stats.remote_pool_reuses + stats.remote_pool_redials
            )
            remote.close()
        finally:
            thread.stop()

    def test_unseen_strings_extend_tables_in_band(self):
        """Metrics/intervals the hello never mentioned ride the probe
        frame's table extension; labels born after the handshake come
        back via the reply's new-label table.  (Mirrors off: the write
        below bypasses the client, and a warm mirror would correctly
        short-circuit the key before it exercised the wire path.)"""
        flat, stores = _seed_stores(1)
        thread = ShardServerThread(stores[0], n_shards=3).start()
        try:
            remote = _client(
                [f"all@{thread.endpoint}"], deadline=3.0, try_timeout=1.0,
                filter_mirrors=False,
            )
            remote.probe_many([_fp(0)])  # connection negotiated
            novel = Fingerprint("m_brand_new", 0, (5.0, 95.0), 123.0)
            stores[0].add(novel, "late_label_X")
            flat.add(novel, "late_label_X")
            verdicts = remote.probe_many([novel, _fp(1), _fp(999)])
            assert [v.labels for v in verdicts] == [
                ["late_label_X"], flat.lookup(_fp(1)), []
            ]
            remote.close()
        finally:
            thread.stop()


# ---------------------------------------------------------------------------
# Filter mirrors: lifecycle, write-through, staleness
# ---------------------------------------------------------------------------

class TestFilterMirrors:
    def _fleet(self, stores):
        return [
            ShardServerThread(stores[k], n_shards=3, shards=[k]).start()
            for k in range(3)
        ]

    def test_warm_mirrors_resolve_misses_without_the_wire(self):
        flat, stores = _seed_stores(3)
        threads = self._fleet(stores)
        try:
            remote = _client(
                [f"{k}@{threads[k].endpoint}" for k in range(3)],
                deadline=3.0, try_timeout=1.0,
            )
            assert remote.warm_filter_mirrors()
            stats = remote.engine_stats
            keys_before = stats.remote_keys
            misses = [_fp(1000 + i) for i in range(30)]
            verdicts = remote.probe_many(misses)
            assert all(v.labels == [] and not v.degraded for v in verdicts)
            # Every key is either resolved from the mirrors or (a Bloom
            # false positive) billed to the wire — and the wire share is
            # the small tail, not the rule.
            wired = stats.remote_keys - keys_before
            assert stats.filter_mirror_hits + wired == len(misses)
            assert stats.filter_mirror_hits >= 0.8 * len(misses)
            remote.close()
        finally:
            for thread in threads:
                thread.stop()

    def test_write_through_keeps_new_keys_probeable(self):
        """A key added through this client must not short-circuit as
        absent on the next probe: the write-through inserts it into the
        owning shard's mirror."""
        flat, stores = _seed_stores(3)
        threads = self._fleet(stores)
        try:
            remote = _client(
                [f"{k}@{threads[k].endpoint}" for k in range(3)],
                deadline=3.0, try_timeout=1.0,
            )
            assert remote.warm_filter_mirrors()
            fresh = Fingerprint("m_fresh", 7, (60.0, 120.0), 777.0)
            assert remote.lookup(fresh) == []  # a mirror-resolved miss
            remote.add(fresh, "fresh_app_X")
            assert remote.lookup(fresh) == ["fresh_app_X"]
            # Mirrors stayed fresh: the client's own write advanced the
            # versions it already knows about.
            with remote._mirror_lock:
                assert all(m.fresh for m in remote._mirrors.values())
            remote.close()
        finally:
            for thread in threads:
                thread.stop()

    def test_out_of_band_write_stales_then_refetches(self):
        """A writer bypassing this client advances the store version;
        the next probe reply's version marks that host's mirrors stale,
        disabling the local fast path until a refetch lands."""
        flat, stores = _seed_stores(3)
        threads = self._fleet(stores)
        try:
            remote = _client(
                [f"{k}@{threads[k].endpoint}" for k in range(3)],
                deadline=3.0, try_timeout=1.0,
            )
            assert remote.warm_filter_mirrors()
            sneaky = Fingerprint("m_sneaky", 3, (60.0, 120.0), 31337.0)
            shard = shard_index(sneaky, 3)
            stores[shard].add(sneaky, "sneaky_app_X")  # behind our back
            # A probe that crosses the wire to that shard reports the
            # new store version and stales its mirror.
            hit = next(p for p in (_fp(i) for i in range(60))
                       if shard_index(p, 3) == shard)
            assert remote.lookup(hit)
            with remote._mirror_lock:
                assert not remote._mirrors[shard].fresh
            # Stale mirrors mean no local short-circuit: the sneaky key
            # goes over the wire and is found.
            assert remote.lookup(sneaky) == ["sneaky_app_X"]
            # Refetch restores the fast path with the key present.
            assert remote.warm_filter_mirrors()
            with remote._mirror_lock:
                assert all(m.fresh for m in remote._mirrors.values())
            assert remote.lookup(sneaky) == ["sneaky_app_X"]
            remote.close()
        finally:
            for thread in threads:
                thread.stop()


# ---------------------------------------------------------------------------
# EngineStats: the v2 counters survive the round trip and render
# ---------------------------------------------------------------------------

class TestV2StatsRoundTrip:
    def test_wire_pool_and_mirror_counters_round_trip(self):
        stats = EngineStats()
        stats.add(remote_bytes_sent=1200, remote_bytes_received=3400)
        stats.add(remote_bytes_sent=100, remote_bytes_received=0)
        stats.add(remote_encode_s=0.25, remote_decode_s=0.5)
        stats.add(remote_pool_checkouts=1, remote_pool_redials=1)
        stats.add(remote_pool_checkouts=1, remote_pool_reuses=1)
        stats.add(remote_pool_checkouts=1, remote_pool_reuses=1)
        stats.add(filter_mirror_hits=17)
        clone = EngineStats.from_dict(stats.as_dict())
        assert clone.remote_bytes_sent == 1300
        assert clone.remote_bytes_received == 3400
        assert clone.remote_encode_s == 0.25
        assert clone.remote_decode_s == 0.5
        assert clone.remote_pool_checkouts == 3
        assert clone.remote_pool_reuses == 2
        assert clone.remote_pool_redials == 1
        assert clone.filter_mirror_hits == 17
        assert clone.as_dict() == stats.as_dict()

    def test_wire_counters_render_in_the_remote_block(self):
        stats = EngineStats()
        stats.add(remote_bytes_sent=10, remote_bytes_received=20)
        stats.add(remote_pool_checkouts=1, remote_pool_redials=1)
        stats.add(filter_mirror_hits=2)
        rendered = stats.render()
        assert "remote wire" in rendered
        assert "remote pool" in rendered
        assert "mirror_hits=2" in rendered

    def test_empty_stats_omit_the_remote_block(self):
        assert "remote wire" not in EngineStats().render()


# ---------------------------------------------------------------------------
# The column path: equal to the flat reference key by key
# ---------------------------------------------------------------------------

def _variant(i: int, numpy_node: bool, zero: bool, neg_zero: bool,
             unseen_metric: bool, int_interval: bool) -> Fingerprint:
    """Key ``i`` (``i < 60`` stored, the rest misses) in one of the
    spellings that must resolve exactly like its plain form."""
    base = _fp(i)
    value = 0.0 if zero else base.value
    if neg_zero and value == 0.0:
        value = -0.0
    lo, hi = base.interval
    return Fingerprint(
        metric="m_never_seen" if unseen_metric else base.metric,
        node=np.int64(base.node) if numpy_node else base.node,
        interval=(int(lo), int(hi)) if int_interval else (lo, hi),
        value=value,
    )


_probe = st.builds(
    _variant, st.integers(0, 89), st.booleans(),
    st.integers(0, 9).map(lambda k: k == 0), st.booleans(),
    st.integers(0, 9).map(lambda k: k == 0), st.booleans(),
)


@pytest.fixture(scope="module")
def column_fleet():
    """Three one-shard hosts and a client per mirror mode."""
    flat, stores = _seed_stores(3)
    threads = [
        ShardServerThread(stores[k], n_shards=3, shards=[k]).start()
        for k in range(3)
    ]
    specs = [f"{k}@{threads[k].endpoint}" for k in range(3)]
    clients = {
        "fresh": _client(specs, deadline=5.0, try_timeout=2.0),
        "stale": _client(specs, deadline=5.0, try_timeout=2.0),
        "off": _client(specs, deadline=5.0, try_timeout=2.0,
                       filter_mirrors=False, pipeline_chunk=3),
    }
    assert clients["fresh"].warm_filter_mirrors()
    assert clients["stale"].warm_filter_mirrors()
    yield flat, clients
    for client in clients.values():
        client.close()
    for thread in threads:
        thread.stop()


class TestColumnPath:
    @pytest.mark.parametrize("mirrors", ["fresh", "stale", "off"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(batch=st.lists(_probe, max_size=40).flatmap(
        lambda keys: st.lists(
            st.sampled_from(keys), min_size=len(keys),
            max_size=2 * len(keys),
        ) if keys else st.just([])
    ))
    def test_lookup_and_probe_equal_the_flat_reference(
        self, column_fleet, mirrors, batch
    ):
        flat, clients = column_fleet
        remote = clients[mirrors]
        remote._route_cache.clear()  # every key takes the first-seen path
        if mirrors == "fresh":
            assert remote.warm_filter_mirrors()
        elif mirrors == "stale":
            with remote._mirror_lock:
                for mirror in remote._mirrors.values():
                    mirror.fresh = False
        assert remote.lookup_many(batch) == [flat.lookup(fp) for fp in batch]
        assert remote.last_degraded == {}
        verdicts = remote.probe_many(batch, counts=True)
        assert [v.labels for v in verdicts] == [
            flat.lookup(fp) for fp in batch
        ]
        assert [v.counts for v in verdicts] == [
            flat.lookup_counts(fp) for fp in batch
        ]
        assert not any(v.degraded for v in verdicts)

    def test_negative_zero_is_one_key(self, column_fleet):
        flat, clients = column_fleet
        remote = clients["fresh"]
        remote._route_cache.clear()
        assert remote.warm_filter_mirrors()
        pos = _fp(0)
        assert pos.value == 0.0 and flat.lookup(pos)
        neg = Fingerprint(pos.metric, np.int64(pos.node), pos.interval, -0.0)
        keys_before = remote.engine_stats.remote_keys
        assert remote.lookup_many([neg, pos, neg]) == [flat.lookup(pos)] * 3
        assert remote.engine_stats.remote_keys - keys_before == 1

    def test_dead_host_degrades_exactly_its_shards_keys(self):
        flat, stores = _seed_stores(3)
        threads = [
            ShardServerThread(stores[k], n_shards=3, shards=[k]).start()
            for k in range(3)
        ]
        try:
            specs = [f"{k}@{threads[k].endpoint}" for k in range(3)]
            threads[2].stop()
            remote = _client(
                specs, deadline=1.5, try_timeout=0.3, retries=1,
                backoff_base=0.01, backoff_cap=0.02, filter_mirrors=False,
            )
            keys = [
                _variant(i, i % 2 == 0, i % 7 == 0, True, False, i % 3 == 0)
                for i in range(80)
            ]
            batch = keys + keys[::-3]
            dead = {fp for fp in keys if shard_index(fp, 3) == 2}
            assert dead and len(dead) < len(keys)
            verdicts = remote.probe_many(batch, counts=True)
            for fp, verdict in zip(batch, verdicts):
                if fp in dead:
                    assert verdict.degraded and verdict.reason
                    assert verdict.labels == [] and verdict.counts is None
                else:
                    assert not verdict.degraded
                    assert verdict.labels == flat.lookup(fp)
                    assert verdict.counts == flat.lookup_counts(fp)
            assert set(remote.last_degraded) == dead
            # Keyed by the first-seen spelling of each distinct key.
            first = {}
            for fp in batch:
                first.setdefault(fp, fp)
            assert all(k is first[k] for k in remote.last_degraded)
            before = remote.engine_stats.remote_degraded
            assert remote.lookup_many(batch) == [
                [] if fp in dead else flat.lookup(fp) for fp in batch
            ]
            assert remote.engine_stats.remote_degraded - before == len(dead)
            remote.close()
        finally:
            for thread in threads:
                thread.stop()

    def test_counter_deltas_of_a_fixed_sequence(self):
        """The column path sends the same keys over the wire as the
        per-key path it replaced: these deltas are that path's."""
        flat, stores = _seed_stores(3)
        threads = [
            ShardServerThread(stores[k], n_shards=3, shards=[k]).start()
            for k in range(3)
        ]
        try:
            specs = [f"{k}@{threads[k].endpoint}" for k in range(3)]
            remote = _client(
                specs, deadline=2.0, try_timeout=0.5, retries=1,
                backoff_base=0.01, backoff_cap=0.02,
            )
            assert remote.warm_filter_mirrors()
            stats = remote.engine_stats
            names = ("remote_calls", "remote_keys", "filter_mirror_hits",
                     "remote_degraded")
            seen = []

            def step(call):
                before = [getattr(stats, n) for n in names]
                call()
                seen.append(tuple(
                    getattr(stats, n) - b for n, b in zip(names, before)
                ))

            mixed = [_fp(i) for i in range(0, 120, 3)]
            step(lambda: remote.lookup_many(mixed + mixed[:10]))
            step(lambda: remote.lookup_many(mixed))  # routes now cached
            odd = [_variant(i, True, i % 4 == 0, True, i % 5 == 0, True)
                   for i in range(30, 110, 2)]
            step(lambda: remote.probe_many(odd, counts=True))
            threads[1].stop()
            step(lambda: remote.lookup_many(
                [_fp(i) for i in range(200, 260)] + mixed
            ))
            assert seen == PINNED_DELTAS
            remote.close()
        finally:
            for thread in threads:
                thread.stop()


#: (remote_calls, remote_keys, filter_mirror_hits, remote_degraded) per
#: step of ``test_counter_deltas_of_a_fixed_sequence``, as produced by
#: the per-key client path.
PINNED_DELTAS = [
    (3, 21, 19, 0), (3, 21, 19, 0), (3, 7, 17, 0), (4, 27, 79, 6),
]
