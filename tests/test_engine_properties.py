"""Property tests: the engine is *exactly* the flat EFD, only faster.

Sharding and batching are pure reorganizations — every observable
(lookups, tie arrays, vote counts, stats) must be byte-identical to the
single-dictionary, one-execution-at-a-time reference path.  These tests
drive both layers with randomized dictionaries (seeded — reproducible)
and with the synthetic datasets, across storage layouts and shard counts
{1, 2, 4, 8}.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint, build_fingerprints
from repro.core.matcher import match_fingerprints, vote
from repro.core.recognizer import EFDRecognizer
from repro.core.streaming import StreamingRecognizer, StreamSession
from repro.engine import (
    BatchRecognizer,
    ShardedDictionary,
    load_columnar,
    save_columnar,
    shard_index,
)
from repro.engine.batch import build_fingerprints_batch

SHARD_COUNTS = (1, 2, 4, 8)

_METRICS = ("nr_mapped_vmstat", "Committed_AS_meminfo")
_INTERVALS = ((60.0, 120.0), (0.0, 60.0))
_APPS = ("ft", "mg", "sp", "bt", "miniAMR")
_INPUTS = ("X", "Y", "Z")


def _random_fingerprint(rng: random.Random) -> Fingerprint:
    return Fingerprint(
        metric=rng.choice(_METRICS),
        node=rng.randrange(4),
        interval=rng.choice(_INTERVALS),
        value=float(rng.randrange(1, 200) * 100),
    )


def _random_pairs(rng: random.Random, n: int):
    return [
        (
            _random_fingerprint(rng),
            f"{rng.choice(_APPS)}_{rng.choice(_INPUTS)}",
        )
        for _ in range(n)
    ]


def _build_both(seed: int, n_shards: int, n_pairs: int = 300):
    rng = random.Random(seed)
    pairs = _random_pairs(rng, n_pairs)
    flat = ExecutionFingerprintDictionary()
    sharded = ShardedDictionary(n_shards)
    for fp, label in pairs:
        flat.add(fp, label)
        sharded.add(fp, label)
    return flat, sharded, rng


def _fed_sessions(recognizer, records):
    """One session per record, fed its whole nr_mapped_vmstat series."""
    streaming = StreamingRecognizer.from_recognizer(recognizer)
    sessions = []
    for record in records:
        session = streaming.open_session(n_nodes=record.n_nodes)
        for node in range(record.n_nodes):
            series = record.series("nr_mapped_vmstat", node)
            session.ingest_many(node, series.times, series.values)
        sessions.append(session)
    return sessions


#: A depth at which every ``_random_fingerprint`` value rounds to itself.
_EXACT_DEPTH = 6


def _session_of(fps, metric=_METRICS[0], interval=_INTERVALS[0]):
    """A ready session whose node ``i`` has ``fps[i]``'s value as its
    rounded mean (no sample where ``fps[i]`` is None).  Every non-None
    ``fps[i]`` has this metric and interval, and node ``i``."""
    session = StreamSession(
        None, metric, _EXACT_DEPTH, interval, n_nodes=len(fps)
    )
    session.restore(
        [0.0 if fp is None else fp.value for fp in fps],
        [0 if fp is None else 1 for fp in fps],
        [True] * len(fps), len(fps),
    )
    return session


class TestShardedEqualsFlat:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_read_contract_identical(self, n_shards):
        flat, sharded, _ = _build_both(seed=n_shards, n_shards=n_shards)
        assert len(sharded) == len(flat)
        assert sharded.labels() == flat.labels()
        assert sharded.app_names() == flat.app_names()
        assert sharded.metrics() == flat.metrics()
        assert sharded.intervals() == flat.intervals()
        assert list(sharded.entries()) == list(flat.entries())
        assert sharded.stats() == flat.stats()
        assert sharded.collisions() == flat.collisions()
        for app in _APPS:
            assert sharded.fingerprints_for(app) == flat.fingerprints_for(app)

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_lookups_identical(self, n_shards):
        flat, sharded, rng = _build_both(seed=10 + n_shards, n_shards=n_shards)
        queries = [fp for fp, _ in sharded.entries()]
        queries += [_random_fingerprint(rng) for _ in range(100)]  # misses too
        for fp in queries:
            assert sharded.lookup(fp) == flat.lookup(fp)
            assert sharded.lookup_counts(fp) == flat.lookup_counts(fp)
            assert (fp in sharded) == (fp in flat)
        assert sharded.lookup(None) == flat.lookup(None) == []

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_match_and_vote_identical(self, n_shards):
        flat, sharded, rng = _build_both(seed=20 + n_shards, n_shards=n_shards)
        known = [fp for fp, _ in flat.entries()]
        for _ in range(50):
            fps = []
            for _ in range(rng.randrange(1, 6)):
                roll = rng.random()
                if roll < 0.2:
                    fps.append(None)  # node without a fingerprint
                elif roll < 0.5:
                    fps.append(_random_fingerprint(rng))  # likely a miss
                else:
                    fps.append(rng.choice(known))
            assert match_fingerprints(sharded, fps) == match_fingerprints(flat, fps)

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_from_flat_and_to_flat_round_trip(self, n_shards):
        flat, _, _ = _build_both(seed=30 + n_shards, n_shards=n_shards)
        sharded = ShardedDictionary.from_flat(flat, n_shards)
        assert list(sharded.entries()) == list(flat.entries())
        back = sharded.to_flat()
        assert list(back.entries()) == list(flat.entries())
        assert back.labels() == flat.labels()
        assert back.stats() == flat.stats()

    def test_keys_land_on_their_hash_shard(self):
        _, sharded, _ = _build_both(seed=99, n_shards=8)
        for i, shard in enumerate(sharded.shards):
            for fp, _ in shard.entries():
                assert shard_index(fp, 8) == i

    def test_shard_routing_is_deterministic(self):
        rng = random.Random(4)
        for _ in range(50):
            fp = _random_fingerprint(rng)
            assert shard_index(fp, 8) == shard_index(
                Fingerprint(fp.metric, fp.node, fp.interval, fp.value), 8
            )

    def test_negative_zero_routes_like_positive_zero(self):
        # Fingerprint(-0.0) == Fingerprint(0.0) (float equality), so the
        # two must be one key in every shard layout.
        pos = Fingerprint("m", 0, (60.0, 120.0), 0.0)
        neg = Fingerprint("m", 0, (60.0, 120.0), -0.0)
        assert pos == neg
        for n_shards in SHARD_COUNTS:
            assert shard_index(pos, n_shards) == shard_index(neg, n_shards)
        sharded = ShardedDictionary(8)
        sharded.add(pos, "ft_X")
        sharded.add(neg, "ft_X")
        assert len(sharded) == 1
        assert sharded.lookup_counts(neg) == {"ft_X": 2}

    def test_numpy_typed_keys_route_like_python_typed(self):
        import numpy as np

        py = Fingerprint("m", 3, (60.0, 120.0), 6000.0)
        npy = Fingerprint(
            "m", int(np.int64(3)), (60.0, 120.0), np.float64(6000.0)
        )
        assert py == npy
        for n_shards in SHARD_COUNTS:
            assert shard_index(py, n_shards) == shard_index(npy, n_shards)
        sharded = ShardedDictionary(8)
        sharded.add(py, "ft_X")
        assert sharded.lookup(npy) == ["ft_X"]
        # And the raw-numpy-node variant (no int() coercion by caller):
        raw = Fingerprint("m", np.int64(3), (60.0, 120.0), np.float64(6000.0))
        assert shard_index(raw, 8) == shard_index(py, 8)

    def test_negative_zero_rounds_like_scalar(self):
        from repro.core.rounding import round_depth, round_depth_array

        arr = round_depth_array([-0.0, 0.0, 5.28], 2)
        assert str(arr[0]) == str(round_depth(-0.0, 2)) == "0.0"
        assert arr[2] == round_depth(5.28, 2)


class TestBulkAddAndMerge:
    def test_bulk_add_equals_sequential(self):
        rng = random.Random(55)
        pairs = _random_pairs(rng, 200)
        sequential = ShardedDictionary(4)
        for fp, label in pairs:
            sequential.add(fp, label)
        bulk = ShardedDictionary(4)
        inserted = bulk.bulk_add(pairs)
        assert inserted == len(pairs)
        assert list(bulk.entries()) == list(sequential.entries())
        assert bulk.labels() == sequential.labels()
        assert bulk.stats() == sequential.stats()

    def test_bulk_add_skips_none(self):
        rng = random.Random(56)
        pairs = _random_pairs(rng, 20)
        with_gaps = [(None, "ft_X")] + pairs + [(None, "mg_Y")]
        sharded = ShardedDictionary(2)
        assert sharded.bulk_add(with_gaps) == len(pairs)
        # None carries no fingerprint but its label still registers, as
        # in add_many + register_label semantics the engine documents.
        assert "mg_Y" in sharded.labels()

    def test_merge_matches_flat_merge(self):
        flat_a, sharded_a, _ = _build_both(seed=60, n_shards=4, n_pairs=150)
        flat_b, sharded_b, _ = _build_both(seed=61, n_shards=8, n_pairs=150)
        flat_a.merge(flat_b)
        sharded_a.merge(sharded_b)  # shard counts differ: keys re-route
        assert sorted(
            (str(fp), labels) for fp, labels in sharded_a.entries()
        ) == sorted((str(fp), labels) for fp, labels in flat_a.entries())
        for fp, _ in flat_a.entries():
            assert sharded_a.lookup_counts(fp) == flat_a.lookup_counts(fp)
        assert sharded_a.stats() == flat_a.stats()


class TestBatchEqualsSequential:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_dataset):
        recognizer = EFDRecognizer(depth=2).fit(tiny_dataset)
        records = list(tiny_dataset)
        sequential = [
            match_fingerprints(
                recognizer.dictionary_,
                build_fingerprints(r, "nr_mapped_vmstat", 2),
            )
            for r in records
        ]
        return recognizer, records, sequential

    def test_build_fingerprints_batch_identical(self, fitted):
        _, records, _ = fitted
        batched = build_fingerprints_batch(records, "nr_mapped_vmstat", 2)
        expected = [
            build_fingerprints(r, "nr_mapped_vmstat", 2) for r in records
        ]
        assert batched == expected

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_recognize_records_equals_loop(self, fitted, n_shards):
        recognizer, records, sequential = fitted
        sharded = ShardedDictionary.from_flat(recognizer.dictionary_, n_shards)
        engine = BatchRecognizer(sharded, depth=2)
        assert engine.recognize_records(records) == sequential
        # Second pass exercises the cached lookup index.
        assert engine.recognize_records(records) == sequential

    def test_flat_dictionary_accepted_too(self, fitted):
        recognizer, records, sequential = fitted
        engine = BatchRecognizer(recognizer.dictionary_, depth=2)
        assert engine.recognize_records(records) == sequential

    def test_recognize_sessions_counts_hits_like_lookups(self, fitted):
        recognizer, records, _ = fitted
        sessions = _fed_sessions(recognizer, records)
        sharded = ShardedDictionary.from_flat(recognizer.dictionary_, 4)
        engine = BatchRecognizer(sharded, depth=2)
        assert engine.recognize_sessions(sessions) == [
            s.verdict() for s in sessions
        ]
        assert engine.stats.n_hits == sum(
            1
            for s in sessions
            for fp in s.fingerprints()
            if fp is not None and sharded.lookup(fp)
        )

    def test_index_invalidated_on_dictionary_growth(self, fitted):
        recognizer, records, _ = fitted
        sharded = ShardedDictionary.from_flat(recognizer.dictionary_, 4)
        engine = BatchRecognizer(sharded, depth=2)
        before = engine.recognize_records(records[:4])
        assert not before[0].is_unknown
        # Teach the store a colliding label for every key the first
        # record matched; the next batch must see it.
        fps = build_fingerprints(records[0], "nr_mapped_vmstat", 2)
        for fp in fps:
            if fp is not None:
                sharded.add(fp, "zz_Q")
        after = engine.recognize_records(records[:1])
        assert "zz" in after[0].votes

    def test_repeated_patterns_return_independent_results(self, fitted):
        recognizer, records, _ = fitted
        engine = BatchRecognizer(recognizer.dictionary_, depth=2)
        # Same record twice: identical verdicts, but independent objects
        # (the sequential path never aliases), so in-place mutation of
        # one must not leak into the other.
        a, b = engine.recognize_records([records[0], records[0]])
        assert a == b
        assert a is not b
        assert a.votes is not b.votes
        assert a.matched_labels is not b.matched_labels
        a.votes["poisoned"] = 99
        assert "poisoned" not in b.votes

    def test_recognize_sessions_equals_individual_verdicts(self, fitted):
        recognizer, records, _ = fitted
        sessions = _fed_sessions(recognizer, records[:10])
        engine = BatchRecognizer(
            ShardedDictionary.from_flat(recognizer.dictionary_, 4), depth=2
        )
        batch = engine.recognize_sessions(sessions)
        assert batch == [s.verdict() for s in sessions]

    def test_recognize_sessions_requires_ready(self, fitted):
        recognizer, records, _ = fitted
        streaming = StreamingRecognizer.from_recognizer(recognizer)
        session = streaming.open_session(n_nodes=records[0].n_nodes)
        engine = BatchRecognizer(recognizer.dictionary_, depth=2)
        with pytest.raises(RuntimeError, match="not yet complete"):
            engine.recognize_sessions([session])
        assert engine.recognize_sessions([session], force=True)[0].is_unknown

    def test_predict_uses_unknown_label(self, fitted):
        recognizer, records, _ = fitted
        engine = BatchRecognizer(
            recognizer.dictionary_,
            depth=2,
            interval=(900.0, 960.0),  # beyond the data: every node misses
            unknown_label="???",
        )
        assert engine.predict(records[:3]) == ["???"] * 3

    def test_stats_accumulate(self, fitted):
        recognizer, records, _ = fitted
        engine = BatchRecognizer(recognizer.dictionary_, depth=2)
        engine.recognize_records(records[:5])
        engine.recognize_records(records[5:8])
        assert engine.stats.n_batches == 2
        assert engine.stats.n_executions == 8
        assert engine.stats.n_lookups == sum(
            r.n_nodes for r in records[:8]
        )
        assert engine.stats.hit_rate > 0.9


class TestColumnarBackendEqualsFlat:
    """The storage-backend equivalence matrix.

    Every backend — flat, in-memory sharded, columnar (mmap) and the
    remote fan-out client over shard-server threads — must produce
    byte-identical MatchResults, across shard counts, on both the
    record path and the session path (one verdict kernel)."""

    @pytest.fixture(scope="class")
    def fitted(self, tiny_dataset):
        recognizer = EFDRecognizer(depth=2).fit(tiny_dataset)
        records = list(tiny_dataset)
        sequential = [
            match_fingerprints(
                recognizer.dictionary_,
                build_fingerprints(r, "nr_mapped_vmstat", 2),
            )
            for r in records
        ]
        return recognizer, records, sequential

    @pytest.fixture
    def stores(self, tmp_path):
        """``stores(recognizer, n_shards)``: every backend loaded from
        the recognizer's dictionary; the remote client talks to two
        columnar shard hosts (one at a single shard), each recording
        the ops it is sent in ``host_ops``.  Torn down after the test."""
        from repro.engine.remote import RemoteShardBackend, ShardServerThread

        closers = []
        host_ops = []

        def build(recognizer, n_shards):
            flat = recognizer.dictionary_
            sharded = ShardedDictionary.from_flat(flat, n_shards)
            root = tmp_path / f"stores-{n_shards}"
            save_columnar(sharded, str(root / "col"))
            specs = []
            for k in range(min(2, n_shards)):
                directory = str(root / f"host{k}")
                save_columnar(sharded, directory)
                owned = [s for s in range(n_shards) if s % 2 == k]
                thread = ShardServerThread(
                    load_columnar(directory), n_shards=n_shards,
                    shards=owned,
                ).start()
                closers.append(thread.server.store.close)
                closers.append(thread.stop)
                dispatch = thread.server._dispatch

                def recording(msg, state, dispatch=dispatch):
                    host_ops.append(msg.get("op"))
                    return dispatch(msg, state)

                thread.server._dispatch = recording
                specs.append(
                    f"{','.join(str(s) for s in owned)}@{thread.endpoint}"
                )
            remote = RemoteShardBackend(
                specs, n_shards=n_shards, rng=random.Random(0)
            )
            closers.append(remote.close)
            columnar = load_columnar(str(root / "col"))
            closers.append(columnar.close)
            return {
                "flat": flat,
                "sharded": sharded,
                "columnar": columnar,
                "remote": remote,
            }

        build.host_ops = host_ops
        yield build
        for close in reversed(closers):
            close()

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_recognize_records_identical_across_backends(
        self, fitted, n_shards, stores
    ):
        recognizer, records, sequential = fitted
        for name, store in stores(recognizer, n_shards).items():
            engine = BatchRecognizer(store, depth=2)
            del stores.host_ops[:]
            assert engine.recognize_records(records) == sequential, name
            # Second pass exercises the memoized hits.
            assert engine.recognize_records(records) == sequential, name
            # Nothing walks the store: no shard dump crosses the wire.
            assert "entries" not in stores.host_ops, name

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_recognize_sessions_identical_across_backends(
        self, fitted, n_shards, stores
    ):
        recognizer, records, _ = fitted
        sessions = _fed_sessions(recognizer, records)
        expected = [s.verdict() for s in sessions]
        reference = None
        for name, store in stores(recognizer, n_shards).items():
            engine = BatchRecognizer(store, depth=2)
            assert engine.recognize_sessions(sessions) == expected, name
            if reference is None:
                reference = engine.stats.n_hits
            assert engine.stats.n_hits == reference, name

    def test_records_after_a_learn_walk_no_remote_shard(
        self, fitted, stores
    ):
        # A learn moves the store's version; the next batch must see it
        # without dumping a shard over the wire.
        recognizer, records, _ = fitted
        remote = stores(recognizer, 4)["remote"]
        reference = ShardedDictionary.from_flat(
            recognizer.dictionary_, 1
        ).to_flat()
        engine = BatchRecognizer(remote, depth=2)
        engine.recognize_records(records[:4])
        for fp in build_fingerprints(records[0], "nr_mapped_vmstat", 2):
            if fp is not None:
                remote.add(fp, "zz_Q")
                reference.add(fp, "zz_Q")
        del stores.host_ops[:]
        got = engine.recognize_records(records[:4])
        assert "zz" in got[0].votes
        assert got == [
            match_fingerprints(
                reference, build_fingerprints(r, "nr_mapped_vmstat", 2)
            )
            for r in records[:4]
        ]
        assert "entries" not in stores.host_ops

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_columnar_batch_path_never_hydrates(
        self, fitted, n_shards, stores, no_dict_efd
    ):
        recognizer, records, sequential = fitted
        built = stores(recognizer, n_shards)
        store, reference = built["columnar"], built["sharded"]
        engine = BatchRecognizer(store, depth=2)
        sessions = _fed_sessions(recognizer, records)
        expected = [s.verdict() for s in sessions]
        fingerprint_lists = [
            build_fingerprints(r, "nr_mapped_vmstat", 2) for r in records
        ]
        with no_dict_efd():
            assert engine.recognize_records(records) == sequential
            assert engine.recognize_sessions(sessions) == expected
            # Point reads and whole-store walks read the columns too.
            fp = next(fp for fp in fingerprint_lists[0] if fp is not None)
            assert store.lookup(fp) == reference.lookup(fp)
            assert store.lookup_counts(fp) == reference.lookup_counts(fp)
            assert (fp in store) == (fp in reference)
            assert list(store.entries()) == list(reference.entries())
            assert store.stats() == reference.stats()

    def test_columnar_sessions_equal_individual_verdicts(
        self, fitted, stores, no_dict_efd
    ):
        recognizer, records, _ = fitted
        store = stores(recognizer, 4)["columnar"]
        sessions = _fed_sessions(recognizer, records[:10])
        engine = BatchRecognizer(store, depth=2)
        expected = [s.verdict() for s in sessions]
        with no_dict_efd():
            assert engine.recognize_sessions(sessions) == expected

    def test_columnar_index_invalidated_on_growth(self, fitted, stores):
        recognizer, records, _ = fitted
        store = stores(recognizer, 4)["columnar"]
        engine = BatchRecognizer(store, depth=2)
        before = engine.recognize_records(records[:4])
        assert not before[0].is_unknown
        fps = build_fingerprints(records[0], "nr_mapped_vmstat", 2)
        for fp in fps:
            if fp is not None:
                store.add(fp, "zz_Q")
        after = engine.recognize_records(records[:1])
        assert "zz" in after[0].votes
        # The grown store matches a flat dictionary grown the same way.
        flat = recognizer.dictionary_
        grown = ShardedDictionary.from_flat(flat, 1).to_flat()
        for fp in fps:
            if fp is not None:
                grown.add(fp, "zz_Q")
        expected = [
            match_fingerprints(
                grown, build_fingerprints(r, "nr_mapped_vmstat", 2)
            )
            for r in records[:4]
        ]
        assert engine.recognize_records(records[:4]) == expected

    def test_columnar_writes_keep_the_batch_path(self, fitted, stores):
        # Writes reach a columnar store only through its delta-log, so
        # the batch kernel keeps searching the key-hash tables while
        # the answers follow the writes — for records and sessions.
        recognizer, records, _ = fitted
        store = stores(recognizer, 4)["columnar"]
        reference = ShardedDictionary.from_flat(recognizer.dictionary_, 1).to_flat()
        store.register_label("zz_Q")
        reference.register_label("zz_Q")
        for fp in build_fingerprints(records[0], "nr_mapped_vmstat", 2):
            if fp is not None:
                store.add(fp, "zz_Q")
                reference.add(fp, "zz_Q")
        expected = [
            match_fingerprints(
                reference, build_fingerprints(r, "nr_mapped_vmstat", 2)
            )
            for r in records[:6]
        ]
        assert "zz" in expected[0].votes
        sessions = _fed_sessions(recognizer, records[:6])
        engine = BatchRecognizer(store, depth=2)
        for _ in (1, 2):
            assert engine.recognize_sessions(sessions) == expected
            assert engine.recognize_records(records[:6]) == expected

    def test_warm_prebuilds_and_keeps_results_identical(
        self, fitted, stores, no_dict_efd
    ):
        recognizer, records, sequential = fitted
        store = stores(recognizer, 2)["columnar"]
        with no_dict_efd():
            engine = BatchRecognizer(store, depth=2).warm()
            # Warm reads (and checksums) every shard's key columns and
            # builds the merged key-hash table, without a dict EFD.
            assert all(f._verified for f in store._files)
            assert store._table is not None
            assert engine.recognize_records(records) == sequential
            assert engine.warm() is engine

    def test_lookup_many_returns_independent_lists(self, fitted, stores):
        recognizer, records, _ = fitted
        store = stores(recognizer, 2)["columnar"]
        fp = next(
            fp for fp in build_fingerprints(records[0], "nr_mapped_vmstat", 2)
            if fp is not None
        )
        first = store.lookup_many([fp])[0]
        assert first == store.lookup(fp)
        first.append("poisoned")  # lookup()'s contract permits mutation
        assert store.lookup_many([fp])[0] == store.lookup(fp)

    def test_empty_batch_returns_empty_on_every_backend(
        self, fitted, stores
    ):
        recognizer, _, _ = fitted
        for name, store in stores(recognizer, 2).items():
            engine = BatchRecognizer(store, depth=2)
            assert engine.recognize_records([]) == [], name
            assert engine.recognize_sessions([]) == [], name
            assert engine.stats.n_hits == 0, name


class TestStorageEquivalenceUnderInterleavings:
    """Element-wise verdict equality across {flat, in-memory sharded,
    columnar} under random learn/compact/reshard interleavings.

    The flat dictionary is the oracle; the columnar directories (one
    with key filters, one without) go through real on-disk compactions
    and reshards between probes, so the delta-log overlay, the rebuilt
    filters, and the generation machinery are all exercised mid-stream.
    """

    N_OPS = 10
    _COLUMNAR = ("columnar-mmap", "columnar-unfiltered")

    def _assert_equal(self, flat, stores, probes):
        expected = [flat.lookup(fp) for fp in probes]
        for name, store in stores.items():
            got = store.lookup_many(probes)
            assert got is not None, name
            assert got == expected, name
            for fp in probes:
                assert (fp in store) == (fp in flat), (name, str(fp))
                assert store.lookup_counts(fp) == flat.lookup_counts(fp), name

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_random_interleavings(self, seed, tmp_path):
        from repro.engine import compact_shards, reshard, reshard_store

        rng = random.Random(500 + seed)
        pairs = _random_pairs(rng, 150)
        flat = ExecutionFingerprintDictionary()
        sharded = ShardedDictionary(4)
        for fp, label in pairs:
            flat.add(fp, label)
            sharded.add(fp, label)
        dirs = {
            "columnar-mmap": str(tmp_path / "mmap"),
            "columnar-unfiltered": str(tmp_path / "unfiltered"),
        }
        save_columnar(sharded, dirs["columnar-mmap"])
        save_columnar(sharded, dirs["columnar-unfiltered"], filters=False)
        stores = {"sharded": sharded}
        for name, path in dirs.items():
            stores[name] = load_columnar(path)

        def probes():
            known = [fp for fp, _ in flat.entries()]
            mix = [rng.choice(known) for _ in range(15)]
            mix += [_random_fingerprint(rng) for _ in range(15)]  # misses
            return mix

        self._assert_equal(flat, stores, probes())
        for _ in range(self.N_OPS):
            op = rng.choice(("learn", "learn", "compact", "reshard"))
            if op == "learn":
                for fp, label in _random_pairs(rng, rng.randrange(1, 5)):
                    flat.add(fp, label)
                    for store in stores.values():
                        store.add(fp, label)
            elif op == "compact":
                for name in self._COLUMNAR:
                    stores[name].close()
                    try:
                        compact_shards(dirs[name])
                    except ValueError:
                        pass  # nothing pending — a no-op interleaving
                    stores[name] = load_columnar(dirs[name])
            else:
                n_new = rng.choice((1, 2, 3, 5, 8))
                # The in-memory store reshards in memory.  The columnar
                # adds hit the on-disk delta-log, so the directory
                # reshard folds them.
                stores["sharded"] = reshard_store(stores["sharded"], n_new)
                for name in self._COLUMNAR:
                    stores[name].close()
                    reshard(dirs[name], n_new)
                    stores[name] = load_columnar(dirs[name])
            self._assert_equal(flat, stores, probes())
        for name in self._COLUMNAR:
            stores[name].close()


class TestReplicaEqualsLeaderUnderInterleavings:
    """Element-wise verdict equality across a live replication link.

    The flat dictionary is the oracle; the leader mutates a real
    on-disk columnar store whose delta-log a
    :class:`~repro.engine.replicate.ReplicationPublisher` ships to an
    attached :class:`~repro.engine.replicate.ReplicationFollower`.
    Random learn / compact / ship interleavings exercise record
    streaming, catch-up, and base swaps mid-stream; at every ``ship``
    point the replica has converged to the leader's exact
    ``(generation, applied)`` position and its verdicts must be
    element-wise equal to the leader's — which must equal the flat
    oracle's — with and without the base's key filters.
    """

    N_OPS = 12

    @pytest.mark.parametrize("filters", (True, False),
                             ids=("filtered", "unfiltered"))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_random_learn_compact_ship(self, seed, filters, tmp_path):
        import asyncio

        from repro.engine.replicate import (
            ReplicationFollower,
            ReplicationPublisher,
        )

        rng = random.Random(700 + seed)
        pairs = _random_pairs(rng, 120)
        flat = ExecutionFingerprintDictionary()
        sharded = ShardedDictionary(3)
        for fp, label in pairs:
            flat.add(fp, label)
            sharded.add(fp, label)
        leader_dir = str(tmp_path / "leader")
        replica_dir = str(tmp_path / "replica")
        save_columnar(sharded, leader_dir, filters=filters)

        def probes():
            known = [fp for fp, _ in flat.entries()]
            mix = [rng.choice(known) for _ in range(10)]
            mix += [_random_fingerprint(rng) for _ in range(10)]  # misses
            return mix

        def assert_verdicts_equal(replica, leader):
            fps = probes()
            oracle = match_fingerprints(flat, fps)
            assert match_fingerprints(leader, fps) == oracle
            assert match_fingerprints(replica, fps) == oracle
            assert replica.lookup_many(fps) == [flat.lookup(fp) for fp in fps]
            for fp in fps:
                assert replica.lookup_counts(fp) == flat.lookup_counts(fp)

        async def run():
            leader = load_columnar(leader_dir)
            async with ReplicationPublisher(
                leader_dir, port=0, poll_interval=0.005, heartbeat=0.02
            ) as publisher:
                host, port = publisher.tcp_address
                follower = ReplicationFollower(
                    replica_dir, host=host, port=port, reconnect_delay=0.01
                )
                await follower.start()
                assert await follower.wait_ready(timeout=30.0)
                follower.attach(load_columnar(replica_dir))
                try:
                    for _ in range(self.N_OPS):
                        op = rng.choice(
                            ("learn", "learn", "learn", "compact", "ship")
                        )
                        if op == "learn":
                            for fp, label in _random_pairs(
                                rng, rng.randrange(1, 5)
                            ):
                                count = rng.randrange(1, 3)
                                flat.add_repeated(fp, label, count)
                                leader.add_repeated(fp, label, count)
                        elif op == "compact":
                            # Compact *without* waiting for the replica:
                            # a behind follower must catch up through
                            # the base-swap snapshot, not the records.
                            leader.compact_delta()
                        else:
                            assert await follower.wait_position(
                                leader._delta.generation,
                                leader.delta_pending,
                                timeout=30.0,
                            ), f"replica stuck (lag={follower.lag})"
                            assert_verdicts_equal(follower.store, leader)
                    assert await follower.wait_position(
                        leader._delta.generation, leader.delta_pending,
                        timeout=30.0,
                    ), f"replica stuck (lag={follower.lag})"
                    assert_verdicts_equal(follower.store, leader)
                finally:
                    await follower.close()
                    follower.store.close()
                    leader.close()

        asyncio.run(run())


class TestRemoteEqualsFlatUnderInterleavings:
    """Element-wise equality of the distributed fan-out client.

    Each host loads a real columnar directory and serves
    a slice of the shard space over the framed probe protocol; the
    flat dictionary is the oracle.  Learns go through
    :class:`~repro.engine.remote.RemoteShardBackend` mid-stream — the
    write path propagates to the owning hosts — and every probe batch
    (plain, with counts, and through the batch matcher) must stay
    element-wise identical to the single-process path, across host
    counts {1, 2, 3}, with and without the hosts' key filters.
    """

    N_SHARDS = 3

    def _spawn(self, tmp_path, n_hosts, sharded, filters):
        from repro.engine.remote import ShardServerThread

        threads, specs = [], []
        for k in range(n_hosts):
            directory = str(tmp_path / f"host{k}")
            save_columnar(sharded, directory, filters=filters)
            owned = [s for s in range(self.N_SHARDS) if s % n_hosts == k]
            thread = ShardServerThread(
                load_columnar(directory), n_shards=self.N_SHARDS,
                shards=owned,
            ).start()
            threads.append(thread)
            specs.append(
                f"{','.join(str(s) for s in owned)}@{thread.endpoint}"
            )
        return threads, specs

    @staticmethod
    def _stop(threads):
        for thread in threads:
            thread.stop()
            thread.server.store.close()

    @pytest.mark.parametrize("filters", (True, False),
                             ids=("filtered", "unfiltered"))
    @pytest.mark.parametrize("n_hosts", (1, 2, 3))
    def test_random_learn_probe_interleavings(
        self, n_hosts, filters, tmp_path
    ):
        from repro.engine.remote import RemoteShardBackend

        rng = random.Random(1000 + 10 * n_hosts + filters)
        pairs = _random_pairs(rng, 150)
        flat = ExecutionFingerprintDictionary()
        sharded = ShardedDictionary(self.N_SHARDS)
        for fp, label in pairs:
            flat.add(fp, label)
            sharded.add(fp, label)
        threads, specs = self._spawn(tmp_path, n_hosts, sharded, filters)
        try:
            remote = RemoteShardBackend(
                specs, n_shards=self.N_SHARDS, rng=random.Random(0)
            )

            def probe_mix(n_known=15, n_miss=15):
                known = [fp for fp, _ in flat.entries()]
                mix = [rng.choice(known) for _ in range(n_known)]
                mix += [_random_fingerprint(rng) for _ in range(n_miss)]
                return mix

            for _ in range(6):
                if rng.random() < 0.4:
                    for fp, label in _random_pairs(rng, rng.randrange(1, 4)):
                        flat.add(fp, label)
                        remote.add(fp, label)
                mix = probe_mix()
                assert remote.lookup_many(mix) == [
                    flat.lookup(fp) for fp in mix
                ]
                assert remote.last_degraded == {}
                verdicts = remote.probe_many(mix, counts=True)
                for fp, verdict in zip(mix, verdicts):
                    assert not verdict.degraded
                    assert (verdict.counts or {}) == flat.lookup_counts(fp)

            assert remote.labels() == flat.labels()
            assert remote.app_names() == flat.app_names()
            assert remote.metrics() == flat.metrics()
            assert remote.intervals() == flat.intervals()
            assert len(remote) == len(flat)

            # The engine's session path over the remote store equals the
            # sequential matcher over the flat oracle (None entries are
            # nodes that produced no fingerprint).
            metric, interval = _METRICS[0], _INTERVALS[0]
            known = {}
            for fp, _ in flat.entries():
                if fp.metric == metric and fp.interval == interval:
                    known.setdefault(fp.node, []).append(fp)
            fingerprint_lists = []
            for _ in range(12):
                fps = []
                for node in range(4):
                    roll = rng.random()
                    if roll < 0.2:
                        fps.append(None)
                    elif roll < 0.5 or node not in known:
                        fps.append(Fingerprint(
                            metric, node, interval,
                            float(rng.randrange(1, 200) * 100),
                        ))
                    else:
                        fps.append(rng.choice(known[node]))
                fingerprint_lists.append(fps)
            engine = BatchRecognizer(
                remote, metric=metric, depth=_EXACT_DEPTH, interval=interval
            )
            results = engine.recognize_sessions(
                [_session_of(fps) for fps in fingerprint_lists]
            )
            assert results == [
                match_fingerprints(flat, fps) for fps in fingerprint_lists
            ]
            assert engine.stats.n_hits == sum(
                1 for fps in fingerprint_lists for fp in fps
                if fp is not None and flat.lookup(fp)
            )
            remote.close()
        finally:
            self._stop(threads)

    @pytest.mark.parametrize("filters", (True, False),
                             ids=("filtered", "unfiltered"))
    @pytest.mark.parametrize("n_hosts", (1, 3))
    def test_learns_then_probes_rebuild_no_shard(
        self, n_hosts, filters, tmp_path, monkeypatch
    ):
        """Learns and probes through columnar hosts answer like the flat
        reference at O(overlay) cost: nothing walks or encodes a shard,
        and nothing sorts the base rows.  The learns include a key whose
        metric and interval the manifest lacks, a label first seen in
        the overlay and a new label on a stored key; the probes include
        ``-0.0`` spellings of stored ``0.0`` keys."""
        import repro.core.serialization as serialization
        from repro.engine import columnar
        from repro.engine import remote as remote_module
        from repro.engine.columnar import ColumnarDictionary
        from repro.engine.remote import RemoteShardBackend

        rng = random.Random(2000 + 10 * n_hosts + filters)
        zero = Fingerprint(metric=_METRICS[0], node=1,
                           interval=_INTERVALS[1], value=0.0)
        novel = Fingerprint(metric="novel_meminfo", node=2,
                            interval=(7.0, 13.0), value=0.0)
        flat = ExecutionFingerprintDictionary()
        sharded = ShardedDictionary(self.N_SHARDS)
        for fp, label in _random_pairs(rng, 150) + [(zero, "ft_X")]:
            flat.add(fp, label)
            sharded.add(fp, label)
        n_base = len(flat)
        threads, specs = self._spawn(tmp_path, n_hosts, sharded, filters)
        try:
            remote = RemoteShardBackend(
                specs, n_shards=self.N_SHARDS, rng=random.Random(0)
            )
            known = [fp for fp, _ in flat.entries()]
            assert remote.lookup_many(known) == [
                flat.lookup(fp) for fp in known
            ]

            calls = []

            def spy(name, real):
                def call(*args, **kwargs):
                    calls.append(name)
                    return real(*args, **kwargs)
                return call

            def sort(hashes, rows):
                if len(hashes) >= n_base:
                    calls.append(f"sort of {len(hashes)} rows")
                return real_sort(hashes, rows)

            real_sort = columnar._sorted_table
            for name in ("shard_items", "to_sharded"):
                monkeypatch.setattr(ColumnarDictionary, name, spy(
                    name, getattr(ColumnarDictionary, name)
                ))
            for module in (serialization, columnar, remote_module):
                monkeypatch.setattr(module, "dictionary_to_columns", spy(
                    "dictionary_to_columns",
                    serialization.dictionary_to_columns,
                ), raising=False)
            for module in (columnar, remote_module):
                monkeypatch.setattr(module, "_sorted_table", sort,
                                    raising=False)

            def negative(fp):
                return Fingerprint(fp.metric, fp.node, fp.interval, -0.0)

            learns = [
                (novel, "newapp_Q"),
                (zero, "newapp_Q"),
                (zero, "ft_X"),
                (Fingerprint("novel_meminfo", 3, (7.0, 13.0), 5.0), "mg_Y"),
            ] + _random_pairs(rng, 5)
            for i, (fp, label) in enumerate(learns):
                flat.add(fp, label)
                remote.add(fp, label)
                if i % 3 == 1 or i == len(learns) - 1:
                    mix = [rng.choice(known) for _ in range(15)] + [
                        _random_fingerprint(rng) for _ in range(10)
                    ] + [negative(zero), zero, negative(novel), novel]
                    assert remote.lookup_many(mix) == [
                        flat.lookup(fp) for fp in mix
                    ]
                    assert remote.last_degraded == {}
                    verdicts = remote.probe_many(mix, counts=True)
                    for fp, verdict in zip(mix, verdicts):
                        assert not verdict.degraded
                        assert (verdict.counts or {}) == flat.lookup_counts(fp)
            assert remote.labels() == flat.labels()
            remote.close()
        finally:
            self._stop(threads)
        assert calls == []

    def test_mismatched_shard_count_is_refused_by_name(self, tmp_path):
        from repro.engine.remote import ShardServer, ShardServerThread

        flat, sharded, _ = _build_both(seed=5, n_shards=self.N_SHARDS)
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        own = r"does not match the store's own shard count"
        with pytest.raises(ValueError, match=rf"n_shards=2 {own} 3"):
            ShardServer(sharded, n_shards=2, port=0)
        with pytest.raises(ValueError, match=rf"n_shards=3 {own} 1"):
            ShardServer(flat, n_shards=3, port=0)
        with load_columnar(directory) as store:
            with pytest.raises(ValueError, match=rf"n_shards=4 {own} 3"):
                ShardServerThread(store, n_shards=4).start()


class TestFilterSoundness:
    """The Bloom-filter properties the negative-lookup path rests on:
    no false negatives ever (through the store, including
    learn-while-serving overlay keys), and a false-positive rate under
    the configured bound at 1e-2 tolerance."""

    def test_no_false_negatives_through_store(self, tmp_path):
        flat, sharded, rng = _build_both(seed=77, n_shards=4)
        directory = str(tmp_path / "mmap")
        save_columnar(sharded, directory)
        store = load_columnar(directory)
        keys = [fp for fp, _ in flat.entries()]
        # Every stored key must resolve — cold (filters consulted) ...
        assert store.lookup_many(keys) == [flat.lookup(fp) for fp in keys]
        for fp in keys:
            assert fp in store
        # ... and keys learned after the base was built (delta-log
        # overlay) are checked before the filter, so they can never be
        # reported absent.
        fresh = []
        for _ in range(30):
            fp = _random_fingerprint(rng)
            flat.add(fp, "zz_Q")
            store.add(fp, "zz_Q")
            fresh.append(fp)
        for fp in fresh:
            assert fp in store
            assert store.lookup(fp) == flat.lookup(fp)
        assert store.lookup_many(fresh) == [flat.lookup(fp) for fp in fresh]
        store.close()

    def test_false_positive_rate_under_bound(self):
        import numpy as np

        from repro.engine.keyfilter import KeyFilter, key_hashes

        rng = np.random.default_rng(3)
        n = 20_000
        stored = key_hashes(
            rng.integers(0, 5, n),
            rng.integers(0, 3, n),
            rng.integers(0, 64, n),
            rng.integers(-(2 ** 62), 2 ** 62, n),
        )
        filt = KeyFilter.build(stored)
        assert bool(filt.might_contain(stored).all())  # zero false negatives
        # Absent keys by construction: a disjoint node range.
        absent = key_hashes(
            rng.integers(0, 5, n),
            rng.integers(0, 3, n),
            rng.integers(1_000, 2_000, n),
            rng.integers(-(2 ** 62), 2 ** 62, n),
        )
        rate = float(filt.might_contain(absent).mean())
        assert rate <= filt.fp_bound + 1e-2

    @pytest.mark.parametrize("bits_per_key", (6, 10, 14))
    def test_fp_rate_tracks_configured_bits(self, bits_per_key):
        import numpy as np

        from repro.engine.keyfilter import KeyFilter, key_hashes

        rng = np.random.default_rng(bits_per_key)
        n = 20_000
        stored = key_hashes(
            rng.integers(0, 8, n), rng.integers(0, 4, n),
            rng.integers(0, 128, n), rng.integers(0, 2 ** 62, n),
        )
        filt = KeyFilter.build(stored, bits_per_key=bits_per_key)
        assert bool(filt.might_contain(stored).all())
        absent = key_hashes(
            rng.integers(0, 8, n), rng.integers(0, 4, n),
            rng.integers(10_000, 20_000, n), rng.integers(0, 2 ** 62, n),
        )
        rate = float(filt.might_contain(absent).mean())
        assert rate <= filt.fp_bound + 1e-2


class TestVotePositionHook:
    def test_precomputed_position_equals_app_order(self):
        lookups = [["sp_X", "bt_X"], ["bt_X"], ["sp_X", "bt_X"], []]
        app_order = ["sp", "bt", "ft"]
        position = {app: i for i, app in enumerate(app_order)}
        assert vote(lookups, app_order=app_order) == vote(
            lookups, position=position
        )

    def test_tie_order_follows_position(self):
        lookups = [["sp_X", "bt_X"], ["sp_X", "bt_X"]]
        ranked, votes = vote(lookups, position={"bt": 0, "sp": 1})
        assert ranked == ("bt", "sp")
        assert votes == {"sp": 2, "bt": 2}


class TestValidation:
    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedDictionary(0)
        with pytest.raises(ValueError):
            shard_index(
                Fingerprint("m", 0, (60.0, 120.0), 1.0), 0
            )

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError):
            BatchRecognizer(ShardedDictionary(4))

    def test_bad_depth_and_interval_rejected(self, tiny_dataset):
        recognizer = EFDRecognizer(depth=2).fit(tiny_dataset)
        with pytest.raises(ValueError):
            BatchRecognizer(recognizer.dictionary_, depth=0)
        with pytest.raises(ValueError):
            BatchRecognizer(
                recognizer.dictionary_, depth=2, interval=(120.0, 60.0)
            )

    def test_missing_metric_raises_keyerror(self, tiny_dataset):
        recognizer = EFDRecognizer(depth=2).fit(tiny_dataset)
        engine = BatchRecognizer(
            recognizer.dictionary_, metric="no_such_metric", depth=2
        )
        with pytest.raises(KeyError, match="no telemetry"):
            engine.recognize_records(list(tiny_dataset)[:2])


class TestFamilyCascadeEquivalence:
    """The cascade equivalence matrix (hierarchical == flat, everywhere).

    Two disciplines, each replayed element-wise against every fine-tier
    backend — flat, in-memory sharded, columnar, and the
    remote fan-out client — under interleaved learns *through the
    cascade*:

    - **degenerate**: singleton families plus ``coarse == fine`` depth
      collapse the hierarchy; every verdict must equal flat recognition
      outright (same MatchResult, same ranking, a ``match`` exactly when
      flat recognized, and ``near-family`` can never fire because the
      coarse tier holds exactly the fine keys);
    - **real families**: versioned labels (``ft-1.0_X``); the fine-tier
      result must *still* equal the flat oracle (coarse pruning only
      skips guaranteed misses), and a match verdict's family is always
      the spec's family of the winning variant, backed by coarse votes.
    """

    N_SHARDS = 3

    # -- script generation --------------------------------------------------
    def _label(self, rng, versioned):
        app = rng.choice(_APPS)
        if versioned:
            app = f"{app}-{rng.choice(('1.0', '2.0'))}"
        return f"{app}_{rng.choice(_INPUTS)}"

    def _script(self, seed, versioned, n_base=150, n_rounds=4):
        """Base pairs + per-round (learns, probes, expected-flat) replay.

        Expectations come from a private flat oracle advanced through
        the same learns, so every backend replays one deterministic
        script and is compared to identical flat results.
        """
        from repro.core.matcher import match_fingerprints

        rng = random.Random(seed)
        base = [
            (_random_fingerprint(rng), self._label(rng, versioned))
            for _ in range(n_base)
        ]
        oracle = ExecutionFingerprintDictionary()
        for fp, label in base:
            oracle.add(fp, label)
        known = [fp for fp, _ in base]
        rounds = []
        for _ in range(n_rounds):
            learns = []
            for _ in range(rng.randrange(0, 3)):
                label = self._label(rng, versioned)
                fps = [
                    None if rng.random() < 0.2 else _random_fingerprint(rng)
                    for _ in range(rng.randrange(1, 5))
                ]
                learns.append((label, fps))
                for fp in fps:
                    if fp is not None:
                        oracle.add(fp, label)
                        known.append(fp)
            probe_lists = []
            for _ in range(10):
                fps = []
                for _ in range(rng.randrange(1, 6)):
                    roll = rng.random()
                    if roll < 0.15:
                        fps.append(None)
                    elif roll < 0.45:
                        fps.append(_random_fingerprint(rng))
                    else:
                        fps.append(rng.choice(known))
                probe_lists.append(fps)
            expected = [match_fingerprints(oracle, fps) for fps in probe_lists]
            rounds.append((learns, probe_lists, expected))
        return base, rounds

    # -- the five fine-tier backends ----------------------------------------
    def _stores(self, base, tmp_path):
        """Every backend loaded from one snapshot of the base pairs.

        Returns ``(stores, closers)``; callers must run the closers
        (remote client + shard server threads) in a finally block.
        """
        from repro.engine.remote import RemoteShardBackend, ShardServerThread

        flat = ExecutionFingerprintDictionary()
        sharded = ShardedDictionary(self.N_SHARDS)
        for fp, label in base:
            flat.add(fp, label)
            sharded.add(fp, label)
        col_dir = str(tmp_path / "col")
        save_columnar(sharded, col_dir)

        threads, specs = [], []
        for k in range(2):
            directory = str(tmp_path / f"host{k}")
            save_columnar(sharded, directory)
            owned = [s for s in range(self.N_SHARDS) if s % 2 == k]
            thread = ShardServerThread(
                load_columnar(directory), n_shards=self.N_SHARDS,
                shards=owned,
            ).start()
            threads.append(thread)
            specs.append(
                f"{','.join(str(s) for s in owned)}@{thread.endpoint}"
            )
        remote = RemoteShardBackend(
            specs, n_shards=self.N_SHARDS, rng=random.Random(0)
        )
        stores = {
            "flat": flat,
            "sharded": sharded,
            "columnar": load_columnar(col_dir),
            "remote": remote,
        }
        closers = [remote.close] + [t.stop for t in threads] + [
            store.close for store in
            [stores["columnar"]] + [t.server.store for t in threads]
        ]
        return stores, closers

    # -- replay -------------------------------------------------------------
    def _replay(self, cascade, rounds, check):
        for learns, probe_lists, expected in rounds:
            for label, fps in learns:
                cascade.learn(fps, label)
            verdicts = cascade.cascade_match(probe_lists)
            assert len(verdicts) == len(expected)
            for fps, verdict, flat_result in zip(
                probe_lists, verdicts, expected
            ):
                assert verdict.match == flat_result
                check(verdict, flat_result)

    def test_degenerate_config_equals_flat_recognition(self, tmp_path):
        from repro.family import FamilyCascade, FamilySpec

        base, rounds = self._script(seed=4321, versioned=False)
        stores, closers = self._stores(base, tmp_path)
        try:
            for name, store in stores.items():
                cascade = FamilyCascade(
                    store,
                    spec=FamilySpec.singleton(store.app_names()),
                    coarse_depth=3,
                    fine_depth=3,
                )

                def check(verdict, flat_result, name=name):
                    # Collapsed hierarchy: the verdict IS flat
                    # recognition, relabeled.
                    assert verdict.outcome != "near-family", name
                    if flat_result.prediction is not None:
                        assert verdict.outcome == "match", name
                        assert verdict.family == flat_result.prediction, name
                        assert verdict.variant == flat_result.prediction, name
                        assert verdict.family_ranked == flat_result.ranked, name
                        assert verdict.family_votes == flat_result.votes, name
                    else:
                        assert verdict.outcome == "unknown", name
                        assert verdict.family is None, name

                self._replay(cascade, rounds, check)
        finally:
            for close in closers:
                close()

    def test_real_families_fine_match_stays_inside_coarse_family(
        self, tmp_path
    ):
        from repro.family import FamilyCascade, FamilySpec

        base, rounds = self._script(seed=8765, versioned=True)
        stores, closers = self._stores(base, tmp_path)
        try:
            for name, store in stores.items():
                spec = FamilySpec.from_apps(store.app_names())
                cascade = FamilyCascade(
                    store, spec=spec, coarse_depth=1, fine_depth=3
                )

                def check(verdict, flat_result, name=name, spec=spec):
                    if verdict.outcome == "match":
                        assert verdict.variant == flat_result.prediction, name
                        family = spec.family_of_app(verdict.variant)
                        assert verdict.family == family, name
                        # The property the coarse tier's containment
                        # guarantees: a full-depth winner always sits in
                        # a family the coarse tier voted for.
                        assert family in verdict.family_votes, name
                        assert verdict.family_votes[family] > 0, name
                    else:
                        # Coarse pruning is sound: it never suppressed
                        # a fine-tier hit.
                        assert flat_result.prediction is None, name
                    if verdict.outcome == "unknown":
                        assert verdict.family_votes == {}, name

                self._replay(cascade, rounds, check)
        finally:
            for close in closers:
                close()


class TestEnginePathImportsNoPool:
    def test_no_engine_serve_or_family_module_imports_parallel(self):
        """The engine resolves every batch through the store's own
        ``lookup_many``; the process/thread pool in ``repro.parallel``
        belongs to the experiment runner alone.  A new import of it on
        the recognition path would bring the fan-out back."""
        import ast
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        paths = [
            *sorted((root / "engine").rglob("*.py")),
            *sorted((root / "serve").rglob("*.py")),
            root / "family.py",
        ]
        bad = []
        for path in paths:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                for name in names:
                    if name == "repro.parallel" or name.startswith(
                        "repro.parallel."
                    ):
                        bad.append(f"{path.relative_to(root)}:{node.lineno}")
        assert len(paths) > 15  # the guard really walked the packages
        assert bad == []
