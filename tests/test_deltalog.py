"""The write-ahead delta-log: hot-index writes, durability, compaction.

The acceptance bar of the delta-log refactor: a columnar store under a
sustained write trickle (appends interleaved with batch recognitions)
keeps answering through its key-hash tables, with verdicts element-wise
identical to a flat reference grown the same way; the log replays across restarts, folds losslessly on compaction,
and survives crash artifacts (torn tail, stale generation).
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np
import pytest

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint, build_fingerprints
from repro.core.matcher import match_fingerprints
from repro.core.recognizer import EFDRecognizer
from repro.core.streaming import StreamSession
from repro.engine import (
    BatchRecognizer,
    ShardedDictionary,
    compact_shards,
    load_columnar,
    pending_records,
    save_columnar,
)
from repro.engine.deltalog import SEGMENT_NAME, segment_path


def _fp(value: float, node: int = 0, metric: str = "m") -> Fingerprint:
    return Fingerprint(
        metric=metric, node=node, interval=(60.0, 120.0), value=value
    )


def _session(values, depth: int = 2) -> StreamSession:
    """A ready metric-``m`` session whose node ``i`` has ``values[i]``
    as its interval mean (no sample where it is None)."""
    session = StreamSession(None, "m", depth, (60.0, 120.0),
                            n_nodes=len(values))
    session.restore([v or 0.0 for v in values],
                    [int(v is not None) for v in values],
                    [True] * len(values), len(values))
    return session


@pytest.fixture
def columnar(tmp_path):
    """``columnar(flat, n_shards=4, name="col", **load_kwargs)`` saves
    ``flat`` as a columnar store under ``tmp_path`` and returns the
    loaded store and its directory; each store is closed at teardown,
    which closes the delta-log segment its writes opened."""
    with contextlib.ExitStack() as stores:

        def build(flat: ExecutionFingerprintDictionary, n_shards=4,
                  name="col", **kwargs):
            directory = str(tmp_path / name)
            save_columnar(ShardedDictionary.from_flat(flat, n_shards),
                          directory)
            store = stores.enter_context(load_columnar(directory, **kwargs))
            return store, directory

        yield build


def _small_flat(n: int = 40) -> ExecutionFingerprintDictionary:
    flat = ExecutionFingerprintDictionary()
    for i in range(n):
        flat.add(_fp(100.0 * (i + 1), i % 4), f"ft_{'XYZ'[i % 3]}")
        if i % 5 == 0:
            flat.add(_fp(100.0 * (i + 1), i % 4), "mg_Y")
    return flat


def _assert_equal_stores(a, b) -> None:
    assert len(a) == len(b)
    assert a.labels() == b.labels()
    assert a.app_names() == b.app_names()
    assert list(a.entries()) == list(b.entries())
    for fp, _ in a.entries():
        assert a.lookup_counts(fp) == b.lookup_counts(fp)
    assert a.stats() == b.stats()


class TestWriteTrickleKeepsIndexHot:
    """Appends never take the batch path off the key-hash tables."""

    def test_trickle_verdicts_match_flat_reference(self, tiny_dataset, columnar):
        recognizer = EFDRecognizer(depth=2).fit(tiny_dataset)
        records = list(tiny_dataset)
        flat = ExecutionFingerprintDictionary()
        flat.merge(recognizer.dictionary_)
        col, _ = columnar(flat, n_shards=4)
        engine = BatchRecognizer(col, depth=2)
        # Sustained trickle: interleave single appends with recognition
        # batches over the whole dataset; mirror every append into the
        # flat reference and compare verdicts element-wise each round.
        for round_no in range(12):
            fp = _fp(7000.0 + round_no, round_no % 4, "nr_mapped_vmstat")
            label = f"new{round_no % 3}_L"
            col.add(fp, label)
            flat.add(fp, label)
            expected = [
                match_fingerprints(
                    flat, build_fingerprints(r, "nr_mapped_vmstat", 2)
                )
                for r in records
            ]
            assert engine.recognize_records(records) == expected
            # The engine answers through the key-hash tables: nothing
            # decodes the store's whole key order.
            assert col._key_order_cache is None
        assert col.delta_pending == 12

    def test_thousand_appends_with_batch_recognitions(self, columnar):
        # Volume version (synthetic keys): >=1k appends interleaved with
        # batched lookups, index live throughout, final state equal to
        # the flat reference.
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=8)
        engine = BatchRecognizer(col, metric="m", depth=6)
        probes = [fp for fp, _ in flat.entries()]
        for i in range(1000):
            fp = _fp(50000.0 + i, i % 4)
            col.add(fp, f"sp_{'XY'[i % 2]}")
            flat.add(fp, f"sp_{'XY'[i % 2]}")
            if i % 100 == 99:
                got = col.lookup_many(probes + [fp])
                assert got == [flat.lookup(p) for p in probes + [fp]]
                # The newest key, probed through the session path.
                values = [None] * 4
                values[fp.node] = fp.value
                assert engine.recognize_sessions(
                    [_session(values, depth=6)]
                ) == [match_fingerprints(
                    flat, [f if f is None else _fp(f, n)
                           for n, f in enumerate(values)]
                )]
        assert col.delta_pending == 1000
        _assert_equal_stores(col, flat)

    def test_session_lookup_path_stays_vectorized(self, columnar,
                                                  no_dict_efd):
        flat = _small_flat()
        col, _ = columnar(flat, n_shards=4)
        col.add(_fp(91001.0, 1), "zz_Q")
        flat.add(_fp(91001.0, 1), "zz_Q")
        keys = [fp for fp, _ in flat.entries()] + [_fp(1.5)]
        expected = [flat.lookup(fp) for fp in keys]
        with no_dict_efd():
            assert col.lookup_many(keys) == expected


class TestDurability:
    def test_log_replays_on_reload(self, columnar):
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=4)
        col.add(_fp(90000.0, 3), "zz_Q")
        col.add(_fp(100.0, 0), "zz_Q")       # existing key, new label
        col.register_label("keyless_K")      # order-only registration
        flat.add(_fp(90000.0, 3), "zz_Q")
        flat.add(_fp(100.0, 0), "zz_Q")
        flat.register_label("keyless_K")
        reopened = load_columnar(directory)
        assert reopened.delta_pending == 3
        _assert_equal_stores(reopened, flat)

    def test_torn_final_record_is_dropped(self, columnar):
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        with open(segment_path(directory), "a", encoding="utf-8") as fh:
            fh.write('{"op": "add", "metric": "m", "no')  # crash mid-append
        reopened = load_columnar(directory)
        assert reopened.delta_pending == 1   # the torn record is gone
        _assert_equal_stores(reopened, flat)

    def test_corrupt_mid_file_record_raises_by_name(self, columnar):
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        with open(segment_path(directory), "a", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"op": "label", "label": "x_Y"}) + "\n")
        with pytest.raises(ValueError, match=SEGMENT_NAME):
            load_columnar(directory)

    def test_stale_generation_segment_is_discarded(self, columnar):
        # Crash window: compaction rewrote the base (generation bumped)
        # but died before removing the segment.  The records are already
        # folded — replaying them would double-count.
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        with open(segment_path(directory), encoding="utf-8") as fh:
            segment = fh.read()
        col.compact_delta()
        assert not os.path.isfile(segment_path(directory))
        # Resurrect the pre-compaction segment (generation 0; the
        # manifest now says 1).
        with open(segment_path(directory), "w", encoding="utf-8") as fh:
            fh.write(segment)
        assert pending_records(directory, generation=1) == 0
        reopened = load_columnar(directory)
        assert reopened.delta_pending == 0
        assert not os.path.isfile(segment_path(directory))  # cleaned up
        _assert_equal_stores(reopened, flat)


class TestUnreadableSegment:
    """Absent and unreadable are different states: a missing segment is
    "nothing pending" (0), but a segment that *exists* and cannot be
    read must raise :class:`SegmentReadError` by name — silently
    reporting 0 would let a replica or a reload serve the base state
    while committed records sit unreadable on disk."""

    def test_absent_segment_reports_zero(self, columnar):
        flat = _small_flat()
        _, directory = columnar(flat, n_shards=2)
        assert not os.path.exists(segment_path(directory))
        assert pending_records(directory, generation=0) == 0

    def test_unreadable_segment_raises_by_name(self, columnar):
        from repro.engine import SegmentReadError

        flat = _small_flat()
        col, directory = columnar(flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        # A directory squatting on the segment path: open() fails with
        # EISDIR — an unreadable segment, not an absent one.  (chmod
        # tricks don't work under root, this does.)
        os.rename(segment_path(directory),
                  segment_path(directory) + ".bak")
        os.mkdir(segment_path(directory))
        with pytest.raises(SegmentReadError, match=SEGMENT_NAME):
            pending_records(directory, generation=0)
        with pytest.raises(SegmentReadError, match=SEGMENT_NAME):
            load_columnar(directory)
        # Restore readability: both paths recover with nothing lost.
        os.rmdir(segment_path(directory))
        os.rename(segment_path(directory) + ".bak",
                  segment_path(directory))
        assert pending_records(directory, generation=0) == 1
        reopened = load_columnar(directory)
        assert reopened.delta_pending == 1

    def test_segment_read_error_is_oserror(self):
        from repro.engine import SegmentReadError

        # Callers already handling OSError on the read path keep
        # working; ValueError-based corruption handling must NOT
        # swallow it (unreadable != corrupt).
        assert issubclass(SegmentReadError, OSError)
        assert not issubclass(SegmentReadError, ValueError)


class TestCompaction:
    def test_explicit_compaction_folds_losslessly(self, columnar):
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=4)
        for i in range(25):
            col.add(_fp(90000.0 + i, i % 4), "zz_Q")
            flat.add(_fp(90000.0 + i, i % 4), "zz_Q")
        assert col.compact_delta() == 25
        assert col.delta_pending == 0
        assert not os.path.isfile(segment_path(directory))
        _assert_equal_stores(col, flat)           # in-place object survives
        _assert_equal_stores(load_columnar(directory), flat)
        assert col.compact_delta() == 0           # idempotent

    def test_fold_is_byte_identical_and_probes_no_filter(
        self, tmp_path, columnar, monkeypatch
    ):
        # The fold reads every key straight from the base shards plus
        # the overlay: no Bloom-filter probe and no key-hash search per
        # key, and the same bytes as a save of the flat reference grown
        # the same way.
        flat = _small_flat(400)
        col, directory = columnar(flat, n_shards=4)
        for i in range(60):
            fp = _fp(100.0 * (7 * i + 1), (7 * i) % 4)   # existing keys
            col.add_repeated(fp, "lu_X" if i % 2 else "ft_X", 1 + i % 3)
            flat.add_repeated(fp, "lu_X" if i % 2 else "ft_X", 1 + i % 3)
            col.add(_fp(90000.0 + i, i % 4), "zz_Q")        # new keys
            flat.add(_fp(90000.0 + i, i % 4), "zz_Q")
        import repro.engine.columnar as columnar_mod
        from repro.engine.keyfilter import KeyFilter

        probes = []
        might, search = KeyFilter.might_contain, columnar_mod._search
        monkeypatch.setattr(
            KeyFilter, "might_contain",
            lambda self, hashes: probes.append(len(hashes)) or might(
                self, hashes),
        )
        monkeypatch.setattr(
            columnar_mod, "_search",
            lambda *args: probes.append(len(args[2])) or search(*args),
        )
        col.compact_delta()
        assert probes == []
        reference = str(tmp_path / "reference")
        save_columnar(ShardedDictionary.from_flat(flat, 4), reference,
                      generation=1)
        names = sorted(os.listdir(reference))
        assert sorted(os.listdir(directory)) == names
        for name in names:
            with open(os.path.join(directory, name), "rb") as a, \
                    open(os.path.join(reference, name), "rb") as b:
                assert a.read() == b.read(), name

    def test_version_stays_monotonic_across_compaction(self, columnar):
        col, _ = columnar(_small_flat(), n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        before = col.version
        col.compact_delta()
        assert col.version > before
        col.add(_fp(90001.0), "zz_Q")
        assert col.version > before + 1

    def test_threshold_triggers_auto_compaction(self, tmp_path):
        flat = _small_flat()
        directory = str(tmp_path / "col")
        save_columnar(ShardedDictionary.from_flat(flat, 2), directory)
        with load_columnar(directory, delta_max_pending=10) as col:
            for i in range(25):
                col.add(_fp(90000.0 + i), "zz_Q")
                flat.add(_fp(90000.0 + i), "zz_Q")
            # Folded at least twice; never more than the threshold pending.
            assert col.delta_pending < 10
            _assert_equal_stores(col, flat)
        _assert_equal_stores(load_columnar(directory), flat)

    def test_cli_compact_folds_pending_log(self, columnar):
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        summary = compact_shards(directory)
        assert summary["folded_records"] == 1
        assert not os.path.isfile(segment_path(directory))
        _assert_equal_stores(load_columnar(directory), flat)
        with pytest.raises(ValueError, match="already compacted"):
            compact_shards(directory)    # clean directory: named refusal

    def test_compact_to_out_leaves_source_untouched(self, tmp_path, columnar):
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        out = str(tmp_path / "folded")
        summary = compact_shards(directory, out=out)
        assert summary["folded_records"] == 1
        assert os.path.isfile(segment_path(directory))   # source untouched
        assert not os.path.isfile(segment_path(out))
        _assert_equal_stores(load_columnar(out), flat)
        _assert_equal_stores(load_columnar(directory), flat)

    def test_save_never_drops_pending_records(self, tmp_path, columnar):
        flat = _small_flat()
        col, _ = columnar(flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        col_out = str(tmp_path / "copy-col")
        save_columnar(col, col_out)
        _assert_equal_stores(load_columnar(col_out), flat)


class TestNoFallbackPath:
    def test_writes_go_only_through_the_log(self, columnar, base_files):
        # The store holds no shard objects: a write cannot land behind
        # the delta-log, and the base files stay byte-identical.
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=4)
        before = base_files(directory)
        assert not hasattr(col, "shards")
        engine = BatchRecognizer(col, metric="m", depth=2)
        victim = next(fp for fp, _ in flat.entries())
        col.add(victim, "dd_D")
        flat.add(victim, "dd_D")
        values = [None] * (victim.node + 1)
        values[victim.node] = victim.value
        assert engine.recognize_sessions([_session(values)]) == [
            match_fingerprints(flat, [None] * victim.node + [victim])
        ]
        assert col.lookup(victim) == flat.lookup(victim)
        assert base_files(directory) == before

    def test_retired_demotion_counter_still_loads(self):
        # Older stats snapshots carry the retired index_demotions
        # counter: they still load, and render without it.
        from repro.engine import EngineStats

        stats = EngineStats()
        stats.add(n_batches=1)
        payload = dict(stats.as_dict(), index_demotions=2)
        snapshot = EngineStats.from_dict(payload)
        assert snapshot.n_batches == 1
        assert not hasattr(snapshot, "index_demotions")
        assert "demotions" not in snapshot.render()

    def test_overlay_and_base_keys_answer_merged_on_every_path(
        self, columnar
    ):
        # An overlay-only key and a base key written again through the
        # log: the point, batch and records paths all see both.
        flat = _small_flat()
        col, _ = columnar(flat, n_shards=4)
        overlay_key = _fp(91000.0, 2)
        col.add(overlay_key, "zz_Q")
        flat.add(overlay_key, "zz_Q")
        base_key = next(fp for fp, _ in flat.entries())
        col.add(base_key, "dd_D")
        flat.add(base_key, "dd_D")
        engine = BatchRecognizer(col, metric="m", depth=2)
        assert col.lookup_many([overlay_key, base_key]) == [
            flat.lookup(overlay_key), flat.lookup(base_key)
        ]
        sessions = []
        expected = []
        for key in (overlay_key, base_key):
            values = [None] * (key.node + 1)
            values[key.node] = key.value
            sessions.append(_session(values))
            expected.append(
                match_fingerprints(flat, [None] * key.node + [key])
            )
        assert engine.recognize_sessions(sessions) == expected
        index = col.batch_index("m", (60.0, 120.0))
        resolved = index.resolve_probes(
            np.array([overlay_key.node, base_key.node]),
            np.array([overlay_key.value, base_key.value]),
        )
        assert [resolved.entries[h][0] for h in resolved.handles] == [
            flat.lookup(overlay_key), flat.lookup(base_key)
        ]


class TestCompactionCrashSafety:
    def test_fold_commits_new_base_under_generation_names(self, columnar):
        # The rewrite lands under generation-suffixed names and is
        # committed by one atomic manifest replace; the superseded
        # generation-0 files are removed after the commit.
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        col.compact_delta()
        names = set(os.listdir(directory))
        assert "shard-00.g1.mmap" in names
        assert "key-order.g1.npz" in names
        assert "shard-00.mmap" not in names     # superseded base removed
        assert "key-order.npz" not in names
        _assert_equal_stores(load_columnar(directory), flat)
        # A second fold advances again and reclaims generation 1.
        col.add(_fp(90001.0), "zz_Q")
        flat.add(_fp(90001.0), "zz_Q")
        col.compact_delta()
        names = set(os.listdir(directory))
        assert "shard-00.g2.mmap" in names
        assert "shard-00.g1.mmap" not in names
        _assert_equal_stores(load_columnar(directory), flat)

    def test_uncommitted_rewrite_leaves_old_base_loadable(self, columnar):
        # Crash before the manifest commit: new-generation files exist
        # but the manifest still names the old base — the store must
        # load and replay the log exactly as if the fold never started.
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        # Simulate the pre-commit half of a fold: write garbage where
        # the next generation's files would land.
        for name in ("shard-00.g1.mmap", "shard-01.g1.mmap",
                     "key-order.g1.npz"):
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(b"torn write")
        reopened = load_columnar(directory)
        assert reopened.delta_pending == 1
        _assert_equal_stores(reopened, flat)

    def test_in_place_save_of_pending_store_is_a_compaction(self, columnar):
        # Regression: save_columnar(store, its_own_directory) with
        # pending records used to write the merged base at the same
        # generation and leave the segment behind — the next load then
        # replayed the already-folded records (counts inflated per
        # save/reload cycle).  It must behave as a compaction instead.
        flat = _small_flat()
        col, directory = columnar(flat, n_shards=2)
        key = _fp(90000.0)
        col.add(key, "zz_Q")
        col.add(key, "zz_Q")
        flat.add(key, "zz_Q")
        flat.add(key, "zz_Q")
        save_columnar(col, directory)
        assert col.delta_pending == 0          # folded, not copied
        assert not os.path.isfile(segment_path(directory))
        assert col.lookup_counts(key) == {"zz_Q": 2}
        reopened = load_columnar(directory)
        assert reopened.delta_pending == 0
        assert reopened.lookup_counts(key) == {"zz_Q": 2}  # not 3/4
        _assert_equal_stores(reopened, flat)
