"""The write-ahead delta-log: hot-index writes, durability, compaction.

The acceptance bar of the delta-log refactor: a columnar store under a
sustained write trickle (appends interleaved with batch recognitions)
keeps the vectorized ``searchsorted`` index active — zero demotions —
with verdicts element-wise identical to a flat reference grown the same
way; the log replays across restarts, folds losslessly on compaction,
survives crash artifacts (torn tail, stale generation), and blocks
``expand`` while unfolded.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint, build_fingerprints
from repro.core.matcher import match_fingerprints
from repro.core.recognizer import EFDRecognizer
from repro.engine import (
    BatchRecognizer,
    PendingDeltaError,
    ShardedDictionary,
    compact_shards,
    expand_shards,
    load_columnar,
    load_sharded,
    pending_records,
    save_columnar,
)
from repro.engine.columnar import ColumnarBatchIndex
from repro.engine.deltalog import SEGMENT_NAME, segment_path


def _fp(value: float, node: int = 0, metric: str = "m") -> Fingerprint:
    return Fingerprint(
        metric=metric, node=node, interval=(60.0, 120.0), value=value
    )


def _columnar(tmp_path, flat: ExecutionFingerprintDictionary, n_shards=4,
              name="col", **kwargs):
    directory = str(tmp_path / name)
    save_columnar(ShardedDictionary.from_flat(flat, n_shards), directory)
    return load_columnar(directory, **kwargs), directory


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
    """ISSUE 5 acceptance: appends never demote the vectorized path."""

    def test_trickle_verdicts_match_flat_reference(self, tiny_dataset, tmp_path):
        recognizer = EFDRecognizer(depth=2).fit(tiny_dataset)
        records = list(tiny_dataset)
        flat = ExecutionFingerprintDictionary()
        flat.merge(recognizer.dictionary_)
        col, _ = _columnar(tmp_path, flat, n_shards=4)
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
            # The engine is still answering through the columnar index,
            # not the generic dict fallback.
            assert isinstance(engine._index, ColumnarBatchIndex)
        assert engine.stats.index_demotions == 0
        assert col.pristine
        assert not any(shard.hydrated for shard in col.shards)

    def test_thousand_appends_with_batch_recognitions(self, tmp_path):
        # Volume version (synthetic keys): >=1k appends interleaved with
        # batched lookups, index live throughout, final state equal to
        # the flat reference.
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=8)
        engine = BatchRecognizer(col, metric="m", depth=2)
        probes = [fp for fp, _ in flat.entries()]
        for i in range(1000):
            fp = _fp(50000.0 + i, i % 4)
            col.add(fp, f"sp_{'XY'[i % 2]}")
            flat.add(fp, f"sp_{'XY'[i % 2]}")
            if i % 100 == 99:
                got = col.lookup_many(probes + [fp])
                assert got is not None
                assert got == [flat.lookup(p) for p in probes + [fp]]
                assert engine._tuple_index() is not None
        assert engine.stats.index_demotions == 0
        assert col.delta_pending == 1000
        assert col.pristine
        _assert_equal_stores(col, flat)

    def test_session_lookup_path_stays_vectorized(self, tmp_path):
        flat = _small_flat()
        col, _ = _columnar(tmp_path, flat, n_shards=4)
        col.add(_fp(91001.0, 1), "zz_Q")
        flat.add(_fp(91001.0, 1), "zz_Q")
        keys = [fp for fp, _ in flat.entries()] + [_fp(1.5)]
        assert col.lookup_many(keys) == [flat.lookup(fp) for fp in keys]
        assert not any(shard.hydrated for shard in col.shards)


class TestDurability:
    def test_log_replays_on_reload(self, tmp_path):
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=4)
        col.add(_fp(90000.0, 3), "zz_Q")
        col.add(_fp(100.0, 0), "zz_Q")       # existing key, new label
        col.register_label("keyless_K")      # order-only registration
        flat.add(_fp(90000.0, 3), "zz_Q")
        flat.add(_fp(100.0, 0), "zz_Q")
        flat.register_label("keyless_K")
        reopened = load_columnar(directory)
        assert reopened.delta_pending == 3
        _assert_equal_stores(reopened, flat)
        # load_sharded auto-detection takes the same path.
        auto = load_sharded(directory)
        _assert_equal_stores(auto, flat)

    def test_torn_final_record_is_dropped(self, tmp_path):
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        with open(segment_path(directory), "a", encoding="utf-8") as fh:
            fh.write('{"op": "add", "metric": "m", "no')  # crash mid-append
        reopened = load_columnar(directory)
        assert reopened.delta_pending == 1   # the torn record is gone
        _assert_equal_stores(reopened, flat)

    def test_corrupt_mid_file_record_raises_by_name(self, tmp_path):
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        with open(segment_path(directory), "a", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"op": "label", "label": "x_Y"}) + "\n")
        with pytest.raises(ValueError, match=SEGMENT_NAME):
            load_columnar(directory)

    def test_stale_generation_segment_is_discarded(self, tmp_path):
        # Crash window: compaction rewrote the base (generation bumped)
        # but died before removing the segment.  The records are already
        # folded — replaying them would double-count.
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        segment = open(segment_path(directory), encoding="utf-8").read()
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

    def test_absent_segment_reports_zero(self, tmp_path):
        flat = _small_flat()
        _, directory = _columnar(tmp_path, flat, n_shards=2)
        assert not os.path.exists(segment_path(directory))
        assert pending_records(directory, generation=0) == 0

    def test_unreadable_segment_raises_by_name(self, tmp_path):
        from repro.engine import SegmentReadError

        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=2)
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
    def test_explicit_compaction_folds_losslessly(self, tmp_path):
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=4)
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
        self, tmp_path, monkeypatch
    ):
        # The fold reads keys of the store's own key order straight
        # from the base shards plus the overlay: no Bloom-filter probe
        # per key, and the same bytes as a save of the flat reference
        # grown the same way.
        flat = _small_flat(400)
        col, directory = _columnar(tmp_path, flat, n_shards=4)
        for i in range(60):
            fp = _fp(100.0 * (7 * i + 1), (7 * i) % 4)   # existing keys
            col.add_repeated(fp, "lu_X" if i % 2 else "ft_X", 1 + i % 3)
            flat.add_repeated(fp, "lu_X" if i % 2 else "ft_X", 1 + i % 3)
            col.add(_fp(90000.0 + i, i % 4), "zz_Q")        # new keys
            flat.add(_fp(90000.0 + i, i % 4), "zz_Q")
        probes = []
        might = type(col)._filter_might
        monkeypatch.setattr(
            type(col), "_filter_might",
            lambda self, hashes: probes.append(len(hashes)) or might(
                self, hashes),
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

    def test_version_stays_monotonic_across_compaction(self, tmp_path):
        col, _ = _columnar(tmp_path, _small_flat(), n_shards=2)
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
        col = load_columnar(directory, delta_max_pending=10)
        for i in range(25):
            col.add(_fp(90000.0 + i), "zz_Q")
            flat.add(_fp(90000.0 + i), "zz_Q")
        # Folded at least twice; never more than the threshold pending.
        assert col.delta_pending < 10
        _assert_equal_stores(col, flat)
        _assert_equal_stores(load_columnar(directory), flat)

    def test_cli_compact_folds_pending_log(self, tmp_path):
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        summary = compact_shards(directory)
        assert summary["folded_records"] == 1
        assert not os.path.isfile(segment_path(directory))
        _assert_equal_stores(load_columnar(directory), flat)
        with pytest.raises(ValueError, match="already columnar"):
            compact_shards(directory)    # clean directory: unchanged error

    def test_compact_to_out_leaves_source_untouched(self, tmp_path):
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        out = str(tmp_path / "folded")
        summary = compact_shards(directory, out=out)
        assert summary["folded_records"] == 1
        assert os.path.isfile(segment_path(directory))   # source untouched
        assert not os.path.isfile(segment_path(out))
        _assert_equal_stores(load_columnar(out), flat)
        _assert_equal_stores(load_columnar(directory), flat)

    def test_save_never_drops_pending_records(self, tmp_path):
        flat = _small_flat()
        col, _ = _columnar(tmp_path, flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        from repro.engine import save_sharded

        col_out = str(tmp_path / "copy-col")
        save_columnar(col, col_out)
        _assert_equal_stores(load_columnar(col_out), flat)
        json_out = str(tmp_path / "copy-json")
        save_sharded(col, json_out)
        _assert_equal_stores(load_sharded(json_out), flat)


class TestExpandGuard:
    def test_expand_refuses_unfolded_delta(self, tmp_path):
        col, directory = _columnar(tmp_path, _small_flat(), n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        with pytest.raises(PendingDeltaError, match="compact"):
            expand_shards(directory)
        # Nothing was converted: still columnar, log intact.
        assert os.path.isfile(segment_path(directory))
        assert load_columnar(directory).delta_pending == 1

    def test_expand_works_after_compaction(self, tmp_path):
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=2)
        col.add(_fp(90000.0), "zz_Q")
        flat.add(_fp(90000.0), "zz_Q")
        col.compact_delta()
        expand_shards(directory)
        _assert_equal_stores(load_sharded(directory), flat)


class TestDemotionCounter:
    def test_direct_shard_mutation_is_counted_and_stays_correct(
        self, tmp_path
    ):
        flat = _small_flat()
        col, _ = _columnar(tmp_path, flat, n_shards=4)
        engine = BatchRecognizer(col, metric="m", depth=2)
        assert engine._tuple_index() is not None
        assert engine.stats.index_demotions == 0
        victim = next(fp for fp, _ in flat.entries())
        col.shards[0].merge(col.shards[0])  # no-op merge still bumps version
        assert not col.pristine
        engine.recognize_records([])        # forces an index rebuild
        assert engine.stats.index_demotions >= 1
        assert col.lookup(victim) == flat.lookup(victim)

    def test_demotion_counter_round_trips_through_snapshot(self):
        from repro.engine import EngineStats

        stats = EngineStats()
        stats.add(index_demotions=1)
        stats.add(index_demotions=1)
        snapshot = EngineStats.from_dict(stats.as_dict())
        assert snapshot.index_demotions == 2
        assert "demotions" in snapshot.render()

    def test_demoted_store_with_overlay_still_answers_merged(self, tmp_path):
        # Worst case: a pending overlay *and* a direct shard mutation.
        # The vectorized paths stand down, and the generic fallback must
        # still see both the shard mutation and the overlay.
        flat = _small_flat()
        col, _ = _columnar(tmp_path, flat, n_shards=4)
        overlay_key = _fp(91000.0, 2)
        col.add(overlay_key, "zz_Q")
        flat.add(overlay_key, "zz_Q")
        direct_key = next(fp for fp, _ in flat.entries())
        from repro.engine import shard_index

        col.shards[shard_index(direct_key, 4)].add(direct_key, "dd_D")
        flat.add(direct_key, "dd_D")
        engine = BatchRecognizer(col, metric="m", depth=2)
        assert col.lookup_many([overlay_key]) is None  # demoted
        from repro.engine import match_fingerprints_batch

        results, _ = match_fingerprints_batch(
            col, [[overlay_key], [direct_key]], stats=engine.stats
        )
        expected, _ = match_fingerprints_batch(
            flat, [[overlay_key], [direct_key]]
        )
        assert results == expected
        assert engine.stats.index_demotions >= 1
        index = engine._tuple_index()
        assert isinstance(index, dict)     # generic fallback
        assert index[(overlay_key.node, overlay_key.value)][0] == ["zz_Q"]


class TestCompactionCrashSafety:
    def test_fold_commits_new_base_under_generation_names(self, tmp_path):
        # The rewrite lands under generation-suffixed names and is
        # committed by one atomic manifest replace; the superseded
        # generation-0 files are removed after the commit.
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=2)
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

    def test_uncommitted_rewrite_leaves_old_base_loadable(self, tmp_path):
        # Crash before the manifest commit: new-generation files exist
        # but the manifest still names the old base — the store must
        # load and replay the log exactly as if the fold never started.
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=2)
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

    def test_in_place_save_of_pending_store_is_a_compaction(self, tmp_path):
        # Regression: save_columnar(store, its_own_directory) with
        # pending records used to write the merged base at the same
        # generation and leave the segment behind — the next load then
        # replayed the already-folded records (counts inflated per
        # save/reload cycle).  It must behave as a compaction instead.
        flat = _small_flat()
        col, directory = _columnar(tmp_path, flat, n_shards=2)
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

    def test_overlay_new_key_sees_direct_shard_mutation(self, tmp_path):
        # Corner of the degraded mode: a key first seen via the
        # delta-log, then *also* written straight onto its shard.  The
        # merged point path must report both labels once the base is
        # known-mutated.
        from repro.engine import shard_index

        flat = _small_flat()
        col, _ = _columnar(tmp_path, flat, n_shards=4)
        key = _fp(91000.0, 2)
        col.add(key, "new_N")                  # overlay-only key
        col.shards[shard_index(key, 4)].add(key, "direct_D")
        assert not col.pristine
        assert col.lookup(key) == ["direct_D", "new_N"]
        assert col.lookup_counts(key) == {"direct_D": 1, "new_N": 1}
