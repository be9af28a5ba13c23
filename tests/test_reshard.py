"""Online resharding: order-preserving, byte-identical, verdict-neutral.

The reshard contract (ISSUE 5 acceptance): ``reshard`` changes a
directory's shard count without a relearn, moving only keys whose
``stable_hash % N != stable_hash % M``; a reshard N→M→N round-trips to
*byte-identical* payloads (columnar writes are deterministic);
and verdicts over a 500-execution batch are element-wise identical
before and after, across {1, 2, 4, 8} → {2, 3, 8, 16}.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint, build_fingerprints
from repro.core.recognizer import EFDRecognizer
from repro.engine import (
    BatchRecognizer,
    ShardedDictionary,
    count_moved_keys,
    load_columnar,
    reshard,
    reshard_store,
    save_columnar,
    shard_index,
)

OLD_COUNTS = (1, 2, 4, 8)
NEW_COUNTS = (2, 3, 8, 16)


def _fp(value: float, node: int = 0, metric: str = "m") -> Fingerprint:
    return Fingerprint(
        metric=metric, node=node, interval=(60.0, 120.0), value=value
    )


def _random_flat(seed: int, n: int = 200) -> ExecutionFingerprintDictionary:
    rng = random.Random(seed)
    flat = ExecutionFingerprintDictionary()
    flat.register_label("zz_Q")  # key-less label: order must survive
    for _ in range(n):
        flat.add(
            _fp(100.0 * rng.randrange(1, 60), rng.randrange(4)),
            f"{rng.choice(('ft', 'mg', 'sp', 'bt'))}_{rng.choice('XYZ')}",
        )
    return flat


def _dir_bytes(directory: str) -> dict:
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


def _normalized_columnar(directory: str):
    """Directory content with the crash-safety generation factored out.

    An in-place columnar rewrite always advances ``delta_generation``
    (new base files under fresh names + one atomic manifest commit — a
    crash can never half-overwrite the only copy), so byte-identity is
    asserted on what the generation does not touch: every shard
    payload, the key-order payload, and the manifest with the
    generation and the generation-suffixed file names normalized.  The
    manifest's checksums still pin the payload bytes exactly.
    """
    import json

    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    shard_bytes = [
        open(os.path.join(directory, meta["file"]), "rb").read()
        for meta in manifest["shards"]
    ]
    key_order_bytes = open(
        os.path.join(directory, manifest["key_order_file"]["file"]), "rb"
    ).read()
    filter_bytes = [
        open(os.path.join(directory, meta["file"]), "rb").read()
        for meta in manifest.get("filters", {}).get("shards", [])
    ]
    hash_bytes = [
        open(os.path.join(directory, meta["hash_file"]), "rb").read()
        for meta in manifest.get("filters", {}).get("shards", [])
        if meta.get("hash_file") is not None
    ]
    manifest["delta_generation"] = 0
    for i, meta in enumerate(manifest["shards"]):
        meta["file"] = f"shard-{i:02d}"
    for i, meta in enumerate(manifest.get("filters", {}).get("shards", [])):
        meta["file"] = f"shard-{i:02d}.filter"
        if meta.get("hash_file") is not None:
            meta["hash_file"] = f"shard-{i:02d}.hashidx"
    manifest["key_order_file"]["file"] = "key-order"
    return manifest, shard_bytes, key_order_bytes, filter_bytes, hash_bytes


class TestReshardStore:
    @pytest.mark.parametrize("n_old", OLD_COUNTS)
    @pytest.mark.parametrize("n_new", NEW_COUNTS)
    def test_every_observable_preserved(self, n_old, n_new):
        flat = _random_flat(n_old * 100 + n_new)
        old = ShardedDictionary.from_flat(flat, n_old)
        new = reshard_store(old, n_new)
        assert new.n_shards == n_new
        assert len(new) == len(flat)
        assert new.labels() == flat.labels()
        assert new.app_names() == flat.app_names()
        assert list(new.entries()) == list(flat.entries())
        assert new.stats() == flat.stats()
        for fp, _ in flat.entries():
            assert new.lookup_counts(fp) == flat.lookup_counts(fp)

    def test_keys_land_on_their_new_hash_shard(self):
        old = ShardedDictionary.from_flat(_random_flat(5), 4)
        new = reshard_store(old, 7)
        for i, shard in enumerate(new.shards):
            for fp, _ in shard.entries():
                assert shard_index(fp, 7) == i

    def test_moved_key_count_matches_hash_plan(self):
        flat = _random_flat(9)
        old = ShardedDictionary.from_flat(flat, 4)
        expected = sum(
            1 for fp, _ in flat.entries()
            if shard_index(fp, 4) != shard_index(fp, 6)
        )
        assert count_moved_keys(old, 6) == expected
        # Same count and the unmoved keys stay put in the new layout.
        new = reshard_store(old, 6)
        stayed = sum(
            1 for fp, _ in flat.entries()
            if shard_index(fp, 4) == shard_index(fp, 6)
        )
        assert stayed + expected == len(flat)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            reshard_store(ShardedDictionary(2), 0)


class TestReshardDirectory:
    @pytest.mark.parametrize("filters", [True, False],
                             ids=["filtered", "unfiltered"])
    @pytest.mark.parametrize("n_old", OLD_COUNTS)
    @pytest.mark.parametrize("n_new", NEW_COUNTS)
    def test_round_trip_is_byte_identical(self, filters, n_old, n_new,
                                          tmp_path):
        flat = _random_flat(17 + n_old, n=120)
        sharded = ShardedDictionary.from_flat(flat, n_old)
        directory = str(tmp_path / "efd")
        save_columnar(sharded, directory, filters=filters)
        originals = _normalized_columnar(directory)
        forward = reshard(directory, n_new)
        assert forward["old_shards"] == n_old
        assert forward["new_shards"] == n_new
        backward = reshard(directory, n_old)
        assert backward["moved_keys"] == forward["moved_keys"]
        # Byte-identical payloads; only the crash-safety generation (and
        # the file names it suffixes) advanced.
        assert _normalized_columnar(directory) == originals

    @pytest.mark.parametrize("filters", [True, False],
                             ids=["filtered", "unfiltered"])
    def test_orders_preserved_through_directory(self, filters, tmp_path):
        flat = _random_flat(23)
        sharded = ShardedDictionary.from_flat(flat, 4)
        directory = str(tmp_path / "efd")
        save_columnar(sharded, directory, filters=filters)
        reshard(directory, 9)
        loaded = load_columnar(directory)
        assert loaded.n_shards == 9
        # Resharding keeps the source's representation: filters stay
        # on (rebuilt for the new routing) or stay off.
        assert (loaded.filter_info() is None) == (not filters)
        assert loaded.labels() == flat.labels()
        assert loaded.app_names() == flat.app_names()
        assert [fp for fp, _ in loaded.entries()] == [
            fp for fp, _ in flat.entries()
        ]

    def test_out_directory_leaves_source_untouched(self, tmp_path):
        sharded = ShardedDictionary.from_flat(_random_flat(31), 4)
        src = str(tmp_path / "src")
        save_columnar(sharded, src)
        before = _dir_bytes(src)
        dst = str(tmp_path / "dst")
        summary = reshard(src, 8, out=dst)
        assert summary["directory"] == dst
        assert _dir_bytes(src) == before
        assert load_columnar(dst).n_shards == 8

    @pytest.mark.parametrize("filters", [True, False],
                             ids=["filtered", "unfiltered"])
    def test_shrinking_removes_orphaned_shard_files(self, filters, tmp_path):
        import json

        sharded = ShardedDictionary.from_flat(_random_flat(37), 8)
        directory = str(tmp_path / "efd")
        save_columnar(sharded, directory, filters=filters)
        reshard(directory, 2)
        with open(os.path.join(directory, "manifest.json")) as fh:
            manifest = json.load(fh)
        referenced = {meta["file"] for meta in manifest["shards"]}
        referenced.add(manifest["key_order_file"]["file"])
        filter_shards = manifest.get("filters", {}).get("shards", [])
        assert len(filter_shards) == (2 if filters else 0)
        for meta in filter_shards:
            referenced.add(meta["file"])
            if meta.get("hash_file") is not None:
                referenced.add(meta["hash_file"])
        assert len(manifest["shards"]) == 2
        on_disk = {
            name for name in os.listdir(directory)
            if name.endswith((".mmap", ".npz", ".filter", ".hashidx"))
        }
        # All 8 old shard files, and their filter sidecars, reclaimed.
        assert on_disk == referenced
        assert load_columnar(directory).n_shards == 2

    def test_pending_delta_is_folded_into_the_reshard(self, tmp_path):
        flat = _random_flat(41)
        sharded = ShardedDictionary.from_flat(flat, 4)
        directory = str(tmp_path / "efd")
        save_columnar(sharded, directory)
        col = load_columnar(directory)
        col.add(_fp(987654.0, 3), "new_N")
        flat.add(_fp(987654.0, 3), "new_N")
        reshard(directory, 6)
        loaded = load_columnar(directory)
        assert loaded.delta_pending == 0     # folded, not dropped
        assert list(loaded.entries()) == list(flat.entries())


class TestVerdictEquivalence:
    """Recognition over a 500-execution batch is reshard-invariant."""

    @pytest.fixture(scope="class")
    def fitted(self, tiny_dataset):
        recognizer = EFDRecognizer(depth=2).fit(tiny_dataset)
        records = list(tiny_dataset)
        # Tile the dataset up to a 500-execution batch (records are
        # immutable; repetition exercises the verdict memo too).
        batch = (records * (500 // len(records) + 1))[:500]
        return recognizer, batch

    @pytest.mark.parametrize("n_old", OLD_COUNTS)
    @pytest.mark.parametrize("n_new", NEW_COUNTS)
    def test_verdicts_identical_before_and_after(
        self, fitted, n_old, n_new, tmp_path
    ):
        recognizer, batch = fitted
        sharded = ShardedDictionary.from_flat(recognizer.dictionary_, n_old)
        directory = str(tmp_path / "efd")
        save_columnar(sharded, directory)
        before = BatchRecognizer(
            load_columnar(directory), depth=2
        ).recognize_records(batch)
        reshard(directory, n_new)
        after_store = load_columnar(directory)
        assert after_store.n_shards == n_new
        engine = BatchRecognizer(after_store, depth=2)
        assert engine.recognize_records(batch) == before

    def test_verdicts_match_the_flat_reference_path(self, fitted, tmp_path):
        recognizer, batch = fitted
        directory = str(tmp_path / "efd")
        save_columnar(
            ShardedDictionary.from_flat(recognizer.dictionary_, 4), directory
        )
        reshard(directory, 3)
        from repro.core.matcher import match_fingerprints

        expected = [
            match_fingerprints(
                recognizer.dictionary_,
                build_fingerprints(r, "nr_mapped_vmstat", 2),
            )
            for r in batch[:50]
        ]
        got = BatchRecognizer(
            load_columnar(directory), depth=2
        ).recognize_records(batch[:50])
        assert got == expected


class TestReshardCrashSafety:
    def test_leftover_segment_after_fold_is_not_double_applied(self, tmp_path):
        # Crash window: reshard folded the pending log into the rewrite
        # but died before removing the segment.  The rewrite advanced
        # the delta generation, so the resurrected segment must be
        # recognized as stale and discarded — not replayed on top of
        # the already-folded base.
        from repro.engine.deltalog import segment_path

        flat = _random_flat(53)
        sharded = ShardedDictionary.from_flat(flat, 4)
        directory = str(tmp_path / "efd")
        save_columnar(sharded, directory)
        col = load_columnar(directory)
        col.add(_fp(987654.0, 1), "new_N")
        flat.add(_fp(987654.0, 1), "new_N")
        segment = open(segment_path(directory), encoding="utf-8").read()
        reshard(directory, 6)
        with open(segment_path(directory), "w", encoding="utf-8") as fh:
            fh.write(segment)          # resurrect the pre-reshard log
        loaded = load_columnar(directory)
        assert loaded.delta_pending == 0
        assert list(loaded.entries()) == list(flat.entries())
        for fp, _ in flat.entries():
            assert loaded.lookup_counts(fp) == flat.lookup_counts(fp)
