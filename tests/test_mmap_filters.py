"""Unit tests for the mmap shard codec and the negative-lookup filters.

The property suite (``tests/test_engine_properties.py``) pins the
behavioral equivalence of the columnar store; this file pins the codec
mechanics: byte layout, zero-copy mapping, named structural errors,
filter serialization, and the fold paths of ``compact_shards``.
The crash-interruption cases live in ``tests/test_faultinject.py``.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint
from repro.core.serialization import (
    COLUMN_DTYPES,
    COLUMN_NAMES,
    column_lengths,
    dictionary_to_columns,
)
from repro.engine import (
    ShardedDictionary,
    compact_shards,
    load_columnar,
    save_columnar,
)
from repro.engine.keyfilter import (
    DEFAULT_BITS_PER_KEY,
    KeyFilter,
    filter_filename,
    key_hashes,
)
from repro.engine.mmapstore import (
    MmapShardFile,
    mmap_filename,
    write_mmap_shard,
)


def _fp(i: int) -> Fingerprint:
    return Fingerprint(
        metric=f"m{i % 3}",
        node=i % 5,
        interval=(float(i % 4) * 60.0, float(i % 4) * 60.0 + 60.0),
        value=float(i) * 100.0,
    )


def _sample_columns(n: int = 40):
    efd = ExecutionFingerprintDictionary()
    for i in range(n):
        efd.add(_fp(i), f"app{i % 6}_X")
    return dictionary_to_columns(efd, {}, {}, {})


def _sharded(n: int = 120, n_shards: int = 4) -> ShardedDictionary:
    sharded = ShardedDictionary(n_shards)
    for i in range(n):
        sharded.add(_fp(i), f"app{i % 6}_X")
    return sharded


class TestMmapShardCodec:
    def test_round_trip_exact(self, tmp_path):
        columns = _sample_columns()
        path = str(tmp_path / "shard-00.mmap")
        checksum = write_mmap_shard(path, columns)
        shard = MmapShardFile(
            path, "shard-00.mmap", checksum, len(columns["node"])
        )
        loaded = shard.columns()
        for name in COLUMN_NAMES:
            np.testing.assert_array_equal(loaded[name], columns[name])
            assert loaded[name].dtype in (np.int64, np.float64)

    def test_columns_are_views_over_one_mapping(self, tmp_path):
        # The zero-copy contract: every column is a view into the one
        # shared memmap, not a private decompressed copy.
        columns = _sample_columns()
        path = str(tmp_path / "shard-00.mmap")
        checksum = write_mmap_shard(path, columns)
        shard = MmapShardFile(
            path, "shard-00.mmap", checksum, len(columns["node"])
        )
        loaded = shard.columns()
        for name in COLUMN_NAMES:
            assert loaded[name].base is shard._mm

    def test_value_bits_round_trip(self, tmp_path):
        # -0.0 and subnormals survive the raw layout bit-exactly.
        columns = _sample_columns(8)
        columns["value"] = np.array(
            [-0.0, 0.0, 5e-324, -5e-324, 1.5, -1.5, 2.0, 3.0]
        )
        path = str(tmp_path / "s.mmap")
        checksum = write_mmap_shard(path, columns)
        shard = MmapShardFile(path, "s.mmap", checksum, 8)
        got = shard.columns()["value"]
        assert got.tobytes() == columns["value"].tobytes()

    def test_total_size_is_pure_function_of_header(self, tmp_path):
        columns = _sample_columns()
        path = str(tmp_path / "s.mmap")
        write_mmap_shard(path, columns)
        lengths = column_lengths(
            len(columns["node"]),
            len(columns["label_ids"]),
            len(columns["label_order"]),
        )
        payload = sum(
            lengths[name] * np.dtype(COLUMN_DTYPES[name]).itemsize
            for name in COLUMN_NAMES
        )
        size = os.path.getsize(path)
        assert size >= payload
        assert size % 64 == 0  # every column (and the tail) is aligned

    def test_missing_file_named(self, tmp_path):
        shard = MmapShardFile(
            str(tmp_path / "gone.mmap"), "gone.mmap", None, 3
        )
        with pytest.raises(FileNotFoundError, match="gone.mmap"):
            shard.columns()

    def test_truncated_file_named(self, tmp_path):
        columns = _sample_columns()
        path = str(tmp_path / "s.mmap")
        checksum = write_mmap_shard(path, columns)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        shard = MmapShardFile(path, "s.mmap", checksum, len(columns["node"]))
        with pytest.raises(ValueError, match="truncated"):
            shard.columns()

    def test_bad_magic_named(self, tmp_path):
        columns = _sample_columns()
        path = str(tmp_path / "s.mmap")
        checksum = write_mmap_shard(path, columns)
        data = bytearray(open(path, "rb").read())
        data[:8] = b"NOTMAGIC"
        open(path, "wb").write(bytes(data))
        shard = MmapShardFile(path, "s.mmap", checksum, len(columns["node"]))
        with pytest.raises(ValueError, match="bad magic"):
            shard.columns()

    def test_key_count_mismatch_named(self, tmp_path):
        columns = _sample_columns()
        path = str(tmp_path / "s.mmap")
        checksum = write_mmap_shard(path, columns)
        shard = MmapShardFile(path, "s.mmap", checksum, 999)
        with pytest.raises(ValueError, match="manifest expects 999"):
            shard.columns()

    def test_bit_flip_fails_checksum(self, tmp_path):
        columns = _sample_columns()
        path = str(tmp_path / "s.mmap")
        checksum = write_mmap_shard(path, columns)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x40  # one flipped bit mid-payload
        open(path, "wb").write(bytes(data))
        shard = MmapShardFile(path, "s.mmap", checksum, len(columns["node"]))
        with pytest.raises(ValueError, match="checksum"):
            shard.columns()

    def test_generation_suffix_naming(self):
        assert mmap_filename(3) == "shard-03.mmap"
        assert mmap_filename(3, generation=2) == "shard-03.g2.mmap"
        assert filter_filename(3) == "shard-03.filter"
        assert filter_filename(3, generation=2) == "shard-03.g2.filter"


class TestKeyFilterCodec:
    def test_bytes_round_trip(self):
        hashes = key_hashes(
            np.arange(100), np.arange(100) % 3,
            np.arange(100) % 7, np.arange(100) * 17,
        )
        filt = KeyFilter.build(hashes, bits_per_key=8)
        back = KeyFilter.from_bytes(filt.to_bytes())
        assert np.array_equal(back.words, filt.words)
        assert back.n_hashes == filt.n_hashes
        assert back.n_keys == filt.n_keys
        assert bool(back.might_contain(hashes).all())

    def test_empty_filter_answers_absent(self):
        filt = KeyFilter.build(np.empty(0, dtype=np.uint64))
        probes = key_hashes(
            np.arange(10), np.zeros(10), np.zeros(10), np.arange(10)
        )
        assert not filt.might_contain(probes).any()
        back = KeyFilter.from_bytes(filt.to_bytes())
        assert not back.might_contain(probes).any()

    def test_truncated_header_named(self):
        with pytest.raises(ValueError, match="truncated header"):
            KeyFilter.from_bytes(b"EFD", name="shard-00.filter")

    def test_bad_magic_named(self):
        filt = KeyFilter.build(np.arange(5, dtype=np.uint64))
        data = b"XXXXXXXX" + filt.to_bytes()[8:]
        with pytest.raises(ValueError, match="bad magic"):
            KeyFilter.from_bytes(data, name="shard-00.filter")

    def test_truncated_words_named(self):
        filt = KeyFilter.build(np.arange(64, dtype=np.uint64))
        with pytest.raises(ValueError, match="header implies"):
            KeyFilter.from_bytes(filt.to_bytes()[:-8], name="f")

    def test_probe_hash_matches_stored_hash(self):
        # A probe built from scalar components hashes identically to
        # the stored row built from arrays — the property that lets
        # the store test probes against per-shard filters at all.
        stored = key_hashes(
            np.array([4]), np.array([2]), np.array([7]),
            np.array([123456789]),
        )
        probe = key_hashes(
            np.array([4], dtype=np.int64), np.array([2], dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.array([123456789], dtype=np.int64),
        )
        assert stored[0] == probe[0]


class TestStoreLevelFilters:
    def test_missing_filter_file_named_at_load(self, tmp_path):
        directory = str(tmp_path / "efd")
        save_columnar(_sharded(), directory)
        victim = next(
            f for f in sorted(os.listdir(directory)) if f.endswith(".filter")
        )
        os.remove(os.path.join(directory, victim))
        with pytest.raises(FileNotFoundError, match=victim):
            load_columnar(directory)

    def test_corrupt_filter_file_named_at_load(self, tmp_path):
        directory = str(tmp_path / "efd")
        save_columnar(_sharded(), directory)
        victim = next(
            f for f in sorted(os.listdir(directory)) if f.endswith(".filter")
        )
        path = os.path.join(directory, victim)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(ValueError, match=victim):
            load_columnar(directory)

    def test_missing_hash_index_named_at_load(self, tmp_path):
        directory = str(tmp_path / "efd")
        save_columnar(_sharded(), directory)
        victim = next(
            f for f in sorted(os.listdir(directory)) if f.endswith(".hashidx")
        )
        os.remove(os.path.join(directory, victim))
        with pytest.raises(FileNotFoundError, match=victim):
            load_columnar(directory)

    def test_corrupt_hash_index_named_at_first_scan(self, tmp_path):
        # The hash index reads lazily — open stays O(manifest) — so the
        # damage surfaces, by name, on the first filter-passing probe.
        directory = str(tmp_path / "efd")
        save_columnar(_sharded(), directory)
        victim = next(
            f for f in sorted(os.listdir(directory)) if f.endswith(".hashidx")
        )
        path = os.path.join(directory, victim)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        open(path, "wb").write(bytes(data))
        store = load_columnar(directory)
        with pytest.raises(ValueError, match="checksum|corrupt"):
            store.lookup_many([_fp(i) for i in range(120)])

    def test_filterless_save_and_preservation(self, tmp_path):
        # filters=False writes the pre-filter manifest shape; folding
        # its delta-log keeps it filterless rather than upgrading.
        directory = str(tmp_path / "efd")
        save_columnar(_sharded(), directory, filters=False)
        store = load_columnar(directory)
        assert store.filter_info() is None
        store.add(_fp(10_001), "late_X")
        compact_shards(directory)
        store = load_columnar(directory)
        assert store.filter_info() is None
        assert store.lookup(_fp(10_001)) == ["late_X"]

    def test_unknown_metric_batch_reads_no_columns(self, tmp_path,
                                                   no_dict_efd):
        # Probes whose metric/interval was never learned short-circuit
        # before hashing — guaranteed zero column reads.
        directory = str(tmp_path / "efd")
        save_columnar(_sharded(), directory)
        store = load_columnar(directory)
        # Nothing past the open may read a shard or hash-index file.
        for name in os.listdir(directory):
            if name.endswith((".mmap", ".hashidx")):
                os.remove(os.path.join(directory, name))
        misses = [
            Fingerprint("never_learned", i % 4, (0.0, 60.0), float(i))
            for i in range(200)
        ]
        with no_dict_efd():
            assert store.lookup_many(misses) == [[] for _ in misses]
        assert all(f._columns is None for f in store._files)

    def test_all_miss_batch_stays_lazy(self, tmp_path, no_dict_efd):
        # Known-metric misses resolve through the filters; the rare
        # false positive falls through to its shard's sorted hash
        # sidecar, where a miss finds no equal hash — so the batch
        # hydrates no per-shard dict and maps no column file.
        directory = str(tmp_path / "efd")
        save_columnar(_sharded(), directory)
        store = load_columnar(directory)
        misses = [_fp(i) for i in range(50_000, 50_200)]
        with no_dict_efd():
            assert store.lookup_many(misses) == [[] for _ in misses]
        assert all(f._columns is None for f in store._files)

    def test_small_hit_batch_stays_lazy(self, tmp_path):
        # A few filter-surviving probes resolve from the per-shard hash
        # sidecars, verified against the touched rows only — no bulk
        # (checksummed) read of any shard's columns.
        directory = str(tmp_path / "efd")
        sharded = _sharded()
        save_columnar(sharded, directory)
        store = load_columnar(directory)
        probes = [_fp(3), _fp(50_000), _fp(7)]
        assert store.lookup_many(probes) == [
            sharded.lookup(fp) for fp in probes
        ]
        assert not any(f._verified for f in store._files)

    def test_filter_info_shape(self, tmp_path):
        directory = str(tmp_path / "efd")
        save_columnar(_sharded(), directory)
        info = load_columnar(directory).filter_info()
        assert info["bits_per_key"] == DEFAULT_BITS_PER_KEY
        assert info["n_shards"] == 4
        assert info["n_keys"] == 120
        assert 0.0 < info["fp_bound"] < 0.05

    def test_filter_count_mismatch_rejected(self, tmp_path):
        import json

        directory = str(tmp_path / "efd")
        save_columnar(_sharded(), directory)
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["filters"]["shards"] = manifest["filters"]["shards"][:-1]
        json.dump(manifest, open(manifest_path, "w"))
        with pytest.raises(ValueError, match="filter"):
            load_columnar(directory)


class TestConversion:
    def test_noop_conversion_refused(self, tmp_path):
        directory = str(tmp_path / "efd")
        save_columnar(_sharded(), directory)
        with pytest.raises(ValueError, match="already compacted"):
            compact_shards(directory)

    def test_conversion_folds_pending_log(self, tmp_path):
        directory = str(tmp_path / "efd")
        save_columnar(_sharded(), directory)
        store = load_columnar(directory)
        late = _fp(70_000)
        store.add(late, "late_X")
        summary = compact_shards(directory)
        assert summary["folded_records"] == 1
        store = load_columnar(directory)
        assert store.delta_pending == 0
        assert store.lookup(late) == ["late_X"]

    @pytest.mark.parametrize("filters", [True, False],
                             ids=["filtered", "unfiltered"])
    def test_fold_to_out_leaves_source_log(self, filters, tmp_path):
        src = str(tmp_path / "src")
        dst = str(tmp_path / "dst")
        save_columnar(_sharded(), src, filters=filters)
        late = _fp(70_000)
        load_columnar(src).add(late, "late_X")
        summary = compact_shards(src, out=dst)
        assert summary["folded_records"] == 1
        assert load_columnar(src).delta_pending == 1
        store = load_columnar(dst)
        assert store.delta_pending == 0
        assert store.lookup(late) == ["late_X"]
        assert (store.filter_info() is None) == (not filters)
