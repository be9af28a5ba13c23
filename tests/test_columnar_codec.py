"""Columnar codec: lossless round-trips and hostile-input edges.

Every corruption mode — a missing manifest, a missing or swapped shard
file, damaged key-order bytes, inconsistent manifests, a legacy storage
or the retired sharded-JSON layout — must be reported by name (byte-level
damage inside one ``.mmap`` shard is pinned in
``tests/test_mmap_filters.py``), and every value/label edge the JSON
codec survives (-0.0, subnormals, unicode/underscore-heavy labels,
empty shards, repetition counts beyond 2**31) must round-trip exactly.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np
import pytest

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint
from repro.core.serialization import (
    dictionary_from_columns,
    dictionary_to_columns,
)
from repro.engine import (
    ShardedDictionary,
    load_columnar,
    save_columnar,
    shard_index,
)


def _fp(value: float, node: int = 0, metric: str = "m",
        interval=(60.0, 120.0)) -> Fingerprint:
    return Fingerprint(metric=metric, node=node, interval=interval, value=value)


def _sample_sharded(n_shards: int = 4, n_keys: int = 24) -> ShardedDictionary:
    sharded = ShardedDictionary(n_shards)
    for i in range(n_keys):
        sharded.add(_fp(100.0 * (i + 1), i % 4), f"ft_{'XYZ'[i % 3]}")
        if i % 5 == 0:
            sharded.add(_fp(100.0 * (i + 1), i % 4), "mg_Y")
    return sharded


def _assert_equal_stores(a, b) -> None:
    assert len(a) == len(b)
    assert a.labels() == b.labels()
    assert a.app_names() == b.app_names()
    assert list(a.entries()) == list(b.entries())
    for fp, _ in a.entries():
        assert b.lookup_counts(fp) == a.lookup_counts(fp)
    assert a.stats() == b.stats()


def _round_trip_columns(efd: ExecutionFingerprintDictionary):
    label_index, metric_index, interval_index = {}, {}, {}
    columns = dictionary_to_columns(
        efd, label_index, metric_index, interval_index
    )
    return dictionary_from_columns(
        columns,
        list(label_index),
        list(metric_index),
        list(interval_index),
    )


class TestColumnCodec:
    def test_round_trip_identity(self):
        efd = ExecutionFingerprintDictionary()
        efd.register_label("zz_Q")  # registered before any key references it
        for i in range(30):
            efd.add(_fp(10.0 * (i + 1), i % 3, metric=("m1", "m2")[i % 2]),
                    f"sp_{'XY'[i % 2]}")
        efd.add(_fp(10.0), "bt_X")  # second app on an existing key
        back = _round_trip_columns(efd)
        _assert_equal_stores(efd, back)
        assert back.labels() == efd.labels()  # incl. the key-less zz_Q

    def test_repetition_counts_beyond_int32(self):
        efd = ExecutionFingerprintDictionary()
        big = (1 << 31) + 17
        efd.add_repeated(_fp(6000.0), "ft_X", big)
        efd.add(_fp(6000.0), "ft_X")
        back = _round_trip_columns(efd)
        assert back.lookup_counts(_fp(6000.0)) == {"ft_X": big + 1}
        assert back.stats().n_insertions == big + 1

    def test_negative_zero_value_round_trips(self):
        efd = ExecutionFingerprintDictionary()
        efd.add(_fp(-0.0), "ft_X")
        back = _round_trip_columns(efd)
        (fp, _), = back.entries()
        # The stored bit pattern survives (still -0.0) ...
        assert struct.pack("<d", fp.value) == struct.pack("<d", -0.0)
        # ... and equality semantics hold: a +0.0 probe hits it.
        assert back.lookup(_fp(0.0)) == ["ft_X"]

    def test_subnormal_values_round_trip_exactly(self):
        smallest = 5e-324          # minimal positive subnormal
        subnormal = 2.2250738585072014e-308 / 4.0
        efd = ExecutionFingerprintDictionary()
        efd.add(_fp(smallest), "ft_X")
        efd.add(_fp(subnormal, node=1), "mg_Y")
        back = _round_trip_columns(efd)
        values = [fp.value for fp, _ in back.entries()]
        assert [struct.pack("<d", v) for v in values] == [
            struct.pack("<d", smallest), struct.pack("<d", subnormal)
        ]
        assert back.lookup(_fp(smallest)) == ["ft_X"]

    def test_unicode_and_underscore_heavy_labels(self):
        labels = ["naïve_模型_X", "_leading", "a__b__c", "noseparator",
                  "emoji_🚀_Z", "trailing_"]
        efd = ExecutionFingerprintDictionary()
        for i, label in enumerate(labels):
            efd.add(_fp(100.0 * (i + 1)), label)
        back = _round_trip_columns(efd)
        _assert_equal_stores(efd, back)
        assert back.labels() == labels

    def test_validation_rejects_structural_damage(self):
        efd = ExecutionFingerprintDictionary()
        efd.add(_fp(100.0), "ft_X")
        label_index, metric_index, interval_index = {}, {}, {}
        columns = dictionary_to_columns(
            efd, label_index, metric_index, interval_index
        )
        tables = (list(label_index), list(metric_index), list(interval_index))

        def broken(**overrides):
            damaged = dict(columns)
            damaged.update(overrides)
            return damaged

        with pytest.raises(ValueError, match="missing column"):
            damaged = dict(columns)
            del damaged["label_ids"]
            dictionary_from_columns(damaged, *tables)
        with pytest.raises(ValueError, match="no labels"):
            dictionary_from_columns(
                broken(label_offsets=np.array([0, 0], dtype=np.int64),
                       label_ids=np.empty(0, dtype=np.int64),
                       label_counts=np.empty(0, dtype=np.int64)),
                *tables,
            )
        with pytest.raises(ValueError, match="repetition count"):
            dictionary_from_columns(
                broken(label_counts=np.array([0], dtype=np.int64)), *tables
            )
        with pytest.raises(ValueError, match="label table"):
            dictionary_from_columns(
                broken(label_ids=np.array([7], dtype=np.int64)), *tables
            )
        with pytest.raises(ValueError, match="metric"):
            dictionary_from_columns(
                broken(metric_id=np.array([3], dtype=np.int64)), *tables
            )
        with pytest.raises(ValueError, match="lengths"):
            dictionary_from_columns(
                broken(node=np.array([0, 1], dtype=np.int64)), *tables
            )

    def test_count_overflowing_int64_rejected_at_encode(self):
        efd = ExecutionFingerprintDictionary()
        efd.add(_fp(100.0), "ft_X")
        efd._store[_fp(100.0)]["ft_X"] = 1 << 63  # force the overflow
        with pytest.raises(ValueError, match="int64"):
            dictionary_to_columns(efd, {}, {}, {})


class TestColumnarDirectory:
    def test_directory_round_trip(self, tmp_path):
        sharded = _sample_sharded()
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        loaded = load_columnar(directory)
        _assert_equal_stores(sharded, loaded)

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_round_trip_matches_at_every_shard_count(self, n_shards,
                                                     tmp_path):
        from repro.core.matcher import match_fingerprints

        sharded = _sample_sharded(n_shards)
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        loaded = load_columnar(directory)
        assert loaded.n_shards == n_shards
        _assert_equal_stores(sharded, loaded)
        known = [fp for fp, _ in sharded.entries()]
        for fps in ([known[0], known[5]], [known[1], None], [_fp(1.5)]):
            assert match_fingerprints(loaded, fps) == \
                match_fingerprints(sharded, fps)

    def test_manifest_names_every_file_with_a_checksum(self, tmp_path):
        directory = str(tmp_path / "col")
        save_columnar(_sample_sharded(4), directory)
        manifest = json.loads(
            open(os.path.join(directory, "manifest.json")).read()
        )
        assert manifest["layout"] == "columnar"
        assert manifest["storage"] == "mmap"
        assert manifest["format_version"] == 1
        assert manifest["n_shards"] == 4
        assert len(manifest["shards"]) == 4
        for meta in manifest["shards"] + [manifest["key_order_file"]]:
            assert os.path.isfile(os.path.join(directory, meta["file"]))
            assert meta["checksum"]

    def test_missing_manifest_named(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            load_columnar(str(tmp_path / "nowhere"))
        directory = tmp_path / "list"
        directory.mkdir()
        (directory / "manifest.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_columnar(str(directory))

    def test_json_shard_layout_refused_by_name(self, tmp_path):
        # A directory of the retired sharded-JSON layout: format_version
        # 1 and no layout field in its manifest.
        directory = tmp_path / "json"
        directory.mkdir()
        (directory / "manifest.json").write_text(json.dumps({
            "format_version": 1, "n_shards": 1, "label_order": [],
            "shards": [{"file": "shard-00.json", "n_keys": 0}],
        }))
        with pytest.raises(ValueError) as excinfo:
            load_columnar(str(directory))
        message = str(excinfo.value)
        assert repr(str(directory)) in message
        assert "sharded-JSON layout" in message
        assert "no longer reads" in message
        assert "`efd engine compact`" in message and "37f0edd" in message

    def test_empty_shards_and_empty_store(self, tmp_path):
        # One key across many shards: most shard files hold zero keys.
        sparse = ShardedDictionary(4)
        sparse.add(_fp(6000.0), "ft_X")
        directory = str(tmp_path / "sparse")
        save_columnar(sparse, directory)
        loaded = load_columnar(directory)
        _assert_equal_stores(sparse, loaded)
        assert sorted(loaded.shard_sizes()) == [0, 0, 0, 1]
        # A fully empty store round-trips too (registered label kept).
        empty = ShardedDictionary(2)
        empty.register_label("ft_X")
        directory = str(tmp_path / "empty")
        save_columnar(empty, directory)
        loaded = load_columnar(directory)
        assert len(loaded) == 0
        assert loaded.labels() == ["ft_X"]
        assert list(loaded.entries()) == []

    def test_big_counts_unicode_and_negative_zero_through_files(self, tmp_path):
        sharded = ShardedDictionary(2)
        big = (1 << 31) + 5
        fp = _fp(-0.0)
        sharded.add(fp, "naïve_模型_X")
        sharded.shard_of(fp).add_repeated(fp, "naïve_模型_X", big - 1)
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        loaded = load_columnar(directory)
        assert loaded.lookup_counts(_fp(0.0)) == {"naïve_模型_X": big}

    def test_missing_shard_file_named_lazily(self, tmp_path):
        sharded = _sample_sharded()
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        loaded = load_columnar(directory)  # reads only the manifest
        victim_index = next(
            i for i, size in enumerate(sharded.shard_sizes()) if size > 0
        )
        victim = f"shard-{victim_index:02d}.mmap"
        os.remove(os.path.join(directory, victim))
        # Keys of *other* shards still resolve — shards load lazily ...
        other = next(
            fp for fp, _ in sharded.entries()
            if shard_index(fp, sharded.n_shards) != victim_index
        )
        assert loaded.lookup(other) == sharded.lookup(other)
        # ... and touching the gone shard names the missing file.
        with pytest.raises(FileNotFoundError, match=victim):
            list(loaded.entries())

    @staticmethod
    def _rewrite_shard(directory, name, data):
        """Replace a shard file and re-stamp its manifest checksum, so
        only the codec's structural checks can catch the damage."""
        import hashlib

        open(os.path.join(directory, name), "wb").write(data)
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        for meta in manifest["shards"]:
            if meta["file"] == name:
                meta["checksum"] = hashlib.blake2b(
                    data, digest_size=16
                ).hexdigest()
        open(manifest_path, "w").write(json.dumps(manifest))

    def _occupied_shard(self, tmp_path):
        sharded = _sample_sharded()
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        occupied = next(
            i for i, size in enumerate(sharded.shard_sizes()) if size > 0
        )
        return directory, f"shard-{occupied:02d}.mmap"

    def test_tampered_mmap_fails_checksum_by_name(self, tmp_path):
        directory, name = self._occupied_shard(tmp_path)
        path = os.path.join(directory, name)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(path, "wb").write(bytes(data))
        loaded = load_columnar(directory)
        with pytest.raises(ValueError, match=f"{name}.*checksum"):
            list(loaded.entries())

    def test_truncated_mmap_named_even_with_matching_checksum(
        self, tmp_path
    ):
        directory, name = self._occupied_shard(tmp_path)
        data = open(os.path.join(directory, name), "rb").read()
        self._rewrite_shard(directory, name, data[: len(data) - 64])
        loaded = load_columnar(directory)
        with pytest.raises(ValueError, match=f"{name}.*truncated"):
            list(loaded.entries())

    def test_short_label_column_named_even_with_matching_checksum(
        self, tmp_path
    ):
        # A raw shard has no members to drop; the analogue of a missing
        # column is a header whose label-entry count disagrees with the
        # bytes that follow it.
        directory, name = self._occupied_shard(tmp_path)
        data = bytearray(open(os.path.join(directory, name), "rb").read())
        magic, n_keys, n_entries, n_order = struct.unpack_from(
            "<8sQQQ", data
        )
        struct.pack_into("<8sQQQ", data, 0, magic, n_keys,
                         n_entries + 64, n_order)
        self._rewrite_shard(directory, name, bytes(data))
        loaded = load_columnar(directory)
        with pytest.raises(ValueError, match=f"{name}.*header implies"):
            list(loaded.entries())

    def test_swapped_mmap_files_detected_on_hydration(self, tmp_path):
        # Grow until two distinct shards hold the same number of keys, so
        # swapping their files defeats every structural check (sizes,
        # checksums, key_order ranges) and only routing validation is
        # left to catch it — the strongest tamper case.
        sharded = ShardedDictionary(4)
        pair = None
        for i in range(1, 200):
            sharded.add(_fp(100.0 * i, i % 4), "ft_X")
            sizes = sharded.shard_sizes()
            occupied = [
                (size, j) for j, size in enumerate(sizes) if size > 0
            ]
            counts: dict = {}
            for size, j in occupied:
                counts.setdefault(size, []).append(j)
            equal = [js for js in counts.values() if len(js) >= 2]
            if equal:
                pair = equal[0][:2]
                break
        assert pair is not None
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        a = os.path.join(directory, f"shard-{pair[0]:02d}.mmap")
        b = os.path.join(directory, f"shard-{pair[1]:02d}.mmap")
        data_a, data_b = open(a, "rb").read(), open(b, "rb").read()
        open(a, "wb").write(data_b)
        open(b, "wb").write(data_a)
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        import hashlib

        by_name = {m["file"]: m for m in manifest["shards"]}
        for path in (a, b):
            by_name[os.path.basename(path)]["checksum"] = hashlib.blake2b(
                open(path, "rb").read(), digest_size=16
            ).hexdigest()
        open(manifest_path, "w").write(json.dumps(manifest))
        loaded = load_columnar(directory)
        with pytest.raises(ValueError, match="renamed or swapped"):
            list(loaded.entries())

    def test_key_order_damage_rejected_eagerly(self, tmp_path):
        import hashlib
        import io as _io

        sharded = _sample_sharded()
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        manifest_path = os.path.join(directory, "manifest.json")
        pristine_manifest = open(manifest_path).read()
        key_order_path = os.path.join(directory, "key-order.npz")
        pristine_key_order = open(key_order_path, "rb").read()

        def with_key_order(mutate):
            open(manifest_path, "w").write(pristine_manifest)
            with np.load(_io.BytesIO(pristine_key_order)) as payload:
                shard = payload["shard"].astype(np.int64)
                pos = payload["pos"].astype(np.int64)
            shard, pos = mutate(shard, pos)
            buffer = _io.BytesIO()
            np.savez(buffer, shard=shard, pos=pos)
            data = buffer.getvalue()
            open(key_order_path, "wb").write(data)
            manifest = json.loads(pristine_manifest)
            manifest["key_order_file"]["checksum"] = hashlib.blake2b(
                data, digest_size=16
            ).hexdigest()
            open(manifest_path, "w").write(json.dumps(manifest))

        with_key_order(lambda s, p: (s[:-1], p[:-1]))  # one entry dropped
        with pytest.raises(ValueError, match="key_order lists"):
            load_columnar(directory)
        def duplicate(s, p):
            s[1], p[1] = s[0], p[0]
            return s, p
        with_key_order(duplicate)
        with pytest.raises(ValueError, match="twice"):
            load_columnar(directory)
        def out_of_range(s, p):
            s[0] = 99
            return s, p
        with_key_order(out_of_range)
        with pytest.raises(ValueError, match="out of range"):
            load_columnar(directory)
        # Stale checksum (file not matching the manifest) is caught too.
        open(manifest_path, "w").write(pristine_manifest)
        open(key_order_path, "wb").write(pristine_key_order[:-7])
        with pytest.raises(ValueError, match="key-order.npz"):
            load_columnar(directory)
        os.remove(key_order_path)
        with pytest.raises(FileNotFoundError, match="key-order.npz"):
            load_columnar(directory)

    def test_manifest_damage_rejected_eagerly(self, tmp_path):
        sharded = _sample_sharded()
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        manifest_path = os.path.join(directory, "manifest.json")
        pristine = open(manifest_path).read()

        def with_manifest(change):
            manifest = json.loads(pristine)
            change(manifest)
            open(manifest_path, "w").write(json.dumps(manifest))

        with_manifest(lambda m: m.__setitem__("app_order", ["zz"]))
        with pytest.raises(ValueError, match="app_order"):
            load_columnar(directory)
        with_manifest(lambda m: m.__setitem__("format_version", 99))
        with pytest.raises(ValueError, match="format version"):
            load_columnar(directory)
        with_manifest(lambda m: m["shards"].pop())
        with pytest.raises(ValueError, match="shard files"):
            load_columnar(directory)
        with_manifest(lambda m: m.__setitem__("layout", "rows"))
        with pytest.raises(ValueError, match="unknown layout 'rows'"):
            load_columnar(directory)

    @pytest.mark.parametrize("storage", ["npz", None, "zip"])
    def test_legacy_storage_rejected_by_name(self, storage, tmp_path):
        # Stores from before mmap became the only codec say
        # storage="npz" or (older still) carry no storage field.
        directory = str(tmp_path / "col")
        save_columnar(_sample_sharded(), directory)
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        assert manifest["storage"] == "mmap"
        if storage is None:
            del manifest["storage"]
        else:
            manifest["storage"] = storage
        open(manifest_path, "w").write(json.dumps(manifest))
        named = repr(storage or "npz")
        with pytest.raises(ValueError) as excinfo:
            load_columnar(directory)
        message = str(excinfo.value)
        assert repr(directory) in message
        assert f"{named} storage" in message
        assert "earlier revision" in message
        assert "expand" not in message

    @pytest.mark.parametrize("storage", ["npz", "zip", None])
    def test_save_accepts_only_mmap_storage(self, storage, tmp_path):
        directory = str(tmp_path / "col")
        with pytest.raises(ValueError, match="unsupported columnar storage"):
            save_columnar(_sample_sharded(), directory, storage=storage)
        assert not os.path.exists(directory)
        save_columnar(_sample_sharded(), directory, storage="mmap")
        assert load_columnar(directory).labels() == \
            _sample_sharded().labels()


def _mapped(store) -> list:
    """Shards whose ``.mmap`` file a read has mapped so far."""
    return [i for i, f in enumerate(store._files) if f._columns is not None]


class TestColumnReads:
    """Reads answer from the columns and the overlay: no dict EFD is
    built, and only the files a read needs are mapped."""

    def test_load_reads_no_shard_files(self, tmp_path):
        sharded = _sample_sharded()
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        loaded = load_columnar(directory)
        assert _mapped(loaded) == []
        # Cheap observables answer from the manifest alone.
        assert len(loaded) == len(sharded)
        assert loaded.shard_sizes() == sharded.shard_sizes()
        assert loaded.labels() == sharded.labels()
        assert _mapped(loaded) == []

    def test_point_reads_map_only_the_owning_shard(
        self, tmp_path, no_dict_efd
    ):
        sharded = _sample_sharded()
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        loaded = load_columnar(directory)
        fp = next(fp for fp, _ in sharded.entries())
        with no_dict_efd():
            assert loaded.lookup(fp) == sharded.lookup(fp)
            assert loaded.lookup_counts(fp) == sharded.lookup_counts(fp)
            assert fp in loaded
            assert _fp(123456.0, 3) not in loaded
        assert _mapped(loaded) == [shard_index(fp, 4)]

    def test_lookup_many_builds_no_dict(self, tmp_path, no_dict_efd):
        sharded = _sample_sharded()
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        loaded = load_columnar(directory)
        keys = [fp for fp, _ in sharded.entries()]
        misses = [_fp(123456.0, 3), _fp(100.0, 0, metric="nope"),
                  _fp(100.0, 0, interval=(0.0, 60.0))]
        with no_dict_efd():
            assert loaded.lookup_many(keys + misses) == [
                sharded.lookup(fp) for fp in keys + misses
            ]

    def test_routed_writes_keep_column_caches_live(
        self, tmp_path, no_dict_efd, base_files
    ):
        # The delta-log contract: a public write lands in the overlay,
        # never touches the base files, and every read path keeps
        # answering — merged with the new observation.
        sharded = _sample_sharded()
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        before = base_files(directory)
        loaded = load_columnar(directory)
        new_key = _fp(987654.0, 2)
        old_key = next(fp for fp, _ in sharded.entries())
        with no_dict_efd():
            loaded.add(new_key, "zz_Q")
            loaded.add(old_key, "zz_Q")
            assert loaded.delta_pending == 2
            assert loaded.batch_index("m", (60.0, 120.0)) is not None
            assert loaded.lookup_many([new_key, old_key]) == [
                ["zz_Q"], sharded.lookup(old_key) + ["zz_Q"]
            ]
            assert loaded.lookup(new_key) == ["zz_Q"]
            assert "zz_Q" in loaded.labels()
        loaded.close()
        assert base_files(directory) == before

    def test_store_has_no_shard_to_write_behind_the_log(self, tmp_path):
        # The columnar store is not a sharded store: it holds no shard
        # objects, so every write goes through its delta-log.
        sharded = _sample_sharded()
        directory = str(tmp_path / "col")
        save_columnar(sharded, directory)
        loaded = load_columnar(directory)
        assert not isinstance(loaded, ShardedDictionary)
        assert not hasattr(loaded, "shards")
        assert not hasattr(loaded, "pristine")


class TestResaveByteIdentity:
    def test_resave_of_a_loaded_store_is_byte_identical(self, tmp_path):
        # A store saved from a loaded columnar store, loaded and saved
        # again, gives the same files byte for byte.  (The first save,
        # from an in-memory store, differs only in each shard's
        # write-only label_order column.)
        sharded = _sample_sharded()
        first, second, third = (
            str(tmp_path / name) for name in ("first", "second", "third")
        )
        save_columnar(sharded, first)
        save_columnar(load_columnar(first), second)
        save_columnar(load_columnar(second), third)

        def files(directory):
            return {
                name: open(os.path.join(directory, name), "rb").read()
                for name in sorted(os.listdir(directory))
            }

        assert files(third) == files(second)
        _assert_equal_stores(load_columnar(third), sharded)
