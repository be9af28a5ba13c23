"""The DictionaryBackend protocol: conformance and cross-backend merge.

Every storage backend — flat, sharded-JSON, columnar — must satisfy
:class:`repro.engine.backend.DictionaryBackend`, and ``merge`` must work
across *any* ordered pair of backend types, preserving the string-table
(label/app first-seen) orders that drive tie-breaking.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint
from repro.engine import (
    DictionaryBackend,
    ShardedDictionary,
    load_columnar,
    merge_into,
    save_columnar,
)

_APPS = ("ft", "mg", "sp", "bt")
_INPUTS = ("X", "Y", "Z")


def _fp(value: float, node: int = 0, metric: str = "m") -> Fingerprint:
    return Fingerprint(
        metric=metric, node=node, interval=(60.0, 120.0), value=value
    )


def _random_flat(seed: int, n: int = 120) -> ExecutionFingerprintDictionary:
    rng = random.Random(seed)
    efd = ExecutionFingerprintDictionary()
    # A key-less label registered first: pure string-table state that a
    # cross-backend merge must carry over in position 0.
    efd.register_label(f"zz{seed}_Q")
    for _ in range(n):
        efd.add(
            _fp(100.0 * rng.randrange(1, 40), rng.randrange(4)),
            f"{rng.choice(_APPS)}_{rng.choice(_INPUTS)}",
        )
    return efd


def _backends(flat: ExecutionFingerprintDictionary, tmp_path, tag: str):
    sharded = ShardedDictionary.from_flat(flat, 4)
    col_dir = str(tmp_path / f"col-{tag}")
    save_columnar(sharded, col_dir)
    return {
        "flat": flat,
        "sharded": sharded,
        "columnar": load_columnar(col_dir),
    }


def _assert_equal_stores(a, b) -> None:
    assert len(a) == len(b)
    assert a.labels() == b.labels()
    assert a.app_names() == b.app_names()
    assert list(a.entries()) == list(b.entries())
    for fp, _ in a.entries():
        assert a.lookup_counts(fp) == b.lookup_counts(fp)
    assert a.stats() == b.stats()


class TestConformance:
    def test_all_backends_satisfy_the_protocol(self, tmp_path):
        for name, store in _backends(_random_flat(1), tmp_path, "conf").items():
            assert isinstance(store, DictionaryBackend), name

    def test_protocol_is_not_vacuous(self):
        class Half:
            def lookup(self, fp):
                return []

        assert not isinstance(Half(), DictionaryBackend)

    def test_lookup_many_on_every_backend(self, tmp_path):
        flat = _random_flat(2)
        keys = [fp for fp, _ in flat.entries()][:20] + [_fp(1e9)]
        expected = [flat.lookup(fp) for fp in keys]
        for name, store in _backends(flat, tmp_path, "lm").items():
            assert store.lookup_many(keys) == expected, name


class TestCrossBackendMerge:
    """merge works for every ordered (target, source) backend pair."""

    @pytest.mark.parametrize("target_kind", ["flat", "sharded", "columnar"])
    @pytest.mark.parametrize("source_kind", ["flat", "sharded", "columnar"])
    def test_merge_pairwise_equals_flat_reference(
        self, target_kind, source_kind, tmp_path
    ):
        targets = _backends(_random_flat(10), tmp_path, "t")
        sources = _backends(_random_flat(11), tmp_path, "s")
        reference = ExecutionFingerprintDictionary()
        reference.merge(_random_flat(10))
        reference.merge(_random_flat(11))
        target, source = targets[target_kind], sources[source_kind]
        target.merge(source)
        _assert_equal_stores(target, reference)
        targets["columnar"].close()
        sources["columnar"].close()

    def test_merge_preserves_string_table_order(self, tmp_path):
        # Regression: the source's label *registration* order — including
        # labels no key references — must survive a cross-backend merge,
        # because tie-breaking evaluates "the first application of the
        # array" in exactly that order.
        source = ExecutionFingerprintDictionary()
        source.register_label("aa_X")      # key-less, registered first
        source.add(_fp(100.0), "bb_Y")
        source.add(_fp(200.0), "cc_Z")
        source.register_label("dd_W")      # key-less, registered last
        sharded_src = ShardedDictionary.from_flat(source, 3)
        col_dir = str(tmp_path / "src-col")
        save_columnar(sharded_src, col_dir)
        for src in (source, sharded_src, load_columnar(col_dir)):
            assert src.labels() == ["aa_X", "bb_Y", "cc_Z", "dd_W"]
            target = ExecutionFingerprintDictionary()
            target.add(_fp(999.0), "ee_V")
            target.merge(src)
            assert target.labels() == [
                "ee_V", "aa_X", "bb_Y", "cc_Z", "dd_W"
            ], type(src).__name__
            assert target.app_names() == ["ee", "aa", "bb", "cc", "dd"]

    def test_merge_into_returns_entry_count(self):
        a, b = _random_flat(20, n=50), _random_flat(21, n=50)
        expected = sum(len(b.lookup_counts(fp)) for fp, _ in b.entries())
        assert merge_into(a, b) == expected

    def test_merge_into_columnar_lands_in_delta_log(self, tmp_path,
                                                    base_files):
        # Folding a flat store into a columnar one must go through the
        # write-ahead log: vectorized paths stay live and the merge
        # survives a reload.
        base = _random_flat(30, n=60)
        sharded = ShardedDictionary.from_flat(base, 4)
        col_dir = str(tmp_path / "col")
        save_columnar(sharded, col_dir)
        before = base_files(col_dir)
        col = load_columnar(col_dir)
        extra = _random_flat(31, n=40)
        col.merge(extra)
        reference = ExecutionFingerprintDictionary()
        reference.merge(base)
        reference.merge(extra)
        assert base_files(col_dir) == before     # base files untouched
        assert col.delta_pending > 0
        _assert_equal_stores(col, reference)
        col.close()
        reopened = load_columnar(col_dir)  # replays the log
        _assert_equal_stores(reopened, reference)

    def test_sharded_to_flat_and_back_round_trip(self):
        flat = _random_flat(40)
        sharded = ShardedDictionary.from_flat(flat, 8)
        back = ExecutionFingerprintDictionary()
        back.merge(sharded)
        _assert_equal_stores(back, flat)
