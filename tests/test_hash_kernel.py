"""The columnar store's one exact-match kernel.

Both batch paths of :class:`repro.engine.ColumnarDictionary` —
``lookup_many`` (full keys) and ``ColumnarBatchIndex.resolve_probes``
(``(node, value)`` probes of one metric and interval) — search the same
sorted key-hash tables and verify every candidate against the key
columns.  These tests pin both paths, and the point ``lookup``, to the
flat :class:`~repro.core.dictionary.ExecutionFingerprintDictionary`:

- across cold and warm stores, filtered and unfiltered stores, and
  pending delta-log overlay keys — including a learned key whose metric
  and interval the manifest never saw;
- with ``-0.0``/``0.0`` and NaN probes;
- under a forced-collision hash, where most keys share one of four
  hash values, so the kernel's walk over equal hashes decides every
  answer.
"""

from __future__ import annotations

import ast
import copy
import pathlib
import random

import numpy as np
import pytest

import repro
from repro.core.dictionary import ExecutionFingerprintDictionary, app_of_label
from repro.core.fingerprint import Fingerprint
from repro.engine import ShardedDictionary, load_columnar, save_columnar
from repro.engine import columnar as columnar_mod
from repro.engine import keyfilter

METRICS = ("nr_mapped_vmstat", "Committed_AS_meminfo")
INTERVALS = ((60.0, 120.0), (0.0, 60.0))
#: The learned-only key space: neither string is in any manifest.
NEW_METRIC = "learned_only_metric"
NEW_INTERVAL = (5.0, 7.0)
VALUES = (-0.0, 0.0, 1.5, 2.5, 1000.0, 5300.0, 1e-300, -7.25)
LABELS = ("ft_X", "mg_Y", "sp_Z", "bt_X", "miniAMR_Y")


def _key(rng: random.Random) -> Fingerprint:
    return Fingerprint(
        metric=rng.choice(METRICS),
        node=rng.randrange(6),
        interval=rng.choice(INTERVALS),
        value=rng.choice(VALUES),
    )


def _flat(seed: int, n_adds: int = 90) -> ExecutionFingerprintDictionary:
    rng = random.Random(seed)
    flat = ExecutionFingerprintDictionary()
    for _ in range(n_adds):
        flat.add(_key(rng), rng.choice(LABELS))
    return flat


def _store(flat, tmp_path, filters: bool, n_shards: int = 3):
    directory = str(tmp_path / f"efd-{filters}")
    save_columnar(ShardedDictionary.from_flat(flat, n_shards), directory,
                  filters=filters)
    return load_columnar(directory)


def _learn(store, reference, seed: int) -> None:
    """Overlay keys of every kind: base keys gaining a label, new keys
    of known metrics, and a key of a metric and interval the manifest
    never saw."""
    rng = random.Random(seed + 1000)
    learned = [_key(rng) for _ in range(12)]
    learned.append(Fingerprint(NEW_METRIC, 1, INTERVALS[0], 2.5))
    learned.append(Fingerprint(METRICS[0], 2, NEW_INTERVAL, 0.0))
    learned.append(Fingerprint(NEW_METRIC, 3, NEW_INTERVAL, -0.0))
    for fp in learned:
        for label in ("zz_Q", rng.choice(LABELS)):
            store.add(fp, label)
            reference.add(fp, label)
    assert store.delta_pending


def _probes(seed: int):
    """Every key of the space once over (hits and misses alike), each
    value also probed with the opposite zero sign."""
    rng = random.Random(seed + 2000)
    probes = []
    for metric in METRICS + (NEW_METRIC, "never_learned"):
        for interval in INTERVALS + (NEW_INTERVAL,):
            for node in range(6):
                value = rng.choice(VALUES)
                probes.append(Fingerprint(metric, node, interval, value))
                if value == 0.0:
                    probes.append(Fingerprint(metric, node, interval, -value))
    rng.shuffle(probes)
    return probes[:200]  # at most _SCAN_MAX: a cold store stays cold


def _entry(labels):
    return labels, tuple(dict.fromkeys(app_of_label(l) for l in labels))


def _check_batches(store, reference, probes) -> None:
    """lookup_many and resolve_probes equal the reference, and
    resolve_probes' entries equal lookup_many's labels."""
    want = [reference.lookup(fp) for fp in probes]
    got = store.lookup_many(probes)
    assert got == want
    labels_of = dict(zip(probes, got))
    spaces = {(fp.metric, fp.interval) for fp in probes}
    for metric, interval in sorted(spaces):
        mine = [fp for fp in probes
                if (fp.metric, fp.interval) == (metric, interval)]
        nodes = np.array([fp.node for fp in mine] + [0, 1], dtype=np.int64)
        values = np.array([fp.value for fp in mine] + [np.nan, np.nan])
        resolved = store.batch_index(metric, interval).resolve_probes(
            nodes, values
        )
        handles = resolved.handles.tolist()
        assert handles[-2:] == [-1, -1]  # NaN: no fingerprint, a miss
        for fp, handle in zip(mine, handles):
            if handle < 0:
                assert labels_of[fp] == []
            else:
                assert resolved.entries[handle] == _entry(labels_of[fp])
                assert labels_of[fp]
        # Probes of one key share one handle, whatever the zero sign.
        by_key = {}
        for fp, handle in zip(mine, handles):
            assert by_key.setdefault(fp, handle) == handle


def _check(store, reference, probes) -> None:
    """Both batch paths, then the point lookup, equal the reference."""
    _check_batches(store, reference, probes)
    assert [store.lookup(fp) for fp in probes] == [
        reference.lookup(fp) for fp in probes
    ]


MODES = [
    pytest.param(filters, warm, overlay,
                 id=f"{'filtered' if filters else 'unfiltered'}-"
                    f"{'warm' if warm else 'cold'}-"
                    f"{'overlay' if overlay else 'clean'}")
    for filters in (True, False)
    for warm in (False, True)
    for overlay in (False, True)
]


class TestBatchPathsAgree:
    @pytest.mark.parametrize("filters, warm, overlay", MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_both_paths_equal_the_flat_reference(
        self, tmp_path, seed, filters, warm, overlay
    ):
        reference = _flat(seed)
        store = _store(reference, tmp_path, filters)
        reference = copy.deepcopy(reference)
        if overlay:
            _learn(store, reference, seed)
        if warm:
            store.warm_index()
        probes = _probes(seed)
        _check_batches(store, reference, probes)
        if filters and not warm:
            # The cold batches answered from the sidecars: no shard's
            # columns were read in bulk.
            assert not any(f._verified for f in store._files)
        _check(store, reference, probes)

    def test_learned_key_of_unseen_metric_and_interval(self, tmp_path):
        reference = _flat(5)
        store = _store(reference, tmp_path, filters=True)
        fp = Fingerprint(NEW_METRIC, 0, NEW_INTERVAL, 1.5)
        assert store.lookup_many([fp]) == [[]]
        store.add(fp, "new_A")
        assert store.lookup_many([fp]) == [["new_A"]]
        resolved = store.batch_index(NEW_METRIC, NEW_INTERVAL).resolve_probes(
            np.array([0, 0]), np.array([1.5, 2.5])
        )
        handle, miss = resolved.handles.tolist()
        assert miss == -1
        assert resolved.entries[handle] == (["new_A"], ("new",))


def _weak_hashes(*args, **kwargs):
    return keyfilter.key_hashes(*args, **kwargs) & np.uint64(3)


class TestForcedCollisions:
    """With every key hash masked to two bits, sidecars, filters and
    probes still agree, but nearly every probe's hash is shared by a
    quarter of the store: only the verify walk keeps answers exact."""

    @pytest.mark.parametrize("filters, warm, overlay", MODES)
    def test_weak_hash_still_exact(self, tmp_path, monkeypatch, filters,
                                   warm, overlay):
        monkeypatch.setattr(columnar_mod, "key_hashes", _weak_hashes)
        reference = _flat(11, n_adds=120)
        store = _store(reference, tmp_path, filters)
        reference = copy.deepcopy(reference)
        if overlay:
            _learn(store, reference, 11)
        if warm:
            store.warm_index()
            hashes, _ = store._hash_table()
            assert len(np.unique(hashes)) <= 4 < len(hashes)
        _check(store, reference, _probes(11))


class TestNoFallbacks:
    def test_no_overflow_paths_and_one_resolve_probes(self):
        """The key-hash kernel cannot overflow, so the columnar store
        and the batch engine neither raise nor catch ``OverflowError``;
        and one class defines ``resolve_probes``, so both batch paths
        keep one search routine."""
        root = pathlib.Path(repro.__file__).parent / "engine"
        bad = []
        for name in ("columnar.py", "batch.py"):
            tree = ast.parse((root / name).read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise):
                    caught = [node.exc]
                elif isinstance(node, ast.ExceptHandler):
                    caught = [node.type]
                    if isinstance(node.type, ast.Tuple):
                        caught = node.type.elts
                else:
                    continue
                for expr in caught:
                    if expr is not None and "OverflowError" in ast.dump(expr):
                        bad.append(f"{name}:{node.lineno}")
        assert bad == []
        tree = ast.parse((root / "columnar.py").read_text(encoding="utf-8"))
        definers = [
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef)
                and item.name == "resolve_probes"
                for item in node.body
            )
        ]
        assert definers == ["ColumnarBatchIndex"]
