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
  answer;
- at the edges of the bucket fence: empty and one-key tables, empty
  buckets, hashes in the first and the last bucket, misses between two
  stored hashes of one bucket, and batches on both sides of numpy's
  500-element GIL-release threshold;

and pin the warm lookup paths to calls that keep the GIL: no sort,
binary search or dedupe on a batch of at most 500 keys.
"""

from __future__ import annotations

import ast
import copy
import pathlib
import random

import numpy as np
import pytest

import repro
from repro._util import framing
from repro.core.dictionary import ExecutionFingerprintDictionary, app_of_label
from repro.core.fingerprint import Fingerprint
from repro.engine import ShardedDictionary, load_columnar, save_columnar
from repro.engine import columnar as columnar_mod
from repro.engine import keyfilter
from repro.engine.remote import ShardServer, _ConnState
from repro.engine.sharded import shard_index

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
            hashes = store._hash_table().hashes
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


# ---------------------------------------------------------------------------
# The kernel at the edges of the fence
# ---------------------------------------------------------------------------

_TOP = 2 ** 64 - 1


def _kernel_case(stored, probes, fenced):
    """``_search`` over planted hashes against the exact answer.

    ``stored`` and ``probes`` are ``(hash, key)`` pairs; a key is an int
    written into all four key columns.  A probe's answer is the row of
    the stored pair with its hash *and* its key, else ``-1``.
    """
    keys = np.array([key for _, key in stored], dtype=np.int64)
    hashes = np.array([h for h, _ in stored], dtype=np.uint64)
    table = columnar_mod._sorted_table(hashes, np.arange(len(stored)))
    if not fenced:
        table = columnar_mod.HashTable(table.hashes, table.rows)
    columns = {"metric_id": keys, "interval_id": keys, "node": keys,
               "value": keys.view(np.float64)}
    read = []
    probe_keys = np.array([key for _, key in probes], dtype=np.int64)
    got = columnar_mod._search(
        table, lambda: read.append(1) or columns,
        np.array([h for h, _ in probes], dtype=np.uint64),
        [probe_keys] * 4,
    ).tolist()
    where = {pair: row for row, pair in enumerate(stored)}
    assert got == [where.get(pair, -1) for pair in probes]
    return read


FENCED = pytest.mark.parametrize("fenced", [True, False],
                                 ids=["fence", "searchsorted"])


class TestKernelEdges:
    @FENCED
    def test_empty_table_misses_and_reads_nothing(self, fenced):
        read = _kernel_case([], [(0, 1), (_TOP, 2), (12345, 3)], fenced)
        assert read == []
        assert _kernel_case([], [], fenced) == []

    @FENCED
    def test_one_key_table(self, fenced):
        h = 2 ** 63 + 17
        probes = [(h, 7), (h, 8), (h - 1, 7), (h + 1, 7), (0, 7), (_TOP, 7)]
        _kernel_case([(h, 7)], probes, fenced)
        _kernel_case([(0, 7)], [(0, 7), (0, 8), (1, 7)], fenced)
        _kernel_case([(_TOP, 7)], [(_TOP, 7), (_TOP, 8), (0, 7)], fenced)

    @FENCED
    def test_first_last_and_empty_buckets(self, fenced):
        # 16 keys: a 5-bit fence of 32 buckets, most of them empty.
        # Bucket 0 holds hashes 0 and 5, the middle one 2**63 + 10 and
        # + 30, and the last one a colliding pair at 2**64 - 1: a wrong
        # key there walks off the last slot of the table.
        mid = 2 ** 63
        stored = [(0, 1), (5, 2), (mid + 10, 3), (mid + 30, 4),
                  (_TOP - 1, 5), (_TOP, 6), (_TOP, 7)]
        stored += [((i * 2 ** 59) + 3, 100 + i) for i in range(1, 10)]
        fence = columnar_mod._sorted_table(
            np.array([h for h, _ in stored], dtype=np.uint64),
            np.arange(len(stored)),
        ).fence
        assert len(fence) == 2 ** 5 + 1 and fence[-1] == len(stored)
        assert np.count_nonzero(np.diff(fence) == 0) > 16
        probes = list(stored) + [
            (0, 2), (1, 1), (4, 1), (6, 1),           # first bucket
            (mid + 20, 3), (mid + 11, 4), (mid + 29, 3),  # between two
            (mid + 31, 4), (mid - 1, 3),
            (_TOP, 8), (_TOP - 1, 6), (_TOP - 2, 5),  # last bucket
            (2 ** 62 + 1, 0),                         # below a key
            (12 * 2 ** 59 + 1, 0), (20 * 2 ** 59, 0), # empty buckets
        ]
        _kernel_case(stored, probes, fenced)

    @FENCED
    def test_long_runs_of_one_hash(self, fenced):
        # Twenty keys on one hash, then twenty on the largest one.
        stored = [(77, k) for k in range(20)] + [(_TOP, k) for k in range(20)]
        probes = [(77, k) for k in range(24)] + [(_TOP, k) for k in range(24)]
        _kernel_case(stored, probes, fenced)


def _edge_hashes(*args, **kwargs):
    """Real key hashes, except that node-0 keys hash to 0 and node-5
    keys to ``2**64 - 1`` (the first and the last bucket, each a run of
    one hash), and node-3 keys crowd one middle bucket at ``2**63`` plus
    their real hash's low byte."""
    h = keyfilter.key_hashes(*args, **kwargs)
    node = np.asarray(args[2])
    h[node == 0] = 0
    h[node == 5] = _TOP
    mid = node == 3
    h[mid] = np.uint64(2 ** 63) + (h[mid] & np.uint64(0xFF))
    return h


class TestEdgeBucketsInAStore:
    """The fence's edges through both batch paths and the point lookup,
    against the flat reference."""

    @pytest.mark.parametrize("filters, warm, overlay", MODES)
    def test_planted_edge_hashes_still_exact(self, tmp_path, monkeypatch,
                                             filters, warm, overlay):
        monkeypatch.setattr(columnar_mod, "key_hashes", _edge_hashes)
        reference = _flat(12, n_adds=120)
        store = _store(reference, tmp_path, filters)
        reference = copy.deepcopy(reference)
        if overlay:
            _learn(store, reference, 12)
        probes = _probes(12)
        if warm:
            store.warm_index()
            stored = store._hash_table().hashes
            assert stored[0] == 0 and stored[-1] == _TOP
            # Some miss lands between two stored hashes of the crowded
            # middle bucket.
            hashes = _edge_hashes(*store._probe(probes))
            crowd = stored[(stored >= np.uint64(2 ** 63))
                           & (stored <= np.uint64(2 ** 63 + 0xFF))]
            assert len(crowd) > 2
            assert any(
                crowd[0] < h < crowd[-1] and h not in crowd
                for h, fp in zip(hashes.tolist(), probes)
                if fp.node == 3 and not reference.lookup(fp)
            )
        _check(store, reference, probes)


class TestBatchSizes:
    """Batches on both sides of the 500-element threshold, with
    repeated keys, against the flat reference."""

    @pytest.mark.parametrize("filters, warm, overlay", MODES)
    @pytest.mark.parametrize("size", [0, 1, 500, 501, 5000])
    def test_batch_equals_the_flat_reference(
        self, tmp_path, size, filters, warm, overlay
    ):
        reference = _flat(3)
        store = _store(reference, tmp_path, filters)
        reference = copy.deepcopy(reference)
        if overlay:
            _learn(store, reference, 3)
        if warm:
            store.warm_index()
        pool = _probes(3)
        probes = random.Random(size).choices(pool, k=size)
        if size > 1:
            assert len(set(probes)) < size
        _check(store, reference, probes)

    @pytest.mark.parametrize("n_adds", [0, 1], ids=["empty", "one-key"])
    @pytest.mark.parametrize("filters", [True, False],
                             ids=["filtered", "unfiltered"])
    def test_empty_and_one_key_stores(self, tmp_path, n_adds, filters):
        reference = _flat(4, n_adds=n_adds)
        store = _store(reference, tmp_path, filters)
        probes = _probes(4) + [fp for fp, _ in reference.entries()]
        _check(store, reference, probes)
        store.warm_index()
        _check(store, reference, probes)


# ---------------------------------------------------------------------------
# The warm lookup paths keep the GIL
# ---------------------------------------------------------------------------

#: numpy calls that release the GIL at any size; beside a busy thread
#: each can wait a whole switch interval to win it back.
_RELEASING = ("argsort", "sort", "searchsorted", "unique", "lexsort")


def _forbid_releasing_calls(monkeypatch) -> None:
    for name in _RELEASING:
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"np.{_name} on a warm lookup")
        monkeypatch.setattr(np, name, refuse)


class TestGilQuietLookup:
    """A warm lookup of at most 500 keys makes no numpy call that
    releases the GIL: every other numpy call holds it below 500
    elements, so a verdict batch on an executor thread never waits on
    the event loop's thread to win the GIL back."""

    def test_warm_store_with_a_pending_overlay_key(self, tmp_path,
                                                   monkeypatch):
        reference = _flat(6)
        store = _store(reference, tmp_path, filters=True)
        reference = copy.deepcopy(reference)
        _learn(store, reference, 6)
        store.warm_index()
        pool = _probes(6)
        store.lookup_many(pool)  # builds the overlay's table
        probes = random.Random(6).choices(pool, k=500)
        _forbid_releasing_calls(monkeypatch)
        assert store.lookup_many(probes) == [
            reference.lookup(fp) for fp in probes
        ]

    def test_session_batch_probes_only_its_distinct_keys(self, tmp_path,
                                                         monkeypatch):
        # 1200 session probes over at most 28 distinct keys: only those
        # keys reach the store's numpy kernel, and nothing sorts.
        from repro.core.matcher import match_fingerprints
        from repro.core.streaming import StreamSession
        from repro.engine import BatchRecognizer

        reference = _flat(8)
        store = _store(reference, tmp_path, filters=True)
        reference = copy.deepcopy(reference)
        _learn(store, reference, 8)
        store.warm_index()
        metric, interval, depth = METRICS[0], INTERVALS[0], 19  # exact
        engine = BatchRecognizer(store, metric=metric, depth=depth,
                                 interval=interval)
        rng = random.Random(8)
        sessions, expected, keys = [], [], set()
        for _ in range(300):
            values = [rng.choice(VALUES) for _ in range(4)]
            session = StreamSession(None, metric, depth, interval, n_nodes=4)
            session.restore(values, [1] * 4, [True] * 4, 4)
            sessions.append(session)
            fps = [Fingerprint(metric, node, interval, value)
                   for node, value in enumerate(values)]
            expected.append(match_fingerprints(reference, fps))
            keys.update((fp.node, fp.value) for fp in fps)
        engine.recognize_sessions(sessions[:1])  # builds the overlay's table
        sizes = []
        handles = store._handles

        def spy(*columns, **kwargs):
            sizes.append(len(columns[2]))
            return handles(*columns, **kwargs)

        monkeypatch.setattr(store, "_handles", spy)
        _forbid_releasing_calls(monkeypatch)
        assert engine.recognize_sessions(sessions) == expected
        assert sizes == [len(keys)]

    def test_shard_server_dict_view_bucket(self, monkeypatch):
        reference = _flat(7)
        sharded = ShardedDictionary.from_flat(reference, 3)
        server = ShardServer(sharded, n_shards=3, port=0)
        state = _ConnState()
        server._op_hello({"proto": 2, "metrics": [], "intervals": []}, state)

        def bucket(shard, fps):
            """The server's answer to one probe bucket, as label lists;
            the bucket's strings ride in its table extension."""
            metrics = list(dict.fromkeys(fp.metric for fp in fps))
            intervals = list(dict.fromkeys(fp.interval for fp in fps))
            m0, i0 = len(state.metrics), len(state.intervals)
            payload = framing.encode_probe_request(
                1, shard,
                np.array([m0 + metrics.index(fp.metric) for fp in fps]),
                np.array([i0 + intervals.index(fp.interval) for fp in fps]),
                np.array([fp.node for fp in fps]),
                np.array([fp.value for fp in fps], dtype=np.float64),
                table_ext={"metrics": metrics,
                           "intervals": [list(iv) for iv in intervals]},
            )
            reply = framing.decode_probe_reply(
                server._op_probe_v2(payload, state)
            )
            ids = reply["label_ids"].tolist()
            out, at = [], 0
            for n in reply["match_counts"].tolist():
                out.append([state.labels[i] for i in ids[at:at + n]])
                at += n
            return out

        rng = random.Random(7)
        pool = _probes(7) + [fp for fp, _ in reference.entries()]
        mine = [fp for fp in pool if shard_index(fp, 3) == 1]
        bucket(1, mine)  # builds the shard's view
        probes = rng.choices(mine, k=500)
        _forbid_releasing_calls(monkeypatch)
        assert bucket(1, probes) == [reference.lookup(fp) for fp in probes]
