"""The array-in record path of :class:`repro.engine.BatchRecognizer`.

``recognize_records`` reduces a batch's windows as one matrix, resolves
every ``(node, value)`` probe to an integer handle and memoizes verdicts
on handle patterns.  These tests pin it to the scalar reference:

- batch means are bit-identical to per-slot ``interval_mean`` plus
  ``round_depth`` (dropout, all-NaN windows, infinities, mixed sampler
  configs, overrunning windows, ragged node counts, the empty batch);
- verdicts equal the sequential ``match_fingerprints(build_fingerprints)``
  including the insertion order of ``votes`` and ``matched_labels``
  (``MatchResult.__eq__`` ignores dict order), on every storage kind;
- a miss raises the same ``KeyError`` text as ``build_fingerprints``;
- an explicit ``warm()`` builds the records index on a filtered store.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint, build_fingerprints
from repro.core.matcher import match_fingerprints
from repro.core.recognizer import EFDRecognizer
from repro.core.rounding import round_depth
from repro.data.dataset import ExecutionRecord
from repro.engine import (
    BatchRecognizer,
    ShardedDictionary,
    load_columnar,
    save_columnar,
)
from repro.engine import columnar as columnar_mod
from repro.engine.batch import _batch_rounded_means, build_fingerprints_batch
from repro.telemetry.timeseries import TimeSeries

METRIC = "nr_mapped_vmstat"
INTERVAL = (60.0, 120.0)
DEPTH = 2

#: ``(period, t0, length)`` sampler configs against the default window:
#: clean fits, an overrun (clipped by the scalar routine), a window the
#: series misses entirely, and an off-grid origin.
CONFIGS = (
    (1.0, 0.0, 150),
    (1.0, 0.0, 100),
    (2.0, 5.0, 80),
    (0.5, 30.0, 300),
    (1.0, 130.0, 50),
    (0.75, 0.3, 200),
)
#: How a node's samples are damaged before the window is reduced.
DAMAGE = ("clean", "dropout", "all-nan", "+inf", "-inf", "+-inf",
          "+-inf-dropout")


def _series(rng: np.random.Generator, config, damage: str) -> TimeSeries:
    period, t0, length = config
    values = rng.normal(1000.0, 40.0, size=length).round(1)
    if damage == "dropout":
        values[rng.random(length) < rng.uniform(0.05, 0.9)] = np.nan
    elif damage == "all-nan":
        values[:] = np.nan
    elif damage in ("+inf", "-inf", "+-inf", "+-inf-dropout"):
        spots = rng.choice(length, size=2, replace=False)
        values[spots[0]] = -np.inf if damage == "-inf" else np.inf
        if damage.startswith("+-"):
            values[spots[1]] = -np.inf
        if damage == "+-inf-dropout":
            values[rng.random(length) < 0.3] = np.nan
    return TimeSeries(values, period=period, t0=t0)


def _record(record_id: int, series, metric: str = METRIC) -> ExecutionRecord:
    return ExecutionRecord(
        record_id=record_id,
        app_name="ft",
        input_size="X",
        n_nodes=len(series),
        duration=300.0,
        telemetry={(metric, node): s for node, s in enumerate(series)},
    )


@st.composite
def _batches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixed = draw(st.booleans())
    shared = draw(st.sampled_from(CONFIGS))
    records = []
    for record_id in range(draw(st.integers(0, 6))):
        series = []
        for _ in range(draw(st.integers(1, 5))):
            config = draw(st.sampled_from(CONFIGS)) if mixed else shared
            series.append(_series(rng, config, draw(st.sampled_from(DAMAGE))))
        records.append(_record(record_id, series))
    return records


def _scalar_means(records, depth, interval):
    start, end = interval
    return np.array(
        [
            round_depth(record.series(METRIC, node).interval_mean(start, end),
                        depth)
            for record in records
            for node in range(record.n_nodes)
        ],
        dtype=np.float64,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
class TestBatchMeansBitIdentical:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_batches(), st.integers(1, 4),
           st.sampled_from([INTERVAL, (0.0, 60.0), (10.5, 33.25)]))
    def test_means_match_scalar_bits(self, records, depth, interval):
        got = _batch_rounded_means(records, METRIC, depth, *interval)
        want = _scalar_means(records, depth, interval)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_batches(), st.integers(1, 4))
    def test_fingerprints_match_sequential(self, records, depth):
        got = build_fingerprints_batch(records, METRIC, depth, INTERVAL)
        want = [build_fingerprints(r, METRIC, depth, INTERVAL) for r in records]
        assert got == want
        bits = [
            [None if fp is None else np.float64(fp.value).view(np.int64)
             for fp in fps]
            for fps in got
        ]
        assert bits == [
            [None if fp is None else np.float64(fp.value).view(np.int64)
             for fp in fps]
            for fps in want
        ]

    def test_empty_batch(self):
        assert len(_batch_rounded_means([], METRIC, 2, *INTERVAL)) == 0
        assert build_fingerprints_batch([], METRIC, 2) == []


# -- verdicts, dict order included ------------------------------------------

def _assert_same(got, want):
    assert got == want
    for g, w in zip(got, want):
        assert g.ranked == w.ranked
        assert list(g.votes) == list(w.votes)
        assert list(g.matched_labels) == list(w.matched_labels)


def _sequential(dictionary, records, depth):
    return [
        match_fingerprints(dictionary, build_fingerprints(r, METRIC, depth))
        for r in records
    ]


@pytest.fixture(scope="module")
def openworld(small_dataset):
    """A dictionary fitted on 8 of the 11 applications, with some keys
    relabelled to a second application (multi-app votes and ties); the
    records span all 11 and some lose a node (NaN slots).  ``unknown``
    holds the records no key matches."""
    apps = sorted({r.app_name for r in small_dataset})
    known = [r for r in small_dataset if r.app_name in apps[:8]]
    flat = EFDRecognizer(depth=DEPTH).fit(known).dictionary_
    for i, record in enumerate(known[::4]):
        fps = build_fingerprints(record, METRIC, DEPTH)[: 1 + i % 4]
        for fp in fps:
            flat.add(fp, f"{apps[(i + 3) % 8]}_Z")
    records = list(small_dataset)
    for record in records[::9]:
        telemetry = dict(record.telemetry)
        telemetry[(METRIC, 1)] = TimeSeries(np.full(160, np.nan))
        records.append(dataclasses.replace(record, telemetry=telemetry))
    unknown = [
        r for r, result in zip(records, _sequential(flat, records, DEPTH))
        if not result.matched_labels
    ]
    return flat, records, unknown


def _columnar(flat, path, **kwargs):
    save_columnar(ShardedDictionary.from_flat(flat, 3), str(path), **kwargs)
    return load_columnar(str(path))


class TestRecordsEqualSequential:
    @pytest.mark.parametrize(
        "kind", ["flat", "sharded", "mmap", "mmap-unfiltered"]
    )
    def test_every_store_kind(self, openworld, kind, tmp_path):
        flat, records, _ = openworld
        store = {
            "flat": lambda: flat,
            "sharded": lambda: ShardedDictionary.from_flat(flat, 3),
            "mmap": lambda: _columnar(flat, tmp_path),
            "mmap-unfiltered": lambda: _columnar(flat, tmp_path,
                                                 filters=False),
        }[kind]()
        engine = BatchRecognizer(store, metric=METRIC, depth=DEPTH)
        want = _sequential(flat, records, DEPTH)
        assert any(not r.ranked for r in want)       # unknowns present
        assert any(len(r.ranked) > 1 for r in want)  # multi-app ties
        assert any(r.n_missing for r in want)        # NaN slots
        _assert_same(engine.recognize_records(records), want)
        _assert_same(engine.recognize_records(records[::-1]), want[::-1])

    def test_pending_overlay_keys(self, openworld, tmp_path):
        flat, records, _ = openworld
        store = _columnar(flat, tmp_path)
        reference = copy.deepcopy(flat)
        # Existing keys gain labels, and brand-new keys appear.
        learned = [fp for fp in build_fingerprints(records[0], METRIC, DEPTH)
                   if fp is not None]
        learned.append(Fingerprint(METRIC, 0, INTERVAL, 123456.0))
        for fp in learned:
            for label in ("zz_Q", "ft_X"):
                store.add(fp, label)
                reference.add(fp, label)
        assert store.delta_pending
        engine = BatchRecognizer(store, metric=METRIC, depth=DEPTH)
        _assert_same(engine.recognize_records(records),
                     _sequential(reference, records, DEPTH))
        # Overlay keys answer through the key-hash tables: the batch
        # never decodes the store's whole key order.
        assert store._key_order_cache is None

    def test_filters_before_and_after_hits(self, openworld, tmp_path):
        flat, records, unknown = openworld
        store = _columnar(flat, tmp_path)
        engine = BatchRecognizer(store, metric=METRIC, depth=DEPTH)
        # Unknown records only: every probe misses, so a cold store
        # answers from the filters and hash sidecars without mapping a
        # single column file.
        _assert_same(engine.recognize_records(unknown),
                     _sequential(flat, unknown, DEPTH))
        assert all(f._columns is None for f in store._files)
        _assert_same(engine.recognize_records(records),
                     _sequential(flat, records, DEPTH))
        assert any(f._columns is not None for f in store._files)

    @pytest.mark.parametrize("kind", ["flat", "mmap", "mmap-unfiltered"])
    def test_signed_zero_probes(self, kind, tmp_path):
        flat = ExecutionFingerprintDictionary()
        flat.add(Fingerprint(METRIC, 0, INTERVAL, -0.0), "neg_A")
        flat.add(Fingerprint(METRIC, 1, INTERVAL, 0.0), "pos_B")
        flat.add(Fingerprint(METRIC, 2, INTERVAL, 5.0), "five_C")
        flat.add(Fingerprint(METRIC, 0, INTERVAL, 0.0), "pos_B")
        store = {
            "flat": lambda: flat,
            "mmap": lambda: _columnar(flat, tmp_path),
            "mmap-unfiltered": lambda: _columnar(flat, tmp_path,
                                                 filters=False),
        }[kind]()
        length = 150
        windows = [
            [np.full(length, -0.0), np.full(length, 0.0), np.full(length, 5.0)],
            [np.full(length, 0.0), np.full(length, -0.0), np.full(length, 5.0)],
            [np.full(length, 5.0), np.tile([0.0, -0.0], length // 2),
             np.full(length, -0.0)],
        ]
        records = [
            _record(i, [TimeSeries(v) for v in values])
            for i, values in enumerate(windows)
        ]
        engine = BatchRecognizer(store, metric=METRIC, depth=2)
        want = _sequential(flat, records, 2)
        assert all(r.votes for r in want)
        _assert_same(engine.recognize_records(records), want)
        if kind != "flat":
            index = store.batch_index(METRIC, INTERVAL)
            resolved = index.resolve_probes(
                np.array([0, 0, 1, 1]), np.array([-0.0, 0.0, -0.0, 0.0])
            )
            handles = resolved.handles.tolist()
            assert handles[0] == handles[1] >= 0
            assert handles[2] == handles[3] >= 0
            assert (0, -0.0) in resolved and (2, 0.0) not in resolved

    def test_results_are_independent_objects(self, openworld):
        flat, records, _ = openworld
        engine = BatchRecognizer(flat, metric=METRIC, depth=DEPTH)
        twice = [records[0], records[0]]
        first, second = engine.recognize_records(twice)
        assert first == second and first is not second
        first.votes["poison"] = 1
        first.matched_labels["poison"] = 1
        assert "poison" not in second.votes
        assert "poison" not in second.matched_labels


# -- error texts ---------------------------------------------------------------

def _message(call):
    with pytest.raises(KeyError) as caught:
        call()
    return caught.value.args[0]


class TestMissErrors:
    def _good(self):
        rng = np.random.default_rng(0)
        return _record(0, [_series(rng, CONFIGS[0], "clean")] * 2)

    def _check(self, bad):
        want = _message(lambda: build_fingerprints(bad, METRIC, 2))
        flat = ExecutionFingerprintDictionary()
        flat.add(Fingerprint(METRIC, 0, INTERVAL, 1000.0), "ft_X")
        engine = BatchRecognizer(flat, metric=METRIC, depth=2)
        batch = [self._good(), bad]
        assert _message(
            lambda: _batch_rounded_means(batch, METRIC, 2, *INTERVAL)
        ) == want
        assert _message(lambda: engine.recognize_records(batch)) == want
        return want

    def test_record_missing_the_metric(self):
        rng = np.random.default_rng(1)
        bad = _record(7, [_series(rng, CONFIGS[0], "clean")] * 3,
                      metric="Committed_AS_meminfo")
        assert "has no telemetry for metric" in self._check(bad)

    def test_record_missing_one_node(self):
        rng = np.random.default_rng(2)
        bad = _record(8, [_series(rng, CONFIGS[0], "clean")] * 3)
        del bad.telemetry[(METRIC, 1)]
        assert "node=1" in self._check(bad)


# -- warm ----------------------------------------------------------------------

class TestWarmBuildsRecordsIndex:
    @pytest.mark.parametrize("filters", [True, False],
                             ids=["mmap", "mmap-unfiltered"])
    def test_first_batch_builds_nothing(self, openworld, tmp_path,
                                        monkeypatch, filters):
        flat, records, _ = openworld
        store = _columnar(flat, tmp_path, filters=filters)
        engine = BatchRecognizer(store, metric=METRIC, depth=DEPTH).warm()
        assert all(f._verified for f in store._files)

        def no_build(*args, **kwargs):
            raise AssertionError("the first batch rebuilt an index")

        # After warm() a batch reads no hash table and no bulk columns.
        monkeypatch.setattr(columnar_mod.ColumnarDictionary,
                            "_shard_hash_index", no_build)
        monkeypatch.setattr(columnar_mod.MmapShardFile, "columns", no_build)
        _assert_same(engine.recognize_records(records),
                     _sequential(flat, records, DEPTH))
