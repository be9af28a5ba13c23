"""The benchmark's own checks, at tiny scale.

Percentile and lag math, failure accounting, the tracer's waterfall,
and the reference check catching a deliberately wrong engine answer.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np
import pytest

from e2ebench import inputs, workloads
from e2ebench.measure import (
    NotReportable,
    Tally,
    chunk_lags,
    fastest_windows,
    min_samples,
    percentile,
    windowed_rate,
)
from e2ebench.tracing import Tracer, waterfall


# -- percentiles and lags ------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 99) == 990.0
    assert percentile(values, 50) == 500.0
    assert percentile(values[::-1], 99) == 990.0


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(NotReportable):
        percentile(range(999), 99)
    percentile(range(1000), 99)
    with pytest.raises(NotReportable):
        percentile(range(19), 50)
    percentile(range(20), 50)
    assert min_samples(99) == 1000
    assert min_samples(50) == 20


def test_paced_lags_are_write_time_minus_due_time():
    # Lines due at 10.0, 10.5, 11.0; two writes.
    got = chunk_lags(10.0, 2.0, [(0, 2, 10.75), (2, 3, 11.0)])
    assert got.tolist() == [0.75, 0.25, 0.0]
    assert chunk_lags(0.0, 1.0, []).size == 0


def test_windowed_rate_is_the_median_window():
    # Four windows of two ops at 10 items/s, one slowed to 1 item/s.
    items = [10] * 10
    durations = [1.0] * 6 + [10.0, 10.0] + [1.0, 1.0]
    assert windowed_rate(items, durations, 2) == 10.0
    # A trailing partial window joins the last full one.
    assert windowed_rate([1, 1, 1], [1.0, 1.0, 1.0], 2) == 1.0
    with pytest.raises(ValueError):
        windowed_rate([], [], 2)


def test_fastest_windows_ignore_slowed_stretches():
    # Ten windows of two ops; the first six slowed to half speed.
    items = [10] * 20
    durations = [2.0] * 12 + [1.0] * 8
    rate, ops = fastest_windows(items, durations, 2, share=0.2)
    assert rate == 10.0
    assert ops.tolist() == [12, 13, 14, 15]
    # A trailing partial window joins the last full one.
    rate, ops = fastest_windows([1, 1, 1], [1.0, 1.0, 1.0], 2)
    assert rate == 1.0 and ops.tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        fastest_windows([], [], 2)


def test_benchmark_json_names_the_printed_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", workloads.END_TO_END),
                       ("per_layer", workloads.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table


# -- failure accounting --------------------------------------------------------

def test_tally_counts_each_failed_op_once():
    tally = Tally("w", seed=7)
    assert tally.check("op1", 1, 1)
    assert not tally.check("op2", 1, 2)
    tally.fail("op2", "degraded")          # same op, second reason
    tally.attempted += 1
    tally.fail("op3", "error")
    tally.add_counter("shed", 1)
    assert tally.attempted == 3
    assert tally.failed == 3                 # op2, op3, one shed sample
    assert tally.fail_frac == 1.0
    assert tally.mismatches == 1
    assert tally.reasons == {"mismatch": 1, "degraded": 1, "error": 1,
                             "shed": 1}
    message = tally.mismatch_message()
    assert "workload=w" in message and "op=op2" in message
    assert "seed=7" in message


def test_tally_never_fails_more_than_attempted():
    tally = Tally("w", seed=1)
    tally.attempted = 2
    tally.add_counter("shed", 5)
    assert tally.failed == 2
    assert Tally("w", 1).fail_frac == 0.0


# -- tracing -------------------------------------------------------------------

class _Layer:
    def inner(self, n):
        time.sleep(0.002)
        return n

    def outer(self, n):
        time.sleep(0.001)
        return sum(self.inner(i) for i in range(n))

    async def submit(self, n):
        for _ in range(n):
            await asyncio.sleep(0.002)
        return n


def test_waterfall_sums_to_traced_wall():
    tracer = Tracer()
    tracer.patch(_Layer, "outer", "layer.outer")
    tracer.patch(_Layer, "inner", "layer.inner")
    layer = _Layer()
    t0 = time.perf_counter()
    assert layer.outer(3) == 3
    time.sleep(0.003)                        # unattributed bench work
    wall = time.perf_counter() - t0
    tracer.unpatch()
    totals = tracer.totals()
    rows, rest = waterfall(totals, wall)
    assert sum(row[3] for row in rows) + rest == pytest.approx(wall, abs=1e-9)
    outer, inner = totals["layer.outer"], totals["layer.inner"]
    assert inner.calls == 3 and outer.calls == 1
    assert outer.excl_ns == outer.incl_ns - inner.incl_ns
    assert rest >= 0.0025


def test_coroutine_spans_count_busy_steps_not_suspension():
    tracer = Tracer()
    tracer.patch(_Layer, "submit", "layer.submit",
                 lambda args, result: (args[1], 0), is_async=True)
    assert asyncio.run(_Layer().submit(4)) == 4
    tracer.unpatch()
    stat = tracer.totals()["layer.submit"]
    assert stat.calls == 1 and stat.items == 4
    assert stat.incl_ns < 2_000_000            # the sleeps are not busy time
    assert stat.wait_ns >= 7_000_000


def test_patching_keeps_classes_and_restores_originals():
    from repro.engine.batch import BatchRecognizer
    from repro.engine.columnar import ColumnarBatchIndex, ColumnarDictionary

    before = {
        cls: dict(vars(cls))
        for cls in (BatchRecognizer, ColumnarDictionary, ColumnarBatchIndex)
    }
    with workloads.install_layers(Tracer()):
        assert ColumnarDictionary.lookup_many is not before[
            ColumnarDictionary]["lookup_many"]
        assert issubclass(ColumnarDictionary, ColumnarDictionary.__mro__[1])
    for cls, attrs in before.items():
        assert dict(vars(cls)) == attrs


# -- the workload's reference check, at tiny scale --------------------------------

@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("e2ebench") / "store")
    inputs.build_store(directory, n_filler=2000, n_shards=2)
    return directory


@pytest.fixture
def tiny_openworld(monkeypatch, tiny_store):
    monkeypatch.setattr(inputs, "cached_store",
                        lambda root, *a, **k: tiny_store)
    monkeypatch.setattr(workloads, "OPENWORLD_REPETITIONS", 2)
    monkeypatch.setattr(workloads, "OPENWORLD_BATCH", 37)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    # The untraced half runs on until its p99 is reportable.
    monkeypatch.setattr(workloads, "MAX_SECONDS_FACTOR", 100.0)
    # gc.freeze() would outlive this test in the shared pytest process.
    monkeypatch.setattr(workloads, "_settle", lambda: None)
    return workloads.Run("recognize_openworld", root=".", seed=3,
                         seconds=0.3, trace=True)


def test_openworld_traced_run_is_exact_and_sums(tiny_openworld, capsys):
    run = tiny_openworld
    workloads.recognize_openworld(run)
    assert run.tally.attempted > 0 and run.tally.failed == 0
    layer = run.per_layer
    assert layer["batch.recognize_records_s"] > 0      # columnar path taken
    assert layer["columnar.resolve_probes_s"] > 0
    assert 0.0 <= layer["columnar.hit_frac"] <= 1.0
    assert layer["trace.wall_s"] > 0
    assert run.counts["verdict_latency_samples"] >= workloads.MIN_LATENCIES
    assert layer["verdict_p99_ms"] > 0
    assert "waterfall: recognize_openworld" in capsys.readouterr().out


def test_wrong_engine_answer_is_caught(tiny_openworld, monkeypatch):
    from repro.core.matcher import MatchResult
    from repro.engine.batch import BatchRecognizer

    honest = BatchRecognizer.recognize_records

    def lying(self, records):
        results = honest(self, records)
        first = results[0]
        results[0] = MatchResult(
            ranked=("bogus",), votes=first.votes,
            matched_labels=first.matched_labels,
            n_fingerprints=first.n_fingerprints, n_missing=first.n_missing,
        )
        return results

    monkeypatch.setattr(BatchRecognizer, "recognize_records", lying)
    run = tiny_openworld
    workloads.recognize_openworld(run)
    assert run.tally.mismatches > 0
    assert run.tally.fail_frac > 0
    assert "workload=recognize_openworld" in run.tally.mismatch_message()
    assert "seed=3" in run.tally.mismatch_message()
    assert np.isfinite(run.per_layer["trace.overhead_frac"])
