"""Engine throughput: batch/sharded recognition vs. the flat sequential path.

The acceptance bar for the engine subsystem: a 500-execution batch
against a sharded dictionary (>= 4 shards) must run at >= 3x the
executions/sec of the reference loop
(``build_fingerprints`` + ``match_fingerprints`` per record against the
flat dictionary) — while producing element-wise identical MatchResults.

The speedup is algorithmic, not parallel-hardware luck: batch-wide
vectorized interval means, one (node, value) tuple index instead of
per-lookup dataclass hashing, and verdict memoization across repeated
fingerprint patterns.  The engine runs serially, on a single core.
"""

from __future__ import annotations

import time

import pytest

from repro.core.fingerprint import build_fingerprints
from repro.core.matcher import match_fingerprints
from repro.core.recognizer import EFDRecognizer
from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator
from repro.engine import BatchRecognizer, ShardedDictionary

METRIC = "nr_mapped_vmstat"
DEPTH = 3
BATCH_SIZE = 500
N_SHARDS = 8
REQUIRED_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def batch_dataset():
    """Enough repetitions of the paper's 37 app-input pairs for a
    500-execution batch (14 reps -> 518 executions)."""
    config = DatasetConfig(metrics=(METRIC,), repetitions=14, seed=2021)
    return TaxonomistDatasetGenerator(config).generate()


def _best_of(fn, repeats=5):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_engine_throughput(batch_dataset, save_report, bench_record):
    recognizer = EFDRecognizer(metric=METRIC, depth=DEPTH).fit(batch_dataset)
    flat = recognizer.dictionary_
    batch = list(batch_dataset)[:BATCH_SIZE]
    assert len(batch) == BATCH_SIZE

    t_base, sequential = _best_of(
        lambda: [
            match_fingerprints(flat, build_fingerprints(r, METRIC, DEPTH))
            for r in batch
        ]
    )

    sharded = ShardedDictionary.from_flat(flat, N_SHARDS)
    engine = BatchRecognizer(sharded, metric=METRIC, depth=DEPTH)
    # Cold pass: includes building the lookup index.
    t_cold0 = time.perf_counter()
    cold = engine.recognize_records(batch)
    t_cold = time.perf_counter() - t_cold0
    assert cold == sequential, "batch != sequential"
    t_warm, warm = _best_of(lambda: engine.recognize_records(batch))
    assert warm == sequential, "batch != sequential"
    speedup = t_base / t_warm

    bench_record.n = BATCH_SIZE
    bench_record.throughput = BATCH_SIZE / t_warm
    bench_record.extra["speedup"] = round(speedup, 2)
    lines = [
        "Engine throughput: 500-execution batch, "
        f"{len(flat)} keys, {N_SHARDS} shards",
        "",
        f"{'path':16s} {'seconds':>9s} {'exec/s':>10s} "
        f"{'speedup':>8s} {'cold':>6s}",
        f"{'sequential/flat':16s} {t_base:9.4f} {BATCH_SIZE / t_base:10.0f} "
        f"{'1.0x':>8s} {'-':>6s}",
        f"{'batch':16s} {t_warm:9.4f} {BATCH_SIZE / t_warm:10.0f} "
        f"{speedup:7.1f}x {t_base / t_cold:5.1f}x",
        "",
        f"requirement: serial batch engine >= {REQUIRED_SPEEDUP}x "
        "with identical MatchResults",
    ]
    save_report("engine_throughput", "\n".join(lines))

    assert speedup >= REQUIRED_SPEEDUP, (
        f"engine speedup below bar: {speedup:.2f}x"
    )


def test_bulk_add_equals_add_loop(batch_dataset, save_report):
    """Learning in bulk: bulk_add equals a sequential add loop."""
    records = list(batch_dataset)[:200]
    pairs = []
    for record in records:
        for fp in build_fingerprints(record, METRIC, DEPTH):
            if fp is not None:
                pairs.append((fp, record.label))

    t_seq0 = time.perf_counter()
    reference = ShardedDictionary(N_SHARDS)
    for fp, label in pairs:
        reference.add(fp, label)
    t_seq = time.perf_counter() - t_seq0

    t_bulk0 = time.perf_counter()
    bulk = ShardedDictionary(N_SHARDS)
    bulk.bulk_add(pairs)
    t_bulk = time.perf_counter() - t_bulk0

    assert list(bulk.entries()) == list(reference.entries())
    assert bulk.stats() == reference.stats()
    save_report(
        "engine_bulk_add",
        f"bulk_add: {len(pairs)} pairs into {N_SHARDS} shards\n"
        f"sequential add loop : {t_seq:.4f}s\n"
        f"bulk_add            : {t_bulk:.4f}s\n"
        f"entries identical   : yes",
    )
