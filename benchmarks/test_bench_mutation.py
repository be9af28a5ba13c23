"""Delta-log write throughput: appends under a hot vectorized index.

The mutation fast path's acceptance bar (ISSUE 5): a columnar store
under a sustained write trickle — appends interleaved with 1k-batch
recognitions — keeps the key-hash ``searchsorted`` lookup active
with the base files untouched, and verdicts element-wise identical to
the pre-write baseline for the untouched keys.  This bench measures

- **appends/s** through the write-ahead delta-log while the index
  stays hot (recognition batches run between append bursts),
- **recognition drag**: the per-batch wall time while the overlay is
  non-empty vs. the write-free baseline, and
- **compaction wall time**: folding the accumulated log back into the
  ``shard-NN.mmap`` base.

``BENCH_MUTATION_KEYS`` / ``BENCH_MUTATION_APPENDS`` scale the store
down for smoke runs (``make mutation-smoke``); the throughput floor
only asserts at full scale.  Every number lands in ``BENCH_engine.json``
via the shared trajectory writer.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.rounding import round_depth_array
from repro.data.dataset import ExecutionRecord
from repro.engine import (
    BatchRecognizer,
    ShardedDictionary,
    load_columnar,
    save_columnar,
)
from repro.engine.columnar import ColumnarBatchIndex
from repro.engine.deltalog import SEGMENT_NAME
from repro.telemetry.timeseries import TimeSeries

METRIC = "synthetic_rate"
DEPTH = 3
INTERVAL = (60.0, 120.0)
N_NODES = 4
N_SHARDS = 8
N_KEYS = int(os.environ.get("BENCH_MUTATION_KEYS", "1000000"))
N_APPENDS = int(os.environ.get("BENCH_MUTATION_APPENDS", "2000"))
FULL_SCALE = N_KEYS >= 1_000_000
BATCH_SIZE = 1_000
APPEND_BURST = 100          # appends between recognition batches
MIN_APPENDS_PER_S = 2_000   # asserted at full scale only

_APPS = [f"app{i:02d}" for i in range(40)]
_INPUTS = ("X", "Y", "Z")
_LABELS = [f"{app}_{size}" for app in _APPS for size in _INPUTS]


def _node_values(per_node: int) -> np.ndarray:
    mantissas = np.arange(100, 1000, dtype=np.float64)
    exponents = np.arange(-140, 140, dtype=np.float64)
    if len(mantissas) * len(exponents) < per_node:
        raise ValueError(f"value grid too small for {per_node} keys/node")
    grid = (mantissas[None, :] * 10.0 ** exponents[:, None]).ravel()
    return grid[:per_node]


def _build_store():
    per_node = (N_KEYS + N_NODES - 1) // N_NODES
    raw_by_node = [_node_values(per_node) for _ in range(N_NODES)]
    sharded = ShardedDictionary(N_SHARDS)
    inserted = 0
    for node in range(N_NODES):
        rounded = round_depth_array(raw_by_node[node], DEPTH)
        for i, value in enumerate(rounded.tolist()):
            if inserted >= N_KEYS:
                break
            sharded.add(
                Fingerprint(
                    metric=METRIC, node=node, interval=INTERVAL, value=value
                ),
                _LABELS[(node * per_node + i) % len(_LABELS)],
            )
            inserted += 1
    return sharded, raw_by_node


def _make_records(n: int, raw_by_node) -> list:
    per_node = len(raw_by_node[0])
    n_samples = int(INTERVAL[1]) + 7
    records = []
    for i in range(n):
        telemetry = {}
        for node in range(N_NODES):
            raw = raw_by_node[node][(i * 7 + node * 13) % per_node]
            telemetry[(METRIC, node)] = TimeSeries(
                np.full(n_samples, raw), period=1.0, t0=0.0
            )
        records.append(
            ExecutionRecord(
                record_id=i,
                app_name=_APPS[i % len(_APPS)],
                input_size=_INPUTS[i % len(_INPUTS)],
                n_nodes=N_NODES,
                duration=float(n_samples),
                telemetry=telemetry,
            )
        )
    return records


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


@pytest.mark.bench
def test_mutation_throughput(tmp_path, save_report, bench_record):
    sharded, raw_by_node = _build_store()
    n_keys = len(sharded)
    col_dir = str(tmp_path / "efd-columnar")
    save_columnar(sharded, col_dir)
    del sharded
    base_bytes = {
        name: os.path.getsize(os.path.join(col_dir, name))
        for name in os.listdir(col_dir)
    }

    store = load_columnar(col_dir)
    engine = BatchRecognizer(store, metric=METRIC, depth=DEPTH,
                             interval=INTERVAL)
    records = _make_records(BATCH_SIZE, raw_by_node)
    t_base_cold, baseline = _timed(lambda: engine.recognize_records(records))
    t_base_warm, again = _timed(lambda: engine.recognize_records(records))
    assert again == baseline

    # The trickle: bursts of appends (brand-new keys — a mantissa grid
    # at exponents beyond the store's range, so every rounded value is
    # distinct and misses the base) interleaved with recognition batches.
    mantissas = np.arange(100, 1000, dtype=np.float64)
    exponents = np.arange(141, 141 + N_APPENDS // len(mantissas) + 1,
                          dtype=np.float64)
    grid = (mantissas[None, :] * 10.0 ** exponents[:, None]).ravel()
    new_key_values = round_depth_array(grid[:N_APPENDS], DEPTH).tolist()
    append_wall = 0.0
    batch_walls = []
    done = 0
    while done < N_APPENDS:
        burst = min(APPEND_BURST, N_APPENDS - done)
        t0 = time.perf_counter()
        for i in range(done, done + burst):
            store.add(
                Fingerprint(metric=METRIC, node=i % N_NODES,
                            interval=INTERVAL, value=new_key_values[i]),
                _LABELS[i % len(_LABELS)],
            )
        append_wall += time.perf_counter() - t0
        done += burst
        t_batch, out = _timed(lambda: engine.recognize_records(records))
        batch_walls.append(t_batch)
        assert out == baseline  # untouched keys: verdicts unchanged
    appends_per_s = N_APPENDS / append_wall if append_wall else float("inf")

    # The whole trickle ran on the vectorized path and only appended to
    # the delta-log: every base file is as the save left it.
    assert isinstance(engine._index, ColumnarBatchIndex)
    assert {
        name: os.path.getsize(os.path.join(col_dir, name))
        for name in os.listdir(col_dir) if name != SEGMENT_NAME
    } == base_bytes
    assert store.delta_pending == N_APPENDS
    # The appended keys are immediately visible to the batch paths.
    probe = Fingerprint(metric=METRIC, node=0, interval=INTERVAL,
                        value=new_key_values[0])
    assert store.lookup_many([probe]) == [[_LABELS[0]]]

    t_compact, folded = _timed(store.compact_delta)
    assert folded == N_APPENDS
    assert len(store) == n_keys + N_APPENDS
    t_post_compact, out = _timed(lambda: engine.recognize_records(records))
    assert out == baseline

    if FULL_SCALE:
        assert appends_per_s >= MIN_APPENDS_PER_S, (
            f"delta-log appends {appends_per_s:.0f}/s under "
            f"{MIN_APPENDS_PER_S}/s at full scale"
        )

    mean_batch = sum(batch_walls) / len(batch_walls)
    report = "\n".join([
        f"Delta-log mutation: {n_keys} keys, {N_SHARDS} shards, "
        f"{N_APPENDS} appends "
        f"({'full scale' if FULL_SCALE else 'smoke'})",
        "",
        f"appends    : {appends_per_s:10.0f}/s through the write-ahead log "
        f"(index hot)",
        f"recognize  : baseline {t_base_warm * 1e3:8.1f} ms/batch   "
        f"under trickle {mean_batch * 1e3:8.1f} ms/batch "
        f"(batch={BATCH_SIZE})",
        f"compaction : {t_compact:8.2f} s to fold {folded} records into "
        f"the mmap base",
        f"post-fold  : {t_post_compact * 1e3:8.1f} ms/batch "
        f"(cold index rebuild included)",
    ])
    save_report("bench_mutation", report)

    bench_record.n = N_APPENDS
    bench_record.seconds = round(append_wall, 6)
    bench_record.throughput = round(appends_per_s, 1)
    bench_record.extra = {
        "n_keys": n_keys,
        "appends_per_s": round(appends_per_s, 1),
        "batch_ms_baseline": round(t_base_warm * 1e3, 3),
        "batch_ms_under_trickle": round(mean_batch * 1e3, 3),
        "compact_s": round(t_compact, 6),
        "full_scale": FULL_SCALE,
    }
