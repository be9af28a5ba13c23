"""Columnar codec at production scale: a ~million-key dictionary.

The acceptance bar for the columnar backend (ISSUE 3): against a
synthetic ~1M-key dictionary,

- the columnar directory (raw memory-mapped ``shard-NN.mmap`` files)
  must **load >= 5x faster** to query-ready than the flat JSON of
  :mod:`repro.core.serialization` loaded and partitioned into the
  in-memory :class:`~repro.engine.sharded.ShardedDictionary`, and
- a cold :class:`~repro.engine.batch.BatchRecognizer` over the columnar
  index (index construction included) must be **>= 2x** the cached-dict
  index of that in-memory store at a 1k-execution batch — with
  element-wise identical results.

The on-disk size ratio against flat JSON is reported, not asserted.

Every number lands in ``BENCH_engine.json`` via the shared trajectory
writer.  ``BENCH_COLUMNAR_KEYS`` scales the store down for smoke runs
(``make bench-smoke``); the hard thresholds only assert at full scale,
so a tiny run still catches codec regressions without the cost.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.rounding import round_depth_array
from repro.core.serialization import load_dictionary, save_dictionary
from repro.data.dataset import ExecutionRecord
from repro.engine import (
    BatchRecognizer,
    ShardedDictionary,
    load_columnar,
    save_columnar,
)
from repro.telemetry.timeseries import TimeSeries

METRIC = "synthetic_rate"
DEPTH = 3
INTERVAL = (60.0, 120.0)
N_NODES = 4
N_SHARDS = 8
N_KEYS = int(os.environ.get("BENCH_COLUMNAR_KEYS", "1000000"))
FULL_SCALE = N_KEYS >= 1_000_000
BATCH_SIZES = (1_000, 10_000)

_APPS = [f"app{i:02d}" for i in range(40)]
_INPUTS = ("X", "Y", "Z")
_LABELS = [f"{app}_{size}" for app in _APPS for size in _INPUTS]


def _node_values(per_node: int) -> np.ndarray:
    """``per_node`` distinct raw values whose depth-3 roundings are
    pairwise distinct: mantissas 100..999 across exponents -140..139."""
    mantissas = np.arange(100, 1000, dtype=np.float64)
    exponents = np.arange(-140, 140, dtype=np.float64)
    if len(mantissas) * len(exponents) < per_node:
        raise ValueError(f"value grid too small for {per_node} keys/node")
    grid = (mantissas[None, :] * 10.0 ** exponents[:, None]).ravel()
    return grid[:per_node]


def _build_store():
    """A sharded dictionary of N_KEYS distinct keys over N_NODES nodes,
    plus the per-node raw values that probe it with guaranteed hits."""
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
    """``n`` four-node records with constant telemetry, each node's level
    drawn from that node's key grid — every probe hits, and striding
    keeps per-record patterns distinct (no verdict-memo shortcuts)."""
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


def _dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


def test_columnar_scale(tmp_path, save_report, bench_record):
    sharded, raw_by_node = _build_store()
    n_keys = len(sharded)

    json_path = str(tmp_path / "efd.json")
    col_dir = str(tmp_path / "efd-columnar")
    t_json_save, _ = _timed(lambda: save_dictionary(sharded, json_path))
    t_col_save, _ = _timed(lambda: save_columnar(sharded, col_dir))
    json_bytes = os.path.getsize(json_path)
    col_bytes = _dir_bytes(col_dir)
    size_ratio = json_bytes / col_bytes
    del sharded  # measure loads without the builder's objects around

    # Load: flat JSON parsed and partitioned into the in-memory store
    # the cold-batch gate compares against; columnar is timed all the
    # way to query-ready (columns read and the batch index built), so
    # the comparison cannot flatter lazy loading.
    t_json_load, json_store = _timed(
        lambda: ShardedDictionary.from_flat(
            load_dictionary(json_path), N_SHARDS
        )
    )
    def _columnar_ready():
        store = load_columnar(col_dir)
        assert store.batch_index(METRIC, INTERVAL) is not None
        return store
    t_col_load, col_store = _timed(_columnar_ready)
    load_ratio = t_json_load / t_col_load

    rows = []
    throughput = {}
    for batch_size in BATCH_SIZES:
        records = _make_records(batch_size, raw_by_node)
        timings = {}
        results = {}
        for name, store in (("dict", json_store), ("columnar", col_store)):
            engine = BatchRecognizer(
                store, metric=METRIC, depth=DEPTH, interval=INTERVAL
            )
            t_cold, out = _timed(lambda: engine.recognize_records(records))
            t_warm, out2 = _timed(lambda: engine.recognize_records(records))
            assert out == out2
            timings[name] = (t_cold, t_warm)
            results[name] = out
        assert results["dict"] == results["columnar"], (
            f"columnar verdicts diverge at batch={batch_size}"
        )
        assert all(not r.is_unknown for r in results["columnar"][:50])
        throughput[batch_size] = {
            "dict_cold_s": timings["dict"][0],
            "dict_warm_s": timings["dict"][1],
            "columnar_cold_s": timings["columnar"][0],
            "columnar_warm_s": timings["columnar"][1],
            "columnar_cold_exec_per_s": batch_size / timings["columnar"][0],
            "cold_speedup": timings["dict"][0] / timings["columnar"][0],
        }
        rows.append(
            f"batch {batch_size:>6d}  "
            f"dict {timings['dict'][0]:8.3f}s/{timings['dict'][1]:8.3f}s  "
            f"columnar {timings['columnar'][0]:8.3f}s/"
            f"{timings['columnar'][1]:8.3f}s  "
            f"cold speedup {throughput[batch_size]['cold_speedup']:5.1f}x"
        )

    report = "\n".join(
        [
            f"Columnar scale: {n_keys} keys, {N_SHARDS} shards "
            f"({'full scale' if FULL_SCALE else 'smoke'})",
            "",
            f"on-disk    : JSON {json_bytes / 1e6:8.1f} MB   "
            f"columnar {col_bytes / 1e6:8.1f} MB   ({size_ratio:.2f}x "
            f"smaller, reported only)",
            f"save       : JSON {t_json_save:8.2f} s    "
            f"columnar {t_col_save:8.2f} s",
            f"load       : JSON {t_json_load:8.2f} s    "
            f"columnar {t_col_load:8.2f} s    ({load_ratio:.1f}x faster; "
            f"JSON = flat load + from_flat, columnar timed to "
            f"query-ready)",
            "",
            "batch recognition (cold incl. index build / warm):",
            *rows,
            "",
            f"requirements (full scale): load >= 5x, 1k-batch cold >= 2x",
        ]
    )
    save_report("columnar_scale", report)

    bench_record.n = n_keys
    bench_record.throughput = throughput[1000]["columnar_cold_exec_per_s"]
    bench_record.extra.update(
        {
            "json_bytes": json_bytes,
            "columnar_bytes": col_bytes,
            "size_ratio": round(size_ratio, 2),
            "json_load_s": round(t_json_load, 4),
            "columnar_load_s": round(t_col_load, 4),
            "load_ratio": round(load_ratio, 2),
            "batches": {
                str(k): {kk: round(vv, 4) for kk, vv in v.items()}
                for k, v in throughput.items()
            },
            "full_scale": FULL_SCALE,
        }
    )

    if FULL_SCALE:
        assert load_ratio >= 5.0, f"columnar only {load_ratio:.1f}x faster"
        assert throughput[1000]["cold_speedup"] >= 2.0, (
            f"columnar cold 1k-batch only "
            f"{throughput[1000]['cold_speedup']:.1f}x the dict index"
        )
