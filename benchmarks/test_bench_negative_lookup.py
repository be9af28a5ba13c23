"""Negative-lookup fast path at production scale: unknown-heavy batches.

The paper's unknown-detection setting makes *misses* the dominant case
on open traffic — most probed fingerprints belong to applications that
were never learned.  The acceptance bar for the mmap + filter work:
against a ~1M-key store,

- a filtered store must be **query-ready in < 100 ms** (open = manifest
  + filters; no column bytes read);
- a **99%-unknown 1k-batch** must resolve **>= 10x** faster than the
  pre-filter miss path — the same mmap store saved with
  ``filters=False``, which has no hash sidecars and so hashes and sorts
  every key into its key-hash table on its first batch — and
- a cold 1k-batch with a 10% hit mix must stay **>= 5x** over that
  unfiltered store — all with element-wise identical answers.

``BENCH_NEGLOOKUP_KEYS`` scales the store down for smoke runs; the
hard thresholds only assert at full scale.  Every number lands in
``BENCH_engine.json`` via the shared trajectory writer.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.rounding import round_depth_array
from repro.engine import ShardedDictionary, load_columnar, save_columnar

METRIC = "synthetic_rate"
DEPTH = 3
INTERVAL = (60.0, 120.0)
N_NODES = 4
N_SHARDS = 8
N_KEYS = int(os.environ.get("BENCH_NEGLOOKUP_KEYS", "1000000"))
FULL_SCALE = N_KEYS >= 1_000_000
BATCH = 1_000

_LABELS = [f"app{i:02d}_X" for i in range(40)]


def _value_grid(per_node: int, exponents) -> np.ndarray:
    """Distinct raw values whose depth-3 roundings are pairwise
    distinct: mantissas 100..999 across the given exponent range."""
    mantissas = np.arange(100, 1000, dtype=np.float64)
    exponents = np.asarray(exponents, dtype=np.float64)
    if len(mantissas) * len(exponents) < per_node:
        raise ValueError(f"value grid too small for {per_node} keys/node")
    grid = (mantissas[None, :] * 10.0 ** exponents[:, None]).ravel()
    return grid[:per_node]


def _build_store():
    per_node = (N_KEYS + N_NODES - 1) // N_NODES
    known = round_depth_array(
        _value_grid(per_node, np.arange(-140, 140)), DEPTH
    )
    sharded = ShardedDictionary(N_SHARDS)
    inserted = 0
    for node in range(N_NODES):
        for i, value in enumerate(known.tolist()):
            if inserted >= N_KEYS:
                break
            sharded.add(
                Fingerprint(
                    metric=METRIC, node=node, interval=INTERVAL, value=value
                ),
                _LABELS[(node * per_node + i) % len(_LABELS)],
            )
            inserted += 1
    # Unknown probe values: a disjoint exponent band, so every probe is
    # a genuine miss (depth-3 roundings cannot collide across bands).
    unknown = round_depth_array(
        _value_grid(min(per_node, 20_000), np.arange(145, 170)), DEPTH
    )
    return sharded, known, unknown


def _probe_batch(known, unknown, n_hits: int, seed: int):
    rng = np.random.default_rng(seed)
    probes = []
    for value in rng.choice(unknown, size=BATCH - n_hits, replace=True):
        probes.append(
            Fingerprint(
                metric=METRIC,
                node=int(rng.integers(N_NODES)),
                interval=INTERVAL,
                value=float(value),
            )
        )
    for value in rng.choice(known, size=n_hits, replace=False):
        probes.append(
            Fingerprint(
                metric=METRIC,
                node=int(rng.integers(N_NODES)),
                interval=INTERVAL,
                value=float(value),
            )
        )
    rng.shuffle(probes)
    return probes


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_negative_lookup(tmp_path, save_report, bench_record):
    sharded, known, unknown = _build_store()
    n_keys = len(sharded)

    plain_dir = str(tmp_path / "mmap-plain")   # the pre-filter miss path
    mmap_dir = str(tmp_path / "mmap")
    save_columnar(sharded, plain_dir, filters=False)
    save_columnar(sharded, mmap_dir)
    del sharded
    layouts = (("mmap-plain", plain_dir), ("mmap", mmap_dir))
    # Settle writeback of the stores just written: on a small host the
    # kernel flushing ~100 MB of dirty pages otherwise lands on top of
    # the timed opens, measuring our own save instead of the open path.
    os.sync()

    batch_99 = _probe_batch(known, unknown, n_hits=BATCH // 100, seed=1)
    batch_90 = _probe_batch(known, unknown, n_hits=BATCH // 10, seed=2)

    # Query-ready: open = manifest + filters, no column bytes.  Best of
    # three — single-shot wall times on a 1-core box measure scheduler
    # noise as much as the open path.
    t_ready = {}
    stores = {}
    for name, directory in layouts:
        samples = []
        for _ in range(3):
            t_open, stores[name] = _timed(
                lambda d=directory: load_columnar(d)
            )
            samples.append(t_open)
        t_ready[name] = min(samples)

    # Cold batches: first resolution on a fresh store object (best of
    # three fresh stores; the page cache is steady, so each repeat is
    # the same cold code path — full key-hash table build for the
    # pre-filter baseline, filter + hash-sidecar probes for the
    # filtered store —
    # without cross-run scheduler noise).
    timings = {}
    for tag, batch in (("99pct-unknown", batch_99), ("90pct-unknown", batch_90)):
        results = {}
        timings[tag] = {}
        for name, directory in layouts:
            colds = []
            for _ in range(3):
                store = load_columnar(directory)
                t_cold, out = _timed(
                    lambda s=store, b=batch: s.lookup_many(b)
                )
                colds.append(t_cold)
            t_warm, out2 = _timed(lambda s=store, b=batch: s.lookup_many(b))
            assert out == out2
            timings[tag][name] = {"cold_s": min(colds), "warm_s": t_warm}
            results[name] = out
        assert results["mmap"] == results["mmap-plain"], tag
        n_hits = sum(1 for labels in results["mmap"] if labels)
        assert n_hits == (10 if tag == "99pct-unknown" else 100), tag

    speedup_99 = (
        timings["99pct-unknown"]["mmap-plain"]["cold_s"]
        / timings["99pct-unknown"]["mmap"]["cold_s"]
    )
    speedup_90 = (
        timings["90pct-unknown"]["mmap-plain"]["cold_s"]
        / timings["90pct-unknown"]["mmap"]["cold_s"]
    )

    report = "\n".join(
        [
            f"Negative lookup: {n_keys} keys, {N_SHARDS} shards, "
            f"{BATCH}-probe batches "
            f"({'full scale' if FULL_SCALE else 'smoke'})",
            "",
            "query-ready (open to first answerable probe):",
            *(
                f"  {name:<10s} {t_ready[name] * 1e3:10.1f} ms"
                for name, _ in layouts
            ),
            "",
            "cold / warm 1k-batch resolution:",
            *(
                f"  {tag:<14s} {name:<10s} "
                f"{timings[tag][name]['cold_s'] * 1e3:10.1f} ms / "
                f"{timings[tag][name]['warm_s'] * 1e3:10.1f} ms"
                for tag in timings
                for name in timings[tag]
            ),
            "",
            f"99%-unknown speedup over the pre-filter miss path: "
            f"{speedup_99:5.1f}x (target >= 10x)",
            f"90%-unknown speedup: {speedup_90:5.1f}x (target >= 5x)",
            f"mmap query-ready: {t_ready['mmap'] * 1e3:.1f} ms "
            f"(target < 100 ms)",
        ]
    )
    save_report("negative_lookup", report)

    bench_record.n = n_keys
    bench_record.throughput = (
        BATCH / timings["99pct-unknown"]["mmap"]["cold_s"]
    )
    bench_record.extra.update(
        {
            "query_ready_s": {k: round(v, 4) for k, v in t_ready.items()},
            "batches": {
                tag: {
                    name: {kk: round(vv, 4) for kk, vv in row.items()}
                    for name, row in per.items()
                }
                for tag, per in timings.items()
            },
            "speedup_99pct_unknown": round(speedup_99, 2),
            "speedup_90pct_unknown": round(speedup_90, 2),
            "full_scale": FULL_SCALE,
        }
    )

    if FULL_SCALE:
        assert t_ready["mmap"] < 0.1, (
            f"mmap store took {t_ready['mmap'] * 1e3:.0f} ms to query-ready"
        )
        assert speedup_99 >= 10.0, (
            f"99%-unknown batch only {speedup_99:.1f}x the unfiltered "
            f"miss path"
        )
        assert speedup_90 >= 5.0, (
            f"90%-unknown cold batch only {speedup_90:.1f}x the unfiltered "
            f"index"
        )
