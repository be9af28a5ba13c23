#!/usr/bin/env python3
"""Batch recognition at scale: the sharded dictionary + batch engine.

The paper recognizes one execution at a time against one in-memory
dictionary.  A recognition service in front of a production cluster
sees *batches* — a scheduler flush of finished jobs, or hundreds of
streaming sessions crossing the [60 s, 120 s] mark together.  This
example walks the scale-out path:

1. learn a flat EFD, then partition it into 8 hash shards,
2. recognize a whole dataset in one ``BatchRecognizer`` call and check
   it against the sequential reference loop,
3. drive 50 concurrent streaming sessions and batch-resolve them,
4. persist the shard directory and reload it,
5. read the engine's operational counters.

Run:  python examples/batch_recognition.py
"""

import tempfile
import time

from repro import (
    BatchRecognizer,
    EFDRecognizer,
    ShardedDictionary,
    StreamingRecognizer,
    generate_dataset,
    load_columnar,
    save_columnar,
)
from repro.core.fingerprint import build_fingerprints
from repro.core.matcher import match_fingerprints


def main() -> None:
    print("=== 1. Learn a dictionary, partition it into shards ===")
    dataset = generate_dataset(repetitions=6, seed=42)
    recognizer = EFDRecognizer(metric="nr_mapped_vmstat", depth=3).fit(dataset)
    flat = recognizer.dictionary_
    sharded = ShardedDictionary.from_flat(flat, n_shards=8)
    print(f"flat dictionary : {len(flat)} keys")
    print(f"sharded         : {sharded.shard_sizes()} keys per shard\n")

    print("=== 2. Batch-recognize the whole dataset in one call ===")
    records = list(dataset)
    engine = BatchRecognizer(
        sharded, metric="nr_mapped_vmstat", depth=recognizer.depth_
    )
    t0 = time.perf_counter()
    batch_results = engine.recognize_records(records)
    t_batch = time.perf_counter() - t0

    t0 = time.perf_counter()
    sequential = [
        match_fingerprints(
            flat, build_fingerprints(r, "nr_mapped_vmstat", recognizer.depth_)
        )
        for r in records
    ]
    t_seq = time.perf_counter() - t0
    assert batch_results == sequential, "engine must equal the reference path"
    print(f"batch     : {len(records)} executions in {t_batch * 1e3:.1f} ms "
          f"({len(records) / t_batch:.0f} exec/s)")
    print(f"sequential: {len(records)} executions in {t_seq * 1e3:.1f} ms "
          f"({len(records) / t_seq:.0f} exec/s)")
    print(f"identical verdicts, {t_seq / t_batch:.1f}x faster\n")

    print("=== 3. Fifty concurrent streaming sessions, one verdict pass ===")
    streaming = StreamingRecognizer.from_recognizer(recognizer)
    live = records[:50]
    sessions = [streaming.open_session(n_nodes=r.n_nodes) for r in live]
    for session, record in zip(sessions, live):  # interleaved feeding
        for node in range(record.n_nodes):
            series = record.series("nr_mapped_vmstat", node)
            session.ingest_many(node, series.times, series.values)
    verdicts = engine.recognize_sessions(sessions)
    correct = sum(
        1 for v, r in zip(verdicts, live) if v.prediction == r.app_name
    )
    print(f"{correct}/{len(live)} live sessions recognized correctly\n")

    print("=== 4. Persist and reload the shard directory ===")
    with tempfile.TemporaryDirectory() as tmp:
        save_columnar(sharded, tmp)
        with load_columnar(tmp) as restored:
            assert restored.lookup_many([fp for fp, _ in flat.entries()]) \
                == [labels for _, labels in flat.entries()]
            print(f"round trip: {len(restored)} keys across "
                  f"{restored.n_shards} mmap shard files (checksummed "
                  f"manifest), every lookup identical\n")

    print("=== 5. Engine counters ===")
    print(engine.stats.render())


if __name__ == "__main__":
    main()
