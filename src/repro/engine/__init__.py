"""Sharded dictionary + batch recognition engine (production scaling).

The paper's EFD is a single in-memory hash map queried one execution at
a time.  That is fine for a 1080-execution study; it is not how a
recognition service in front of a large cluster (or many clusters)
would run.  ``repro.engine`` is the scale-out layer:

- :class:`~repro.engine.sharded.ShardedDictionary` partitions EFD keys
  across N shards by a stable hash of the full fingerprint key
  (``repro._util.hashing.stable_hash`` — process-independent, so a
  shard layout computed today is valid after any restart and on any
  machine).  Every shard is an ordinary
  :class:`~repro.core.dictionary.ExecutionFingerprintDictionary`; the
  wrapper keeps the *global* first-seen label/app/key orders so that
  lookups, tie-breaking, and Table-4-style listings are byte-identical
  to a flat dictionary.

- :class:`~repro.engine.batch.BatchRecognizer` recognizes many
  executions (or many live :class:`~repro.core.streaming.StreamSession`
  objects) in one call: interval means are computed vectorized over
  nodes with NumPy, unique fingerprints are resolved once through the
  store's own batch path (``lookup_many``, or a ``(node, value)`` index
  built from the store), all serially in the calling thread, and
  per-execution votes reuse the exact matcher semantics.

- :class:`~repro.engine.stats.EngineStats` counts lookups, hits, ties,
  and unknowns, snapshots per-shard occupancy, and carries the serving
  counters (queue depth, sheds, evictions, verdict latency) that
  :class:`repro.serve.IngestService` feeds; surfaced through the
  ``efd engine ...`` / ``efd serve`` CLI commands and exportable as a
  JSON snapshot (``efd engine info --stats``).

- :mod:`repro.engine.backend` formalizes the storage contract all of
  the above share: :class:`~repro.engine.backend.DictionaryBackend`
  is a runtime-checkable protocol (writes, reads, string tables,
  analysis, the ``version`` cache counter) satisfied by the flat,
  sharded, and columnar stores alike, with
  :func:`~repro.engine.backend.merge_into` as the one canonical
  cross-backend merge.

- :mod:`repro.engine.columnar` is the one on-disk shard layout:
  :func:`~repro.engine.columnar.save_columnar` /
  :func:`~repro.engine.columnar.load_columnar` persist any store as a
  column-oriented shard codec (parallel arrays + a small
  JSON manifest with interned string tables and checksums) stored as
  raw memory-mapped ``shard-NN.mmap`` files
  (:mod:`repro.engine.mmapstore`) that N serving processes share
  through one page-cache copy
  (:class:`~repro.engine.columnar.ColumnarDictionary` maps a shard file
  only when a read needs it), per-shard Bloom filters
  (:mod:`repro.engine.keyfilter`) that answer unknown-heavy lookups
  without touching any column file, and one sorted key-hash table
  (merged from the per-shard ``.hashidx`` sidecars) that every read —
  point or batch — searches, so no shard is ever rebuilt as a Python
  dict; whole-store walks read the columns directly.  Shards load
  independently, so a corrupt or missing shard file is reported by
  name instead of poisoning the whole store.  The flat JSON of
  :mod:`repro.core.serialization` stays the diffable interchange
  format.

- :mod:`repro.engine.deltalog` is the columnar store's only write path:
  every mutation appends to a write-ahead ``delta-log.jsonl`` and lands in a
  small in-memory overlay, reads answer ``base ∪ overlay`` (the
  base key-hash table stays hot under a trickle of new learnings), and
  compaction folds the log back into the columnar base — triggered by
  a pending-record threshold, ``efd engine compact``, or serve
  shutdown.

- :mod:`repro.engine.reshard` changes a directory's shard count without
  a relearn (``efd engine reshard``): the movement is computed offline
  from the stable-hash routing — only keys whose ``hash % N`` differs
  from ``hash % M`` move — and every global order is preserved
  byte-identically.

- :mod:`repro.engine.replicate` puts the delta-log on the wire: a
  leader (:class:`~repro.engine.replicate.ReplicationPublisher`)
  streams committed segment records and generation-advancing base
  swaps to followers
  (:class:`~repro.engine.replicate.ReplicationFollower`) that serve
  the same read surface one generation at a time — never mixed state —
  with catch-up-from-position on reconnect and an election/promotion
  path (:func:`~repro.engine.replicate.elect_and_promote`) for leader
  loss.  Surfaced as ``efd serve --publish/--follow`` and ``efd
  promote``; the wire protocol is specced in ``docs/serving.md``.

- :mod:`repro.engine.remote` scatters the shard space itself across
  hosts: per-host :class:`~repro.engine.remote.ShardServer` processes
  (``efd shardserve``) answer framed probe/learn requests for the
  shards they own through the columnar store's key-hash search, and
  :class:`~repro.engine.remote.RemoteShardBackend` is a
  :class:`~repro.engine.backend.DictionaryBackend` whose batch lookups
  are a parallel scatter/gather over those hosts — wrapped in a
  resilience layer (deadline budgets, full-jitter retries, hedged
  probes, per-host circuit breakers) that degrades to explicit
  unknown-with-reason verdicts instead of failing or lying when a
  shard's hosts are unreachable.  Surfaced as ``efd shardserve`` and
  ``efd serve --remote``; topology and tuning live in
  ``docs/serving.md``.

Shard layout on disk::

    efd-columnar/
      manifest.json     # layout="columnar", storage="mmap"
      key-order.npz     # global key insertion order
      shard-00.mmap     # parallel arrays
      shard-00.filter   # Bloom sidecar
      shard-00.hashidx  # sorted-hash index
      ...

Equivalence with the flat dictionary is enforced by property tests
(``tests/test_engine_properties.py``) across stores ({flat, in-memory
sharded, columnar}) and shard counts.
"""

from repro.engine.backend import DictionaryBackend, merge_into
from repro.engine.batch import BatchRecognizer, match_fingerprints_batch
from repro.engine.columnar import (
    ColumnarDictionary,
    compact_shards,
    load_columnar,
    save_columnar,
)
from repro.engine.deltalog import (
    DeltaLog,
    SegmentReadError,
    pending_records,
)
from repro.engine.keyfilter import KeyFilter
from repro.engine.replicate import (
    ReplicationError,
    ReplicationFollower,
    ReplicationPublisher,
    elect_and_promote,
    local_position,
    replication_request,
)
from repro.engine.remote import (
    CircuitBreaker,
    RemoteDegradedError,
    RemoteError,
    RemoteShardBackend,
    ShardServer,
    ShardServerThread,
    parse_remote_spec,
)
from repro.engine.reshard import count_moved_keys, reshard, reshard_store
from repro.engine.sharded import ShardedDictionary, shard_index
from repro.engine.stats import EngineStats

__all__ = [
    "BatchRecognizer",
    "CircuitBreaker",
    "ColumnarDictionary",
    "DeltaLog",
    "DictionaryBackend",
    "EngineStats",
    "KeyFilter",
    "RemoteDegradedError",
    "RemoteError",
    "RemoteShardBackend",
    "ReplicationError",
    "ReplicationFollower",
    "ReplicationPublisher",
    "SegmentReadError",
    "ShardServer",
    "ShardServerThread",
    "ShardedDictionary",
    "compact_shards",
    "count_moved_keys",
    "elect_and_promote",
    "load_columnar",
    "local_position",
    "match_fingerprints_batch",
    "merge_into",
    "parse_remote_spec",
    "pending_records",
    "replication_request",
    "reshard",
    "reshard_store",
    "save_columnar",
    "shard_index",
]
