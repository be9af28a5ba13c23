"""Columnar EFD backend: mmap shard codec + vectorized lookup index.

JSON shards are diffable but expensive: loading a million-key dictionary
means parsing a million JSON objects and building a million ``dict``
entries before the first lookup can run.  This module is the fast path
for that regime, while the flat
:class:`~repro.core.dictionary.ExecutionFingerprintDictionary` stays the
paper-faithful reference:

- **Shard codec** — :func:`save_columnar` writes a directory of
  shard files (the parallel arrays of
  :func:`repro.core.serialization.dictionary_to_columns`) plus a small
  ``manifest.json`` header holding the interned label/app/metric/interval
  string tables in global first-seen order, the global key order, a
  format version, and per-shard checksums.  Each shard is one raw
  aligned little-endian ``shard-NN.mmap`` file
  (:mod:`repro.engine.mmapstore`) that opens zero-copy through
  :func:`numpy.memmap` — query-ready in O(manifest), one OS page-cache
  copy shared across serving processes.  Conversion between the JSON
  shard layout and the columnar one is lossless
  (:func:`compact_shards` / :func:`expand_shards`, surfaced as ``efd
  engine compact`` / ``efd engine expand``).
- **Negative-lookup filters** — every shard is fronted by a small
  per-shard Bloom filter over its full-key hashes
  (:mod:`repro.engine.keyfilter`, ``shard-NN.filter`` sidecars,
  checksummed in the manifest) and by a ``shard-NN.hashidx`` sidecar
  holding the same hashes sorted with their row permutation.
  :meth:`ColumnarDictionary.lookup_many` and
  :meth:`ColumnarDictionary.batch_index` consult the filters *before*
  any hydration or index build, so unknown-heavy traffic — the
  dominant case of the paper's unknown-detection evaluation — resolves
  at filter speed without touching a column file; the few survivors
  (hits plus the ~1% Bloom false positives) resolve by ``searchsorted``
  into their routed shard's hash index and are verified against only
  that shard's columns.  Overlay
  keys from the delta-log are checked first (never a false negative
  under learn-while-serving), and compaction/reshard rebuild the
  filters generation-tagged under the same atomic manifest replace.
- **Lazy shards** — :func:`load_columnar` (also reached through
  :func:`repro.engine.sharded.load_sharded`, which dispatches on the
  manifest) opens a directory by reading only the manifest.  Each
  shard's ``.mmap`` is mapped and checksummed the first time that
  shard is actually probed; until then a shard costs one small proxy
  object.  Point lookups hydrate exactly the owning shard.
- **Vectorized lookup index** — :meth:`ColumnarDictionary.batch_index`
  builds the batch engine's ``(node, value)`` table directly from the
  columns: keys are rank-packed into one sorted ``uint64`` array, and a
  whole batch's unique probes resolve with a handful of
  :func:`numpy.searchsorted` calls instead of a million-entry Python
  dict build.  ``(label list, distinct apps)`` entries materialize as
  Python objects only for rows actually probed.
  :meth:`ColumnarDictionary.lookup_many` does the same for full
  fingerprint keys (the streaming-session batch path).
- **First-class writes** — mutations route through the write-ahead
  delta-log (:mod:`repro.engine.deltalog`): every ``add`` appends one
  JSONL record to ``delta-log.jsonl`` and lands in a small in-memory
  overlay, and the batch paths answer from ``base ∪ overlay`` — the
  rank-packed base indexes stay hot under a trickle of new learnings
  instead of demoting to the generic dict index.
  :meth:`ColumnarDictionary.compact_delta` folds the log back into the
  ``shard-NN.mmap`` base (auto-triggered past a pending threshold, or
  via ``efd engine compact`` / serve shutdown).

Results are element-wise identical to the flat path — enforced together
with the JSON-sharded backend by ``tests/test_engine_properties.py``;
the backend satisfies :class:`repro.engine.backend.DictionaryBackend`.

Directory layout::

    efd-columnar/
      manifest.json     # layout="columnar", storage="mmap",
                        # string tables, checksums, delta_generation
      key-order.npz     # global key insertion order as (shard, pos) columns
      shard-00.mmap     # node/value/metric_id/interval_id + CSR label cols
      shard-01.mmap     # (raw aligned LE columns opened with np.memmap)
      ...
      shard-00.filter   # per-shard Bloom filter over full-key hashes
      shard-00.hashidx  # the same hashes sorted + row permutation —
      ...               # filter survivors resolve by searchsorted
                        # (negative lookups answer without hydration)
      delta-log.jsonl   # pending mutations since the last compaction
                        # (absent on a clean directory)
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dictionary import (
    DictionaryStats,
    ExecutionFingerprintDictionary,
    app_of_label,
)
from repro.core.fingerprint import Fingerprint
from repro.core.serialization import (
    dictionary_from_columns,
    dictionary_to_columns,
)
from repro.engine.deltalog import (
    DEFAULT_MAX_PENDING,
    DeltaLog,
    PendingDeltaError,
    pending_records,
)
from repro.engine.keyfilter import (
    DEFAULT_BITS_PER_KEY,
    KeyFilter,
    filter_filename,
    hash_index_filename,
    key_hashes,
    pack_hash_index,
    probe_columns,
    unpack_hash_index,
)
from repro.engine.mmapstore import (
    MmapShardFile,
    mmap_filename,
    write_mmap_shard,
)
from repro.engine.sharded import (
    ShardedDictionary,
    merged_if_pending,
    shard_index,
)

_MANIFEST_NAME = "manifest.json"
_KEY_ORDER_NAME = "key-order.npz"
_COLUMNAR_LAYOUT = "columnar"
_COLUMNAR_FORMAT_VERSION = 1
#: The one manifest ``storage`` value: raw memory-mapped shard files.
_STORAGE = "mmap"
#: Filter-passing probe count up to which a cold ``lookup_many`` batch
#: resolves by hash-scanning the columns instead of building the full
#: rank-packed index (the scan is one pass; the index build sorts).
_SCAN_MAX = 256

#: A resolved index entry: (label list, distinct apps) — what ``vote()``
#: needs per matched key, precomputed once per probed row.
Entry = Tuple[List[str], Tuple[str, ...]]


def _checksum_bytes(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _key_order_filename(generation: int = 0) -> str:
    if generation:
        return f"key-order.g{generation}.npz"
    return _KEY_ORDER_NAME


def _value_bits(values: np.ndarray) -> np.ndarray:
    """float64 keys as order-stable int64 bit patterns.

    ``+ 0.0`` first collapses ``-0.0`` onto ``+0.0`` so the two equal
    fingerprint values share one bit pattern (dictionary keys are
    equality-deduped, but a ``0.0`` probe must still hit a ``-0.0`` key).
    """
    return (np.asarray(values, dtype=np.float64) + 0.0).view(np.int64)


def _narrowed(columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Shrink integer columns to int32 where the values allow it.

    The key-order ``(shard, pos)`` columns fit in 32 bits below 2**31
    keys; larger ones stay int64.  The reader upcasts back, so
    narrowing is invisible to consumers — it halves the on-disk cost
    before compression.
    """
    out: Dict[str, np.ndarray] = {}
    lo, hi = np.iinfo(np.int32).min, np.iinfo(np.int32).max
    for name, array in columns.items():
        if array.dtype.kind != "i" or (
            array.size and (array.min() < lo or array.max() > hi)
        ):
            out[name] = array
        else:
            out[name] = array.astype(np.int32)
    return out


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------

def save_columnar(sharded, directory: str, generation: int = 0,
                  storage: str = _STORAGE,
                  filters: bool = True,
                  filter_bits_per_key: int = DEFAULT_BITS_PER_KEY) -> None:
    """Write a sharded dictionary as a columnar directory.

    Accepts any :class:`~repro.engine.sharded.ShardedDictionary`
    (including a :class:`ColumnarDictionary`, whose shards hydrate on
    demand).  String tables are interned globally: the label table is
    seeded with the store's global first-seen label order before any
    shard is encoded, so label ids are consistent across shards and the
    manifest preserves the order that drives tie-breaking.

    Each shard is written as one raw aligned little-endian file opened
    zero-copy at load (:mod:`repro.engine.mmapstore`); ``storage`` names
    that codec and accepts only ``"mmap"``.  Unless
    ``filters=False``, each shard is fronted by a Bloom filter over its
    full-key hashes (``filter_bits_per_key`` bits per key) written as a
    ``shard-NN.filter`` sidecar, plus a ``shard-NN.hashidx`` sidecar
    holding the same hashes pre-sorted with their row permutation; both
    are checksummed in the manifest — the negative-lookup fast path of
    :meth:`ColumnarDictionary.lookup_many` and
    :meth:`ColumnarDictionary.batch_index`.

    A :class:`ColumnarDictionary` carrying pending delta-log records is
    saved as its *merged* live state (base ∪ overlay) — a save can never
    silently drop appends.  Saving such a store onto its *own* directory
    is a compaction and is routed through
    :meth:`ColumnarDictionary.compact_delta` (generation advanced,
    segment removed, live object reloaded) — otherwise the leftover log
    would replay on top of the already-folded base at the next load and
    double-count every pending record.  ``generation`` is the delta-log
    generation stamped into the manifest; compaction advances it so a
    log segment orphaned by a crash is recognized as already folded.
    """
    if storage != _STORAGE:
        raise ValueError(
            f"unsupported columnar storage {storage!r}: shards are "
            f"written as {_STORAGE!r} only"
        )
    delta = getattr(sharded, "_delta", None)
    if delta is not None and delta.pending:
        own = getattr(sharded, "_directory", None)
        if own is not None and os.path.abspath(own) == os.path.abspath(directory):
            sharded.compact_delta()
            return
    sharded = merged_if_pending(sharded)
    os.makedirs(directory, exist_ok=True)
    label_index: Dict[str, int] = {}
    metric_index: Dict[str, int] = {}
    interval_index: Dict[Tuple[float, float], int] = {}
    for label in sharded.labels():
        label_index.setdefault(label, len(label_index))
    shard_meta = []
    filter_meta = []
    shard_positions: List[Dict[Fingerprint, int]] = []
    for i, shard in enumerate(sharded.shards):
        columns = dictionary_to_columns(
            shard, label_index, metric_index, interval_index
        )
        name = mmap_filename(i, generation)
        checksum = write_mmap_shard(os.path.join(directory, name), columns)
        shard_meta.append(
            {"file": name, "n_keys": len(shard), "checksum": checksum}
        )
        if filters:
            hashes = key_hashes(
                columns["metric_id"],
                columns["interval_id"],
                columns["node"],
                _value_bits(columns["value"]),
            )
            built = KeyFilter.build(
                hashes, bits_per_key=filter_bits_per_key
            )
            filter_name = filter_filename(i, generation)
            filter_data = built.to_bytes()
            with open(os.path.join(directory, filter_name), "wb") as fh:
                fh.write(filter_data)
            # The exact-membership companion: the same hashes, sorted
            # here so a cold scan is a searchsorted, not a sort.
            hash_name = hash_index_filename(i, generation)
            hash_data = pack_hash_index(hashes)
            with open(os.path.join(directory, hash_name), "wb") as fh:
                fh.write(hash_data)
            filter_meta.append(
                {
                    "file": filter_name,
                    "n_keys": len(shard),
                    "checksum": _checksum_bytes(filter_data),
                    "hash_file": hash_name,
                    "hash_checksum": _checksum_bytes(hash_data),
                }
            )
        shard_positions.append(
            {fp: pos for pos, (fp, _) in enumerate(shard.entries())}
        )
    # Global key insertion order, as columns of its own: at millions of
    # keys a JSON list here would dominate the manifest and its parse
    # would dominate load time.
    n_keys_total = len(sharded)
    key_shard = np.empty(n_keys_total, dtype=np.int64)
    key_pos = np.empty(n_keys_total, dtype=np.int64)
    for row, fp in enumerate(sharded._key_order):
        i = shard_index(fp, sharded.n_shards)
        key_shard[row] = i
        key_pos[row] = shard_positions[i][fp]
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer, **_narrowed({"shard": key_shard, "pos": key_pos})
    )
    key_order_data = buffer.getvalue()
    key_order_name = _key_order_filename(generation)
    with open(os.path.join(directory, key_order_name), "wb") as fh:
        fh.write(key_order_data)
    manifest = {
        "format_version": _COLUMNAR_FORMAT_VERSION,
        "layout": _COLUMNAR_LAYOUT,
        "storage": _STORAGE,
        "delta_generation": int(generation),
        "n_shards": sharded.n_shards,
        "label_order": list(label_index),
        "app_order": sharded.app_names(),
        "metric_table": list(metric_index),
        "interval_table": [list(iv) for iv in interval_index],
        "key_order_file": {
            "file": key_order_name,
            "checksum": _checksum_bytes(key_order_data),
        },
        "shards": shard_meta,
    }
    if filters:
        manifest["filters"] = {
            "bits_per_key": int(filter_bits_per_key),
            "shards": filter_meta,
        }
    # Atomic commit: every data file above is fully written before the
    # manifest switches to it, so a reader (or a crash) always sees a
    # manifest whose checksums match the files it names.
    manifest_path = os.path.join(directory, _MANIFEST_NAME)
    tmp_path = f"{manifest_path}.tmp-{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    os.replace(tmp_path, manifest_path)


# ---------------------------------------------------------------------------
# Lazy shard loading
# ---------------------------------------------------------------------------

class _LazyShard:
    """Duck-types a flat EFD, hydrating from its columns on first probe.

    ``len()`` answers from the manifest without touching the file (shard
    occupancy is read every batch); ``version`` counts only *post-load*
    mutations, so hydrating a pristine shard does not invalidate the
    batch engine's cached index.  Everything else forwards to the
    hydrated :class:`ExecutionFingerprintDictionary`.
    """

    __slots__ = ("_owner", "_index", "_efd", "_baseline")

    def __init__(self, owner: "ColumnarDictionary", index: int):
        self._owner = owner
        self._index = index
        self._efd: Optional[ExecutionFingerprintDictionary] = None
        self._baseline = 0

    def _hydrate(self) -> ExecutionFingerprintDictionary:
        if self._efd is None:
            self._efd = self._owner._hydrate_shard(self._index)
            self._baseline = self._efd.version
        return self._efd

    @property
    def hydrated(self) -> bool:
        return self._efd is not None

    @property
    def version(self) -> int:
        if self._efd is None:
            return 0
        return self._efd.version - self._baseline

    def __len__(self) -> int:
        if self._efd is None:
            return self._owner._files[self._index].n_keys
        return len(self._efd)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint in self._hydrate()

    def __getattr__(self, name: str):
        return getattr(self._hydrate(), name)

    def __repr__(self) -> str:
        state = "hydrated" if self.hydrated else "lazy"
        return f"_LazyShard(index={self._index}, n_keys={len(self)}, {state})"


# ---------------------------------------------------------------------------
# Vectorized lookup
# ---------------------------------------------------------------------------

class _RankPackedIndex:
    """Exact-match lookup over composite int64 keys, all NumPy.

    Each key component is rank-compressed against its sorted distinct
    values, the ranks are packed into a single ``uint64`` per key, and
    the packed keys are sorted once.  A batch of probes then resolves
    with one :func:`numpy.searchsorted` per component plus one over the
    packed table — no Python per-key work at all.

    Raises :class:`OverflowError` if the rank-space product cannot fit
    in 64 bits (astronomically large stores); callers fall back to the
    Python dict index.
    """

    __slots__ = ("_uniques", "_packed", "_rows", "_n")

    def __init__(self, components: Sequence[np.ndarray], rows: np.ndarray):
        self._n = len(rows)
        self._uniques: List[np.ndarray] = []
        capacity = 1
        packed = np.zeros(self._n, dtype=np.uint64)
        for component in components:
            component = np.asarray(component, dtype=np.int64)
            values = np.unique(component)
            capacity *= max(len(values), 1)
            if capacity >= 1 << 64:
                raise OverflowError("rank space exceeds 64 bits")
            self._uniques.append(values)
            ranks = np.searchsorted(values, component).astype(np.uint64)
            packed = packed * np.uint64(max(len(values), 1)) + ranks
        order = np.argsort(packed, kind="stable")
        self._packed = packed[order]
        self._rows = np.asarray(rows, dtype=np.int64)[order]

    def resolve(self, probes: Sequence[np.ndarray]) -> np.ndarray:
        """Row id per probe tuple; ``-1`` where no key matches."""
        n_probes = len(probes[0]) if probes else 0
        if self._n == 0 or n_probes == 0:
            return np.full(n_probes, -1, dtype=np.int64)
        valid = np.ones(n_probes, dtype=bool)
        packed = np.zeros(n_probes, dtype=np.uint64)
        for component, values in zip(probes, self._uniques):
            component = np.asarray(component, dtype=np.int64)
            if len(values) == 0:
                return np.full(n_probes, -1, dtype=np.int64)
            idx = np.searchsorted(values, component)
            idx_c = np.minimum(idx, len(values) - 1)
            valid &= (idx < len(values)) & (values[idx_c] == component)
            packed = packed * np.uint64(len(values)) + idx_c.astype(np.uint64)
        pos = np.searchsorted(self._packed, packed)
        pos_c = np.minimum(pos, self._n - 1)
        found = valid & (pos < self._n) & (self._packed[pos_c] == packed)
        return np.where(found, self._rows[pos_c], np.int64(-1))


class ResolvedProbes:
    """A batch's ``(node, value)`` probes resolved to entry handles.

    ``handles[i]`` is ``-1`` when probe ``i`` hits no key (NaN probes —
    nodes without a fingerprint — always miss); otherwise an opaque
    non-negative id shared by every probe of the same key, and
    ``entries[handle]`` is that key's ``(labels, apps)`` entry — one per
    distinct handle.  Probes of one key resolve to one handle, so a
    record's verdict depends only on its handle pattern.
    """

    __slots__ = ("handles", "entries", "_nodes", "_values", "_hit_keys")

    def __init__(self, handles: np.ndarray, entries: Dict[int, Entry],
                 nodes: np.ndarray, values: np.ndarray):
        self.handles = handles
        self.entries = entries
        self._nodes = nodes
        self._values = values
        self._hit_keys: Optional[set] = None

    def __contains__(self, probe: Tuple[int, float]) -> bool:
        """Whether the ``(node, value)`` probe hit a key in this batch."""
        if self._hit_keys is None:
            hit = self.handles >= 0
            self._hit_keys = set(zip(
                self._nodes[hit].tolist(), self._values[hit].tolist()
            ))
        return probe in self._hit_keys


def _batch_key(
    metric: str, interval: Tuple[float, float]
) -> Tuple[str, Tuple[float, float]]:
    """Cache key of one (metric, interval) batch index."""
    return str(metric), (float(interval[0]) + 0.0, float(interval[1]) + 0.0)


def _misses(n: int) -> np.ndarray:
    return np.full(n, -1, dtype=np.int64)


class ColumnarBatchIndex:
    """The batch engine's ``(node, value)`` table, backed by columns.

    Replaces the per-key Python dict the generic path builds
    (:func:`repro.engine.batch._shard_tuple_index`): construction is a
    rank-pack + sort over the store's columns for one
    ``(metric, interval)``, and :meth:`resolve_probes` answers a whole
    batch's probes in a handful of NumPy calls.  Handles are the base
    columns' global row ids; ``(labels, apps)`` entries materialize
    lazily, only for rows actually hit, and are cached across batches.
    """

    __slots__ = ("_owner", "_index")

    def __init__(self, owner: "ColumnarDictionary", node: np.ndarray,
                 bits: np.ndarray, rows: np.ndarray):
        self._owner = owner
        self._index = _RankPackedIndex([node, bits], rows)

    def resolve_probes(
        self, nodes: np.ndarray, values: np.ndarray
    ) -> ResolvedProbes:
        """Resolve every probe of a batch to its entry handle.

        ``values`` may contain NaN (nodes without a fingerprint) — those
        probes miss.  The per-key Python work runs once per *distinct*
        hit key, never per probe.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        handles = self._handles(nodes, values)
        distinct = np.unique(handles[handles >= 0]).tolist()
        entries = {handle: self._entry(handle) for handle in distinct}
        return ResolvedProbes(handles, entries, nodes, values)

    def _handles(self, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
        handles = _misses(len(values))
        usable = np.flatnonzero(values == values)
        if len(usable):
            handles[usable] = self._index.resolve(
                [nodes[usable], _value_bits(values[usable])]
            )
        return handles

    def _entry(self, handle: int) -> Entry:
        return self._owner._entry(handle)


class _FilterGuardedBatchIndex(ColumnarBatchIndex):
    """A batch index that consults the shard filters before existing.

    Returned by :meth:`ColumnarDictionary.batch_index` on a filtered
    store whose real ``(metric, interval)`` index has not been built
    yet: a batch whose probes all fail the per-shard Bloom filters
    resolves to all misses without reading a single column file, so a
    cold store serving unknown-heavy record traffic never pays the
    column read + rank-pack sort at all.  The first batch with a
    surviving probe builds (and caches) the real index and delegates to
    it; under rank-space overflow it delegates to the owner's exact
    dict fallback instead of demoting the engine.  Either way handles
    are base row ids.
    """

    __slots__ = ("_key", "_metric_id", "_interval_id")

    def __init__(self, owner: "ColumnarDictionary",
                 key: Tuple[str, Tuple[float, float]]):
        self._owner = owner
        self._key = key
        self._metric_id = owner._metric_map.get(key[0])
        self._interval_id = owner._interval_map.get(key[1])

    def _handles(self, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
        if self._metric_id is None or self._interval_id is None:
            return _misses(len(values))
        owner = self._owner
        if self._key in owner._batch_indices:
            base = owner._batch_indices[self._key]
        else:
            usable = np.flatnonzero(values == values)
            if len(usable) == 0:
                return _misses(len(values))
            n = len(usable)
            hashes = key_hashes(
                np.full(n, self._metric_id, dtype=np.int64),
                np.full(n, self._interval_id, dtype=np.int64),
                nodes[usable],
                _value_bits(values[usable]),
            )
            if not owner._filter_might(hashes).any():
                return _misses(len(values))
            base = owner._built_batch_index(self._key)
        if base is None:
            return owner._overflow_handles(self._key, nodes, values)
        return base._handles(nodes, values)


class _PatchedBatchIndex(ColumnarBatchIndex):
    """A pristine base index plus the delta overlay's few keys.

    The expensive half — the rank-packed, sorted base table — is shared
    and never rebuilt; only the patch (one handle per overlay key of
    this (metric, interval), numbered past the base rows, with fully
    merged ``base ∪ overlay`` labels) is recomputed when the overlay
    changes.  Patch handles simply override base hits, so a probe that
    matches an updated key sees the merged labels and a probe of a
    brand-new key hits at all.
    """

    __slots__ = ("_base", "_patch")

    def __init__(self, base: ColumnarBatchIndex, patch: "_OverlayPatch"):
        self._base = base
        self._patch = patch

    def _handles(self, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
        handles = self._base._handles(nodes, values)
        patched = self._patch.index.resolve([nodes, _value_bits(values)])
        hit = patched >= 0
        handles[hit] = patched[hit]
        return handles

    def _entry(self, handle: int) -> Entry:
        found = self._patch.entries.get(handle)
        if found is None:
            return self._base._entry(handle)
        return found


class _OverlayPatch:
    """The overlay's keys of one (metric, interval), probe-ready: a
    ``(node, value)`` index onto handles numbered past the base rows,
    and each handle's merged entry."""

    __slots__ = ("index", "entries")

    def __init__(self, index: _RankPackedIndex, entries: Dict[int, Entry]):
        self.index = index
        self.entries = entries


def _merge_labels(base: List[str], extra: Sequence[str]) -> List[str]:
    """``base`` plus the labels of ``extra`` it lacks, first-seen order."""
    if not base:
        return list(extra)
    merged = list(base)
    for label in extra:
        if label not in merged:
            merged.append(label)
    return merged


# ---------------------------------------------------------------------------
# The columnar store
# ---------------------------------------------------------------------------

class ColumnarDictionary(ShardedDictionary):
    """Sharded EFD backed by a columnar directory, hydrated lazily.

    Mirrors the full :class:`~repro.engine.sharded.ShardedDictionary`
    contract (and thereby
    :class:`repro.engine.backend.DictionaryBackend`) — every read and
    write works — but holds no per-key Python objects at load time.
    Point operations hydrate exactly the shard they touch; the batch
    engine bypasses hydration entirely through :meth:`batch_index` /
    :meth:`lookup_many`.

    Mutations route through the write-ahead delta-log
    (:mod:`repro.engine.deltalog`): an ``add`` appends one JSONL record
    to the directory's ``delta-log.jsonl`` and folds into a small
    in-memory overlay; the base ``shard-NN.mmap`` columns — and the
    vectorized indexes built on them — are never touched.  Every read
    answers from ``base ∪ overlay``, so a store under a sustained write
    trickle keeps the rank-packed ``searchsorted`` fast path, and a
    restart replays the pending log.  :meth:`compact_delta` folds the
    log back into the base files (automatic past
    ``DeltaLog.max_pending`` records; also ``efd engine compact`` and
    serve shutdown).

    The one remaining fallback: mutating a shard object *directly*
    (``store.shards[i].add(...)``) bypasses the log, so the base column
    caches no longer reflect live state — ``batch_index`` /
    ``lookup_many`` then return ``None``, the engine counts an
    ``index_demotion`` and answers through the generic dict-index path,
    which merges the overlay explicitly.
    """

    def __init__(self, directory: str, manifest: dict,
                 key_shard: np.ndarray, key_pos: np.ndarray,
                 validate: bool = True,
                 delta_max_pending: int = DEFAULT_MAX_PENDING):
        self.n_shards = int(manifest["n_shards"])
        self._directory = directory
        self._validate = bool(validate)
        self._label_table: List[str] = list(manifest["label_order"])
        self._metric_table: List[str] = [
            str(m) for m in manifest["metric_table"]
        ]
        self._interval_table: List[Tuple[float, float]] = [
            (float(iv[0]) + 0.0, float(iv[1]) + 0.0)
            for iv in manifest["interval_table"]
        ]
        self._files = [
            MmapShardFile(
                path=os.path.join(directory, meta["file"]),
                name=meta["file"],
                checksum=meta.get("checksum"),
                n_keys=meta["n_keys"],
            )
            for meta in manifest["shards"]
        ]
        self.shards = [_LazyShard(self, i) for i in range(self.n_shards)]
        # Per-shard Bloom filters (absent on pre-filter directories):
        # tiny, so they load — and checksum — eagerly; a store is only
        # "query-ready" once its negative-lookup path is armed, and a
        # missing or damaged sidecar must surface at open, by name.
        self._filters: Optional[List[KeyFilter]] = None
        self._filter_bits_per_key = DEFAULT_BITS_PER_KEY
        filter_manifest = manifest.get("filters")
        if filter_manifest is not None:
            entries = filter_manifest.get("shards", [])
            if len(entries) != self.n_shards:
                raise ValueError(
                    f"manifest lists {len(entries)} filter files for "
                    f"n_shards={self.n_shards} — manifest is corrupt"
                )
            self._filter_bits_per_key = int(
                filter_manifest.get("bits_per_key", DEFAULT_BITS_PER_KEY)
            )
            loaded = []
            for meta in entries:
                name = meta["file"]
                path = os.path.join(directory, name)
                if not os.path.isfile(path):
                    raise FileNotFoundError(
                        f"columnar EFD is incomplete: missing filter "
                        f"file {name!r}"
                    )
                with open(path, "rb") as fh:
                    data = fh.read()
                expected = meta.get("checksum")
                if expected is not None and _checksum_bytes(data) != expected:
                    raise ValueError(
                        f"filter file {name!r} is corrupt: checksum "
                        f"mismatch (expected {expected})"
                    )
                loaded.append(KeyFilter.from_bytes(data, name))
                # The sorted hash-index sidecar reads lazily (first
                # scan), but a missing file must still surface at open,
                # by name, like every other manifest-listed sidecar.
                hash_name = meta.get("hash_file")
                if hash_name is not None and not os.path.isfile(
                    os.path.join(directory, hash_name)
                ):
                    raise FileNotFoundError(
                        f"columnar EFD is incomplete: missing hash-index "
                        f"file {hash_name!r}"
                    )
            self._filters = loaded
            self._filter_hash_meta = list(entries)
        else:
            self._filter_hash_meta = None
        self._hash_index_cache: Dict[
            int, Tuple[np.ndarray, np.ndarray]
        ] = {}
        self._shard_starts: Optional[np.ndarray] = None
        self._overflow_dicts: Dict[object, Dict] = {}
        self._guard_indices: Dict[object, "_FilterGuardedBatchIndex"] = {}
        self._label_order = {label: None for label in self._label_table}
        self._app_order: Dict[str, None] = {}
        for label in self._label_table:
            self._app_order.setdefault(app_of_label(label), None)
        self._key_shard = key_shard
        self._key_pos = key_pos
        self._key_order_cache: Optional[Dict[Fingerprint, None]] = None
        self._metric_map = {m: i for i, m in enumerate(self._metric_table)}
        self._interval_map = {
            iv: i for i, iv in enumerate(self._interval_table)
        }
        self._concat_cache: Optional[Dict[str, np.ndarray]] = None
        self._batch_indices: Dict[object, Optional[ColumnarBatchIndex]] = {}
        self._full_index: object = None
        self._row_labels: Dict[int, List[str]] = {}
        self._row_entries: Dict[int, Entry] = {}
        # -- delta-log state -------------------------------------------------
        # Preserves version monotonicity across in-place compactions so
        # engine-side caches keyed on `version` can never alias a stale
        # index onto a post-compaction state.
        self._version_base = 0
        self._delta = DeltaLog(
            directory,
            generation=int(manifest.get("delta_generation", 0)),
            max_pending=delta_max_pending,
        )
        # Overlay keys absent from the base columns, insertion-ordered
        # (the tail of the global key order), plus their per-shard tally
        # (shard_sizes / occupancy gauges must include them).
        self._delta_new_keys: Dict[Fingerprint, None] = {}
        self._new_per_shard: List[int] = [0] * self.n_shards
        self._patch_cache: Dict[object, Optional[_OverlayPatch]] = {}
        replayed = self._delta.replay()
        if replayed:
            # One vectorized membership pass over the distinct replayed
            # keys — per-record resolves would make reopening a store
            # with a large pending segment O(records) numpy round-trips.
            distinct = list(dict.fromkeys(fp for fp, _, _ in replayed))
            rows = self._base_resolve(distinct)
            if rows is None:  # rank-space overflow: per-shard membership
                in_base = [
                    ShardedDictionary.__contains__(self, fp)
                    for fp in distinct
                ]
            else:
                in_base = (rows >= 0).tolist()
            for fp, present in zip(distinct, in_base):
                if not present:
                    self._delta_new_keys[fp] = None
                    self._new_per_shard[
                        shard_index(fp, self.n_shards)
                    ] += 1
        for label in self._delta.overlay.labels():
            self._label_order.setdefault(label, None)
            self._app_order.setdefault(app_of_label(label), None)

    # -- lazy key order ------------------------------------------------------
    @property
    def _key_order(self) -> Dict[Fingerprint, None]:
        if self._key_order_cache is None:
            per_shard = [
                self._shard_fingerprints(i) for i in range(self.n_shards)
            ]
            order: Dict[Fingerprint, None] = {}
            for i, pos in zip(
                self._key_shard.tolist(), self._key_pos.tolist()
            ):
                order.setdefault(per_shard[i][pos], None)
            for fp in self._delta_new_keys:
                order.setdefault(fp, None)
            self._key_order_cache = order
        return self._key_order_cache

    def _shard_fingerprints(self, index: int) -> List[Fingerprint]:
        """The shard's keys in stored order, decoded from its columns."""
        columns = self._files[index].columns()
        metrics = self._metric_table
        intervals = self._interval_table
        return [
            Fingerprint(
                metric=metrics[m], node=n, interval=intervals[iv], value=v
            )
            for m, n, iv, v in zip(
                columns["metric_id"].tolist(),
                columns["node"].tolist(),
                columns["interval_id"].tolist(),
                columns["value"].tolist(),
            )
        ]

    # -- hydration -----------------------------------------------------------
    def _hydrate_shard(self, index: int) -> ExecutionFingerprintDictionary:
        name = self._files[index].name
        columns = self._files[index].columns()
        try:
            efd = dictionary_from_columns(
                columns,
                self._label_table,
                self._metric_table,
                self._interval_table,
            )
        except ValueError as exc:
            raise ValueError(
                f"shard file {name!r} is corrupt: {exc}"
            ) from exc
        if self._validate:
            for fp in efd._store:
                owner = shard_index(fp, self.n_shards)
                if owner != index:
                    raise ValueError(
                        f"shard file {name!r} holds key {fp} that belongs "
                        f"to shard {owner} — files renamed or swapped?"
                    )
        return efd

    # -- the delta-log write path --------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic mutation counter: base epoch + overlay + shards."""
        return (
            self._version_base
            + self._delta.overlay.version
            + sum(s.version for s in self.shards)
        )

    @property
    def delta_pending(self) -> int:
        """Unfolded delta-log records (0 on a clean store)."""
        return self._delta.n_records

    def _base_mutated(self) -> bool:
        """True when a shard was mutated *behind* the delta-log.

        Routed writes never touch the shards, so any post-load shard
        version means the base column caches no longer reflect live
        state — the vectorized paths must stand down.
        """
        return any(s.version for s in self.shards)

    def _note_delta_key(self, fingerprint: Fingerprint) -> None:
        """Track an overlay key's first sighting (new-key bookkeeping)."""
        if fingerprint in self._delta_new_keys or self._base_has(fingerprint):
            return
        self._delta_new_keys[fingerprint] = None
        self._new_per_shard[shard_index(fingerprint, self.n_shards)] += 1
        if self._key_order_cache is not None:
            self._key_order_cache.setdefault(fingerprint, None)

    def _delta_apply(self, fingerprint: Fingerprint, label: str,
                     count: int) -> None:
        first_sight = fingerprint not in self._delta.overlay
        self._delta.append_add(fingerprint, label, count)
        if first_sight:
            self._note_delta_key(fingerprint)
        self._label_order.setdefault(label, None)
        self._app_order.setdefault(app_of_label(label), None)
        self._patch_cache.clear()
        if self._delta.over_threshold:
            self.compact_delta()

    def add(self, fingerprint: Fingerprint, label: str) -> None:
        """Insert one observation through the delta-log."""
        self._delta_apply(fingerprint, label, 1)

    def add_repeated(self, fingerprint: Fingerprint, label: str,
                     count: int) -> None:
        """Insert ``count`` repetitions through the delta-log, O(1)."""
        self._delta_apply(fingerprint, label, count)

    def register_label(self, label: str) -> None:
        """Record ``label`` in the first-seen orders (delta-logged)."""
        if not label:
            raise ValueError("label must be non-empty")
        if label not in self._label_order:
            self._delta.append_label(label)
        self._label_order.setdefault(label, None)
        self._app_order.setdefault(app_of_label(label), None)

    def compact_delta(self) -> int:
        """Fold pending delta-log records into the base columns, in place.

        Rewrites the directory from the merged live state with the
        delta generation advanced, removes the log segment and the
        superseded base files, and re-opens the store on the fresh base
        (version stays monotonic, so engine caches rebuild rather than
        alias).  Crash-safe at every step: the new base is written
        under generation-suffixed names and committed by one atomic
        manifest replace, so before the commit the old base + replaying
        log are intact, and after it an orphaned segment's stale
        generation marks it already-folded (old base files linger as
        harmless orphans at worst).  Returns the records folded.
        """
        if not self._delta.pending:
            return 0
        folded = self._delta.n_records
        merged = ShardedDictionary(self.n_shards)
        merged.merge(self)
        generation = self._delta.generation + 1
        version_base = self.version + 1  # strictly advance: caches rebuild
        old_manifest = _read_manifest(self._directory)
        save_columnar(
            merged, self._directory, generation=generation,
            filters=self._filters is not None,
            filter_bits_per_key=self._filter_bits_per_key,
        )
        self._delta.clear()
        _remove_superseded_files(
            self._directory, old_manifest, _read_manifest(self._directory)
        )
        self._reload(version_base)
        return folded

    def _reload(self, version_base: int) -> None:
        """Re-open the on-disk state in place (post-compaction)."""
        fresh = load_columnar(
            self._directory,
            validate=self._validate,
            delta_max_pending=self._delta.max_pending,
        )
        self.__dict__.clear()
        self.__dict__.update(fresh.__dict__)
        for shard in self.shards:
            shard._owner = self
        self._version_base = version_base

    # -- overlay-merged point reads ------------------------------------------
    def __len__(self) -> int:
        return super().__len__() + len(self._delta_new_keys)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        if fingerprint in self._delta.overlay:
            return True
        if self._filter_definitely_absent(fingerprint):
            return False
        return super().__contains__(fingerprint)

    def shard_sizes(self) -> List[int]:
        """Key count per shard, overlay keys included."""
        return [
            len(s) + extra
            for s, extra in zip(self.shards, self._new_per_shard)
        ]

    def lookup(self, fingerprint: Optional[Fingerprint]) -> List[str]:
        """Labels for one key, ``base ∪ overlay``, first-seen order."""
        if fingerprint is None:
            return []
        overlay = self._delta.overlay
        if fingerprint in self._delta_new_keys and not self._base_mutated():
            # Known absent from the pristine base: skip the shard probe
            # (a direct shard mutation voids that knowledge — the key
            # may have been added behind the log, so fall through).
            return overlay.lookup(fingerprint)
        if self._filter_definitely_absent(fingerprint):
            # Overlay first — a key learned since the last compaction
            # must answer even though the base filters reject it.
            if fingerprint in overlay:
                return overlay.lookup(fingerprint)
            return []
        base = super().lookup(fingerprint)
        if len(overlay) == 0 or fingerprint not in overlay:
            return base
        return _merge_labels(base, overlay.lookup(fingerprint))

    def lookup_counts(self, fingerprint: Optional[Fingerprint]) -> Dict[str, int]:
        """Repetition counts for one key, ``base ∪ overlay`` (summed)."""
        if fingerprint is None:
            return {}
        overlay = self._delta.overlay
        if fingerprint in self._delta_new_keys and not self._base_mutated():
            return overlay.lookup_counts(fingerprint)
        if self._filter_definitely_absent(fingerprint):
            if fingerprint in overlay:
                return overlay.lookup_counts(fingerprint)
            return {}
        base = super().lookup_counts(fingerprint)
        if len(overlay) == 0 or fingerprint not in overlay:
            return base
        merged = dict(base)
        for label, count in overlay.lookup_counts(fingerprint).items():
            merged[label] = merged.get(label, 0) + count
        return merged

    def overlay_keys(self) -> List[Fingerprint]:
        """Keys with pending overlay observations (append order)."""
        return [fp for fp, _ in self._delta.overlay.entries()]

    def overlay_tuple_entries(
        self, metric: str, interval: Tuple[float, float]
    ) -> Dict[Tuple[int, float], Entry]:
        """Merged ``(node, value)`` entries for the overlay's keys of one
        (metric, interval), computed from *live* state via :meth:`lookup`
        — the patch the generic fallback dict index needs, valid even
        when a shard was mutated behind the delta-log.
        """
        overlay = self._delta.overlay
        out: Dict[Tuple[int, float], Entry] = {}
        if len(overlay) == 0:
            return out
        key_interval = (float(interval[0]) + 0.0, float(interval[1]) + 0.0)
        for fp, _ in overlay.entries():
            if str(fp.metric) != str(metric):
                continue
            if (float(fp.interval[0]) + 0.0,
                    float(fp.interval[1]) + 0.0) != key_interval:
                continue
            labels = self.lookup(fp)
            apps = tuple(dict.fromkeys(app_of_label(l) for l in labels))
            out[(fp.node, fp.value)] = (labels, apps)
        return out

    def stats(self) -> DictionaryStats:
        if not self._delta.pending:
            return super().stats()
        # Merged scan: base per-shard stats cannot be adjusted without
        # per-key overlay merging anyway, so walk the merged view once.
        n_keys = 0
        n_insertions = 0
        colliding = 0
        max_labels = 0
        all_labels: Dict[str, None] = {}
        for fp, labels in self.entries():
            n_keys += 1
            n_insertions += sum(self.lookup_counts(fp).values())
            apps = {app_of_label(l) for l in labels}
            if len(apps) > 1:
                colliding += 1
            max_labels = max(max_labels, len(labels))
            for label in labels:
                all_labels.setdefault(label, None)
        return DictionaryStats(
            n_keys=n_keys,
            n_insertions=n_insertions,
            n_labels=len(all_labels),
            n_colliding_keys=colliding,
            max_labels_per_key=max_labels,
        )

    # -- vectorized lookup ---------------------------------------------------
    @property
    def pristine(self) -> bool:
        """True while the base columns reflect every shard's live state.

        Delta-routed writes keep the store pristine (they never touch
        the shards); only a direct shard mutation clears it.
        """
        return not self._base_mutated()

    def _concat(self) -> Dict[str, np.ndarray]:
        """All shards' columns concatenated (global row = shard-major)."""
        if self._concat_cache is None:
            parts = [self._files[i].columns() for i in range(self.n_shards)]
            if len(parts) == 1:
                # Zero-copy: with one shard the global rows *are* the
                # shard's rows, so the vectorized indexes build directly
                # over the memory-mapped arrays.
                self._concat_cache = parts[0]
                return self._concat_cache
            offsets = [np.zeros(1, dtype=np.int64)]
            shift = 0
            for part in parts:
                offsets.append(part["label_offsets"][1:] + shift)
                shift += part["label_offsets"][-1]
            self._concat_cache = {
                "node": np.concatenate([p["node"] for p in parts]),
                "value": np.concatenate([p["value"] for p in parts]),
                "metric_id": np.concatenate([p["metric_id"] for p in parts]),
                "interval_id": np.concatenate(
                    [p["interval_id"] for p in parts]
                ),
                "label_offsets": np.concatenate(offsets),
                "label_ids": np.concatenate([p["label_ids"] for p in parts]),
            }
        return self._concat_cache

    def _labels_of_row(self, row: int) -> List[str]:
        found = self._row_labels.get(row)
        if found is None:
            columns = self._concat()
            lo = columns["label_offsets"][row]
            hi = columns["label_offsets"][row + 1]
            table = self._label_table
            found = [table[j] for j in columns["label_ids"][lo:hi].tolist()]
            self._row_labels[row] = found
        return found

    def _entry(self, row: int) -> Entry:
        found = self._row_entries.get(row)
        if found is None:
            labels = self._labels_of_row(row)
            apps = tuple(dict.fromkeys(app_of_label(l) for l in labels))
            found = (labels, apps)
            self._row_entries[row] = found
        return found

    def batch_index(
        self, metric: str, interval: Tuple[float, float]
    ) -> Optional[ColumnarBatchIndex]:
        """Vectorized ``(node, value)`` index for one (metric, interval).

        With pending overlay keys the sorted base table is reused as-is
        and wrapped with a per-key patch (:class:`_PatchedBatchIndex`)
        — a write trickle never rebuilds the expensive half.  On a
        filtered store the returned index is additionally guarded
        (:class:`_FilterGuardedBatchIndex`): the real index is not
        built — no column file is even read — until a batch carries a
        probe that survives the per-shard Bloom filters (or
        :meth:`warm_batch_index` builds it), so unknown-heavy record
        traffic resolves at filter speed.  ``None`` when a
        shard was mutated behind the delta-log (the base columns are
        stale) or the rank space cannot pack into 64 bits on an
        unfiltered store — callers fall back to the generic dict index
        and count a demotion.
        """
        if self._base_mutated():
            return None
        key = _batch_key(metric, interval)
        if self._filters is not None:
            built = self._batch_indices.get(key)
            if built is not None:
                base: Optional[ColumnarBatchIndex] = built
            else:
                base = self._guard_indices.get(key)
                if base is None:
                    base = _FilterGuardedBatchIndex(self, key)
                    self._guard_indices[key] = base
        else:
            base = self._built_batch_index(key)
        if base is None:
            return None
        patch = self._overlay_patch(key)
        if patch is None:
            return base
        return _PatchedBatchIndex(base, patch)

    def warm_batch_index(
        self, metric: str, interval: Tuple[float, float]
    ) -> None:
        """Build the real ``(node, value)`` index for one (metric,
        interval) now, filters or not — what an explicit engine warm
        calls so the first record batch resolves at steady-state
        latency.  A no-op once a shard was mutated behind the
        delta-log; under rank-space overflow the guard keeps answering
        through the exact dict fallback."""
        if not self._base_mutated():
            self._built_batch_index(_batch_key(metric, interval))

    def _built_batch_index(
        self, key: Tuple[str, Tuple[float, float]]
    ) -> Optional[ColumnarBatchIndex]:
        """The real (eagerly built) index for ``key``; ``None`` on
        rank-space overflow.  Cached — the sort runs once per key."""
        if key in self._batch_indices:
            return self._batch_indices[key]
        columns = self._concat()
        metric_id = self._metric_map.get(key[0])
        interval_id = self._interval_map.get(key[1])
        if metric_id is None or interval_id is None:
            rows = np.empty(0, dtype=np.int64)
        else:
            rows = np.nonzero(
                (columns["metric_id"] == metric_id)
                & (columns["interval_id"] == interval_id)
            )[0].astype(np.int64)
        try:
            base: Optional[ColumnarBatchIndex] = ColumnarBatchIndex(
                self,
                columns["node"][rows],
                _value_bits(columns["value"][rows]),
                rows,
            )
        except OverflowError:
            base = None
        self._batch_indices[key] = base
        return base

    def _overflow_handles(
        self, key: Tuple[str, Tuple[float, float]],
        nodes: np.ndarray, values: np.ndarray,
    ) -> np.ndarray:
        """Base row per ``(node, value)`` probe (``-1`` on a miss),
        exact, without rank-packing.

        The guard's fallback when the real index cannot be built
        (rank-space overflow — astronomically large stores): a plain
        dict over the key's rows, built once from the columns.
        """
        table = self._overflow_dicts.get(key)
        if table is None:
            table = {}
            columns = self._concat()
            metric_id = self._metric_map.get(key[0])
            interval_id = self._interval_map.get(key[1])
            if metric_id is not None and interval_id is not None:
                rows = np.nonzero(
                    (columns["metric_id"] == metric_id)
                    & (columns["interval_id"] == interval_id)
                )[0]
                row_nodes = columns["node"][rows]
                row_values = columns["value"][rows] + 0.0
                for n_, v_, r_ in zip(
                    row_nodes.tolist(), row_values.tolist(), rows.tolist()
                ):
                    table[(int(n_), float(v_))] = int(r_)
            self._overflow_dicts[key] = table
        get = table.get
        return np.fromiter(
            (get(probe, -1) for probe in zip(nodes.tolist(), values.tolist())),
            dtype=np.int64, count=len(values),
        )

    def _overlay_patch(
        self, key: Tuple[str, Tuple[float, float]]
    ) -> Optional[_OverlayPatch]:
        """The overlay's keys of one (metric, interval), merged entries
        included; ``None`` when the overlay holds none.

        Invalidated wholesale on every write (the overlay is small, so
        a rebuild is O(pending) against the vectorized base resolve).
        """
        overlay = self._delta.overlay
        if len(overlay) == 0:
            return None
        if key in self._patch_cache:
            return self._patch_cache[key]
        metric, interval = key
        fps = [
            fp for fp, _ in overlay.entries()
            if str(fp.metric) == metric
            and (float(fp.interval[0]) + 0.0,
                 float(fp.interval[1]) + 0.0) == interval
        ]
        patch: Optional[_OverlayPatch] = None
        if fps:
            first = sum(f.n_keys for f in self._files)  # past every base row
            handles = np.arange(first, first + len(fps), dtype=np.int64)
            entries: Dict[int, Entry] = {}
            for handle, fp, base_labels in zip(
                handles.tolist(), fps, self._base_labels_many(fps)
            ):
                labels = _merge_labels(base_labels, overlay.lookup(fp))
                apps = tuple(dict.fromkeys(app_of_label(l) for l in labels))
                entries[handle] = (labels, apps)
            index = _RankPackedIndex(
                [[int(fp.node) for fp in fps],
                 _value_bits([float(fp.value) for fp in fps])],
                handles,
            )
            patch = _OverlayPatch(index, entries)
        self._patch_cache[key] = patch
        return patch

    def _ensure_full_index(self) -> object:
        """The base columns' full-key index (``"overflow"`` sentinel when
        the rank space cannot pack into 64 bits)."""
        if self._full_index is None:
            columns = self._concat()
            try:
                self._full_index = _RankPackedIndex(
                    [
                        columns["metric_id"],
                        columns["interval_id"],
                        columns["node"],
                        _value_bits(columns["value"]),
                    ],
                    np.arange(len(columns["node"]), dtype=np.int64),
                )
            except OverflowError:
                self._full_index = "overflow"
        return self._full_index

    def _probe_arrays(
        self, fingerprints: Sequence[Fingerprint]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fingerprints as the (metric_id, interval_id, node, value_bits)
        component arrays every vectorized path consumes; unknown metric/
        interval strings map to id ``-1`` (a guaranteed miss)."""
        cols = probe_columns(fingerprints)
        metric_id, interval_id = cols.ids(self._metric_map, self._interval_map)
        return metric_id, interval_id, cols.node, cols.value_bits

    def _base_resolve(
        self, fingerprints: Sequence[Fingerprint]
    ) -> Optional[np.ndarray]:
        """Base-column row per fingerprint (-1 on miss); ``None`` on
        rank-space overflow."""
        index = self._ensure_full_index()
        if index == "overflow":
            return None
        metric_id, interval_id, node, bits = self._probe_arrays(fingerprints)
        return index.resolve([metric_id, interval_id, node, bits])

    def _base_has(self, fingerprint: Fingerprint) -> bool:
        """Base-column membership without hydrating a shard.

        The write path calls this once per first-seen overlay key; a
        "definitely absent" filter answer settles it without touching a
        column file, otherwise the full-key index answers from the
        column arrays (built on first use).  Under rank-space overflow
        it falls back to hydrating the owning shard.
        """
        if self._filter_definitely_absent(fingerprint):
            return False
        rows = self._base_resolve([fingerprint])
        if rows is None:
            return ShardedDictionary.__contains__(self, fingerprint)
        return bool(rows[0] >= 0)

    # -- negative-lookup filters ---------------------------------------------
    def _filter_might(self, hashes: np.ndarray) -> np.ndarray:
        """Boolean per probe hash: could *any* shard's base hold it?

        The union over the per-shard filters — sound because a key
        absent from every shard filter is absent from the base (Bloom
        filters have no false negatives).  Probing all shards instead
        of stable-hash-routing each probe keeps the check one NumPy
        gather per (shard, hash function) with no Python per-key work.
        """
        out = np.zeros(len(hashes), dtype=bool)
        for built in self._filters:
            out |= built.might_contain(hashes)
        return out

    def _filter_definitely_absent(self, fingerprint: Fingerprint) -> bool:
        """True when the filters prove the base lacks this key (exact).

        False when filters are absent, a shard was mutated behind the
        delta-log (the filters describe stale columns), or the key
        *might* be present — callers then take the exact path.
        """
        if self._filters is None or self._base_mutated():
            return False
        metric_id = self._metric_map.get(str(fingerprint.metric))
        if metric_id is None:
            return True
        interval_id = self._interval_map.get(
            (float(fingerprint.interval[0]) + 0.0,
             float(fingerprint.interval[1]) + 0.0)
        )
        if interval_id is None:
            return True
        hashes = key_hashes(
            np.asarray([metric_id], dtype=np.int64),
            np.asarray([interval_id], dtype=np.int64),
            np.asarray([int(fingerprint.node)], dtype=np.int64),
            _value_bits(np.asarray([float(fingerprint.value)])),
        )
        return not bool(self._filter_might(hashes)[0])

    def _shard_start_rows(self) -> np.ndarray:
        """Global row of each shard's first key (shard-major concat)."""
        if self._shard_starts is None:
            counts = np.asarray(
                [f.n_keys for f in self._files], dtype=np.int64
            )
            starts = np.zeros(self.n_shards, dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            self._shard_starts = starts
        return self._shard_starts

    def _shard_hash_index(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Shard ``i``'s ``(sorted hashes, row order)`` table (cached).

        Read from the ``shard-NN.hashidx`` sidecar written at save time
        — no per-row hashing, no sort, no column bytes.  Directories
        written before the sidecar existed fall back to computing the
        table from the shard's (checksummed) columns; either way the
        base is immutable, so the cache never invalidates.
        """
        found = self._hash_index_cache.get(i)
        if found is not None:
            return found
        meta = (
            self._filter_hash_meta[i]
            if self._filter_hash_meta is not None else {}
        )
        name = meta.get("hash_file")
        if name is None:
            columns = self._files[i].columns()
            hashes = key_hashes(
                columns["metric_id"],
                columns["interval_id"],
                columns["node"],
                _value_bits(columns["value"]),
            )
            order = np.argsort(hashes, kind="stable")
            found = (hashes[order], order)
        else:
            path = os.path.join(self._directory, name)
            if not os.path.isfile(path):
                raise FileNotFoundError(
                    f"columnar EFD is incomplete: missing hash-index "
                    f"file {name!r}"
                )
            with open(path, "rb") as fh:
                data = fh.read()
            expected = meta.get("hash_checksum")
            if expected is not None and _checksum_bytes(data) != expected:
                raise ValueError(
                    f"hash-index file {name!r} is corrupt: checksum "
                    f"mismatch (expected {expected})"
                )
            found = unpack_hash_index(data, name)
            if len(found[0]) != self._files[i].n_keys:
                raise ValueError(
                    f"hash-index file {name!r} lists {len(found[0])} keys "
                    f"but the manifest expects {self._files[i].n_keys}"
                )
        self._hash_index_cache[i] = found
        return found

    def _labels_of_base_row(self, shard: int, local: int) -> List[str]:
        """Labels of one base row, reading only its own shard.

        Shares the global-row cache with :meth:`_labels_of_row` but
        hydrates nothing beyond the touched shard — only the faulted
        pages, via ``peek_columns`` (the whole-file checksum still runs
        on the first bulk access).
        """
        row = int(self._shard_start_rows()[shard]) + local
        found = self._row_labels.get(row)
        if found is None:
            columns = self._files[shard].peek_columns()
            lo = columns["label_offsets"][local]
            hi = columns["label_offsets"][local + 1]
            table = self._label_table
            found = [table[j] for j in columns["label_ids"][lo:hi].tolist()]
            self._row_labels[row] = found
        return found

    def _hash_scan(self, shards, metric_id, interval_id, node, bits):
        """``(shard, row-in-shard)`` per probe (``-1`` on miss), exact.

        For a handful of filter-passing probes, a ``searchsorted`` into
        each routed shard's persisted sorted-hash table beats building
        the full rank-packed index (which must read and sort every
        column).  Hash matches are verified against the real columns —
        of that shard only — so the result is exact even across hash
        collisions.
        """
        probe_hashes = key_hashes(metric_id, interval_id, node, bits)
        out_shard = np.full(len(probe_hashes), -1, dtype=np.int64)
        out_row = np.full(len(probe_hashes), -1, dtype=np.int64)
        for s in np.unique(shards).tolist():
            mine = np.flatnonzero(shards == s)
            table, order = self._shard_hash_index(s)
            left = np.searchsorted(table, probe_hashes[mine], side="left")
            right = np.searchsorted(table, probe_hashes[mine], side="right")
            matched = np.flatnonzero(right > left)
            if len(matched) == 0:
                continue
            columns = self._files[s].peek_columns()
            for j in matched.tolist():
                i = int(mine[j])
                want = (int(metric_id[i]), int(interval_id[i]),
                        int(node[i]), int(bits[i]))
                for local in order[left[j]:right[j]].tolist():
                    got = (
                        int(columns["metric_id"][local]),
                        int(columns["interval_id"][local]),
                        int(columns["node"][local]),
                        int(_value_bits(columns["value"][local:local + 1])[0]),
                    )
                    if got == want:
                        out_shard[i] = s
                        out_row[i] = local
                        break
        return out_shard, out_row

    def _filtered_resolve(
        self, fingerprints: Sequence[Fingerprint]
    ) -> Optional[List[List[str]]]:
        """Base label lists via the filters, or ``None`` to defer.

        The cold-path resolver behind :meth:`lookup_many`: probes that
        fail every shard filter are exact misses and cost no column
        access; a small surviving set (``<= _SCAN_MAX`` — real hits
        plus the filters' ~1% false positives) resolves by hash-scan.
        A larger surviving set means the batch is hit-heavy and the
        full rank-packed index is worth building — ``None`` sends the
        caller there.
        """
        metric_id, interval_id, node, bits = self._probe_arrays(fingerprints)
        might = (metric_id >= 0) & (interval_id >= 0)
        if might.any():
            hashes = key_hashes(metric_id, interval_id, node, bits)
            might &= self._filter_might(hashes)
        survivors = np.flatnonzero(might)
        results: List[List[str]] = [[] for _ in range(len(fingerprints))]
        if len(survivors) == 0:
            return results
        if len(survivors) > _SCAN_MAX:
            return None
        # Keys live only in their stable-hash shard, so each survivor
        # probes exactly one shard's hash table — untouched shards stay
        # unread.
        routes = np.asarray(
            [shard_index(fingerprints[i], self.n_shards)
             for i in survivors.tolist()],
            dtype=np.int64,
        )
        found_shard, found_row = self._hash_scan(
            routes, metric_id[survivors], interval_id[survivors],
            node[survivors], bits[survivors],
        )
        for probe, s, local in zip(
            survivors.tolist(), found_shard.tolist(), found_row.tolist()
        ):
            if local >= 0:
                results[probe] = list(self._labels_of_base_row(s, local))
        return results

    def warm_index(self) -> None:
        """Prebuild the session batch path to steady-state shape.

        What serve warm-start calls: builds the full-key rank-packed
        index (and thereby reads — for mmap, prefaults — every column),
        so the first live micro-batch resolves at steady-state latency
        whether it is hit- or miss-heavy.  The filters are already
        resident from load.
        """
        self._ensure_full_index()

    def filter_info(self) -> Optional[dict]:
        """Summary of the negative-lookup filters; None if this store
        predates them (``efd engine info`` renders this)."""
        if self._filters is None:
            return None
        return {
            "bits_per_key": self._filter_bits_per_key,
            "n_shards": len(self._filters),
            "n_keys": sum(f.n_keys for f in self._filters),
            "fp_bound": max((f.fp_bound for f in self._filters),
                            default=0.0),
        }

    def _base_labels_many(
        self, fingerprints: Sequence[Fingerprint]
    ) -> List[List[str]]:
        """Base-column label list per fingerprint ([] on miss)."""
        rows = self._base_resolve(fingerprints)
        if rows is None:
            return [
                ShardedDictionary.lookup(self, fp) for fp in fingerprints
            ]
        return [
            list(self._labels_of_row(int(row))) if row >= 0 else []
            for row in rows.tolist()
        ]

    def lookup_many(
        self, fingerprints: Sequence[Fingerprint]
    ) -> Optional[List[List[str]]]:
        """Label lists for many full keys, ``base ∪ overlay``, vectorized.

        Equivalent to ``[self.lookup(fp) for fp in fingerprints]`` but
        without hydrating any shard: base keys resolve through the
        rank-packed full-key index, then the overlay's few keys patch
        their slots.  On a filtered store that has not yet built that
        index, the per-shard Bloom filters are consulted *first*: an
        unknown-heavy batch resolves at filter speed (plus a hash-scan
        for the few filter-passing probes) without paying the index's
        column read and sort — the cold negative-lookup fast path.
        ``None`` when a shard was mutated behind the delta-log or the
        rank space overflows — callers fall back to per-shard Python
        lookups.
        """
        if self._base_mutated():
            return None
        results: Optional[List[List[str]]] = None
        if self._filters is not None and self._full_index is None:
            results = self._filtered_resolve(fingerprints)
        if results is None:
            rows = self._base_resolve(fingerprints)
            if rows is None:
                return None
            # Fresh list per result, like lookup() — callers may mutate
            # theirs; the row cache must never alias out.
            results = [
                list(self._labels_of_row(int(row))) if row >= 0 else []
                for row in rows.tolist()
            ]
        overlay = self._delta.overlay
        if len(overlay):
            for i, fp in enumerate(fingerprints):
                if fp in overlay:
                    results[i] = _merge_labels(results[i], overlay.lookup(fp))
        return results

    def __repr__(self) -> str:
        hydrated = sum(1 for s in self.shards if s.hydrated)
        return (
            f"ColumnarDictionary(n_shards={self.n_shards}, keys={len(self)}, "
            f"hydrated={hydrated}/{self.n_shards}, at={self._directory!r})"
        )


# ---------------------------------------------------------------------------
# Loading and conversion
# ---------------------------------------------------------------------------

def _read_manifest(directory: str) -> dict:
    manifest_path = os.path.join(directory, _MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(
            f"no sharded EFD at {directory!r}: missing {_MANIFEST_NAME}"
        )
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupt manifest {manifest_path!r}: {exc}"
            ) from exc


def is_columnar(directory: str) -> bool:
    """True when ``directory`` holds a columnar-layout sharded EFD."""
    return _read_manifest(directory).get("layout") == _COLUMNAR_LAYOUT


def load_columnar(
    directory: str,
    validate: bool = True,
    delta_max_pending: int = DEFAULT_MAX_PENDING,
) -> ColumnarDictionary:
    """Open a columnar directory written by :func:`save_columnar`.

    Only the manifest is read here — O(shards) work, no per-key Python
    objects — unless a pending ``delta-log.jsonl`` exists, in which case
    its records replay into the in-memory overlay (column files are
    consulted for membership, still no per-key hydration).  Shard files
    are mapped and checksummed on first probe; with ``validate``
    (default) hydration additionally checks that every decoded key
    hashes to its host shard, catching renamed or swapped ``.mmap`` files
    exactly like the JSON loader does.  Structural manifest damage
    (wrong counts, out-of-range or duplicate key-order entries,
    inconsistent app order) is rejected eagerly.  ``delta_max_pending``
    is the pending-record count at which a write auto-compacts.
    """
    manifest = _read_manifest(directory)
    if manifest.get("layout") != _COLUMNAR_LAYOUT:
        raise ValueError(
            f"sharded EFD at {directory!r} is not columnar "
            f"(layout={manifest.get('layout')!r}); use load_sharded"
        )
    version = manifest.get("format_version")
    if version != _COLUMNAR_FORMAT_VERSION:
        raise ValueError(
            f"unsupported columnar EFD format version {version!r} "
            f"(expected {_COLUMNAR_FORMAT_VERSION})"
        )
    # Stores written before mmap became the only codec carry
    # storage="npz" or, older still, no storage field at all.
    storage = manifest.get("storage", "npz")
    if storage != _STORAGE:
        raise ValueError(
            f"columnar EFD at {directory!r} uses {storage!r} storage, "
            f"which this revision no longer reads (only {_STORAGE!r}); "
            f"expand it to JSON with an earlier revision (`efd engine "
            f"expand`), then `efd engine compact` it here"
        )
    n_shards = int(manifest["n_shards"])
    if n_shards < 1:
        raise ValueError(f"manifest n_shards must be >= 1, got {n_shards}")
    shard_meta = manifest.get("shards", [])
    if len(shard_meta) != n_shards:
        raise ValueError(
            f"manifest lists {len(shard_meta)} shard files for "
            f"n_shards={n_shards}"
        )
    label_order = manifest.get("label_order", [])
    derived_apps: Dict[str, None] = {}
    for label in label_order:
        derived_apps.setdefault(app_of_label(label), None)
    declared_apps = manifest.get("app_order")
    if declared_apps is not None and list(declared_apps) != list(derived_apps):
        raise ValueError(
            "manifest app_order disagrees with label_order — manifest is "
            "corrupt"
        )
    n_keys_per_shard = [int(meta["n_keys"]) for meta in shard_meta]
    key_shard, key_pos = _read_key_order(
        directory, manifest, sum(n_keys_per_shard), n_keys_per_shard, n_shards
    )
    return ColumnarDictionary(
        directory, manifest, key_shard, key_pos, validate=validate,
        delta_max_pending=delta_max_pending,
    )


def _read_key_order(directory, manifest, n_total, n_keys_per_shard, n_shards):
    """Read and structurally validate ``key-order.npz``, vectorized."""
    meta = manifest.get("key_order_file")
    if meta is None:
        raise ValueError(
            "manifest has no key_order_file entry — manifest is corrupt"
        )
    name = meta["file"]
    path = os.path.join(directory, name)
    if not os.path.isfile(path):
        raise FileNotFoundError(
            f"columnar EFD at {directory!r} is incomplete: missing "
            f"key-order file {name!r}"
        )
    with open(path, "rb") as fh:
        data = fh.read()
    expected = meta.get("checksum")
    if expected is not None and _checksum_bytes(data) != expected:
        raise ValueError(
            f"key-order file {name!r} is corrupt: checksum mismatch "
            f"(expected {expected})"
        )
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as payload:
            key_shard = payload["shard"].astype(np.int64, copy=False)
            key_pos = payload["pos"].astype(np.int64, copy=False)
    except KeyError as exc:
        raise ValueError(
            f"key-order file {name!r} is corrupt: missing member {exc}"
        ) from exc
    except Exception as exc:
        raise ValueError(
            f"key-order file {name!r} is corrupt: {exc}"
        ) from exc
    if len(key_shard) != n_total or len(key_pos) != n_total:
        raise ValueError(
            f"key_order lists {len(key_shard)} keys but shard files hold "
            f"{n_total}"
        )
    if n_total:
        if key_shard.min() < 0 or key_shard.max() >= n_shards:
            raise ValueError(
                "key_order entry is out of range — manifest and shard "
                "files disagree"
            )
        counts = np.asarray(n_keys_per_shard, dtype=np.int64)
        limits = counts[key_shard]
        if np.any((key_pos < 0) | (key_pos >= limits)):
            raise ValueError(
                "key_order entry is out of range — manifest and shard "
                "files disagree"
            )
        # Duplicate check without sorting: the range checks above bound
        # every (shard, pos) pair into a dense [0, n_total) slot, so a
        # boolean scatter covering fewer than n_total slots proves a
        # repeat.  (np.unique here cost ~0.4 s on a 1M-key open.)
        starts = np.zeros(n_shards, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        seen = np.zeros(n_total, dtype=bool)
        seen[starts[key_shard] + key_pos] = True
        if int(np.count_nonzero(seen)) != n_total:
            raise ValueError(
                "key_order lists an entry twice — manifest is corrupt"
            )
    return key_shard, key_pos


def _manifest_files(manifest: dict) -> List[str]:
    """Every data file a columnar manifest references (filters included)."""
    names = [meta["file"] for meta in manifest.get("shards", [])]
    key_order = manifest.get("key_order_file")
    if key_order is not None:
        names.append(key_order["file"])
    filters = manifest.get("filters")
    if filters is not None:
        for meta in filters.get("shards", []):
            names.append(meta["file"])
            if meta.get("hash_file") is not None:
                names.append(meta["hash_file"])
    return names


def _remove_superseded_files(directory: str, old_manifest: dict,
                             new_manifest: dict) -> None:
    """Delete data files the old manifest named but the new one does not
    (post-commit cleanup of a compaction or reshard rewrite)."""
    keep = set(_manifest_files(new_manifest))
    for name in _manifest_files(old_manifest):
        if name in keep:
            continue
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            os.remove(path)


def _in_place(directory: str, out: Optional[str]) -> bool:
    return out is None or os.path.abspath(out) == os.path.abspath(directory)


def _dir_bytes(directory: str, names: Sequence[str]) -> int:
    total = 0
    for name in names:
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            total += os.path.getsize(path)
    return total


def compact_shards(directory: str, out: Optional[str] = None) -> dict:
    """Convert a JSON shard directory to the columnar layout — or fold
    a columnar directory's pending delta-log into its base.

    In place by default (the superseded files are removed after the new
    ones are committed); pass ``out`` to write elsewhere and leave the
    source untouched.  Returns a summary dict with key counts and
    on-disk byte sizes.

    On a directory that is *already* columnar, a pending
    ``delta-log.jsonl`` is folded into the base (the summary carries
    ``folded_records``); a clean columnar directory is an error.
    """
    from repro.engine.sharded import load_sharded

    manifest = _read_manifest(directory)
    if manifest.get("layout") == _COLUMNAR_LAYOUT:
        store = load_columnar(directory)
        if not store.delta_pending:
            raise ValueError(
                f"sharded EFD at {directory!r} is already columnar "
                f"(no pending delta-log to fold)"
            )
        if _in_place(directory, out):
            target = directory
            folded = store.compact_delta()
        else:
            target = out
            folded = store.delta_pending
            # Keep the base's filter kind, as the in-place fold does.
            save_columnar(store, out, filters=store._filters is not None)
        new_manifest = _read_manifest(target)
        return {
            "n_keys": len(store),
            "n_shards": store.n_shards,
            "folded_records": folded,
            "columnar_bytes": _dir_bytes(
                target, _manifest_files(new_manifest) + [_MANIFEST_NAME]
            ),
            "directory": target,
        }
    sharded = load_sharded(directory)
    json_files = [meta["file"] for meta in manifest.get("shards", [])]
    json_bytes = _dir_bytes(directory, json_files + [_MANIFEST_NAME])
    target = directory if _in_place(directory, out) else out
    save_columnar(sharded, target)
    new_manifest = _read_manifest(target)
    columnar_bytes = _dir_bytes(
        target, _manifest_files(new_manifest) + [_MANIFEST_NAME]
    )
    if _in_place(directory, out):
        for name in json_files:
            path = os.path.join(directory, name)
            if os.path.isfile(path):
                os.remove(path)
    return {
        "n_keys": len(sharded),
        "n_shards": sharded.n_shards,
        "json_bytes": json_bytes,
        "columnar_bytes": columnar_bytes,
        "directory": target,
    }


def expand_shards(directory: str, out: Optional[str] = None) -> dict:
    """Convert a columnar directory back to the JSON shard layout.

    The exact inverse of :func:`compact_shards`: the rebuilt JSON
    directory loads to a dictionary equal to the original (keys, label
    orders, repetition counts).  In place by default; returns the same
    summary shape as :func:`compact_shards`.

    A directory with an unfolded delta-log segment is refused with
    :class:`~repro.engine.deltalog.PendingDeltaError` — the JSON layout
    has no delta-log, so expanding only the base columns would silently
    drop every append since the last compaction.  Compact first.
    """
    from repro.engine.sharded import save_sharded

    manifest = _read_manifest(directory)
    if manifest.get("layout") == _COLUMNAR_LAYOUT:
        generation = int(manifest.get("delta_generation", 0))
        n_pending = pending_records(directory, generation)
        if n_pending:
            raise PendingDeltaError(directory, n_pending)
    columnar = load_columnar(directory)
    columnar_files = _manifest_files(manifest)
    columnar_bytes = _dir_bytes(directory, columnar_files + [_MANIFEST_NAME])
    target = directory if _in_place(directory, out) else out
    save_sharded(columnar, target)
    new_manifest = _read_manifest(target)
    json_files = [meta["file"] for meta in new_manifest["shards"]]
    json_bytes = _dir_bytes(target, json_files + [_MANIFEST_NAME])
    if _in_place(directory, out):
        for name in columnar_files:
            path = os.path.join(directory, name)
            if os.path.isfile(path):
                os.remove(path)
    return {
        "n_keys": len(columnar),
        "n_shards": columnar.n_shards,
        "json_bytes": json_bytes,
        "columnar_bytes": columnar_bytes,
        "directory": target,
    }
