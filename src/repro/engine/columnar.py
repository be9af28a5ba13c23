"""Columnar EFD backend: mmap shard codec + one key-hash lookup kernel.

The one on-disk shard layout.  Flat JSON
(:mod:`repro.core.serialization`) is diffable but expensive: loading a
million-key dictionary means parsing a million JSON objects and building
a million ``dict`` entries before the first lookup can run.  This module
is the store for that regime, while the flat
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
  copy shared across serving processes.
- **Key-hash tables** — each shard of a store saved with filters (the
  default) carries a ``shard-NN.hashidx`` sidecar: the 64-bit
  :func:`~repro.engine.keyfilter.key_hashes` of its keys, sorted, with
  their row permutation.  Merged into global rows, these sidecars are
  the store's one base lookup structure (a store without sidecars
  computes the same table from its columns).
  Both batch paths — :meth:`ColumnarDictionary.lookup_many` (full
  keys, the session path) and
  :meth:`ColumnarBatchIndex.resolve_probes` (``(node, value)`` probes
  of one metric and interval, the records path) — hash their probes,
  start each at its bucket of the table's in-memory fence (the slot
  where its top hash bits begin, about one key per bucket), walk the
  bucket and verify each candidate against the key columns, so answers
  are exact.  The walk is gathers and compares only: no sort and no
  binary search, numpy calls that release the GIL and, beside a busy
  event loop, wait up to a switch interval to win it back.
  ``(label list, distinct apps)`` entries materialize as Python
  objects only for rows actually probed.
- **Negative-lookup filters** — every shard is also fronted by a small
  Bloom filter over the same hashes (:mod:`repro.engine.keyfilter`,
  ``shard-NN.filter``; both sidecars are checksummed in the manifest).
  Until the merged table is built, a filtered store answers a batch
  whose filter survivors are few from the per-shard sidecars alone, so
  unknown-heavy traffic — the dominant case of the paper's
  unknown-detection evaluation — resolves without reading a column
  file.  Compaction/reshard rebuild both sidecars generation-tagged
  under the same atomic manifest replace.
- **One read path** — :func:`load_columnar`, the only directory
  loader, opens a directory by reading only the manifest; a shard's
  ``.mmap`` is mapped when a read first needs it.  Point reads
  (``lookup``, ``lookup_counts``, ``in``) resolve through the same
  key-hash search as batches — as do the shard server's probe
  buckets — and whole-store walks (``entries``, ``stats``, saves) read
  the columns and the key order directly — no shard is ever rebuilt as
  a Python dict.
- **Writes only through the delta-log** — every ``add`` appends one
  JSONL record to ``delta-log.jsonl`` (:mod:`repro.engine.deltalog`)
  and lands in a small in-memory overlay with a key-hash table of its
  own, whose handles carry the merged ``base ∪ overlay`` entries; the
  base columns never change between compactions, so the base table
  stays hot under a trickle of new learnings.
  :meth:`ColumnarDictionary.compact_delta` folds the log back into the
  ``shard-NN.mmap`` base (auto-triggered past a pending threshold, or
  via ``efd engine compact`` / serve shutdown; :func:`compact_shards`).

Results are element-wise identical to the flat path — enforced together
with the in-memory sharded store by ``tests/test_engine_properties.py``;
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
      shard-00.hashidx  # the same hashes sorted + row permutation:
      ...               # the key-hash table every batch searches
      delta-log.jsonl   # pending mutations since the last compaction
                        # (absent on a clean directory)
"""

from __future__ import annotations

import bisect
import hashlib
import io
import itertools
import json
import os
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.dictionary import DictionaryStats, app_of_label
from repro.core.fingerprint import Fingerprint
from repro.core.serialization import dictionary_to_columns
from repro.engine.backend import KeyOrderedStore
from repro.engine.deltalog import (
    DEFAULT_MAX_PENDING,
    DeltaLog,
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
    as_sharded,
    key_positions,
    shard_index,
)

_MANIFEST_NAME = "manifest.json"
_KEY_ORDER_NAME = "key-order.npz"
_COLUMNAR_LAYOUT = "columnar"
_COLUMNAR_FORMAT_VERSION = 1
#: The one manifest ``storage`` value: raw memory-mapped shard files.
_STORAGE = "mmap"
#: Filter-passing probe count up to which a batch on a filtered store
#: resolves from the per-shard sidecars before the merged key-hash
#: table exists; a larger batch builds the merged table.
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

def save_columnar(store, directory: str, generation: int = 0,
                  storage: str = _STORAGE,
                  filters: bool = True,
                  filter_bits_per_key: int = DEFAULT_BITS_PER_KEY) -> None:
    """Write a dictionary as a columnar directory.

    Accepts any backend; anything but a
    :class:`~repro.engine.sharded.ShardedDictionary` is first merged
    into one of its shard count (:func:`~repro.engine.sharded.as_sharded`).
    String tables are interned globally: the label table is
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

    A :class:`ColumnarDictionary` is saved as its live state (base ∪
    pending delta-log records) — a save can never silently drop
    appends.  Saving such a store onto its *own* directory
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
    if isinstance(store, ColumnarDictionary) and store.delta_pending and (
        os.path.abspath(store._directory) == os.path.abspath(directory)
    ):
        store.compact_delta()
        return
    sharded = as_sharded(store)
    os.makedirs(directory, exist_ok=True)
    label_index: Dict[str, int] = {}
    metric_index: Dict[str, int] = {}
    interval_index: Dict[Tuple[float, float], int] = {}
    for label in sharded.labels():
        label_index.setdefault(label, len(label_index))
    shard_meta = []
    filter_meta = []
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
    # Global key insertion order, as columns of its own: at millions of
    # keys a JSON list here would dominate the manifest and its parse
    # would dominate load time.
    pairs = np.asarray(key_positions(sharded), dtype=np.int64).reshape(-1, 2)
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer, **_narrowed({"shard": pairs[:, 0], "pos": pairs[:, 1]})
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
# Vectorized lookup
# ---------------------------------------------------------------------------

class HashTable(NamedTuple):
    """A key-hash table: the :func:`key_hashes` of some keys in
    ascending order, the row of each key in the table's key columns, and
    optionally the table's bucket fence.

    The fence splits the 64-bit hash space into ``2**k`` buckets by the
    top ``k = len(hashes).bit_length()`` bits — about one key per bucket
    — and holds the ``2**k + 1`` bucket start slots, so bucket ``b``
    spans slots ``fence[b]:fence[b + 1]``.  Tables without one (the
    per-shard sidecars) find a probe's start slot by ``searchsorted``.
    """

    hashes: np.ndarray
    rows: np.ndarray
    fence: Optional[np.ndarray] = None


#: Key columns by name: ``metric_id``, ``interval_id``, ``node``, ``value``.
Columns = Dict[str, np.ndarray]


def _search(table: HashTable, columns: Callable[[], Columns],
            hashes: np.ndarray, keys: Sequence[np.ndarray]) -> np.ndarray:
    """Row of each probe's key in ``columns`` (``-1`` on a miss), exact.

    The one exact-match kernel.  ``hashes`` are the probes'
    :func:`key_hashes` and ``keys`` their ``(metric_id, interval_id,
    node, value_bits)`` columns.  A probe starts at its bucket's first
    slot in the table's fence (on a table without one, at the first
    slot not below its hash, by ``searchsorted``) and walks one slot per
    round while the slot's hash is below its own.  A slot holding its
    hash is a candidate, verified against the key columns, so a hash
    collision never answers a wrong key: a wrong candidate walks on
    through the run of slots holding its hash.  A probe misses once the
    slot passes its hash, which is where its bucket ends at the latest
    (the next bucket's hashes are all larger).  Rounds are vectorized
    over the probes still walking, and buckets hold about one key, so a
    batch takes a handful of rounds.  On a fenced table the walk is
    gathers and elementwise compares only — no sort and no binary
    search, calls that release the GIL at any size and, beside another
    busy thread, can wait a whole switch interval to win it back.
    ``columns`` is called only once some probe's hash is in the table,
    so a batch of misses reads no column bytes.
    """
    sorted_hashes, rows, fence = table
    out = np.full(len(hashes), -1, dtype=np.int64)
    if len(sorted_hashes) == 0:
        return out
    # A probe above the largest hash misses; every other probe finds a
    # slot not below its hash before the table ends, so only a wrong
    # candidate in the last slot could walk off it.  Index arrays stay
    # intp: numpy converts any other index dtype through a path that
    # may release the GIL on tiny arrays.
    last = len(sorted_hashes) - 1
    todo = np.flatnonzero(hashes <= sorted_hashes[last])
    probe = hashes[todo]
    if fence is None:
        pos = np.searchsorted(sorted_hashes, probe)
    else:
        shift = np.uint64(64 - len(sorted_hashes).bit_length())
        pos = fence[(probe >> shift).view(np.int64)].astype(np.int64)
    cols = None
    metric_id, interval_id, node, bits = keys
    while len(todo):
        slot = sorted_hashes[pos]
        walk = slot < probe
        same = np.flatnonzero(slot == probe)
        if len(same):
            if cols is None:
                cols = columns()
            at = pos[same]
            cand = rows[at]
            which = todo[same]
            match = (
                (cols["node"][cand] == node[which])
                & (_value_bits(cols["value"][cand]) == bits[which])
                & (cols["metric_id"][cand] == metric_id[which])
                & (cols["interval_id"][cand] == interval_id[which])
            )
            out[which[match]] = cand[match]
            walk[same] = ~match & (at < last)
        pos += 1
        todo, pos, probe = todo[walk], pos[walk], probe[walk]
    return out


#: Sorted hashes per step of the fence build: its temporaries stay this
#: size, not the table's.
_FENCE_STEP = 1 << 16


def _sorted_table(hashes: np.ndarray, rows: np.ndarray) -> HashTable:
    """The fenced key-hash table of ``hashes`` and their ``rows``.

    The fence is a ``bincount`` of the sorted hashes' top bits and its
    running sum: one O(n) pass, no search.  It counts a step of hashes
    at a time into the fence itself — a step's top bits span a narrow
    range, since the hashes are sorted — so a million-key table builds
    its 4 MB fence without a table-sized temporary.
    """
    order = np.argsort(hashes, kind="stable")
    hashes, rows = hashes[order], rows[order]
    del order
    n = len(hashes)
    k = n.bit_length()
    fence = np.zeros(2 ** k + 1, dtype=np.int32 if n < 2 ** 31 else np.int64)
    shift = np.uint64(64 - k)
    for lo in range(0, n, _FENCE_STEP):
        top = (hashes[lo:lo + _FENCE_STEP] >> shift).view(np.int64)
        first = int(top[0]) + 1
        counts = np.bincount(top - (first - 1))
        fence[first:first + len(counts)] += counts
    np.cumsum(fence, out=fence)
    return HashTable(hashes, rows, fence)


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


def _interval_key(interval) -> Tuple[float, float]:
    return float(interval[0]) + 0.0, float(interval[1]) + 0.0


class ColumnarBatchIndex:
    """The batch engine's ``(node, value)`` table for one (metric,
    interval), backed by the store's key-hash tables.

    Nothing is built per (metric, interval).  :meth:`resolve_probes`
    completes each probe to a full key with constant metric/interval
    ids and resolves the batch through the same search as
    :meth:`ColumnarDictionary.lookup_many`.  Handles are base rows, or
    overlay handles past them; ``(labels, apps)`` entries materialize
    only for keys actually hit, and are cached across batches.
    """

    __slots__ = ("_owner", "_metric", "_interval")

    def __init__(self, owner: "ColumnarDictionary", metric: str,
                 interval: Tuple[float, float]):
        self._owner = owner
        self._metric = str(metric)
        self._interval = _interval_key(interval)

    def resolve_probes(
        self, nodes: np.ndarray, values: np.ndarray
    ) -> ResolvedProbes:
        """Resolve every probe of a batch to its entry handle.

        ``values`` may contain NaN (nodes without a fingerprint) — those
        probes miss.  The per-key Python work runs once per *distinct*
        hit key, never per probe.
        """
        owner = self._owner
        nodes = np.asarray(nodes, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        metric_id = np.full(
            len(values), owner._metric_ids.get(self._metric, -1), np.int64
        )
        metric_id[values != values] = -1
        interval_id = np.full(
            len(values), owner._interval_ids.get(self._interval, -1),
            np.int64,
        )
        handles = owner._handles(
            metric_id, interval_id, nodes, _value_bits(values)
        )
        distinct = set(handles[handles >= 0].tolist())
        entries = {handle: owner._entry(handle) for handle in distinct}
        return ResolvedProbes(handles, entries, nodes, values)


# ---------------------------------------------------------------------------
# The columnar store
# ---------------------------------------------------------------------------

class ColumnarDictionary(KeyOrderedStore):
    """EFD backed by a columnar directory: immutable base columns plus a
    delta-log overlay.

    Satisfies :class:`repro.engine.backend.DictionaryBackend` without
    holding per-key Python objects at load time.  Every read resolves
    keys to *handles* — a base row, or an overlay key's row past the
    base rows — through one kernel, :func:`_search` over the key-hash
    tables (:meth:`_handles`): batches (:meth:`lookup_many`,
    :meth:`batch_index`) and point reads (:meth:`lookup`,
    :meth:`lookup_counts`, ``in``) alike.  Whole-store walks
    (:meth:`entries`, :meth:`stats`, ``len``, :meth:`shard_items`) read
    the columns, the key order and the overlay directly.  The first walk
    maps every key to its handle once; point reads then take a key's
    handle from that map.

    Writes go only through the write-ahead delta-log
    (:mod:`repro.engine.deltalog`): an ``add`` appends one JSONL record
    to the directory's ``delta-log.jsonl`` and folds into a small
    in-memory overlay with a key-hash table of its own.  The base
    ``shard-NN.mmap`` columns — and the key-hash table over them — never
    change, so a store under a sustained write trickle keeps the
    fenced base table, and a restart replays the pending log.
    :meth:`compact_delta` folds the log back into the base files
    (automatic past ``DeltaLog.max_pending`` records; also ``efd engine
    compact`` and serve shutdown).
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
            _interval_key(iv) for iv in manifest["interval_table"]
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
        self._hash_index_cache: Dict[int, HashTable] = {}
        self._shard_starts: Optional[List[int]] = None
        self._n_base = sum(f.n_keys for f in self._files)
        self._label_order = {label: None for label in self._label_table}
        self._app_order: Dict[str, None] = {}
        for label in self._label_table:
            self._app_order.setdefault(app_of_label(label), None)
        self._key_shard = key_shard
        self._key_pos = key_pos
        # Decoded once, by the first walk: each shard's keys, and every
        # key in global order mapped to its live handle.
        self._decoded: Dict[int, List[Fingerprint]] = {}
        self._key_order_cache: Optional[Dict[Fingerprint, int]] = None
        # Probe ids: the manifest's, then one past them for each metric
        # or interval that only delta-log keys carry.
        self._metric_ids = {m: i for i, m in enumerate(self._metric_table)}
        self._interval_ids = {
            iv: i for i, iv in enumerate(self._interval_table)
        }
        self._concat_cache: Optional[Dict[str, np.ndarray]] = None
        self._table: Optional[HashTable] = None
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
        # (the tail of the global key order), each with its shard, plus
        # the per-shard tally (shard_sizes / occupancy gauges).
        self._delta_new_keys: Dict[Fingerprint, int] = {}
        self._new_per_shard: List[int] = [0] * self.n_shards
        # Per overlay key, in first-sight order: its overlay row, its
        # base row (-1 when new) and its merged ``base ∪ overlay``
        # counts and entry, kept current by every write; the overlay's
        # key-hash table is rebuilt only when a key is added.
        self._overlay_rows: Dict[Fingerprint, int] = {}
        self._overlay_base: List[int] = []
        self._overlay_counts: List[Dict[str, int]] = []
        self._overlay_entries: List[Entry] = []
        self._overlay_cache: Optional[Tuple[HashTable, Columns]] = None
        replayed = self._delta.replay()
        if replayed:
            # One vectorized membership pass over the distinct replayed
            # keys — per-record resolves would make reopening a store
            # with a large pending segment O(records) numpy round-trips.
            distinct = list(dict.fromkeys(fp for fp, _, _ in replayed))
            self._intern_ids(distinct)
            rows = self._handles(*self._probe(distinct), with_overlay=False)
            for fp, row in zip(distinct, rows.tolist()):
                self._track_overlay_key(fp, row)
                self._refresh_entry(fp)
        for label in self._delta.overlay.labels():
            self._label_order.setdefault(label, None)
            self._app_order.setdefault(app_of_label(label), None)

    # -- the key order and the base columns ----------------------------------
    @property
    def _key_order(self) -> Dict[Fingerprint, int]:
        """Every key in global insertion order, mapped to its live handle.

        Decoded from the columns at the first walk; writes keep it
        current from then on.
        """
        if self._key_order_cache is None:
            base = [
                fp for i in range(self.n_shards)
                for fp in self._shard_fingerprints(i)
            ]
            starts = np.asarray(self._shard_start_rows(), dtype=np.int64)
            rows = (starts[self._key_shard] + self._key_pos).tolist()
            order = {base[row]: row for row in rows}
            for fp, row in self._overlay_rows.items():
                order[fp] = self._n_base + row
            self._key_order_cache = order
        return self._key_order_cache

    def _shard_fingerprints(self, index: int) -> List[Fingerprint]:
        """The shard's keys in stored order, decoded from its columns once.

        With ``validate``, every key must hash to this shard, which
        catches renamed or swapped ``.mmap`` files.
        """
        found = self._decoded.get(index)
        if found is not None:
            return found
        name = self._files[index].name
        columns = self._files[index].columns()
        metrics = self._metric_table
        intervals = self._interval_table
        try:
            found = [
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
        except IndexError:
            raise ValueError(
                f"shard file {name!r} is corrupt: a metric or interval id "
                f"is outside its manifest table"
            ) from None
        if self._validate:
            for fp in found:
                owner = shard_index(fp, self.n_shards)
                if owner != index:
                    raise ValueError(
                        f"shard file {name!r} holds key {fp} that belongs "
                        f"to shard {owner} — files renamed or swapped?"
                    )
        self._decoded[index] = found
        return found

    def _shard_start_rows(self) -> List[int]:
        """Global row of each shard's first key (shard-major concat)."""
        if self._shard_starts is None:
            self._shard_starts = list(itertools.accumulate(
                (f.n_keys for f in self._files[:-1]), initial=0
            ))
        return self._shard_starts

    def _label_span(self, row: int) -> Tuple[Columns, int, int]:
        """A base row's shard columns and its ``[lo, hi)`` slice of the
        CSR label columns (only the touched pages fault in)."""
        starts = self._shard_start_rows()
        shard = bisect.bisect_right(starts, row) - 1
        columns = self._files[shard].peek_columns()
        local = row - starts[shard]
        lo, hi = columns["label_offsets"][local:local + 2].tolist()
        return columns, lo, hi

    def _entry(self, handle: int) -> Entry:
        """``(labels, apps)`` of a base row or an overlay handle; a base
        row's entry is cached."""
        if handle >= self._n_base:
            return self._overlay_entries[handle - self._n_base]
        found = self._row_entries.get(handle)
        if found is None:
            columns, lo, hi = self._label_span(handle)
            table = self._label_table
            labels = [table[j] for j in columns["label_ids"][lo:hi].tolist()]
            found = (labels, tuple(dict.fromkeys(map(app_of_label, labels))))
            self._row_entries[handle] = found
        return found

    def _counts(self, handle: int) -> Dict[str, int]:
        """Label counts of a base row or an overlay handle (a fresh dict)."""
        if handle >= self._n_base:
            return dict(self._overlay_counts[handle - self._n_base])
        columns, lo, hi = self._label_span(handle)
        table = self._label_table
        return {
            table[j]: count for j, count in zip(
                columns["label_ids"][lo:hi].tolist(),
                columns["label_counts"][lo:hi].tolist(),
            )
        }

    # -- the delta-log write path --------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic mutation counter: base epoch + overlay writes."""
        return self._version_base + self._delta.overlay.version

    @property
    def delta_pending(self) -> int:
        """Unfolded delta-log records (0 on a clean store)."""
        return self._delta.n_records

    def _track_overlay_key(self, fingerprint: Fingerprint,
                           base_row: int) -> None:
        """Track an overlay key's first sighting: its overlay row, and
        the new-key bookkeeping when the base lacks it."""
        row = len(self._overlay_base)
        self._overlay_rows[fingerprint] = row
        self._overlay_base.append(base_row)
        self._overlay_counts.append({})
        self._overlay_entries.append(([], ()))
        self._overlay_cache = None
        if self._key_order_cache is not None:
            self._key_order_cache[fingerprint] = self._n_base + row
        if base_row < 0:
            shard = shard_index(fingerprint, self.n_shards)
            self._delta_new_keys[fingerprint] = shard
            self._new_per_shard[shard] += 1

    def _refresh_entry(self, fingerprint: Fingerprint) -> None:
        """Recompute an overlay key's merged ``base ∪ overlay`` counts
        and entry: base labels first, then the overlay's new ones."""
        row = self._overlay_rows[fingerprint]
        base = self._overlay_base[row]
        counts = self._counts(base) if base >= 0 else {}
        for label, count in self._delta.overlay.lookup_counts(
            fingerprint
        ).items():
            counts[label] = counts.get(label, 0) + count
        labels = list(counts)
        self._overlay_counts[row] = counts
        self._overlay_entries[row] = (
            labels, tuple(dict.fromkeys(map(app_of_label, labels)))
        )

    def _intern_ids(self, fingerprints: Sequence[Fingerprint]) -> None:
        """Give metrics and intervals new to the store probe ids past
        the manifest's, so overlay keys carrying them stay resolvable."""
        for fp in fingerprints:
            self._metric_ids.setdefault(str(fp.metric), len(self._metric_ids))
            self._interval_ids.setdefault(
                _interval_key(fp.interval), len(self._interval_ids)
            )

    def _delta_apply(self, fingerprint: Fingerprint, label: str,
                     count: int) -> None:
        first_sight = fingerprint not in self._overlay_rows
        self._delta.append_add(fingerprint, label, count)
        if first_sight:
            self._intern_ids([fingerprint])
            self._track_overlay_key(fingerprint, self._handle_of(fingerprint))
        self._refresh_entry(fingerprint)
        self._label_order.setdefault(label, None)
        self._app_order.setdefault(app_of_label(label), None)
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

        Rewrites the directory from the live state (:meth:`to_sharded`)
        with the delta generation advanced, removes the log segment and
        the superseded base files, and re-opens the store on the fresh
        base (version stays monotonic, so engine caches rebuild rather
        than alias).  Crash-safe at every step: the new base is written
        under generation-suffixed names and committed by one atomic
        manifest replace, so before the commit the old base + replaying
        log are intact, and after it an orphaned segment's stale
        generation marks it already-folded (old base files linger as
        harmless orphans at worst).  Returns the records folded.
        """
        if not self._delta.pending:
            return 0
        folded = self._delta.n_records
        merged = self.to_sharded()
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
        self._version_base = version_base

    def close(self) -> None:
        """Close the delta-log segment; the next write reopens it."""
        self._delta.close()

    def __enter__(self) -> "ColumnarDictionary":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- point reads -----------------------------------------------------------
    def _handle_of(self, fingerprint: Fingerprint) -> int:
        """Live handle of one key, ``-1`` when absent.

        From the decoded key order once a walk built it; otherwise an
        overlay key's row, or the batch kernel on a one-key probe.
        """
        order = self._key_order_cache
        if order is not None:
            return order.get(fingerprint, -1)
        row = self._overlay_rows.get(fingerprint)
        if row is not None:
            return self._n_base + row
        keys = self._probe([fingerprint])
        return int(self._handles(*keys, with_overlay=False)[0])

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return self._handle_of(fingerprint) >= 0

    def lookup(self, fingerprint: Optional[Fingerprint]) -> List[str]:
        """Labels for one key, ``base ∪ overlay``, first-seen order."""
        if fingerprint is None:
            return []
        handle = self._handle_of(fingerprint)
        return list(self._entry(handle)[0]) if handle >= 0 else []

    def lookup_counts(self, fingerprint: Optional[Fingerprint]) -> Dict[str, int]:
        """Repetition counts for one key, ``base ∪ overlay`` (summed)."""
        if fingerprint is None:
            return {}
        handle = self._handle_of(fingerprint)
        return self._counts(handle) if handle >= 0 else {}

    # -- whole-store walks -----------------------------------------------------
    def __len__(self) -> int:
        return self._n_base + len(self._delta_new_keys)

    def shard_sizes(self) -> List[int]:
        """Key count per shard, overlay keys included."""
        return [
            f.n_keys + extra
            for f, extra in zip(self._files, self._new_per_shard)
        ]

    def entries(self) -> Iterator[Tuple[Fingerprint, List[str]]]:
        """All (key, labels) pairs in global insertion order."""
        for fp, handle in self._key_order.items():
            yield fp, list(self._counts(handle))

    def metrics(self) -> List[str]:
        return self._first_seen(0, list(self._metric_ids))

    def intervals(self) -> List[Tuple[float, float]]:
        return self._first_seen(1, list(self._interval_ids))

    def _first_seen(self, k: int, table: list) -> list:
        """``table``'s entries in global first-seen key order, from key
        id column ``k`` (0 metric, 1 interval) of the base rows in key
        order, then of the new overlay keys: no key is decoded."""
        rows = (np.asarray(self._shard_start_rows(), dtype=np.int64)
                [self._key_shard] + self._key_pos)
        ids = np.concatenate([
            self._concat()[("metric_id", "interval_id")[k]][rows],
            self._probe(list(self._delta_new_keys))[k],
        ])
        _, first = np.unique(ids, return_index=True)
        return [table[i] for i in ids[np.sort(first)].tolist()]

    def shard_items(self, shard: int) -> List[Tuple[Fingerprint, Dict[str, int]]]:
        """One shard's keys with their live label counts: its stored
        keys in order, then its new overlay keys.  Read from the shard's
        columns and the overlay, so no key is routed or searched."""
        columns = self._files[shard].columns()
        offsets = columns["label_offsets"].tolist()
        ids = columns["label_ids"].tolist()
        counts = columns["label_counts"].tolist()
        table = self._label_table
        rows = self._overlay_rows
        items = []
        for pos, fp in enumerate(self._shard_fingerprints(shard)):
            row = rows.get(fp)
            if row is None:
                lo, hi = offsets[pos], offsets[pos + 1]
                items.append((fp, {
                    table[j]: c for j, c in zip(ids[lo:hi], counts[lo:hi])
                }))
            else:
                items.append((fp, dict(self._overlay_counts[row])))
        items += [
            (fp, dict(self._overlay_counts[rows[fp]]))
            for fp, owner in self._delta_new_keys.items() if owner == shard
        ]
        return items

    def to_sharded(self) -> ShardedDictionary:
        """The live state as a fresh :class:`ShardedDictionary` of the
        same shard count: what merging this store into one builds, but
        every key goes straight to the shard that holds it — nothing is
        routed or searched.  A shard's labels are ordered as a merge
        replays them.
        """
        out = ShardedDictionary(self.n_shards)
        for label in self._label_order:
            out.register_label(label)
        for i, shard in enumerate(out.shards):
            for fp, counts in self.shard_items(i):
                for label, count in counts.items():
                    shard.add_repeated(fp, label, count)
        out._key_order.update(dict.fromkeys(self._key_order))
        return out

    def stats(self) -> DictionaryStats:
        """Whole-store statistics, vectorized over the label columns;
        an overlay key counts with its merged entry, not its base row."""
        apps: Dict[str, int] = {}
        label_app = np.asarray(
            [apps.setdefault(app_of_label(l), len(apps))
             for l in self._label_table],
            dtype=np.int64,
        )
        widths, collide, used = [], [], set()
        n_insertions = self._delta.overlay.stats().n_insertions
        for f in self._files:
            columns = f.columns()
            offsets, ids = columns["label_offsets"], columns["label_ids"]
            n_insertions += sum(columns["label_counts"].tolist())
            used.update(np.unique(ids).tolist())
            if len(offsets) > 1:
                key_apps = label_app[ids]
                starts = offsets[:-1]
                widths.append(np.diff(offsets))
                collide.append(
                    np.minimum.reduceat(key_apps, starts)
                    != np.maximum.reduceat(key_apps, starts)
                )
        keep = np.ones(self._n_base, dtype=bool)
        keep[[row for row in self._overlay_base if row >= 0]] = False
        width = np.concatenate(widths)[keep] if widths else keep[:0]
        n_colliding = int(np.count_nonzero(
            np.concatenate(collide)[keep])) if collide else 0
        max_labels = int(width.max()) if len(width) else 0
        names = {self._label_table[j] for j in used}
        for labels, key_apps in self._overlay_entries:
            names.update(labels)
            max_labels = max(max_labels, len(labels))
            n_colliding += len(key_apps) > 1
        return DictionaryStats(
            n_keys=len(self),
            n_insertions=n_insertions,
            n_labels=len(names),
            n_colliding_keys=n_colliding,
            max_labels_per_key=max_labels,
        )

    # -- vectorized lookup ---------------------------------------------------
    def _concat(self) -> Dict[str, np.ndarray]:
        """All shards' key columns concatenated (global row = shard-major).

        The bulk read: every shard's checksum is verified here."""
        if self._concat_cache is None:
            parts = [f.columns() for f in self._files]
            if len(parts) == 1:
                # Zero-copy: with one shard the global rows *are* the
                # shard's rows, so the search reads the mapped arrays.
                self._concat_cache = parts[0]
            else:
                self._concat_cache = {
                    name: np.concatenate([p[name] for p in parts])
                    for name in ("metric_id", "interval_id", "node", "value")
                }
        return self._concat_cache

    def batch_index(
        self, metric: str, interval: Tuple[float, float]
    ) -> ColumnarBatchIndex:
        """Vectorized ``(node, value)`` index for one (metric, interval).

        Answers ``base ∪ overlay`` through the store's key-hash tables;
        building it costs nothing.
        """
        return ColumnarBatchIndex(self, metric, interval)

    def _probe(
        self, fingerprints: Sequence[Fingerprint]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fingerprints as ``(metric_id, interval_id, node, value_bits)``
        key columns; a metric/interval the store never saw maps to id
        ``-1`` (a guaranteed miss)."""
        cols = probe_columns(fingerprints)
        metric_id, interval_id = cols.ids(self._metric_ids, self._interval_ids)
        return metric_id, interval_id, cols.node, cols.value_bits

    def _handles(self, metric_id: np.ndarray, interval_id: np.ndarray,
                 node: np.ndarray, bits: np.ndarray,
                 with_overlay: bool = True) -> np.ndarray:
        """Handle per probe key: its base row, an overlay handle past
        the base rows (overlay keys override base rows), or ``-1``.

        Before the merged table exists, a filtered store answers from
        the per-shard sidecars when few probes pass the filters.
        """
        handles = np.full(len(node), -1, dtype=np.int64)
        usable = np.flatnonzero((metric_id >= 0) & (interval_id >= 0))
        if len(usable) == 0:
            return handles
        keys = [k[usable] for k in (metric_id, interval_id, node, bits)]
        hashes = key_hashes(*keys)
        rows = None
        if self._table is None and self._filters is not None:
            rows = self._cold_rows(hashes, keys)
        if rows is None:
            rows = _search(self._hash_table(), self._concat, hashes, keys)
        overlay = self._overlay() if with_overlay else None
        if overlay is not None:
            table, columns = overlay
            found = _search(table, lambda: columns, hashes, keys)
            hit = found >= 0
            rows[hit] = found[hit] + self._n_base
        handles[usable] = rows
        return handles

    def _cold_rows(self, hashes: np.ndarray,
                   keys: Sequence[np.ndarray]) -> Optional[np.ndarray]:
        """Base row per probe from the per-shard sidecar tables, or
        ``None`` when more than ``_SCAN_MAX`` probes pass the filters.

        A key lives only in a shard whose Bloom filter passes it, so
        each shard's table is searched for exactly the probes its filter
        passes: probes that pass no filter cost no file access, and a
        genuine miss that passes one reads that shard's sidecar but no
        column bytes.
        """
        passed = [f.might_contain(hashes) for f in self._filters]
        if np.count_nonzero(np.logical_or.reduce(passed)) > _SCAN_MAX:
            return None
        rows = np.full(len(hashes), -1, dtype=np.int64)
        starts = self._shard_start_rows()
        for shard, mine in enumerate(passed):
            mine = np.flatnonzero(mine)
            if len(mine) == 0:
                continue
            found = _search(
                self._shard_hash_index(shard),
                self._files[shard].peek_columns,
                hashes[mine], [k[mine] for k in keys],
            )
            hit = found >= 0
            rows[mine[hit]] = found[hit] + starts[shard]
        return rows

    def _hash_table(self) -> HashTable:
        """The merged key-hash table over every base row (built once).

        The per-shard sidecar tables, shifted to global rows and merged;
        they are dropped afterwards, since nothing reads them once the
        merged table exists.
        """
        if self._table is None:
            parts = [self._shard_hash_index(i) for i in range(self.n_shards)]
            self._table = _sorted_table(
                np.concatenate([part.hashes for part in parts]),
                np.concatenate([
                    part.rows.astype(np.int64) + start for part, start
                    in zip(parts, self._shard_start_rows())
                ]),
            )
            self._hash_index_cache.clear()
        return self._table

    def _overlay(self) -> Optional[Tuple[HashTable, Columns]]:
        """The overlay's key-hash table and key columns, rows in
        first-sight order (an overlay key's handle is its row past the
        base rows); ``None`` while the overlay holds no key."""
        if self._overlay_cache is None and self._overlay_rows:
            keys = self._probe(list(self._overlay_rows))
            metric_id, interval_id, node, bits = keys
            self._overlay_cache = (
                _sorted_table(
                    key_hashes(*keys), np.arange(len(node), dtype=np.int64)
                ),
                {"metric_id": metric_id, "interval_id": interval_id,
                 "node": node, "value": bits.view(np.float64)},
            )
        return self._overlay_cache

    def _shard_hash_index(self, i: int) -> HashTable:
        """Shard ``i``'s ``(sorted hashes, row order)`` table (cached),
        without a fence.

        Read from the ``shard-NN.hashidx`` sidecar written at save time
        — no per-row hashing, no sort, no column bytes.  Stores without
        sidecars compute the same table from the shard's (checksummed)
        columns.  Cached until the merged table supersedes it.
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
            found = HashTable(hashes[order], order)
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
            found = HashTable(*unpack_hash_index(data, name))
            if len(found.hashes) != self._files[i].n_keys:
                raise ValueError(
                    f"hash-index file {name!r} lists {len(found.hashes)} keys "
                    f"but the manifest expects {self._files[i].n_keys}"
                )
        self._hash_index_cache[i] = found
        return found

    def warm_index(self) -> None:
        """Prebuild the batch paths to steady-state shape.

        What ``BatchRecognizer.warm`` and serve warm-start call: builds
        the merged key-hash table and reads every key column (verifying
        each shard's checksum, so damage surfaces here by name, and
        prefaulting its pages), so the first batch — sessions or
        records, hit- or miss-heavy — resolves at steady-state latency.
        """
        self._hash_table()
        self._concat()

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

    def lookup_many(
        self, fingerprints: Sequence[Fingerprint]
    ) -> List[List[str]]:
        """Label lists for many full keys, ``base ∪ overlay``, vectorized.

        Equivalent to ``[self.lookup(fp) for fp in fingerprints]``: the
        batch resolves through the key-hash tables (see
        :meth:`_handles`), and overlay keys answer with their merged
        labels.
        """
        handles = self._handles(*self._probe(fingerprints))
        entry = self._entry
        # Fresh list per result, like lookup() — callers may mutate
        # theirs; the entry cache must never alias out.
        return [
            list(entry(handle)[0]) if handle >= 0 else []
            for handle in handles.tolist()
        ]

    def __repr__(self) -> str:
        return (
            f"ColumnarDictionary(n_shards={self.n_shards}, keys={len(self)}, "
            f"at={self._directory!r})"
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
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupt manifest {manifest_path!r}: {exc}"
            ) from exc
    if not isinstance(manifest, dict):
        raise ValueError(
            f"corrupt manifest {manifest_path!r}: not a JSON object"
        )
    return manifest


def load_columnar(
    directory: str,
    validate: bool = True,
    delta_max_pending: int = DEFAULT_MAX_PENDING,
) -> ColumnarDictionary:
    """Open a columnar directory written by :func:`save_columnar`.

    Only the manifest is read here — O(shards) work, no per-key Python
    objects — unless a pending ``delta-log.jsonl`` exists, in which case
    its records replay into the in-memory overlay (one batch search of
    the key-hash tables, no per-key Python state for base keys).  Shard
    files are mapped on first read and checksummed on first bulk read;
    with ``validate`` (default) decoding a shard's keys additionally
    checks that every key hashes to its host shard, catching renamed or
    swapped ``.mmap`` files.  Structural manifest damage
    (wrong counts, out-of-range or duplicate key-order entries,
    inconsistent app order) is rejected eagerly, and so is a directory
    in a layout this revision no longer reads (sharded-JSON, npz
    storage), by name.  ``delta_max_pending`` is the pending-record
    count at which a write auto-compacts.
    """
    manifest = _read_manifest(directory)
    layout = manifest.get("layout")
    if layout is None:
        # The retired sharded-JSON layout: manifest.json + one flat-JSON
        # file per shard, and no layout field.
        raise ValueError(
            f"sharded EFD at {directory!r} uses the sharded-JSON layout "
            f"(JSON shard files), which this revision no longer reads; "
            f"convert it to columnar with `efd engine compact` at an "
            f"earlier revision (up to 37f0edd), then open it here"
        )
    if layout != _COLUMNAR_LAYOUT:
        raise ValueError(
            f"sharded EFD at {directory!r} has unknown layout {layout!r} "
            f"(expected {_COLUMNAR_LAYOUT!r})"
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
            f"convert it with `efd engine compact --layout mmap` at an "
            f"earlier revision (before 5dda34c), then open it here"
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
    """Fold a columnar directory's pending delta-log into its base.

    In place by default; pass ``out`` to write the folded store
    elsewhere and leave the source, log included, untouched.  Returns a
    summary dict with the key and folded-record counts and the on-disk
    byte size.  A directory with nothing pending is an error.
    """
    store = load_columnar(directory)
    if not store.delta_pending:
        raise ValueError(
            f"columnar EFD at {directory!r} is already compacted "
            f"(no pending delta-log to fold)"
        )
    if _in_place(directory, out):
        target = directory
        folded = store.compact_delta()
    else:
        target = out
        folded = store.delta_pending
        # Keep the base's filter kind, as the in-place fold does.
        save_columnar(store.to_sharded(), out,
                      filters=store._filters is not None)
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
