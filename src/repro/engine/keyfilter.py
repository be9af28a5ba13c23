"""Per-shard Bloom filters: resolve negative lookups without column reads.

The paper's unknown-detection evaluation makes *misses* the dominant
case on open traffic — most probed fingerprints belong to applications
that were never learned.  Yet the columnar store historically paid its
full cost on exactly that traffic: the first batch read every shard's
columns just to discover that nothing matches.  This module is the negative-lookup fast path:

- :func:`key_hashes` maps full fingerprint keys — ``(metric_id,
  interval_id, node, value_bits)`` component arrays — to one
  ``uint64`` hash per key, fully vectorized (a splitmix64-style
  finalizer folded over the components).
  :func:`probe_columns` builds those components from a batch of
  fingerprints in C-level passes; the columnar store and the remote
  client both probe through it.
- :class:`KeyFilter` is a classic Bloom filter over those hashes:
  ``bits_per_key`` bits per key (default 10 ≈ 1% false positives),
  ``k ≈ bits_per_key·ln 2`` probes per query via double hashing, all
  NumPy gathers — a 1k-probe batch tests in microseconds.
- One filter is persisted **per shard** beside the shard's column file
  (``shard-NN.filter``, generation-suffixed like the shards, checksummed
  in the manifest) and rebuilt whenever compaction or resharding
  rewrites the base, under the same atomic manifest replace.
- :func:`pack_hash_index` / :func:`unpack_hash_index` persist the same
  per-shard hashes **sorted**, with the row permutation, as a second
  sidecar (``shard-NN.hashidx``): the columnar store's exact-match
  table.  Merged over shards (and given an in-memory bucket fence, so
  a probe starts at its bucket with no binary search) it is the store's
  one base lookup structure; before the merge, a probe that survives a
  shard's filter resolves by ``searchsorted`` into that shard's table
  — read once for a few probes, so it gets no fence — the
  hot-metadata / cold-bulk-bytes split — so a cold unknown-heavy batch
  never hashes or sorts the base and touches column bytes only for
  genuine hits.

Soundness: a Bloom filter has **no false negatives** — every inserted
key passes ``might_contain`` forever — so a "definitely absent" answer
is exact and the store can return a miss without touching any column
file.  False positives merely fall through to the exact table.  Keys
added after the last compaction live in the delta-log overlay and are
checked *before* the filter, so learn-while-serving never yields a
false negative either (``tests/test_engine_properties.py`` pins both
properties).
"""

from __future__ import annotations

import struct
from itertools import repeat
from operator import attrgetter
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

#: Bits per key of a freshly built filter (~1% false-positive rate).
DEFAULT_BITS_PER_KEY = 10

FILTER_MAGIC = b"EFDBLOOM"
_FILTER_VERSION = 1
#: magic + u32 version + u32 n_hashes + u64 n_keys + u64 seed + u64 n_words
_HEADER = struct.Struct("<8sIIQQQ")

HASH_INDEX_MAGIC = b"EFDHIDX1"
_HASH_INDEX_VERSION = 1
#: magic + u32 version + u32 reserved + u64 n_keys
_HIDX_HEADER = struct.Struct("<8sIIQ")

_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)


def filter_filename(index: int, generation: int = 0) -> str:
    """Sidecar filter name for shard ``index`` (generation-suffixed).

    Mirrors the shard-file naming contract: a compaction or reshard
    writes the rebuilt filters under *new* names and commits them with
    the same atomic manifest replace as the shards they front.
    """
    if generation:
        return f"shard-{index:02d}.g{generation}.filter"
    return f"shard-{index:02d}.filter"


def hash_index_filename(index: int, generation: int = 0) -> str:
    """Hash-index sidecar name for shard ``index`` (generation-suffixed)."""
    if generation:
        return f"shard-{index:02d}.g{generation}.hashidx"
    return f"shard-{index:02d}.hashidx"


def pack_hash_index(hashes: np.ndarray) -> bytes:
    """Serialize a shard's per-row key hashes as a sorted hash index.

    The exact-membership companion to the Bloom filter: the shard's
    full-key hashes sorted once *at save time*, followed by the u32 row
    permutation that maps each sorted slot back to its column row.  A
    cold probe that survives the Bloom filter then resolves by
    ``searchsorted`` into this table — no per-row hashing, no sort, and
    (for a genuine miss) no column bytes at all — instead of hashing
    and sorting the whole base on first scan.  The store's merged table
    concatenates these and builds its bucket fence in memory; the fence
    is never written, so the file format does not carry it.
    """
    hashes = np.asarray(hashes, dtype=np.uint64)
    n = len(hashes)
    if n >= 2 ** 32:
        raise ValueError(
            f"hash index supports at most 2**32-1 keys per shard, got {n}"
        )
    order = np.argsort(hashes, kind="stable")
    header = _HIDX_HEADER.pack(HASH_INDEX_MAGIC, _HASH_INDEX_VERSION, 0, n)
    return (
        header
        + hashes[order].astype("<u8", copy=False).tobytes()
        + order.astype("<u4").tobytes()
    )


def unpack_hash_index(data: bytes, name: str = "hash index"):
    """Decode ``(sorted hashes, row order)``; damage raises by name."""
    if len(data) < _HIDX_HEADER.size:
        raise ValueError(
            f"hash-index file {name!r} is corrupt: truncated header "
            f"({len(data)} bytes)"
        )
    magic, version, _reserved, n_keys = _HIDX_HEADER.unpack(
        data[:_HIDX_HEADER.size]
    )
    if magic != HASH_INDEX_MAGIC:
        raise ValueError(
            f"hash-index file {name!r} is corrupt: bad magic {magic!r}"
        )
    if version != _HASH_INDEX_VERSION:
        raise ValueError(
            f"hash-index file {name!r} has unsupported version {version} "
            f"(expected {_HASH_INDEX_VERSION})"
        )
    expected = _HIDX_HEADER.size + n_keys * 12
    if len(data) != expected:
        raise ValueError(
            f"hash-index file {name!r} is corrupt: {len(data)} bytes but "
            f"the header implies {expected} (truncated?)"
        )
    sorted_hashes = np.frombuffer(
        data, dtype="<u8", offset=_HIDX_HEADER.size, count=n_keys
    ).astype(np.uint64, copy=False)
    order = np.frombuffer(
        data, dtype="<u4", offset=_HIDX_HEADER.size + n_keys * 8,
        count=n_keys,
    ).astype(np.uint32, copy=False)
    return sorted_hashes, order


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 (wrapping arithmetic)."""
    x = (x + _C1).astype(np.uint64, copy=False)
    x = (x ^ (x >> np.uint64(30))) * _C2
    x = (x ^ (x >> np.uint64(27))) * _C3
    return x ^ (x >> np.uint64(31))


def key_hashes(
    metric_id: np.ndarray,
    interval_id: np.ndarray,
    node: np.ndarray,
    value_bits: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """One uint64 hash per full fingerprint key, vectorized.

    Components are int64 arrays (``value_bits`` from
    :func:`repro.engine.columnar._value_bits`, ids from the manifest's
    interned tables), so a probe hashes identically to the stored key
    it targets.  Components are folded sequentially through the
    splitmix64 finalizer — one mix per component, no Python per-key
    work.
    """
    h = np.full(len(np.asarray(node)), np.uint64(seed), dtype=np.uint64)
    for component in (metric_id, interval_id, node, value_bits):
        comp = np.asarray(component, dtype=np.int64).view(np.uint64)
        h = _mix64(h ^ comp)
    return h


_METRIC = attrgetter("metric")
_INTERVAL = attrgetter("interval")
_NODE = attrgetter("node")
_VALUE = attrgetter("value")


class ProbeColumns(NamedTuple):
    """A probe batch as key columns against batch-local string tables.

    ``metric_idx``/``interval_idx`` index ``metrics``/``intervals`` (the
    batch's distinct strings in first-seen order, intervals
    ``+0.0``-normalized); ``value_bits`` are the ``+0.0``-normalized
    float64 bit patterns.  Two rows are equal exactly when their
    fingerprints are equal.  :meth:`ids` translates the local indexes
    through any store's or peer's interned tables."""

    metrics: List[str]
    intervals: List[Tuple[float, float]]
    metric_idx: np.ndarray
    interval_idx: np.ndarray
    node: np.ndarray
    value_bits: np.ndarray

    def take(self, rows: np.ndarray) -> "ProbeColumns":
        """The given rows, against the same local tables."""
        return self._replace(
            metric_idx=self.metric_idx[rows],
            interval_idx=self.interval_idx[rows],
            node=self.node[rows],
            value_bits=self.value_bits[rows],
        )

    def ids(
        self,
        metric_ids: Mapping[str, int],
        interval_ids: Mapping[Tuple[float, float], int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(metric_id, interval_id)`` columns in another id space; a
        string that space has never seen maps to ``-1``."""
        m = np.fromiter(
            map(metric_ids.get, self.metrics, repeat(-1)),
            np.int64, len(self.metrics),
        )
        i = np.fromiter(
            map(interval_ids.get, self.intervals, repeat(-1)),
            np.int64, len(self.intervals),
        )
        return m[self.metric_idx], i[self.interval_idx]


def _local_ids(values: list) -> Tuple[list, np.ndarray]:
    """Distinct ``values`` in first-seen order, and each value's index
    into them (a constant fill when there is only one)."""
    if not values or values.count(values[0]) == len(values):
        return values[:1], np.zeros(len(values), np.int64)
    table: Dict[object, int] = dict.fromkeys(values)
    for k, key in enumerate(table):
        table[key] = k
    return list(table), np.fromiter(
        map(table.__getitem__, values), np.int64, len(values)
    )


def probe_columns(fingerprints: Sequence) -> ProbeColumns:
    """Build a batch's :class:`ProbeColumns` in C-level passes: one
    ``attrgetter`` map per component, no per-key Python."""
    n = len(fingerprints)
    metrics, metric_idx = _local_ids(list(map(_METRIC, fingerprints)))
    intervals, interval_idx = _local_ids(list(map(_INTERVAL, fingerprints)))
    value = np.fromiter(map(_VALUE, fingerprints), np.float64, n) + 0.0
    return ProbeColumns(
        metrics=[str(m) for m in metrics],
        intervals=[(float(a) + 0.0, float(b) + 0.0) for a, b in intervals],
        metric_idx=metric_idx,
        interval_idx=interval_idx,
        node=np.fromiter(map(_NODE, fingerprints), np.int64, n),
        value_bits=value.view(np.int64),
    )


class KeyFilter:
    """Bloom filter over uint64 key hashes, NumPy end to end.

    ``m = bits_per_key · n`` bits (rounded up to whole words, min 64)
    and ``k = round(bits_per_key · ln 2)`` probes per key, derived by
    double hashing: probe ``j`` tests bit ``(h + j·h2) mod m`` where
    ``h2 = mix(h) | 1``.  Empty filters answer "absent" for everything.
    """

    __slots__ = ("words", "n_bits", "n_hashes", "n_keys", "seed")

    def __init__(self, words: np.ndarray, n_hashes: int, n_keys: int,
                 seed: int = 0):
        self.words = np.ascontiguousarray(words, dtype=np.uint64)
        self.n_bits = len(self.words) * 64
        self.n_hashes = int(n_hashes)
        self.n_keys = int(n_keys)
        self.seed = int(seed)

    @classmethod
    def build(cls, hashes: np.ndarray,
              bits_per_key: int = DEFAULT_BITS_PER_KEY,
              seed: int = 0) -> "KeyFilter":
        """Build a filter sized for ``len(hashes)`` keys."""
        hashes = np.asarray(hashes, dtype=np.uint64)
        n = len(hashes)
        bits_per_key = max(1, int(bits_per_key))
        n_words = max(1, -(-(n * bits_per_key) // 64))
        n_hashes = min(16, max(1, round(bits_per_key * 0.6931)))
        words = np.zeros(n_words, dtype=np.uint64)
        if n:
            m = np.uint64(n_words * 64)
            h2 = _mix64(hashes) | _ONE
            for j in range(n_hashes):
                idx = (hashes + np.uint64(j) * h2) % m
                np.bitwise_or.at(
                    words,
                    (idx >> np.uint64(6)).astype(np.int64),
                    _ONE << (idx & np.uint64(63)),
                )
        return cls(words, n_hashes, n, seed=seed)

    def insert(self, hashes: np.ndarray) -> None:
        """Add keys to a live filter (the remote client's mirror keeps
        tracking writes made through it without a refetch).

        Inserting can only set bits, so the no-false-negative guarantee
        is preserved and existing "might contain" answers never flip to
        "absent".  The words array is copied on first insert when it is
        a read-only ``from_bytes`` view.
        """
        hashes = np.asarray(hashes, dtype=np.uint64)
        if not len(hashes):
            return
        if not self.words.flags.writeable:
            self.words = self.words.copy()
        m = np.uint64(self.n_bits)
        h2 = _mix64(hashes) | _ONE
        for j in range(self.n_hashes):
            idx = (hashes + np.uint64(j) * h2) % m
            np.bitwise_or.at(
                self.words,
                (idx >> np.uint64(6)).astype(np.int64),
                _ONE << (idx & np.uint64(63)),
            )
        self.n_keys += len(hashes)

    def might_contain(self, hashes: np.ndarray) -> np.ndarray:
        """Boolean per hash: False is exact (never a false negative)."""
        hashes = np.asarray(hashes, dtype=np.uint64)
        if self.n_keys == 0:
            return np.zeros(len(hashes), dtype=bool)
        out = np.ones(len(hashes), dtype=bool)
        m = np.uint64(self.n_bits)
        h2 = _mix64(hashes) | _ONE
        for j in range(self.n_hashes):
            idx = (hashes + np.uint64(j) * h2) % m
            bit = (
                self.words[(idx >> np.uint64(6)).astype(np.int64)]
                >> (idx & np.uint64(63))
            ) & _ONE
            out &= bit != 0
        return out

    @property
    def fp_bound(self) -> float:
        """Expected false-positive probability at the built occupancy."""
        if self.n_keys == 0 or self.n_bits == 0:
            return 0.0
        return float(
            (1.0 - np.exp(-self.n_hashes * self.n_keys / self.n_bits))
            ** self.n_hashes
        )

    # -- serialization -------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Header + raw little-endian filter words."""
        header = _HEADER.pack(
            FILTER_MAGIC, _FILTER_VERSION, self.n_hashes,
            self.n_keys, self.seed, len(self.words),
        )
        return header + self.words.astype("<u8", copy=False).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, name: str = "filter") -> "KeyFilter":
        """Decode a persisted filter; structural damage raises by name."""
        if len(data) < _HEADER.size:
            raise ValueError(
                f"filter file {name!r} is corrupt: truncated header "
                f"({len(data)} bytes)"
            )
        magic, version, n_hashes, n_keys, seed, n_words = _HEADER.unpack(
            data[:_HEADER.size]
        )
        if magic != FILTER_MAGIC:
            raise ValueError(
                f"filter file {name!r} is corrupt: bad magic {magic!r}"
            )
        if version != _FILTER_VERSION:
            raise ValueError(
                f"filter file {name!r} has unsupported version {version} "
                f"(expected {_FILTER_VERSION})"
            )
        expected = _HEADER.size + n_words * 8
        if len(data) != expected:
            raise ValueError(
                f"filter file {name!r} is corrupt: {len(data)} bytes but "
                f"the header implies {expected} (truncated?)"
            )
        words = np.frombuffer(
            data, dtype="<u8", offset=_HEADER.size
        ).astype(np.uint64, copy=False)
        return cls(words, n_hashes, n_keys, seed=seed)

    def __repr__(self) -> str:
        return (
            f"KeyFilter(n_keys={self.n_keys}, n_bits={self.n_bits}, "
            f"n_hashes={self.n_hashes}, fp_bound={self.fp_bound:.4f})"
        )
