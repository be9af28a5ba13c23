"""Hash-sharded EFD store.

A :class:`ShardedDictionary` holds N ordinary
:class:`~repro.core.dictionary.ExecutionFingerprintDictionary` shards
and routes every key to ``stable_hash(key) % N``.  Because one key
always lives in exactly one shard, per-key state (label list order,
repetition counts) is trivially identical to the flat store; the only
global state a flat dictionary has beyond its keys — the first-seen
label/app orders that drive tie-breaking, and the global key insertion
order that drives Table-4-style listings — is kept at the wrapper level.

The class mirrors the full read/write contract of the flat dictionary
so that every consumer (matcher, streaming sessions, maintenance,
anomaly detection) works against either store unchanged.  It is the
in-memory builder of a store; :func:`~repro.engine.columnar.save_columnar`
persists one as a columnar directory.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro._util.hashing import stable_hash
from repro.core.dictionary import (
    DictionaryStats,
    ExecutionFingerprintDictionary,
    app_of_label,
)
from repro.core.fingerprint import Fingerprint
from repro.engine.backend import KeyOrderedStore


def shard_index(fingerprint: Fingerprint, n_shards: int) -> int:
    """Owning shard of ``fingerprint`` among ``n_shards``.

    Uses the process-independent :func:`~repro._util.hashing.stable_hash`
    over the full key tuple, so the same key maps to the same shard in
    every process, on every machine, forever — a requirement for the
    on-disk shard layout to stay valid.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    # stable_hash tokenizes type + repr, but Fingerprint equality is
    # value-based — so normalize every part to canonical Python types
    # (int/float, and +0.0 to collapse -0.0) before hashing, or equal
    # keys (numpy scalars, negative zero) would route to different
    # shards.
    return stable_hash(
        str(fingerprint.metric),
        int(fingerprint.node),
        (float(fingerprint.interval[0]) + 0.0, float(fingerprint.interval[1]) + 0.0),
        float(fingerprint.value) + 0.0,
    ) % n_shards


class ShardedDictionary(KeyOrderedStore):
    """EFD partitioned across N shards by stable key hash.

    Mirrors the full read/write contract of
    :class:`~repro.core.dictionary.ExecutionFingerprintDictionary` —
    every consumer (matcher, streaming sessions, maintenance, batch
    engine) works against either store unchanged, and every observable
    is byte-identical to the flat store (property-tested in
    ``tests/test_engine_properties.py``).

    >>> sharded = ShardedDictionary.from_flat(flat_efd, n_shards=8)  # doctest: +SKIP
    >>> sharded.lookup(fp) == flat_efd.lookup(fp)                    # doctest: +SKIP
    True

    Parameters
    ----------
    n_shards:
        Number of partitions.  Keys route by
        :func:`shard_index` (process-independent stable hash), so a
        layout — in memory or on disk via
        :func:`~repro.engine.columnar.save_columnar` — remains valid
        across restarts and machines.
    """

    def __init__(self, n_shards: int = 8) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self.shards: List[ExecutionFingerprintDictionary] = [
            ExecutionFingerprintDictionary() for _ in range(self.n_shards)
        ]
        # Global first-seen orders; the per-shard copies only see their
        # own slice of the key space and cannot reconstruct these.
        self._label_order: Dict[str, None] = {}
        self._app_order: Dict[str, None] = {}
        self._key_order: Dict[Fingerprint, None] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def from_flat(
        cls, efd: ExecutionFingerprintDictionary, n_shards: int = 8
    ) -> "ShardedDictionary":
        """Partition an existing flat dictionary (orders preserved)."""
        sharded = cls(n_shards)
        sharded.merge(efd)
        return sharded

    def to_flat(self) -> ExecutionFingerprintDictionary:
        """Collapse back into one flat dictionary (orders preserved)."""
        efd = ExecutionFingerprintDictionary()
        efd.merge(self)
        return efd

    # -- writing -----------------------------------------------------------
    def shard_of(self, fingerprint: Fingerprint) -> ExecutionFingerprintDictionary:
        return self.shards[shard_index(fingerprint, self.n_shards)]

    def add(self, fingerprint: Fingerprint, label: str) -> None:
        """Insert one (fingerprint, label) observation."""
        self.shard_of(fingerprint).add(fingerprint, label)
        self._key_order.setdefault(fingerprint, None)
        self.register_label(label)

    def add_repeated(self, fingerprint: Fingerprint, label: str, count: int) -> None:
        """Insert ``count`` repetitions of one observation in O(1)."""
        self.shard_of(fingerprint).add_repeated(fingerprint, label, count)
        self._key_order.setdefault(fingerprint, None)
        self.register_label(label)

    def register_label(self, label: str) -> None:
        """Record ``label`` in the global first-seen orders."""
        if not label:
            raise ValueError("label must be non-empty")
        self._label_order.setdefault(label, None)
        self._app_order.setdefault(app_of_label(label), None)

    # -- reading ------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic mutation counter aggregated over all shards."""
        return sum(s.version for s in self.shards)

    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint in self.shard_of(fingerprint)

    def lookup(self, fingerprint: Optional[Fingerprint]) -> List[str]:
        """Labels linked to ``fingerprint``, first-seen order; [] if absent."""
        if fingerprint is None:
            return []
        return self.shard_of(fingerprint).lookup(fingerprint)

    def lookup_counts(self, fingerprint: Optional[Fingerprint]) -> Dict[str, int]:
        """Labels with repetition counts; {} if absent."""
        if fingerprint is None:
            return {}
        return self.shard_of(fingerprint).lookup_counts(fingerprint)

    def lookup_many(
        self, fingerprints: Sequence[Fingerprint]
    ) -> List[List[str]]:
        """One label list per fingerprint, routed per owning shard."""
        return [self.lookup(fp) for fp in fingerprints]

    def entries(self) -> Iterator[Tuple[Fingerprint, List[str]]]:
        """All (key, labels) pairs in global insertion order."""
        for fp in self._key_order:
            yield fp, self.lookup(fp)

    # -- analysis ------------------------------------------------------------
    def stats(self) -> DictionaryStats:
        per_shard = [s.stats() for s in self.shards]
        all_labels: Dict[str, None] = {}
        for s in self.shards:
            for labels in s._store.values():
                for label in labels:
                    all_labels.setdefault(label, None)
        return DictionaryStats(
            n_keys=sum(st.n_keys for st in per_shard),
            n_insertions=sum(st.n_insertions for st in per_shard),
            n_labels=len(all_labels),
            n_colliding_keys=sum(st.n_colliding_keys for st in per_shard),
            max_labels_per_key=max(
                (st.max_labels_per_key for st in per_shard), default=0
            ),
        )

    def shard_sizes(self) -> List[int]:
        """Key count per shard (occupancy / balance diagnostics)."""
        return [len(s) for s in self.shards]

    def __repr__(self) -> str:
        return (
            f"ShardedDictionary(n_shards={self.n_shards}, keys={len(self)}, "
            f"sizes={self.shard_sizes()})"
        )


# ---------------------------------------------------------------------------
# Save helpers (the on-disk codec is repro.engine.columnar)
# ---------------------------------------------------------------------------

def as_sharded(store) -> ShardedDictionary:
    """``store`` itself when it is a :class:`ShardedDictionary`; any
    other backend merged into a fresh one of its shard count (one for
    a store without shards).

    The entry of :func:`~repro.engine.columnar.save_columnar`: a store
    is always saved from its live state, so a columnar store's pending
    delta-log records are never dropped.
    """
    if isinstance(store, ShardedDictionary):
        return store
    sharded = ShardedDictionary(getattr(store, "n_shards", 1))
    sharded.merge(store)
    return sharded


def key_positions(sharded: ShardedDictionary) -> List[Tuple[int, int]]:
    """``(shard, position in shard)`` of every key, in global insertion
    order — how a saved store persists the global key order, which shard
    files alone do not know (Table-4-style listings and ``to_flat()``
    depend on it).  Read from the shards, so no key is routed again.
    """
    where = {
        fp: (i, pos)
        for i, shard in enumerate(sharded.shards)
        for pos, fp in enumerate(shard._store)
    }
    return [where[fp] for fp in sharded._key_order]
