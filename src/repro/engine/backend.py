"""The storage contract every EFD backend satisfies.

Three stores answer recognition traffic — the paper-faithful flat
:class:`~repro.core.dictionary.ExecutionFingerprintDictionary`, the
hash-partitioned :class:`~repro.engine.sharded.ShardedDictionary`, and
the memory-mapped :class:`~repro.engine.columnar.ColumnarDictionary`.
Historically each re-implemented the same read/write surface by
convention; :class:`DictionaryBackend` makes that surface a formal,
runtime-checkable :class:`typing.Protocol`, so

- the batch engine, the streaming sessions, the maintenance and anomaly
  tools, and the serving layer can be written (and type-checked)
  against one contract instead of three conventions;
- ``merge`` works across backend types — a flat store folds into a
  columnar one, a sharded store into a flat one — because every side
  speaks ``labels()`` / ``entries()`` / ``lookup_counts()`` /
  ``add_repeated()`` rather than reaching into a sibling's internals;
- conformance is enforced by ``tests/test_backend_protocol.py``, which
  isinstance-checks all three classes against the protocol and
  cross-merges every backend pair.

The contract, grouped:

========== =============================================================
writing    ``add``, ``add_repeated``, ``add_many``, ``register_label``,
           ``merge``
reading    ``lookup``, ``lookup_counts``, ``lookup_many``,
           ``__contains__``, ``__len__``, ``entries``
tables     ``labels``, ``app_names``, ``metrics``, ``intervals``
           (the string tables, all in global first-seen order — the
           orders that drive tie-breaking and Table-4 listings)
analysis   ``stats``, ``collisions``, ``fingerprints_for``
caching    ``version`` — a monotonic mutation counter; caches (the
           batch engine's lookup index) key on it to detect staleness
========== =============================================================

``lookup_many`` is the batch-session entry point: it returns one label
list per fingerprint, element-wise identical to per-key ``lookup``.
Each store answers it through its own batch path — the columnar store
through the key-hash search that also serves its point reads, which
may settle misses from per-shard negative-lookup filters
(:mod:`repro.engine.keyfilter`) without reading a column file.

:class:`KeyOrderedStore` holds the part of the contract that derives
from ``add`` / ``register_label`` / ``entries`` and the global key
order; the sharded and columnar stores both inherit it.

A fourth implementation lives out of process:
:class:`~repro.engine.remote.RemoteShardBackend` satisfies this same
protocol while its shards are served by remote hosts — ``lookup_many``
is a resilient scatter/gather, and the one documented contract
deviation is ``entries()`` yielding shard-major rather than global
insertion order (the global order lives client-side only for keys
written through that client).
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.dictionary import DictionaryStats, app_of_label
from repro.core.fingerprint import Fingerprint


@runtime_checkable
class DictionaryBackend(Protocol):
    """Read/write surface shared by every EFD storage backend.

    ``@runtime_checkable`` protocols verify method *presence*, not
    signatures — the semantic guarantees (first-seen orders, byte-equal
    observables across backends) are pinned by the property-test
    equivalence matrix, and conformance of the three shipped backends
    by ``tests/test_backend_protocol.py``.
    """

    # -- caching ------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter, advanced by every mutation."""
        ...

    # -- writing ------------------------------------------------------------
    def add(self, fingerprint: Fingerprint, label: str) -> None:
        """Insert one (fingerprint, label) observation."""
        ...

    def add_repeated(
        self, fingerprint: Fingerprint, label: str, count: int
    ) -> None:
        """Insert ``count`` repetitions of one observation in O(1)."""
        ...

    def add_many(
        self, fingerprints: Sequence[Optional[Fingerprint]], label: str
    ) -> int:
        """Insert all non-``None`` fingerprints; returns how many."""
        ...

    def register_label(self, label: str) -> None:
        """Record ``label`` in the first-seen orders without an insertion."""
        ...

    def merge(self, other: "DictionaryBackend") -> None:
        """Fold another backend's observations into this one.

        ``other`` may be any backend type; implementations must consume
        it through this protocol (``labels``/``entries``/
        ``lookup_counts``), never through another class's internals.
        """
        ...

    # -- reading ------------------------------------------------------------
    def __len__(self) -> int: ...

    def __contains__(self, fingerprint: Fingerprint) -> bool: ...

    def lookup(self, fingerprint: Optional[Fingerprint]) -> List[str]:
        """Labels linked to ``fingerprint``, first-seen order; [] if absent."""
        ...

    def lookup_counts(self, fingerprint: Optional[Fingerprint]) -> Dict[str, int]:
        """Labels with repetition counts; {} if absent."""
        ...

    def lookup_many(
        self, fingerprints: Sequence[Fingerprint]
    ) -> List[List[str]]:
        """One label list per fingerprint, resolved as a batch."""
        ...

    def entries(self) -> Iterator[Tuple[Fingerprint, List[str]]]:
        """All (key, labels) pairs in global insertion order."""
        ...

    # -- string tables (global first-seen order) -----------------------------
    def labels(self) -> List[str]: ...

    def app_names(self) -> List[str]: ...

    def metrics(self) -> List[str]: ...

    def intervals(self) -> List[Tuple[float, float]]: ...

    # -- analysis ------------------------------------------------------------
    def stats(self) -> DictionaryStats: ...

    def collisions(self) -> List[Tuple[Fingerprint, List[str]]]: ...

    def fingerprints_for(self, label_prefix: str) -> List[Fingerprint]: ...


def merge_into(target: DictionaryBackend, source: DictionaryBackend) -> int:
    """Generic cross-backend merge: fold ``source`` into ``target``.

    The one canonical merge routine every backend's ``merge`` delegates
    to.  Registers ``source``'s label order first (string-table order is
    part of the contract — tie-breaking depends on it), then replays
    every (key, label, count) through ``target.add_repeated`` in
    ``source``'s global key order.  Returns the number of (key, label)
    entries folded.
    """
    for label in source.labels():
        target.register_label(label)
    n = 0
    for fp, _ in source.entries():
        for label, count in source.lookup_counts(fp).items():
            target.add_repeated(fp, label, count)
            n += 1
    return n


class KeyOrderedStore:
    """The generic half of the contract, derived from the rest of it.

    A subclass supplies ``add`` / ``register_label`` / ``entries`` and
    three insertion-ordered mappings: ``_label_order`` and
    ``_app_order`` (the global first-seen string tables) and
    ``_key_order`` (every key, in global insertion order).  The
    sharded and the columnar store both inherit it.
    """

    def add_many(
        self, fingerprints: Sequence[Optional[Fingerprint]], label: str
    ) -> int:
        """Insert all non-``None`` fingerprints; returns how many."""
        n = 0
        for fp in fingerprints:
            if fp is not None:
                self.add(fp, label)
                n += 1
        return n

    def bulk_add(
        self, pairs: Sequence[Tuple[Optional[Fingerprint], str]]
    ) -> int:
        """Insert many (fingerprint, label) pairs in order; returns how
        many were inserted.  ``None`` fingerprints are skipped, but
        their label still registers, so the first-seen orders match
        every other backend's ``bulk_add``.
        """
        n = 0
        for fp, label in pairs:
            if fp is None:
                self.register_label(label)
                continue
            self.add(fp, label)
            n += 1
        return n

    def merge(self, other: DictionaryBackend) -> None:
        """Fold any backend's observations into this one, through
        :func:`merge_into` (shard counts need not match: keys are
        re-routed by hash)."""
        merge_into(self, other)

    def labels(self) -> List[str]:
        return list(self._label_order)

    def app_names(self) -> List[str]:
        return list(self._app_order)

    def metrics(self) -> List[str]:
        return list(dict.fromkeys(fp.metric for fp in self._key_order))

    def intervals(self) -> List[Tuple[float, float]]:
        return list(dict.fromkeys(fp.interval for fp in self._key_order))

    def collisions(self) -> List[Tuple[Fingerprint, List[str]]]:
        out = []
        for fp, labels in self.entries():
            apps = {app_of_label(l) for l in labels}
            if len(apps) > 1:
                out.append((fp, labels))
        return out

    def fingerprints_for(self, label_prefix: str) -> List[Fingerprint]:
        out = []
        for fp, labels in self.entries():
            for label in labels:
                if label == label_prefix or label.startswith(label_prefix + "_") \
                        or app_of_label(label) == label_prefix:
                    out.append(fp)
                    break
        return out
