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
anomaly detection) works against either store unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro._util.hashing import stable_hash
from repro.core.dictionary import (
    DictionaryStats,
    ExecutionFingerprintDictionary,
    app_of_label,
)
from repro.core.fingerprint import Fingerprint
from repro.core.serialization import dictionary_from_json, dictionary_to_json
from repro.engine.backend import KeyOrderedStore

_MANIFEST_NAME = "manifest.json"
_SHARD_FORMAT_VERSION = 1



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


def _json_shard_filename(index: int) -> str:
    return f"shard-{index:02d}.json"


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
        layout — in memory or on disk via :func:`save_sharded` —
        remains valid across restarts and machines.
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
# Directory (de)serialization
# ---------------------------------------------------------------------------

def _checksum(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def as_sharded(store) -> ShardedDictionary:
    """``store`` itself when it is a :class:`ShardedDictionary`; any
    other backend merged into a fresh one of its shard count (one for
    a store without shards).

    The shared entry of both save paths: a store is always saved from
    its live state, so a columnar store's pending delta-log records are
    never dropped.
    """
    if isinstance(store, ShardedDictionary):
        return store
    sharded = ShardedDictionary(getattr(store, "n_shards", 1))
    sharded.merge(store)
    return sharded


def key_positions(sharded: ShardedDictionary) -> List[Tuple[int, int]]:
    """``(shard, position in shard)`` of every key, in global insertion
    order — how both layouts persist the global key order, which shard
    files alone do not know (Table-4-style listings and ``to_flat()``
    depend on it).  Read from the shards, so no key is routed again.
    """
    where = {
        fp: (i, pos)
        for i, shard in enumerate(sharded.shards)
        for pos, fp in enumerate(shard._store)
    }
    return [where[fp] for fp in sharded._key_order]


def save_sharded(store, directory: str) -> None:
    """Write ``store`` as ``directory/manifest.json`` + shard files.

    Any backend is accepted (see :func:`as_sharded`); a columnar store
    is saved as its live state, base ∪ pending delta-log records.
    """
    sharded = as_sharded(store)
    os.makedirs(directory, exist_ok=True)
    shard_meta = []
    for i, shard in enumerate(sharded.shards):
        text = dictionary_to_json(shard)
        name = _json_shard_filename(i)
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        shard_meta.append(
            {"file": name, "n_keys": len(shard), "checksum": _checksum(text)}
        )
    key_order = [list(pair) for pair in key_positions(sharded)]
    manifest = {
        "format_version": _SHARD_FORMAT_VERSION,
        "n_shards": sharded.n_shards,
        "label_order": sharded.labels(),
        "key_order": key_order,
        "shards": shard_meta,
    }
    with open(os.path.join(directory, _MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def load_sharded(directory: str, validate: bool = True) -> ShardedDictionary:
    """Load a dictionary written by :func:`save_sharded` or
    :func:`~repro.engine.columnar.save_columnar`.

    Dispatches on the manifest's layout: a columnar directory returns a
    :class:`~repro.engine.columnar.ColumnarDictionary`, which reads only
    the manifest at open and maps shard files when a read needs them;
    the JSON layout loads eagerly.
    Shards are loaded independently; a missing shard file raises
    :class:`FileNotFoundError` and a corrupt one :class:`ValueError`,
    each naming the offending file.  With ``validate`` (default) every
    loaded key is checked to hash to its host shard, which catches
    renamed or swapped shard files.
    """
    manifest_path = os.path.join(directory, _MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(
            f"no sharded EFD at {directory!r}: missing {_MANIFEST_NAME}"
        )
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt manifest {manifest_path!r}: {exc}") from exc
    if manifest.get("layout") == "columnar":
        from repro.engine.columnar import load_columnar

        return load_columnar(directory, validate=validate)
    version = manifest.get("format_version")
    if version != _SHARD_FORMAT_VERSION:
        raise ValueError(
            f"unsupported sharded EFD format version {version!r} "
            f"(expected {_SHARD_FORMAT_VERSION})"
        )
    n_shards = int(manifest["n_shards"])
    shard_meta = manifest.get("shards", [])
    if len(shard_meta) != n_shards:
        raise ValueError(
            f"manifest lists {len(shard_meta)} shard files for "
            f"n_shards={n_shards}"
        )
    sharded = ShardedDictionary(n_shards)
    for label in manifest.get("label_order", []):
        sharded.register_label(label)
    for i, meta in enumerate(shard_meta):
        path = os.path.join(directory, meta["file"])
        if not os.path.isfile(path):
            raise FileNotFoundError(
                f"sharded EFD at {directory!r} is incomplete: "
                f"missing shard file {meta['file']!r}"
            )
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        expected = meta.get("checksum")
        if expected is not None and _checksum(text) != expected:
            raise ValueError(
                f"shard file {meta['file']!r} is corrupt: checksum mismatch "
                f"(expected {expected})"
            )
        try:
            shard = dictionary_from_json(text)
        except ValueError as exc:
            raise ValueError(
                f"shard file {meta['file']!r} is corrupt: {exc}"
            ) from exc
        if validate:
            for fp, _ in shard.entries():
                owner = shard_index(fp, n_shards)
                if owner != i:
                    raise ValueError(
                        f"shard file {meta['file']!r} holds key {fp} that "
                        f"belongs to shard {owner} — files renamed or swapped?"
                    )
        sharded.shards[i] = shard
        for label in shard.labels():
            sharded.register_label(label)
    shard_keys = [[fp for fp, _ in shard.entries()] for shard in sharded.shards]
    key_order = manifest.get("key_order")
    if key_order is not None:
        if len(key_order) != sum(len(keys) for keys in shard_keys):
            raise ValueError(
                f"manifest key_order lists {len(key_order)} keys but shard "
                f"files hold {sum(len(k) for k in shard_keys)}"
            )
        seen: set = set()
        for i, pos in key_order:
            try:
                fp = shard_keys[i][pos]
            except IndexError:
                raise ValueError(
                    f"manifest key_order entry [{i}, {pos}] is out of range "
                    f"— manifest and shard files disagree"
                ) from None
            if (i, pos) in seen:
                raise ValueError(
                    f"manifest key_order lists entry [{i}, {pos}] twice "
                    f"— manifest is corrupt"
                )
            seen.add((i, pos))
            sharded._key_order.setdefault(fp, None)
    else:
        # Older manifest without key_order: fall back to shard-major order.
        for keys in shard_keys:
            for fp in keys:
                sharded._key_order.setdefault(fp, None)
    return sharded
