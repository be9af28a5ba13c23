"""Online resharding: change a dictionary's shard count without a relearn.

Growing a deployment used to mean re-fitting the dictionary from
telemetry at the new shard count.  That was never necessary: shard
membership is a pure function of the key
(:func:`~repro.engine.sharded.shard_index` — ``stable_hash(key) % N``),
so the movement from N to M shards is computable offline from the keys
alone — only keys whose ``hash % N != hash % M`` change shards, and no
per-key state (label lists, repetition counts) changes at all.

:func:`reshard_store` re-buckets an in-memory store; :func:`reshard`
rewrites a columnar shard *directory* in place or to ``--out``,
surfaced as ``efd engine reshard``.  Both preserve every global order byte-identically — the
key insertion order, the label and app first-seen orders, and each
shard's internal order (the global order filtered to the shard's keys)
— so reshard N→M→N round-trips to byte-identical files and every
verdict is element-wise unchanged (``tests/test_reshard.py``).

A columnar source with pending delta-log records is resharded from its
merged live state; the rewritten directory starts with a clean (folded)
base.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.engine.columnar import (
    load_columnar,
    save_columnar,
    _read_manifest,
    _remove_superseded_files,
)
from repro.engine.deltalog import pending_records, segment_path
from repro.engine.sharded import ShardedDictionary, shard_index


def count_moved_keys(store, n_shards_new: int) -> int:
    """Keys whose shard assignment changes at the new count.

    The offline movement plan in one number: a key moves iff
    ``stable_hash(key) % N != stable_hash(key) % M``.
    """
    old = getattr(store, "n_shards", 1)
    return sum(
        1
        for fp, _ in store.entries()
        if shard_index(fp, old) != shard_index(fp, n_shards_new)
    )


def reshard_store(store, n_shards: int) -> ShardedDictionary:
    """Re-bucket any backend into a fresh N-shard store, orders intact.

    Accepts any :class:`~repro.engine.backend.DictionaryBackend`; the
    canonical cross-backend merge replays label order first and keys in
    global insertion order, so every observable of the result is
    byte-identical to the source.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    target = ShardedDictionary(n_shards)
    target.merge(store)
    return target


def _rebucket(store, n_shards: int) -> Tuple[ShardedDictionary, int]:
    """A columnar store re-bucketed at ``n_shards``, and its moved-key
    count, from one walk that routes each key once.

    What :func:`reshard_store` and :func:`count_moved_keys` compute
    together: each key's old shard is the source shard it sits in
    (:meth:`~repro.engine.columnar.ColumnarDictionary.shard_items`),
    and its new shard is the one routing of the merge.  Labels register
    first and keys replay in global insertion order, so every
    observable matches :func:`reshard_store`'s.
    """
    held = {
        fp: (shard, counts)
        for shard in range(store.n_shards)
        for fp, counts in store.shard_items(shard)
    }
    target = ShardedDictionary(n_shards)
    for label in store.labels():
        target.register_label(label)
    moved = 0
    for fp in store._key_order:
        old, counts = held[fp]
        new = shard_index(fp, n_shards)
        moved += new != old
        shard = target.shards[new]
        for label, count in counts.items():
            shard.add_repeated(fp, label, count)
    target._key_order.update(dict.fromkeys(store._key_order))
    return target, moved


def reshard(directory: str, n_shards: int,
            out: Optional[str] = None) -> dict:
    """Rewrite a columnar shard directory at a new shard count.

    In place by default; pass ``out`` to write the resharded directory
    elsewhere and leave the source untouched.  Per-shard negative-lookup
    filters are kept (or left out) as in the source, rebuilt for the
    new key routing under the same atomic manifest replace.  An
    in-place rewrite removes shard files orphaned by a shrinking count
    (and a pending delta-log segment, whose records are folded into the
    rewritten base).
    Returns a summary dict with the key/move counts and new occupancy.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    store = load_columnar(directory)
    old_manifest = _read_manifest(directory)
    old_shards = store.n_shards
    target, moved = _rebucket(store, n_shards)
    in_place = out is None or os.path.abspath(out) == os.path.abspath(directory)
    outdir = directory if in_place else out
    # An in-place rewrite must advance the delta generation, for two
    # independent reasons: the new base then lands under fresh
    # generation-suffixed file names committed by one atomic manifest
    # replace (a crash mid-rewrite can never half-overwrite the only
    # copy of a live shard file), and any pending log records folded
    # into the rewrite leave a segment whose stale generation marks it
    # already-applied instead of replaying onto the folded base.  A
    # copy to ``--out`` touches no live file, so it keeps the source
    # generation unless it folded pending records.
    old_generation = int(old_manifest.get("delta_generation", 0))
    folded = pending_records(directory, old_generation)
    if in_place or folded:
        generation = old_generation + 1
    else:
        generation = old_generation
    # Preserve whether the source's shards carry negative-lookup
    # filters — resharding changes the key routing, never the
    # representation.
    save_columnar(
        target, outdir, generation=generation,
        filters="filters" in old_manifest,
    )
    if in_place:
        _remove_superseded_files(outdir, old_manifest, _read_manifest(outdir))
        # Pending appends were folded into the rewrite; the advanced
        # generation already marks a leftover segment stale, but clean
        # up eagerly rather than leaving it to the next load.
        segment = segment_path(outdir)
        if os.path.isfile(segment):
            os.remove(segment)
    return {
        "directory": outdir,
        "n_keys": len(target),
        "old_shards": old_shards,
        "new_shards": n_shards,
        "moved_keys": moved,
        "shard_sizes": target.shard_sizes(),
    }
