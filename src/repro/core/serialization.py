"""JSON and columnar round-trips for dictionaries.

A production EFD is long-lived operational state — it accumulates
fingerprints across months of cluster operation — so it must survive
process restarts.  Two codecs share this module:

- **JSON** (:func:`dictionary_to_json` / :func:`dictionary_from_json`):
  human-inspectable, diff-able, dependency-free — the reference format.
- **Columns** (:func:`dictionary_to_columns` /
  :func:`dictionary_from_columns`): one flat EFD as parallel NumPy
  arrays — node ids, rounded values, interned metric/interval ids, and
  CSR-style offsets into a label-id column with repetition counts.
  This is the per-shard payload of the engine's columnar shard codec,
  the raw memory-mapped ``.mmap`` layout (:mod:`repro.engine.columnar`
  / :mod:`repro.engine.mmapstore`); string tables are interned by the
  caller so label ids stay globally consistent across shards.
  :data:`COLUMN_DTYPES` and :func:`column_lengths` pin its schema.

Both codecs are lossless: keys, per-key label lists (first-seen order),
repetition counts, and the dictionary's own label registration order
round-trip exactly.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint

_FORMAT_VERSION = 1

#: Parallel arrays of the columnar codec, all mandatory.
COLUMN_NAMES = (
    "node",          # int64[n_keys]      fingerprint node ids
    "value",         # float64[n_keys]    rounded interval means (raw bits)
    "metric_id",     # int64[n_keys]      index into the metric table
    "interval_id",   # int64[n_keys]      index into the interval table
    "label_offsets", # int64[n_keys + 1]  CSR offsets into label_ids/counts
    "label_ids",     # int64[total]       per-key labels, first-seen order
    "label_counts",  # int64[total]       repetition count per label entry
    "label_order",   # int64[n_labels]    this EFD's label registration order
)

#: Canonical little-endian element type per column — the wire dtype of
#: the raw mmap shard layout, and what every reader upcasts/views to.
COLUMN_DTYPES: Dict[str, str] = {
    "node": "<i8",
    "value": "<f8",
    "metric_id": "<i8",
    "interval_id": "<i8",
    "label_offsets": "<i8",
    "label_ids": "<i8",
    "label_counts": "<i8",
    "label_order": "<i8",
}


def column_lengths(
    n_keys: int, n_label_entries: int, n_label_order: int
) -> Dict[str, int]:
    """Element count per column, derived from the three shard scalars.

    Every column's length is a pure function of ``(n_keys,
    n_label_entries, n_label_order)`` — which is what lets the mmap
    shard layout store three scalars in its header instead of a
    per-column table, and lets readers detect truncation by size alone.
    """
    return {
        "node": n_keys,
        "value": n_keys,
        "metric_id": n_keys,
        "interval_id": n_keys,
        "label_offsets": n_keys + 1,
        "label_ids": n_label_entries,
        "label_counts": n_label_entries,
        "label_order": n_label_order,
    }


def fingerprint_to_record(fp: Fingerprint) -> Dict[str, object]:
    """One fingerprint key as a JSON-ready mapping.

    The shared key encoding of the flat JSON codec and the engine's
    mutation delta-log (:mod:`repro.engine.deltalog`): metric, node,
    interval endpoints, and the raw float value, coerced to canonical
    Python types so numpy-typed fingerprints serialize like their plain
    equals.
    """
    return {
        "metric": str(fp.metric),
        "node": int(fp.node),
        "interval": [float(fp.interval[0]), float(fp.interval[1])],
        "value": float(fp.value),
    }


def fingerprint_from_record(record: Dict[str, object]) -> Fingerprint:
    """Rebuild a fingerprint key from :func:`fingerprint_to_record`.

    Raises the underlying :class:`KeyError` / :class:`TypeError` /
    :class:`ValueError` on a malformed record — callers wrap these with
    the offending file/line context.
    """
    interval = record["interval"]
    return Fingerprint(
        metric=str(record["metric"]),
        node=int(record["node"]),
        interval=(float(interval[0]), float(interval[1])),
        value=float(record["value"]),
    )


def dictionary_to_json(efd: ExecutionFingerprintDictionary) -> str:
    """Serialize ``efd`` to a JSON string (insertion order preserved)."""
    entries = []
    for fp, _ in efd.entries():
        record = fingerprint_to_record(fp)
        record["labels"] = efd.lookup_counts(fp)
        entries.append(record)
    return json.dumps(
        {
            "format_version": _FORMAT_VERSION,
            # Global first-seen label order drives tie-breaking ("return
            # the first application of the array"); per-entry label lists
            # alone cannot reconstruct it.
            "label_order": efd.labels(),
            "entries": entries,
        },
        indent=2,
    )


def dictionary_from_json(text: str) -> ExecutionFingerprintDictionary:
    """Rebuild a dictionary serialized by :func:`dictionary_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ValueError("not an EFD JSON document (missing 'entries')")
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported EFD format version {version!r} (expected {_FORMAT_VERSION})"
        )
    efd = ExecutionFingerprintDictionary()
    for label in payload.get("label_order", []):
        efd.register_label(label)
    for entry in payload["entries"]:
        try:
            fp = fingerprint_from_record(entry)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ValueError(f"malformed entry: {exc}") from exc
        labels = entry["labels"]
        if not isinstance(labels, dict) or not labels:
            raise ValueError(f"entry for {fp} has no labels")
        for label, count in labels.items():
            if int(count) < 1:
                raise ValueError(f"label {label!r} has non-positive count {count}")
            efd.add_repeated(fp, label, int(count))
    return efd


def _intern(table: Dict, key) -> int:
    """Id of ``key`` in ``table``, appending it on first sight."""
    found = table.get(key)
    if found is None:
        found = len(table)
        table[key] = found
    return found


def dictionary_to_columns(
    efd: ExecutionFingerprintDictionary,
    label_index: Dict[str, int],
    metric_index: Dict[str, int],
    interval_index: Dict[Tuple[float, float], int],
) -> Dict[str, np.ndarray]:
    """Encode one flat EFD as the parallel arrays of :data:`COLUMN_NAMES`.

    The three ``*_index`` maps intern strings/intervals to ids and are
    extended **in place** in first-seen order, so a caller encoding many
    shards against shared maps gets globally consistent ids (the engine's
    columnar shard codec does exactly this).  Interval keys are
    normalized with ``+ 0.0`` so a ``-0.0`` endpoint interns like
    ``0.0`` — matching :class:`Fingerprint` equality.

    Values are stored as raw float64 bits, so ``-0.0`` keys and
    subnormals round-trip exactly.
    """
    n = len(efd)
    node = np.empty(n, dtype=np.int64)
    value = np.empty(n, dtype=np.float64)
    metric_id = np.empty(n, dtype=np.int64)
    interval_id = np.empty(n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    label_ids: List[int] = []
    label_counts: List[int] = []
    for i, (fp, labels) in enumerate(efd._store.items()):
        node[i] = fp.node
        value[i] = fp.value
        metric_id[i] = _intern(metric_index, str(fp.metric))
        start, end = fp.interval
        interval_id[i] = _intern(
            interval_index, (float(start) + 0.0, float(end) + 0.0)
        )
        for label, count in labels.items():
            if count < 1:
                raise ValueError(
                    f"label {label!r} has non-positive count {count}"
                )
            if count >= 1 << 63:
                raise ValueError(
                    f"label {label!r} count {count} exceeds the codec's "
                    f"int64 range"
                )
            label_ids.append(_intern(label_index, label))
            label_counts.append(count)
        offsets[i + 1] = len(label_ids)
    label_order = np.array(
        [_intern(label_index, label) for label in efd.labels()],
        dtype=np.int64,
    )
    return {
        "node": node,
        "value": value,
        "metric_id": metric_id,
        "interval_id": interval_id,
        "label_offsets": offsets,
        "label_ids": np.array(label_ids, dtype=np.int64),
        "label_counts": np.array(label_counts, dtype=np.int64),
        "label_order": label_order,
    }


def dictionary_from_columns(
    columns: Dict[str, np.ndarray],
    label_table: List[str],
    metric_table: List[str],
    interval_table: List[Tuple[float, float]],
) -> ExecutionFingerprintDictionary:
    """Rebuild a flat EFD from :func:`dictionary_to_columns` output.

    Validates the columnar invariants (all columns present, CSR offsets
    monotone, ids inside their tables, counts positive, at least one
    label per key) and raises :class:`ValueError` on any violation — the
    engine wraps these with the offending shard's file name.
    """
    for name in COLUMN_NAMES:
        if name not in columns:
            raise ValueError(f"missing column {name!r}")
    node = np.asarray(columns["node"], dtype=np.int64)
    value = np.asarray(columns["value"], dtype=np.float64)
    metric_id = np.asarray(columns["metric_id"], dtype=np.int64)
    interval_id = np.asarray(columns["interval_id"], dtype=np.int64)
    offsets = np.asarray(columns["label_offsets"], dtype=np.int64)
    label_ids = np.asarray(columns["label_ids"], dtype=np.int64)
    label_counts = np.asarray(columns["label_counts"], dtype=np.int64)
    label_order = np.asarray(columns["label_order"], dtype=np.int64)
    n = len(node)
    if not (
        len(value) == len(metric_id) == len(interval_id) == n
        and len(offsets) == n + 1
        and len(label_ids) == len(label_counts)
    ):
        raise ValueError("column lengths are inconsistent")
    if n and (offsets[0] != 0 or offsets[-1] != len(label_ids)):
        raise ValueError("label_offsets do not span the label columns")
    if np.any(np.diff(offsets) < 1):
        raise ValueError("a key has no labels (offsets not increasing)")
    if len(label_ids) and (
        label_ids.min() < 0 or label_ids.max() >= len(label_table)
    ):
        raise ValueError("label id outside the label table")
    if np.any(label_counts < 1):
        raise ValueError("non-positive repetition count")
    if n:
        if metric_id.min() < 0 or metric_id.max() >= len(metric_table):
            raise ValueError("metric id outside the metric table")
        if interval_id.min() < 0 or interval_id.max() >= len(interval_table):
            raise ValueError("interval id outside the interval table")
        if node.min() < 0:
            raise ValueError("negative node id")
        if np.any(value != value):
            raise ValueError("NaN fingerprint value")
    if len(label_order) and (
        label_order.min() < 0 or label_order.max() >= len(label_table)
    ):
        raise ValueError("label_order id outside the label table")
    efd = ExecutionFingerprintDictionary()
    for lid in label_order:
        efd.register_label(label_table[lid])
    for i in range(n):
        start, end = interval_table[interval_id[i]]
        fp = Fingerprint(
            metric=metric_table[metric_id[i]],
            node=int(node[i]),
            interval=(float(start), float(end)),
            value=float(value[i]),
        )
        for j in range(offsets[i], offsets[i + 1]):
            efd.add_repeated(
                fp, label_table[label_ids[j]], int(label_counts[j])
            )
    return efd


def save_dictionary(efd: ExecutionFingerprintDictionary, path: str) -> None:
    """Write ``efd`` to ``path`` as JSON."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dictionary_to_json(efd))


def load_dictionary(path: str) -> ExecutionFingerprintDictionary:
    """Load a dictionary written by :func:`save_dictionary`."""
    with open(path, "r", encoding="utf-8") as fh:
        return dictionary_from_json(fh.read())
