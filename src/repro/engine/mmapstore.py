"""Raw memory-mapped shard files: the columnar store's shard codec.

Each shard's parallel arrays are written as one raw little-endian file
that :class:`~repro.engine.columnar.ColumnarDictionary` opens with
:func:`numpy.memmap`, so

- **query-ready is O(manifest)** — opening a shard maps it, it does not
  read it; columns fault in lazily as probes touch them;
- **N serving processes share one copy** — the mapping is backed by the
  OS page cache, so every ``efd serve`` process reads the same physical
  pages instead of each holding a private heap copy;
- **the lookup kernel reads zero-copy** — candidate rows are verified
  against the mapped arrays directly (a single-shard store
  concatenates nothing at all).

File format (all little-endian, every column 64-byte aligned)::

    offset 0   magic        b"EFDMMAP1"
           8   u64 n_keys
          16   u64 n_label_entries
          24   u64 n_label_order
          32   zero padding to 64
          64   columns of repro.core.serialization.COLUMN_NAMES, in
               order, each starting at the next 64-byte boundary with
               the dtype/length given by COLUMN_DTYPES/column_lengths

The total size is a pure function of the three header scalars, so
truncation is detected by a size check before anything is mapped; the
manifest carries a blake2b checksum of the whole file, verified once on
the first *bulk* access (:meth:`MmapShardFile.columns` — warm-start,
whole-store walks; bit flips raise by name, and the verification
pass doubles as a page-cache prefault).  The cold sidecar search and
label reads touch a handful of rows through
:meth:`MmapShardFile.peek_columns`
after the structural checks alone, so a cold miss-heavy batch faults in
kilobytes rather than checksumming whole shards.  Integer columns are
stored at full width — narrowing would force the reader to copy,
defeating the layout.
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import Dict, Optional

import numpy as np

from repro.core.serialization import (
    COLUMN_DTYPES,
    COLUMN_NAMES,
    column_lengths,
)

MMAP_MAGIC = b"EFDMMAP1"
_ALIGN = 64
#: magic + n_keys + n_label_entries + n_label_order
_HEADER = struct.Struct("<8sQQQ")


def mmap_filename(index: int, generation: int = 0) -> str:
    """Shard file name; generations > 0 get a distinguishing suffix.

    Compaction rewrites the base under *new* names and commits the
    switch with one atomic manifest replace — a crash mid-rewrite can
    therefore never mix new shard bytes with a manifest that expects
    the old checksums.
    """
    if generation:
        return f"shard-{index:02d}.g{generation}.mmap"
    return f"shard-{index:02d}.mmap"


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _layout(n_keys: int, n_label_entries: int, n_label_order: int):
    """(name, offset, length, dtype) per column, plus the total file size."""
    lengths = column_lengths(n_keys, n_label_entries, n_label_order)
    plan = []
    offset = _aligned(_HEADER.size)
    for name in COLUMN_NAMES:
        dtype = np.dtype(COLUMN_DTYPES[name])
        plan.append((name, offset, lengths[name], dtype))
        offset = _aligned(offset + lengths[name] * dtype.itemsize)
    return plan, offset


def write_mmap_shard(path: str, columns: Dict[str, np.ndarray]) -> str:
    """Write one shard's columns as a raw aligned file; returns checksum.

    The checksum (blake2b-16 over the full file bytes, computed while
    writing) goes into the directory manifest — the file itself stays
    byte-addressable with no trailer to skip.
    """
    n_keys = len(columns["node"]) if "node" in columns else 0
    n_entries = len(columns["label_ids"])
    n_order = len(columns["label_order"])
    plan, total = _layout(n_keys, n_entries, n_order)
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "wb") as fh:
        cursor = 0

        def emit(data: bytes) -> None:
            nonlocal cursor
            fh.write(data)
            digest.update(data)
            cursor += len(data)

        emit(_HEADER.pack(MMAP_MAGIC, n_keys, n_entries, n_order))
        for name, offset, length, dtype in plan:
            if offset > cursor:
                emit(b"\x00" * (offset - cursor))
            array = np.ascontiguousarray(columns[name], dtype=dtype)
            if len(array) != length:
                raise ValueError(
                    f"column {name!r} holds {len(array)} elements, "
                    f"expected {length}"
                )
            emit(array.tobytes())
        if total > cursor:
            emit(b"\x00" * (total - cursor))
    return digest.hexdigest()


class MmapShardFile:
    """One ``shard-NN.mmap``: mapped on demand, checksummed once.

    ``columns()`` returns zero-copy views into one shared
    :func:`numpy.memmap`.  Structural damage (missing file, bad magic,
    size/key-count mismatch) is rejected before mapping; the manifest
    checksum is verified on the first ``columns()`` call, which also
    prefaults the shard's pages.
    """

    __slots__ = ("path", "name", "checksum", "n_keys", "_columns", "_mm",
                 "_verified")

    def __init__(self, path: str, name: str, checksum: Optional[str],
                 n_keys: int):
        self.path = path
        self.name = name
        self.checksum = checksum
        self.n_keys = int(n_keys)
        self._columns: Optional[Dict[str, np.ndarray]] = None
        self._mm: Optional[np.ndarray] = None
        self._verified = False

    def columns(self) -> Dict[str, np.ndarray]:
        """The shard's parallel arrays as views over the mapping.

        The bulk accessor: the manifest checksum is verified on the
        first call (the pass doubles as a page-cache prefault), so
        every bulk read — warm-start, walks, ``_concat`` — sees
        integrity-checked bytes.
        """
        columns = self._map()
        if not self._verified:
            if self.checksum is not None:
                digest = hashlib.blake2b(memoryview(self._mm),
                                         digest_size=16)
                if digest.hexdigest() != self.checksum:
                    raise ValueError(
                        f"shard file {self.name!r} is corrupt: checksum "
                        f"mismatch (expected {self.checksum})"
                    )
            self._verified = True
        return columns

    def peek_columns(self) -> Dict[str, np.ndarray]:
        """The mapped views *without* the whole-file checksum pass.

        For the few-row cold search and label reads: structural damage
        (missing file, bad magic, truncation, key-count mismatch) is
        still rejected before mapping, but only the touched pages fault
        in — a cold 1k-batch with a handful of hits reads kilobytes,
        not the whole shard.  The checksum still runs on the first
        *bulk* access (:meth:`columns`), so a whole-store walk or
        ``warm_index`` detects media damage exactly as before.
        """
        return self._map()

    def _map(self) -> Dict[str, np.ndarray]:
        if self._columns is not None:
            return self._columns
        if not os.path.isfile(self.path):
            raise FileNotFoundError(
                f"columnar EFD is incomplete: missing shard file "
                f"{self.name!r}"
            )
        size = os.path.getsize(self.path)
        if size < _HEADER.size:
            raise ValueError(
                f"shard file {self.name!r} is corrupt: {size} bytes is "
                f"smaller than the header"
            )
        with open(self.path, "rb") as fh:
            header = fh.read(_HEADER.size)
        magic, n_keys, n_entries, n_order = _HEADER.unpack(header)
        if magic != MMAP_MAGIC:
            raise ValueError(
                f"shard file {self.name!r} is corrupt: bad magic {magic!r}"
            )
        if n_keys != self.n_keys:
            raise ValueError(
                f"shard file {self.name!r} holds {n_keys} keys but the "
                f"manifest expects {self.n_keys}"
            )
        plan, total = _layout(n_keys, n_entries, n_order)
        if size != total:
            raise ValueError(
                f"shard file {self.name!r} is corrupt: file is {size} "
                f"bytes but the header implies {total} (truncated?)"
            )
        # A plain ndarray view of the mapping (it keeps the mapping
        # alive): slicing a ``numpy.memmap`` costs several times a plain
        # slice, and labels are read one row's slice at a time.
        mm = np.memmap(self.path, dtype=np.uint8, mode="r").view(np.ndarray)
        columns: Dict[str, np.ndarray] = {}
        for name, offset, length, dtype in plan:
            view = mm[offset:offset + length * dtype.itemsize].view(dtype)
            # On little-endian hosts '<i8'/'<f8' are the native int64/
            # float64 — consumers see the usual dtypes, zero-copy.
            columns[name] = view.view(
                np.float64 if name == "value" else np.int64
            ) if dtype.isnative else view
        self._mm = mm
        self._columns = columns
        return columns
