"""Write-ahead mutation delta-log for columnar EFD directories.

The columnar backend's vectorized lookup index is built from immutable
column arrays; the delta-log is its only write path, and keeps writes
first-class:

- every mutation (``add`` / ``add_repeated`` / ``register_label``)
  **appends** one JSONL record to ``delta-log.jsonl`` inside the
  directory (the write-ahead half) and folds into a small in-memory
  **overlay** dictionary (the serving half);
- reads answer from ``base ∪ overlay``: the base column caches and the
  key-hash table stay hot forever, and the overlay's few keys get a
  small key-hash table of their own (re-sorted when a key is added;
  each key's merged entry is updated by its own write) — a trickle of
  new learnings never costs the vectorized path.  The overlay's table
  is searched whatever the per-shard negative-lookup filters say, so a
  key learned after the last compaction can never be filtered out;
- **compaction** folds the log back into the base ``shard-NN.mmap``
  files, with the filter sidecars rebuilt alongside, and truncates
  it.  It triggers on a pending-record threshold
  (:attr:`DeltaLog.max_pending`), explicitly via ``efd engine compact``,
  or at serve shutdown (``ServeConfig.compact_on_close``).

Crash safety is generation-based: the columnar manifest carries a
``delta_generation`` counter and every log segment opens with a header
record naming the generation it was written against.  Compaction writes
the folded base with the generation advanced *before* removing the log,
so a crash between the two leaves a segment whose generation no longer
matches — recognized as already-folded on the next load and discarded
instead of double-applied.  A torn final record (crash mid-append) is
dropped; any other malformed record is corruption and raises
:class:`ValueError` naming the file.

Layout of one record (one JSON object per line)::

    {"op": "open", "generation": 3}                   # segment header
    {"op": "label", "label": "sp_X"}                  # order-only registration
    {"op": "add", "metric": "nr_mapped_vmstat",
     "node": 2, "interval": [60.0, 120.0],
     "value": 5300.0, "label": "sp_X", "count": 1}    # one observation
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterator, List, Optional, Tuple

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint
from repro.core.serialization import (
    fingerprint_from_record,
    fingerprint_to_record,
)

#: File name of the delta-log segment inside a columnar directory.
SEGMENT_NAME = "delta-log.jsonl"

#: Pending-record count at which the owning store auto-compacts.
DEFAULT_MAX_PENDING = 100_000


class SegmentReadError(OSError):
    """A delta-log segment *exists* but cannot be read.

    Distinct from the two states readers already handle: "no segment"
    (a clean directory — :func:`pending_records` returns 0) and "corrupt
    segment" (parseable bytes that are not valid records —
    :class:`ValueError` naming the file).  This one is an I/O failure on
    a present file — permissions stripped, the path occupied by a
    directory, media errors — where silently answering 0 would let a
    replica under-report its position or a compaction drop durable
    records.  Callers must surface it, not swallow it.
    """

    def __init__(self, path: str, cause: BaseException):
        self.path = path
        super().__init__(
            f"delta-log {os.path.basename(path)!r} exists but cannot be "
            f"read: {cause}"
        )


def segment_path(directory: str) -> str:
    """Path of the delta-log segment inside ``directory``."""
    return os.path.join(directory, SEGMENT_NAME)


def pending_records(directory: str, generation: int = 0) -> int:
    """Number of unfolded mutation records in ``directory``'s segment.

    0 when no segment exists, when it is empty, or when its header names
    a different generation (a stale segment already folded into the
    base — see the module docstring's crash-safety note).  A segment
    that is present but unreadable raises :class:`SegmentReadError`
    rather than masquerading as clean.
    """
    path = segment_path(directory)
    if not os.path.exists(path):
        return 0
    n = 0
    try:
        for record in _read_records(path):
            if record.get("op") == "open":
                if int(record.get("generation", 0)) != generation:
                    return 0
                continue
            n += 1
    except ValueError:
        # A corrupt segment still *pends* — the load path will raise
        # the detailed error; callers here only need "not clean".
        return max(n, 1)
    return n


def _read_records(path: str) -> Iterator[dict]:
    """Parsed records of one segment; a torn final line is dropped.

    A record that fails to parse mid-file — or a final one that was
    properly newline-terminated — is corruption, raised as
    :class:`ValueError` naming the file.  Only an unterminated final
    fragment (the artifact of a crash mid-append) is silently ignored.
    An I/O failure on a file that *exists* (permissions, a directory
    squatting on the path) is a :class:`SegmentReadError` — callers
    that tolerate a missing segment must not mistake unreadable for
    absent.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise  # absent is a state callers handle; unreadable is not
    except OSError as exc:
        raise SegmentReadError(path, exc) from exc
    lines = text.split("\n")
    terminated = text.endswith("\n")
    if terminated:
        lines = lines[:-1]  # trailing empty piece after the final \n
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        last = i == len(lines) - 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if last and not terminated:
                return  # torn tail: crash mid-append, not corruption
            raise ValueError(
                f"delta-log {os.path.basename(path)!r} is corrupt at "
                f"line {i + 1}: {exc}"
            ) from exc
        if not isinstance(record, dict) or "op" not in record:
            raise ValueError(
                f"delta-log {os.path.basename(path)!r} is corrupt at "
                f"line {i + 1}: not a record object"
            )
        yield record


def _fingerprint_of(record: dict, path: str, line_hint: str) -> Fingerprint:
    try:
        return fingerprint_from_record(record)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValueError(
            f"delta-log {os.path.basename(path)!r} is corrupt "
            f"({line_hint}): bad add record: {exc}"
        ) from exc


class DeltaLog:
    """One columnar directory's mutation log: JSONL segment + overlay.

    The overlay is a plain flat
    :class:`~repro.core.dictionary.ExecutionFingerprintDictionary`
    holding exactly the observations appended since the last compaction
    — *incremental* counts, not merged state; readers combine it with
    the base columns.  The segment file is opened lazily on the first
    append (so a read-only deployment never needs write access) and
    every append is flushed, so the log is as durable as the filesystem
    allows without fsync.
    """

    __slots__ = ("directory", "path", "generation", "max_pending",
                 "overlay", "n_records", "_fh")

    def __init__(self, directory: str, generation: int = 0,
                 max_pending: int = DEFAULT_MAX_PENDING):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.directory = directory
        self.path = segment_path(directory)
        self.generation = int(generation)
        self.max_pending = int(max_pending)
        self.overlay = ExecutionFingerprintDictionary()
        self.n_records = 0
        self._fh: Optional[IO[str]] = None

    # -- replay ---------------------------------------------------------------
    def replay(self) -> List[Tuple[Fingerprint, str, int]]:
        """Load the on-disk segment into the overlay (called at open).

        Returns the (fingerprint, label, count) adds in append order so
        the owning store can refresh its own bookkeeping (new-key
        tracking, global orders).  A segment whose header names a
        different generation was already folded by a compaction that
        crashed before removing it: it is deleted and ignored.
        """
        if not os.path.exists(self.path):
            return []
        applied: List[Tuple[Fingerprint, str, int]] = []
        records = []
        stale = False
        for record in _read_records(self.path):
            if record.get("op") == "open":
                if int(record.get("generation", 0)) != self.generation:
                    stale = True
                    break
                continue
            records.append(record)
        if stale:
            os.remove(self.path)
            return []
        for i, record in enumerate(records):
            op = record["op"]
            if op == "label":
                self.overlay.register_label(str(record["label"]))
            elif op == "add":
                fp = _fingerprint_of(record, self.path, f"record {i + 1}")
                count = int(record.get("count", 1))
                label = str(record["label"])
                self.overlay.add_repeated(fp, label, count)
                applied.append((fp, label, count))
            else:
                raise ValueError(
                    f"delta-log {SEGMENT_NAME!r} is corrupt: unknown op "
                    f"{op!r}"
                )
            self.n_records += 1
        return applied

    # -- appending ------------------------------------------------------------
    def _writer(self) -> IO[str]:
        if self._fh is None:
            fresh = not os.path.isfile(self.path) or \
                os.path.getsize(self.path) == 0
            self._fh = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._fh.write(json.dumps(
                    {"op": "open", "generation": self.generation}
                ) + "\n")
                self._fh.flush()
        return self._fh

    def append_add(self, fingerprint: Fingerprint, label: str,
                   count: int) -> None:
        """Log + overlay one ``add_repeated(fingerprint, label, count)``."""
        # Validate before touching the segment: a rejected observation
        # must not leave a record behind (same checks the overlay's
        # add_repeated would raise, pulled ahead of the write).
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if not label:
            raise ValueError("label must be non-empty")
        fh = self._writer()
        record = {"op": "add"}
        record.update(fingerprint_to_record(fingerprint))
        record["label"] = label
        record["count"] = int(count)
        fh.write(json.dumps(record) + "\n")
        fh.flush()
        self.overlay.add_repeated(fingerprint, label, count)
        self.n_records += 1

    def append_label(self, label: str) -> None:
        """Log + overlay one order-only ``register_label(label)``."""
        if not label:
            raise ValueError("label must be non-empty")
        fh = self._writer()
        fh.write(json.dumps({"op": "label", "label": label}) + "\n")
        fh.flush()
        self.overlay.register_label(label)
        self.n_records += 1

    # -- state ----------------------------------------------------------------
    @property
    def pending(self) -> bool:
        """True while unfolded records exist."""
        return self.n_records > 0

    @property
    def over_threshold(self) -> bool:
        """True when the pending count warrants an auto-compaction."""
        return self.n_records >= self.max_pending

    def clear(self) -> None:
        """Drop the segment and reset the overlay (post-compaction)."""
        self.close()
        if os.path.isfile(self.path):
            os.remove(self.path)
        self.overlay = ExecutionFingerprintDictionary()
        self.n_records = 0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:
        return (
            f"DeltaLog(directory={self.directory!r}, "
            f"generation={self.generation}, pending={self.n_records})"
        )
