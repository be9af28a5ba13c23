"""Slab session table: every active live session as one row of arrays.

:class:`~repro.serve.service.IngestService` routes each
:class:`~repro.serve.stream.SampleBlock` into this table in one
vectorized step instead of one
:meth:`~repro.core.streaming.StreamSession.ingest` call per sample.  A
row holds one active session: a run of node slots (the interval sum,
the in-interval sample count and whether the node's clock has passed
the interval end), plus the row's node count, crossed-node count,
folded-sample count and last activity.

The fold is the per-sample feed, bit for bit.  ``np.add.at`` is
unbuffered and applies its additions in index order, so each node's sum
is the same left-to-right float sum that ``ingest`` builds; readiness,
lateness and bad-rank errors are decided at the same sample the
per-sample feed decides them.  A session leaves the table when it turns
ready, is forced, evicted or errors; :meth:`SessionSlab.store` then
writes its row into its :class:`~repro.core.streaming.StreamSession`.
"""

from __future__ import annotations

import operator
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.streaming import StreamSession

#: One session leaving the table mid-block: its row and ``None`` when it
#: turned ready, or the error of the sample that failed it.
Exit = Tuple[int, Optional[Exception]]


class SessionSlab:
    """Active sessions as rows of per-node slots (see the module docs).

    Rows are recycled through a free list and the slot pool is handed
    out bump-pointer style; when it runs out it is compacted, and grown
    geometrically only while live slots fill more than half of it.  Both
    are sized by active sessions, never by samples.  Every per-row array
    ends in one sentinel entry, so that row -1 — a sample with no active
    session — indexes it: its limit is -1, so such a sample is never
    folded.
    """

    def __init__(self, interval: Tuple[float, float], rows: int = 64):
        self.start, self.end = (float(x) for x in interval)
        self.index: Dict[str, int] = {}  # job -> row of its active session
        self.jobs: List[Optional[str]] = []
        self._free: List[int] = []
        self.base = np.zeros(1, np.int64)      # first slot of each row
        self.width = np.full(1, -1, np.int64)  # node count of each row
        # Per row: the block position past its last sample to fold.
        self.limit = np.full(1, -1, np.int64)
        self.n_crossed = np.zeros(1, np.int64)
        self.n_samples = np.zeros(1, np.int64)
        self.last = np.zeros(1)                # loop time of last fold
        self.live = np.zeros(1, bool)
        self.sums = np.zeros(4 * rows)
        self.counts = np.zeros(4 * rows, np.int64)
        self.crossed = np.zeros(4 * rows, bool)
        self._top = 0                          # slots handed out so far
        self._k = np.arange(0)                 # block positions
        self._grow_rows(rows)

    # -- rows -------------------------------------------------------------
    def add(self, job: str, n_nodes: int, now: float) -> int:
        """Give ``job`` a zeroed row of ``n_nodes`` slots; returns it."""
        if not self._free:
            self._grow_rows(len(self.jobs))
        if self._top + n_nodes > len(self.sums):
            self._make_room(n_nodes)
        row = self._free.pop()
        # Slots past the top are still zero: they were never handed out
        # since the pool was last (re)allocated.
        lo = self._top
        self._top = lo + n_nodes
        self.base[row] = lo
        self.width[row] = n_nodes
        self.limit[row] = _NO_LIMIT
        self.n_crossed[row] = 0
        self.n_samples[row] = 0
        self.last[row] = now
        self.live[row] = True
        self.index[job] = row
        self.jobs[row] = job
        return row

    def remove(self, row: int) -> None:
        """Free ``row`` (its slots are reclaimed by the next compaction)."""
        self.live[row] = False
        del self.index[self.jobs[row]]
        self.jobs[row] = None
        self._free.append(row)

    def store(self, row: int, session: StreamSession) -> None:
        """Write ``row``'s accumulators into ``session``, in place."""
        lo = self.base[row]
        hi = lo + self.width[row]
        session.restore(
            self.sums[lo:hi].tolist(), self.counts[lo:hi].tolist(),
            self.crossed[lo:hi].tolist(), int(self.n_samples[row]),
        )

    def idle(self, now: float, timeout: float) -> List[str]:
        """Jobs whose rows have folded nothing for ``timeout`` or more."""
        stale = np.flatnonzero(self.live & (now - self.last >= timeout))
        return [self.jobs[row] for row in stale.tolist()]

    def _grow_rows(self, extra: int) -> None:
        n = len(self.jobs)
        for name in ("base", "width", "limit", "n_crossed", "n_samples",
                     "last", "live"):
            old = getattr(self, name)
            new = np.zeros(n + extra + 1, old.dtype)
            new[:n] = old[:n]
            new[-1] = old[-1]  # the sentinel row
            setattr(self, name, new)
        self.jobs += [None] * extra
        self._free += range(n + extra - 1, n - 1, -1)  # lowest row first

    def _make_room(self, n_nodes: int) -> None:
        """Compact the live rows' slots to the front of the pool, growing
        it first while they would fill more than half of it."""
        rows = np.flatnonzero(self.live)
        width = self.width[rows]
        used = int(width.sum())
        size = len(self.sums)
        while 2 * (used + n_nodes) > size:
            size *= 2
        base = np.cumsum(width) - width
        src = np.arange(used) + np.repeat(self.base[rows] - base, width)
        for name in ("sums", "counts", "crossed"):
            old = getattr(self, name)
            new = np.zeros(size, old.dtype)
            new[:used] = old[src]
            setattr(self, name, new)
        self.base[rows] = base
        self._top = used

    # -- routing ----------------------------------------------------------
    def fold(self, rows: np.ndarray, nodes: Sequence, times: Sequence[float],
             values: Sequence[float], now: float) -> Tuple[List[Exit], int]:
        """Fold one block into the table, as a per-sample feed would.

        ``rows`` gives each sample's row, -1 for a sample with no active
        session (late).  In stream order within each row: samples up to
        the one that completes the row's readiness are folded and the
        rest are late.  A bad sample (a node rank that is not an integer
        in ``[0, n_nodes)``, a time or value that is not a number; None
        reads as NaN, as the wire's null does) fails its row, is neither
        folded nor late, and the row's later samples are late.  Returns
        the rows that leave the table, in stream order, and the number
        of late samples.
        """
        n = len(rows)
        if not n or rows.max() < 0:
            return [], n
        if len(self._k) < n:
            self._k = np.arange(2 * n)
        k = self._k[:n]
        node, typo = _ranks(nodes)
        t, typo_t = _floats(times)
        v, typo_v = _floats(values)
        limit = self.limit
        # A negative rank wraps to a huge unsigned one: one compare
        # checks both bounds (the sentinel row's width wraps to the top).
        bad = node.view(np.uint64) >= self.width[rows].view(np.uint64)
        for mask in (typo, typo_t, typo_v):
            if mask is not None:
                bad |= mask
        errors: List[Tuple[int, int]] = []
        if bad.any():
            at = bad.nonzero()[0]
            owner = rows[at]
            keep = owner >= 0  # no session: late, not an error
            failed, first = np.unique(owner[keep], return_index=True)
            at = at[keep]
            limit[failed] = at[first]
            errors = list(zip(at[first].tolist(), failed.tolist()))
        folds = k < limit[rows]
        slot = self.base[rows] + node
        past = t >= self.end
        # Each slot's first sample at or past the interval end crosses
        # it; the crossing of a row's last uncrossed slot makes the row
        # ready, and its later samples late.  Crossings are at most one
        # per node per session, so they are walked one by one; samples of
        # slots crossed in earlier blocks are dropped first.
        at = (past & folds).nonzero()[0]
        ready: List[Tuple[int, int]] = []
        if len(at):
            at = at[~self.crossed[slot[at]]]
            crossed = self.crossed
            n_crossed = self.n_crossed
            width = self.width
            for p, s, row in zip(at.tolist(), slot[at].tolist(),
                                 rows[at].tolist()):
                if crossed[s]:  # crossed earlier in this block
                    continue
                crossed[s] = True
                n_crossed[row] += 1
                if n_crossed[row] == width[row]:
                    limit[row] = p + 1
                    ready.append((p, row))
            if ready:
                folds = k < limit[rows]
        held = rows[folds]
        np.add.at(self.n_samples, held, 1)
        self.last[held] = now
        window = folds & (t >= self.start) & ~past & (v == v)
        into = slot[window]
        np.add.at(self.sums, into, v[window])
        np.add.at(self.counts, into, 1)
        exits: List[Tuple[int, int, Optional[Exception]]] = [
            (p, row, None) for p, row in ready
        ]
        if errors:
            readied = {row for _, row in ready}
            for p, row in errors:
                if row not in readied:
                    exits.append((p, row, _sample_error(
                        nodes[p], times[p], values[p], int(self.width[row])
                    )))
            exits.sort(key=lambda e: e[0])
        n_late = n - len(held) - (len(exits) - len(ready))
        return [(row, exc) for _, row, exc in exits], n_late


_NO_LIMIT = np.iinfo(np.int64).max


def _ranks(nodes: Sequence) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Node ranks as an int64 array, and a mask of the entries that are
    not integers (``None`` when all are).  A non-integer is never
    truncated: ``ingest`` rejects it, so routing must too."""
    try:  # array('q') takes integers (bools, numpy ints) only
        return np.frombuffer(array("q", nodes), np.int64), None
    except (TypeError, OverflowError):
        pass
    n = len(nodes)
    ranks = np.zeros(n, np.int64)
    typo = np.zeros(n, bool)
    for i, node in enumerate(nodes):
        try:
            rank = operator.index(node)
        except TypeError:
            typo[i] = True
            continue
        ranks[i] = rank if 0 <= rank < 1 << 62 else -1
    return ranks, typo


def _floats(items: Sequence) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``items`` as a float64 array, and a mask of the entries that are
    not numbers (``None`` when all are; None reads as NaN, as the wire's
    null does)."""
    n = len(items)
    try:
        return np.fromiter(items, np.float64, n), None
    except (TypeError, ValueError, OverflowError):
        pass
    out = np.full(n, np.nan)
    typo = np.zeros(n, bool)
    for i, item in enumerate(items):
        try:
            out[i] = np.nan if item is None else float(item)
        except (TypeError, ValueError, OverflowError):
            typo[i] = True
    return out, typo


def _sample_error(node, time, value, n_nodes: int) -> Exception:
    """The error that fails a session at its bad sample: for a bad node
    rank, the one ``ingest`` raises (range first, then type)."""
    try:
        if node < 0 or node >= n_nodes:
            return ValueError(f"node {node} outside [0, {n_nodes})")
    except TypeError:
        pass
    try:
        operator.index(node)
    except TypeError:
        return TypeError(f"node rank must be an integer, got {node!r}")
    return TypeError(
        f"sample time and value must be numbers, got {time!r}, {value!r}"
    )
