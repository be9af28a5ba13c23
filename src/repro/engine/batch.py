"""Batch recognition: many executions against one (sharded) EFD.

The single-execution path — :func:`repro.core.matcher.match_fingerprints`
after :func:`repro.core.fingerprint.build_fingerprints` — pays Python
overhead per node (scalar interval means, per-lookup dataclass hashing)
and per execution (rebuilding the application order).  At batch scale
all of that amortizes:

- interval means are computed batch-wide: every node window of the
  batch that shares one sampler config is concatenated into a single
  matrix and reduced in one NumPy call (bit-identical to the scalar
  path: each row reduces over the same contiguous samples; rows with
  dropout are compacted per valid-sample count and reduced the same
  way, so they need no per-row scalar call either);
- rounding is vectorized (:func:`~repro.core.rounding.round_depth_array`
  mirrors the scalar function bit-for-bit);
- stored records and live sessions meet in one kernel: their
  ``(node, rounded value)`` probes resolve to integer entry handles in
  one call on the store, and an execution's verdict is computed once
  per distinct handle pattern;
- the application order for tie-breaking is computed once per batch.

The result list is element-wise equal to a sequential loop of
``match_fingerprints`` calls — property-tested across storage layouts
and shard counts in ``tests/test_engine_properties.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dictionary import ExecutionFingerprintDictionary, app_of_label
from repro.core.fingerprint import DEFAULT_INTERVAL, Fingerprint
from repro.core.matcher import MatchResult
from repro.core.rounding import round_depth_array
from repro.core.streaming import StreamSession
from repro.data.dataset import ExecutionRecord
from repro.telemetry.timeseries import TimeSeries
from repro.engine.columnar import ColumnarDictionary, Entry
from repro.engine.remote import RemoteShardBackend
from repro.engine.sharded import ShardedDictionary
from repro.engine.stats import EngineStats

AnyDictionary = Union[
    ExecutionFingerprintDictionary, ShardedDictionary, ColumnarDictionary,
    RemoteShardBackend,
]

#: A memoized verdict: the MatchResult fields, then the hit count.
_Verdict = Tuple[Tuple[str, ...], Dict[str, int], Dict[str, int], int, int, int]


def _check_metric(record: ExecutionRecord, metric: str) -> None:
    """Same guard (and message) as ``build_fingerprints``."""
    telemetry = record.telemetry
    for node in range(record.n_nodes):
        if (metric, node) in telemetry:
            return
    raise KeyError(
        f"record {record.record_id} ({record.label}) has no telemetry "
        f"for metric {metric!r}"
    )


def _gather(
    records: Sequence[ExecutionRecord], metric: str
) -> List[TimeSeries]:
    """Every (record, node) slot's series, record-major, node-minor.

    A miss raises the same ``KeyError`` as ``build_fingerprints``: the
    metric guard's when the record lacks the metric outright, else the
    one :meth:`ExecutionRecord.series` names for the missing node.
    """
    slots: List[TimeSeries] = []
    for record in records:
        telemetry = record.telemetry
        try:
            slots += [
                telemetry[(metric, node)] for node in range(record.n_nodes)
            ]
        except KeyError:
            _check_metric(record, metric)
            for node in range(record.n_nodes):
                record.series(metric, node)
    return slots


def _row_means(matrix: np.ndarray) -> np.ndarray:
    """NaN-skipping mean of each row, bit-identical to the scalar path.

    Rows with dropout are compacted — grouped by valid-sample count
    ``k`` and gathered with one boolean mask into a ``(rows, k)``
    matrix — so every row still reduces over exactly the contiguous
    samples the scalar routine would mean.  ``k == 0`` gives NaN.
    """
    means = matrix.mean(axis=1)
    poisoned = np.flatnonzero(np.isnan(means))
    if len(poisoned) == 0:
        return means
    rows = matrix[poisoned]
    valid = ~np.isnan(rows)
    counts = valid.sum(axis=1)
    for k in np.unique(counts).tolist():
        if k == matrix.shape[1]:
            continue  # no dropout: +inf and -inf met, the scalar NaN too
        group = counts == k
        if k == 0:
            means[poisoned[group]] = np.nan
        else:
            means[poisoned[group]] = (
                rows[group][valid[group]].reshape(-1, k).mean(axis=1)
            )
    return means


def _window_means(
    slots: Sequence[TimeSeries], start: float, end: float
) -> np.ndarray:
    """Interval mean per slot over ``[start, end)``; NaN where a node
    has no valid sample in the window.

    Slots sharing ``(period, t0, length)`` — the common case is one
    group for the whole batch: one cluster, one sampler config — read
    the same ``[lo:hi]`` window, which one ``np.concatenate`` of views
    turns into a single matrix.  Series the window overruns (or
    misses) defer to the scalar routine, which clips.
    """
    means = np.empty(len(slots))
    if not slots:
        return means
    head = slots[0]
    period, t0, length = head.period, head.t0, len(head.values)
    if all(
        s.period == period and s.t0 == t0 and len(s.values) == length
        for s in slots
    ):
        groups = {(period, t0, length): (slice(None), slots)}
    else:
        groups = {}
        for pos, s in enumerate(slots):
            where, members = groups.setdefault(
                (s.period, s.t0, len(s.values)), ([], [])
            )
            where.append(pos)
            members.append(s)
    for (period, t0, length), (where, members) in groups.items():
        lo = max(int(np.ceil((start - t0) / period)), 0)
        hi = int(np.ceil((end - t0) / period))
        if hi <= lo or length < hi:
            means[where] = [s.interval_mean(start, end) for s in members]
            continue
        matrix = np.concatenate([s.values[lo:hi] for s in members])
        means[where] = _row_means(matrix.reshape(len(members), hi - lo))
    return means


def _batch_rounded_means(
    records: Sequence[ExecutionRecord],
    metric: str,
    depth: int,
    start: float,
    end: float,
) -> np.ndarray:
    """Rounded interval means for every (record, node) slot, flattened.

    Slots are ordered record-major, node-minor; NaN marks a node with
    no usable fingerprint.  Bit-identical to ``round_depth`` of each
    slot's scalar ``interval_mean`` (property-tested).
    """
    means = _window_means(_gather(records, metric), start, end)
    return round_depth_array(means, depth)


def _slot_nodes(records: Sequence[ExecutionRecord]) -> np.ndarray:
    """Node id per (record, node) slot, in :func:`_batch_rounded_means`
    order."""
    counts = np.fromiter(
        (r.n_nodes for r in records), dtype=np.int64, count=len(records)
    )
    firsts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        firsts, counts
    )


def build_fingerprints_batch(
    records: Sequence[ExecutionRecord],
    metric: str,
    depth: int,
    interval: Tuple[float, float] = DEFAULT_INTERVAL,
) -> List[List[Optional[Fingerprint]]]:
    """Vectorized :func:`~repro.core.fingerprint.build_fingerprints` over
    many records; element-wise identical output."""
    start, end = float(interval[0]), float(interval[1])
    values = _batch_rounded_means(records, metric, depth, start, end).tolist()
    out: List[List[Optional[Fingerprint]]] = []
    pos = 0
    for record in records:
        fps: List[Optional[Fingerprint]] = []
        for node in range(record.n_nodes):
            value = values[pos]
            pos += 1
            if value != value:  # NaN — no valid samples in the interval
                fps.append(None)
                continue
            fps.append(
                Fingerprint(
                    metric=metric, node=node, interval=(start, end), value=value
                )
            )
        out.append(fps)
    return out


class BatchRecognizer:
    """Recognize batches of executions against one dictionary.

    Parameters
    ----------
    dictionary:
        Any EFD store: a flat :class:`ExecutionFingerprintDictionary`,
        an in-memory :class:`~repro.engine.sharded.ShardedDictionary`,
        a :class:`~repro.engine.columnar.ColumnarDictionary` or a
        :class:`~repro.engine.remote.RemoteShardBackend`.
    metric / depth / interval / unknown_label:
        Fingerprint configuration, as in
        :class:`~repro.core.recognizer.EFDRecognizer`.
    """

    def __init__(
        self,
        dictionary: AnyDictionary,
        metric: str = "nr_mapped_vmstat",
        depth: int = 3,
        interval: Tuple[float, float] = DEFAULT_INTERVAL,
        unknown_label: str = "unknown",
    ):
        if len(dictionary) == 0:
            raise ValueError("cannot recognize against an empty dictionary")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        start, end = interval
        if end <= start:
            raise ValueError(f"interval end must exceed start, got {interval}")
        self.dictionary = dictionary
        self.metric = metric
        self.depth = int(depth)
        self.interval = (float(start), float(end))
        self.unknown_label = unknown_label
        self.stats = EngineStats()
        # Hits of a store without a vectorized index: (node, value) ->
        # handle into _hit_entries, valid while the store's version is.
        self._hits: Dict[Tuple[int, float], int] = {}
        self._hit_entries: List[Entry] = []
        self._hits_version: Optional[int] = None

    def warm(self) -> "BatchRecognizer":
        """Prebuild the lookup structures so the first batch pays no setup.

        A :class:`ColumnarDictionary` builds its key-hash table, which
        both batch entry points search — :class:`repro.serve.IngestService`
        warms at startup so its first micro-batch answers at
        steady-state latency.  Other stores have nothing to build: their
        hits are memoized as batches find them.  Idempotent.
        """
        if isinstance(self.dictionary, ColumnarDictionary):
            # Cold lookups would otherwise answer through the filters
            # and defer the build until a batch actually needs it.
            self.dictionary.warm_index()
        return self

    # -- batch over stored executions --------------------------------------
    def recognize_records(
        self, records: Sequence[ExecutionRecord]
    ) -> List[MatchResult]:
        """Full match detail for each record, one batched pass.

        ``results[i]`` equals the sequential
        ``match_fingerprints(dictionary, build_fingerprints(records[i], ...))``
        — ``==`` and the insertion order of ``votes`` and
        ``matched_labels`` alike.  The hot path never constructs (or
        hashes) a :class:`~repro.core.fingerprint.Fingerprint` or a
        per-node key on a columnar store: node means are reduced
        batch-wide and rounded in one vectorized call, and the whole
        probe columns go to the verdict kernel.
        """
        start, end = self.interval
        values = _batch_rounded_means(
            records, self.metric, self.depth, start, end
        )
        return self._verdicts(
            _slot_nodes(records), values, [r.n_nodes for r in records]
        )

    def predict(self, records: Sequence[ExecutionRecord]) -> List[str]:
        """Application name per record (``unknown_label`` on no match)."""
        return [
            r.prediction if r.prediction else self.unknown_label
            for r in self.recognize_records(records)
        ]

    # -- batch over live streaming sessions --------------------------------
    def recognize_sessions(
        self, sessions: Sequence[StreamSession], force: bool = False
    ) -> List[MatchResult]:
        """Verdicts for many concurrent streaming sessions in one pass.

        ``results[i]`` equals ``sessions[i].verdict()`` — but sessions
        are only read, never concluded, so callers that want the session
        object to cache its verdict keep using
        :meth:`StreamSession.verdict`.  Raises :class:`RuntimeError`
        unless every session is ready (all interval windows elapsed) or
        ``force`` is set, and :class:`ValueError` for a session built
        with another metric, depth or interval than this engine's.  This
        is the resolution primitive under
        :class:`repro.serve.IngestService`, which adds queuing,
        micro-batch coalescing, and backpressure on top.

        The batch's probes are deduplicated to its distinct keys before
        any NumPy call, and those keys go through the same verdict
        kernel as :meth:`recognize_records`.
        """
        self._check_sessions(sessions, force)
        key_of: Dict[Tuple[int, float], int] = {}
        slots: List[int] = []
        for session in sessions:
            for node, value in enumerate(session.rounded_means()):
                if value != value:  # NaN — no fingerprint on this node
                    slots.append(-2)
                else:
                    slots.append(
                        key_of.setdefault((node, value), len(key_of))
                    )
        nodes = np.array([node for node, _ in key_of], dtype=np.int64)
        values = np.array([value for _, value in key_of], dtype=np.float64)
        return self._verdicts(
            nodes, values, [s.n_nodes for s in sessions], slots
        )

    def _check_sessions(
        self, sessions: Sequence[StreamSession], force: bool
    ) -> None:
        """Refuse unready sessions (unless ``force``) and sessions whose
        fingerprint configuration differs from this engine's."""
        for i, session in enumerate(sessions):
            for field in ("metric", "depth", "interval"):
                theirs, ours = getattr(session, field), getattr(self, field)
                if theirs != ours:
                    raise ValueError(
                        f"session {session.session_id or i} has {field} "
                        f"{theirs!r}, but this engine recognizes {field} "
                        f"{ours!r}"
                    )
        if not force:
            pending = [i for i, s in enumerate(sessions) if not s.ready]
            if pending:
                raise RuntimeError(
                    f"{len(pending)} of {len(sessions)} sessions not yet "
                    f"complete (first: session {pending[0]}); pass "
                    f"force=True to decide early"
                )

    # -- the verdict kernel ------------------------------------------------
    def _verdicts(
        self,
        nodes: np.ndarray,
        values: np.ndarray,
        counts: Sequence[int],
        slots: Optional[List[int]] = None,
    ) -> List[MatchResult]:
        """One MatchResult per item of a batch; records batch stats.

        ``nodes``/``values`` are the probe key columns (a NaN value is
        a node without a fingerprint).  Without ``slots`` probe ``i`` is
        key ``i``; with them it is key ``slots[i]``, or a node without
        a fingerprint where that is ``-2``.  ``counts[j]`` is item
        ``j``'s node count: its probes are the next ``counts[j]``.
        """
        resolved, entries = self._resolve(nodes, values)
        # -2 marks a node without a fingerprint, -1 a miss.
        if slots is None:
            handles = np.where(values != values, -2, resolved).tolist()
        else:
            resolved = resolved.tolist()
            handles = [resolved[k] if k >= 0 else -2 for k in slots]
        position = {
            app: i for i, app in enumerate(self.dictionary.app_names())
        }
        n_apps = len(position)

        def tie_rank(app: str) -> int:
            return position.get(app, n_apps)

        # Repetitions of one workload collapse onto the same rounded
        # values (that is the EFD's whole pruning idea), and unknown
        # workloads onto the same misses, so identical per-node handle
        # patterns recur across a batch; their verdict is computed once
        # and re-materialized per item (fresh MatchResult with copied
        # dicts — the sequential path returns independent objects, and
        # callers may mutate votes/matched_labels in place).
        memo: Dict[Tuple[int, ...], _Verdict] = {}
        results: List[MatchResult] = []
        n_hits = 0
        pos = 0
        for n_nodes in counts:
            pattern = tuple(handles[pos : pos + n_nodes])
            pos += n_nodes
            verdict = memo.get(pattern)
            if verdict is None:
                # Inlined vote(): each matched key contributes one vote
                # per distinct application in its label list (the entry
                # precomputed that set).  Property tests pin this to the
                # canonical matcher, byte for byte.
                votes: Dict[str, int] = {}
                matched_labels: Dict[str, int] = {}
                n_missing = 0
                hits = 0
                for handle in pattern:
                    if handle < 0:
                        if handle == -2:  # no usable fingerprint here
                            n_missing += 1
                        continue
                    labels, apps = entries[handle]
                    hits += 1
                    for label in labels:
                        matched_labels[label] = matched_labels.get(label, 0) + 1
                    for app in apps:
                        votes[app] = votes.get(app, 0) + 1
                if votes:
                    top = max(votes.values())
                    tied = [a for a, c in votes.items() if c == top]
                    if len(tied) > 1:
                        tied.sort(key=tie_rank)
                    ranked = tuple(tied)
                else:
                    ranked = ()
                verdict = memo[pattern] = (
                    ranked, votes, matched_labels, n_nodes - n_missing,
                    n_missing, hits,
                )
            ranked, votes, matched_labels, n_fingerprints, n_missing, hits = (
                verdict
            )
            n_hits += hits
            # MatchResult's field order, positionally (keyword parsing
            # costs a third of the construction on this hot path).
            results.append(MatchResult(
                ranked, dict(votes), dict(matched_labels), n_fingerprints,
                n_missing,
            ))
        self._record_stats(results, n_hits)
        return results

    def _resolve(
        self, nodes: np.ndarray, values: np.ndarray
    ) -> Tuple[np.ndarray, Sequence[Entry]]:
        """Entry handle per probe key (``-1`` for a miss; NaN keys
        miss) and the ``(labels, apps)`` entries the handles index.

        A :class:`ColumnarDictionary` searches its key-hash tables
        through :meth:`~ColumnarDictionary.batch_index`.  Any other
        store gets the distinct keys it has not memoized in one
        ``lookup_many`` call, and its hits stay memoized until its
        ``version`` moves — except a :class:`RemoteShardBackend`, whose
        version does not see other clients' writes: it is asked every
        batch.
        """
        store = self.dictionary
        if isinstance(store, ColumnarDictionary):
            resolved = store.batch_index(
                self.metric, self.interval
            ).resolve_probes(nodes, values)
            return resolved.handles, resolved.entries
        version = store.version
        if version != self._hits_version or isinstance(
            store, RemoteShardBackend
        ):
            self._hits, self._hit_entries = {}, []
            self._hits_version = version
        hits, entries = self._hits, self._hit_entries
        keys = list(zip(nodes.tolist(), values.tolist()))
        new = [
            key for key in dict.fromkeys(keys)
            if key[1] == key[1] and key not in hits
        ]
        if new:
            metric, interval = self.metric, self.interval
            found = store.lookup_many([
                Fingerprint(metric, node, interval, value)
                for node, value in new
            ])
            for key, labels in zip(new, found):
                if labels:
                    hits[key] = len(entries)
                    entries.append((
                        labels, tuple(dict.fromkeys(map(app_of_label, labels)))
                    ))
        get = hits.get
        return np.array([get(key, -1) for key in keys], np.int64), entries

    def _record_stats(self, results: Sequence[MatchResult], n_hits: int) -> None:
        shard_sizes = getattr(self.dictionary, "shard_sizes", None)
        occupancy = shard_sizes() if shard_sizes else [len(self.dictionary)]
        self.stats.record_batch(results, n_hits, shard_occupancy=occupancy)

    def __repr__(self) -> str:
        kind = type(self.dictionary).__name__
        return (
            f"BatchRecognizer({kind}, metric={self.metric!r}, "
            f"depth={self.depth})"
        )
