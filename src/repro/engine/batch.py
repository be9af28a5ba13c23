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
- stored records resolve every ``(node, value)`` probe of the batch to
  an integer entry handle in one call, and a record's verdict is
  computed once per distinct handle pattern;
- duplicate fingerprints across the batch are looked up once, and the
  unique-key lookups fan out shard-parallel via
  :func:`repro.parallel.pool.parallel_map`;
- the application order for tie-breaking is computed once per batch.

The result list is element-wise equal to a sequential loop of
``match_fingerprints`` calls — property-tested across shard counts and
pool backends in ``tests/test_engine_properties.py``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dictionary import ExecutionFingerprintDictionary, app_of_label
from repro.core.fingerprint import DEFAULT_INTERVAL, Fingerprint
from repro.core.matcher import MatchResult, vote
from repro.core.rounding import round_depth_array
from repro.core.streaming import StreamSession
from repro.data.dataset import ExecutionRecord
from repro.telemetry.timeseries import TimeSeries
from repro.engine.columnar import (
    ColumnarBatchIndex,
    ColumnarDictionary,
    ResolvedProbes,
)
from repro.engine.remote import RemoteShardBackend
from repro.engine.sharded import ShardedDictionary, shard_index
from repro.engine.stats import EngineStats
from repro.parallel.partition import chunk_evenly
from repro.parallel.pool import parallel_map

AnyDictionary = Union[ExecutionFingerprintDictionary, ShardedDictionary]

#: The batch lookup table: (node, value) -> (label list, distinct apps).
TupleIndex = Dict[Tuple[int, float], Tuple[List[str], Tuple[str, ...]]]

#: A memoized record verdict: the MatchResult fields, then the hit count.
_Verdict = Tuple[Tuple[str, ...], Dict[str, int], Dict[str, int], int, int, int]


def _shard_tuple_index(
    task: Tuple[AnyDictionary, str, Tuple[float, float]]
) -> TupleIndex:
    """(node, value) -> (label list, distinct apps) for one store's keys
    of one (metric, interval) — the engine's O(1) batch lookup table.

    The per-key app tuple precomputes what ``vote()`` would re-derive
    for every lookup: the applications this key's labels span, deduped.
    """
    store, metric, interval = task
    index: TupleIndex = {}
    for fp, labels in store.entries():
        if fp.metric == metric and fp.interval == interval:
            apps = tuple(dict.fromkeys(app_of_label(l) for l in labels))
            index[(fp.node, fp.value)] = (labels, apps)
    return index


def _lookup_chunk(
    task: Tuple[AnyDictionary, List[Fingerprint]]
) -> List[List[str]]:
    """Look a chunk of unique fingerprints up in one store (pool worker)."""
    store, fps = task
    return [store.lookup(fp) for fp in fps]


def _batch_lookup(
    dictionary: AnyDictionary,
    unique: List[Fingerprint],
    backend: str,
    n_workers: Optional[int],
    stats: Optional[EngineStats] = None,
) -> Dict[Fingerprint, List[str]]:
    """Resolve each unique fingerprint to its label list.

    For a columnar store the whole batch resolves vectorized against the
    column arrays (``base ∪ delta overlay``) — no shard is hydrated and
    no pool is spun up.  For a sharded store the work units are the
    shards themselves (each worker queries only the shard that owns its
    keys); a flat store is split into even chunks.
    """
    overlay_keys: frozenset = frozenset()
    if isinstance(dictionary, RemoteShardBackend):
        # Remote stores must never fall through to per-key lookups (one
        # round trip per key): probe_many IS the batch path — a parallel
        # scatter/gather with the resilience layer around every call.
        label_lists = dictionary.lookup_many(unique)
        return dict(zip(unique, label_lists))
    if isinstance(dictionary, ColumnarDictionary):
        label_lists = dictionary.lookup_many(unique)
        if label_lists is not None:
            return dict(zip(unique, label_lists))
        # A shard was mutated behind the delta-log (or the rank space
        # overflowed): fall through to the generic shard-bucket path,
        # which sees the live shard state — and count the demotion so
        # `efd engine info --stats` surfaces the lost fast path.
        if stats is not None:
            stats.record_index_demotion()
        # The shard buckets below cannot see pending overlay keys;
        # their slots are patched from the merged point path after.
        overlay_keys = frozenset(dictionary.overlay_keys())
    if isinstance(dictionary, ShardedDictionary):
        buckets: List[List[Fingerprint]] = [
            [] for _ in range(dictionary.n_shards)
        ]
        for fp in unique:
            buckets[shard_index(fp, dictionary.n_shards)].append(fp)
        tasks = [
            (dictionary.shards[i], bucket)
            for i, bucket in enumerate(buckets)
            if bucket
        ]
    else:
        tasks = [
            (dictionary, chunk) for chunk in chunk_evenly(unique, _n_tasks(n_workers))
        ]
    label_lists = parallel_map(
        _lookup_chunk, tasks, backend=backend, n_workers=n_workers
    )
    table: Dict[Fingerprint, List[str]] = {}
    for (_, fps), labels in zip(tasks, label_lists):
        for fp, found in zip(fps, labels):
            table[fp] = found
    if overlay_keys:
        for fp in unique:
            if fp in overlay_keys:
                table[fp] = dictionary.lookup(fp)  # merged live state
    return table


def _n_tasks(n_workers: Optional[int]) -> int:
    if n_workers is not None:
        return max(n_workers, 1)
    return max(os.cpu_count() or 1, 1)


def match_fingerprints_batch(
    dictionary: AnyDictionary,
    fingerprint_lists: Sequence[Sequence[Optional[Fingerprint]]],
    backend: str = "serial",
    n_workers: Optional[int] = None,
    stats: Optional[EngineStats] = None,
) -> Tuple[List[MatchResult], int]:
    """Match many executions' fingerprints in one pass.

    Returns ``(results, n_hits)`` where ``results[i]`` equals
    ``match_fingerprints(dictionary, fingerprint_lists[i])`` and
    ``n_hits`` counts lookups (fingerprint occurrences) that matched at
    least one label.  ``stats``, when given, receives the
    index-demotion counter (the only stat this function can observe
    that its caller cannot).
    """
    unique: Dict[Fingerprint, None] = {}
    for fps in fingerprint_lists:
        for fp in fps:
            if fp is not None:
                unique.setdefault(fp, None)
    table = _batch_lookup(dictionary, list(unique), backend, n_workers, stats)
    position = {app: i for i, app in enumerate(dictionary.app_names())}
    results: List[MatchResult] = []
    n_hits = 0
    for fps in fingerprint_lists:
        lookups: List[List[str]] = []
        matched_labels: Dict[str, int] = {}
        n_missing = 0
        n_fingerprints = 0
        for fp in fps:
            if fp is None:
                n_missing += 1
                continue
            n_fingerprints += 1
            labels = table[fp]
            lookups.append(labels)
            if labels:
                n_hits += 1
                for label in labels:
                    matched_labels[label] = matched_labels.get(label, 0) + 1
        ranked, votes = vote(lookups, position=position)
        results.append(
            MatchResult(
                ranked=ranked,
                votes=votes,
                matched_labels=matched_labels,
                n_fingerprints=n_fingerprints,
                n_missing=n_missing,
            )
        )
    return results, n_hits


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


def _dict_resolve(
    table: TupleIndex, nodes: np.ndarray, values: np.ndarray
) -> ResolvedProbes:
    """Resolve a batch's probes against the generic dict index, handing
    out one handle per distinct hit key (NaN probes miss)."""
    handles = np.full(len(values), -1, dtype=np.int64)
    handle_of: Dict[Tuple[int, float], int] = {}
    entries: Dict[int, Tuple[List[str], Tuple[str, ...]]] = {}
    get = table.get
    for i, probe in enumerate(zip(nodes.tolist(), values.tolist())):
        handle = handle_of.get(probe)
        if handle is None:
            entry = get(probe)
            if entry is None:
                continue
            handle = handle_of[probe] = len(entries)
            entries[handle] = entry
        handles[i] = handle
    return ResolvedProbes(handles, entries, nodes, values)


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
        A flat :class:`ExecutionFingerprintDictionary` or a
        :class:`~repro.engine.sharded.ShardedDictionary`.
    metric / depth / interval / unknown_label:
        Fingerprint configuration, as in
        :class:`~repro.core.recognizer.EFDRecognizer`.
    backend / n_workers:
        :func:`~repro.parallel.pool.parallel_map` configuration for the
        shard fan-out (``"serial"``, ``"thread"``, or ``"process"``).
    """

    def __init__(
        self,
        dictionary: AnyDictionary,
        metric: str = "nr_mapped_vmstat",
        depth: int = 3,
        interval: Tuple[float, float] = DEFAULT_INTERVAL,
        unknown_label: str = "unknown",
        backend: str = "serial",
        n_workers: Optional[int] = None,
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
        self.backend = backend
        self.n_workers = n_workers
        self.stats = EngineStats()
        self._index: Optional[Union[TupleIndex, ColumnarBatchIndex]] = None
        self._index_version: Optional[int] = None

    def warm(self, for_sessions: bool = False) -> "BatchRecognizer":
        """Prebuild the lookup structures so the first batch pays no setup.

        The two batch entry points resolve through different indexes:
        :meth:`recognize_records` probes the ``(node, value)`` tuple (or
        columnar) index, while :meth:`recognize_sessions` resolves full
        fingerprint keys.  ``for_sessions`` selects which path to warm —
        :class:`repro.serve.IngestService` warms the session path at
        startup so its first micro-batch answers at steady-state
        latency.  Idempotent; a no-op where the requested path has no
        prebuildable structure (flat/sharded stores answer sessions
        through plain dict lookups already).
        """
        if for_sessions:
            if isinstance(self.dictionary, ColumnarDictionary):
                # Explicitly build the full-key index: cold lookups
                # would otherwise answer through the negative-lookup
                # filters and defer the build until a batch actually
                # needs it.
                self.dictionary.warm_index()
        else:
            if isinstance(self.dictionary, ColumnarDictionary):
                # On a filtered store the index would otherwise wait
                # behind its filter guard for the first batch with a
                # surviving probe — and that batch would pay the build.
                self.dictionary.warm_batch_index(self.metric, self.interval)
            self._tuple_index()
        return self

    @classmethod
    def from_recognizer(
        cls,
        recognizer,
        n_shards: int = 1,
        backend: str = "serial",
        n_workers: Optional[int] = None,
    ) -> "BatchRecognizer":
        """Bind to a fitted :class:`~repro.core.recognizer.EFDRecognizer`.

        ``n_shards > 1`` re-partitions the learned dictionary into a
        :class:`~repro.engine.sharded.ShardedDictionary` first.
        """
        recognizer._check_fitted()
        dictionary: AnyDictionary = recognizer.dictionary_
        if n_shards > 1:
            dictionary = ShardedDictionary.from_flat(dictionary, n_shards)
        return cls(
            dictionary=dictionary,
            metric=recognizer.metric,
            depth=recognizer.depth_,
            interval=recognizer.interval,
            unknown_label=recognizer.unknown_label,
            backend=backend,
            n_workers=n_workers,
        )

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
        per-node key: node means are reduced batch-wide and rounded in
        one vectorized call, every ``(node, value)`` probe resolves to
        an integer entry handle through the lookup table (built once
        and cached until the dictionary changes), and each record's
        verdict is memoized on its handle pattern.
        """
        start, end = self.interval
        value_array = _batch_rounded_means(
            records, self.metric, self.depth, start, end
        )
        node_array = _slot_nodes(records)
        table = self._tuple_index()
        if isinstance(table, ColumnarBatchIndex):
            resolved = table.resolve_probes(node_array, value_array)
        else:
            resolved = _dict_resolve(table, node_array, value_array)
        entries = resolved.entries
        # -2 marks a node without a fingerprint, -1 a miss.
        handles = np.where(
            value_array != value_array, -2, resolved.handles
        ).tolist()
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
        # and re-materialized per record (fresh MatchResult with copied
        # dicts — the sequential path returns independent objects, and
        # callers may mutate votes/matched_labels in place).
        memo: Dict[Tuple[int, ...], _Verdict] = {}
        results: List[MatchResult] = []
        n_hits = 0
        pos = 0
        for record in records:
            n_nodes = record.n_nodes
            pattern = tuple(handles[pos : pos + n_nodes])
            pos += n_nodes
            verdict = memo.get(pattern)
            if verdict is None:
                # Inlined vote(): each matched key contributes one vote
                # per distinct application in its label list (the index
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

    def _tuple_index(self) -> Union[TupleIndex, "ColumnarBatchIndex"]:
        """Build (or reuse) the batch lookup table.

        Against a pristine :class:`ColumnarDictionary` this is the
        vectorized rank-packed index built straight from the columns (no
        shard hydration, no per-key Python work); otherwise the classic
        per-key dict is built shard-parallel.
        """
        version = self.dictionary.version
        if self._index is not None and self._index_version == version:
            return self._index
        columnar = isinstance(self.dictionary, ColumnarDictionary)
        if columnar:
            index = self.dictionary.batch_index(self.metric, self.interval)
            if index is not None:
                self._index = index
                self._index_version = version
                return index
            self.stats.record_index_demotion()
        if isinstance(self.dictionary, ShardedDictionary):
            tasks = [
                (shard, self.metric, self.interval)
                for shard in self.dictionary.shards
            ]
        else:
            tasks = [(self.dictionary, self.metric, self.interval)]
        partials = parallel_map(
            _shard_tuple_index,
            tasks,
            backend=self.backend,
            n_workers=self.n_workers,
        )
        index: TupleIndex = {}
        for partial in partials:
            index.update(partial)
        if columnar:
            # The shard scan cannot see pending delta-overlay keys.
            index.update(
                self.dictionary.overlay_tuple_entries(
                    self.metric, self.interval
                )
            )
        self._index = index
        self._index_version = version
        return index

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
        ``force`` is set.  This is the resolution primitive under
        :class:`repro.serve.IngestService`, which adds queuing,
        micro-batch coalescing, and backpressure on top.
        """
        if not force:
            pending = [i for i, s in enumerate(sessions) if not s.ready]
            if pending:
                raise RuntimeError(
                    f"{len(pending)} of {len(sessions)} sessions not yet "
                    f"complete (first: session {pending[0]}); pass "
                    f"force=True to decide early"
                )
        fingerprint_lists = [s.fingerprints() for s in sessions]
        return self._match(fingerprint_lists)

    # -- internals ----------------------------------------------------------
    def _match(
        self, fingerprint_lists: Sequence[Sequence[Optional[Fingerprint]]]
    ) -> List[MatchResult]:
        results, n_hits = match_fingerprints_batch(
            self.dictionary,
            fingerprint_lists,
            backend=self.backend,
            n_workers=self.n_workers,
            stats=self.stats,
        )
        self._record_stats(results, n_hits)
        return results

    def _record_stats(self, results: Sequence[MatchResult], n_hits: int) -> None:
        occupancy = (
            self.dictionary.shard_sizes()
            if isinstance(
                self.dictionary, (ShardedDictionary, RemoteShardBackend)
            )
            else [len(self.dictionary)]
        )
        self.stats.record_batch(results, n_hits, shard_occupancy=occupancy)

    def __repr__(self) -> str:
        kind = type(self.dictionary).__name__
        return (
            f"BatchRecognizer({kind}, metric={self.metric!r}, "
            f"depth={self.depth}, backend={self.backend!r})"
        )
