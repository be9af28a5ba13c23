"""Engine counters: what the recognition service is actually doing.

A production recognizer needs operational visibility — how many
fingerprints were looked up, how often the dictionary answered, how
often it tied or came up empty, whether the shard layout is balanced,
how deep the ingest queue runs, how long a ready session waits for its
verdict, and what the replication, remote fan-out and family-cascade
tiers are doing.

Every metric is declared once, as a row of :data:`METRICS`: the
:class:`EngineStats` attribute that feed sites write, the snapshot key,
the kind (``counter``, ``gauge``, ``seconds`` or ``shards``), the render
block and label, and a help string.  The attributes, their zero
defaults, :meth:`~EngineStats.as_dict` / :meth:`~EngineStats.from_dict`
(so ``efd serve --stats-out`` snapshots render later with ``efd engine
info --stats``), :meth:`~EngineStats.render` and the per-tier "has it
moved" predicates all derive from that table; :data:`RATES` lists the
derived rates a snapshot carries.  Feed sites bump plain counters with
:meth:`~EngineStats.add`; the few ``record_*`` methods left keep paired
gauges and counters consistent with each other.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.core.matcher import MatchResult


class Metric(NamedTuple):
    """One row of :data:`METRICS`."""

    attr: str   # EngineStats attribute, the name feed sites write
    key: str    # snapshot key in as_dict() / from_dict()
    kind: str   # counter | gauge | seconds | shards (see _KINDS)
    block: str  # render line the metric appears on
    label: str  # its ``label=value`` spelling on that line
    help: str   # one-line meaning (docs/serving.md lists every key)


def _shard_list(value: Sequence[int] = ()) -> List[int]:
    return [int(n) for n in value]


#: kind -> coercion.  Called bare it gives the zero default; it also
#: copies a value out to a snapshot and checks one coming back in.
_KINDS = {"counter": int, "gauge": int, "seconds": float,
          "shards": _shard_list}

METRICS = (
    # -- recognition (fed by repro.engine.batch.BatchRecognizer) -------------
    Metric("n_batches", "batches", "counter", "batches", "count",
           "batches resolved by the recognizer"),
    Metric("max_batch", "max_batch", "gauge", "batches", "max_size",
           "largest batch (executions) resolved in one call"),
    Metric("n_executions", "executions", "counter", "executions", "count",
           "executions given a verdict"),
    Metric("n_recognized", "recognized", "counter", "executions",
           "recognized", "executions with a non-empty verdict"),
    Metric("n_ties", "ties", "counter", "executions", "ties",
           "executions whose verdict was a tie array"),
    Metric("n_unknowns", "unknowns", "counter", "executions", "unknown",
           "executions with zero matches"),
    Metric("n_lookups", "lookups", "counter", "lookups", "count",
           "fingerprints looked up (missing nodes excluded)"),
    Metric("n_hits", "hits", "counter", "lookups", "hits",
           "lookups that matched at least one label"),
    Metric("n_missing", "missing", "counter", "lookups", "missing_nodes",
           "nodes that produced no usable fingerprint"),
    Metric("shard_occupancy", "shard_occupancy", "shards", "shard keys",
           "per_shard", "keys held by each shard at the last batch"),
    # -- serving (fed by repro.serve.IngestService) --------------------------
    Metric("queue_depth", "queue_depth", "gauge", "ingest", "queue_depth",
           "ingest-queue depth at the last submit"),
    Metric("queue_peak", "queue_peak", "gauge", "ingest", "peak",
           "deepest the ingest queue has been"),
    Metric("n_shed", "shed", "counter", "ingest", "shed",
           "samples dropped by backpressure or the session cap"),
    Metric("n_late", "late", "counter", "ingest", "late",
           "samples arriving after their session's verdict was queued"),
    Metric("n_evicted", "evicted", "counter", "ingest", "evicted",
           "sessions evicted on inactivity timeout"),
    Metric("sessions_active", "sessions_active", "gauge", "sessions",
           "active", "sessions open right now (no verdict yet)"),
    Metric("sessions_retained", "sessions_retained", "gauge", "sessions",
           "retained", "completed sessions kept for verdict retrieval"),
    Metric("n_pruned", "pruned", "counter", "sessions", "pruned",
           "retained sessions auto-forgotten by the retention loop"),
    Metric("tombstones", "tombstones", "gauge", "sessions", "tombstones",
           "pruned jobs whose trailing samples still count as late"),
    Metric("n_latencies", "latencies", "counter", "latency", "verdicts",
           "verdicts with a measured ready-to-verdict time"),
    Metric("total_latency", "total_latency_s", "seconds", "latency",
           "total_s", "summed ready-to-verdict seconds"),
    Metric("max_latency", "max_latency_s", "seconds", "latency", "max_s",
           "worst ready-to-verdict seconds"),
    # -- network listeners (repro.serve.net, the shard server) ---------------
    Metric("conns_accepted", "conns_accepted", "counter", "connections",
           "accepted", "connections ever accepted"),
    Metric("conns_active", "conns_active", "gauge", "connections",
           "active", "connections open right now"),
    Metric("conns_dropped", "conns_dropped", "counter", "connections",
           "dropped", "connections closed on a protocol error"),
    Metric("n_protocol_errors", "protocol_errors", "counter",
           "connections", "protocol_errors",
           "malformed, oversized or undecodable lines and frames refused"),
    Metric("decode_worker_deaths", "decode_worker_deaths", "counter",
           "connections", "decode_worker_deaths",
           "times a listener's NDJSON decode process died (its spans, "
           "and all later ones, were decoded inline)"),
    # -- replication (fed by repro.engine.replicate) -------------------------
    Metric("repl_followers", "repl_followers", "gauge", "replication",
           "followers", "follower streams open right now (leader)"),
    Metric("repl_segments_shipped", "repl_segments_shipped", "counter",
           "replication", "segments", "records frames sent to followers"),
    Metric("repl_records_shipped", "repl_records_shipped", "counter",
           "replication", "records", "delta-log records sent to followers"),
    Metric("repl_snapshots_shipped", "repl_snapshots_shipped", "counter",
           "replication", "snapshots", "full base snapshots sent"),
    Metric("repl_bytes_shipped", "repl_bytes_shipped", "counter",
           "replication", "bytes", "wire bytes sent (records + snapshots)"),
    Metric("repl_segments_applied", "repl_segments_applied", "counter",
           "replica", "segments", "records frames applied (replica)"),
    Metric("repl_records_applied", "repl_records_applied", "counter",
           "replica", "records", "delta-log records applied (replica)"),
    Metric("repl_snapshots_applied", "repl_snapshots_applied", "counter",
           "replica", "snapshots", "base swaps committed (replica)"),
    Metric("repl_bytes_applied", "repl_bytes_applied", "counter",
           "replica", "bytes", "wire bytes applied (records + snapshots)"),
    Metric("repl_lag_generations", "repl_lag_generations", "gauge",
           "replica lag", "generations",
           "generations this replica is behind the leader"),
    Metric("repl_lag_records", "repl_lag_records", "gauge", "replica lag",
           "records", "records behind the leader (when generations is 0)"),
    # -- remote fan-out (fed by repro.engine.remote.RemoteShardBackend) ------
    Metric("remote_calls", "remote_calls", "counter", "remote", "calls",
           "remote requests attempted (retries and hedges included)"),
    Metric("remote_keys", "remote_keys", "counter", "remote", "keys",
           "fingerprint keys probed remotely"),
    Metric("remote_timeouts", "remote_timeouts", "counter", "remote",
           "timeouts", "calls that hit a deadline or socket timeout"),
    Metric("remote_errors", "remote_errors", "counter", "remote", "errors",
           "calls refused, torn or protocol-failed"),
    Metric("remote_retries", "remote_retries", "counter", "remote",
           "retries", "re-dials after a failed call"),
    Metric("remote_hedges", "remote_hedges", "counter", "resilience",
           "hedges", "duplicate probes launched to a replica host"),
    Metric("remote_hedges_won", "remote_hedges_won", "counter",
           "resilience", "won", "hedges that answered before the primary"),
    Metric("remote_hedges_lost", "remote_hedges_lost", "counter",
           "resilience", "lost", "hedges beaten by the primary after all"),
    Metric("remote_breaker_opens", "remote_breaker_opens", "counter",
           "resilience", "breaker_opens", "circuit breakers tripped open"),
    Metric("remote_degraded", "remote_degraded", "counter", "resilience",
           "degraded", "keys (or shards) resolved with a degraded verdict"),
    Metric("remote_bytes_sent", "remote_bytes_sent", "counter",
           "remote wire", "bytes_sent", "wire bytes shipped to shard hosts"),
    Metric("remote_bytes_received", "remote_bytes_received", "counter",
           "remote wire", "bytes_received",
           "wire bytes received from shard hosts"),
    Metric("remote_encode_s", "remote_encode_s", "seconds", "remote wire",
           "encode_s", "wall seconds spent encoding requests"),
    Metric("remote_decode_s", "remote_decode_s", "seconds", "remote wire",
           "decode_s", "wall seconds spent decoding replies"),
    Metric("remote_pool_checkouts", "remote_pool_checkouts", "counter",
           "remote pool", "checkouts", "pooled-connection checkouts"),
    Metric("remote_pool_reuses", "remote_pool_reuses", "counter",
           "remote pool", "reused", "checkouts served by a live socket"),
    Metric("remote_pool_redials", "remote_pool_redials", "counter",
           "remote pool", "redialed", "checkouts that had to dial fresh"),
    Metric("filter_mirror_hits", "filter_mirror_hits", "counter",
           "remote pool", "mirror_hits",
           "probes a local filter mirror resolved without a round trip"),
    # -- family cascade (fed by repro.family.FamilyCascade) ------------------
    Metric("family_coarse_hits", "family_coarse_hits", "counter", "cascade",
           "coarse_hits", "probes the coarse tier answered"),
    Metric("family_shortcircuits", "family_shortcircuits", "counter",
           "cascade", "short_circuits",
           "probes rejected without touching the fine tier"),
    Metric("family_refinements", "family_refinements", "counter",
           "cascade", "refinements", "unique keys sent on to full depth"),
    Metric("family_near", "family_near", "counter", "cascade",
           "near_family", "near-family verdicts (same app, new version)"),
)

#: Derived rates: (snapshot key, render block, property, digits).  Emitted
#: by :meth:`EngineStats.as_dict`, recomputed rather than loaded.
RATES = (
    ("mean_batch", "batches", "mean_batch", 4),
    ("unknown_rate", "executions", "unknown_rate", 4),
    ("hit_rate", "lookups", "hit_rate", 4),
    ("mean_latency_s", "latency", "mean_latency", 6),
    ("coarse_absorption", "cascade", "coarse_absorption", 4),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):  # shard occupancy: keys (share) per shard
        total = sum(value) or 1
        return "[" + ", ".join(f"{n} ({n / total:.0%})" for n in value) + "]"
    return str(value)


class EngineStats:
    """Cumulative recognition + serving counters (one instance per engine).

    One plain attribute per :data:`METRICS` row, all starting at zero.
    The recognition metrics move on every
    :class:`~repro.engine.batch.BatchRecognizer` call; the serving,
    listener, replication, remote and cascade ones only when that tier
    drives the engine, and stay zero otherwise.
    """

    __slots__ = tuple(m.attr for m in METRICS)

    def __init__(self) -> None:
        for m in METRICS:
            setattr(self, m.attr, _KINDS[m.kind]())

    def add(self, **deltas: float) -> None:
        """Add each delta to the metric of that attribute name, e.g.
        ``stats.add(n_shed=3)``; a name not in :data:`METRICS` raises
        :class:`AttributeError`."""
        for attr, delta in deltas.items():
            setattr(self, attr, getattr(self, attr) + delta)

    # -- recorders that keep paired metrics consistent -----------------------
    def record_batch(
        self,
        results: Sequence[MatchResult],
        n_hits: int,
        shard_occupancy: Optional[Sequence[int]] = None,
    ) -> None:
        """Fold one batch's outcomes into the counters."""
        self.n_batches += 1
        self.n_executions += len(results)
        self.max_batch = max(self.max_batch, len(results))
        self.n_hits += n_hits
        for result in results:
            self.n_lookups += result.n_fingerprints
            self.n_missing += result.n_missing
            if result.is_unknown:
                self.n_unknowns += 1
            else:
                self.n_recognized += 1
                if result.is_tie:
                    self.n_ties += 1
        if shard_occupancy is not None:
            self.shard_occupancy = list(shard_occupancy)

    def record_queue_depth(self, depth: int) -> None:
        """Note the ingest-queue depth observed after a submit."""
        self.queue_depth = depth
        if depth > self.queue_peak:
            self.queue_peak = depth

    def record_latency(self, seconds: float) -> None:
        """One verdict's ready-to-resolved wall time."""
        self.n_latencies += 1
        self.total_latency += seconds
        if seconds > self.max_latency:
            self.max_latency = seconds

    def record_session_done(self) -> None:
        """One session resolved (verdict or error): active -> retained."""
        self.sessions_active -= 1
        self.sessions_retained += 1

    def record_session_forgotten(self, pruned: bool = False) -> None:
        """One retained session's state reclaimed (``pruned`` when the
        retention loop did it rather than an explicit ``forget``)."""
        self.sessions_retained -= 1
        if pruned:
            self.n_pruned += 1

    def record_conn_open(self) -> None:
        """One producer connection accepted by a network listener."""
        self.conns_accepted += 1
        self.conns_active += 1

    def record_conn_close(self, dropped: bool = False) -> None:
        """One producer connection closed (``dropped`` when the close
        was the listener's doing — a protocol error, not producer EOF)."""
        self.conns_active -= 1
        if dropped:
            self.conns_dropped += 1

    def record_replica_lag(self, generations: int, records: int) -> None:
        """This replica's distance behind the leader's last report."""
        self.repl_lag_generations = generations
        self.repl_lag_records = records

    # -- derived -------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that matched at least one label."""
        return _ratio(self.n_hits, self.n_lookups)

    @property
    def unknown_rate(self) -> float:
        """Fraction of executions with an empty verdict."""
        return _ratio(self.n_unknowns, self.n_executions)

    @property
    def mean_batch(self) -> float:
        """Mean executions per resolved batch."""
        return _ratio(self.n_executions, self.n_batches)

    @property
    def mean_latency(self) -> float:
        """Mean ready-to-verdict seconds (0 when nothing was measured)."""
        return _ratio(self.total_latency, self.n_latencies)

    @property
    def coarse_absorption(self) -> float:
        """Fraction of cascade probes the coarse tier resolved or
        rejected without a full-depth refinement (0 when idle)."""
        probes = self.family_coarse_hits + self.family_shortcircuits
        if probes == 0:
            return 0.0
        return 1.0 - self.family_refinements / probes

    def rates(self) -> Dict[str, float]:
        """The :data:`RATES`, keyed and rounded as a snapshot holds them."""
        return {key: round(getattr(self, prop), digits)
                for key, _, prop, digits in RATES}

    def _moved(self, *blocks: str) -> bool:
        """True when any metric rendered on one of ``blocks`` is non-zero."""
        return any(getattr(self, m.attr) for m in METRICS if m.block in blocks)

    @property
    def served(self) -> bool:
        """True when an async front-end has driven this engine."""
        return self._moved("ingest", "sessions", "latency")

    @property
    def replicating(self) -> bool:
        """True when this engine is a publishing leader and/or a
        following replica."""
        return self._moved("replication", "replica", "replica lag")

    @property
    def remote(self) -> bool:
        """True when this engine probes shard servers over the wire."""
        return self._moved("remote", "resilience", "remote wire",
                           "remote pool")

    @property
    def cascading(self) -> bool:
        """True when a :class:`~repro.family.FamilyCascade` fronts this
        engine."""
        return self._moved("cascade")

    # -- (de)serialization and rendering -------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: every metric under its key, plus the
        derived :meth:`rates`."""
        snapshot: Dict[str, object] = {
            m.key: _KINDS[m.kind](getattr(self, m.attr)) for m in METRICS
        }
        snapshot.update(self.rates())
        return snapshot

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EngineStats":
        """Rebuild from an :meth:`as_dict` snapshot.  Derived rates are
        recomputed and unknown keys ignored, so snapshots stay loadable
        across metric additions; a snapshot that is not a JSON object,
        or a value of the wrong type, raises :class:`ValueError`."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"expected a JSON object, got {type(payload).__name__}"
            )
        stats = cls()
        for m in METRICS:
            if m.key not in payload:
                continue
            try:
                value = _KINDS[m.kind](payload[m.key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"key {m.key!r}: {exc}") from None
            setattr(stats, m.attr, value)
        return stats

    def render(self) -> str:
        """Human-readable summary for the CLI: one ``block : label=value,
        ...`` line per block with a moved metric, its rates appended."""
        moved = {m.block for m in METRICS if getattr(self, m.attr)}
        blocks: Dict[str, List[str]] = {}
        for m in METRICS:
            if m.block in moved:
                blocks.setdefault(m.block, []).append(
                    f"{m.label}={_fmt(getattr(self, m.attr))}"
                )
        for key, block, prop, _ in RATES:
            if block in moved:
                blocks[block].append(f"{key}={_fmt(getattr(self, prop))}")
        return "\n".join(
            f"{block:<11} : {', '.join(items)}"
            for block, items in blocks.items()
        )
