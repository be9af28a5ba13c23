"""Engine counters: what the recognition service is actually doing.

A production recognizer needs operational visibility — how many
fingerprints were looked up, how often the dictionary answered, how
often it tied or came up empty, whether the shard layout is balanced,
and (once the async front-end is in front of it) how deep the ingest
queue runs, how big the micro-batches get, and how long a ready session
waits for its verdict.  :class:`EngineStats` is a plain counter object
fed by :class:`~repro.engine.batch.BatchRecognizer` and
:class:`~repro.serve.service.IngestService`, rendered by the ``efd
engine`` / ``efd serve`` CLI commands, and round-trippable through JSON
(:meth:`as_dict` / :meth:`from_dict`) so a service can export a snapshot
for later inspection with ``efd engine info --stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.matcher import MatchResult


@dataclass
class EngineStats:
    """Cumulative recognition + serving counters (one instance per engine).

    The recognition block (batches/lookups/hits/ties/unknowns) is fed by
    every :class:`~repro.engine.batch.BatchRecognizer` call; the serving
    block (queue depth, sheds, late drops, evictions, latency) only
    moves when an :class:`~repro.serve.service.IngestService` drives the
    engine, and stays all-zero otherwise.
    """

    n_batches: int = 0
    n_executions: int = 0
    n_lookups: int = 0          # fingerprints looked up (missing nodes excluded)
    n_missing: int = 0          # nodes that produced no usable fingerprint
    n_hits: int = 0             # lookups that matched at least one label
    n_recognized: int = 0       # executions with a non-empty verdict
    n_ties: int = 0             # executions whose verdict was a tie array
    n_unknowns: int = 0         # executions with zero matches
    max_batch: int = 0          # largest batch resolved in one call
    index_demotions: int = 0    # batches answered by the generic dict index
                                # because a store's vectorized index no
                                # longer reflected its live state
    shard_occupancy: List[int] = field(default_factory=list)
    # -- serving counters (fed by repro.serve.IngestService) ------------------
    queue_depth: int = 0        # ingest-queue depth at the last submit
    queue_peak: int = 0         # deepest the ingest queue has been
    n_shed: int = 0             # samples dropped by backpressure/capacity
    n_late: int = 0             # samples arriving after the verdict was queued
    n_evicted: int = 0          # sessions evicted on timeout
    n_latencies: int = 0        # verdicts with a measured ready->verdict time
    total_latency: float = 0.0  # summed ready->verdict seconds
    max_latency: float = 0.0    # worst ready->verdict seconds
    # -- session gauges + retention (fed by IngestService) --------------------
    sessions_active: int = 0    # sessions open right now (no verdict yet)
    sessions_retained: int = 0  # completed sessions kept for verdict retrieval
    n_pruned: int = 0           # retained sessions auto-forgotten by retention
    # -- network listener counters (fed by repro.serve.net.NetListener) ------
    conns_accepted: int = 0     # producer connections ever accepted
    conns_active: int = 0       # producer connections open right now
    conns_dropped: int = 0      # connections closed on a protocol error
    n_protocol_errors: int = 0  # malformed / oversized / undecodable lines
    # -- replication counters (fed by repro.engine.replicate) -----------------
    repl_followers: int = 0           # follower streams open right now (leader)
    repl_segments_shipped: int = 0    # records frames sent to followers
    repl_records_shipped: int = 0     # delta-log records sent to followers
    repl_bytes_shipped: int = 0       # wire bytes sent (records + snapshots)
    repl_snapshots_shipped: int = 0   # full base snapshots sent
    repl_segments_applied: int = 0    # records frames applied (replica)
    repl_records_applied: int = 0     # delta-log records applied (replica)
    repl_bytes_applied: int = 0       # wire bytes applied (records + snapshots)
    repl_snapshots_applied: int = 0   # base swaps committed (replica)
    repl_lag_generations: int = 0     # generations behind the leader (gauge)
    repl_lag_records: int = 0         # records behind the leader (gauge)
    # -- remote fan-out counters (fed by repro.engine.remote) -----------------
    remote_calls: int = 0             # remote requests attempted (incl. retries)
    remote_keys: int = 0              # fingerprint keys probed remotely
    remote_timeouts: int = 0          # calls that hit a deadline/socket timeout
    remote_errors: int = 0            # calls refused / torn / protocol-failed
    remote_retries: int = 0           # re-dials after a failed call
    remote_hedges: int = 0            # duplicate probes launched to a replica
    remote_hedges_won: int = 0        # hedges that answered before the primary
    remote_hedges_lost: int = 0       # hedges beaten by the primary after all
    remote_breaker_opens: int = 0     # circuit breakers tripped open
    remote_degraded: int = 0          # keys resolved with a degraded verdict
    remote_bytes_sent: int = 0        # wire bytes shipped to shard hosts
    remote_bytes_received: int = 0    # wire bytes received from shard hosts
    remote_encode_s: float = 0.0      # wall seconds spent encoding requests
    remote_decode_s: float = 0.0      # wall seconds spent decoding replies
    remote_pool_checkouts: int = 0    # pooled-connection checkouts
    remote_pool_reuses: int = 0       # checkouts served by a live socket
    remote_pool_redials: int = 0      # checkouts that had to dial fresh
    filter_mirror_hits: int = 0       # probes resolved by a local filter
                                      # mirror (no wire round trip)
    # -- family-cascade counters (fed by repro.family.FamilyCascade) ----------
    family_coarse_hits: int = 0       # probes the coarse tier answered
    family_shortcircuits: int = 0     # probes rejected without touching the
                                      # fine tier (coarse projection missed)
    family_refinements: int = 0       # unique keys sent on to full depth
    family_near: int = 0              # near-family verdicts (same app, new
                                      # version) — would be unknowns flatly

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

    def record_index_demotion(self) -> None:
        """One batch fell back from a store's vectorized lookup index to
        the generic dict index (e.g. a columnar shard mutated behind the
        delta-log, or a rank-space overflow).  A persistently non-zero
        counter on a columnar deployment means the fast path is lost —
        re-save or compact the store."""
        self.index_demotions += 1

    # -- serving-side recorders ----------------------------------------------
    def record_queue_depth(self, depth: int) -> None:
        """Note the ingest-queue depth observed after a submit."""
        self.queue_depth = depth
        if depth > self.queue_peak:
            self.queue_peak = depth

    def record_shed(self, n: int = 1) -> None:
        """``n`` samples refused: queue full or session cap, policy ``shed``."""
        self.n_shed += n

    def record_late(self, n: int = 1) -> None:
        """``n`` samples dropped because their session's verdict was
        already queued or decided (they cannot affect the fingerprint)."""
        self.n_late += n

    def record_eviction(self) -> None:
        """One session evicted on inactivity timeout."""
        self.n_evicted += 1

    def record_latency(self, seconds: float) -> None:
        """One verdict's ready-to-resolved wall time."""
        self.n_latencies += 1
        self.total_latency += seconds
        if seconds > self.max_latency:
            self.max_latency = seconds

    def record_session_open(self) -> None:
        """One session opened (first sample of a new job id routed)."""
        self.sessions_active += 1

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

    # -- network-listener recorders ------------------------------------------
    def record_conn_open(self) -> None:
        """One producer connection accepted by the network listener."""
        self.conns_accepted += 1
        self.conns_active += 1

    def record_conn_close(self, dropped: bool = False) -> None:
        """One producer connection closed (``dropped`` when the close
        was the listener's doing — a protocol error, not producer EOF)."""
        self.conns_active -= 1
        if dropped:
            self.conns_dropped += 1

    def record_protocol_error(self) -> None:
        """One line a producer sent that the listener refused."""
        self.n_protocol_errors += 1

    # -- replication recorders (fed by repro.engine.replicate) ----------------
    def record_follower_open(self) -> None:
        """One follower subscribed to this leader's stream."""
        self.repl_followers += 1

    def record_follower_close(self) -> None:
        """One follower stream ended (EOF, fault, or shutdown)."""
        self.repl_followers -= 1

    def record_segment_shipped(self, n_records: int, n_bytes: int) -> None:
        """One records frame sent to a follower."""
        self.repl_segments_shipped += 1
        self.repl_records_shipped += n_records
        self.repl_bytes_shipped += n_bytes

    def record_snapshot_shipped(self, n_bytes: int) -> None:
        """One full base snapshot sent to a follower."""
        self.repl_snapshots_shipped += 1
        self.repl_bytes_shipped += n_bytes

    def record_segment_applied(self, n_records: int, n_bytes: int) -> None:
        """One records frame applied to this replica's overlay."""
        self.repl_segments_applied += 1
        self.repl_records_applied += n_records
        self.repl_bytes_applied += n_bytes

    def record_snapshot_applied(self, n_bytes: int) -> None:
        """One base swap committed on this replica."""
        self.repl_snapshots_applied += 1
        self.repl_bytes_applied += n_bytes

    def record_replica_lag(self, generations: int, records: int) -> None:
        """This replica's distance behind the leader's last report."""
        self.repl_lag_generations = generations
        self.repl_lag_records = records

    # -- remote fan-out recorders (fed by repro.engine.remote) ----------------
    def record_remote_call(self, n_keys: int = 0) -> None:
        """One remote request attempted (retries and hedges count too)."""
        self.remote_calls += 1
        self.remote_keys += n_keys

    def record_remote_timeout(self) -> None:
        """One remote call gave up on a socket/deadline timeout."""
        self.remote_timeouts += 1

    def record_remote_error(self) -> None:
        """One remote call failed outright (refused, torn, protocol)."""
        self.remote_errors += 1

    def record_remote_retry(self) -> None:
        """One failed remote call re-dialed (after backoff)."""
        self.remote_retries += 1

    def record_remote_hedge(self, won: Optional[bool] = None) -> None:
        """One hedged probe launched; ``won`` records which copy
        answered first once the race resolves (None = launch only)."""
        if won is None:
            self.remote_hedges += 1
        elif won:
            self.remote_hedges_won += 1
        else:
            self.remote_hedges_lost += 1

    def record_breaker_open(self) -> None:
        """One per-host circuit breaker tripped open."""
        self.remote_breaker_opens += 1

    def record_remote_degraded(self, n_keys: int = 1) -> None:
        """``n_keys`` fingerprints resolved with a degraded verdict
        because every host of their shard was unreachable."""
        self.remote_degraded += n_keys

    def record_remote_wire(self, sent: int = 0, received: int = 0) -> None:
        """Wire bytes moved by one remote exchange (both directions)."""
        self.remote_bytes_sent += sent
        self.remote_bytes_received += received

    def record_remote_codec(
        self, encode_s: float = 0.0, decode_s: float = 0.0
    ) -> None:
        """Wall time one exchange spent in the probe codec."""
        self.remote_encode_s += encode_s
        self.remote_decode_s += decode_s

    def record_pool_checkout(self, reused: bool) -> None:
        """One pooled-connection checkout (``reused`` = a live socket
        answered; otherwise the pool had to dial)."""
        self.remote_pool_checkouts += 1
        if reused:
            self.remote_pool_reuses += 1
        else:
            self.remote_pool_redials += 1

    def record_filter_mirror_hits(self, n_keys: int = 1) -> None:
        """``n_keys`` probes resolved locally by a shard's Bloom-filter
        mirror — definite misses that never crossed the wire."""
        self.filter_mirror_hits += n_keys

    # -- family-cascade recorder (fed by repro.family.FamilyCascade) ----------
    def record_cascade(
        self,
        coarse_hits: int,
        short_circuits: int,
        refinements: int,
        near_family: int,
    ) -> None:
        """Fold one cascade batch's tier traffic into the counters.

        ``coarse_hits + short_circuits`` is the per-node probe count;
        ``refinements`` counts *unique* keys that actually reached the
        fine backend, so ``1 - refinements / probes`` is the fraction of
        traffic the coarse tier absorbed (the ``family-smoke`` gate)."""
        self.family_coarse_hits += coarse_hits
        self.family_shortcircuits += short_circuits
        self.family_refinements += refinements
        self.family_near += near_family

    # -- derived -------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that matched at least one label."""
        if self.n_lookups == 0:
            return 0.0
        return self.n_hits / self.n_lookups

    @property
    def unknown_rate(self) -> float:
        """Fraction of executions with an empty verdict."""
        if self.n_executions == 0:
            return 0.0
        return self.n_unknowns / self.n_executions

    @property
    def mean_batch(self) -> float:
        """Mean executions per resolved batch."""
        if self.n_batches == 0:
            return 0.0
        return self.n_executions / self.n_batches

    @property
    def mean_latency(self) -> float:
        """Mean ready-to-verdict seconds (0 when nothing was measured)."""
        if self.n_latencies == 0:
            return 0.0
        return self.total_latency / self.n_latencies

    @property
    def served(self) -> bool:
        """True when any serving counter has moved (an async front-end
        has driven this engine)."""
        return bool(
            self.queue_peak or self.n_shed or self.n_late
            or self.n_evicted or self.n_latencies
        )

    @property
    def replicating(self) -> bool:
        """True when any replication counter has moved (this engine is a
        publishing leader and/or a following replica)."""
        return bool(
            self.repl_followers or self.repl_segments_shipped
            or self.repl_snapshots_shipped or self.repl_segments_applied
            or self.repl_snapshots_applied or self.repl_lag_generations
            or self.repl_lag_records
        )

    @property
    def remote(self) -> bool:
        """True when any remote fan-out counter has moved (this engine
        probes shard servers over the wire)."""
        return bool(
            self.remote_calls or self.remote_keys or self.remote_timeouts
            or self.remote_errors or self.remote_retries
            or self.remote_hedges or self.remote_breaker_opens
            or self.remote_degraded or self.remote_bytes_sent
            or self.remote_bytes_received or self.remote_pool_checkouts
            or self.filter_mirror_hits
        )

    @property
    def cascading(self) -> bool:
        """True when any family-cascade counter has moved (a
        :class:`~repro.family.FamilyCascade` fronts this engine)."""
        return bool(
            self.family_coarse_hits or self.family_shortcircuits
            or self.family_refinements or self.family_near
        )

    @property
    def coarse_absorption(self) -> float:
        """Fraction of cascade probes the coarse tier resolved or
        rejected without a full-depth refinement (0 when idle)."""
        probes = self.family_coarse_hits + self.family_shortcircuits
        if probes == 0:
            return 0.0
        return 1.0 - self.family_refinements / probes

    # -- (de)serialization -----------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (counters + derived rates)."""
        return {
            "batches": self.n_batches,
            "executions": self.n_executions,
            "lookups": self.n_lookups,
            "missing": self.n_missing,
            "hits": self.n_hits,
            "hit_rate": round(self.hit_rate, 4),
            "recognized": self.n_recognized,
            "ties": self.n_ties,
            "unknowns": self.n_unknowns,
            "unknown_rate": round(self.unknown_rate, 4),
            "max_batch": self.max_batch,
            "index_demotions": self.index_demotions,
            "shard_occupancy": list(self.shard_occupancy),
            "queue_depth": self.queue_depth,
            "queue_peak": self.queue_peak,
            "shed": self.n_shed,
            "late": self.n_late,
            "evicted": self.n_evicted,
            "latencies": self.n_latencies,
            "total_latency_s": self.total_latency,
            "max_latency_s": self.max_latency,
            "sessions_active": self.sessions_active,
            "sessions_retained": self.sessions_retained,
            "pruned": self.n_pruned,
            "conns_accepted": self.conns_accepted,
            "conns_active": self.conns_active,
            "conns_dropped": self.conns_dropped,
            "protocol_errors": self.n_protocol_errors,
            "repl_followers": self.repl_followers,
            "repl_segments_shipped": self.repl_segments_shipped,
            "repl_records_shipped": self.repl_records_shipped,
            "repl_bytes_shipped": self.repl_bytes_shipped,
            "repl_snapshots_shipped": self.repl_snapshots_shipped,
            "repl_segments_applied": self.repl_segments_applied,
            "repl_records_applied": self.repl_records_applied,
            "repl_bytes_applied": self.repl_bytes_applied,
            "repl_snapshots_applied": self.repl_snapshots_applied,
            "repl_lag_generations": self.repl_lag_generations,
            "repl_lag_records": self.repl_lag_records,
            "remote_calls": self.remote_calls,
            "remote_keys": self.remote_keys,
            "remote_timeouts": self.remote_timeouts,
            "remote_errors": self.remote_errors,
            "remote_retries": self.remote_retries,
            "remote_hedges": self.remote_hedges,
            "remote_hedges_won": self.remote_hedges_won,
            "remote_hedges_lost": self.remote_hedges_lost,
            "remote_breaker_opens": self.remote_breaker_opens,
            "remote_degraded": self.remote_degraded,
            "remote_bytes_sent": self.remote_bytes_sent,
            "remote_bytes_received": self.remote_bytes_received,
            "remote_encode_s": self.remote_encode_s,
            "remote_decode_s": self.remote_decode_s,
            "remote_pool_checkouts": self.remote_pool_checkouts,
            "remote_pool_reuses": self.remote_pool_reuses,
            "remote_pool_redials": self.remote_pool_redials,
            "filter_mirror_hits": self.filter_mirror_hits,
            "family_coarse_hits": self.family_coarse_hits,
            "family_shortcircuits": self.family_shortcircuits,
            "family_refinements": self.family_refinements,
            "family_near": self.family_near,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EngineStats":
        """Rebuild from an :meth:`as_dict` snapshot (derived rates are
        recomputed, unknown keys ignored — snapshots stay loadable
        across counter additions)."""
        def _i(key: str) -> int:
            return int(payload.get(key, 0))

        return cls(
            n_batches=_i("batches"),
            n_executions=_i("executions"),
            n_lookups=_i("lookups"),
            n_missing=_i("missing"),
            n_hits=_i("hits"),
            n_recognized=_i("recognized"),
            n_ties=_i("ties"),
            n_unknowns=_i("unknowns"),
            max_batch=_i("max_batch"),
            index_demotions=_i("index_demotions"),
            shard_occupancy=[int(n) for n in payload.get("shard_occupancy", [])],
            queue_depth=_i("queue_depth"),
            queue_peak=_i("queue_peak"),
            n_shed=_i("shed"),
            n_late=_i("late"),
            n_evicted=_i("evicted"),
            n_latencies=_i("latencies"),
            total_latency=float(payload.get("total_latency_s", 0.0)),
            max_latency=float(payload.get("max_latency_s", 0.0)),
            sessions_active=_i("sessions_active"),
            sessions_retained=_i("sessions_retained"),
            n_pruned=_i("pruned"),
            conns_accepted=_i("conns_accepted"),
            conns_active=_i("conns_active"),
            conns_dropped=_i("conns_dropped"),
            n_protocol_errors=_i("protocol_errors"),
            repl_followers=_i("repl_followers"),
            repl_segments_shipped=_i("repl_segments_shipped"),
            repl_records_shipped=_i("repl_records_shipped"),
            repl_bytes_shipped=_i("repl_bytes_shipped"),
            repl_snapshots_shipped=_i("repl_snapshots_shipped"),
            repl_segments_applied=_i("repl_segments_applied"),
            repl_records_applied=_i("repl_records_applied"),
            repl_bytes_applied=_i("repl_bytes_applied"),
            repl_snapshots_applied=_i("repl_snapshots_applied"),
            repl_lag_generations=_i("repl_lag_generations"),
            repl_lag_records=_i("repl_lag_records"),
            remote_calls=_i("remote_calls"),
            remote_keys=_i("remote_keys"),
            remote_timeouts=_i("remote_timeouts"),
            remote_errors=_i("remote_errors"),
            remote_retries=_i("remote_retries"),
            remote_hedges=_i("remote_hedges"),
            remote_hedges_won=_i("remote_hedges_won"),
            remote_hedges_lost=_i("remote_hedges_lost"),
            remote_breaker_opens=_i("remote_breaker_opens"),
            remote_degraded=_i("remote_degraded"),
            remote_bytes_sent=_i("remote_bytes_sent"),
            remote_bytes_received=_i("remote_bytes_received"),
            remote_encode_s=float(payload.get("remote_encode_s", 0.0)),
            remote_decode_s=float(payload.get("remote_decode_s", 0.0)),
            remote_pool_checkouts=_i("remote_pool_checkouts"),
            remote_pool_reuses=_i("remote_pool_reuses"),
            remote_pool_redials=_i("remote_pool_redials"),
            filter_mirror_hits=_i("filter_mirror_hits"),
            family_coarse_hits=_i("family_coarse_hits"),
            family_shortcircuits=_i("family_shortcircuits"),
            family_refinements=_i("family_refinements"),
            family_near=_i("family_near"),
        )

    def render(self) -> str:
        """Multi-line human-readable summary for the CLI."""
        lines = [
            f"batches     : {self.n_batches} "
            f"(max_size={self.max_batch}, mean_size={self.mean_batch:.1f})",
            f"executions  : {self.n_executions} "
            f"(recognized={self.n_recognized}, ties={self.n_ties}, "
            f"unknown={self.n_unknowns})",
            f"lookups     : {self.n_lookups} "
            f"(hits={self.n_hits}, hit_rate={self.hit_rate:.3f}, "
            f"missing_nodes={self.n_missing})",
        ]
        if self.index_demotions:
            lines.append(
                f"demotions   : {self.index_demotions} batch(es) answered by "
                f"the generic dict index (vectorized index stale — re-save "
                f"or compact the store)"
            )
        if self.shard_occupancy:
            total = sum(self.shard_occupancy) or 1
            occ = ", ".join(
                f"{i}:{n} ({n / total:.0%})"
                for i, n in enumerate(self.shard_occupancy)
            )
            lines.append(f"shard keys  : {occ}")
        if self.served:
            lines.append(
                f"ingest      : queue_depth={self.queue_depth} "
                f"(peak={self.queue_peak}), shed={self.n_shed}, "
                f"late={self.n_late}, evicted={self.n_evicted}"
            )
            lines.append(
                f"sessions    : active={self.sessions_active}, "
                f"retained={self.sessions_retained}, pruned={self.n_pruned}"
            )
            lines.append(
                f"latency     : mean={self.mean_latency * 1e3:.1f}ms "
                f"max={self.max_latency * 1e3:.1f}ms "
                f"over {self.n_latencies} verdict(s)"
            )
        if self.conns_accepted:
            lines.append(
                f"connections : accepted={self.conns_accepted}, "
                f"active={self.conns_active}, dropped={self.conns_dropped}, "
                f"protocol_errors={self.n_protocol_errors}"
            )
        if self.replicating:
            lines.append(
                f"replication : followers={self.repl_followers}, "
                f"shipped={self.repl_records_shipped} record(s)/"
                f"{self.repl_snapshots_shipped} snapshot(s)/"
                f"{self.repl_bytes_shipped} B, "
                f"applied={self.repl_records_applied} record(s)/"
                f"{self.repl_snapshots_applied} snapshot(s)/"
                f"{self.repl_bytes_applied} B"
            )
            lines.append(
                f"replica lag : {self.repl_lag_generations} generation(s), "
                f"{self.repl_lag_records} record(s)"
            )
        if self.remote:
            lines.append(
                f"remote      : calls={self.remote_calls} "
                f"({self.remote_keys} key(s)), "
                f"timeouts={self.remote_timeouts}, "
                f"errors={self.remote_errors}, retries={self.remote_retries}"
            )
            lines.append(
                f"resilience  : hedges={self.remote_hedges} "
                f"(won={self.remote_hedges_won}, "
                f"lost={self.remote_hedges_lost}), "
                f"breaker_opens={self.remote_breaker_opens}, "
                f"degraded={self.remote_degraded}"
            )
            lines.append(
                f"remote wire : sent={self.remote_bytes_sent} B, "
                f"received={self.remote_bytes_received} B, "
                f"encode={self.remote_encode_s * 1e3:.1f}ms, "
                f"decode={self.remote_decode_s * 1e3:.1f}ms"
            )
            lines.append(
                f"remote pool : checkouts={self.remote_pool_checkouts} "
                f"(reused={self.remote_pool_reuses}, "
                f"redialed={self.remote_pool_redials}), "
                f"mirror_hits={self.filter_mirror_hits}"
            )
        if self.cascading:
            lines.append(
                f"cascade     : coarse_hits={self.family_coarse_hits}, "
                f"short_circuits={self.family_shortcircuits}, "
                f"refinements={self.family_refinements} "
                f"(absorption={self.coarse_absorption:.0%}), "
                f"near_family={self.family_near}"
            )
        return "\n".join(lines)
