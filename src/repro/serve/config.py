"""Tuning knobs of the async ingestion service.

Every operational decision the service makes — how much telemetry it
buffers, when it refuses work, how long it coalesces ready sessions,
when it gives up on a silent job — is a field on :class:`ServeConfig`,
so a deployment is describable as one frozen value (and loggable /
diffable as ``asdict``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Accepted ``ServeConfig.backpressure`` values.
BACKPRESSURE_POLICIES = ("block", "shed")

#: Accepted ``ServeConfig.evict`` values.
EVICT_POLICIES = ("force", "drop")


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of an :class:`~repro.serve.service.IngestService`.

    Parameters
    ----------
    max_pending_samples:
        Capacity of the bounded ingest queue.  This is the service's
        only buffer between producers and the session table; when it is
        full, the ``backpressure`` policy decides what happens.
    backpressure:
        ``"block"`` — :meth:`~repro.serve.service.IngestService.submit`
        awaits until queue space frees up, propagating pressure to the
        producer (lossless).  ``"shed"`` — the sample is dropped on the
        floor, counted in :attr:`EngineStats.n_shed`, and ``submit``
        returns ``False`` (lossy, bounded latency).
    max_sessions:
        Cap on concurrently *active* sessions, enforced at submission:
        a sample that would open a session beyond the cap is subject to
        the same ``backpressure`` policy (block the producer until a
        slot frees, or shed the sample).  With ``"block"`` and no
        ``session_timeout``, a stream interleaving more concurrent jobs
        than the cap will stall the producer — lossless systems should
        pair the cap with a timeout.
    batch_max_sessions:
        Upper bound on the size of one recognition micro-batch.  A
        batch takes every ready session up to this cap in one step, so
        sessions that turn ready together (one routed block, a flood's
        pass of interleaved jobs) leave together.
    batch_max_delay:
        Seconds the oldest ready session may wait for the batch to fill
        before a partial micro-batch is dispatched (one timer per
        batch, not per session).  Trades verdict latency for batch
        efficiency; 0 dispatches every ready session immediately, as
        many as the cap allows per batch.
    max_inflight_batches:
        How many micro-batches may be resolving on the worker executor
        at once.  Recognition itself is serialized per engine (the
        engine's stats and index cache are not thread-safe), so values
        above 1 only overlap executor scheduling with ingestion.  Keep
        it at 2: on the ``serve_flood`` benchmark (2 shared vCPUs), 1
        raised the verdict p50 (123 → 169 ms and 137 → 203 ms in two
        paired runs) and cut samples/s by 11–13%.
    session_timeout:
        Seconds of *wall-clock* inactivity (no samples accepted) after
        which a session that never became ready is evicted.  ``None``
        disables eviction.
    evict:
        What eviction does.  ``"force"`` — decide early from whatever
        samples arrived (the verdict a crashed/truncated job would get).
        ``"drop"`` — fail the session's awaitable with
        :class:`~repro.serve.service.SessionEvicted`.
    default_nodes:
        Node count for sessions whose first sample does not carry an
        explicit ``nodes`` field.
    retention_max_age:
        Seconds a *completed* session's verdict is retained after
        resolution before the retention loop auto-forgets it.  ``None``
        disables age-based pruning.  A pruned job's
        :meth:`~repro.serve.service.IngestService.verdict` raises
        :class:`KeyError` afterwards, so consume verdicts via the
        awaitable or ``on_verdict`` before they age out.
    retention_max_done:
        Cap on completed sessions retained for verdict retrieval; when
        a verdict resolves past the cap, the oldest completed sessions
        are forgotten first.  ``None`` disables size-based pruning.
        This is the knob that bounds memory over a week-long campaign.
    retention_interval:
        Seconds between retention sweeps (age-based pruning only; the
        size cap is enforced immediately at resolution time).
    net_batch_samples:
        Per-connection micro-batch size of the network listener: how
        many parsed samples one connection accumulates before calling
        :meth:`~repro.serve.service.IngestService.submit_many`.  Larger
        batches amortize the submit path; smaller ones cut per-sample
        latency.
    net_batch_delay:
        Seconds a connection's batch waits for more lines before a
        partial batch is submitted anyway — bounds the latency a slow
        producer adds to its own verdicts.
    max_line_bytes:
        Upper bound on one NDJSON line on the wire; a longer line is a
        protocol error that closes the offending connection (and only
        that connection).
    compact_on_close:
        When the engine's dictionary is a columnar store with pending
        delta-log records (a learn-while-serving deployment), fold the
        log into the ``shard-NN.mmap`` base at service shutdown so the
        next boot opens a clean directory.  The log is write-ahead, so
        disabling this loses nothing — the records replay on the next
        load; it only defers the fold.  Forced off in replica mode
        (``efd serve --follow``): a replica folding its log would
        advance its generation past the leader's.
    """

    max_pending_samples: int = 4096
    backpressure: str = "block"
    max_sessions: int = 10_000
    batch_max_sessions: int = 64
    batch_max_delay: float = 0.01
    max_inflight_batches: int = 2
    session_timeout: Optional[float] = None
    evict: str = "force"
    default_nodes: int = 4
    retention_max_age: Optional[float] = None
    retention_max_done: Optional[int] = None
    retention_interval: float = 0.5
    net_batch_samples: int = 256
    net_batch_delay: float = 0.005
    max_line_bytes: int = 1 << 16
    compact_on_close: bool = True

    def __post_init__(self) -> None:
        if self.max_pending_samples < 1:
            raise ValueError(
                f"max_pending_samples must be >= 1, got {self.max_pending_samples}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.batch_max_sessions < 1:
            raise ValueError(
                f"batch_max_sessions must be >= 1, got {self.batch_max_sessions}"
            )
        if self.batch_max_delay < 0:
            raise ValueError(
                f"batch_max_delay must be >= 0, got {self.batch_max_delay}"
            )
        if self.max_inflight_batches < 1:
            raise ValueError(
                f"max_inflight_batches must be >= 1, got {self.max_inflight_batches}"
            )
        if self.session_timeout is not None and self.session_timeout <= 0:
            raise ValueError(
                f"session_timeout must be positive or None, got {self.session_timeout}"
            )
        if self.evict not in EVICT_POLICIES:
            raise ValueError(
                f"evict must be one of {EVICT_POLICIES}, got {self.evict!r}"
            )
        if self.default_nodes < 1:
            raise ValueError(f"default_nodes must be >= 1, got {self.default_nodes}")
        if self.retention_max_age is not None and self.retention_max_age <= 0:
            raise ValueError(
                f"retention_max_age must be positive or None, "
                f"got {self.retention_max_age}"
            )
        if self.retention_max_done is not None and self.retention_max_done < 0:
            raise ValueError(
                f"retention_max_done must be >= 0 or None, "
                f"got {self.retention_max_done}"
            )
        if self.retention_interval <= 0:
            raise ValueError(
                f"retention_interval must be positive, "
                f"got {self.retention_interval}"
            )
        if self.net_batch_samples < 1:
            raise ValueError(
                f"net_batch_samples must be >= 1, got {self.net_batch_samples}"
            )
        if self.net_batch_delay < 0:
            raise ValueError(
                f"net_batch_delay must be >= 0, got {self.net_batch_delay}"
            )
        if self.max_line_bytes < 64:
            raise ValueError(
                f"max_line_bytes must be >= 64, got {self.max_line_bytes}"
            )
