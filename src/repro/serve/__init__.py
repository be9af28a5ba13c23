"""Live-session recognition service (async ingestion front-end).

The EFD's operational promise is a verdict *while the job runs* — two
minutes in, from the first measurement interval.  ``repro.serve`` is the
subsystem that cashes that in for a whole cluster at once:

- :class:`~repro.serve.stream.Sample` / JSONL helpers define the wire
  format a monitoring bus delivers (one observation per line);
  :class:`~repro.serve.stream.SampleBlock` is the same data as columns,
  the unit the service admits, queues and routes; and
  :func:`~repro.serve.stream.interleave_records` replays stored dataset
  telemetry as a realistic interleaved multi-job stream.
- :class:`~repro.serve.config.ServeConfig` pins down the operational
  envelope: ingest-queue bound, block/shed backpressure, micro-batch
  coalescing, session timeout and eviction policy.
- :class:`~repro.serve.service.IngestService` runs the event loop: one
  :class:`~repro.core.streaming.StreamSession` per job id, micro-batches
  of ready sessions resolved through
  :meth:`~repro.engine.batch.BatchRecognizer.recognize_sessions` on a
  worker executor, verdicts delivered as awaitables and callbacks, and
  every operational counter folded into the engine's
  :class:`~repro.engine.stats.EngineStats`.  A retention loop
  auto-prunes completed sessions by age and/or count, so a week-long
  campaign runs in bounded memory.
- :class:`~repro.serve.net.NetListener` is the multi-producer front
  door: a TCP + Unix-domain-socket listener that lets N monitoring
  relays push the same NDJSON concurrently, with per-connection
  micro-batching, fault isolation, and backpressure that propagates to
  slow producers via TCP flow control.  :func:`~repro.serve.net.push_samples`
  / :func:`~repro.serve.net.replay_samples` are the producer half.

Surfaced on the command line as ``efd serve`` (files, stdin, or
``--listen``/``--uds`` endpoints) and ``efd replay --connect`` (see
``docs/cli.md``; operations guide in ``docs/serving.md``).  Verdicts are
element-wise identical to the synchronous batch path — property-tested
in ``tests/test_serve_service.py`` and, over the wire, in
``tests/test_serve_net.py``.
"""

from repro.serve.config import BACKPRESSURE_POLICIES, EVICT_POLICIES, ServeConfig
from repro.serve.net import (
    NetListener,
    ProtocolError,
    push_samples,
    replay_samples,
    split_by_job,
)
from repro.serve.service import (
    IngestService,
    ServeError,
    SessionEvicted,
    SessionWorkerError,
)
from repro.serve.stream import (
    Sample,
    SampleBlock,
    interleave_records,
    parse_sample,
    read_samples,
    record_samples,
)

__all__ = [
    "BACKPRESSURE_POLICIES",
    "EVICT_POLICIES",
    "IngestService",
    "NetListener",
    "ProtocolError",
    "Sample",
    "SampleBlock",
    "ServeConfig",
    "ServeError",
    "SessionEvicted",
    "SessionWorkerError",
    "interleave_records",
    "parse_sample",
    "push_samples",
    "read_samples",
    "record_samples",
    "replay_samples",
    "split_by_job",
]
