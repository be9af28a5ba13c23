"""Async ingestion service: live-session recognition with backpressure.

:class:`IngestService` is the event-loop front-end the ROADMAP asks for
on top of :meth:`~repro.engine.batch.BatchRecognizer.recognize_sessions`:
telemetry samples for thousands of concurrent jobs flow in as blocks,
every active job is one row of a slab session table
(:class:`~repro.serve.slab.SessionSlab`), and the moment a session
crosses the fingerprint interval mark its row is written into its
:class:`~repro.core.streaming.StreamSession`, which is coalesced with
other ready sessions into a recognition micro-batch that resolves on a
worker executor — while ingestion keeps running.

The unit of work is a :class:`~repro.serve.stream.SampleBlock` — a run
of samples, typically one decoded wire chunk — and the pipeline, all on
one event loop, moves blocks, never single samples::

    submit_many(block) ─> admission ─> [bounded ingest queue] ─> _ingest_loop
      (submit(sample) =   once per      of blocks, capacity       one vectorized
       a 1-sample block)  first-seen    counted in samples        slab fold per
                          job           │ full? block / shed      block: a row per
                          │ cap? split  ▼                         active job
                          ▼             backpressure              │ row ready? ->
                     backpressure                                 ▼ its StreamSession
                                                            [ready deque] ─> _batch_loop
                                                                              │ slice ≤ cap
                                                                              ▼
                                                 executor: recognize_sessions(batch)
                                                                              │
                                                       futures / callbacks <──┘

A block that overruns the queue capacity or the session cap is split at
that point: under ``block`` the rest waits (lossless), under ``shed``
the refused samples are dropped and counted one by one.

Guarantees (property-tested in ``tests/test_serve_service.py``):

- **Equivalence** — with no samples shed and no sessions evicted, every
  verdict is element-wise identical to calling
  ``BatchRecognizer.recognize_sessions`` synchronously on sessions fed
  the same samples, for every backpressure configuration.  Routing
  folds each job's samples into its slab row in stream order, whatever
  the queueing (``np.add.at`` adds in index order), so its sums are
  bit-for-bit those of the synchronous feed (float addition is not
  associative: the order is what keeps them equal), and micro-batch
  composition cannot change a verdict.
  One delivery assumption: per-node timestamps are non-decreasing (a
  monitoring bus's normal order) — a sample retransmitted *out of
  order* after its session crossed the interval mark is dropped as
  late rather than folded in.
- **Bounded memory** — the ingest queue and the *active* session table
  (the slab) are the only buffers, both capped by
  :class:`~repro.serve.config.ServeConfig`.  Completed sessions are
  retained for verdict retrieval until :meth:`IngestService.forget` —
  or, with ``retention_max_age`` / ``retention_max_done`` configured,
  until the retention loop auto-prunes them (the week-long-campaign
  mode; see ``docs/serving.md``).  A pruned job leaves a *tombstone* so
  its trailing samples still count as late instead of opening a fresh
  session from a partial window; at most ``max_sessions`` tombstones
  are kept, and each expires after ``session_timeout`` without samples.
- **Explicit failure** — a recognition worker crash is isolated to the
  failing session and surfaces as a
  :class:`~repro._util.errors.WorkerError` carrying that session's job
  id; healthy sessions in the same micro-batch still resolve.  A bad
  sample (a node rank outside the job's nodes, a node count no session
  can take) fails only its own job's verdict, and routing goes on.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import islice, repeat
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro._util.errors import WorkerError
from repro.core.matcher import MatchResult
from repro.core.streaming import StreamSession
from repro.engine.batch import BatchRecognizer
from repro.serve.config import ServeConfig
from repro.serve.slab import SessionSlab
from repro.serve.stream import Sample, SampleBlock

#: Signature of the optional verdict callback: ``(job_id, result)``.
VerdictCallback = Callable[[str, MatchResult], None]


class ServeError(RuntimeError):
    """Base class for ingestion-service errors."""


class SessionEvicted(ServeError):
    """A session timed out under the ``evict="drop"`` policy.

    Raised from the session's verdict awaitable; carries the job id and
    the configured timeout.
    """

    def __init__(self, job: str, timeout: float):
        self.job = job
        self.timeout = timeout
        super().__init__(
            f"session {job!r} evicted: no samples for {timeout:g}s and the "
            f"fingerprint interval never completed"
        )


class SessionWorkerError(WorkerError):
    """Recognition crashed on one session of a micro-batch.

    A :class:`~repro._util.errors.WorkerError` (so existing handlers
    keep working) that additionally names the failing session's job id
    (:attr:`session_id`).
    """

    def __init__(self, session_id: str, index: int, n_items: int,
                 original: BaseException):
        super().__init__(index, n_items, original)
        self.session_id = session_id
        # Rebuild the message with the job id front and center.
        self.args = (
            f"recognition failed for session {session_id!r} "
            f"(item {index} of {n_items}): "
            f"{type(original).__name__}: {original}",
        )


class _Phase(Enum):
    ACTIVE = "active"      # accepting samples, not yet ready
    QUEUED = "queued"      # on the ready deque / in a resolving batch
    DONE = "done"          # future resolved (verdict or error)


@dataclass
class _SessionState:
    """Service-side bookkeeping around one StreamSession.

    While the session is ACTIVE its accumulators live in row ``row`` of
    the service's :class:`~repro.serve.slab.SessionSlab`; reading
    :attr:`session` writes them through first.  A job whose session
    could not open keeps ``None`` and a failed verdict.
    """

    job: str
    _session: Optional[StreamSession]
    future: "asyncio.Future[MatchResult]"
    slab: SessionSlab
    row: int = -1
    phase: _Phase = _Phase.ACTIVE
    ready_at: float = 0.0
    done_at: float = 0.0
    forced: bool = False
    # Turned ready more than batch_max_delay after the previous ready
    # session: its batch leaves without waiting for batch-mates.
    sparse: bool = False

    @property
    def session(self) -> Optional[StreamSession]:
        if self.row >= 0:
            self.slab.store(self.row, self._session)
        return self._session


class _BlockQueue:
    """FIFO of sample blocks whose capacity is counted in samples.

    :attr:`size` is the number of queued samples.  A producer puts at
    most :meth:`room` samples at a time (splitting a larger block) and
    waits in :meth:`wait_space` for the rest; :meth:`join` waits until
    every block put has been marked done, as :meth:`asyncio.Queue.join`
    does.  Single consumer, loop-confined.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.size = 0
        self._blocks: Deque[SampleBlock] = deque()
        self._unfinished = 0
        self._nonempty = asyncio.Event()
        self._space = asyncio.Event()
        self._finished = asyncio.Event()
        self._finished.set()

    def room(self) -> int:
        return self.capacity - self.size

    def put_nowait(self, block: SampleBlock) -> None:
        self._blocks.append(block)
        self.size += len(block)
        self._unfinished += 1
        self._nonempty.set()
        self._finished.clear()

    async def wait_space(self) -> None:
        while self.size >= self.capacity:
            self._space.clear()
            await self._space.wait()

    async def get(self) -> SampleBlock:
        while not self._blocks:
            self._nonempty.clear()
            await self._nonempty.wait()
        block = self._blocks.popleft()
        self.size -= len(block)
        self._space.set()
        return block

    def task_done(self) -> None:
        self._unfinished -= 1
        if not self._unfinished:
            self._finished.set()

    async def join(self) -> None:
        if self._unfinished:
            await self._finished.wait()


class IngestService:
    """Asyncio front-end resolving live sessions through a batch engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.engine.batch.BatchRecognizer`; its dictionary /
        metric / depth / interval configure every session, and its
        :class:`~repro.engine.stats.EngineStats` accumulates both the
        recognition counters and the service counters (queue depth,
        sheds, evictions, latency).
    config:
        :class:`~repro.serve.config.ServeConfig`; defaults are sized for
        an interactive demo, not a production deployment.
    on_verdict:
        Optional callback invoked on the event loop as
        ``on_verdict(job_id, result)`` whenever a session resolves
        successfully (including forced/evicted verdicts).

    Use as an async context manager::

        async with IngestService(engine, config) as svc:
            async for sample in feed:
                await svc.submit(sample)
            await svc.drain()
            verdict = await svc.verdict("j-1042")

    The service itself is single-loop: every public coroutine must be
    awaited on the loop that entered the context.  Recognition runs on a
    thread executor so the loop never blocks on a batch.
    """

    def __init__(
        self,
        engine: BatchRecognizer,
        config: Optional[ServeConfig] = None,
        on_verdict: Optional[VerdictCallback] = None,
    ):
        self.engine = engine
        self.config = config or ServeConfig()
        self.on_verdict = on_verdict
        self.n_callback_errors = 0
        self.stats = engine.stats
        self._sessions: Dict[str, _SessionState] = {}
        self._slab = SessionSlab(engine.interval)  # the ACTIVE sessions
        self._pending_opens: Set[str] = set()  # admitted, not yet routed
        self._n_active = 0            # sessions not yet DONE
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ingest_q: Optional[_BlockQueue] = None
        # QUEUED sessions awaiting a batch, oldest first; the event wakes
        # the batch loop when the deque turns non-empty or fills a batch.
        self._ready: Deque[_SessionState] = deque()
        self._ready_event: Optional[asyncio.Event] = None
        self._last_ready = float("-inf")  # when a session last turned ready
        self._ingest_task: Optional["asyncio.Task[None]"] = None
        self._batch_task: Optional["asyncio.Task[None]"] = None
        self._tasks: List["asyncio.Task[None]"] = []
        self._batches: "set[asyncio.Task[None]]" = set()
        self._inflight: Optional[asyncio.Semaphore] = None
        self._session_freed: Optional[asyncio.Event] = None
        self._n_unresolved = 0        # QUEUED sessions not yet resolved
        self._quiescent: Optional[asyncio.Event] = None
        self._engine_lock = threading.Lock()
        self._running = False
        # Completed sessions in resolution order, for retention pruning.
        # Entries are (job, done_at); a manually forgotten job leaves a
        # stale entry behind, detected by comparing done_at on prune.
        self._done_order: Deque[Tuple[str, float]] = deque()
        self._n_done = 0              # DONE sessions still in _sessions
        # Retention-pruned jobs -> loop time of their last sample, least
        # recently active first: their late samples are dropped, not
        # routed into a new session.
        self._tombstones: "OrderedDict[str, float]" = OrderedDict()

    @property
    def engine_lock(self) -> threading.Lock:
        """The lock serializing engine access across executor threads.

        Anything mutating the engine's dictionary from outside the
        service — a :class:`~repro.engine.replicate.ReplicationFollower`
        applying the leader's stream, an operator folding the delta-log
        — must hold this, exactly as :meth:`learn` and the recognition
        path do, or batches would read a store mid-mutation.
        """
        return self._engine_lock

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "IngestService":
        """Create the queues and start the ingest/batch/reaper tasks."""
        if self._running:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._ingest_q = _BlockQueue(self.config.max_pending_samples)
        self._ready = deque()
        self._ready_event = asyncio.Event()
        self._inflight = asyncio.Semaphore(self.config.max_inflight_batches)
        self._session_freed = asyncio.Event()
        self._quiescent = asyncio.Event()
        self._quiescent.set()
        self._running = True
        # Warm-start: prebuild the engine's session-path lookup index on
        # the executor (for a columnar shard directory that is the
        # merged key-hash table — the negative-lookup filters alone
        # load at open and would otherwise defer this build to the
        # first large batch that survives them), so the first
        # micro-batch — and the event loop — never pays for it.  On a
        # columnar store the build also reads through the OS page
        # cache, prefaulting pages every serve worker then shares.
        warm = getattr(self.engine, "warm", None)
        if warm is not None:
            await self._loop.run_in_executor(
                None, partial(warm, for_sessions=True)
            )
        self._ingest_task = self._loop.create_task(
            self._ingest_loop(), name="efd-serve-ingest"
        )
        self._batch_task = self._loop.create_task(
            self._batch_loop(), name="efd-serve-batch"
        )
        self._tasks = [self._ingest_task, self._batch_task]
        if self.config.session_timeout is not None:
            self._tasks.append(
                self._loop.create_task(self._reaper_loop(), name="efd-serve-reaper")
            )
        if self.config.retention_max_age is not None:
            self._tasks.append(
                self._loop.create_task(
                    self._retention_loop(), name="efd-serve-retention"
                )
            )
        return self

    async def __aenter__(self) -> "IngestService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(force=exc_type is None)

    async def close(self, force: bool = True) -> None:
        """Drain and stop the service.

        With ``force`` (default), sessions still mid-stream when the
        feed ends are decided early from whatever samples arrived —
        the operational behavior for a stream that simply stops.
        Without it, their awaitables are cancelled.
        """
        if not self._running:
            return
        await self.drain()
        if force:
            for state in self._sessions.values():
                if state.phase is _Phase.ACTIVE:
                    self._queue_ready(state, forced=True)
            await self.drain()
        self._running = False
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        # A cancelled task's traceback holds its frame, whose ``self`` is
        # this service: dropping the finished tasks (and the callback,
        # past its last use) breaks that cycle, so a closed service and
        # its store are freed by reference counting, not a full GC.
        self._tasks = []
        self._ingest_task = self._batch_task = None
        self.on_verdict = None
        # _finish may cascade into a size-cap prune, which mutates
        # _sessions — iterate over a snapshot.
        for state in list(self._sessions.values()):
            if not state.future.done():
                state.future.cancel()
            if state.phase is not _Phase.DONE:
                # Finalize abandoned sessions (close(force=False) with the
                # stream mid-flight): without this the active-session
                # gauge stays pinned and `forget` refuses them forever.
                self._finish(state)
        if self.config.compact_on_close:
            # Learn-while-serving leaves pending delta-log records on a
            # columnar dictionary; fold them into the base so the next
            # boot opens a clean directory.  No-op on other backends.
            compact = getattr(self.engine.dictionary, "compact_delta", None)
            if compact is not None:

                def _fold() -> int:
                    with self._engine_lock:
                        return compact()

                await self._loop.run_in_executor(None, _fold)

    async def drain(self) -> None:
        """Wait until every accepted sample is ingested and every ready
        (or force-queued) session has resolved.

        Robust against dead pipeline tasks: if the ingest or batch loop
        has stopped (crash, cancellation), drain returns instead of
        waiting on progress that can no longer happen.
        """
        if not await self._watch(self._ingest_q.join(), self._ingest_task):
            return
        while self._n_unresolved:
            self._quiescent.clear()
            if not await self._watch(self._quiescent.wait(), self._batch_task):
                return
            # Re-join: resolving a batch may have unblocked a producer.
            if not await self._watch(self._ingest_q.join(), self._ingest_task):
                return

    async def _watch(self, coro, task: "asyncio.Task[None]") -> bool:
        """Await ``coro``, bailing out if the pipeline ``task`` dies.

        Returns True when ``coro`` completed, False when the watched
        task is (or becomes) done first — meaning the condition can
        never be satisfied by normal progress.
        """
        waiter = asyncio.ensure_future(coro)
        if task is None or task.done():
            waiter.cancel()
            await asyncio.gather(waiter, return_exceptions=True)
            return False
        await asyncio.wait({waiter, task}, return_when=asyncio.FIRST_COMPLETED)
        if waiter.done() and not waiter.cancelled():
            waiter.result()  # propagate unexpected errors
            return True
        waiter.cancel()
        await asyncio.gather(waiter, return_exceptions=True)
        return False

    # -- ingestion -----------------------------------------------------------
    async def submit(self, sample: Sample) -> bool:
        """Offer one sample: :meth:`submit_many` of a one-sample block.

        Returns ``True`` if the sample was accepted.  Under the
        ``"block"`` policy this coroutine suspends while the ingest
        queue is full, or while the sample would open a session beyond
        ``max_sessions`` (lossless backpressure — note that a blocked
        producer can only resume once verdicts or the eviction reaper
        free a slot, so a lossless deployment whose streams interleave
        more jobs than ``max_sessions`` should configure
        ``session_timeout``).  Under ``"shed"`` the sample is dropped
        instead, ``False`` is returned, and the drop is counted in
        :attr:`EngineStats.n_shed`.
        """
        return await self.submit_many(SampleBlock.of((sample,))) == 1

    async def submit_many(
        self, samples: Union[SampleBlock, Iterable[Sample]]
    ) -> int:
        """Offer samples; returns how many were accepted.

        ``samples`` is a :class:`~repro.serve.stream.SampleBlock`, queued
        as one unit, or any iterable of :class:`Sample`, consumed lazily
        in blocks of ``net_batch_samples`` with a turn of the event loop
        between blocks — a long feed is never held in memory at once,
        and verdicts landing mid-feed free session slots for the rest.
        Each block is admitted once per first-seen job and queued as a
        unit; where it overruns the queue capacity (counted in samples)
        or the session cap it is split at that point.  Under ``"block"``
        the rest waits for room, so every sample is accepted; under
        ``"shed"`` the samples that do not fit are dropped and counted
        one by one in :attr:`EngineStats.n_shed` — after one yield to
        the ingest loop, so only a queue that ingestion genuinely cannot
        drain sheds.
        """
        self._check_running()
        if isinstance(samples, SampleBlock):
            return await self._submit_block(samples)
        rows = iter(samples)
        size = self.config.net_batch_samples
        accepted = 0
        while True:
            chunk = list(islice(rows, size))
            if not chunk:
                return accepted
            accepted += await self._submit_block(SampleBlock.of(chunk))
            await asyncio.sleep(0)

    async def _submit_block(self, block: SampleBlock) -> int:
        """Admit and queue one block (see :meth:`submit_many`)."""
        shed = self.config.backpressure == "shed"
        admitted: Set[str] = set()
        if shed and self._admit(block.jobs, 0, admitted) < len(block):
            # Past the session cap: shed every sample of the jobs that
            # found no slot, keep the rest in order.
            refused = set(block.jobs).difference(self._sessions)
            refused.difference_update(self._pending_opens)
            refused.difference_update(self._tombstones)
            kept = SampleBlock.of(s for s in block if s.job not in refused)
            self.stats.add(n_shed=len(block) - len(kept))
            block = kept
        q = self._ingest_q
        n = len(block)
        pos = 0
        stop = n if shed else 0  # where the jobs admitted so far run out
        try:
            while pos < n:
                if pos == stop:
                    stop = self._admit(block.jobs, pos, admitted)
                    if stop == pos:
                        self._session_freed.clear()
                        await self._session_freed.wait()
                        continue
                if q.room() <= 0:
                    if not shed:
                        await q.wait_space()
                        continue
                    # Yield once so the ingest loop can drain; shed only
                    # if the queue is *still* full.
                    await asyncio.sleep(0)
                    if q.room() <= 0:
                        self.stats.add(n_shed=n - pos)
                        self._unadmit(admitted, block.jobs[:pos])
                        break
                end = min(stop, pos + q.room())
                q.put_nowait(block if end - pos == n else block[pos:end])
                self.stats.record_queue_depth(q.size)
                pos = end
        except asyncio.CancelledError:
            # A cancelled wait (e.g. an ``asyncio.wait_for`` timeout)
            # must not leave admitted jobs holding ``max_sessions``
            # slots without a session ever opening.
            self._unadmit(admitted, block.jobs[:pos])
            raise
        return pos

    def _admit(self, jobs: List[str], pos: int, admitted: Set[str]) -> int:
        """Session-cap admission for ``jobs[pos:]``, once per first-seen job.

        Admits every job that has neither a session nor a pending
        admission, in first-seen order, while the cap allows; returns
        the index of the first sample of the first job it could not
        admit (``len(jobs)`` when all fit) and adds the jobs it admitted
        to ``admitted``.  Running at the producer side (rather than in
        routing) keeps routing live for every admitted
        session, so verdicts — which free slots — can always make
        progress.  Jobs admitted but not yet routed count against the
        cap via ``_pending_opens``, so a burst of first-sight jobs
        cannot blow past it.
        """
        n = len(jobs)
        fresh = set(jobs[pos:] if pos else jobs).difference(self._sessions)
        if fresh:
            fresh.difference_update(self._pending_opens)
            fresh.difference_update(self._tombstones)
        if not fresh:
            return n
        pending = self._pending_opens
        room = self.config.max_sessions - self._n_active - len(pending)
        if len(fresh) <= room:
            pending |= fresh
            admitted |= fresh
            return n
        for i in range(pos, n):
            job = jobs[i]
            if job in fresh:
                if room <= 0:
                    return i
                room -= 1
                fresh.discard(job)
                pending.add(job)
                admitted.add(job)
        return n

    def _unadmit(self, admitted: Set[str], queued: List[str]) -> None:
        """Release the slots of jobs a submission admitted but never
        queued a sample for (a shed tail, a cancelled wait)."""
        if admitted:
            self._pending_opens.difference_update(admitted.difference(queued))

    # -- verdict access -------------------------------------------------------
    async def verdict(self, job: str) -> MatchResult:
        """Await ``job``'s :class:`MatchResult`.

        Valid before, during, or after resolution.  A submitted-but-not-
        yet-routed job is waited for (the ingest queue is flushed first);
        a job the service has truly never seen raises :class:`KeyError`.
        Raises :class:`SessionEvicted` for dropped sessions and
        :class:`~repro._util.errors.WorkerError` when recognition
        crashed on this session.  Wrap in :func:`asyncio.wait_for` for a
        deadline — cancelling this coroutine never cancels the verdict
        itself (the underlying future is shielded).
        """
        state = self._sessions.get(job)
        if state is None and self._running:
            # The first sample may still be sitting in the ingest queue.
            await self._watch(self._ingest_q.join(), self._ingest_task)
            state = self._sessions.get(job)
        if state is None:
            raise KeyError(f"unknown job {job!r}: no samples ever accepted")
        return await asyncio.shield(state.future)

    @property
    def results(self) -> Dict[str, MatchResult]:
        """Verdicts of all successfully resolved sessions, by job id."""
        return {
            job: state.future.result()
            for job, state in self._sessions.items()
            if state.future.done() and not state.future.cancelled()
            and state.future.exception() is None
        }

    @property
    def n_sessions(self) -> int:
        """Sessions currently tracked (any phase)."""
        return len(self._sessions)

    async def learn(self, job: str, label: str) -> int:
        """Fold a resolved session's fingerprints into the dictionary.

        This is the paper's learn-while-recognizing loop at serving
        time: once ``job``'s verdict is out (and, say, confirmed by an
        operator or the scheduler's ground truth), its fingerprints
        become dictionary observations under ``label`` — the very next
        micro-batch sees them.  Works against every storage backend
        through the :class:`~repro.engine.backend.DictionaryBackend`
        write surface; on a columnar store the observations land in the
        write-ahead delta-log, so the vectorized lookup index stays hot
        and the learnings survive a restart (folded into the base by
        ``compact_on_close`` or ``efd engine compact``).

        Returns the number of fingerprints inserted (nodes without a
        usable fingerprint are skipped).  Raises :class:`KeyError` for
        an unknown job and :class:`RuntimeError` for a session that has
        not resolved yet — learning from an undecided session would
        race the recognition worker that is still reading it.
        """
        state = self._sessions.get(job)
        if state is None:
            raise KeyError(f"unknown job {job!r}: no samples ever accepted")
        if state.phase is not _Phase.DONE:
            raise RuntimeError(
                f"session {job!r} is still {state.phase.value}: learn only "
                f"after its verdict resolves"
            )
        if state.session is None:
            raise RuntimeError(
                f"session {job!r} never opened: no fingerprints to learn"
            )
        fingerprints = state.session.fingerprints()
        engine = self.engine

        def _apply() -> int:
            with self._engine_lock:
                return engine.dictionary.add_many(fingerprints, label)

        return await self._loop.run_in_executor(None, _apply)

    def forget(self, job: str, _pruned: bool = False) -> None:
        """Drop a *completed* session's state (verdict included).

        Active sessions are capped by ``max_sessions``, but completed
        ones are retained so :meth:`verdict` stays answerable after the
        fact; a long-running deployment that has consumed a verdict
        (e.g. via ``on_verdict``) calls this to reclaim the entry — or
        configures ``retention_max_age`` / ``retention_max_done`` and
        lets the retention loop do it.  Sessions that never concluded
        (an errored, evicted, or close-cancelled verdict) are completed
        too: forgetting them must leave every
        :class:`~repro.engine.stats.EngineStats` session gauge at its
        true value.  An explicit ``forget`` frees the job id for reuse;
        a retention prune instead leaves a tombstone behind (see
        :meth:`_route`).
        """
        state = self._sessions.get(job)
        if state is None:
            if self._tombstones.pop(job, None) is not None:
                self.stats.add(tombstones=-1)
            return
        if state.phase is not _Phase.DONE:
            raise RuntimeError(f"session {job!r} is still {state.phase.value}")
        future = state.future
        if future.done() and not future.cancelled():
            # Mark an errored verdict retrieved, so discarding it never
            # trips the event loop's "exception never retrieved" alarm.
            future.exception()
        del self._sessions[job]
        self._n_done -= 1
        self.stats.record_session_forgotten(pruned=_pruned)
        if _pruned:
            self._tombstones[job] = self._loop.time()
            self.stats.add(tombstones=1)
            if len(self._tombstones) > self.config.max_sessions:
                self._tombstones.popitem(last=False)
                self.stats.add(tombstones=-1)

    # -- internals: routing ---------------------------------------------------
    async def _ingest_loop(self) -> None:
        q = self._ingest_q
        while True:
            block = await q.get()
            try:
                self._route(block)
            finally:
                q.task_done()

    def _route(self, block: SampleBlock) -> None:
        """Fold one block into the slab, with no suspension point.

        First-seen jobs open first, in first-seen order; then one
        :meth:`~repro.serve.slab.SessionSlab.fold` folds every sample of
        an active session, exactly as a sample-by-sample feed of the
        same stream would, and the sessions it made ready or failed
        leave the slab in stream order.  Every other sample is late: its
        job's verdict is queued or decided (the session may be in the
        hands of the worker executor, so folding it would race; for an
        in-order feed the sample lies past the interval and cannot
        change a fingerprint), its job was retention-pruned, or its
        job's session failed to open.
        """
        jobs = block.jobs
        n = len(jobs)
        now = self._loop.time()
        slab = self._slab
        get = slab.index.get
        rows = np.fromiter(map(get, jobs, repeat(-1)), np.intp, n)
        miss = (rows < 0).nonzero()[0]
        n_failed = 0
        if len(miss):
            at = miss.tolist()
            missed = list(map(jobs.__getitem__, at))
            distinct = set(missed)
            tombstones = self._tombstones
            pruned = distinct.intersection(tombstones)
            if pruned:
                # A retention-pruned job's trailing samples: late,
                # exactly as they were before the prune.
                last = dict(zip(missed, at))
                for job in sorted(pruned, key=last.__getitem__):
                    tombstones[job] = now
                    tombstones.move_to_end(job)
            fresh = distinct.difference(self._sessions, tombstones)
            if fresh:
                first = dict(zip(reversed(missed), reversed(at)))
                for job in sorted(fresh, key=first.__getitem__):
                    state = self._open(job, block.n_nodes[first[job]])
                    n_failed += state.row < 0
                rows[miss] = np.fromiter(map(get, missed, repeat(-1)), np.intp,
                                         len(at))
        exits, late = slab.fold(rows, block.nodes, block.times, block.values,
                                now)
        sessions = self._sessions
        for row, exc in exits:
            state = sessions[slab.jobs[row]]
            if exc is None:
                self._queue_ready(state)
            else:
                self._resolve_error(state, exc)
        late -= n_failed  # each failed open's first sample errored it
        if late:
            self.stats.add(n_late=late)

    def _open(self, job: str, n_nodes: Optional[int]) -> _SessionState:
        """Create the session, and its slab row, for a first-seen job id.

        Capacity was already checked at admission (:meth:`_admit`);
        never blocks, so routing stays live for existing sessions.  A
        node count the session refuses fails only this job's verdict.
        """
        self._pending_opens.discard(job)
        engine = self.engine
        try:
            session = StreamSession(
                dictionary=engine.dictionary,
                metric=engine.metric,
                depth=engine.depth,
                interval=engine.interval,
                n_nodes=n_nodes or self.config.default_nodes,
                unknown_label=engine.unknown_label,
                session_id=job,
            )
        except ValueError as exc:  # a bad node count
            session, error = None, exc
        state = _SessionState(
            job=job,
            _session=session,
            future=self._loop.create_future(),
            slab=self._slab,
        )
        self._sessions[job] = state
        self._n_active += 1
        self.stats.add(sessions_active=1)
        if session is None:
            self._resolve_error(state, error)
        else:
            state.row = self._slab.add(job, session.n_nodes, self._loop.time())
        return state

    def _release(self, state: _SessionState) -> None:
        """Write an ACTIVE session's slab row into its StreamSession, in
        place, and free the row: the session leaves the slab."""
        if state.row >= 0:
            self._slab.store(state.row, state._session)
            self._slab.remove(state.row)
            state.row = -1

    def _queue_ready(self, state: _SessionState, forced: bool = False) -> None:
        self._release(state)
        state.phase = _Phase.QUEUED
        state.forced = forced
        now = self._loop.time()
        state.sparse = now - self._last_ready > self.config.batch_max_delay
        state.ready_at = self._last_ready = now
        self._n_unresolved += 1
        self._quiescent.clear()
        ready = self._ready
        ready.append(state)
        if len(ready) == 1 or len(ready) == self.config.batch_max_sessions:
            self._ready_event.set()

    # -- internals: batching --------------------------------------------------
    async def _batch_loop(self) -> None:
        """Cut the ready deque into micro-batches, a batch at a time.

        While sessions keep turning ready, a batch leaves when it is
        full or when its oldest session has waited ``batch_max_delay``.
        When its oldest session turned ready after a quiet spell (more
        than ``batch_max_delay`` since the ready session before it),
        the batch leaves at once: batch-mates that did not show up
        within the delay are not expected within the next one.  Either
        way it takes every ready session up to ``batch_max_sessions``
        in one slice.  The loop sleeps on one event (set by
        :meth:`_queue_ready` when the deque turns non-empty or fills a
        batch) and arms at most one timer per batch, so its cost is per
        batch, not per session.
        """
        cfg = self.config
        loop = self._loop
        ready = self._ready
        event = self._ready_event
        while True:
            while not ready:
                event.clear()
                await event.wait()
            if len(ready) < cfg.batch_max_sessions and not ready[0].sparse:
                deadline = ready[0].ready_at + cfg.batch_max_delay
                if deadline > loop.time():
                    event.clear()
                    timer = loop.call_at(deadline, event.set)
                    try:
                        await event.wait()
                    finally:
                        timer.cancel()
            await self._inflight.acquire()
            n = min(len(ready), cfg.batch_max_sessions)
            batch = [ready.popleft() for _ in range(n)]
            task = loop.create_task(self._resolve_batch(batch))
            self._batches.add(task)
            task.add_done_callback(self._batches.discard)

    async def _resolve_batch(self, states: List[_SessionState]) -> None:
        try:
            sessions = [state.session for state in states]
            try:
                results = await self._loop.run_in_executor(
                    None, partial(self._recognize, sessions)
                )
            except Exception:
                await self._isolate_failure(states)
                return
            for state, result in zip(states, results):
                self._resolve(state, result)
        finally:
            self._inflight.release()

    def _recognize(self, sessions: List[StreamSession]) -> List[MatchResult]:
        """Executor entry point.  The lock serializes engine access:
        EngineStats and the cached tuple index are loop-confined
        everywhere else, and micro-batches may overlap."""
        with self._engine_lock:
            return self.engine.recognize_sessions(sessions, force=True)

    async def _isolate_failure(self, states: List[_SessionState]) -> None:
        """A batch crashed: retry sessions one by one so only the truly
        failing session(s) surface the error, wrapped with their job id."""
        n = len(states)
        for index, state in enumerate(states):
            try:
                result = await self._loop.run_in_executor(
                    None, partial(self._recognize, [state.session])
                )
            except Exception as exc:
                self._resolve_error(
                    state, SessionWorkerError(state.job, index, n, exc)
                )
            else:
                self._resolve(state, result[0])

    # -- internals: resolution ------------------------------------------------
    def _resolve(self, state: _SessionState, result: MatchResult) -> None:
        if state.future.done():
            return
        self.stats.record_latency(self._loop.time() - state.ready_at)
        state.future.set_result(result)
        self._finish(state)
        if self.on_verdict is not None:
            try:
                self.on_verdict(state.job, result)
            except Exception:
                # A crashing callback must not take down the batch task
                # (its remaining sessions would hang unresolved).  The
                # verdict itself is already delivered via the future.
                self.n_callback_errors += 1

    def _resolve_error(self, state: _SessionState, exc: BaseException) -> None:
        if state.future.done():
            return
        state.future.set_exception(exc)
        self._finish(state)

    def _finish(self, state: _SessionState) -> None:
        self._release(state)
        if state.phase is _Phase.QUEUED:
            self._n_unresolved -= 1
            if self._n_unresolved == 0:
                self._quiescent.set()
        state.phase = _Phase.DONE
        state.done_at = self._loop.time()
        self._n_active -= 1
        self._n_done += 1
        self.stats.record_session_done()
        cfg = self.config
        if (cfg.retention_max_age is not None
                or cfg.retention_max_done is not None):
            # Only retention drains this deque; without a knob set,
            # appending would leak one entry per session forever under
            # the consume-verdict-then-forget() deployment pattern.
            self._done_order.append((state.job, state.done_at))
            if cfg.retention_max_done is not None:
                self._prune_over_cap()
        self._session_freed.set()

    # -- internals: eviction --------------------------------------------------
    async def _reaper_loop(self) -> None:
        timeout = self.config.session_timeout
        tick = min(timeout / 4, 0.5)
        while True:
            await asyncio.sleep(tick)
            now = self._loop.time()
            self._expire_tombstones(now - timeout)
            for job in self._slab.idle(now, timeout):
                state = self._sessions[job]
                self.stats.add(n_evicted=1)
                if self.config.evict == "force":
                    self._queue_ready(state, forced=True)
                else:
                    self._resolve_error(
                        state, SessionEvicted(state.job, timeout)
                    )

    def _expire_tombstones(self, cutoff: float) -> None:
        """Free the ids of pruned jobs silent since ``cutoff``."""
        tombstones = self._tombstones
        expired = 0
        while tombstones and next(iter(tombstones.values())) <= cutoff:
            tombstones.popitem(last=False)
            expired += 1
        if expired:
            self.stats.add(tombstones=-expired)

    # -- internals: retention -------------------------------------------------
    async def _retention_loop(self) -> None:
        """Age-based auto-prune of completed sessions.

        Runs only when ``retention_max_age`` is set; the size cap
        (``retention_max_done``) is enforced synchronously in
        :meth:`_finish`, so a burst between sweeps can never exceed it.
        """
        max_age = self.config.retention_max_age
        tick = min(self.config.retention_interval, max_age / 2)
        while True:
            await asyncio.sleep(tick)
            cutoff = self._loop.time() - max_age
            self._prune_older_than(cutoff)

    def _pop_done(self, job: str, done_at: float) -> bool:
        """Forget one completed session from the retention queue.

        Returns False for a stale queue entry: the job was already
        forgotten manually, or its id was reused by a newer session
        (detected by ``done_at`` mismatch) — in either case the entry
        must be skipped, not acted on.
        """
        state = self._sessions.get(job)
        if (state is None or state.phase is not _Phase.DONE
                or state.done_at != done_at):
            return False
        self.forget(job, _pruned=True)
        return True

    def _prune_older_than(self, cutoff: float) -> None:
        while self._done_order and self._done_order[0][1] <= cutoff:
            job, done_at = self._done_order.popleft()
            self._pop_done(job, done_at)

    def _prune_over_cap(self) -> None:
        cap = self.config.retention_max_done
        while self._n_done > cap and self._done_order:
            job, done_at = self._done_order.popleft()
            self._pop_done(job, done_at)

    # -- misc -----------------------------------------------------------------
    def _check_running(self) -> None:
        if not self._running:
            raise RuntimeError(
                "service not running: use `async with IngestService(...)` "
                "or await start()"
            )

    def __repr__(self) -> str:
        return (
            f"IngestService(sessions={len(self._sessions)}, "
            f"active={self._n_active}, "
            f"policy={self.config.backpressure!r}, "
            f"running={self._running})"
        )
