"""IngestService tests: equivalence, backpressure, eviction, failure.

The headline property: for any backpressure configuration under which
no sample is shed and no session evicted, the async service's verdicts
are element-wise identical to calling
``BatchRecognizer.recognize_sessions`` synchronously on sessions fed the
same samples.  The edge-case suites then cover exactly the behaviors
that *break* that equivalence on purpose: full-queue blocking vs.
shedding, timeout eviction (force and drop), and a recognition-worker
crash that must surface as a ``WorkerError`` naming the failing session.
"""

from __future__ import annotations

import ast
import asyncio
import dataclasses
import gc
import pathlib
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro

from repro.core.recognizer import EFDRecognizer
from repro.core.streaming import StreamingRecognizer, StreamSession
from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator
from repro.engine import BatchRecognizer, ShardedDictionary
from repro.parallel.pool import WorkerError
from repro.serve import (
    IngestService,
    Sample,
    SampleBlock,
    ServeConfig,
    SessionEvicted,
    interleave_records,
)
from repro.serve.slab import SessionSlab

METRIC = "nr_mapped_vmstat"
DEPTH = 2


@pytest.fixture(scope="module")
def dataset():
    config = DatasetConfig(
        metrics=(METRIC,), repetitions=2, seed=13, duration_cap=150.0,
        apps=("ft", "mg", "lu", "CoMD"),
    )
    return TaxonomistDatasetGenerator(config).generate()


@pytest.fixture(scope="module")
def recognizer(dataset):
    return EFDRecognizer(metric=METRIC, depth=DEPTH).fit(dataset)


def _engine(recognizer, n_shards: int = 1) -> BatchRecognizer:
    dictionary = recognizer.dictionary_
    if n_shards > 1:
        dictionary = ShardedDictionary.from_flat(dictionary, n_shards)
    return BatchRecognizer(dictionary, metric=METRIC, depth=DEPTH)


def _reference_verdicts(recognizer, records, job_ids):
    """The synchronous path: same samples, one recognize_sessions call."""
    streaming = StreamingRecognizer.from_recognizer(recognizer)
    sessions = []
    for record, job in zip(records, job_ids):
        session = streaming.open_session(
            n_nodes=record.n_nodes, session_id=job
        )
        for node in range(record.n_nodes):
            series = record.series(METRIC, node)
            session.ingest_many(node, series.times, series.values)
        sessions.append(session)
    engine = BatchRecognizer(recognizer.dictionary_, metric=METRIC, depth=DEPTH)
    return dict(zip(job_ids, engine.recognize_sessions(sessions, force=True)))


async def _serve(engine, config, samples, chunked: bool = False):
    """Run one stream through a fresh service; returns the service."""
    service = IngestService(engine, config)
    async with service:
        if chunked:
            await service.submit_many(samples)
        else:
            for sample in samples:
                await service.submit(sample)
        await service.drain()
    return service


# ---------------------------------------------------------------------------
# Equivalence property
# ---------------------------------------------------------------------------

EQUIVALENCE_CONFIGS = [
    # Tiny queue + tiny batches: constant blocking backpressure, many
    # micro-batches racing the producer.
    ServeConfig(max_pending_samples=8, backpressure="block",
                batch_max_sessions=3, batch_max_delay=0.002),
    # Shed policy with ample capacity: the lossy path, configured so it
    # never actually loses anything.
    ServeConfig(max_pending_samples=200_000, backpressure="shed",
                batch_max_sessions=64, batch_max_delay=0.02),
]


class TestEquivalence:
    @pytest.mark.parametrize("config", EQUIVALENCE_CONFIGS,
                             ids=["block-tiny-queue", "shed-ample-queue"])
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_async_verdicts_equal_sync_batch(
        self, recognizer, dataset, config, n_shards
    ):
        records = list(dataset)[:12]
        job_ids = [f"job-{i:04d}" for i in range(len(records))]
        reference = _reference_verdicts(recognizer, records, job_ids)

        engine = _engine(recognizer, n_shards)
        samples = interleave_records(records, METRIC, job_ids)
        service = asyncio.run(
            _serve(engine, config, samples,
                   chunked=config.backpressure == "shed")
        )

        assert engine.stats.n_shed == 0
        assert engine.stats.n_evicted == 0
        results = service.results
        assert set(results) == set(job_ids)
        for job in job_ids:
            assert results[job] == reference[job], job

    def test_verdict_awaitable_and_callback(self, recognizer, dataset):
        records = list(dataset)[:3]
        job_ids = ["a", "b", "c"]
        reference = _reference_verdicts(recognizer, records, job_ids)
        seen = {}

        async def run():
            engine = _engine(recognizer)
            service = IngestService(
                engine,
                ServeConfig(batch_max_delay=0.002),
                on_verdict=lambda job, result: seen.setdefault(job, result),
            )
            async with service:
                for sample in interleave_records(records, METRIC, job_ids):
                    await service.submit(sample)
                await service._ingest_q.join()  # ensure "a" is routed
                # Await one verdict mid-flight, before drain.
                first = await asyncio.wait_for(service.verdict("a"), timeout=5)
                await service.drain()
                return first

        first = asyncio.run(run())
        assert first == reference["a"]
        assert seen == reference

    def test_stats_counters_move(self, recognizer, dataset):
        records = list(dataset)[:6]
        engine = _engine(recognizer)
        config = ServeConfig(batch_max_sessions=4, batch_max_delay=0.002)
        samples = interleave_records(records, METRIC)
        asyncio.run(_serve(engine, config, samples))
        stats = engine.stats
        assert stats.n_executions == 6
        assert stats.n_batches >= 2          # batch cap of 4 forces a split
        assert stats.max_batch <= 4
        assert stats.n_latencies == 6
        assert stats.total_latency >= 0
        assert stats.queue_peak >= 1
        assert stats.n_late > 0              # post-interval samples dropped
        assert stats.served
        rendered = stats.render()
        assert "ingest" in rendered and "latency" in rendered

    def test_unknown_job_raises_keyerror(self, recognizer):
        async def run():
            async with IngestService(_engine(recognizer)) as service:
                with pytest.raises(KeyError, match="unknown job"):
                    await service.verdict("nope")

        asyncio.run(run())


# ---------------------------------------------------------------------------
# Backpressure edge cases
# ---------------------------------------------------------------------------

def _sample(job: str, t: float, node: int = 0) -> Sample:
    return Sample(job=job, node=node, time=t, value=100.0, n_nodes=1)


class TestBackpressure:
    def test_submit_requires_started_service(self, recognizer):
        service = IngestService(_engine(recognizer))
        with pytest.raises(RuntimeError, match="not running"):
            asyncio.run(service.submit(_sample("j", 0.0)))

    def test_full_queue_blocks_producer(self, recognizer):
        async def run():
            config = ServeConfig(max_pending_samples=2, backpressure="block")
            async with IngestService(_engine(recognizer), config) as service:
                # Freeze ingestion so the queue genuinely fills.
                service._tasks[0].cancel()
                await asyncio.sleep(0)
                assert await service.submit(_sample("j", 0.0))
                assert await service.submit(_sample("j", 1.0))
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        service.submit(_sample("j", 2.0)), timeout=0.1
                    )
                assert service.stats.n_shed == 0

        asyncio.run(run())

    def test_full_queue_sheds_when_configured(self, recognizer):
        async def run():
            config = ServeConfig(max_pending_samples=2, backpressure="shed")
            async with IngestService(_engine(recognizer), config) as service:
                service._tasks[0].cancel()
                await asyncio.sleep(0)
                assert await service.submit(_sample("j", 0.0))
                assert await service.submit(_sample("j", 1.0))
                # Queue is full: every further sample is refused, fast.
                assert not await service.submit(_sample("j", 2.0))
                assert not await service.submit(_sample("j", 3.0))
                assert service.stats.n_shed == 2
                assert service.stats.queue_peak == 2

        asyncio.run(run())

    def test_submit_many_sheds_and_counts(self, recognizer):
        async def run():
            config = ServeConfig(max_pending_samples=3, backpressure="shed")
            async with IngestService(_engine(recognizer), config) as service:
                service._tasks[0].cancel()
                await asyncio.sleep(0)
                accepted = await service.submit_many(
                    [_sample("j", float(t)) for t in range(10)]
                )
                assert accepted == 3
                assert service.stats.n_shed == 7

        asyncio.run(run())

    def test_session_cap_sheds_new_jobs(self, recognizer):
        async def run():
            config = ServeConfig(
                max_sessions=2, backpressure="shed", batch_max_delay=0.002
            )
            async with IngestService(_engine(recognizer), config) as service:
                for job in ("a", "b", "c"):
                    await service.submit(_sample(job, 0.0))
                    # The cap is admission-side against *routed* sessions;
                    # flush routing so each submit sees the true count.
                    await service._ingest_q.join()
                assert service.n_sessions == 2
                assert service.stats.n_shed == 1

        asyncio.run(run())

    def test_cancelled_blocking_submit_rolls_back_admission(self, recognizer):
        """A wait_for timeout on a blocked submit must not leak the new
        job's session slot (its _pending_opens entry)."""
        async def run():
            config = ServeConfig(max_pending_samples=1, backpressure="block")
            async with IngestService(_engine(recognizer), config) as service:
                service._tasks[0].cancel()
                await asyncio.sleep(0)
                assert await service.submit(_sample("a", 0.0))  # fills queue
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        service.submit(_sample("b", 0.0)), timeout=0.05
                    )
                assert "b" not in service._pending_opens
                assert "a" in service._pending_opens  # still queued

        asyncio.run(run())

    def test_session_cap_block_self_heals_via_eviction(self, recognizer):
        """The cap blocks the *producer*, never the routing loop, so the
        reaper can still evict the stale session and unblock it."""
        async def run():
            config = ServeConfig(
                max_sessions=1, backpressure="block",
                session_timeout=0.05, evict="force", batch_max_delay=0.002,
            )
            async with IngestService(_engine(recognizer), config) as service:
                await service.submit(_sample("first", 5.0))
                await service._ingest_q.join()
                # "second" must wait for a slot; the eviction of the
                # stalled "first" frees it well inside the deadline.
                assert await asyncio.wait_for(
                    service.submit(_sample("second", 5.0)), timeout=5
                )
                await service._ingest_q.join()
                assert service.n_sessions == 2
                assert service.stats.n_evicted >= 1

        asyncio.run(run())

    def test_submit_many_shed_keeps_up_with_live_ingestion(
        self, recognizer, dataset
    ):
        """A tiny queue under the shed policy must not mass-drop a
        stream the ingest loop can actually drain: submit_many yields
        and retries before shedding."""
        record = list(dataset)[0]

        async def run():
            config = ServeConfig(
                max_pending_samples=8, backpressure="shed",
                batch_max_delay=0.002,
            )
            async with IngestService(_engine(recognizer), config) as service:
                samples = list(interleave_records([record], METRIC, ["j"]))
                accepted = await service.submit_many(samples)
                await service.drain()
                assert accepted == len(samples)
                assert service.stats.n_shed == 0
                assert "j" in service.results

        asyncio.run(run())


# ---------------------------------------------------------------------------
# Block accounting
# ---------------------------------------------------------------------------

def _folded(service) -> int:
    """Samples folded into sessions (every session's ``n_samples``; a
    job whose session failed to open has none)."""
    return sum(state.session.n_samples for state in service._sessions.values()
               if state.session is not None)


def _job_major(records, job_ids):
    """Each job's samples contiguous, jobs one after another."""
    return [s for record, job in zip(records, job_ids)
            for s in interleave_records([record], METRIC, [job])]


class TestBlockAccounting:
    """A block is admitted, queued and routed as a unit, and split only
    where it overruns the queue or the session cap.  Every accepted
    sample ends up exactly once as folded, late or errored."""

    def test_block_larger_than_queue_is_lossless_under_block(
        self, recognizer, dataset
    ):
        records = list(dataset)[:4]
        job_ids = [f"job-{i}" for i in range(len(records))]
        reference = _reference_verdicts(recognizer, records, job_ids)
        samples = list(interleave_records(records, METRIC, job_ids))

        async def run():
            config = ServeConfig(max_pending_samples=16, backpressure="block",
                                 batch_max_delay=0.002)
            async with IngestService(_engine(recognizer), config) as service:
                accepted = await service.submit_many(SampleBlock.of(samples))
                await service.drain()
                return service, accepted

        service, accepted = asyncio.run(run())
        stats = service.stats
        assert accepted == len(samples)
        assert stats.n_shed == 0
        assert stats.queue_peak <= 16  # split, never overfilled
        assert accepted == _folded(service) + stats.n_late
        assert service.results == reference

    def test_block_larger_than_queue_sheds_exactly(self, recognizer):
        jobs = ["a"] * 3 + ["b"] * 2 + ["c"] * 3 + ["d"] * 4
        block = SampleBlock.of(_sample(job, float(t)) for t, job in enumerate(jobs))

        async def run():
            config = ServeConfig(max_pending_samples=5, backpressure="shed")
            async with IngestService(_engine(recognizer), config) as service:
                service._tasks[0].cancel()  # freeze ingestion
                await asyncio.sleep(0)
                accepted = await service.submit_many(block)
                assert accepted == 5
                assert service.stats.n_shed == 7
                assert service._ingest_q.size == 5
                # "c" and "d" were admitted, then shed whole: their
                # session slots are released, "a" and "b" keep theirs.
                assert service._pending_opens == {"a", "b"}

        asyncio.run(run())

    def test_more_first_seen_jobs_than_session_cap_sheds(self, recognizer):
        jobs = [f"j{k}" for k in range(6)] * 2   # round-robin, 2 each
        block = SampleBlock.of(_sample(job, float(t)) for t, job in enumerate(jobs))

        async def run():
            config = ServeConfig(max_sessions=3, backpressure="shed",
                                 batch_max_delay=0.002)
            async with IngestService(_engine(recognizer), config) as service:
                accepted = await service.submit_many(block)
                await service._ingest_q.join()
                assert accepted == 6          # j0..j2, both samples each
                assert service.stats.n_shed == 6
                assert set(service._sessions) == {"j0", "j1", "j2"}
                assert accepted == _folded(service)

        asyncio.run(run())

    def test_more_first_seen_jobs_than_session_cap_blocks_losslessly(
        self, recognizer, dataset, monkeypatch
    ):
        """The block splits at the first job past the cap and resumes
        as verdicts free slots: all accepted, the cap never exceeded."""
        records = list(dataset)[:5]
        job_ids = [f"job-{i}" for i in range(len(records))]
        reference = _reference_verdicts(recognizer, records, job_ids)
        samples = _job_major(records, job_ids)
        peak = []
        original = IngestService._open

        def spy(self, job, n_nodes):
            state = original(self, job, n_nodes)
            peak.append(self._n_active)
            return state

        monkeypatch.setattr(IngestService, "_open", spy)

        async def run():
            config = ServeConfig(max_sessions=2, backpressure="block",
                                 batch_max_delay=0.002)
            async with IngestService(_engine(recognizer), config) as service:
                accepted = await asyncio.wait_for(
                    service.submit_many(SampleBlock.of(samples)), timeout=10
                )
                await service.drain()
                return service, accepted

        service, accepted = asyncio.run(run())
        assert accepted == len(samples)
        assert max(peak) <= 2
        assert service.stats.n_shed == 0
        assert accepted == _folded(service) + service.stats.n_late
        assert service.results == reference

    def test_bad_node_rank_mid_block_errors_only_that_session(
        self, recognizer, dataset
    ):
        records = list(dataset)[:3]
        job_ids = ["ok-0", "bad", "ok-1"]
        reference = _reference_verdicts(
            recognizer, [records[0], records[2]], ["ok-0", "ok-1"]
        )
        samples = list(interleave_records(records, METRIC, job_ids))
        bad = [i for i, s in enumerate(samples) if s.job == "bad"]
        poisoned = bad[10]
        samples[poisoned] = samples[poisoned]._replace(node=99)

        async def run():
            config = ServeConfig(batch_max_delay=0.002)
            async with IngestService(_engine(recognizer), config) as service:
                accepted = await service.submit_many(SampleBlock.of(samples))
                await service.drain()
                with pytest.raises(ValueError, match="node 99"):
                    await service.verdict("bad")
                return service, accepted

        service, accepted = asyncio.run(run())
        stats = service.stats
        assert accepted == len(samples)
        # The bad session folded what preceded the bad sample; the rest
        # of its samples are late, and the other jobs still folded on.
        assert service._sessions["bad"].session.n_samples == 10
        assert accepted == _folded(service) + stats.n_late + 1
        assert service.results == reference

    def test_samples_after_ready_in_the_same_block_are_late(
        self, recognizer, dataset
    ):
        record = list(dataset)[0]
        samples = list(interleave_records([record], METRIC, ["j"]))
        probe = StreamingRecognizer.from_recognizer(recognizer).open_session(
            n_nodes=record.n_nodes
        )
        for ready_at, s in enumerate(samples):
            probe.ingest(s.node, s.time, s.value)
            if probe.ready:
                break

        async def run():
            config = ServeConfig(batch_max_delay=0.002)
            async with IngestService(_engine(recognizer), config) as service:
                accepted = await service.submit_many(SampleBlock.of(samples))
                await service.drain()
                return service, accepted

        service, accepted = asyncio.run(run())
        assert ready_at < len(samples) - 1  # the block runs past ready
        assert service.stats.n_late == len(samples) - ready_at - 1
        assert service._sessions["j"].session.n_samples == ready_at + 1
        assert accepted == _folded(service) + service.stats.n_late

    @pytest.mark.parametrize("n_nodes", [-1, 2.5, "4"])
    def test_bad_node_count_fails_only_that_job(
        self, recognizer, dataset, n_nodes
    ):
        """A job whose first sample carries a node count no session can
        take fails by name; its later samples are late and routing goes
        on for every other job."""
        record = list(dataset)[0]
        reference = _reference_verdicts(recognizer, [record], ["good"])
        good = list(interleave_records([record], METRIC, ["good"]))
        bad = [Sample("bad", 0, 61.0 + t, 1.0, n_nodes=n_nodes)
               for t in range(5)]

        async def run():
            config = ServeConfig(batch_max_delay=0.002)
            async with IngestService(_engine(recognizer), config) as service:
                accepted = await service.submit(bad[0])
                accepted += await service.submit_many(bad[1:] + good)
                await service.drain()
                with pytest.raises(ValueError, match="n_nodes"):
                    await service.verdict("bad")
                with pytest.raises(RuntimeError, match="never opened"):
                    await service.learn("bad", "ft")
                return service, accepted

        service, accepted = asyncio.run(run())
        assert accepted == len(bad) + len(good)
        assert service.results == reference
        assert accepted == _folded(service) + service.stats.n_late + 1

    def test_iterable_is_consumed_lazily_in_blocks(self, recognizer):
        """An iterable of samples is pulled ``net_batch_samples`` at a
        time, each block routed before the next is pulled: a long feed
        is never held in memory at once."""
        folded_at_pull = []

        async def run():
            config = ServeConfig(net_batch_samples=8, batch_max_delay=0.002)
            async with IngestService(_engine(recognizer), config) as service:

                def feed():
                    for t in range(40):
                        if t and t % 8 == 0:
                            folded_at_pull.append(_folded(service))
                        yield _sample("lazy", 61.0 + t)

                accepted = await service.submit_many(feed())
                await service.drain()
                return accepted

        assert asyncio.run(run()) == 40
        assert folded_at_pull == [8, 16, 24, 32]


# ---------------------------------------------------------------------------
# Slab routing == the per-sample feed
# ---------------------------------------------------------------------------

_NAN = float("nan")
# Mostly inside the [60, 120) window, so sums carry across blocks; then
# past its end (a node's clock crossing it), before it, its edges and
# lost timestamps.
_SLAB_WINDOW = st.floats(min_value=60.0, max_value=119.99)
_SLAB_TIMES = st.one_of(
    *[_SLAB_WINDOW] * 8,
    st.floats(min_value=120.0, max_value=160.0),
    st.sampled_from([_NAN, 10.0, 59.999, 60.0, 119.999, 120.0]),
)
# k/7 * 10^e: inexact, of mixed magnitude, so sums round by order.
_SLAB_VALUES = st.one_of(
    st.tuples(st.integers(1, 10**6), st.integers(-6, 6)).map(
        lambda p: p[0] / 7.0 * 10.0 ** p[1]
    ),
    st.just(_NAN),  # sampler dropout
)
_SLAB_RANKS = [0] * 6 + [1] * 6 + [2] * 4 + [3] * 2
_SLAB_WIDTHS = [1, 2, 2, 3, 3, None]  # None takes default_nodes


@st.composite
def _slab_streams(draw):
    """A multi-job stream, the jobs whose ids were retention-pruned
    before it starts, and the block sizes it is cut into.  Half the
    streams also carry bad samples: negative, too large and non-integer
    node ranks, and node counts (-1, 2.5) that fail the open."""
    faults = draw(st.booleans())
    ranks = _SLAB_RANKS + ([-1, 7, 1.5, 2.0] if faults else [])
    widths = _SLAB_WIDTHS + ([-1, 2.5] if faults else [])
    n_jobs = draw(st.integers(1, 5))
    widths = draw(st.lists(st.sampled_from(widths), min_size=n_jobs,
                           max_size=n_jobs))
    n = draw(st.integers(0, 160))  # a plain list strategy stays short
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_jobs - 1), st.sampled_from(ranks),
                  _SLAB_TIMES, _SLAB_VALUES),
        min_size=n, max_size=n,
    ))
    stream = [Sample(f"j{j}", node, t, v, n_nodes=widths[j])
              for j, node, t, v in rows]
    pruned = sorted({f"j{j}" for j in draw(
        st.sets(st.integers(0, n_jobs - 1), max_size=2)
    )})
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=8))
    return stream, pruned, sizes


def _per_sample_oracle(stream, pruned, default_nodes):
    """The per-sample routing, with ``StreamSession.ingest`` as its
    fold: each job's session (None where the open failed), the jobs in
    the order they turned ready, the error type of each failed job and
    the late count."""
    sessions, ready, errors, late = {}, [], {}, 0
    for s in stream:
        if s.job in pruned or s.job in errors or s.job in ready:
            late += 1
            continue
        session = sessions.get(s.job)
        if session is None:
            try:
                session = StreamSession(
                    dictionary=None, metric=METRIC, depth=DEPTH,
                    interval=(60.0, 120.0),
                    n_nodes=s.n_nodes or default_nodes,
                )
            except ValueError as exc:
                sessions[s.job] = None
                errors[s.job] = type(exc)
                continue
            sessions[s.job] = session
        try:
            session.ingest(s.node, s.time, s.value)
        except (ValueError, TypeError) as exc:
            errors[s.job] = type(exc)
            continue
        if session.ready:
            ready.append(s.job)
    return sessions, ready, errors, late


def _bits(values):
    return [float(v).hex() for v in values]


class TestSlabRouting:
    """The slab folds a block as the per-sample feed would, for any
    stream and any cut into blocks, and it is the only routing path."""

    @settings(max_examples=150, deadline=None)
    @given(case=_slab_streams())
    # A sum carried across blocks: 0.1 + (0.2 + 0.3) rounds differently.
    @example(case=([Sample("j0", 0, 61.0 + t, v, 1)
                    for t, v in enumerate([0.1, 0.2, 0.3])], [], [1, 2]))
    # Two sessions ready in one block, the later-opened one first.
    @example(case=([Sample("j0", 0, 61.0, 1.0, 1), Sample("j1", 0, 61.0, 1.0, 1),
                    Sample("j1", 0, 130.0, 1.0, 1), Sample("j0", 0, 130.0, 1.0, 1)],
                   [], [2]))
    def test_slab_equals_per_sample_oracle(self, recognizer, case):
        stream, pruned, sizes = case
        config = ServeConfig(batch_max_delay=0.002)
        sessions, ready, errors, late = _per_sample_oracle(
            stream, set(pruned), config.default_nodes
        )
        queued = []

        async def run():
            service = IngestService(_engine(recognizer), config)
            # One row to start with: the slab grows and compacts its
            # slot pool as it goes.
            service._slab = SessionSlab((60.0, 120.0), rows=1)
            async with service:
                for job in pruned:  # one sample makes a 1-node job ready
                    await service.submit(Sample(job, 0, 130.0, 1.0, 1))
                    await service.drain()
                    service.forget(job, _pruned=True)
                queue_ready = service._queue_ready

                def spy(state, forced=False):
                    if not forced:
                        queued.append(state.job)
                    queue_ready(state, forced)

                service._queue_ready = spy
                accepted, pos, k = 0, 0, 0
                while pos < len(stream):
                    block = stream[pos:pos + sizes[k % len(sizes)]]
                    accepted += await service.submit_many(SampleBlock.of(block))
                    pos += len(block)
                    k += 1
                await service.drain()
            return service, accepted

        service, accepted = asyncio.run(run())
        assert accepted == len(stream)
        assert queued == ready
        assert service.stats.n_late == late
        folded = 0
        for job, expected in sessions.items():
            state = service._sessions[job]
            if job in errors:
                assert type(state.future.exception()) is errors[job]
            if expected is None:
                assert state.session is None
                continue
            got = state.session
            assert _bits(got._sums) == _bits(expected._sums)
            assert got._counts == expected._counts
            assert got.n_samples == expected.n_samples
            assert got.ready == expected.ready
            folded += got.n_samples
        assert accepted == folded + late + len(errors)

    def test_compaction_moves_rows_intact(self):
        """Freed rows leave holes in the slot pool; an open that finds
        no room compacts the live rows to its front, state and all, and
        takes a freed row."""
        slab = SessionSlab((60.0, 120.0), rows=1)
        widths = {"a": 3, "b": 2, "c": 1}
        rows = {job: slab.add(job, n, 0.0) for job, n in widths.items()}
        block = [(job, node, 61.0 + node, 0.1 * (node + 1))
                 for job, n in widths.items() for node in range(n)]
        jobs, nodes, times, values = map(list, zip(*block))
        slab.fold(np.array([rows[job] for job in jobs]), nodes, times,
                  values, now=1.0)

        def state(job):
            session = StreamSession(None, METRIC, DEPTH, (60.0, 120.0),
                                    widths[job])
            slab.store(rows[job], session)
            return session._sums, session._counts, session.n_samples

        before = {job: state(job) for job in "bc"}
        slab.remove(rows["a"])        # a hole at the front of the pool
        # No room past the top: compacts, and reuses the freed row.
        assert slab.add("d", 12, 2.0) == rows["a"]
        assert slab.base[rows["b"]] == 0
        assert {job: state(job) for job in "bc"} == before

    def test_ingest_is_never_called(self, recognizer, dataset, monkeypatch):
        """With ``StreamSession.ingest`` broken, a flood-shaped block and
        1-sample blocks still give the reference verdicts: routing has
        no per-sample fallback."""
        records = list(dataset)[:6]
        job_ids = [f"job-{i}" for i in range(len(records))]
        reference = _reference_verdicts(recognizer, records, job_ids)
        samples = list(interleave_records(records, METRIC, job_ids))

        def broken(self, node, timestamp, value):
            raise AssertionError("per-sample ingest called")

        monkeypatch.setattr(StreamSession, "ingest", broken)
        config = ServeConfig(max_pending_samples=len(samples),
                             batch_max_delay=0.002)
        flood = asyncio.run(_serve(_engine(recognizer), config,
                                   SampleBlock.of(samples), chunked=True))
        single = asyncio.run(_serve(_engine(recognizer), config, samples))
        assert flood.results == reference
        assert single.results == reference


class TestBatchDrain:
    """The batcher takes every ready session, up to the cap, in one
    step: sessions that turn ready together leave together."""

    def test_sessions_ready_together_fill_whole_batches(
        self, recognizer, dataset
    ):
        base = list(dataset)
        records = [base[i % len(base)] for i in range(300)]
        job_ids = [f"job-{i:03d}" for i in range(len(records))]
        reference = _reference_verdicts(recognizer, records, job_ids)
        samples = list(interleave_records(records, METRIC, job_ids))
        engine = _engine(recognizer)

        async def run():
            config = ServeConfig(
                max_pending_samples=len(samples), batch_max_sessions=128,
                batch_max_delay=0,
            )
            async with IngestService(engine, config) as service:
                await service.submit_many(SampleBlock.of(samples))
                await service.drain()
                return service

        service = asyncio.run(run())
        assert engine.stats.n_batches == 3   # 128 + 128 + 44
        assert engine.stats.max_batch == 128
        assert service.results == reference

    def test_burst_after_silence_fills_whole_batches(
        self, recognizer, dataset
    ):
        # The burst's first session turned ready after silence, so the
        # first batch leaves at once; the rest coalesce as before.
        base = list(dataset)
        records = [base[i % len(base)] for i in range(300)]
        job_ids = [f"job-{i:03d}" for i in range(len(records))]
        samples = list(interleave_records(records, METRIC, job_ids))
        engine = _engine(recognizer)

        async def run():
            config = ServeConfig(
                max_pending_samples=len(samples), batch_max_sessions=128,
                batch_max_delay=0.2,
            )
            async with IngestService(engine, config) as service:
                await service.submit_many(SampleBlock.of(samples))
                await service.drain()

        asyncio.run(run())
        assert engine.stats.n_batches == 3   # 128 + 128 + 44
        assert engine.stats.max_batch == 128

    def test_lone_session_after_silence_leaves_at_once(
        self, recognizer, dataset
    ):
        record = list(dataset)[0]
        samples = list(interleave_records([record], METRIC, ["solo"]))
        engine = _engine(recognizer)
        delay = 1.0

        async def run():
            config = ServeConfig(batch_max_sessions=64,
                                 batch_max_delay=delay)
            async with IngestService(engine, config) as service:
                await service.submit_many(SampleBlock.of(samples))
                verdict = await asyncio.wait_for(
                    service.verdict("solo"), timeout=10
                )
                return service, verdict

        service, verdict = asyncio.run(run())
        assert verdict == service.results["solo"]
        assert engine.stats.n_batches == 1
        assert engine.stats.max_latency < delay / 2

    @staticmethod
    def _batches_of_staggered_jobs(recognizer, dataset, delay):
        """Ready "pilot", then "a" and "b", one routed block each, a
        few ms apart; returns the job ids of every batch, in order."""
        records = list(dataset)[:3]
        job_ids = ["pilot", "a", "b"]
        reference = _reference_verdicts(recognizer, records, job_ids)
        engine = _engine(recognizer)
        batches = []

        async def run():
            config = ServeConfig(batch_max_sessions=64,
                                 batch_max_delay=delay)
            async with IngestService(engine, config) as service:
                recognize = service._recognize

                def spy(sessions):
                    batches.append([s.session_id for s in sessions])
                    return recognize(sessions)

                service._recognize = spy
                for record, job in zip(records, job_ids):
                    await service.submit_many(SampleBlock.of(
                        interleave_records([record], METRIC, [job])
                    ))
                    await service._ingest_q.join()
                    await asyncio.sleep(0.01)
                await service.drain()
                return service

        service = asyncio.run(run())
        assert service.results == reference
        return batches

    def test_sessions_ready_within_the_delay_share_a_batch(
        self, recognizer, dataset
    ):
        # "a" turned ready within the delay of "pilot", so its batch
        # waits for mates and "b", routed from a later block, joins it.
        batches = self._batches_of_staggered_jobs(recognizer, dataset, 0.5)
        assert batches == [["pilot"], ["a", "b"]]

    def test_zero_delay_dispatches_every_ready_session_at_once(
        self, recognizer, dataset
    ):
        batches = self._batches_of_staggered_jobs(recognizer, dataset, 0)
        assert batches == [["pilot"], ["a"], ["b"]]


# ---------------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------------

class TestEviction:
    def test_timeout_eviction_drop_policy(self, recognizer):
        async def run():
            config = ServeConfig(
                session_timeout=0.05, evict="drop", batch_max_delay=0.002
            )
            async with IngestService(_engine(recognizer), config) as service:
                # One sample far short of the interval end: never ready.
                await service.submit(_sample("stalled", 5.0))
                await service._ingest_q.join()
                with pytest.raises(SessionEvicted, match="stalled"):
                    await asyncio.wait_for(service.verdict("stalled"), timeout=5)
                assert service.stats.n_evicted == 1
                assert service.results == {}

        asyncio.run(run())

    def test_timeout_eviction_force_policy(self, recognizer, dataset):
        record = list(dataset)[0]

        async def run():
            config = ServeConfig(
                session_timeout=0.05, evict="force", batch_max_delay=0.002
            )
            async with IngestService(_engine(recognizer), config) as service:
                # Feed the full fingerprint interval but stop at t=130,
                # before the trailing nodes' clocks would... (they did
                # pass 120; cut at 100 instead so ready never fires).
                samples = [
                    s for s in interleave_records([record], METRIC, ["early"])
                    if s.time < 100.0
                ]
                await service.submit_many(samples)
                await service._ingest_q.join()
                result = await asyncio.wait_for(
                    service.verdict("early"), timeout=5
                )
                assert service.stats.n_evicted == 1
                return result

        result = asyncio.run(run())

        # Reference: identical partial feed, decided early by force.
        streaming = StreamingRecognizer.from_recognizer(recognizer)
        session = streaming.open_session(n_nodes=record.n_nodes)
        for node in range(record.n_nodes):
            series = record.series(METRIC, node)
            mask = series.times < 100.0
            session.ingest_many(node, series.times[mask], series.values[mask])
        assert not session.ready
        assert result == session.verdict(force=True)

    def test_no_timeout_means_no_reaper(self, recognizer):
        async def run():
            config = ServeConfig(session_timeout=None)
            async with IngestService(_engine(recognizer), config) as service:
                assert len(service._tasks) == 2  # ingest + batch only

        asyncio.run(run())

    def test_close_forces_verdicts_for_unready_sessions(self, recognizer):
        async def run():
            async with IngestService(_engine(recognizer)) as service:
                await service.submit(_sample("partial", 65.0))
                await service._ingest_q.join()
            # Context exit closes with force=True: the unready session
            # is decided from its single in-interval sample.
            return service

        service = asyncio.run(run())
        assert "partial" in service.results


# ---------------------------------------------------------------------------
# Worker failure isolation
# ---------------------------------------------------------------------------

class TestWorkerFailure:
    def test_worker_error_carries_failing_session_id(self, recognizer, dataset):
        records = list(dataset)[:3]
        job_ids = ["ok-0", "poison", "ok-1"]
        reference = _reference_verdicts(
            recognizer, [records[0], records[2]], ["ok-0", "ok-1"]
        )

        async def run():
            engine = _engine(recognizer)
            # A long coalescing window so all three sessions land in ONE
            # micro-batch; the crash must then be isolated per session.
            config = ServeConfig(batch_max_sessions=8, batch_max_delay=0.25)
            async with IngestService(engine, config) as service:
                stream = interleave_records(records, METRIC, job_ids)
                first = [next(stream) for _ in range(3)]
                await service.submit_many(first)
                await service._ingest_q.join()

                def boom():
                    raise RuntimeError("telemetry store exploded")

                service._sessions["poison"].session.rounded_means = boom
                await service.submit_many(stream)
                await service.drain()
                with pytest.raises(WorkerError) as excinfo:
                    await service.verdict("poison")
                return service, excinfo.value

        service, error = asyncio.run(run())
        assert error.session_id == "poison"
        assert "poison" in str(error)
        assert "telemetry store exploded" in str(error)
        assert isinstance(error.original, RuntimeError)
        # Healthy batch-mates still resolved, correctly.
        results = service.results
        assert results["ok-0"] == reference["ok-0"]
        assert results["ok-1"] == reference["ok-1"]

    def test_bad_node_rank_fails_only_that_session(self, recognizer):
        async def run():
            config = ServeConfig(batch_max_delay=0.002)
            async with IngestService(_engine(recognizer), config) as service:
                # nodes=1 but a sample for node 3: routing error.
                await service.submit(
                    Sample(job="bad", node=3, time=1.0, value=1.0, n_nodes=1)
                )
                await service._ingest_q.join()
                with pytest.raises(ValueError, match="node 3"):
                    await asyncio.wait_for(service.verdict("bad"), timeout=5)

        asyncio.run(run())

    @pytest.mark.parametrize("time, value", [(61.0, "x"), ("later", 1.0)])
    def test_non_numeric_sample_fails_only_that_session(
        self, recognizer, dataset, time, value
    ):
        record = list(dataset)[0]
        reference = _reference_verdicts(recognizer, [record], ["good"])

        async def run():
            config = ServeConfig(batch_max_delay=0.002)
            async with IngestService(_engine(recognizer), config) as service:
                await service.submit(Sample("bad", 0, 61.0, 1.0, n_nodes=1))
                await service.submit_many(
                    [Sample("bad", 0, time, value)]
                    + list(interleave_records([record], METRIC, ["good"]))
                )
                await service.drain()
                with pytest.raises(TypeError, match="must be numbers"):
                    await service.verdict("bad")
                return service

        assert asyncio.run(run()).results == reference


# ---------------------------------------------------------------------------
# Housekeeping
# ---------------------------------------------------------------------------

class TestHousekeeping:
    def test_forget_reclaims_completed_sessions(self, recognizer, dataset):
        record = list(dataset)[0]

        async def run():
            config = ServeConfig(batch_max_delay=0.002)
            async with IngestService(_engine(recognizer), config) as service:
                await service.submit_many(
                    interleave_records([record], METRIC, ["done"])
                )
                await service.drain()
                assert service.n_sessions == 1
                service.forget("done")
                assert service.n_sessions == 0
                service.forget("unknown-is-a-no-op")

        asyncio.run(run())

    def test_forget_refuses_active_sessions(self, recognizer):
        async def run():
            async with IngestService(_engine(recognizer)) as service:
                await service.submit(_sample("live", 1.0))
                await service._ingest_q.join()
                with pytest.raises(RuntimeError, match="active"):
                    service.forget("live")

        asyncio.run(run())

    def test_crashing_callback_does_not_hang_the_batch(
        self, recognizer, dataset
    ):
        records = list(dataset)[:3]
        job_ids = ["x", "y", "z"]

        def explode(job, result):
            raise RuntimeError("callback bug")

        async def run():
            config = ServeConfig(batch_max_sessions=8, batch_max_delay=0.1)
            service = IngestService(
                _engine(recognizer), config, on_verdict=explode
            )
            async with service:
                await service.submit_many(
                    interleave_records(records, METRIC, job_ids)
                )
                # Must terminate: the callback crash is contained.
                await asyncio.wait_for(service.drain(), timeout=10)
                assert set(service.results) == set(job_ids)
                assert service.n_callback_errors == 3

        asyncio.run(run())

    def test_double_start_rejected(self, recognizer):
        async def run():
            async with IngestService(_engine(recognizer)) as service:
                with pytest.raises(RuntimeError, match="already started"):
                    await service.start()

        asyncio.run(run())

    def test_forget_never_concluded_job_clears_session_gauges(
        self, recognizer
    ):
        """Regression: a job whose session never concluded (stream cut,
        close(force=False) cancelled its verdict) must still be
        forgettable, and forgetting it must zero the EngineStats session
        gauges — not leave a phantom active session counted forever."""
        engine = _engine(recognizer)

        async def run():
            service = IngestService(engine, ServeConfig())
            await service.start()
            await service.submit(_sample("ghost", 5.0))
            await service._ingest_q.join()
            assert engine.stats.sessions_active == 1
            # Not force=True: the session is abandoned, not decided.
            await service.close(force=False)
            return service

        service = asyncio.run(run())
        assert engine.stats.sessions_active == 0
        assert engine.stats.sessions_retained == 1
        service.forget("ghost")  # must not raise "still active"
        assert service.n_sessions == 0
        assert engine.stats.sessions_retained == 0
        assert engine.stats.sessions_active == 0

    def test_session_gauges_track_lifecycle(self, recognizer, dataset):
        records = list(dataset)[:3]
        engine = _engine(recognizer)

        async def run():
            config = ServeConfig(batch_max_delay=0.002)
            async with IngestService(engine, config) as service:
                await service.submit_many(
                    interleave_records(records, METRIC, ["a", "b", "c"])
                )
                await service.drain()
                return service

        service = asyncio.run(run())
        stats = engine.stats
        assert stats.sessions_active == 0
        assert stats.sessions_retained == 3
        service.forget("b")
        assert stats.sessions_retained == 2
        assert stats.n_pruned == 0  # manual forget is not a prune
        snapshot = type(stats).from_dict(stats.as_dict())
        assert snapshot.sessions_retained == 2
        # Without retention configured nothing drains the retention
        # queue, so nothing may be enqueued either (the manual-forget
        # deployment pattern must not leak an entry per session).
        assert len(service._done_order) == 0

    def test_late_samples_dropped_and_counted(self, recognizer, dataset):
        record = list(dataset)[0]

        async def run():
            config = ServeConfig(batch_max_delay=0.002)
            async with IngestService(_engine(recognizer), config) as service:
                await service.submit_many(
                    interleave_records([record], METRIC, ["j"])
                )
                await service.drain()
                before = await service.verdict("j")
                late_before = service.stats.n_late
                await service.submit(
                    Sample(job="j", node=0, time=149.0, value=9.9e9)
                )
                await service._ingest_q.join()
                assert service.stats.n_late == late_before + 1
                assert await service.verdict("j") == before

        asyncio.run(run())


class TestCloseFreesStore:
    def test_closed_service_and_listener_free_the_store(
        self, recognizer, dataset, tmp_path
    ):
        """With the collector off, closing a service and its listener
        leaves no cycle that holds the store: once the caller whose
        bound method is ``on_verdict`` drops itself, reference counting
        alone frees the store."""
        from repro.engine import load_columnar, save_columnar
        from repro.serve import NetListener, push_samples

        directory = str(tmp_path / "efd-col")
        save_columnar(
            ShardedDictionary.from_flat(recognizer.dictionary_, 2), directory
        )
        record = list(dataset)[0]
        samples = list(interleave_records([record], METRIC, ["one"]))
        sock = str(tmp_path / "free.sock")

        class Caller:
            def __init__(self):
                self.verdicts = {}

            def on_verdict(self, job, result):
                self.verdicts[job] = result

            async def run(self):
                store = load_columnar(directory)
                engine = BatchRecognizer(store, metric=METRIC, depth=DEPTH)
                self.service = IngestService(
                    engine, ServeConfig(batch_max_delay=0.002),
                    on_verdict=self.on_verdict,
                )
                await self.service.start()
                self.listener = NetListener(self.service, uds=sock)
                await self.listener.start()
                reply = await push_samples(samples, uds=sock)
                await self.service.drain()
                await self.listener.close()
                await self.service.close()
                return weakref.ref(store), reply

        gc.collect()
        gc.disable()
        try:
            caller = Caller()
            store_ref, reply = asyncio.run(caller.run())
            assert reply["ok"] is True and list(caller.verdicts) == ["one"]
            del caller
            assert store_ref() is None
        finally:
            gc.enable()


class TestRetention:
    def test_size_cap_prunes_oldest_completed_sessions(
        self, recognizer, dataset
    ):
        records = list(dataset)[:5]
        job_ids = [f"job-{i}" for i in range(len(records))]
        engine = _engine(recognizer)

        async def run():
            config = ServeConfig(batch_max_delay=0.002, retention_max_done=2)
            async with IngestService(engine, config) as service:
                await service.submit_many(
                    interleave_records(records, METRIC, job_ids)
                )
                await service.drain()
                return service

        service = asyncio.run(run())
        stats = engine.stats
        assert service.n_sessions == 2
        assert stats.n_pruned == 3
        assert stats.sessions_retained == 2
        # The *newest* verdicts are the retained ones.
        assert len(service.results) == 2

    def test_age_based_prune_reclaims_verdicts(self, recognizer, dataset):
        record = list(dataset)[0]
        engine = _engine(recognizer)

        async def run():
            config = ServeConfig(
                batch_max_delay=0.002,
                retention_max_age=0.05, retention_interval=0.02,
            )
            async with IngestService(engine, config) as service:
                await service.submit_many(
                    interleave_records([record], METRIC, ["aging"])
                )
                await service.drain()
                assert "aging" in service.results
                deadline = asyncio.get_running_loop().time() + 5.0
                while service.n_sessions:
                    assert asyncio.get_running_loop().time() < deadline, \
                        "retention loop never pruned the aged session"
                    await asyncio.sleep(0.02)
                with pytest.raises(KeyError):
                    await service.verdict("aging")
                return service

        asyncio.run(run())
        assert engine.stats.n_pruned == 1
        assert engine.stats.sessions_retained == 0

    def test_reused_job_id_is_not_pruned_by_stale_entry(
        self, recognizer, dataset
    ):
        """After forgetting a job id, a *new* session under the same id
        must not be reaped by the old id's leftover retention entry."""
        record = list(dataset)[0]
        engine = _engine(recognizer)

        async def run():
            config = ServeConfig(batch_max_delay=0.002, retention_max_done=1)
            async with IngestService(engine, config) as service:
                await service.submit_many(
                    interleave_records([record], METRIC, ["recycled"])
                )
                await service.drain()
                first = await service.verdict("recycled")
                service.forget("recycled")
                await service.submit_many(
                    interleave_records([record], METRIC, ["recycled"])
                )
                await service.drain()
                assert await service.verdict("recycled") == first
                return service

        service = asyncio.run(run())
        assert service.n_sessions == 1


def _split_at_verdict(record, job):
    """A job's in-order stream cut where its session turns ready: the
    head decides the verdict, the tail is what trails in after it."""
    samples = list(interleave_records([record], METRIC, [job]))
    cut = max(i for i, s in enumerate(samples) if s.time <= 121.0) + 1
    return samples[:cut], samples[cut:]


class TestTombstones:
    """A retention-pruned job stays finished: its trailing samples are
    late, never the first samples of a new session."""

    def test_trailing_samples_of_a_pruned_job_count_as_late(
        self, recognizer, dataset
    ):
        record = list(dataset)[0]
        head, tail = _split_at_verdict(record, "pruned")
        assert tail
        engine = _engine(recognizer)

        async def run():
            config = ServeConfig(batch_max_delay=0.002, retention_max_done=0)
            async with IngestService(engine, config) as service:
                await service.submit_many(head)
                await service.drain()
                assert service.n_sessions == 0  # verdict out, then pruned
                late_before = engine.stats.n_late
                await service.submit_many(tail)
                await service.drain()
                assert service.n_sessions == 0
                assert engine.stats.n_late - late_before == len(tail)

        asyncio.run(run())
        stats = engine.stats
        assert stats.n_pruned == 1
        assert stats.sessions_active == 0
        assert stats.n_latencies == 1  # one verdict, no second session
        assert stats.tombstones == 1

    def test_forget_frees_a_tombstoned_job_id(self, recognizer, dataset):
        record = list(dataset)[0]
        head, _ = _split_at_verdict(record, "reused")
        engine = _engine(recognizer)

        async def run():
            config = ServeConfig(batch_max_delay=0.002, retention_max_done=0)
            async with IngestService(engine, config) as service:
                await service.submit_many(head)
                await service.drain()
                assert engine.stats.tombstones == 1
                service.forget("reused")
                assert engine.stats.tombstones == 0
                await service.submit_many(head)
                await service.drain()
                # The id opened a second session, which resolved and
                # was pruned in turn.
                assert engine.stats.n_latencies == 2
                assert engine.stats.tombstones == 1

        asyncio.run(run())
        assert engine.stats.n_pruned == 2

    def test_tombstones_are_capped_at_max_sessions(self, recognizer, dataset):
        records = list(dataset)[:5]
        job_ids = [f"job-{i}" for i in range(len(records))]
        engine = _engine(recognizer)

        async def run():
            config = ServeConfig(
                batch_max_delay=0.002, retention_max_done=0, max_sessions=2,
            )
            async with IngestService(engine, config) as service:
                for record, job in zip(records, job_ids):
                    head, _ = _split_at_verdict(record, job)
                    await service.submit_many(head)
                    await service.drain()
                # The oldest tombstones went first: job-0's id is free.
                assert list(service._tombstones) == job_ids[-2:]

        asyncio.run(run())
        assert engine.stats.n_pruned == 5
        assert engine.stats.tombstones == 2

    def test_tombstone_expires_after_session_timeout(
        self, recognizer, dataset
    ):
        record = list(dataset)[0]
        head, _ = _split_at_verdict(record, "quiet")
        engine = _engine(recognizer)

        async def run():
            config = ServeConfig(
                batch_max_delay=0.002, retention_max_done=0,
                session_timeout=0.05,
            )
            async with IngestService(engine, config) as service:
                await service.submit_many(head)
                await service.drain()
                assert engine.stats.tombstones == 1
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 5.0
                while engine.stats.tombstones:
                    assert loop.time() < deadline, "tombstone never expired"
                    await asyncio.sleep(0.02)
                assert not service._tombstones

        asyncio.run(run())


class TestServeConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_pending_samples": 0},
        {"backpressure": "panic"},
        {"max_sessions": 0},
        {"batch_max_sessions": 0},
        {"batch_max_delay": -1.0},
        {"max_inflight_batches": 0},
        {"session_timeout": 0.0},
        {"evict": "maybe"},
        {"default_nodes": 0},
        {"retention_max_age": 0.0},
        {"retention_max_done": -1},
        {"retention_interval": 0.0},
        {"net_batch_samples": 0},
        {"net_batch_delay": -0.1},
        {"max_line_bytes": 16},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_every_field_is_read_outside_its_definition(self):
        """Dead-config guard: a ``ServeConfig`` field that no code reads
        is a knob that silently does nothing.  Every field must be read
        as an attribute somewhere in ``src/repro`` outside
        ``serve/config.py``."""
        root = pathlib.Path(repro.__file__).parent
        definition = root / "serve" / "config.py"
        read = set()
        for path in root.rglob("*.py"):
            if path == definition:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    read.add(node.attr)
        unread = [f.name for f in dataclasses.fields(ServeConfig)
                  if f.name not in read]
        assert unread == []


class TestLearnWhileServing:
    """The paper's learn-while-recognizing loop at serving time.

    ``IngestService.learn`` folds a resolved session's fingerprints into
    the engine's dictionary through the ``DictionaryBackend`` write
    surface; on a columnar store the observations ride the write-ahead
    delta-log (vectorized index stays hot) and ``compact_on_close``
    folds them into the base at shutdown.
    """

    def _columnar_engine(self, recognizer, tmp_path, **load_kwargs):
        from repro.engine import load_columnar, save_columnar

        directory = str(tmp_path / "efd-col")
        save_columnar(
            ShardedDictionary.from_flat(recognizer.dictionary_, 4), directory
        )
        store = load_columnar(directory, **load_kwargs)
        return BatchRecognizer(store, metric=METRIC, depth=DEPTH), directory

    def test_learn_lands_in_delta_log_and_folds_on_close(
        self, recognizer, dataset, tmp_path, base_files
    ):
        from repro.engine import load_columnar, pending_records

        engine, directory = self._columnar_engine(recognizer, tmp_path)
        records = list(dataset)[:3]
        job_ids = [f"job-{i}" for i in range(len(records))]
        samples = interleave_records(records, METRIC, job_ids)
        before = base_files(directory)

        async def run():
            async with IngestService(engine, ServeConfig()) as service:
                await service.submit_many(samples)
                await service.drain()
                learned = await service.learn("job-0", "learned_L")
                assert learned > 0
                # The learnings are pending in the log, base untouched,
                # and the very next lookup sees them.
                assert engine.dictionary.delta_pending > 0
                assert base_files(directory) == before
                assert "learned_L" in engine.dictionary.labels()
            # __aexit__ ran close(): compact_on_close folded the log.
            return learned

        asyncio.run(run())
        assert pending_records(directory, generation=1) == 0
        reopened = load_columnar(directory)
        assert reopened.delta_pending == 0
        assert "learned_L" in reopened.labels()

    def test_no_compact_on_close_leaves_log_for_replay(
        self, recognizer, dataset, tmp_path
    ):
        from repro.engine import load_columnar

        engine, directory = self._columnar_engine(recognizer, tmp_path)
        record = list(dataset)[0]
        samples = interleave_records([record], METRIC, ["job-0"])

        async def run():
            config = ServeConfig(compact_on_close=False)
            async with IngestService(engine, config) as service:
                await service.submit_many(samples)
                await service.drain()
                await service.learn("job-0", "learned_L")

        with engine.dictionary:
            asyncio.run(run())
        reopened = load_columnar(directory)
        assert reopened.delta_pending > 0        # replayed, not lost
        assert "learned_L" in reopened.labels()

    def test_learn_verdict_feedback_changes_next_recognition(
        self, recognizer, dataset, tmp_path
    ):
        engine, _ = self._columnar_engine(recognizer, tmp_path)
        record = list(dataset)[0]

        async def run():
            config = ServeConfig(compact_on_close=False)
            async with IngestService(engine, config) as service:
                await service.submit_many(
                    interleave_records([record], METRIC, ["first"])
                )
                await service.drain()
                await service.learn("first", "taught_T")
                # Replay the same telemetry as a new job: the taught
                # label must now participate in its verdict.
                await service.submit_many(
                    interleave_records([record], METRIC, ["second"])
                )
                await service.drain()
                verdict = await service.verdict("second")
                assert "taught_T" in verdict.matched_labels
            return True

        with engine.dictionary:
            assert asyncio.run(run())

    def test_learn_works_on_flat_and_sharded_backends(
        self, recognizer, dataset
    ):
        record = list(dataset)[0]
        for n_shards in (1, 4):
            engine = _engine(recognizer, n_shards)

            async def run():
                config = ServeConfig(compact_on_close=False)
                async with IngestService(engine, config) as service:
                    await service.submit_many(
                        interleave_records([record], METRIC, ["j"])
                    )
                    await service.drain()
                    return await service.learn("j", "taught_T")

            assert asyncio.run(run()) > 0
            assert "taught_T" in engine.dictionary.labels()

    def test_learn_rejects_unknown_and_unresolved_jobs(
        self, recognizer, dataset
    ):
        engine = _engine(recognizer)
        record = list(dataset)[0]
        samples = list(interleave_records([record], METRIC, ["j"]))

        async def run():
            async with IngestService(engine, ServeConfig()) as service:
                with pytest.raises(KeyError, match="no samples ever"):
                    await service.learn("ghost", "x_L")
                # Feed only the first few samples: session open, no verdict.
                await service.submit_many(samples[:4])
                await service.drain()
                with pytest.raises(RuntimeError, match="still"):
                    await service.learn("j", "x_L")
                await service.submit_many(samples[4:])
                await service.drain()
                assert await service.learn("j", "x_L") > 0

        asyncio.run(run())
