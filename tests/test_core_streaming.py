import numpy as np
import pytest

from repro.core.recognizer import EFDRecognizer
from repro.core.streaming import StreamingRecognizer, StreamSession


@pytest.fixture()
def streaming(tiny_dataset):
    recognizer = EFDRecognizer(depth=2).fit(tiny_dataset)
    return StreamingRecognizer.from_recognizer(recognizer)


def _feed_record(session, record, until=None):
    """Feed a record's telemetry sample by sample, as LDMS would."""
    for node in range(record.n_nodes):
        series = record.series("nr_mapped_vmstat", node)
        times = series.times
        values = series.values
        if until is not None:
            mask = times < until
            times, values = times[mask], values[mask]
        session.ingest_many(node, times, values)


class TestStreamSession:
    def test_not_ready_before_interval_elapses(self, streaming, tiny_dataset):
        session = streaming.open_session(n_nodes=4)
        _feed_record(session, tiny_dataset[0], until=100.0)
        assert not session.ready
        with pytest.raises(RuntimeError, match="not yet complete"):
            session.verdict()

    def test_ready_and_correct_after_interval(self, streaming, tiny_dataset):
        record = tiny_dataset[0]
        session = streaming.open_session(n_nodes=4)
        _feed_record(session, record, until=121.0)
        assert session.ready
        assert session.prediction() == record.app_name

    def test_streaming_matches_offline(self, streaming, tiny_dataset):
        offline = EFDRecognizer(depth=2).fit(tiny_dataset)
        for record in list(tiny_dataset)[:12]:
            session = streaming.open_session(n_nodes=record.n_nodes)
            _feed_record(session, record)
            assert session.prediction() == offline.predict_one(record)

    def test_sample_by_sample_ingest(self, streaming, tiny_dataset):
        record = tiny_dataset[0]
        session = streaming.open_session(n_nodes=4)
        for node in range(4):
            series = record.series("nr_mapped_vmstat", node)
            for t, v in zip(series.times, series.values):
                session.ingest(node, float(t), float(v))
        assert session.prediction() == record.app_name

    def test_progress_counts_nodes(self, streaming, tiny_dataset):
        session = streaming.open_session(n_nodes=4)
        record = tiny_dataset[0]
        series = record.series("nr_mapped_vmstat", 0)
        session.ingest_many(0, series.times, series.values)
        assert session.progress() == pytest.approx(0.25)

    def test_nan_samples_skipped(self, streaming):
        session = streaming.open_session(n_nodes=1)
        session.ingest(0, 60.0, float("nan"))
        session.ingest(0, 61.0, 6000.0)
        session.ingest(0, 120.5, 6000.0)
        fps = session.fingerprints()
        assert fps[0] is not None
        assert fps[0].value == 6000.0  # NaN did not poison the mean

    def test_all_dropout_node_is_none(self, streaming):
        session = streaming.open_session(n_nodes=2)
        session.ingest(0, 121.0, 6000.0)  # outside interval -> clock only
        session.ingest(1, 90.0, 6000.0)
        session.ingest(1, 121.0, 6000.0)
        fps = session.fingerprints()
        assert fps[0] is None
        assert fps[1] is not None

    def test_force_early_verdict(self, streaming, tiny_dataset):
        session = streaming.open_session(n_nodes=4)
        _feed_record(session, tiny_dataset[0], until=100.0)
        # Job died early: force a decision on partial data [60:100).
        result = session.verdict(force=True)
        assert result is session.verdict()  # concluded, cached

    def test_concluded_session_rejects_ingest(self, streaming, tiny_dataset):
        session = streaming.open_session(n_nodes=4)
        _feed_record(session, tiny_dataset[0])
        session.verdict()
        with pytest.raises(RuntimeError, match="concluded"):
            session.ingest(0, 500.0, 1.0)

    def test_node_bounds_checked(self, streaming):
        session = streaming.open_session(n_nodes=2)
        with pytest.raises(ValueError):
            session.ingest(5, 60.0, 1.0)
        with pytest.raises(ValueError):
            session.ingest_many(5, [60.0], [1.0])

    def test_mismatched_batch_rejected(self, streaming):
        session = streaming.open_session(n_nodes=1)
        with pytest.raises(ValueError):
            session.ingest_many(0, [1.0, 2.0], [1.0])

    def test_unknown_stream(self, streaming):
        session = streaming.open_session(n_nodes=2)
        for node in range(2):
            session.ingest_many(
                node, np.arange(60.0, 125.0), np.full(65, 123456.0)
            )
        assert session.prediction() == "unknown"


class TestStreamingAtScale:
    """Many concurrent sessions fed interleaved must equal sequential.

    This is the production shape: one recognizer, hundreds of jobs in
    flight, telemetry arriving round-robin in arbitrary time slices.
    Session state must be fully isolated — any cross-talk shows up as a
    verdict diverging from the one-session-at-a-time reference.
    """

    N_SESSIONS = 100

    def test_interleaved_feeding_matches_sequential(self, streaming, tiny_dataset):
        records = [
            tiny_dataset[i % len(tiny_dataset)] for i in range(self.N_SESSIONS)
        ]
        sequential = []
        for record in records:
            session = streaming.open_session(n_nodes=record.n_nodes)
            _feed_record(session, record)
            sequential.append(session.prediction())

        sessions = [
            streaming.open_session(n_nodes=r.n_nodes) for r in records
        ]
        # Interleave: every session gets one time slice before any
        # session gets the next, mimicking round-robin collector flushes.
        boundaries = [0.0, 31.0, 59.5, 90.0, 117.0, 1e9]
        for lo, hi in zip(boundaries, boundaries[1:]):
            for session, record in zip(sessions, records):
                for node in range(record.n_nodes):
                    series = record.series("nr_mapped_vmstat", node)
                    mask = (series.times >= lo) & (series.times < hi)
                    session.ingest_many(
                        node, series.times[mask], series.values[mask]
                    )
        assert all(s.ready for s in sessions)
        interleaved = [s.prediction() for s in sessions]
        assert interleaved == sequential

    def test_batch_engine_agrees_with_interleaved_sessions(
        self, streaming, tiny_dataset
    ):
        from repro.engine import BatchRecognizer, ShardedDictionary

        records = [
            tiny_dataset[i % len(tiny_dataset)] for i in range(self.N_SESSIONS)
        ]
        sessions = [
            streaming.open_session(n_nodes=r.n_nodes) for r in records
        ]
        for session, record in zip(sessions, records):
            _feed_record(session, record)
        engine = BatchRecognizer(
            ShardedDictionary.from_flat(streaming.dictionary, 4),
            metric=streaming.metric,
            depth=streaming.depth,
            interval=streaming.interval,
        )
        batch = engine.recognize_sessions(sessions)
        assert batch == [s.verdict() for s in sessions]


class TestStreamingRecognizer:
    def test_from_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StreamingRecognizer.from_recognizer(EFDRecognizer())

    def test_empty_dictionary_rejected(self):
        from repro.core.dictionary import ExecutionFingerprintDictionary

        with pytest.raises(ValueError):
            StreamingRecognizer(ExecutionFingerprintDictionary())

    def test_session_validation(self, streaming):
        with pytest.raises(ValueError):
            streaming.open_session(n_nodes=0)
        for n_nodes in (2.5, "4"):  # never truncated, never parsed
            with pytest.raises(ValueError, match="integer"):
                streaming.open_session(n_nodes=n_nodes)


# ---------------------------------------------------------------------------
# ingest_many == ingest, bitwise
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_INTERVAL = (60.0, 120.0)

# Times straddle the window edges; values mix magnitudes so that a
# pairwise sum rounds differently from a left-to-right fold.
_times = st.one_of(
    st.floats(min_value=60.0, max_value=119.0),
    st.floats(min_value=0.0, max_value=200.0),
    st.sampled_from([59.999, 60.0, 119.999, 120.0, 120.001]),
    st.just(float("nan")),  # a clock that lost its timestamp
)
_values = st.one_of(
    # k/7 * 10^e: inexact, of mixed magnitude, so sums round by order.
    st.tuples(st.integers(1, 10**6), st.integers(-6, 6)).map(
        lambda p: p[0] / 7.0 * 10.0 ** p[1]
    ),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    st.just(float("nan")),  # sampler dropout
)


def _bare_session(n_nodes: int) -> StreamSession:
    return StreamSession(dictionary=None, metric="m", depth=3,
                         interval=_INTERVAL, n_nodes=n_nodes)


class TestIngestManyEqualsIngest:
    """``ingest_many`` over any split of a series accumulates exactly
    the state per-sample ``ingest`` does: same sums bit for bit, same
    counts, same node clocks."""

    @settings(max_examples=300, deadline=None)
    @given(
        series=st.lists(
            st.tuples(st.integers(0, 1), _times, _values), max_size=160
        ),
        cuts=st.lists(st.integers(0, 160), max_size=4),
    )
    def test_any_split_is_bitwise_equal(self, series, cuts):
        reference = _bare_session(2)
        for node, t, v in series:
            reference.ingest(node, t, v)

        blocked = _bare_session(2)
        bounds = sorted({0, len(series), *(c for c in cuts if c < len(series))})
        for lo, hi in zip(bounds, bounds[1:]):
            part = series[lo:hi]
            for node in range(2):
                mine = [(t, v) for n, t, v in part if n == node]
                blocked.ingest_many(node, [t for t, _ in mine],
                                    [v for _, v in mine])

        assert blocked._sums == reference._sums  # floats: exact equality
        assert blocked._counts == reference._counts
        assert blocked._latest == reference._latest
        assert blocked.n_samples == reference.n_samples
        assert blocked.ready == reference.ready

    def test_long_series_differs_from_pairwise_sum(self):
        """A series on which numpy's pairwise ``sum`` and the sequential
        fold disagree: ``ingest_many`` must side with ``ingest``."""
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 1e6, 500) * 10.0 ** rng.integers(-3, 4, 500)
        times = np.linspace(60.0, 119.0, values.size)
        reference = _bare_session(1)
        for t, v in zip(times.tolist(), values.tolist()):
            reference.ingest(0, t, v)
        blocked = _bare_session(1)
        blocked.ingest_many(0, times, values)
        assert float(values.sum()) != reference._sums[0]  # the trap is real
        assert blocked._sums == reference._sums
