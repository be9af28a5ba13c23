"""Network ingestion tests: the TCP/UDS listener in front of the service.

The headline property mirrors ``tests/test_serve_service.py`` one layer
out: N producers interleaving the same samples over sockets must yield
verdicts element-wise identical to the single-stream ``efd serve`` path,
across backpressure configurations and both transports.  The edge-case
suites prove the listener's per-connection fault isolation (a malformed
or oversized line costs exactly one producer its connection — never data
already parsed, never a peer), the graceful-drain close, and the CLI
round trip (``efd serve --uds`` + ``efd replay`` + SIGTERM).  The
decode-process suite proves that spans decoded in the listener's forked
process answer exactly as inline decoding does, that killing the
process loses no line, that it keeps none of the service's descriptors,
and that ``close()`` reaps it.

``make serve-smoke`` runs the ``smoke``-marked subset: boot a listener
on an ephemeral UDS, replay a tiny stream, assert one verdict.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recognizer import EFDRecognizer
from repro.core.streaming import StreamingRecognizer
from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator
from repro.engine import BatchRecognizer
from repro.serve import (
    IngestService,
    NetListener,
    ProtocolError,
    Sample,
    SampleBlock,
    ServeConfig,
    interleave_records,
    parse_sample,
    push_samples,
    replay_samples,
    split_by_job,
)
import repro.serve.net as net
from repro.engine.stats import EngineStats
from repro.serve.net import LineDecoder
from repro.serve.stream import MAX_NODES

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


def _engine(recognizer) -> BatchRecognizer:
    return BatchRecognizer(recognizer.dictionary_, metric=METRIC, depth=DEPTH)


def _reference_verdicts(recognizer, records, job_ids):
    """The single-stream reference: same samples, synchronous batch."""
    streaming = StreamingRecognizer.from_recognizer(recognizer)
    sessions = []
    for record, job in zip(records, job_ids):
        session = streaming.open_session(n_nodes=record.n_nodes, session_id=job)
        for node in range(record.n_nodes):
            series = record.series(METRIC, node)
            session.ingest_many(node, series.times, series.values)
        sessions.append(session)
    engine = _engine(recognizer)
    return dict(zip(job_ids, engine.recognize_sessions(sessions, force=True)))


async def _serve_net(engine, config, uds=None, port=None, run=None):
    """Run ``run(listener)`` against a fresh service + listener."""
    service = IngestService(engine, config)
    async with service:
        async with NetListener(service, port=port, uds=uds) as listener:
            result = await run(listener)
        await service.drain()
    return service, result


# ---------------------------------------------------------------------------
# Smoke: the `make serve-smoke` gate
# ---------------------------------------------------------------------------

class TestSmoke:
    def test_smoke_uds_one_producer_one_verdict(
        self, recognizer, dataset, tmp_path
    ):
        """Boot the listener on an ephemeral UDS, replay one tiny job
        stream, and get exactly the single-stream verdict back."""
        record = list(dataset)[0]
        reference = _reference_verdicts(recognizer, [record], ["smoke-job"])
        samples = list(interleave_records([record], METRIC, ["smoke-job"]))
        sock = str(tmp_path / "efd.sock")
        engine = _engine(recognizer)

        async def run(listener):
            return await push_samples(samples, uds=sock)

        service, summary = asyncio.run(_serve_net(
            engine, ServeConfig(batch_max_delay=0.002), uds=sock, run=run
        ))
        assert summary["ok"] is True
        assert summary["accepted"] == len(samples)
        assert service.results == {"smoke-job": reference["smoke-job"]}
        assert engine.stats.conns_accepted == 1
        assert engine.stats.conns_active == 0


# ---------------------------------------------------------------------------
# Equivalence property: N producers == single stream
# ---------------------------------------------------------------------------

NET_CONFIGS = [
    # Tiny ingest queue + blocking backpressure: handlers suspend on
    # submit_many, the socket buffers fill, producers stall — the
    # TCP-flow-control path, constantly exercised.
    ServeConfig(max_pending_samples=8, backpressure="block",
                batch_max_sessions=3, batch_max_delay=0.002,
                net_batch_samples=16, net_batch_delay=0.001),
    # Shed policy with ample capacity: the lossy configuration, sized
    # so it never actually loses anything.
    ServeConfig(max_pending_samples=200_000, backpressure="shed",
                batch_max_sessions=64, batch_max_delay=0.02),
]


class TestEquivalence:
    @pytest.mark.parametrize("config", NET_CONFIGS,
                             ids=["block-tiny-queue", "shed-ample-queue"])
    @pytest.mark.parametrize("transport", ["uds", "tcp"])
    def test_three_producers_equal_single_stream(
        self, recognizer, dataset, tmp_path, config, transport
    ):
        records = list(dataset)[:9]
        job_ids = [f"job-{i:04d}" for i in range(len(records))]
        reference = _reference_verdicts(recognizer, records, job_ids)
        samples = list(interleave_records(records, METRIC, job_ids))
        sock = str(tmp_path / f"efd-{transport}.sock")
        engine = _engine(recognizer)

        async def run(listener):
            if transport == "uds":
                return await replay_samples(samples, producers=3, uds=sock)
            host, port = listener.tcp_address
            return await replay_samples(samples, producers=3,
                                        host=host, port=port)

        service, summaries = asyncio.run(_serve_net(
            engine, config,
            uds=sock if transport == "uds" else None,
            port=0 if transport == "tcp" else None,
            run=run,
        ))

        assert len(summaries) == 3
        assert all(s.get("ok") for s in summaries)
        assert sum(s["accepted"] for s in summaries) == len(samples)
        stats = engine.stats
        assert stats.n_shed == 0
        assert stats.n_protocol_errors == 0
        assert stats.conns_accepted == 3
        assert stats.conns_active == 0
        results = service.results
        assert set(results) == set(job_ids)
        for job in job_ids:
            assert results[job] == reference[job], job

    def test_tcp_and_uds_serve_concurrently(
        self, recognizer, dataset, tmp_path
    ):
        """One listener, both transports at once, producers split."""
        records = list(dataset)[:4]
        job_ids = [f"job-{i}" for i in range(len(records))]
        reference = _reference_verdicts(recognizer, records, job_ids)
        streams = split_by_job(
            list(interleave_records(records, METRIC, job_ids)), 2
        )
        sock = str(tmp_path / "both.sock")
        engine = _engine(recognizer)

        async def run(listener):
            host, port = listener.tcp_address
            return await asyncio.gather(
                push_samples(streams[0], uds=sock),
                push_samples(streams[1], host=host, port=port),
            )

        service, summaries = asyncio.run(_serve_net(
            engine, ServeConfig(batch_max_delay=0.002),
            uds=sock, port=0, run=run,
        ))
        assert all(s.get("ok") for s in summaries)
        for job in job_ids:
            assert service.results[job] == reference[job], job

    def test_split_by_job_keeps_per_job_order(self, dataset):
        records = list(dataset)[:5]
        samples = list(interleave_records(records, METRIC))
        streams = split_by_job(samples, 3)
        assert sum(len(s) for s in streams) == len(samples)
        # Each job rides exactly one stream, in original sample order.
        for job in {s.job for s in samples}:
            homes = [i for i, stream in enumerate(streams)
                     if any(s.job == job for s in stream)]
            assert len(homes) == 1
            mine = [s for s in streams[homes[0]] if s.job == job]
            assert mine == [s for s in samples if s.job == job]
        with pytest.raises(ValueError, match="n >= 1"):
            split_by_job(samples, 0)


# ---------------------------------------------------------------------------
# Per-connection fault isolation
# ---------------------------------------------------------------------------

async def _raw_uds_exchange(sock: str, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_unix_connection(sock)
    writer.write(payload)
    await writer.drain()
    writer.write_eof()
    reply = await reader.readline()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return reply


class TestFaultIsolation:
    def test_malformed_line_closes_only_that_producer(
        self, recognizer, dataset, tmp_path
    ):
        """Producer B sends garbage after its valid samples: B's
        connection errors out, B's parsed samples are still submitted,
        and producers A/C are untouched — all verdicts still match the
        single-stream reference."""
        records = list(dataset)[:6]
        job_ids = [f"job-{i}" for i in range(len(records))]
        reference = _reference_verdicts(recognizer, records, job_ids)
        streams = split_by_job(
            list(interleave_records(records, METRIC, job_ids)), 3
        )
        sock = str(tmp_path / "poison.sock")
        engine = _engine(recognizer)

        poison = "\n".join(s.to_json() for s in streams[1])
        poison += '\n{"job": "evil", "node": not-even-json\n'

        async def run(listener):
            good_a, bad, good_c = await asyncio.gather(
                push_samples(streams[0], uds=sock),
                _raw_uds_exchange(sock, poison.encode()),
                push_samples(streams[2], uds=sock),
            )
            return good_a, json.loads(bad), good_c

        service, (good_a, bad, good_c) = asyncio.run(_serve_net(
            engine, ServeConfig(batch_max_delay=0.002), uds=sock, run=run
        ))

        assert good_a.get("ok") and good_c.get("ok")
        assert "invalid JSON" in bad["error"]
        # The valid prefix of the poisoned stream was still submitted.
        assert bad["accepted"] == len(streams[1])
        stats = engine.stats
        assert stats.n_protocol_errors == 1
        assert stats.conns_dropped == 1
        assert stats.conns_active == 0
        results = service.results
        assert set(results) == set(job_ids)
        for job in job_ids:
            assert results[job] == reference[job], job

    def test_oversized_line_is_a_protocol_error(self, recognizer, tmp_path):
        sock = str(tmp_path / "fat.sock")
        engine = _engine(recognizer)
        config = ServeConfig(max_line_bytes=128, batch_max_delay=0.002)
        fat = b'{"job": "fat", "node": 0, "t": 61.0, "value": 1.0, "pad": "' \
              + b"x" * 400 + b'"}\n'

        async def run(listener):
            return json.loads(await _raw_uds_exchange(sock, fat))

        _, reply = asyncio.run(_serve_net(engine, config, uds=sock, run=run))
        assert "max_line_bytes" in reply["error"]
        assert engine.stats.n_protocol_errors == 1
        assert engine.stats.conns_dropped == 1

    def test_node_count_over_the_ceiling_is_a_protocol_error(
        self, recognizer, dataset, tmp_path
    ):
        """A line declaring more than ``MAX_NODES`` nodes is refused as
        a bad line before any session is sized from it, and jobs sent
        after it still get their verdicts."""
        records = list(dataset)[:2]
        job_ids = ["before", "after"]
        reference = _reference_verdicts(recognizer, records, job_ids)
        samples = list(interleave_records(records, METRIC, job_ids))
        sock = str(tmp_path / "huge.sock")
        engine = _engine(recognizer)
        huge = (b'{"job": "huge", "node": 0, "t": 61.0, "value": 1.0, '
                b'"nodes": 1000000000000}\n')

        async def run(listener):
            first = await push_samples(
                [s for s in samples if s.job == "before"], uds=sock
            )
            bad = json.loads(await _raw_uds_exchange(sock, huge))
            later = await push_samples(
                [s for s in samples if s.job == "after"], uds=sock
            )
            return first, bad, later

        service, (first, bad, later) = asyncio.run(_serve_net(
            engine, ServeConfig(batch_max_delay=0.002), uds=sock, run=run
        ))
        assert first.get("ok") and later.get("ok")
        assert f"nodes must be in [1, {MAX_NODES}]" in bad["error"]
        assert bad["accepted"] == 0
        assert engine.stats.n_protocol_errors == 1
        assert service.results == reference

    def test_valid_lines_sharing_a_chunk_with_oversized_tail_survive(
        self, recognizer, tmp_path
    ):
        """Acceptance must not depend on TCP chunk boundaries: valid
        complete lines delivered in the same read as an oversized
        unterminated tail are still submitted before the error."""
        sock = str(tmp_path / "tail.sock")
        engine = _engine(recognizer)
        config = ServeConfig(max_line_bytes=128, batch_max_delay=0.002)
        good = b'{"job": "ok", "node": 0, "t": 61.0, "value": 1.0, "nodes": 1}\n'
        payload = good + good + b'{"job": "fat", "pad": "' + b"x" * 400

        async def run(listener):
            return json.loads(await _raw_uds_exchange(sock, payload))

        service, reply = asyncio.run(
            _serve_net(engine, config, uds=sock, run=run)
        )
        assert "max_line_bytes" in reply["error"]
        assert reply["accepted"] == 2
        assert service.n_sessions == 1  # job "ok" opened from the prefix

    def test_push_samples_reports_server_refusal_without_crashing(
        self, recognizer, tmp_path
    ):
        """A server that refuses a line and hangs up mid-stream must
        surface as an {"error": ...} summary from push_samples — not an
        unhandled ConnectionError killing the whole replay."""
        sock = str(tmp_path / "refused.sock")
        engine = _engine(recognizer)
        config = ServeConfig(max_line_bytes=96, batch_max_delay=0.002)
        # One oversized sample early, then a long tail the producer
        # will still be writing when the server closes on it.
        fat_job = "f" * 200
        stream = [Sample(job=fat_job, node=0, time=61.0, value=1.0, n_nodes=1)]
        stream += [
            Sample(job="bulk", node=0, time=float(t), value=1.0, n_nodes=1)
            for t in range(50_000)
        ]

        async def run(listener):
            return await push_samples(stream, uds=sock, batch_lines=64)

        _, summary = asyncio.run(_serve_net(engine, config, uds=sock, run=run))
        assert "error" in summary
        assert engine.stats.n_protocol_errors == 1

    def test_blank_lines_and_comments_are_skipped(self, recognizer, tmp_path):
        sock = str(tmp_path / "blank.sock")
        engine = _engine(recognizer)
        payload = (
            b"# a relay header\n"
            b"\n"
            b'{"job": "j", "node": 0, "t": 61.0, "value": 1.0, "nodes": 1}\n'
        )

        async def run(listener):
            return json.loads(await _raw_uds_exchange(sock, payload))

        service, reply = asyncio.run(_serve_net(
            engine, ServeConfig(batch_max_delay=0.002), uds=sock, run=run
        ))
        assert reply["ok"] is True
        assert reply["accepted"] == 1
        assert reply["lines"] == 3
        assert service.n_sessions == 1


# ---------------------------------------------------------------------------
# Block decoder == per-line reference
# ---------------------------------------------------------------------------

MAX_LINE = 160


def _sample_key(sample: Sample):
    """Bitwise identity of a sample (NaN equal to NaN, -0.0 to -0.0)."""
    return (sample.job, sample.node, repr(sample.time), repr(sample.value),
            sample.n_nodes)


def _reference_decode(stream: bytes, max_bytes: int):
    """The specification, one line at a time: ``(samples, error, lines)``
    with ``lines`` the summary count at EOF (None after an error)."""
    lines = stream.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # a final newline ends the last line; it is no line
    samples = []
    for lineno, raw in enumerate(lines, start=1):
        if len(raw) > max_bytes:
            return samples, (f"sample line {lineno}: exceeds "
                             f"max_line_bytes={max_bytes}"), None
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            return samples, f"sample line {lineno}: not valid UTF-8: {exc}", None
        if not text or text.startswith("#"):
            continue
        try:
            samples.append(parse_sample(text, lineno))
        except ValueError as exc:
            return samples, str(exc), None
    return samples, None, len(lines)


def _block_decode(stream: bytes, cuts, max_bytes: int, worker=None,
                  loop=None):
    """The listener's framing: feed ``stream`` split at ``cuts`` and take
    every span, decoded inline or by ``worker`` (on its ``loop``)."""
    bounds = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})

    async def run():
        decoder = LineDecoder(max_bytes, worker)
        out = SampleBlock()
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                if not decoder.reading:
                    break
                decoder.feed(stream[lo:hi])
                decoder.take(out)
            if decoder.reading:
                decoder.finish()
            while decoder.in_flight:
                await decoder.wait()
                decoder.take(out)
        except ProtocolError as exc:
            assert exc.parsed is out  # the whole valid prefix rides along
            return list(out), str(exc), None
        return list(out), None, decoder.lineno

    if loop is None:
        return asyncio.run(run())
    return loop.run_until_complete(run())


def _obj_line(job="j", node=0, t=61.0, value=1.5, nodes=4, **extra) -> bytes:
    obj = {"job": job, "node": node, "t": t, "value": value}
    if nodes is not None:
        obj["nodes"] = nodes
    obj.update(extra)
    return json.dumps(obj).encode()


_valid_line = st.builds(
    _obj_line,
    job=st.sampled_from(["j", "job-0001", "ünï"]),
    node=st.integers(0, 3),
    t=st.one_of(st.floats(0, 200, allow_nan=False), st.integers(0, 200)),
    value=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10**6, 10**6), st.none()),
    nodes=st.one_of(st.none(), st.integers(1, 8)),
)
_odd_line = st.sampled_from([
    b"", b"   ", b"\t", b"# relay header", b"  # indented comment",
    b'  {"job": "pad", "node": 0, "t": 61.0, "value": 1.0}  ',
    b'{"job": "crlf", "node": 1, "t": 62.0, "value": 2.0, "nodes": 2}\r',
    b'{"job": "nan", "node": 0, "t": 61.0, "value": NaN}',
    # coercible: only the per-line path converts these
    b'{"job": "c", "node": "3", "t": 61.0, "value": 1.0}',
    b'{"job": "c", "node": 0, "t": "61.5", "value": "1e3", "nodes": "4"}',
    b'{"job": 5, "node": true, "t": 61.0, "value": 1.0}',
    b'{"job": "c", "node": 0, "t": 61.0, "value": 1.0, "nodes": null}',
    b'{"job": "x", "node": 0, "t": 1.0, "value": 2.0, "tags": [1, 2]}',
    # invalid
    b'{"job": "evil", "node": not-even-json',
    b"[1, 2]", b"42", b'{"job": "a"}', b'{"job": "", "node": 0, "t": 1, "value": 1}',
    b'{"job": "a", "node": -1, "t": 1, "value": 1}',
    b'{"job": "a", "node": 0, "t": 1, "value": 1, "nodes": 0}',
    b'{"job": "a", "node": 0, "t": 1, "value": 1, "nodes": 65537}',
    b'{"job": "a", "node": 0, "t": 1, "value": 1, "nodes": 65536}',
    b'{"job": "a", "node": 0, "t": 1, "value": "abc"}',
    b'{"job": "a", "node": 0, "t": 1, "value": [1]}',
    b'{"job": "a", "node": 0, "t": 1e999999, "value": 1}',
    b'{"job": "a", "node": 0, "t": 1' + b"0" * 400 + b', "value": 1}',
    # one object split over two lines, two objects on one line: each
    # line alone is invalid, however the array decode would pair them
    b'{"job": "a", "node": 0, "t": 1.0',
    b'"value": 2.0}',
    b'{"job": "a", "node": 0, "t": 1.0, "value": 2.0}, '
    b'{"job": "b", "node": 0, "t": 1.0, "value": 2.0}',
    b'{"job": "a", "node": 0, "t": 1.0, "value": 2.0, "x": [1',
    b'{"job": "b", "node": 0, "t": 1.0, "value": 2.0}]}',
    # a string cut at a line end, closed on the next line
    b'{"job": "a',
    b'{", "node": 0, "t": 1.0, "value": 2.0}',
    b"\xff\xfe not utf-8",
    b'{"job": "\xc3", "node": 0, "t": 1.0, "value": 2.0}',
    b'{"job": "' + b"o" * MAX_LINE + b'", "node": 0, "t": 1, "value": 1}',
])


class TestBlockDecoder:
    """:class:`LineDecoder` decodes a read's complete lines in one pass
    and must be indistinguishable from decoding line by line through
    ``parse_sample``: same samples in order, same error text and line
    number, same summary counts — wherever the reads split the stream."""

    @settings(max_examples=400, deadline=None)
    @given(
        lines=st.lists(st.one_of(_valid_line, _valid_line, _odd_line),
                       max_size=40),
        trailing_newline=st.booleans(),
        cuts=st.lists(st.integers(0, 10**6), max_size=8),
    )
    def test_equals_per_line_reference(self, lines, trailing_newline, cuts):
        stream = b"\n".join(lines) + (b"\n" if trailing_newline else b"")
        ref_samples, ref_error, ref_lines = _reference_decode(stream, MAX_LINE)
        samples, error, n_lines = _block_decode(stream, cuts, MAX_LINE)
        assert error == ref_error
        assert n_lines == ref_lines
        assert [_sample_key(s) for s in samples] == \
            [_sample_key(s) for s in ref_samples]

    def test_string_across_a_line_break_is_refused(self):
        """Three lines that joined with a bare comma would decode to three
        objects (the first with job id ``'a,{'``): each line is invalid
        on its own, so the stream is refused at line 1."""
        stream = b"\n".join([
            b'{"job": "a',
            b'{", "node": 0, "t": 1.0, "value": 2.0}',
            _obj_line(job="b") + b", " + _obj_line(job="c"),
        ]) + b"\n"
        samples, error, _ = _block_decode(stream, [], MAX_LINE)
        assert samples == []
        assert error == _reference_decode(stream, MAX_LINE)[1]
        assert error.startswith("sample line 1: invalid JSON")

    def test_well_typed_chunks_take_the_bulk_path(self, monkeypatch):
        """The per-line path is the exception: a clean chunk (blank and
        comment lines included) never reaches ``parse_sample``."""
        import repro.serve.net as net

        def refuse(*args):
            raise AssertionError("per-line path used")

        monkeypatch.setattr(net, "parse_sample", refuse)
        stream = b"\n".join([
            b"# header", _obj_line(t=60), b"", _obj_line(value=None),
            _obj_line(nodes=None) + b"\r", b"  " + _obj_line(job="k"),
        ]) + b"\n"
        samples, error, n_lines = _block_decode(stream, [], MAX_LINE)
        assert error is None and n_lines == 6
        assert [s.job for s in samples] == ["j", "j", "j", "k"]
        assert samples[0].time == 60.0 and type(samples[0].time) is float

    def test_mixed_stream_reply_counts_over_the_wire(
        self, recognizer, tmp_path
    ):
        """Reply counts from a live listener match the reference: the
        valid prefix is accepted, the error names the reference line."""
        sock = str(tmp_path / "mixed.sock")
        engine = _engine(recognizer)
        good = [_obj_line(job=f"m{i}", node=0, t=61.0 + i, nodes=1)
                for i in range(300)]
        stream = b"\n".join(
            good[:150] + [b"", b"# note", b'{"job": "m0", "node": "0", '
                          b'"t": 70, "value": 1}'] + good[150:]
            + [b'{"job": "bad", "node": oops}'] + good[:5]
        ) + b"\n"
        ref_samples, ref_error, _ = _reference_decode(stream, 65536)

        async def run(listener):
            return json.loads(await _raw_uds_exchange(sock, stream))

        _, reply = asyncio.run(_serve_net(
            engine, ServeConfig(batch_max_delay=0.002, net_batch_samples=64),
            uds=sock, run=run,
        ))
        assert reply == {"error": ref_error, "accepted": len(ref_samples)}


# ---------------------------------------------------------------------------
# The decode process: same answers as inline, and no trace left behind
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def decode_worker():
    """One decode process on a loop of its own, shared by the examples."""
    loop = asyncio.new_event_loop()
    worker = loop.run_until_complete(
        net._DecodeWorker.spawn(MAX_LINE, EngineStats())
    )
    yield loop, worker
    loop.run_until_complete(worker.close())
    loop.close()


@pytest.fixture
def with_worker(monkeypatch):
    """Listeners fork a decode process whatever the CPU count, and send
    it every span, however short."""
    monkeypatch.setattr(net, "_decode_in_worker", lambda: True)
    monkeypatch.setattr(net, "_INLINE_SPAN_BYTES", 0)


def _folded(service) -> int:
    return sum(state.session.n_samples for state in service._sessions.values()
               if state.session is not None)


def _child_pids():
    """Process ids of this process's live (or unreaped) children."""
    pids = set()
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/children") as fh:
            pids.update(map(int, fh.read().split()))
    return pids


def _fds(pid: int):
    """``{fd: target}`` of a live process."""
    base = f"/proc/{pid}/fd"
    return {int(fd): os.readlink(os.path.join(base, fd))
            for fd in os.listdir(base)}


_MID_STREAM_LINES = {
    "malformed": b'{"job": "bad", "node": oops}',
    "oversized": b'{"job": "fat", "node": 0, "t": 61.0, "value": 1.0, '
                 b'"pad": "' + b"x" * 400 + b'"}',
    "non-utf8": b'{"job": "\xff\xfe", "node": 0, "t": 61.0, "value": 1.0}',
    "coercion": b'{"job": "m0", "node": "0", "t": 70, "value": "1e3"}',
}


class TestDecodeWorker:
    """Spans decoded in the forked process give exactly what inline
    decoding gives; the process holds no descriptor of the service's,
    dies without costing a line, and is gone after ``close()``."""

    @settings(max_examples=400, deadline=None)
    @given(
        lines=st.lists(st.one_of(_valid_line, _valid_line, _odd_line),
                       max_size=40),
        trailing_newline=st.booleans(),
        cuts=st.lists(st.integers(0, 10**6), max_size=8),
    )
    def test_equals_per_line_reference(self, decode_worker, lines,
                                       trailing_newline, cuts):
        loop, worker = decode_worker
        stream = b"\n".join(lines) + (b"\n" if trailing_newline else b"")
        ref_samples, ref_error, ref_lines = _reference_decode(stream, MAX_LINE)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(net, "_INLINE_SPAN_BYTES", 0)  # every span goes out
            samples, error, n_lines = _block_decode(stream, cuts, MAX_LINE,
                                                    worker, loop)
        assert worker.alive
        assert error == ref_error
        assert n_lines == ref_lines
        assert [_sample_key(s) for s in samples] == \
            [_sample_key(s) for s in ref_samples]

    @pytest.mark.parametrize("kind", sorted(_MID_STREAM_LINES))
    def test_mid_stream_line_gets_the_inline_reply(
        self, recognizer, tmp_path, monkeypatch, kind
    ):
        good = [_obj_line(job=f"m{i}", node=0, t=61.0 + i, nodes=1)
                for i in range(400)]
        stream = b"\n".join(good[:250] + [_MID_STREAM_LINES[kind]]
                            + good[250:]) + b"\n"
        config = ServeConfig(max_line_bytes=256, batch_max_delay=0.002,
                             net_batch_samples=64)
        ref_samples, ref_error, ref_lines = _reference_decode(stream, 256)
        monkeypatch.setattr(net, "_INLINE_SPAN_BYTES", 0)
        replies = {}
        for in_worker in (True, False):
            monkeypatch.setattr(net, "_decode_in_worker",
                                lambda: in_worker)
            sock = str(tmp_path / f"mid-{in_worker}.sock")
            engine = _engine(recognizer)

            async def run(listener):
                assert (listener.decode_pid is not None) == in_worker
                return json.loads(await _raw_uds_exchange(sock, stream))

            _, replies[in_worker] = asyncio.run(_serve_net(
                engine, config, uds=sock, run=run
            ))
        assert replies[True] == replies[False]
        if ref_error is None:
            assert replies[True] == {"ok": True, "accepted": len(ref_samples),
                                     "lines": ref_lines}
        else:
            assert replies[True] == {"error": ref_error,
                                     "accepted": len(ref_samples)}

    def test_sigkill_mid_stream_loses_no_sample(
        self, recognizer, dataset, tmp_path, monkeypatch, with_worker
    ):
        """Kill the process at its first reply, with spans of three
        producers still out: they and every later span are decoded
        inline, every sample is accounted for, and the verdicts equal
        the single-stream reference."""
        records = list(dataset)[:9]
        job_ids = [f"job-{i:04d}" for i in range(len(records))]
        reference = _reference_verdicts(recognizer, records, job_ids)
        samples = list(interleave_records(records, METRIC, job_ids))
        sock = str(tmp_path / "kill.sock")
        engine = _engine(recognizer)
        received = net._DecodeWorker.data_received
        killed = []

        def kill_first(self, data):
            if not killed:
                killed.append(self.pid)
                os.kill(self.pid, signal.SIGKILL)
            received(self, data)

        monkeypatch.setattr(net._DecodeWorker, "data_received", kill_first)

        async def run(listener):
            summaries = await asyncio.wait_for(replay_samples(
                samples, producers=3, uds=sock, batch_lines=16,
            ), 60)
            assert listener.decode_pid is None  # decoding inline now
            return summaries

        service, summaries = asyncio.run(_serve_net(
            engine, ServeConfig(batch_max_delay=0.002, net_batch_samples=32),
            uds=sock, run=run,
        ))
        assert killed
        stats = engine.stats
        assert stats.decode_worker_deaths == 1
        assert all(s.get("ok") for s in summaries)
        accepted = sum(s["accepted"] for s in summaries)
        assert accepted == len(samples)
        assert sum(s["lines"] for s in summaries) == len(samples)
        assert accepted == _folded(service) + stats.n_late
        assert service.results == reference

    def test_holds_only_its_socket_and_the_standard_fds(
        self, recognizer, tmp_path, with_worker
    ):
        from repro.engine import ShardedDictionary, load_columnar, \
            save_columnar

        directory = str(tmp_path / "efd-col")
        save_columnar(
            ShardedDictionary.from_flat(recognizer.dictionary_, 2), directory
        )
        engine = BatchRecognizer(load_columnar(directory), metric=METRIC,
                                 depth=DEPTH)
        sock = str(tmp_path / "fds.sock")

        async def run():
            async with IngestService(engine, ServeConfig()) as service:
                other = socket.socket()
                other.bind(("127.0.0.1", 0))
                other.listen()
                port = other.getsockname()[1]
                async with NetListener(service, uds=sock, port=0) as listener:
                    pid = listener.decode_pid
                    fds = _fds(pid)
                    other.close()
                    again = socket.socket()
                    try:
                        again.bind(("127.0.0.1", port))  # no one holds it
                    finally:
                        again.close()
                return fds

        fds = asyncio.run(run())
        extra = {fd: target for fd, target in fds.items() if fd > 2}
        assert len(extra) == 1, fds
        assert next(iter(extra.values())).startswith("socket:")

    def test_close_reaps_the_process(self, recognizer, tmp_path, with_worker):
        sock = str(tmp_path / "reap.sock")
        engine = _engine(recognizer)

        async def run():
            async with IngestService(engine, ServeConfig()) as service:
                listener = NetListener(service, uds=sock)
                await listener.start()
                pid = listener.decode_pid
                assert pid in _child_pids()
                await listener.close()
                assert listener.decode_pid is None
                return pid

        pid = asyncio.run(run())
        assert pid not in _child_pids()
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_failed_start_leaves_no_process(self, recognizer, with_worker):
        before = _child_pids()
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen()

        async def run():
            async with IngestService(_engine(recognizer)) as service:
                listener = NetListener(service,
                                       port=taken.getsockname()[1])
                with pytest.raises(OSError):
                    await listener.start()
                assert listener.decode_pid is None

        try:
            asyncio.run(run())
        finally:
            taken.close()
        assert _child_pids() <= before

    def test_one_cpu_decodes_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert net._decode_in_worker() is False
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert net._decode_in_worker() is True


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------

class TestGracefulDrain:
    def test_close_abort_flushes_parsed_samples(self, recognizer, tmp_path):
        """close(abort=True) mid-stream must not lose samples already
        parsed: the producer's open connection is flushed and answered,
        and the session state reflects every line sent so far."""
        sock = str(tmp_path / "drain.sock")
        engine = _engine(recognizer)

        async def run():
            config = ServeConfig(batch_max_delay=0.002,
                                 net_batch_samples=1024,
                                 net_batch_delay=5.0)
            service = IngestService(engine, config)
            async with service:
                listener = NetListener(service, uds=sock)
                await listener.start()
                reader, writer = await asyncio.open_unix_connection(sock)
                for t in range(61, 71):
                    writer.write((Sample(
                        job="inflight", node=0, time=float(t),
                        value=1.0, n_nodes=1,
                    ).to_json() + "\n").encode())
                await writer.drain()
                # No EOF: the handler is parked mid-batch (the huge
                # net_batch_delay guarantees nothing was submitted yet).
                while engine.stats.conns_active < 1:
                    await asyncio.sleep(0.001)
                await asyncio.sleep(0.05)
                await listener.close(abort=True)
                reply = json.loads(await reader.readline())
                writer.close()
                await service.drain()
                # Stream cut mid-interval: decide it from what arrived.
                state = service._sessions["inflight"]
                assert state.session.n_samples == 10
                return reply

        reply = asyncio.run(run())
        assert reply["ok"] is True
        assert reply["accepted"] == 10
        assert engine.stats.conns_active == 0
        assert engine.stats.conns_dropped == 0
        assert not os.path.exists(sock)  # close() removed the UDS file

    def test_closed_listener_refuses_new_producers(
        self, recognizer, tmp_path
    ):
        sock = str(tmp_path / "closed.sock")
        engine = _engine(recognizer)

        async def run():
            async with IngestService(engine, ServeConfig()) as service:
                listener = NetListener(service, uds=sock)
                await listener.start()
                await listener.close()
                with pytest.raises((ConnectionError, FileNotFoundError)):
                    await asyncio.open_unix_connection(sock)

        asyncio.run(run())


# ---------------------------------------------------------------------------
# CLI round trip: efd serve --uds + efd replay + SIGTERM
# ---------------------------------------------------------------------------

class TestCLI:
    def test_serve_uds_replay_sigterm_round_trip(self, tmp_path):
        from repro.cli import main

        data = str(tmp_path / "ds.npz")
        efd = str(tmp_path / "efd.json")
        stream = str(tmp_path / "stream.jsonl")
        sock = str(tmp_path / "cli.sock")
        assert main(["generate", "--out", data, "--repetitions", "2",
                     "--duration-cap", "150", "--seed", "11"]) == 0
        assert main(["fit", "--data", data, "--out", efd,
                     "--depth", "2"]) == 0

        from repro.data.io import load_dataset
        from repro.serve import interleave_records as ir

        records = list(load_dataset(data))[:4]
        with open(stream, "w", encoding="utf-8") as fh:
            for sample in ir(records, METRIC):
                fh.write(sample.to_json() + "\n")

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--efd", efd,
             "--depth", "2", "--uds", sock, "--batch-delay", "0.002",
             "--retention-max-done", "100"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            deadline = time.time() + 30
            while not os.path.exists(sock):
                assert proc.poll() is None, proc.stdout.read()
                assert time.time() < deadline, "listener never bound its UDS"
                time.sleep(0.05)

            assert main(["replay", "--input", stream, "--uds", sock,
                         "--producers", "2", "--quiet"]) == 0

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        assert proc.returncode == 0, out
        assert "listening on unix://" in out
        assert "verdict job=" in out
        assert "draining" in out
        assert "served 4 session(s), 4 verdict(s)" in out
        assert "connections : accepted=2" in out

    def test_replay_parser_requires_endpoint(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--input", "x.jsonl"])

    def test_serve_rejects_demo_with_listen(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--demo"):
            main(["serve", "--demo", "--uds", "/tmp/never-used.sock"])
