"""Wire-format tests: JSONL samples and live-stream replay."""

from __future__ import annotations

import math

import pytest

from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator
from repro.serve import (
    Sample,
    SampleBlock,
    ServeConfig,
    interleave_records,
    parse_sample,
    read_samples,
    record_samples,
)
from repro.serve.stream import MAX_NODES

METRIC = "nr_mapped_vmstat"


def _key(sample: Sample):
    """Comparable identity that treats NaN values as equal."""
    value = "nan" if math.isnan(sample.value) else sample.value
    return (sample.job, sample.node, sample.time, value, sample.n_nodes)


@pytest.fixture(scope="module")
def records():
    config = DatasetConfig(
        metrics=(METRIC,), repetitions=1, seed=5, duration_cap=150.0,
        apps=("ft", "mg"),
    )
    return list(TaxonomistDatasetGenerator(config).generate())


class TestSampleCodec:
    def test_round_trip(self):
        sample = Sample(job="j-1", node=2, time=61.5, value=1234.0, n_nodes=4)
        assert parse_sample(sample.to_json()) == sample

    def test_round_trip_without_nodes(self):
        sample = Sample(job="j-1", node=0, time=0.0, value=-1.5)
        assert parse_sample(sample.to_json()) == sample

    def test_nan_value_encodes_as_null(self):
        sample = Sample(job="j", node=0, time=1.0, value=float("nan"))
        line = sample.to_json()
        assert "null" in line
        parsed = parse_sample(line)
        assert math.isnan(parsed.value)

    def test_invalid_json_names_line(self):
        with pytest.raises(ValueError, match="line 7"):
            parse_sample("{nope", lineno=7)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="expected a JSON object"):
            parse_sample("[1, 2]")

    @pytest.mark.parametrize("field", ["job", "node", "t", "value"])
    def test_missing_field_named(self, field):
        obj = {"job": "j", "node": 0, "t": 1.0, "value": 2.0}
        del obj[field]
        import json

        with pytest.raises(ValueError, match=field):
            parse_sample(json.dumps(obj))

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError, match="node"):
            parse_sample('{"job": "j", "node": -1, "t": 1.0, "value": 2.0}')

    def test_empty_job_rejected(self):
        with pytest.raises(ValueError, match="job"):
            parse_sample('{"job": "", "node": 0, "t": 1.0, "value": 2.0}')

    def test_bad_nodes_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            parse_sample(
                '{"job": "j", "node": 0, "t": 1.0, "value": 2.0, "nodes": 0}'
            )

    def test_node_count_ceiling(self):
        line = '{"job": "j", "node": 0, "t": 1.0, "value": 2.0, "nodes": %d}'
        assert parse_sample(line % MAX_NODES).n_nodes == MAX_NODES
        for count in (MAX_NODES + 1, 10**12):
            with pytest.raises(ValueError, match=r"nodes must be in \[1, "):
                parse_sample(line % count)
        with pytest.raises(ValueError, match="default_nodes"):
            ServeConfig(default_nodes=MAX_NODES + 1)


    @pytest.mark.parametrize("line, field", [
        ('{"job": "j", "node": 0, "t": 1.0, "value": "abc"}', "value"),
        ('{"job": "j", "node": 0, "t": 1.0, "value": [1]}', "value"),
        ('{"job": "j", "node": 0, "t": 1.0, "value": 1.0, "nodes": "x"}',
         "nodes"),
        ('{"job": "j", "node": 0, "t": 1' + "0" * 400 + ', "value": 1.0}',
         "t"),
    ])
    def test_bad_field_values_are_named_errors(self, line, field):
        """Every unusable field is a ValueError naming the line — never
        a bare TypeError/OverflowError escaping the decoder."""
        with pytest.raises(ValueError, match="sample line 3: bad field value"):
            parse_sample(line, lineno=3)

    def test_deep_nesting_is_invalid_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            parse_sample("[" * 100_000)


class TestSampleBlock:
    SAMPLES = [
        Sample("a", 0, 61.0, 1.5, 2),
        Sample("b", 1, 62.0, float("nan")),
        Sample("a", 1, 63.0, 2.5, 2),
    ]

    def test_round_trips_samples(self):
        block = SampleBlock.of(self.SAMPLES)
        assert len(block) == 3
        assert [_key(s) for s in block] == [_key(s) for s in self.SAMPLES]
        assert block.jobs == ["a", "b", "a"]
        assert block.n_nodes == [2, None, 2]
        assert SampleBlock.of(block) is block
        assert len(SampleBlock.of(iter([]))) == 0

    def test_slice_append_extend(self):
        block = SampleBlock.of(self.SAMPLES)
        tail = block[1:]
        assert isinstance(tail, SampleBlock) and len(tail) == 2
        assert [_key(s) for s in tail] == [_key(s) for s in self.SAMPLES[1:]]
        tail.append(self.SAMPLES[0])
        block.extend(tail)
        assert [s.job for s in block] == ["a", "b", "a", "b", "a", "a"]


class TestReadSamples:
    def test_skips_blanks_and_comments(self):
        lines = [
            "# header comment",
            "",
            '{"job": "a", "node": 0, "t": 1.0, "value": 2.0}',
            "   ",
            '{"job": "b", "node": 1, "t": 2.0, "value": 3.0}',
        ]
        out = list(read_samples(lines))
        assert [s.job for s in out] == ["a", "b"]

    def test_error_carries_line_number(self):
        lines = ['{"job": "a", "node": 0, "t": 1.0, "value": 2.0}', "broken"]
        with pytest.raises(ValueError, match="line 2"):
            list(read_samples(lines))


class TestReplay:
    def test_record_samples_time_ordered_and_complete(self, records):
        record = records[0]
        samples = list(record_samples(record, METRIC, "j-0"))
        expected = sum(
            len(record.series(METRIC, node).values)
            for node in range(record.n_nodes)
        )
        assert len(samples) == expected
        times = [(s.time, s.node) for s in samples]
        assert times == sorted(times)
        assert all(s.job == "j-0" for s in samples)
        assert all(s.n_nodes == record.n_nodes for s in samples)

    def test_interleave_round_robin(self, records):
        two = records[:2]
        stream = list(interleave_records(two, METRIC, job_ids=["a", "b"]))
        # Per-job subsequences must equal the job's own stream order.
        for job, record in zip(["a", "b"], two):
            own = [_key(s) for s in stream if s.job == job]
            assert own == [_key(s) for s in record_samples(record, METRIC, job)]
        # Round-robin: the first two samples come from different jobs.
        assert {stream[0].job, stream[1].job} == {"a", "b"}

    def test_interleave_default_job_ids(self, records):
        stream = interleave_records(records[:2], METRIC)
        jobs = {s.job for s in stream}
        assert jobs == {"job-0000", "job-0001"}

    def test_interleave_job_id_mismatch(self, records):
        with pytest.raises(ValueError, match="job ids"):
            list(interleave_records(records[:2], METRIC, job_ids=["only-one"]))
