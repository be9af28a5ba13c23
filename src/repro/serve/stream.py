"""Telemetry sample streams: the wire format of the ingestion service.

One :class:`Sample` is one monitoring observation — job id, node rank,
seconds since job start, metric value.  The on-the-wire encoding is
JSON-lines (one object per line), the least-common-denominator format
every HPC monitoring stack (LDMS CSV relays, Kafka topics, syslog
shippers) can produce::

    {"job": "j-1042", "node": 0, "t": 61.0, "value": 182000.0, "nodes": 4}

``nodes`` (the job's node count) is only required on a job's first
sample — it sizes the :class:`~repro.core.streaming.StreamSession`; a
missing field falls back to the service's ``default_nodes``.  ``value``
may be ``null`` for a dropped sample (the session skips it but still
advances that node's clock).

Inside the service samples travel as a :class:`SampleBlock`: the same
fields as parallel columns, so one decoded wire chunk moves through
admission, the ingest queue and routing as one unit.

:func:`interleave_records` turns stored
:class:`~repro.data.dataset.ExecutionRecord` telemetry back into the
interleaved multi-job live stream a cluster-wide monitoring bus would
deliver — the replay source for demos, benchmarks, and equivalence
tests.
"""

from __future__ import annotations

import json
import math
from typing import (
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    TextIO,
    Union,
)

from repro.data.dataset import ExecutionRecord

#: Largest ``nodes`` a sample may declare: a session allocates per-node
#: state up front, so an absurd count must fail as a bad line, not as a
#: ``MemoryError`` inside the service.
MAX_NODES = 65536


class Sample(NamedTuple):
    """One telemetry observation of one node of one job.

    A ``NamedTuple`` rather than a dataclass on purpose: the network
    listener constructs one per wire line, and tuple construction is
    ~3x cheaper than a frozen dataclass ``__init__`` — measurable at
    hundreds of thousands of samples per second.
    """

    job: str
    node: int
    time: float
    value: float
    n_nodes: Optional[int] = None

    def to_json(self) -> str:
        """Encode as one JSONL line (no trailing newline)."""
        obj = {"job": self.job, "node": self.node, "t": self.time,
               "value": None if math.isnan(self.value) else self.value}
        if self.n_nodes is not None:
            obj["nodes"] = self.n_nodes
        return json.dumps(obj)


def parse_sample(line: str, lineno: int = 0) -> Sample:
    """Decode one JSONL line into a :class:`Sample`.

    Raises :class:`ValueError` naming the offending line number for
    malformed JSON, missing fields, or out-of-domain values.
    """
    where = f"sample line {lineno}" if lineno else "sample line"
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    try:
        job = str(obj["job"])
        node = int(obj["node"])
        time = float(obj["t"])
        raw = obj["value"]
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: bad field value: {exc}") from exc
    if not job:
        raise ValueError(f"{where}: job id must be non-empty")
    if node < 0:
        raise ValueError(f"{where}: node must be >= 0, got {node}")
    n_nodes = obj.get("nodes")
    try:
        value = float("nan") if raw is None else float(raw)
        if n_nodes is not None:
            n_nodes = int(n_nodes)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: bad field value: {exc}") from exc
    if n_nodes is not None and not 1 <= n_nodes <= MAX_NODES:
        raise ValueError(
            f"{where}: nodes must be in [1, {MAX_NODES}], got {n_nodes}"
        )
    return Sample(job=job, node=node, time=time, value=value, n_nodes=n_nodes)


class SampleBlock:
    """A run of samples in stream order, held as parallel columns.

    The unit of work of the ingestion service: the network listener
    decodes each wire chunk into one block, and admission, the ingest
    queue and routing each handle a block at a time.  ``len(block)`` is
    its sample count, iterating yields :class:`Sample` rows, and a slice
    is a block.  The columns are plain lists, so a block may share
    them with the code that built it.
    """

    __slots__ = ("jobs", "nodes", "times", "values", "n_nodes")

    def __init__(
        self,
        jobs: Optional[List[str]] = None,
        nodes: Optional[List[int]] = None,
        times: Optional[List[float]] = None,
        values: Optional[List[float]] = None,
        n_nodes: Optional[List[Optional[int]]] = None,
    ):
        self.jobs = jobs or []
        self.nodes = nodes or []
        self.times = times or []
        self.values = values or []
        self.n_nodes = n_nodes or []

    @classmethod
    def of(cls, samples: Union["SampleBlock", Iterable[Sample]]) -> "SampleBlock":
        """``samples`` as a block (a block is returned as is)."""
        if isinstance(samples, SampleBlock):
            return samples
        rows = list(samples)
        if not rows:
            return cls()
        return cls(*map(list, zip(*rows)))

    def append(self, sample: Sample) -> None:
        self.jobs.append(sample.job)
        self.nodes.append(sample.node)
        self.times.append(sample.time)
        self.values.append(sample.value)
        self.n_nodes.append(sample.n_nodes)

    def extend(self, other: "SampleBlock") -> None:
        self.jobs += other.jobs
        self.nodes += other.nodes
        self.times += other.times
        self.values += other.values
        self.n_nodes += other.n_nodes

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Sample]:
        return map(Sample, self.jobs, self.nodes, self.times, self.values,
                   self.n_nodes)

    def __getitem__(self, index: slice) -> "SampleBlock":
        return SampleBlock(self.jobs[index], self.nodes[index],
                           self.times[index], self.values[index],
                           self.n_nodes[index])


def read_samples(stream: Union[TextIO, Iterable[str]]) -> Iterator[Sample]:
    """Iterate :class:`Sample` objects from a JSONL stream.

    Blank lines and ``#`` comment lines are skipped; anything else must
    parse, or :func:`parse_sample` raises with the line number.
    """
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield parse_sample(stripped, lineno)


def record_samples(
    record: ExecutionRecord, metric: str, job: str
) -> Iterator[Sample]:
    """One job's telemetry as a time-ordered sample stream.

    Yields every node's series merged in ``(time, node)`` order, with
    the job's node count attached to each sample (so a consumer can open
    the session from whichever sample arrives first).
    """
    merged = []
    for node in range(record.n_nodes):
        series = record.series(metric, node)
        for t, v in zip(series.times, series.values):
            merged.append((float(t), node, float(v)))
    merged.sort(key=lambda s: (s[0], s[1]))
    for t, node, v in merged:
        yield Sample(job=job, node=node, time=t, value=v, n_nodes=record.n_nodes)


def interleave_records(
    records: Sequence[ExecutionRecord],
    metric: str,
    job_ids: Optional[Sequence[str]] = None,
) -> Iterator[Sample]:
    """Interleave many jobs' telemetry into one live-feed-shaped stream.

    Jobs advance round-robin, one sample each per turn — the shape a
    system-wide monitoring bus delivers when many jobs run concurrently.
    Per-job sample order is preserved (time-major), so feeding the
    stream into per-job sessions accumulates exactly the same state as
    feeding each job alone.

    ``job_ids`` defaults to ``job-0000 .. job-NNNN``.
    """
    if job_ids is None:
        job_ids = [f"job-{i:04d}" for i in range(len(records))]
    if len(job_ids) != len(records):
        raise ValueError(
            f"{len(job_ids)} job ids for {len(records)} records"
        )
    feeds = [
        record_samples(record, metric, job)
        for record, job in zip(records, job_ids)
    ]
    while feeds:
        exhausted = []
        for i, feed in enumerate(feeds):
            sample = next(feed, None)
            if sample is None:
                exhausted.append(i)
            else:
                yield sample
        for i in reversed(exhausted):
            del feeds[i]
