"""The four workloads, each driven through the system's public calls.

Every workload follows the same shape: generate the seeded inputs and
their flat reference (untimed), set the system up three times (the
median is ``setup_s``), then measure.  An untraced run measures for the
requested seconds and yields the end-to-end metrics.  A traced run
splits the seconds into an untraced half and a traced half: the halves
give ``trace.overhead_frac``, the traced half the per-layer metrics and
the waterfall.  Every answer is checked against the reference in both.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.engine import BatchRecognizer, load_columnar, shard_index
from repro.engine.remote import RemoteShardBackend, ShardServerThread
from repro.serve import IngestService, NetListener, ServeConfig

from e2ebench import inputs
from e2ebench.measure import (
    NotReportable,
    Tally,
    chunk_lags,
    fastest_windows,
    peak_rss_mb,
    percentile,
    windowed_rate,
)
from e2ebench.tracing import (
    SpanStat,
    Tracer,
    install_layers,
    render_waterfall,
    waterfall,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Latency samples the untraced half of a traced run collects at least,
#: so that its p99 is reportable.
MIN_LATENCIES = 1000
#: Hard stop for a phase that cannot reach ``MIN_LATENCIES`` in time.
MAX_SECONDS_FACTOR = 3.0
FLOOD_JOBS = 1000
#: serve_flood's rate is taken over windows of this many producer
#: writes (~22k lines), past the first FLOOD_RAMP share of each pass's
#: writes, which only fill the service's queue and socket buffers.
FLOOD_WINDOW_WRITES = 32
FLOOD_RAMP = 0.1
#: serve_paced offered load (lines/s): about half of what serve_flood
#: sustains on a 2-core host, fixed so that runs stay comparable.
PACED_RATE = 40_000.0
#: Telemetry of a paced job replays this many times faster than real
#: time, so ~200 jobs are in flight at once.
PACED_SPEEDUP = 50.0
LEARN_EVERY = 10

OPENWORLD_REPETITIONS = 45   # 37 (app, input) pairs -> 1665 records
OPENWORLD_BATCH = 555

REMOTE_FILLER = 50_000
REMOTE_HOSTS = 2             # one shard per host
REMOTE_BATCH = 1024
REMOTE_BATCHES = 48
#: remote_fanout's rate is the median over windows of this many calls.
#: Its call times scatter with how the client and host threads share the
#: interpreter lock, so the fastest windows would pick lucky draws: over
#: five seeds they spread 0.16 of their median, the median 0.075.
REMOTE_WINDOW = 50
REMOTE_HIT_FRAC = 0.8

SERVE_CONFIG = ServeConfig(
    max_pending_samples=16384, backpressure="block",
    batch_max_sessions=128, batch_max_delay=0.005,
    net_batch_samples=1024, net_batch_delay=0.002,
    compact_on_close=False,
)

END_TO_END = {
    "samples_per_s": "samples/s",
    "verdict_p50_ms": "ms",
    "exec_per_s": "records/s",
    "probes_per_s": "probes/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "service.submit_s": "s",
    "service.submit_wait_s": "s",
    "service.samples_per_submit": "samples/call",
    "streaming.ingest_s": "s",
    "serve.unattributed_s": "s",
    "service.queue_peak": "count",
    "service.late_drops": "count",
    "streaming.fingerprints_s": "s",
    "batch.recognize_sessions_s": "s",
    "batch.sessions_per_call": "sessions/call",
    "columnar.lookup_many_s": "s",
    "columnar.keys_per_lookup": "keys/call",
    "deltalog.learns": "count",
    "deltalog.learn_s": "s",
    "batch.recognize_records_s": "s",
    "columnar.resolve_probes_s": "s",
    "columnar.hit_frac": "ratio",
    "rounding.round_s": "s",
    "batch.unattributed_s": "s",
    "batch.cold_first_call_s": "s",
    "columnar.open_s": "s",
    "columnar.warm_s": "s",
    "remote.lookup_many_s": "s",
    "remote.wire_bytes_per_probe": "B/probe",
    "remote.pool_reuse_frac": "ratio",
    "remote.mirror_resolved_frac": "ratio",
    "remote.inproc_probes_per_s": "probes/s",
    "remote.wire_tax": "ratio",
    "sharded.shard_index_us_per_key": "us/key",
    "remote.retries": "count",
    "remote.hedges": "count",
    "remote.degraded": "count",
    "workload.unknown_frac": "ratio",
    "workload.repeat_pattern_frac": "ratio",
    "verdict_p99_ms": "ms",
    "gen_lag_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.wall_s": "s",
}


@dataclass
class Run:
    """One invocation: arguments, failure tally and what was measured."""

    workload: str
    root: str
    seed: int
    seconds: float
    trace: bool
    tally: Tally = None
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.tally = Tally(self.workload, self.seed)

    def scratch(self) -> str:
        """A per-run directory inside the checkout, removed at the end."""
        path = os.path.join(inputs.CACHE_DIR, f"run-{os.getpid()}")
        os.makedirs(path, exist_ok=True)
        return path


@dataclass
class Setup:
    """Medians over the set-up repetitions."""

    total: List[float] = field(default_factory=list)
    open: List[float] = field(default_factory=list)
    warm: List[float] = field(default_factory=list)
    cold: List[float] = field(default_factory=list)

    def add(self, open_s: float, warm_s: float, cold_s: float) -> None:
        self.open.append(open_s)
        self.warm.append(warm_s)
        self.cold.append(cold_s)
        self.total.append(open_s + warm_s + cold_s)

    def record(self, run: Run) -> None:
        run.end_to_end["setup_s"] = statistics.median(self.total)
        run.per_layer["columnar.open_s"] = statistics.median(self.open)
        run.per_layer["columnar.warm_s"] = statistics.median(self.warm)
        run.per_layer["batch.cold_first_call_s"] = statistics.median(self.cold)


def _latency_metrics(run: Run, latencies_s: Sequence[float],
                     p50_from: Optional[Sequence[float]] = None) -> None:
    """p50 for an untraced run, over ``p50_from`` (the fast stretches of
    a closed loop) or else every sample; p99 from the untraced half of a
    traced run, which collects enough samples for it.  An untraced run
    also reports its p99 in the report line when the tail is reportable."""
    ms = [x * 1e3 for x in latencies_s]
    run.counts["verdict_latency_samples"] = len(ms)
    if run.trace:
        try:
            run.per_layer["verdict_p99_ms"] = percentile(ms, 99)
        except NotReportable as exc:   # a short run hit the phase's hard stop
            run.notes.append(f"verdict_p99_ms not reported: {exc}")
        return
    p50_ms = ms if p50_from is None else [x * 1e3 for x in p50_from]
    run.counts["verdict_p50_samples"] = len(p50_ms)
    run.end_to_end["verdict_p50_ms"] = percentile(p50_ms, 50)
    try:
        run.extra["verdict_p99_ms"] = percentile(ms, 99)
    except NotReportable:
        pass


def _gen_lag(run: Run, lags_s: np.ndarray) -> None:
    run.per_layer["gen_lag_p99_ms"] = percentile(lags_s * 1e3, 99)
    run.counts["gen_lag_samples"] = int(len(lags_s))


def _span_metrics(run: Run, tracer: Tracer, wall_s: float) -> None:
    """Per-layer figures from the traced half, plus the waterfall."""
    totals = tracer.totals()
    blank = SpanStat()

    def stat(name: str) -> SpanStat:
        return totals.get(name, blank)

    def incl(name: str) -> float:
        return stat(name).incl_ns / 1e9

    def per_call(name: str) -> float:
        s = stat(name)
        return s.items / s.calls if s.calls else 0.0

    p = run.per_layer
    p["service.submit_s"] = incl("service.submit")
    p["service.submit_wait_s"] = stat("service.submit").wait_ns / 1e9
    p["service.samples_per_submit"] = per_call("service.submit")
    p["streaming.ingest_s"] = incl("streaming.ingest")
    p["streaming.fingerprints_s"] = incl("streaming.fingerprints")
    p["batch.recognize_sessions_s"] = incl("batch.recognize_sessions")
    p["batch.sessions_per_call"] = per_call("batch.recognize_sessions")
    p["columnar.lookup_many_s"] = incl("columnar.lookup_many")
    p["columnar.keys_per_lookup"] = per_call("columnar.lookup_many")
    p["deltalog.learns"] = float(stat("deltalog.learn").calls)
    p["deltalog.learn_s"] = incl("deltalog.learn")
    p["batch.recognize_records_s"] = incl("batch.recognize_records")
    p["columnar.resolve_probes_s"] = incl("columnar.resolve_probes")
    resolve = stat("columnar.resolve_probes")
    p["columnar.hit_frac"] = resolve.hits / resolve.items if resolve.items else 0.0
    p["rounding.round_s"] = incl("rounding.round")
    p["batch.unattributed_s"] = stat("batch.recognize_records").excl_ns / 1e9
    p["remote.lookup_many_s"] = incl("remote.lookup_many")
    _, rest = waterfall(totals, wall_s)
    p["serve.unattributed_s"] = rest if run.workload.startswith("serve") else 0.0
    p["trace.wall_s"] = wall_s
    print(render_waterfall(run.workload, totals, wall_s))


def _overhead(run: Run, untraced: Sequence[float], traced: Sequence[float]
              ) -> None:
    run.per_layer["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )


def _shard_index_cost(run: Run, keys: Sequence[Fingerprint],
                      n_shards: int) -> None:
    t0 = time.perf_counter()
    for fp in keys:
        shard_index(fp, n_shards)
    elapsed = time.perf_counter() - t0
    run.per_layer["sharded.shard_index_us_per_key"] = (
        elapsed / len(keys) * 1e6 if keys else 0.0
    )


def _settle() -> None:
    """Move everything allocated so far (inputs, references, the opened
    system) out of the collector's view, so collections while measuring
    scan what the system allocates, not the benchmark's own heap.  Called
    once the inputs of a measured stretch exist, right before it."""
    gc.collect()
    gc.freeze()


def _phases(run: Run) -> List[Tuple[bool, float, bool]]:
    """``(traced, seconds, need_latencies)`` per measured phase."""
    if run.trace:
        half = run.seconds / 2.0
        return [(False, half, True), (True, half, False)]
    return [(False, run.seconds, False)]


# ---------------------------------------------------------------------------
# Serving: NetListener -> IngestService -> BatchRecognizer over UDS
# ---------------------------------------------------------------------------

class ServeRig:
    """A served store, as an operator starts it, plus verdict capture."""

    def __init__(self, root: str, store_dir: str, scratch: str):
        self.root = root
        self.store_dir = store_dir
        self.scratch = scratch
        self.sock_path = os.path.join(scratch, "serve.sock")
        self.verdicts: Dict[str, Tuple[float, object]] = {}
        self.learn_labels: Dict[str, str] = {}
        self.learn_tasks: List[asyncio.Task] = []
        self.service: Optional[IngestService] = None
        self.listener: Optional[NetListener] = None

    def _on_verdict(self, job: str, result) -> None:
        self.verdicts[job] = (time.perf_counter(), result)
        label = self.learn_labels.get(job)
        if label is not None:
            self.learn_tasks.append(
                asyncio.get_running_loop().create_task(
                    self.service.learn(job, label)
                )
            )

    async def start(self) -> Tuple[float, float]:
        """Open the store and start serving: ``(open_s, warm_s)``."""
        t0 = time.perf_counter()
        store = load_columnar(self.store_dir)
        t1 = time.perf_counter()
        engine = BatchRecognizer(store, metric=inputs.METRIC,
                                 depth=inputs.DEPTH, interval=inputs.INTERVAL)
        self.service = IngestService(engine, SERVE_CONFIG,
                                     on_verdict=self._on_verdict)
        await self.service.start()
        self.listener = NetListener(self.service, uds=self.sock_path)
        await self.listener.start()
        return t1 - t0, time.perf_counter() - t1

    async def close(self) -> None:
        await self.listener.close()
        await self.service.close()

    async def push(self, lines: List[bytes],
                   rate: Optional[float] = None) -> "Pushed":
        """Stream ``lines`` from a producer process (closed loop, or open
        loop at ``rate`` lines/s), then drain the service."""
        payload = os.path.join(self.scratch, "payload.ndjson")
        with open(payload, "wb") as fh:
            fh.writelines(lines)
        args = [sys.executable, "-m", "e2ebench.producer", self.sock_path,
                payload]
        if rate is not None:
            args.append(repr(rate))
        proc = await asyncio.create_subprocess_exec(
            *args, stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE, env=inputs.child_env(self.root),
            cwd=self.root,
        )
        out, err = await proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(
                f"producer exited {proc.returncode}: {err.decode()[-400:]}"
            )
        report = json.loads(out.decode().strip().splitlines()[-1])
        pushed = Pushed(
            first_write=report["first_write"],
            writes=[tuple(w) for w in report["writes"]],
            gaps=[tuple(g) for g in report["gaps"]],
            reply=report["reply"],
        )
        await self.service.drain()
        if self.learn_tasks:
            results = await asyncio.gather(*self.learn_tasks,
                                           return_exceptions=True)
            pushed.learn_errors = sum(
                1 for r in results if isinstance(r, BaseException)
            )
            self.learn_tasks = []
        return pushed

    async def missing(self, jobs: Sequence[str]) -> Dict[str, str]:
        """Jobs without a verdict, with the reason the service gives."""
        out = {}
        for job in jobs:
            if job in self.verdicts:
                continue
            try:
                await self.service.verdict(job)
                out[job] = "no-callback"
            except Exception as exc:  # the service's named failure
                out[job] = type(exc).__name__
        return out


@dataclass
class Pushed:
    """What one producer connection saw."""

    first_write: float = 0.0
    writes: List[Tuple[int, int, float]] = field(default_factory=list)
    gaps: List[Tuple[int, float]] = field(default_factory=list)
    reply: dict = field(default_factory=dict)
    learn_errors: int = 0


class _ServeInputs:
    """A seeded pool of executions, encoded once, with references."""

    def __init__(self, seed: int):
        self.flat = inputs.paper_dictionary()
        self.pool = inputs.generate_records(seed, repetitions=3)
        self.encoded = [inputs.EncodedRecord(r) for r in self.pool]
        refs = [inputs.live_reference(self.flat, r) for r in self.pool]
        self.verdicts = [v for v, _ in refs]
        self.fingerprints = [fps for _, fps in refs]
        self.rng = np.random.default_rng(seed)

    def pick(self, n: int) -> List[int]:
        return self.rng.integers(len(self.pool), size=n).tolist()

    def n_probes(self, recs: Sequence[int]) -> int:
        return sum(
            sum(1 for fp in self.fingerprints[r] if fp is not None)
            for r in recs
        )

    def learnable(self, r: int) -> bool:
        """Learning this execution under its own label cannot change any
        label list: every fingerprint already carries that label."""
        label = self.pool[r].label
        return all(
            fp is None or label in self.flat.lookup(fp)
            for fp in self.fingerprints[r]
        )

    def input_metrics(self, run: Run, recs: Sequence[int]) -> None:
        run.per_layer["workload.unknown_frac"] = float(np.mean(
            [not self.verdicts[r].ranked for r in recs]
        ))
        run.per_layer["workload.repeat_pattern_frac"] = inputs.pattern_repeats(
            [tuple(fp.value if fp else None for fp in self.fingerprints[r])
             for r in recs]
        )
        keys = [fp for r in recs[:500] for fp in self.fingerprints[r] if fp]
        _shard_index_cost(run, keys, inputs.N_SHARDS)


def _check_jobs(run: Run, rig: ServeRig, data: _ServeInputs,
                jobs: Sequence[str], recs: Sequence[int],
                missing: Dict[str, str]) -> None:
    for job, r in zip(jobs, recs):
        if job in missing:
            run.tally.attempted += 1
            run.tally.fail(job, missing[job])
        else:
            run.tally.check(job, rig.verdicts[job][1], data.verdicts[r])


async def _serve_setup(run: Run, rig: ServeRig, data: _ServeInputs,
                       setup: Setup, k: int) -> None:
    """Start serving and push one job through: the first (cold) verdict."""
    open_s, warm_s = await rig.start()
    job = f"warm{k}"
    r = data.pick(1)[0]
    lines, _ = inputs.interleave([job], [data.encoded[r]])
    pushed = await rig.push(lines)
    end = rig.verdicts[job][0] if job in rig.verdicts else time.perf_counter()
    setup.add(open_s, warm_s, end - pushed.first_write)
    _check_jobs(run, rig, data, [job], [r], await rig.missing([job]))


def _serve_counters(run: Run, rig: ServeRig) -> None:
    stats = rig.service.stats
    run.per_layer["service.queue_peak"] = float(stats.queue_peak)
    run.per_layer["service.late_drops"] = float(stats.n_late)
    run.tally.add_counter("shed", stats.n_shed)
    run.tally.add_counter("evicted", stats.n_evicted)
    run.tally.add_counter("protocol_error", stats.n_protocol_errors)


async def _serve_main(run: Run, paced: bool) -> None:
    data = _ServeInputs(run.seed)
    store_dir = inputs.cached_store(run.root)
    scratch = run.scratch()
    if paced:
        # Learns write a delta-log into the store: use a fresh copy.
        copy = os.path.join(scratch, "store")
        shutil.copytree(store_dir, copy)
        store_dir = copy
    setup = Setup()
    rig = None
    for k in range(SETUP_REPEATS):
        if rig is not None:
            await rig.close()
        rig = ServeRig(run.root, store_dir, scratch)
        await _serve_setup(run, rig, data, setup, k)
    setup.record(run)

    all_recs: List[int] = []
    tracer = None
    phase_cost: Dict[bool, List[float]] = {False: [], True: []}
    for traced, seconds, need_latencies in _phases(run):
        if traced:
            tracer = install_layers(Tracer())
        try:
            if paced:
                out = await _paced_phase(run, rig, data, seconds,
                                         need_latencies, int(traced))
            else:
                out = await _flood_phase(run, rig, data, seconds,
                                         need_latencies, traced)
        finally:
            if tracer is not None:
                tracer.unpatch()
        recs, wall, samples, sessions, probes, latencies, lags, cost, rate = out
        all_recs += recs
        phase_cost[traced] += cost
        if not run.trace:
            run.end_to_end["samples_per_s"] = rate
            run.end_to_end["exec_per_s"] = rate * sessions / samples
            run.end_to_end["probes_per_s"] = rate * probes / samples
            _latency_metrics(run, latencies)
            run.counts["samples"] = samples
            run.counts["sessions"] = sessions
        elif not traced:
            _latency_metrics(run, latencies)
            _gen_lag(run, lags)
        else:
            _span_metrics(run, tracer, wall)
    _serve_counters(run, rig)
    if run.trace:
        _overhead(run, phase_cost[False], phase_cost[True])
        data.input_metrics(run, all_recs)
    await rig.close()


async def _flood_phase(run, rig, data, seconds, need_latencies, traced):
    """Back-to-back passes of FLOOD_JOBS interleaved jobs.

    The rate is the fastest windows' lines per second of producer
    writes: with the block policy, a write returns only as fast as the
    service takes lines in."""
    recs_all: List[int] = []
    wall = 0.0
    samples = sessions = probes = 0
    latencies: List[float] = []
    gaps: List[Tuple[int, float]] = []
    per_pass: List[float] = []
    write_lines: List[int] = []
    write_s: List[float] = []
    started = time.perf_counter()
    n_pass = 0
    while True:
        elapsed = time.perf_counter() - started
        enough = not need_latencies or len(latencies) >= MIN_LATENCIES
        if n_pass and ((elapsed >= seconds and enough)
                       or elapsed >= seconds * MAX_SECONDS_FACTOR):
            break
        tag = "t" if traced else "u"
        jobs = [f"{tag}{n_pass}-j{j:04d}" for j in range(FLOOD_JOBS)]
        recs = data.pick(FLOOD_JOBS)
        lines, ready_at = inputs.interleave(
            jobs, [data.encoded[r] for r in recs]
        )
        _settle()
        pushed = await rig.push(lines)
        ends = [end for _, end, _ in pushed.writes]
        missing = await rig.missing(jobs)
        _check_jobs(run, rig, data, jobs, recs, missing)
        done = [rig.verdicts[j][0] for j in jobs if j in rig.verdicts]
        pass_wall = max(done) - pushed.first_write
        wall += pass_wall
        accepted = int(pushed.reply.get("accepted", 0))
        if accepted != len(lines):
            run.tally.add_counter("not_accepted", len(lines) - accepted)
        samples += accepted
        sessions += len(done)
        probes += data.n_probes(recs)
        write_done = [w for _, _, w in pushed.writes]
        for job, line in zip(jobs, ready_at):
            if job in rig.verdicts:
                due = write_done[bisect.bisect_right(ends, line)]
                latencies.append(rig.verdicts[job][0] - due)
        # Whole windows of writes past the ramp (one partial window when
        # a pass is too short for a whole one).
        lo = int(len(ends) * FLOOD_RAMP)
        n_windows = max((len(ends) - lo) // FLOOD_WINDOW_WRITES, 1)
        for k in range(lo, min(lo + n_windows * FLOOD_WINDOW_WRITES,
                               len(ends))):
            first, end, done_at = pushed.writes[k]
            write_lines.append(end - first)
            write_s.append(done_at - (write_done[k - 1] if k
                                      else pushed.first_write))
        gaps += pushed.gaps
        per_pass.append(pass_wall / accepted if accepted else math.inf)
        recs_all += recs
        n_pass += 1
    lags = np.repeat([g for _, g in gaps], [n for n, _ in gaps])
    rate, _ = fastest_windows(write_lines, write_s, FLOOD_WINDOW_WRITES)
    return (recs_all, wall, samples, sessions, probes, latencies, lags,
            per_pass, rate)


async def _paced_phase(run, rig, data, seconds, need_latencies, tag):
    """One open-loop stream at PACED_RATE lines/s with staggered jobs;
    about every LEARN_EVERY-th verdict is learned back."""
    per_job = len(data.encoded[0].tails)
    n_jobs = max(int(math.ceil(PACED_RATE * seconds / per_job)), 1)
    if need_latencies:
        n_jobs = max(n_jobs, MIN_LATENCIES)
    jobs = [f"p{tag}-j{j:05d}" for j in range(n_jobs)]
    recs = data.pick(n_jobs)
    arrivals = np.cumsum(data.rng.exponential(per_job / PACED_RATE, n_jobs))
    lines, ready_at = inputs.staggered(
        jobs, [data.encoded[r] for r in recs], arrivals.tolist(),
        PACED_SPEEDUP,
    )
    eligible = [j for j, r in enumerate(recs) if data.learnable(r)]
    stride = max(int(round(len(eligible) / (n_jobs / LEARN_EVERY))), 1)
    rig.learn_labels = {
        jobs[j]: data.pool[recs[j]].label for j in eligible[::stride]
    }
    _settle()
    cpu0 = time.process_time()
    pushed = await rig.push(lines, PACED_RATE)
    cpu = time.process_time() - cpu0
    rig.learn_labels = {}
    missing = await rig.missing(jobs)
    _check_jobs(run, rig, data, jobs, recs, missing)
    if pushed.learn_errors:
        run.tally.add_counter("learn_error", pushed.learn_errors)
    done = [rig.verdicts[j][0] for j in jobs if j in rig.verdicts]
    wall = max(done) - pushed.first_write
    accepted = int(pushed.reply.get("accepted", 0))
    if accepted != len(lines):
        run.tally.add_counter("not_accepted", len(lines) - accepted)
    t0 = pushed.first_write
    latencies = [
        rig.verdicts[job][0] - (t0 + line / PACED_RATE)
        for job, line in zip(jobs, ready_at) if job in rig.verdicts
    ]
    lags = chunk_lags(t0, PACED_RATE, pushed.writes)
    run.counts["learns_requested"] = (
        run.counts.get("learns_requested", 0) + len(eligible[::stride])
    )
    # One stream at a fixed offered rate: the rate over its whole wall.
    return (recs, wall, accepted, len(done), data.n_probes(recs), latencies,
            lags, [cpu / accepted if accepted else math.inf], accepted / wall)


def serve_flood(run: Run) -> None:
    asyncio.run(_serve_main(run, paced=False))


def serve_paced(run: Run) -> None:
    asyncio.run(_serve_main(run, paced=True))


# ---------------------------------------------------------------------------
# Offline open-world recognition: BatchRecognizer.recognize_records
# ---------------------------------------------------------------------------

def recognize_openworld(run: Run) -> None:
    flat = inputs.paper_dictionary()
    records = inputs.generate_records(run.seed, OPENWORLD_REPETITIONS)
    # Stratified batches: each holds the same repetitions of every
    # (app, input) pair, shuffled, so batches differ in noise, not mix.
    rng = np.random.default_rng(run.seed)
    per_batch = OPENWORLD_REPETITIONS * OPENWORLD_BATCH // len(records)
    batches = []
    for first in range(0, OPENWORLD_REPETITIONS, per_batch):
        batch = [r for r in records
                 if first <= r.rep_index < first + per_batch]
        batches.append([batch[i] for i in rng.permutation(len(batch))])
    refs = [inputs.offline_reference(flat, b) for b in batches]
    store_dir = inputs.cached_store(run.root)

    def check(k: int, call: int, got) -> None:
        for i, (g, e) in enumerate(zip(got, refs[k])):
            run.tally.check(f"call{call}-batch{k}-record{i}", g, e)
        if len(got) != len(refs[k]):
            run.tally.fail(f"call{call}-batch{k}", "short-answer")

    setup = Setup()
    engine = None
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        store = load_columnar(store_dir)
        t1 = time.perf_counter()
        engine = BatchRecognizer(store, metric=inputs.METRIC,
                                 depth=inputs.DEPTH, interval=inputs.INTERVAL)
        engine.warm()
        t2 = time.perf_counter()
        got = engine.recognize_records(batches[0])
        t3 = time.perf_counter()
        setup.add(t1 - t0, t2 - t1, t3 - t2)
        check(0, -1 - k, got)
    setup.record(run)
    _settle()

    calls = 0
    phase_cost: Dict[bool, List[float]] = {False: [], True: []}
    for traced, seconds, need_latencies in _phases(run):
        tracer = install_layers(Tracer()) if traced else None
        latencies: List[float] = []
        lag: List[float] = []
        n_records = 0
        started = previous = time.perf_counter()
        try:
            while True:
                elapsed = time.perf_counter() - started
                enough = not need_latencies or len(latencies) >= MIN_LATENCIES
                if latencies and ((elapsed >= seconds and enough)
                                  or elapsed >= seconds * MAX_SECONDS_FACTOR):
                    break
                k = calls % len(batches)
                t0 = time.perf_counter()
                got = engine.recognize_records(batches[k])
                t1 = time.perf_counter()
                latencies.append(t1 - t0)
                lag += [t0 - previous] * len(batches[k])
                n_records += len(batches[k])
                check(k, calls, got)
                calls += 1
                previous = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.unpatch()
        wall = sum(latencies)
        phase_cost[traced] += latencies
        if not run.trace:
            # Each window holds every batch once.
            rate, ops = fastest_windows([OPENWORLD_BATCH] * len(latencies),
                                        latencies, len(batches))
            run.end_to_end["exec_per_s"] = rate
            run.end_to_end["probes_per_s"] = rate * _nodes_with_values(batches)
            run.end_to_end["samples_per_s"] = rate * _samples_per_record(records)
            _latency_metrics(run, latencies, [latencies[i] for i in ops])
            run.counts["records"] = n_records
        elif not traced:
            _latency_metrics(run, latencies)
            _gen_lag(run, np.asarray(lag))
        else:
            _span_metrics(run, tracer, wall)
    if run.trace:
        _overhead(run, phase_cost[False], phase_cost[True])
        every = [r for ref in refs for r in ref]
        run.per_layer["workload.unknown_frac"] = float(
            np.mean([not r.ranked for r in every])
        )
        from repro.engine.batch import build_fingerprints_batch

        repeat = []
        keys: List[Fingerprint] = []
        for b in batches:
            fps = build_fingerprints_batch(b, inputs.METRIC, inputs.DEPTH,
                                           inputs.INTERVAL)
            repeat.append(inputs.pattern_repeats(
                [tuple(fp.value if fp else None for fp in f) for f in fps]
            ))
            keys += [fp for f in fps for fp in f if fp is not None]
        run.per_layer["workload.repeat_pattern_frac"] = float(np.mean(repeat))
        _shard_index_cost(run, keys[:4000], inputs.N_SHARDS)


def _nodes_with_values(batches) -> float:
    """Mean fingerprint probes per record (nodes with a usable mean)."""
    from repro.engine.batch import build_fingerprints_batch

    fps = build_fingerprints_batch(batches[0], inputs.METRIC, inputs.DEPTH,
                                   inputs.INTERVAL)
    return sum(1 for f in fps for fp in f if fp is not None) / len(fps)


def _samples_per_record(records) -> float:
    """Telemetry samples one record carries (all nodes)."""
    r = records[0]
    return float(sum(len(r.series(inputs.METRIC, n).values)
                     for n in range(r.n_nodes)))


# ---------------------------------------------------------------------------
# Remote fan-out: RemoteShardBackend.lookup_many over loopback hosts
# ---------------------------------------------------------------------------

def _remote_counters(stats) -> Dict[str, int]:
    names = ("remote_bytes_sent", "remote_bytes_received",
             "remote_pool_checkouts", "remote_pool_reuses",
             "filter_mirror_hits", "remote_keys", "remote_retries",
             "remote_hedges", "remote_degraded")
    return {n: int(getattr(stats, n)) for n in names}


def remote_fanout(run: Run) -> None:
    hosts_store = inputs.build_sharded(REMOTE_FILLER, REMOTE_HOSTS)
    flat = inputs.paper_dictionary()
    fillers = inputs.filler_fingerprints(np.arange(REMOTE_FILLER))
    for i, fp in enumerate(fillers):
        flat.add(fp, inputs.filler_label(i))
    stored = [fp for fp, _ in flat.entries()]
    batches = inputs.probe_batches(run.seed, stored, REMOTE_FILLER,
                                   REMOTE_BATCHES, REMOTE_BATCH,
                                   REMOTE_HIT_FRAC)
    refs = [flat.lookup_many(b) for b in batches]
    col_dir = inputs.cached_store(run.root, REMOTE_FILLER, REMOTE_HOSTS)
    run.notes.append(f"remote store: {len(flat)} keys on {REMOTE_HOSTS} hosts")
    run.counts["remote_store_keys"] = len(flat)

    def check(k: int, call: int, got, degraded) -> None:
        run.tally.attempted += len(refs[k])
        bad = [i for i, (g, e) in enumerate(zip(got, refs[k])) if g != e]
        for i in bad:
            op = f"call{call}-batch{k}-probe{i}"
            if run.tally.first_mismatch is None:
                run.tally.first_mismatch = op
            run.tally.fail(op, "mismatch")
        for i in (degraded or {}):
            run.tally.fail(f"call{call}-batch{k}-probe{i}", "degraded")

    setup = Setup()
    threads: List[ShardServerThread] = []
    remote: Optional[RemoteShardBackend] = None

    def stop() -> None:
        if remote is not None:
            remote.close()
        for thread in threads:
            thread.stop()

    try:
        for k in range(SETUP_REPEATS):
            stop()
            t0 = time.perf_counter()
            threads = [
                ShardServerThread(hosts_store, n_shards=REMOTE_HOSTS,
                                  shards=[h]).start()
                for h in range(REMOTE_HOSTS)
            ]
            remote = RemoteShardBackend(
                [f"{h}@{threads[h].endpoint}" for h in range(REMOTE_HOSTS)],
                n_shards=REMOTE_HOSTS, deadline=60.0, try_timeout=30.0,
                rng=random.Random(run.seed),
            )
            remote.warm_filter_mirrors()
            t1 = time.perf_counter()
            got = remote.lookup_many(batches[0])
            t2 = time.perf_counter()
            check(0, -1 - k, got, remote.last_degraded)
            # open = host start, warm = mirror fetch, cold = first batch.
            setup.add(0.0, t1 - t0, t2 - t1)
        setup.record(run)
        t0 = time.perf_counter()
        local = load_columnar(col_dir)
        t1 = time.perf_counter()
        local.warm_index()
        run.per_layer["columnar.open_s"] = t1 - t0
        run.per_layer["columnar.warm_s"] = time.perf_counter() - t1
        _settle()

        calls = 0
        phase_cost: Dict[bool, List[float]] = {False: [], True: []}
        untraced_rate = 0.0
        for traced, seconds, need_latencies in _phases(run):
            tracer = install_layers(Tracer()) if traced else None
            before = _remote_counters(remote.engine_stats)
            latencies: List[float] = []
            lag: List[float] = []
            n_probes = 0
            started = previous = time.perf_counter()
            try:
                while True:
                    elapsed = time.perf_counter() - started
                    enough = (not need_latencies
                              or len(latencies) >= MIN_LATENCIES)
                    if latencies and ((elapsed >= seconds and enough)
                                      or elapsed >= seconds * MAX_SECONDS_FACTOR):
                        break
                    k = calls % len(batches)
                    t0 = time.perf_counter()
                    got = remote.lookup_many(batches[k])
                    t1 = time.perf_counter()
                    latencies.append(t1 - t0)
                    lag += [t0 - previous] * len(batches[k])
                    n_probes += len(batches[k])
                    check(k, calls, got, remote.last_degraded)
                    calls += 1
                    previous = time.perf_counter()
            finally:
                if tracer is not None:
                    tracer.unpatch()
            wall = sum(latencies)
            phase_cost[traced] += latencies
            after = _remote_counters(remote.engine_stats)
            delta = {n: after[n] - before[n] for n in after}
            if not run.trace:
                rate = windowed_rate([REMOTE_BATCH] * len(latencies),
                                     latencies, REMOTE_WINDOW)
                run.end_to_end["probes_per_s"] = rate
                run.end_to_end["exec_per_s"] = rate / 4
                run.end_to_end["samples_per_s"] = rate * _WINDOW_SAMPLES
                _latency_metrics(run, latencies)
                run.counts["probes"] = n_probes
            elif not traced:
                untraced_rate = n_probes / wall
                _latency_metrics(run, latencies)
                _gen_lag(run, np.asarray(lag))
            else:
                _span_metrics(run, tracer, wall)
                p = run.per_layer
                wire = delta["remote_bytes_sent"] + delta["remote_bytes_received"]
                p["remote.wire_bytes_per_probe"] = wire / n_probes
                p["remote.pool_reuse_frac"] = (
                    delta["remote_pool_reuses"] / delta["remote_pool_checkouts"]
                    if delta["remote_pool_checkouts"] else 0.0
                )
                misses = n_probes * (1.0 - REMOTE_HIT_FRAC)
                p["remote.mirror_resolved_frac"] = (
                    delta["filter_mirror_hits"] / misses if misses else 0.0
                )
            if run.trace:
                run.per_layer["remote.retries"] = float(
                    run.per_layer.get("remote.retries", 0) + delta["remote_retries"])
                run.per_layer["remote.hedges"] = float(
                    run.per_layer.get("remote.hedges", 0) + delta["remote_hedges"])
                run.per_layer["remote.degraded"] = float(
                    run.per_layer.get("remote.degraded", 0)
                    + delta["remote_degraded"])
        if run.trace:
            _overhead(run, phase_cost[False], phase_cost[True])
            # The honest in-process baseline: the warm columnar store,
            # same batches.
            elapsed = 0.0
            n = 0
            for k, batch in enumerate(batches):
                t0 = time.perf_counter()
                got = local.lookup_many(batch)
                elapsed += time.perf_counter() - t0
                n += len(batch)
                check(k, -100 - k, got, None)
            inproc = n / elapsed
            run.per_layer["remote.inproc_probes_per_s"] = inproc
            run.per_layer["remote.wire_tax"] = inproc / untraced_rate
            run.per_layer["workload.unknown_frac"] = float(np.mean(
                [not labels for ref in refs for labels in ref]
            ))
            run.per_layer["workload.repeat_pattern_frac"] = 0.0
            _shard_index_cost(run, batches[0], REMOTE_HOSTS)
    finally:
        stop()


#: Samples behind one probe key: the 60-120 s window at 1 s sampling.
_WINDOW_SAMPLES = 60

WORKLOADS = {
    "serve_flood": serve_flood,
    "serve_paced": serve_paced,
    "recognize_openworld": recognize_openworld,
    "remote_fanout": remote_fanout,
}


def run_workload(run: Run) -> None:
    try:
        WORKLOADS[run.workload](run)
    finally:
        shutil.rmtree(run.scratch(), ignore_errors=True)
    run.end_to_end["peak_rss_mb"] = peak_rss_mb()
