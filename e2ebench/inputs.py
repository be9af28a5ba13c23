"""Seeded inputs, the cached 1M-key store, and the flat reference.

The shared store is the paper's leave-apps-out protocol at production
size: the dictionary is learned from the training executions of 8 of
the 11 applications, then ~1M filler keys on the same metric and
interval are added in a value band (1e20 and up) that no execution's
interval mean can round into.  Traffic never matches a filler key, so
the flat paper-only dictionary stays the exact reference while the
index, filters and page cache see a production-sized working set.

The store does not depend on the workload seed: it is learned from a
fixed training draw, so one build serves every run.  Its cache key is
that fixed draw plus a hash of the code that writes it (``src/repro``
and this file); a change to either rebuilds the store rather than
measuring a stale layout.  The build runs in a child process so its
memory does not count in a run's peak RSS.

Everything a workload sends to the system (executions, NDJSON bytes,
probe keys, arrival times) is generated from the workload seed.

Run as ``python3 -m e2ebench.inputs DIR N_FILLER N_SHARDS`` to build one
store into ``DIR``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint, build_fingerprints
from repro.core.matcher import MatchResult, match_fingerprints
from repro.core.recognizer import EFDRecognizer
from repro.core.rounding import round_depth_array
from repro.core.streaming import StreamSession
from repro.data.dataset import ExecutionRecord
from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator
from repro.engine import ShardedDictionary, save_columnar
from repro.serve.stream import record_samples

from e2ebench.measure import files_sha256, source_files

METRIC = "nr_mapped_vmstat"
DEPTH = 3
INTERVAL = (60.0, 120.0)
N_SHARDS = 8
DURATION_CAP = 150.0
TRAIN_SEED = 2021
TRAIN_REPETITIONS = 6
#: Applications left out of the dictionary: their traffic is unknown.
LEFT_OUT_APPS = ("CoMD", "kripke", "miniAMR")
N_FILLER = 1_000_000
N_FILLER_LABELS = 40
STORE_LAYOUT = "mmap"

#: The cache of built stores, inside the checkout.
CACHE_DIR = os.path.join(".bench_build", "e2ebench")


def generate_records(seed: int, repetitions: int,
                     apps: Optional[Sequence[str]] = None
                     ) -> List[ExecutionRecord]:
    """Executions of every (app, input) pair, ``repetitions`` each."""
    config = DatasetConfig(
        metrics=(METRIC,), repetitions=repetitions, seed=seed,
        duration_cap=DURATION_CAP,
        apps=tuple(apps) if apps is not None else None,
    )
    return list(TaxonomistDatasetGenerator(config).generate())


def learned_apps() -> List[str]:
    from repro.workloads.registry import default_workloads

    return [a for a in default_workloads().names() if a not in LEFT_OUT_APPS]


def paper_dictionary() -> ExecutionFingerprintDictionary:
    """The flat paper-faithful dictionary: the exact reference."""
    training = generate_records(TRAIN_SEED, TRAIN_REPETITIONS, learned_apps())
    recognizer = EFDRecognizer(metric=METRIC, depth=DEPTH, interval=INTERVAL)
    return recognizer.fit(training).dictionary_


def filler_fingerprints(indices) -> List[Fingerprint]:
    """Filler keys by index: depth-rounded values from 1e20 up, spread
    over the nodes, pairwise distinct across indices."""
    n_nodes = 4
    index = np.asarray(indices, dtype=np.int64)
    slot = index // n_nodes
    mantissa = 100 + slot % 900
    exponent = 20 + slot // 900
    if exponent.size and exponent.max() > 300:
        raise ValueError(f"filler band holds at most {281 * 900 * n_nodes} keys")
    values = round_depth_array(
        mantissa.astype(np.float64) * 10.0 ** exponent.astype(np.float64),
        DEPTH,
    ).tolist()
    nodes = (index % n_nodes).tolist()
    return [
        Fingerprint(metric=METRIC, node=node, interval=INTERVAL, value=value)
        for node, value in zip(nodes, values)
    ]


def filler_label(i: int) -> str:
    return f"filler{i % N_FILLER_LABELS:02d}_X"


def build_sharded(n_filler: int, n_shards: int) -> ShardedDictionary:
    """Paper keys first (so label and app orders lead with them), then
    the filler band."""
    store = ShardedDictionary.from_flat(paper_dictionary(), n_shards)
    for i, fp in enumerate(filler_fingerprints(np.arange(n_filler))):
        store.add(fp, filler_label(i))
    return store


def build_store(directory: str, n_filler: int, n_shards: int) -> None:
    save_columnar(build_sharded(n_filler, n_shards), directory,
                  storage=STORE_LAYOUT)


def store_key(root: str, n_filler: int, n_shards: int) -> str:
    import hashlib

    code = files_sha256(
        root, source_files(root, os.path.join("src", "repro"))
        + [os.path.join("e2ebench", "inputs.py")],
    )
    params = (f"{code}|{n_filler}|{n_shards}|{TRAIN_SEED}|"
              f"{TRAIN_REPETITIONS}|{LEFT_OUT_APPS}|{STORE_LAYOUT}")
    return hashlib.sha256(params.encode()).hexdigest()[:20]


def child_env(root: str) -> dict:
    """Environment for a child Python that imports the benchmark and the
    program from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root, os.path.join(root, "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return env


def cached_store(root: str, n_filler: int = N_FILLER,
                 n_shards: int = N_SHARDS) -> str:
    """Directory of the store for these parameters, built on first use.

    Other cached stores of the same size and shard count are removed
    when a new one is built: they belong to older code.
    """
    cache = os.path.join(root, CACHE_DIR)
    tag = f"store-{n_filler}-{n_shards}-"
    final = os.path.join(cache, tag + store_key(root, n_filler, n_shards))
    if os.path.isfile(os.path.join(final, "manifest.json")):
        return final
    os.makedirs(cache, exist_ok=True)
    for name in os.listdir(cache):
        if name.startswith(tag):
            shutil.rmtree(os.path.join(cache, name), ignore_errors=True)
    tmp = f"{final}.tmp-{os.getpid()}"
    subprocess.run(
        [sys.executable, "-m", "e2ebench.inputs", tmp, str(n_filler),
         str(n_shards)],
        cwd=root, env=child_env(root), check=True,
    )
    os.replace(tmp, final)
    return final


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def offline_reference(flat: ExecutionFingerprintDictionary,
                      records: Sequence[ExecutionRecord]) -> List[MatchResult]:
    """What the paper's matcher says about each stored execution."""
    return [
        match_fingerprints(flat, build_fingerprints(r, METRIC, DEPTH, INTERVAL))
        for r in records
    ]


def live_reference(flat: ExecutionFingerprintDictionary,
                   record: ExecutionRecord
                   ) -> Tuple[MatchResult, List[Optional[Fingerprint]]]:
    """Verdict and fingerprints of one execution fed sample by sample,
    in stream order, into a core session over the flat dictionary:
    exactly the sums the service accumulates for a job of it."""
    session = StreamSession(flat, METRIC, DEPTH, INTERVAL, record.n_nodes)
    for sample in record_samples(record, METRIC, "ref"):
        session.ingest(sample.node, sample.time, sample.value)
    fingerprints = session.fingerprints()
    return session.verdict(), fingerprints


def pattern_repeats(patterns: Sequence[tuple]) -> float:
    """Share of items whose pattern already occurred earlier."""
    seen = set()
    repeats = 0
    for pattern in patterns:
        if pattern in seen:
            repeats += 1
        seen.add(pattern)
    return repeats / len(patterns) if patterns else 0.0


# ---------------------------------------------------------------------------
# NDJSON traffic
# ---------------------------------------------------------------------------

class EncodedRecord:
    """One execution as NDJSON line tails, ready to prefix with a job.

    ``ready`` is the index of the line that completes the job's
    readiness: after it every node's clock has reached the interval end.
    """

    __slots__ = ("tails", "ready")

    def __init__(self, record: ExecutionRecord):
        n_nodes = record.n_nodes
        tails: List[bytes] = []
        latest = [float("-inf")] * n_nodes
        n_past = 0
        ready = -1
        end = INTERVAL[1]
        for i, s in enumerate(record_samples(record, METRIC, "x")):
            value = "null" if s.value != s.value else repr(s.value)
            tails.append(
                f', "node": {s.node}, "t": {s.time!r}, "value": {value}, '
                f'"nodes": {n_nodes}}}\n'.encode()
            )
            if s.time > latest[s.node]:
                if latest[s.node] < end <= s.time:
                    n_past += 1
                latest[s.node] = s.time
            if ready < 0 and n_past == n_nodes:
                ready = i
        if ready < 0:
            raise ValueError(
                f"record {record.record_id} never becomes ready: its "
                f"series end before t={end}"
            )
        self.tails = tails
        self.ready = ready


def job_prefix(job: str) -> bytes:
    return b'{"job": "' + job.encode() + b'"'


def interleave(jobs: Sequence[str], encoded: Sequence[EncodedRecord]
               ) -> Tuple[List[bytes], List[int]]:
    """Round-robin lines of many jobs, one line each per turn (the shape
    of a monitoring bus carrying concurrent jobs), and the global index
    of each job's readiness line."""
    prefixes = [job_prefix(job) for job in jobs]
    lengths = [len(e.tails) for e in encoded]
    lines: List[bytes] = []
    ready_at = [0] * len(jobs)
    active = list(range(len(jobs)))
    i = 0
    while active:
        still = []
        for j in active:
            enc = encoded[j]
            if i == enc.ready:
                ready_at[j] = len(lines)
            lines.append(prefixes[j] + enc.tails[i])
            if i + 1 < lengths[j]:
                still.append(j)
        active = still
        i += 1
    return lines, ready_at


def staggered(jobs: Sequence[str], encoded: Sequence[EncodedRecord],
              arrivals: Sequence[float], speedup: float
              ) -> Tuple[List[bytes], List[int]]:
    """Lines of jobs starting at ``arrivals`` (seconds), each replaying
    its telemetry ``speedup`` times faster than real time, merged in
    time order; and each job's readiness line index."""
    prefixes = [job_prefix(job) for job in jobs]
    keys: List[float] = []
    owner: List[int] = []
    pos: List[int] = []
    for j, enc in enumerate(encoded):
        n = len(enc.tails)
        keys.extend(arrivals[j] + np.arange(n) * (1.0 / speedup))
        owner.extend([j] * n)
        pos.extend(range(n))
    order = np.argsort(np.asarray(keys), kind="stable").tolist()
    lines: List[bytes] = []
    ready_at = [0] * len(jobs)
    for k in order:
        j, i = owner[k], pos[k]
        if i == encoded[j].ready:
            ready_at[j] = len(lines)
        lines.append(prefixes[j] + encoded[j].tails[i])
    return lines, ready_at


# ---------------------------------------------------------------------------
# Remote probe traffic
# ---------------------------------------------------------------------------

def probe_batches(seed: int, stored: Sequence[Fingerprint], n_filler: int,
                  n_batches: int, batch: int, hit_frac: float
                  ) -> List[List[Fingerprint]]:
    """Batches of distinct full keys; ``hit_frac`` of each batch is drawn
    from ``stored``, the rest are filler-band keys nobody stored."""
    rng = np.random.default_rng(seed)
    n_hits = int(round(batch * hit_frac))
    out = []
    for _ in range(n_batches):
        hits = rng.choice(len(stored), size=n_hits, replace=False)
        misses = n_filler + rng.choice(
            4 * n_filler, size=batch - n_hits, replace=False
        )
        keys = [stored[i] for i in hits.tolist()]
        keys += filler_fingerprints(misses)
        order = rng.permutation(len(keys)).tolist()
        out.append([keys[i] for i in order])
    return out


if __name__ == "__main__":
    build_store(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
