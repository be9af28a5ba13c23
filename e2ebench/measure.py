"""Statistics, failure accounting, provenance and the result line.

Everything here is pure bookkeeping over numbers the workloads
measured; it never touches the system under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: strictly beyond its nearest rank.
MIN_BEYOND = 10


class NotReportable(ValueError):
    """Too few samples lie beyond a requested percentile."""


def min_samples(q: float) -> int:
    """Smallest sample count at which percentile ``q`` is reportable."""
    n = MIN_BEYOND
    while n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`NotReportable` unless at least :data:`MIN_BEYOND`
    samples lie beyond the rank, so a tail figure always rests on a tail
    that was actually observed more than a handful of times.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    arr = np.sort(np.asarray(values, dtype=np.float64))
    n = len(arr)
    rank = max(math.ceil(q / 100.0 * n), 1)
    if n - rank < MIN_BEYOND:
        raise NotReportable(
            f"p{q:g} needs >= {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {max(n - rank, 0)}"
        )
    return float(arr[rank - 1])


def _window_rates(items: Sequence[float], durations: Sequence[float],
                  window: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int]]:
    """Items, durations and items per second of each window of
    ``window`` consecutive ops, plus the window edges.  A trailing
    partial window is folded into the last full one."""
    items = np.asarray(items, dtype=np.float64)
    durations = np.asarray(durations, dtype=np.float64)
    if items.shape != durations.shape or not len(items):
        raise ValueError("need one item count per op duration, and ops")
    n_windows = max(len(items) // window, 1)
    edges = [k * window for k in range(n_windows)] + [len(items)]
    rates = np.array([
        items[a:b].sum() / durations[a:b].sum()
        for a, b in zip(edges[:-1], edges[1:])
    ])
    return items, durations, rates, edges


def windowed_rate(items: Sequence[float], durations: Sequence[float],
                  window: int) -> float:
    """Median over consecutive windows of ``window`` ops of items per
    second of op time.  A burst of interference on the host slows a few
    windows and leaves the median alone."""
    return float(np.median(_window_rates(items, durations, window)[2]))


#: Share of a closed loop's windows that :func:`fastest_windows` keeps.
FAST_SHARE = 0.1


def fastest_windows(items: Sequence[float], durations: Sequence[float],
                    window: int, share: float = FAST_SHARE
                    ) -> Tuple[float, np.ndarray]:
    """Items per second over the fastest ``share`` of the windows of
    ``window`` consecutive ops, and the indices of the ops in them.

    On a shared host, neighbours slow the whole machine for stretches of
    one to fifteen seconds, by 1.4x to 2.6x depending on the code, so a
    median over a run lands in one of two modes.  Interference only ever
    slows a window, so the fastest windows of a run show the program's
    own speed, and a run that was half slowed reads like one that was
    not.
    """
    items, durations, rates, edges = _window_rates(items, durations, window)
    n_keep = max(int(round(share * len(rates))), 1)
    keep = np.sort(np.argsort(-rates, kind="stable")[:n_keep])
    ops = np.concatenate([np.arange(edges[w], edges[w + 1]) for w in keep])
    return float(items[ops].sum() / durations[ops].sum()), ops


def chunk_lags(t0: float, rate: float,
               writes: Iterable[Tuple[int, int, float]]) -> np.ndarray:
    """Lateness of every line of a paced stream.

    Line ``k`` is due at ``t0 + k / rate``; ``writes`` holds one
    ``(first_line, end_line, written_at)`` triple per write call, so
    every line of a write shares its ``written_at``.
    """
    out: List[np.ndarray] = []
    for first, end, written in writes:
        due = t0 + np.arange(first, end, dtype=np.float64) / rate
        out.append(written - due)
    return np.concatenate(out) if out else np.empty(0)


@dataclass
class Tally:
    """Attempted and failed operations of one run.

    An operation fails when it errored, was shed or evicted, came back
    degraded, or answered differently from the flat reference; an op
    failing several ways counts once.  Sheds of single samples have no
    op of their own and are added as counts.
    """

    workload: str
    seed: int
    attempted: int = 0
    failed_ops: Set[str] = field(default_factory=set)
    reasons: Dict[str, int] = field(default_factory=dict)
    counted: int = 0
    first_mismatch: Optional[str] = None

    def check(self, op: str, got, expected) -> bool:
        """Count one op; True when it matches the reference."""
        self.attempted += 1
        if got == expected:
            return True
        if self.first_mismatch is None:
            self.first_mismatch = op
        self.fail(op, "mismatch")
        return False

    def fail(self, op: str, reason: str) -> None:
        self.failed_ops.add(op)
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def add_counter(self, reason: str, n: int) -> None:
        """Failures observed only as counters (sheds, evictions)."""
        if n:
            self.counted += int(n)
            self.reasons[reason] = self.reasons.get(reason, 0) + int(n)

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.failed_ops) + self.counted)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def mismatches(self) -> int:
        return self.reasons.get("mismatch", 0)

    def mismatch_message(self) -> str:
        return (
            f"reference mismatch: workload={self.workload} "
            f"op={self.first_mismatch} seed={self.seed} "
            f"({self.mismatches} mismatching op(s))"
        )


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def files_sha256(root: str, relpaths: Iterable[str]) -> str:
    """One hash over the names and bytes of the given files."""
    digest = hashlib.sha256()
    for rel in sorted(relpaths):
        digest.update(rel.encode("utf-8") + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def source_files(root: str, top: str, suffixes=(".py",)) -> List[str]:
    """Relative paths of the source files under ``root/top``."""
    out = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")))
        for name in filenames:
            if name.endswith(suffixes):
                out.append(os.path.relpath(os.path.join(dirpath, name), root))
    return out


def _git(root: str, *args: str) -> Optional[bytes]:
    try:
        done = subprocess.run(
            ["git", "-C", root, *args], capture_output=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance(root: str) -> Dict[str, Optional[str]]:
    """The tree that was measured, not merely the commit it sits on.

    ``tree_sha256`` hashes the program and benchmark sources as they are
    on disk, so it identifies the measured code with or without git.
    Inside a git work tree, ``git_head`` plus the hash of the
    uncommitted diff against it say the same in git's terms.
    """
    files = source_files(root, "src") + source_files(
        root, "e2ebench", (".py", ".md")
    )
    info: Dict[str, Optional[str]] = {
        "tree_sha256": files_sha256(root, files),
        "git_head": None,
        "git_diff_sha256": None,
    }
    top = _git(root, "rev-parse", "--show-toplevel")
    if top is not None and os.path.realpath(top.decode().strip()) == (
        os.path.realpath(root)
    ):
        head = _git(root, "rev-parse", "HEAD")
        diff = _git(root, "diff", "HEAD")
        if head is not None:
            info["git_head"] = head.decode().strip()
        if diff is not None:
            info["git_diff_sha256"] = hashlib.sha256(diff).hexdigest()
    return info


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    """The one-line JSON result the benchmark ends its output with."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
