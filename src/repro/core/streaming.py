"""Online (streaming) recognition.

MODA pipelines receive telemetry sample by sample; waiting for a post-hoc
pass over stored series would forfeit the EFD's low-latency advantage.
:class:`StreamingRecognizer` consumes per-node samples as they arrive,
maintains O(1) running interval sums, and emits a verdict the moment the
fingerprint interval [60 s, 120 s] has passed on every node — i.e. two
minutes into the job, while it is still running.

>>> session = streaming.open_session(n_nodes=4)      # doctest: +SKIP
>>> for t, node, value in live_feed:                 # doctest: +SKIP
...     session.ingest(node, t, value)
...     if session.ready:
...         print(session.verdict().prediction)
...         break
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import DEFAULT_INTERVAL, Fingerprint
from repro.core.matcher import MatchResult, match_fingerprints
from repro.core.rounding import round_depth


class StreamSession:
    """Running interval means for one job's nodes.

    Memory is O(nodes): only a sum, a count, and a high-water timestamp
    per node — never the raw series.  The life cycle is strictly
    ``ingest* -> ready -> verdict``:

    >>> session.ingest(node=0, timestamp=61.0, value=182000.0)  # doctest: +SKIP
    >>> session.ready                                           # doctest: +SKIP
    False

    Sessions are single-use: after :meth:`verdict` concludes one,
    further :meth:`ingest` calls raise.

    Parameters
    ----------
    dictionary:
        The learned EFD to match against — flat or
        :class:`~repro.engine.sharded.ShardedDictionary` (both expose
        the same lookup contract).
    metric / depth / interval:
        Fingerprint configuration: which telemetry metric is streamed,
        the rounding depth the dictionary was built with, and the
        ``[start, end)`` window in seconds since job start.
    n_nodes:
        Node count of the job; every node must pass the interval end
        before the session is :attr:`ready`.
    unknown_label:
        Returned by :meth:`prediction` when the verdict is empty.
    session_id:
        Optional caller-side identity (e.g. a scheduler job id).  Purely
        informational: it tags ``repr()`` and lets services such as
        :class:`repro.serve.IngestService` key error reports, but never
        affects matching.
    """

    def __init__(
        self,
        dictionary: ExecutionFingerprintDictionary,
        metric: str,
        depth: int,
        interval: Tuple[float, float],
        n_nodes: int,
        unknown_label: str = "unknown",
        session_id: Optional[str] = None,
    ):
        try:
            n_nodes = operator.index(n_nodes)
        except TypeError:
            raise ValueError(
                f"n_nodes must be an integer, got {n_nodes!r}"
            ) from None
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        start, end = interval
        if end <= start:
            raise ValueError(f"interval end must exceed start, got {interval}")
        self.dictionary = dictionary
        self.metric = metric
        self.depth = int(depth)
        self.interval = (float(start), float(end))
        self.n_nodes = n_nodes
        self.unknown_label = unknown_label
        self.session_id = session_id
        self.n_samples = 0
        # Plain lists, not numpy: the live path touches one scalar per
        # sample, and list indexing is several times cheaper than numpy
        # element access at that granularity.
        self._sums = [0.0] * self.n_nodes
        self._counts = [0] * self.n_nodes
        self._latest = [float("-inf")] * self.n_nodes
        self._n_past_end = 0  # nodes whose clock crossed the interval end
        self._verdict: Optional[MatchResult] = None

    # -- feeding ------------------------------------------------------------
    def ingest(self, node: int, timestamp: float, value: float) -> None:
        """Consume one sample (seconds since job start, metric value).

        O(1): updates the node's running sum/count when the timestamp
        falls inside the fingerprint interval; samples outside it only
        advance the node's clock (which is what eventually flips
        :attr:`ready`).  NaN values (sampler dropout) advance the clock
        but never the sum.  Raises :class:`ValueError` for a node rank
        outside ``[0, n_nodes)`` and :class:`RuntimeError` once the
        session has concluded.
        """
        if node < 0 or node >= self.n_nodes:
            raise ValueError(f"node {node} outside [0, {self.n_nodes})")
        if self._verdict is not None:
            raise RuntimeError("session already concluded; open a new one")
        start, end = self.interval
        latest = self._latest
        if timestamp > latest[node]:
            if latest[node] < end <= timestamp:
                self._n_past_end += 1
            latest[node] = timestamp
        self.n_samples += 1
        if value != value:  # NaN — dropped sample
            return
        if start <= timestamp < end:
            self._sums[node] += value
            self._counts[node] += 1

    def ingest_many(self, node: int, timestamps, values) -> None:
        """Vectorized :meth:`ingest` of one node's sample batch.

        Equivalent to calling :meth:`ingest` per ``(timestamp, value)``
        pair, bitwise, in one NumPy pass — the fast path when replaying
        stored series into a session.  The in-interval values are folded
        left to right onto the running sum (``np.add.accumulate``), the
        same additions in the same order as the per-sample path; a
        pairwise ``sum`` would round differently.
        """
        timestamps = np.asarray(timestamps, dtype=float)
        values = np.asarray(values, dtype=float)
        if timestamps.shape != values.shape:
            raise ValueError("timestamps and values must align")
        if node < 0 or node >= self.n_nodes:
            raise ValueError(f"node {node} outside [0, {self.n_nodes})")
        if self._verdict is not None:
            raise RuntimeError("session already concluded; open a new one")
        start, end = self.interval
        if timestamps.size:
            # fmax skips NaN timestamps, as the per-sample compare does.
            top = float(np.fmax.reduce(timestamps, axis=None))
            if top > self._latest[node]:
                if self._latest[node] < end <= top:
                    self._n_past_end += 1
                self._latest[node] = top
        self.n_samples += int(timestamps.size)
        mask = (timestamps >= start) & (timestamps < end) & ~np.isnan(values)
        folded = values[mask]
        if folded.size:
            running = np.concatenate(([self._sums[node]], folded))
            self._sums[node] = float(np.add.accumulate(running)[-1])
            self._counts[node] += int(folded.size)

    def restore(self, sums: Sequence[float], counts: Sequence[int],
                crossed: Sequence[bool], n_samples: int) -> None:
        """Overwrite the running state with one folded elsewhere.

        Per node: the interval sum, the in-interval sample count and
        whether the node's clock has passed the interval end — the only
        thing :meth:`ingest` reads the clock for, so later samples fold
        exactly as they would have.  A service that folds many sessions
        at once (:class:`repro.serve.slab.SessionSlab`) hands each
        session its state this way.
        """
        end = self.interval[1]
        self._sums = list(sums)
        self._counts = list(counts)
        self._latest = [end if c else float("-inf") for c in crossed]
        self._n_past_end = sum(crossed)
        self.n_samples = n_samples

    # -- state ----------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """True when every node's clock has passed the interval end.

        Readiness is monotone (clocks only advance) and is what gates
        :meth:`verdict`; services poll it after each accepted sample —
        which is why it is an O(1) counter compare, not a scan.
        """
        return self._n_past_end == self.n_nodes

    @property
    def concluded(self) -> bool:
        """True once :meth:`verdict` has decided this session."""
        return self._verdict is not None

    def progress(self) -> float:
        """Fraction of nodes whose interval window has fully elapsed."""
        return self._n_past_end / self.n_nodes

    def fingerprints(self) -> List[Optional[Fingerprint]]:
        """Current fingerprints (None for nodes with zero valid samples)."""
        out: List[Optional[Fingerprint]] = []
        for node in range(self.n_nodes):
            if self._counts[node] == 0:
                out.append(None)
                continue
            mean = self._sums[node] / self._counts[node]
            out.append(
                Fingerprint(
                    metric=self.metric,
                    node=node,
                    interval=self.interval,
                    value=round_depth(mean, self.depth),
                )
            )
        return out

    # -- verdict -----------------------------------------------------------------
    def verdict(self, force: bool = False) -> MatchResult:
        """Match the accumulated fingerprints; concludes the session.

        Raises :class:`RuntimeError` unless the interval has elapsed on
        all nodes (:attr:`ready`) — pass ``force=True`` to decide early
        (e.g. the job ended, or a service is evicting the session).  The
        first verdict is cached and returned by every later call;
        batch resolvers
        (:meth:`~repro.engine.batch.BatchRecognizer.recognize_sessions`)
        compute the same result without concluding the session.
        """
        if self._verdict is not None:
            return self._verdict
        if not self.ready and not force:
            raise RuntimeError(
                f"interval {self.interval} not yet complete on all nodes "
                f"({self.progress():.0%}); pass force=True to decide early"
            )
        self._verdict = match_fingerprints(self.dictionary, self.fingerprints())
        return self._verdict

    def prediction(self, force: bool = False) -> str:
        """Application name of the verdict (``unknown_label`` if empty)."""
        result = self.verdict(force=force)
        return result.prediction if result.prediction else self.unknown_label

    def __repr__(self) -> str:
        ident = f"id={self.session_id!r}, " if self.session_id else ""
        return (
            f"StreamSession({ident}nodes={self.n_nodes}, "
            f"metric={self.metric!r}, progress={self.progress():.0%}, "
            f"concluded={self.concluded})"
        )


class StreamingRecognizer:
    """Factory for :class:`StreamSession` bound to one learned EFD.

    Holds the fingerprint configuration once so call sites opening
    thousands of sessions (one per arriving job) only say how many nodes
    the job has::

        streaming = StreamingRecognizer.from_recognizer(recognizer)
        session = streaming.open_session(n_nodes=8, session_id="j-1042")
    """

    def __init__(
        self,
        dictionary: ExecutionFingerprintDictionary,
        metric: str = "nr_mapped_vmstat",
        depth: int = 3,
        interval: Tuple[float, float] = DEFAULT_INTERVAL,
        unknown_label: str = "unknown",
    ):
        if len(dictionary) == 0:
            raise ValueError("cannot stream against an empty dictionary")
        self.dictionary = dictionary
        self.metric = metric
        self.depth = depth
        self.interval = interval
        self.unknown_label = unknown_label

    @classmethod
    def from_recognizer(cls, recognizer) -> "StreamingRecognizer":
        """Bind to a fitted :class:`~repro.core.recognizer.EFDRecognizer`."""
        recognizer._check_fitted()
        return cls(
            dictionary=recognizer.dictionary_,
            metric=recognizer.metric,
            depth=recognizer.depth_,
            interval=recognizer.interval,
            unknown_label=recognizer.unknown_label,
        )

    def open_session(
        self, n_nodes: int = 4, session_id: Optional[str] = None
    ) -> StreamSession:
        """Open a fresh session for one ``n_nodes``-node job."""
        return StreamSession(
            dictionary=self.dictionary,
            metric=self.metric,
            depth=self.depth,
            interval=self.interval,
            n_nodes=n_nodes,
            unknown_label=self.unknown_label,
            session_id=session_id,
        )
