"""Per-layer spans recorded around the system's public calls.

The tracer wraps methods and functions *on their classes and modules*
for the duration of a traced phase and restores them afterwards.  It
never wraps an object, so every ``isinstance`` dispatch in the program
takes the same branch traced as untraced.

Each thread keeps a stack of open spans.  A span's exclusive time is
its duration minus the time of the spans it called, so the exclusive
times of all spans plus the unattributed remainder sum to the traced
wall time.  A coroutine is timed step by step: only the slices in which
it actually runs count as its busy time, and the time it spends
suspended (for example blocked on a full queue) is kept apart as wait.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Cost of the tracer's own counting, kept out of the spans it serves.
BOOKKEEPING = "trace.bookkeeping"

ItemCounter = Callable[[tuple, object], Tuple[int, int]]


class SpanStat:
    """Totals of one span name."""

    __slots__ = ("calls", "incl_ns", "excl_ns", "wait_ns", "items", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_ns = 0   # outermost calls only, so recursion counts once
        self.excl_ns = 0
        self.wait_ns = 0   # coroutines: suspended time inside the await
        self.items = 0
        self.hits = 0

    def merge(self, other: "SpanStat") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class _ThreadState:
    __slots__ = ("stack", "active", "stats")

    def __init__(self) -> None:
        self.stack: List[int] = []          # child time of each open span
        self.active: Dict[str, int] = {}    # open depth per span name
        self.stats: Dict[str, SpanStat] = {}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _open(self, state: _ThreadState, name: str) -> int:
        state.stack.append(0)
        depth = state.active.get(name, 0)
        state.active[name] = depth + 1
        return depth

    def _close(self, state: _ThreadState, name: str, depth: int,
               elapsed: int) -> SpanStat:
        child = state.stack.pop()
        state.active[name] = depth
        stat = state.stats.get(name)
        if stat is None:
            stat = state.stats[name] = SpanStat()
        stat.excl_ns += elapsed - child
        if depth == 0:
            stat.incl_ns += elapsed
        if state.stack:
            state.stack[-1] += elapsed
        return stat

    def _count(self, state: _ThreadState, stat: SpanStat, depth: int,
               counter: Optional[ItemCounter], args: tuple, result) -> None:
        if counter is None or depth:
            return
        t0 = perf_counter_ns()
        items, hits = counter(args, result)
        stat.items += items
        stat.hits += hits
        cost = perf_counter_ns() - t0
        book = state.stats.get(BOOKKEEPING)
        if book is None:
            book = state.stats[BOOKKEEPING] = SpanStat()
        book.calls += 1
        book.excl_ns += cost
        book.incl_ns += cost
        if state.stack:
            state.stack[-1] += cost

    def timed(self, name: str, fn, counter: Optional[ItemCounter] = None):
        """``fn`` wrapped in a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            depth = tracer._open(state, name)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = tracer._close(state, name, depth, perf_counter_ns() - t0)
                stat.calls += 1
            tracer._count(state, stat, depth, counter, args, result)
            return result

        return wrapper

    def timed_async(self, name: str, fn,
                    counter: Optional[ItemCounter] = None):
        """Coroutine function ``fn`` wrapped in a step-timed span."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            return await _StepTimed(tracer, name, fn(*args, **kwargs),
                                    counter, args)

        return wrapper

    # -- patching -------------------------------------------------------------
    def patch(self, owner, attr: str, name: str,
              counter: Optional[ItemCounter] = None,
              is_async: bool = False) -> None:
        """Replace ``owner.attr`` by its traced version until unpatched."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        wrap = self.timed_async if is_async else self.timed
        setattr(owner, attr, wrap(name, original, counter))
        self._patches.append((owner, attr, original, own))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unpatch()

    # -- results --------------------------------------------------------------
    def totals(self) -> Dict[str, SpanStat]:
        """Span totals merged over every thread that recorded."""
        out: Dict[str, SpanStat] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, stat in state.stats.items():
                out.setdefault(name, SpanStat()).merge(stat)
        return out


class _StepTimed:
    """Awaitable driving one coroutine and timing each of its steps."""

    __slots__ = ("_tracer", "_name", "_coro", "_counter", "_args")

    def __init__(self, tracer: Tracer, name: str, coro,
                 counter: Optional[ItemCounter], args: tuple):
        self._tracer = tracer
        self._name = name
        self._coro = coro
        self._counter = counter
        self._args = args

    def __await__(self):
        tracer, name, coro = self._tracer, self._name, self._coro
        started = perf_counter_ns()
        busy = 0
        to_send, to_throw = None, None
        stat = None
        try:
            while True:
                state = tracer._state()
                depth = tracer._open(state, name)
                t0 = perf_counter_ns()
                try:
                    if to_throw is None:
                        yielded = coro.send(to_send)
                    else:
                        exc, to_throw = to_throw, None
                        yielded = coro.throw(exc)
                except StopIteration as stop:
                    result = stop.value
                    elapsed = perf_counter_ns() - t0
                    busy += elapsed
                    stat = tracer._close(state, name, depth, elapsed)
                    tracer._count(state, stat, depth, self._counter,
                                  self._args, result)
                    return result
                except BaseException:
                    elapsed = perf_counter_ns() - t0
                    busy += elapsed
                    stat = tracer._close(state, name, depth, elapsed)
                    raise
                elapsed = perf_counter_ns() - t0
                busy += elapsed
                stat = tracer._close(state, name, depth, elapsed)
                try:
                    to_send = yield yielded
                except BaseException as exc:  # re-raised inside the coroutine
                    to_send, to_throw = None, exc
        finally:
            if stat is not None:
                stat.calls += 1
                stat.wait_ns += perf_counter_ns() - started - busy


def waterfall(totals: Dict[str, SpanStat], wall_s: float
              ) -> Tuple[List[Tuple[str, int, float, float]], float]:
    """Rows ``(name, calls, inclusive_s, exclusive_s)`` by exclusive
    time, and the unattributed remainder: ``wall_s`` minus every span's
    exclusive time.  Rows plus remainder sum to ``wall_s`` exactly."""
    rows = sorted(
        ((name, s.calls, s.incl_ns / 1e9, s.excl_ns / 1e9)
         for name, s in totals.items()),
        key=lambda row: -row[3],
    )
    return rows, wall_s - sum(row[3] for row in rows)


def render_waterfall(title: str, totals: Dict[str, SpanStat],
                     wall_s: float) -> str:
    rows, rest = waterfall(totals, wall_s)
    share = (lambda s: 100.0 * s / wall_s) if wall_s > 0 else (lambda s: 0.0)
    lines = [
        f"waterfall: {title} (traced wall {wall_s:.3f} s)",
        f"  {'span':28s} {'calls':>9s} {'incl s':>9s} {'self s':>9s} "
        f"{'% wall':>7s}",
    ]
    for name, calls, incl, excl in rows:
        lines.append(
            f"  {name:28s} {calls:9d} {incl:9.3f} {excl:9.3f} "
            f"{share(excl):6.1f}%"
        )
    lines.append(
        f"  {'(unattributed)':28s} {'':9s} {'':9s} {rest:9.3f} "
        f"{share(rest):6.1f}%"
    )
    lines.append(
        f"  {'= traced wall':28s} {'':9s} {'':9s} "
        f"{sum(r[3] for r in rows) + rest:9.3f} {share(wall_s):6.1f}%"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The layer map: which public call is timed under which span name
# ---------------------------------------------------------------------------

def _n_arg(args: tuple, result) -> Tuple[int, int]:
    return len(args[1]), 0


def _probe_hits(args: tuple, result) -> Tuple[int, int]:
    """Usable probes of a ``resolve_probes`` call, and how many hit."""
    nodes = np.asarray(args[1]).tolist()
    values = np.asarray(args[2], dtype=np.float64).tolist()
    usable = hits = 0
    for node, value in zip(nodes, values):
        if value == value:
            usable += 1
            if (node, value) in result:
                hits += 1
    return usable, hits


def install_layers(tracer: Tracer) -> Tracer:
    """Wrap the public call of every layer the workloads drive."""
    import repro.core.streaming as streaming_mod
    import repro.engine.batch as batch_mod
    from repro.core.streaming import StreamSession
    from repro.engine.batch import BatchRecognizer
    from repro.engine.columnar import ColumnarBatchIndex, ColumnarDictionary
    from repro.engine.remote import RemoteShardBackend
    from repro.serve.service import IngestService

    tracer.patch(IngestService, "submit_many", "service.submit",
                 _n_arg, is_async=True)
    tracer.patch(StreamSession, "ingest", "streaming.ingest")
    tracer.patch(StreamSession, "ingest_many", "streaming.ingest")
    tracer.patch(StreamSession, "fingerprints", "streaming.fingerprints")
    tracer.patch(streaming_mod, "round_depth", "rounding.round")
    tracer.patch(batch_mod, "round_depth_array", "rounding.round")
    tracer.patch(BatchRecognizer, "recognize_sessions",
                 "batch.recognize_sessions", _n_arg)
    tracer.patch(BatchRecognizer, "recognize_records",
                 "batch.recognize_records", _n_arg)
    tracer.patch(ColumnarDictionary, "lookup_many", "columnar.lookup_many",
                 _n_arg)
    tracer.patch(ColumnarDictionary, "add_many", "deltalog.learn")
    tracer.patch(RemoteShardBackend, "lookup_many", "remote.lookup_many",
                 _n_arg)
    # The filter-guarded and patched indexes override resolve_probes;
    # each override is timed under the one layer name.
    pending = [ColumnarBatchIndex]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "resolve_probes" in vars(cls):
            tracer.patch(cls, "resolve_probes", "columnar.resolve_probes",
                         _probe_hits)
    return tracer
