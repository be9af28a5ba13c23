"""Backend-agnostic parallel map."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from repro._util.errors import WorkerError

T = TypeVar("T")
R = TypeVar("R")

_BACKENDS = ("serial", "thread", "process")


def _default_workers() -> int:
    return max(os.cpu_count() or 1, 1)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    backend: str = "serial",
    n_workers: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, preserving order.

    ``backend``:

    - ``"serial"`` — plain loop (default: correct everywhere, zero
      overhead; experiment folds are usually fast enough).
    - ``"thread"`` — thread pool; effective when ``fn`` releases the GIL
      (NumPy-heavy work does).
    - ``"process"`` — process pool; requires ``fn`` and items to be
      picklable (module-level functions, plain data).

    Falls back to serial for 0/1 items or 1 worker — no pool overhead for
    degenerate cases.

    A worker exception is re-raised as :class:`WorkerError` naming the
    failing item's index, with the original exception chained, on every
    backend.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
    if n_workers is not None and n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    workers = n_workers if n_workers is not None else _default_workers()
    n = len(items)
    if backend == "serial" or workers == 1 or n <= 1:
        out: List[R] = []
        for i, item in enumerate(items):
            try:
                out.append(fn(item))
            except Exception as exc:
                raise WorkerError(i, n, exc) from exc
        return out
    executor = ThreadPoolExecutor if backend == "thread" else ProcessPoolExecutor
    results: List[R] = []
    with executor(max_workers=workers) as pool:
        # Executor.map re-raises a worker's exception when its position
        # in the result stream is reached, which is exactly the failing
        # item's index.
        stream = pool.map(fn, items)
        for i in range(n):
            try:
                results.append(next(stream))
            except Exception as exc:
                raise WorkerError(i, n, exc) from exc
    return results
