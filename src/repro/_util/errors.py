"""Exception types shared by subpackages that do not import each other:
:func:`repro.parallel.pool.parallel_map` raises :class:`WorkerError`, and
:class:`repro.serve.SessionWorkerError` subclasses it."""

from __future__ import annotations


class WorkerError(RuntimeError):
    """A unit of work among N raised.

    Carries which item failed (``index``) and the original exception
    (``original``, also chained as ``__cause__``) — with pooled workers
    the bare exception otherwise surfaces with no hint of which of the
    N items caused it.
    """

    def __init__(self, index: int, n_items: int, original: BaseException):
        self.index = index
        self.original = original
        super().__init__(
            f"worker failed on item {index} of {n_items}: "
            f"{type(original).__name__}: {original}"
        )
