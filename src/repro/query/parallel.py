"""One fan-out for per-block work: an ordered map over a thread pool.

Corra answers a query block by block, and every block is self-contained,
so parallel execution only means spreading independent blocks over
threads.  Every fan-out in the library has one shape —
:func:`parallel_map(fn, items, pool) <parallel_map>` — where ``pool`` is
the one ``ThreadPoolExecutor`` an :class:`~repro.query.engine.Engine`
owns (or, for :class:`~repro.core.plan.TableCompressor`, a pool that lives
for one ``compress`` call).  With no pool the map runs inline.

Load balancing needs nothing extra: the executor keeps one shared FIFO
queue, and every idle worker takes the next block from it, so a slow block
never holds the rest of the query behind one worker.  Results come back in
input order, so row ids stay sorted and bit-identical to serial execution.
When a block raises, the map re-raises that error and cancels every block
not yet started.  Threads (not processes) are the right vehicle because
the per-block kernels are NumPy code that releases the GIL.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor
from typing import Callable, Sequence, TypeVar

from ..errors import ValidationError
from .tracing import current_tracer, run_adopted

__all__ = ["parallel_map", "resolve_workers"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request (``None``/``0`` = all cores)."""
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ValidationError("worker count must be positive (or 0 for auto)")
    return int(workers)


def parallel_map(
    fn: Callable[[T], R], items: Sequence[T], pool: Executor | None = None
) -> list[R]:
    """``[fn(item) for item in items]``, fanned over ``pool`` when given.

    Output order matches input order regardless of completion order.  With
    no pool (or at most one item) the map runs inline, avoiding dispatch
    cost and keeping tracebacks trivial.  Pool threads join the caller's
    active trace, so their spans nest under the span that launched the
    fan-out.  The first failing item's error is re-raised, and items whose
    work has not started by then are cancelled.
    """
    if pool is None or len(items) <= 1:
        return [fn(item) for item in items]
    return list(pool.map(_adopting(fn), items))


def _adopting(fn: Callable[[T], R]) -> Callable[[T], R]:
    """Wrap a worker body so pool threads join the caller's active trace.

    The ambient tracer and the caller's innermost open span are captured
    *on the calling thread*; each worker invocation then runs inside
    :meth:`~repro.query.tracing.Tracer.adopt`, so spans the worker opens
    nest under the span that launched the fan-out.  When tracing is off
    the body is returned untouched — the disabled path adds nothing.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return fn
    parent = tracer.current()
    return lambda item: run_adopted(tracer, parent, fn, item)
