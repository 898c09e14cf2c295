"""Deterministic process-pool fan-out for the experiment sweeps.

The rule that makes parallelism safe in this codebase is **seed-per-task**:
a task never draws randomness from shared RNG state, it derives its own
stream from ``derive_seed(root, *path)`` where the path names the task's
position in the sweep (row index, run index, ...).  Then the result of a
sweep is a pure function of the root seed and the task list — bit-identical
at any worker count, on any machine, under any scheduling, because the pool
only changes *where* tasks run, never *what* they compute.

:func:`parmap` is the one entry point: order-preserving, chunked, and
serial (no pool, no pickling) when one worker is resolved — so the default
behavior of every caller is exactly the old sequential code path.

Worker-count resolution (:func:`resolve_workers`): an explicit argument
wins, then the ``REPRO_WORKERS`` environment variable, then 1.  The CLI
``--workers`` flags feed the explicit argument.

Caveats worth knowing:

* task functions must be module-level (picklable) and tasks/results must
  pickle; keep them plain tuples and dataclasses;
* :mod:`repro.obs` counters are process-local — a worker's counts die with
  it unless the task folds them into its return value.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

from repro.trace import core as trace

T = TypeVar("T")
R = TypeVar("R")

_ENV_VAR = "REPRO_WORKERS"


class _TracedShard:
    """Picklable wrapper adding a ``parmap.shard`` span around one task.

    Used only when tracing is active: workers inherit ``REPRO_TRACE_DIR``
    through the environment, so a pool worker's shard spans land in its own
    per-process trace file, flushed after every task because worker
    processes never run atexit hooks (obs counters stay process-local, and
    so do trace rings — the same contract).
    """

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, indexed):
        index, task = indexed
        with trace.span("parmap.shard", index=index):
            result = self.fn(task)
        # Pool workers exit through os._exit, which skips atexit hooks —
        # flush after every task so an env-activated worker tracer actually
        # reaches its per-process file (atomic full rewrite, so repeating
        # it per task just keeps the file current).
        tracer = trace.active_tracer()
        if tracer is not None and tracer.sink_dir is not None:
            tracer.flush()
        return result


def resolve_workers(workers: int | None = None) -> int:
    """The effective worker count: explicit arg > ``REPRO_WORKERS`` env > 1.

    Values below 1 are clamped to 1; a malformed environment value raises
    (better loud than silently serial).
    """
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(_ENV_VAR)
    if env is None or not env.strip():
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(
            f"{_ENV_VAR} must be an integer, got {env!r}"
        ) from None


def parmap(
    fn: Callable[[T], R],
    tasks: Iterable[T],
    workers: int | None = None,
    chunksize: int | None = None,
) -> list[R]:
    """``[fn(t) for t in tasks]``, fanned out over a process pool.

    Order-preserving: result ``i`` always corresponds to task ``i``.  With
    one resolved worker (the default) this *is* the list comprehension — no
    pool, no pickling, no subprocess, so tests and small runs pay nothing.

    Determinism contract: ``fn`` must derive any randomness it needs from
    the task value itself (see the module docstring); under that contract
    the output is bit-identical for every ``workers`` setting.

    ``chunksize`` tunes pickling overhead against tail latency: the
    default (~4 chunks per worker) suits many cheap uniform tasks, but
    heavy uneven tasks — exact D(f) searches, truth-matrix blocks —
    should pass ``chunksize=1`` so one slow task never strands a queue of
    finished work behind it.
    """
    task_list: Sequence[T] = list(tasks)
    n_workers = resolve_workers(workers)
    tracing = trace.active_tracer() is not None
    if n_workers == 1 or len(task_list) <= 1:
        if not tracing:
            return [fn(t) for t in task_list]
        with trace.span("parmap", tasks=len(task_list), workers=1):
            out: list[R] = []
            for index, task in enumerate(task_list):
                with trace.span("parmap.shard", index=index):
                    out.append(fn(task))
            return out
    # Import here so serial users never pay for the machinery.
    from concurrent.futures import ProcessPoolExecutor

    n_workers = min(n_workers, len(task_list))
    if chunksize is None:
        # Aim for ~4 chunks per worker: amortizes pickling without leaving
        # stragglers at the tail of uneven task costs.
        chunksize = max(1, len(task_list) // (4 * n_workers))
    with trace.span("parmap", tasks=len(task_list), workers=n_workers):
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            if tracing:
                # Shard spans record in each worker's own tracer (activated
                # by the inherited REPRO_TRACE_DIR, if any); the wrapper
                # changes nothing about what fn computes.
                shard = _TracedShard(fn)
                return list(
                    pool.map(
                        shard, list(enumerate(task_list)), chunksize=chunksize
                    )
                )
            return list(pool.map(fn, task_list, chunksize=chunksize))
