"""Shared helpers of the benchmark: statistics, outcomes, process facts.

Nothing here imports ``repro``: the benchmark's own arithmetic must not move
when the program under test changes.
"""

from __future__ import annotations

import math
import os
import resource
import statistics

#: Environment variables that would let one run warm, redirect or resize
#: the next; every pass starts in a fresh interpreter without them.
CLEARED_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_TRACE_DIR",
    "REPRO_WORKERS",
    "REPRO_SEARCH_CACHE_LIMIT",
)

#: Error codes a served request can end with that mean the service failed
#: to answer it (shed, expired or crashed).  Every other error code is a
#: verdict about the request itself and is checked against the gold answer.
FAILURE_CODES = frozenset(
    {"overloaded", "client_limit", "deadline_exceeded", "internal",
     "shutting_down"}
)


def percentile(values, q: float) -> float:
    """The nearest-rank ``q``-th percentile of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def percentile_or_zero(values, q: float) -> float:
    """:func:`percentile`, or 0.0 for a layer that recorded nothing."""
    return percentile(values, q) if values else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0


def classify(verdict, gold) -> str:
    """One request's outcome against its gold verdict.

    ``verdict`` is ``("ok", result)``, ``("error", code)`` or None (lost);
    ``gold`` is the clean in-process answer, or None for a method with no
    deterministic answer (``cache.stats``, where only ``ok`` counts).
    Returns ``"ok"`` (a correct answer, including a bait error whose code
    matches its gold), ``"failed"`` (lost, shed, expired or internal) or
    ``"wrong"`` (an answer that differs from the gold — silent corruption).
    """
    if verdict is None:
        return "failed"
    if verdict[0] == "error" and verdict[1] in FAILURE_CODES:
        return "failed"
    if gold is None:
        return "ok" if verdict[0] == "ok" else "wrong"
    return "ok" if verdict == gold else "wrong"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child.

    ``ru_maxrss`` is in KiB on Linux.  Pool workers are children of the
    pass process, so a pool shows up through ``RUSAGE_CHILDREN`` once it
    has been joined.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds() -> float:
    """CPU time of this process and its joined children, in seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + children.ru_utime
            + children.ru_stime)


def clean_env(src_dir: str) -> dict:
    """The environment of a pass: no ``REPRO_*`` state, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = src_dir
    env["PYTHONHASHSEED"] = "0"
    return env
