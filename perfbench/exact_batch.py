"""Workload ``exact_batch``: the exact kernels on a fixed seeded batch.

Three phases, all at ``workers=1``, repeated in cycles:

1. a ``modnp`` build of the Section 3 truth matrix of a pinned
   ``RestrictedFamily(5, 3)`` instance, rows and columns drawn from the
   seed;
2. cold D(f) + d^P(f) queries over a batch of 7x7-9x9 matrices into a
   throwaway ``repro.cache.directory`` (searches and cache writes);
3. the same queries again, with ``clear_search_cache()`` before each
   pass, so every answer is a cache read.

The search cost of one matrix ranges over orders of magnitude (exact
communication complexity is NP-hard), and permuting a matrix's rows and
columns moves it too, so the batch is a pinned pool of matrices and the
seed only picks, per cycle and member, whether it is transposed: the
search does exactly the same work on a matrix and its transpose (same
``exhaustive.subproblems`` and ``.pruned`` counts), so every seed gets
fresh inputs and fresh cache keys with the same search work, and every
cycle repeats the whole run's cold work.
"""

from __future__ import annotations

import os
import random
import tempfile
import time

from common import percentile, percentile_or_zero, share

FAMILY = (5, 3)

#: Truth-matrix instance: rows, completed columns (from the first rows)
#: and uniform random columns; about 20x the 40x212 matrix of the
#: sharded-truth bench section.
TRUTH_ROWS = 80
TRUTH_COMPLETED = 40
TRUTH_RANDOM = 2080

#: The fraction-engine cross-check block (rows x columns).
CHECK_BLOCK = (8, 48)

POOL_SEED = 1989
#: ``(size, index)`` draws of :func:`pool_matrix` forming the query batch,
#: about 2 s of cold search per round on a 2-core Xeon.
QUERY_POOL = (
    tuple((7, i) for i in (0, 1, 4, 5, 7, 10, 12, 13, 16, 17))
    + tuple((8, i) for i in (0, 2, 22))
    + tuple((9, i) for i in (13, 14))
)

#: Cycles every ``--trace 0`` run makes at least.  A shared 2-core host's
#: speed moves by up to 1.7x for tens of seconds at a time, which a median
#: over a run does not hide, so a cold query's latency is its member's
#: fastest repeat over the run's cycles (all of them alike work).
MEASURE_CYCLES = 3

#: Warm passes over the batch per cycle.
WARM_PASSES = 20

#: Cycles of each ``--trace 1`` pass (the same fixed work traced and not).
LAYER_CYCLES = 2


def pool_matrix(size: int, index: int) -> list[list[int]]:
    rng = random.Random(f"{POOL_SEED}:exact:{size}:{index}")
    return [[rng.randrange(2) for _ in range(size)] for _ in range(size)]


def seeded_batch(seed: int, cycle: int):
    """The pool, each member transposed or not as the seed draws."""
    import numpy as np

    from repro.comm.truth_matrix import TruthMatrix

    rng = random.Random(f"{seed}:exact:cycle{cycle}")
    batch = []
    for size, index in QUERY_POOL:
        data = np.array(pool_matrix(size, index), dtype=np.uint8)
        if rng.randrange(2):
            data = np.ascontiguousarray(data.T)
        batch.append(TruthMatrix(data, tuple(range(size)), tuple(range(size))))
    return batch


def truth_inputs(seed: int, build: int, n_rows: int = TRUTH_ROWS,
                 n_completed: int = TRUTH_COMPLETED,
                 n_random: int = TRUTH_RANDOM):
    """Seeded rows and columns of one truth-matrix build.

    C, D, E and y blocks are drawn here from the family's documented
    shapes; only the completed columns use the program's Lemma 3.5
    construction, which is what puts ones into the matrix.
    """
    from repro.singularity.family import RestrictedFamily
    from repro.singularity.lemma35 import complete

    family = RestrictedFamily(*FAMILY)
    rng = random.Random(f"{seed}:truth:{build}")
    h, q = family.h, family.q

    def block(rows, cols):
        return tuple(tuple(rng.randrange(q) for _ in range(cols))
                     for _ in range(rows))

    rows, seen = [], set()
    while len(rows) < n_rows:
        c = block(h, h)
        if c not in seen:
            seen.add(c)
            rows.append(c)
    columns = []
    for c in rows[:n_completed]:
        e = block(h, family.e_width)
        completion = complete(family, c, e)
        columns.append((completion.d, e, completion.y))
    for _ in range(n_random):
        columns.append((
            block(h, family.d_width),
            block(h, family.e_width),
            tuple(rng.randrange(q) for _ in range(family.n - 1)),
        ))
    return family, rows, columns


def setup(scratch: str) -> None:
    """Import the kernels and make one tiny call of each, as the other
    workloads' set-ups answer one request of each method: a 2 x 4 truth
    build, and a 2 x 2 D(f)+d^P query written to a fresh store and read
    back."""
    import numpy as np

    from repro import cache
    from repro.comm.exhaustive import (
        clear_search_cache, communication_complexity, partition_number,
    )
    from repro.comm.truth_matrix import TruthMatrix
    from repro.singularity.truth_builder import restricted_truth_matrix

    family, rows, columns = truth_inputs(0, 0, 2, 1, 3)
    restricted_truth_matrix(family, rows, columns, engine="modnp", workers=1)
    tm = TruthMatrix(np.array([[0, 1], [1, 1]], dtype=np.uint8), (0, 1), (0, 1))
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        with cache.directory(tmp):
            for _read in range(2):
                clear_search_cache()
                communication_complexity(tm, workers=1)
                partition_number(tm, workers=1)


def _query(tm) -> tuple[tuple[int, int] | None, float]:
    """``((D(f), d^P(f)), seconds)``; the answer is None when the query
    raises, which counts as a failed operation."""
    from repro.comm.exhaustive import communication_complexity, partition_number

    t0 = time.perf_counter()
    try:
        answer = (communication_complexity(tm, workers=1),
                  partition_number(tm, workers=1))
    except Exception:  # noqa: BLE001 - counted in ``failed``, not fatal
        answer = None
    return answer, time.perf_counter() - t0


def run_cycles(seed: int, scratch: str, seconds: float, min_cycles: int):
    """Repeat one cycle of the three phases until ``min_cycles`` cycles
    have run and ``seconds`` have passed; returns raw timings and checks.

    A cycle is one truth-matrix build, one cold round of the batch into a
    fresh store, and :data:`WARM_PASSES` warm passes over that store.
    Interleaving the phases spreads each one's samples over the whole run,
    so every phase gets a share of a drifting host's fast stretches.
    """
    from repro import cache, obs
    from repro.comm.exhaustive import clear_search_cache
    from repro.singularity.truth_builder import restricted_truth_matrix

    out = {"builds": [], "cold_member_s": [[] for _ in QUERY_POOL],
           "warm_passes": [], "warm_query_s": [], "cold_windows_ns": [],
           "warm_hits": 0, "warm_lookups": 0, "wrong": 0, "failed": 0,
           "attempted": 0}
    start = time.perf_counter()
    cycle = 0
    while cycle < min_cycles or time.perf_counter() - start < seconds:
        family, rows, columns = truth_inputs(seed, cycle)
        t0 = time.perf_counter()
        tm = restricted_truth_matrix(family, rows, columns, engine="modnp",
                                     workers=1)
        out["builds"].append((tm.shape[0] * tm.shape[1],
                              time.perf_counter() - t0))
        out["attempted"] += 1
        if cycle == 0:
            out["truth"] = (family, rows, columns, tm)

        store_dir = os.path.join(scratch, f"cache{cycle}")
        batch = seeded_batch(seed, cycle)
        clear_search_cache()
        answers = []
        window = [time.perf_counter_ns(), 0]
        with cache.directory(store_dir):
            for member, tm in enumerate(batch):
                answer, elapsed = _query(tm)
                answers.append(answer)
                out["failed"] += answer is None
                out["cold_member_s"][member].append(elapsed)
            window[1] = time.perf_counter_ns()
            out["cold_windows_ns"].append(window)
            out["attempted"] += len(batch)

            before = obs.snapshot()["counters"]
            for _pass in range(WARM_PASSES):
                clear_search_cache()
                t0 = time.perf_counter()
                for tm, cold in zip(batch, answers):
                    answer, elapsed = _query(tm)
                    out["warm_query_s"].append(elapsed)
                    out["failed"] += answer is None
                    out["wrong"] += None not in (answer, cold) and answer != cold
                out["warm_passes"].append((len(batch),
                                           time.perf_counter() - t0))
                out["attempted"] += len(batch)
            after = obs.snapshot()["counters"]
        for name in ("hits", "lookups"):
            out[f"warm_{name}"] += (after.get(f"cache.{name}", 0)
                                    - before.get(f"cache.{name}", 0))
        cycle += 1
    return out


def _truth_block_differs(family, rows, columns, tm) -> int:
    """1 when a block of the ``modnp`` build differs from a ``fraction``
    build of the same rows and columns."""
    from repro.singularity.truth_builder import restricted_truth_matrix

    n_rows, n_cols = CHECK_BLOCK
    # Mix completed and random columns so the block holds ones and zeros.
    picks = list(range(n_cols // 2)) + list(
        range(TRUTH_COMPLETED, TRUTH_COMPLETED + n_cols // 2))
    block_cols = [columns[j] for j in picks]
    exact = restricted_truth_matrix(family, rows[:n_rows], block_cols,
                                    engine="fraction", workers=1)
    fast = tm.data[:n_rows][:, picks]
    return int(not (exact.data == fast).all())


def _rate(pairs, q: float) -> float:
    """The ``q``-th percentile over units of units per second."""
    return percentile([units / secs for units, secs in pairs], q)


def measure(seed: int, seconds: float, scratch: str) -> dict:
    setup(scratch)
    raw = run_cycles(seed, scratch, seconds, MEASURE_CYCLES)
    wrong = raw["wrong"] + _truth_block_differs(*raw["truth"])
    # Every phase repeats alike work, so each reports its fast end, which a
    # drifting host moves least: a query's latency is its pool member's
    # fastest cold repeat (see MEASURE_CYCLES).
    member_ms = [min(times) * 1000.0 for times in raw["cold_member_s"]]
    cold_rate = len(member_ms) / (sum(member_ms) / 1000.0)
    return {
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "wrong": wrong,
        "values": {
            "latency_p50_ms": percentile(member_ms, 50),
            "latency_p99_ms": percentile(member_ms, 99),
            "latency_p99_ms_peak": percentile(member_ms, 99),
            "throughput": cold_rate,
            "truth_entries_per_s": _rate(raw["builds"], 100),
            "cold_queries_per_s": cold_rate,
            "warm_queries_per_s": _rate(raw["warm_passes"], 90),
        },
    }


def layer_pass(seed: int, seconds: float, traced: bool, scratch: str) -> dict:
    """:data:`LAYER_CYCLES` cycles, traced in memory or untraced."""
    from repro import obs

    setup(scratch)
    obs.reset()
    if traced:
        from repro import trace

        with trace.capture(capacity=4_000_000) as tracer:
            t0 = time.perf_counter()
            raw = run_cycles(seed, scratch, 0.0, LAYER_CYCLES)
            work_s = time.perf_counter() - t0
        counters = obs.snapshot()["counters"]
        extra = {"dropped": tracer.dropped,
                 "layers": exact_layers(tracer.events(), counters, raw)}
    else:
        t0 = time.perf_counter()
        raw = run_cycles(seed, scratch, 0.0, LAYER_CYCLES)
        work_s = time.perf_counter() - t0
        extra = {"dropped": 0}
    wrong = raw["wrong"] + _truth_block_differs(*raw["truth"])
    return {"attempted": raw["attempted"], "failed": raw["failed"],
            "wrong": wrong, "work_s": work_s, **extra}


def exact_layers(events, counters: dict, raw) -> dict:
    from layers import closed_spans, exhaustive_layers

    spans = closed_spans(events)
    builds_ms = [s.duration_ns / 1e6 for s in spans
                 if s.name == "truth_builder.build"]
    entries = sum(units for units, _secs in raw["builds"])
    cold = [s for s in spans
            if any(lo <= s.start_ns and s.end_ns <= hi
                   for lo, hi in raw["cold_windows_ns"])]
    layers = exhaustive_layers(cold, counters)
    layers.update({
        "truth_builder.build_ms": percentile_or_zero(builds_ms, 50),
        "truth_builder.filter_share": share(
            counters.get("truth_builder.modnp_filtered", 0), entries),
        "cache.warm_query_ms.p50": percentile_or_zero(
            [s * 1000.0 for s in raw["warm_query_s"]], 50),
        "cache.hit_share": share(raw["warm_hits"], raw["warm_lookups"]),
    })
    for name in ("truth_builder.modnp_filtered", "truth_builder.exact_confirms",
                 "truth_builder.span_cache_hits",
                 "truth_builder.span_cache_misses",
                 "cache.lookups", "cache.hits", "cache.misses", "cache.stores"):
        layers[name] = counters.get(name, 0)
    return layers
