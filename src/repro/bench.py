"""The pinned performance benchmark behind ``python -m repro bench``.

Runs fixed, seeded workloads several ways and writes ``BENCH_PERF.json``:

* the E6-scale restricted truth matrix built with the exact ``fraction``
  engine and again with the vectorized ``modnp`` engine — the matrices must
  be byte-identical and the speedup is a headline number (the acceptance
  bar is 5x);
* the same build pipeline at ``--workers 1`` and ``--workers N`` — the
  matrices must be byte-identical, proving
  :func:`repro.util.parallel.parmap`'s seed-per-task determinism;
* the E15 exact D(f) suite on the ``legacy`` tuple engine and the pruned
  ``bitset`` engine — values must be identical and the full-mode bar is 5x
  (measured far higher; see docs/performance.md);
* the parallel shared-bound exact search (d^P of a pinned hard 12x14
  instance) against the sequential bitset engine — identical values, 3x at
  4 workers (the win is algorithmic: seeded witnessed bound + budgeted
  pruning, so it holds even on a 1-core box);
* the sharded truth-matrix streamer: cold single-pass build vs worker
  fan-out vs resume-from-shards, all byte-identical, with the
  core-independent resume gated at 3x and the store's shard stats embedded
  for the CI artifact;
* the scenario-matrix sweep (:mod:`repro.matrix`) serial and at two
  workers — every protocol's symbolic cost formula against the live
  channel and ARQ stats by integer equality, faulted cells judged against
  their gold answers; the two reports must be byte-identical and a single
  MISMATCH cell fails the bench outright;
* a cold-vs-warm partition sweep against a throwaway persistent cache
  (:mod:`repro.cache`), with the in-process LRU cleared in between so the
  warm run measures the *disk* store — results must be identical and the
  full-mode warm-up bar is 10x.

The JSON also snapshots every :mod:`repro.obs` counter and timer the run
touched (span-cache traffic, mod-p filter counts, cache hits, pruned
subrectangles), so a perf regression comes with its own diagnostics
attached.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any

from repro import obs
from repro.trace import core as trace
from repro.trace.summary import summarize as trace_summarize
from repro.util.rng import ReproducibleRNG

#: The acceptance bar for modnp vs fraction on the pinned workload.
SPEEDUP_TARGET = 5.0

#: The acceptance bar for the bitset exact-search engine vs legacy (E15).
EXACT_SPEEDUP_TARGET = 5.0

#: The acceptance bar for a warm persistent cache vs a cold sweep.
CACHE_SPEEDUP_TARGET = 10.0

#: The acceptance bar for resuming a truth-matrix build from a complete
#: shard store vs rebuilding cold (core-independent: resume is pure IO).
SHARDED_SPEEDUP_TARGET = 3.0

#: The acceptance bar for the parallel shared-bound exact search at 4
#: workers vs the sequential bitset engine on the pinned hard instance.
PARALLEL_SEARCH_SPEEDUP_TARGET = 3.0


def _pinned_workload(quick: bool):
    """The fixed (family, rows, columns) triple every engine run measures.

    Full mode is E6-scale (n=5, k=3 — the smallest nonempty-E family — with
    enough columns that per-entry Fraction costs dominate); quick mode is a
    CI smoke size.
    """
    from repro.singularity import truth_builder as tb
    from repro.singularity.family import RestrictedFamily

    if quick:
        fam = RestrictedFamily(5, 3)
        n_rows, completion_rows, n_random = 10, 5, 12
    else:
        fam = RestrictedFamily(5, 3)
        n_rows, completion_rows, n_random = 25, 12, 60
    rng = ReproducibleRNG(1989)
    rows = tb.sample_distinct_rows(fam, rng, n_rows)
    columns = tb.completed_columns(fam, rows[:completion_rows], rng, 1)
    columns += tb.random_columns(fam, rng, n_random)
    return fam, rows, columns


def _time_engine(fam, rows, columns, engine: str, repeats: int) -> tuple[float, Any]:
    """Best-of-``repeats`` wall time of one engine (best-of defeats noise)."""
    from repro.singularity.truth_builder import restricted_truth_matrix

    best = float("inf")
    tm = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        tm = restricted_truth_matrix(fam, rows, columns, engine=engine)
        best = min(best, time.perf_counter() - t0)
    return best, tm


def bench_engines(quick: bool) -> dict[str, Any]:
    """Fraction vs modnp on the pinned truth-matrix build."""
    fam, rows, columns = _pinned_workload(quick)
    repeats = 1 if quick else 3
    fraction_s, tm_fraction = _time_engine(fam, rows, columns, "fraction", repeats)
    modnp_s, tm_modnp = _time_engine(fam, rows, columns, "modnp", repeats)
    identical = bool((tm_fraction.data == tm_modnp.data).all())
    speedup = fraction_s / modnp_s if modnp_s > 0 else float("inf")
    return {
        "workload": {
            "family": repr(fam),
            "shape": list(tm_fraction.shape),
            "entries": tm_fraction.shape[0] * tm_fraction.shape[1],
            "ones": int(tm_fraction.data.sum()),
        },
        "fraction_seconds": fraction_s,
        "modnp_seconds": modnp_s,
        "speedup": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "meets_target": speedup >= SPEEDUP_TARGET,
        "byte_identical": identical,
    }


def bench_parallel(quick: bool, workers: int) -> dict[str, Any]:
    """Serial vs parallel determinism of the truth-matrix build."""
    from repro.singularity import truth_builder as tb

    fam, rows, columns_serial = _pinned_workload(quick)

    def build(n_workers: int):
        t0 = time.perf_counter()
        cols = tb.completed_columns(fam, rows[: len(rows) // 2], ReproducibleRNG(1989), 2, workers=n_workers)
        tm = tb.restricted_truth_matrix(fam, rows, cols + columns_serial, engine="modnp")
        return time.perf_counter() - t0, tm

    serial_s, tm1 = build(1)
    parallel_s, tmn = build(workers)
    tm_identical = bool(
        tm1.shape == tmn.shape and (tm1.data == tmn.data).all()
    )

    return {
        "workers_compared": [1, workers],
        "truth_matrix": {
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "byte_identical": tm_identical,
        },
    }


def _exact_search_suite(quick: bool):
    """The pinned E15 D(f) suite: (name, truth matrix) pairs.

    Full mode uses the 8-value instances where the legacy enumerator takes
    seconds per matrix; quick mode stays at sizes a CI smoke box clears in
    well under a second while still exercising both engines end to end.
    """
    import numpy as np

    from repro.comm.truth_matrix import TruthMatrix

    def tm_from(array):
        a = np.array(array, dtype=np.uint8)
        return TruthMatrix(a, tuple(range(a.shape[0])), tuple(range(a.shape[1])))

    n = 6 if quick else 8
    rng = ReproducibleRNG(1515)
    random_data = [rng.bit_vector(n) for _ in range(n)]
    return [
        (f"EQ{n}", tm_from(np.eye(n, dtype=np.uint8))),
        (f"GT{n}", tm_from([[1 if i > j else 0 for j in range(n)] for i in range(n)])),
        (f"RAND{n}", tm_from(random_data)),
    ]


def bench_exact_search(quick: bool) -> dict[str, Any]:
    """Legacy tuple engine vs the pruned bitset engine on the E15 suite.

    Both engines run with the persistent cache disabled and the in-process
    LRU cleared before every matrix, so the timing is pure search.  Values
    must agree exactly; the full-mode speedup bar is 5x (the branch-and-
    bound engine measures in the hundreds-to-thousands on this suite).
    """
    from repro import cache
    from repro.comm.exhaustive import (
        clear_search_cache,
        communication_complexity,
    )

    suite = _exact_search_suite(quick)
    cases = []
    legacy_total = 0.0
    bitset_total = 0.0
    values_identical = True
    with cache.disabled():
        for name, tm in suite:
            clear_search_cache()
            t0 = time.perf_counter()
            d_legacy = communication_complexity(tm, engine="legacy")
            legacy_s = time.perf_counter() - t0
            clear_search_cache()
            t0 = time.perf_counter()
            d_bitset = communication_complexity(tm, engine="bitset")
            bitset_s = time.perf_counter() - t0
            legacy_total += legacy_s
            bitset_total += bitset_s
            same = d_legacy == d_bitset
            values_identical = values_identical and same
            cases.append({
                "name": name,
                "shape": list(tm.shape),
                "d": d_bitset,
                "legacy_seconds": legacy_s,
                "bitset_seconds": bitset_s,
                "values_identical": same,
            })
    speedup = legacy_total / bitset_total if bitset_total > 0 else float("inf")
    return {
        "cases": cases,
        "legacy_seconds": legacy_total,
        "bitset_seconds": bitset_total,
        "speedup": speedup,
        "speedup_target": EXACT_SPEEDUP_TARGET,
        "meets_target": speedup >= EXACT_SPEEDUP_TARGET,
        "values_identical": values_identical,
    }


def _usable_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def bench_sharded_truth(quick: bool, workers: int) -> dict[str, Any]:
    """The streamed shard tier: cold build vs fan-out vs resume-from-shards.

    Three builds of one pinned fraction-engine workload, all of which must
    be byte-identical:

    * **cold** — the single-pass sequential engine;
    * **streamed** — :func:`repro.singularity.truth_builder
      .sharded_truth_matrix` at ``workers`` workers, spilling shards into a
      throwaway store (speedup over cold is gated only when the machine
      really has ``workers`` usable cores — a 1-core CI box serializes the
      pool and would fail any fan-out bar no matter the code);
    * **resumed** — the same call again, now resuming from the complete
      shard store: pure reads + reassembly.  Its speedup over cold is the
      core-independent full-mode gate (>= 3x).

    Also rehearses the kill/resume path (``interrupt_after``) and snapshots
    the store's shard stats — the JSON artifact the CI smoke job uploads.
    """
    import shutil
    import tempfile

    from repro import cache
    from repro.singularity import truth_builder as tb
    from repro.singularity.family import RestrictedFamily

    fam = RestrictedFamily(5, 3)
    rng = ReproducibleRNG(1989)
    if quick:
        rows = tb.sample_distinct_rows(fam, rng, 10)
        columns = tb.completed_columns(fam, rows[:5], rng, 1)
        columns += tb.random_columns(fam, rng, 30)
        block = 8
    else:
        rows = tb.sample_distinct_rows(fam, rng, 40)
        columns = tb.completed_columns(fam, rows[:12], rng, 1)
        columns += tb.random_columns(fam, rng, 440)
        block = 16
    t0 = time.perf_counter()
    cold_tm = tb.restricted_truth_matrix(fam, rows, columns, engine="fraction")
    cold_s = time.perf_counter() - t0
    tmp = tempfile.mkdtemp(prefix="repro-bench-shards-")
    try:
        with cache.directory(tmp) as store:
            # Kill/resume rehearsal on its own block grid (its own content
            # address), so the streamed timing below starts truly cold.
            interrupted = False
            try:
                tb.sharded_truth_matrix(
                    fam, rows, columns, engine="fraction",
                    block_size=block + 1, interrupt_after=2,
                )
            except tb.TruthBuildInterrupted:
                interrupted = True
            t0 = time.perf_counter()
            streamed_tm = tb.sharded_truth_matrix(
                fam, rows, columns, engine="fraction",
                block_size=block, workers=workers,
            )
            streamed_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            resumed_tm = tb.sharded_truth_matrix(
                fam, rows, columns, engine="fraction", block_size=block,
            )
            resumed_s = time.perf_counter() - t0
            shard_stats = store.shard_stats()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    identical = bool(
        (cold_tm.data == streamed_tm.data).all()
        and (cold_tm.data == resumed_tm.data).all()
    )
    resume_speedup = cold_s / resumed_s if resumed_s > 0 else float("inf")
    fanout_speedup = cold_s / streamed_s if streamed_s > 0 else float("inf")
    cores = _usable_cores()
    fanout_gated = cores >= workers
    return {
        "workload": {
            "family": repr(fam),
            "shape": list(cold_tm.shape),
            "block_columns": block,
            "blocks": len(cache.block_ranges(len(columns), block)),
        },
        "workers": workers,
        "usable_cores": cores,
        "cold_seconds": cold_s,
        "streamed_seconds": streamed_s,
        "resumed_seconds": resumed_s,
        "resume_speedup": resume_speedup,
        "fanout_speedup": fanout_speedup,
        "fanout_gated": fanout_gated,
        "speedup_target": SHARDED_SPEEDUP_TARGET,
        "meets_target": bool(
            resume_speedup >= SHARDED_SPEEDUP_TARGET
            and (not fanout_gated or fanout_speedup >= SHARDED_SPEEDUP_TARGET)
        ),
        "interrupt_resumed": interrupted,
        "byte_identical": identical,
        "shard_stats": shard_stats,
    }


def _parallel_search_suite(quick: bool):
    """The pinned DFBnB instance(s) for the parallel-search section.

    Full mode uses a 12x14 random matrix whose sequential d^P search takes
    tens of seconds — large enough that the shared-bound fan-out's pruning
    (seeded witnessed bound + thin-first split order) dominates overheads.
    Quick mode is identity-only at a smoke size.
    """
    import numpy as np

    from repro.comm.truth_matrix import TruthMatrix

    n_rows, n_cols = (6, 6) if quick else (12, 14)
    rng = ReproducibleRNG(3)
    data = np.array(
        [rng.bit_vector(n_cols) for _ in range(n_rows)], dtype=np.uint8
    )
    return TruthMatrix(
        data, tuple(range(n_rows)), tuple(range(n_cols))
    )


def bench_parallel_search(quick: bool, workers: int) -> dict[str, Any]:
    """Sequential bitset DFBnB vs the shared-bound parallel fan-out.

    Both compute the exact protocol partition number d^P of the pinned
    instance; the values must be equal (that is the exactness contract the
    Hypothesis suite pins at small sizes) and the full-mode speedup bar is
    3x at 4 workers.  The in-process search LRU is cleared before each run
    and the persistent cache is disabled by ``run_bench``, so both timings
    are pure search.
    """
    from repro.comm.exhaustive import clear_search_cache, partition_number

    tm = _parallel_search_suite(quick)
    clear_search_cache()
    t0 = time.perf_counter()
    sequential = partition_number(tm, workers=1)
    sequential_s = time.perf_counter() - t0
    clear_search_cache()
    t0 = time.perf_counter()
    parallel = partition_number(tm, workers=workers)
    parallel_s = time.perf_counter() - t0
    speedup = sequential_s / parallel_s if parallel_s > 0 else float("inf")
    return {
        "shape": list(tm.shape),
        "workers": workers,
        "usable_cores": _usable_cores(),
        "d_p": parallel,
        "sequential_seconds": sequential_s,
        "parallel_seconds": parallel_s,
        "speedup": speedup,
        "speedup_target": PARALLEL_SEARCH_SPEEDUP_TARGET,
        "meets_target": speedup >= PARALLEL_SEARCH_SPEEDUP_TARGET,
        "values_identical": sequential == parallel,
    }


def _eq_pairs_4(bits) -> bool:
    """Quick-mode sweep predicate: left pair equals right pair."""
    return bits[0] == bits[2] and bits[1] == bits[3]


class _SeededRandomPredicate:
    """Full-mode sweep predicate: a pinned random 8-bit function.

    Random functions are hard under *every* partition (no split lets either
    agent compress), so each cold cell pays a real search while the warm
    sweep's per-cell cost is just hashing plus one disk read — exactly the
    ratio the cache gate is supposed to measure.  A tiny class (not a
    closure) so :func:`repro.util.parallel.parmap` can pickle it.
    """

    __name__ = "_SeededRandomPredicate"

    def __init__(self, total_bits: int, seed: int):
        rng = ReproducibleRNG(seed)
        self.table = tuple(rng.bit_vector(1 << total_bits))
        self.total_bits = total_bits

    def __call__(self, bits) -> bool:
        index = 0
        for bit in bits:
            index = (index << 1) | bit
        return bool(self.table[index])


def bench_cache_roundtrip(quick: bool) -> dict[str, Any]:
    """Cold vs warm partition sweep against a throwaway persistent cache.

    Runs :func:`repro.comm.partition_search.best_partition_cc` twice inside
    a fresh :func:`repro.cache.directory`; the in-process search LRU is
    cleared between runs, so the second sweep's only advantage is the disk
    store.  Results must match exactly; the full-mode warm-up bar is 10x.
    """
    import shutil
    import tempfile

    from repro import cache
    from repro.comm.exhaustive import clear_search_cache
    from repro.comm.partition_search import best_partition_cc

    if quick:
        predicate, total_bits = _eq_pairs_4, 4
    else:
        predicate = _SeededRandomPredicate(8, 1989)
        total_bits = 8
    tmp = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        with cache.directory(tmp) as store:
            clear_search_cache()
            t0 = time.perf_counter()
            cold = best_partition_cc(predicate, total_bits)
            cold_s = time.perf_counter() - t0
            clear_search_cache()
            t0 = time.perf_counter()
            warm = best_partition_cc(predicate, total_bits)
            warm_s = time.perf_counter() - t0
            stats = store.stats()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    identical = cold.costs == warm.costs
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    return {
        "predicate": predicate.__name__,
        "total_bits": total_bits,
        "partitions": len(cold.costs),
        "best_cost": cold.best_cost,
        "worst_cost": cold.worst_cost,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": speedup,
        "speedup_target": CACHE_SPEEDUP_TARGET,
        "meets_target": speedup >= CACHE_SPEEDUP_TARGET,
        "results_identical": identical,
        "store": {"entries": stats["entries"], "fields": stats["fields"]},
    }


def bench_matrix(quick: bool) -> dict[str, Any]:
    """The scenario-matrix determinism and verdict gate.

    Runs the quick matrix sweep twice — serial and at two workers — and
    demands byte-identical reports plus zero ``MISMATCH`` verdicts, so
    the bench catches both nondeterminism and contract violations.  It
    participates in ``identical``, not in the timing targets.
    """
    import json as json_module

    from repro.matrix import run_sweep as matrix_sweep
    from repro.matrix import sweep_report as matrix_report

    t0 = time.perf_counter()
    serial = matrix_report(matrix_sweep(quick=quick, workers=1), quick=quick)
    parallel = matrix_report(matrix_sweep(quick=quick, workers=2), quick=quick)
    elapsed = time.perf_counter() - t0
    canonical = json_module.dumps(serial, sort_keys=True)
    identical = canonical == json_module.dumps(parallel, sort_keys=True)
    return {
        "cells": len(serial["cells"]),
        "counts": serial["counts"],
        "mismatches": serial["mismatches"],
        "byte_identical": identical,
        "seconds": elapsed,
        "ok": bool(identical and serial["ok"]),
    }


def run_bench(
    quick: bool = False,
    workers: int = 4,
    out_path: str | Path = "BENCH_PERF.json",
    no_cache: bool = False,
) -> dict[str, Any]:
    """Run the full pinned benchmark and write the JSON report.

    The report's ``ok`` field demands byte-identity everywhere and (in full
    mode only — quick CI boxes are too noisy to gate on wall time) the 5x
    engine speedups plus the 10x warm-cache bar.  ``no_cache`` skips the
    cache round-trip section and keeps the persistent store disabled for
    the whole run.

    When tracing is active (``REPRO_TRACE_DIR`` or
    :func:`repro.trace.configure`) each section runs under its own span
    and the report gains a ``trace`` key holding the run's
    :func:`repro.trace.summarize` digest.  Tracing is never enabled here —
    the default (untraced) run must stay on the no-op fast path so the
    pinned timings are undisturbed.
    """
    from repro import cache as repro_cache

    obs.reset()
    started = time.time()
    with repro_cache.disabled():
        with trace.span("bench.engines", quick=quick):
            engines = bench_engines(quick)
        with trace.span("bench.parallel", quick=quick, workers=workers):
            parallel = bench_parallel(quick, workers)
        with trace.span("bench.exact_search", quick=quick):
            exact = bench_exact_search(quick)
        with trace.span("bench.parallel_search", quick=quick, workers=workers):
            parallel_search = bench_parallel_search(quick, workers)
        with trace.span("bench.matrix", quick=quick):
            matrix = bench_matrix(quick)
    if no_cache:
        cache_section = None
        sharded = None
    else:
        with trace.span("bench.sharded_truth", quick=quick, workers=workers):
            sharded = bench_sharded_truth(quick, workers)
        with trace.span("bench.cache_roundtrip", quick=quick):
            cache_section = bench_cache_roundtrip(quick)
    report: dict[str, Any] = {
        "bench": "repro pinned perf sweep",
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "started_unix": started,
        "elapsed_seconds": time.time() - started,
        "engines": engines,
        "parallel": parallel,
        "exact_search": exact,
        "parallel_search": parallel_search,
        "sharded_truth": sharded,
        "matrix": matrix,
        "cache": cache_section,
        "obs": obs.snapshot(),
    }
    tracer = trace.active_tracer()
    if tracer is not None:
        report["trace"] = trace_summarize(tracer.events(), tracer.dropped)
    identical = (
        engines["byte_identical"]
        and parallel["truth_matrix"]["byte_identical"]
        and exact["values_identical"]
        and parallel_search["values_identical"]
        and matrix["ok"]
        and (sharded is None or sharded["byte_identical"])
        and (cache_section is None or cache_section["results_identical"])
    )
    meets_targets = (
        engines["meets_target"]
        and exact["meets_target"]
        and parallel_search["meets_target"]
        and (sharded is None or sharded["meets_target"])
        and (cache_section is None or cache_section["meets_target"])
    )
    report["ok"] = bool(identical and (quick or meets_targets))
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def render_summary(report: dict[str, Any]) -> str:
    """Human-readable digest of one report (the CLI's stdout)."""
    e = report["engines"]
    p = report["parallel"]
    lines = [
        f"pinned truth-matrix build {e['workload']['shape'][0]}x"
        f"{e['workload']['shape'][1]} ({e['workload']['ones']} ones):",
        f"  fraction engine : {e['fraction_seconds'] * 1e3:9.1f} ms",
        f"  modnp engine    : {e['modnp_seconds'] * 1e3:9.1f} ms",
        f"  speedup         : {e['speedup']:9.1f}x (target >= "
        f"{e['speedup_target']:g}x, byte-identical: {e['byte_identical']})",
        f"parallel determinism (workers {p['workers_compared']}):",
        f"  truth matrix    : identical = "
        f"{p['truth_matrix']['byte_identical']} "
        f"({p['truth_matrix']['serial_seconds'] * 1e3:.1f} ms -> "
        f"{p['truth_matrix']['parallel_seconds'] * 1e3:.1f} ms)",
    ]
    x = report.get("exact_search")
    if x is not None:
        names = ", ".join(c["name"] for c in x["cases"])
        lines += [
            f"exact D(f) search ({names}):",
            f"  legacy engine   : {x['legacy_seconds'] * 1e3:9.1f} ms",
            f"  bitset engine   : {x['bitset_seconds'] * 1e3:9.1f} ms",
            f"  speedup         : {x['speedup']:9.1f}x (target >= "
            f"{x['speedup_target']:g}x, values identical: "
            f"{x['values_identical']})",
        ]
    ps = report.get("parallel_search")
    if ps is not None:
        lines += [
            f"parallel exact search ({ps['shape'][0]}x{ps['shape'][1]}, "
            f"d^P = {ps['d_p']}):",
            f"  sequential      : {ps['sequential_seconds'] * 1e3:9.1f} ms",
            f"  {ps['workers']} workers       : "
            f"{ps['parallel_seconds'] * 1e3:9.1f} ms",
            f"  speedup         : {ps['speedup']:9.1f}x (target >= "
            f"{ps['speedup_target']:g}x, values identical: "
            f"{ps['values_identical']})",
        ]
    sh = report.get("sharded_truth")
    if sh is not None:
        fanout_note = (
            f"{sh['fanout_speedup']:.1f}x"
            if sh["fanout_gated"]
            else f"{sh['fanout_speedup']:.1f}x (ungated: "
            f"{sh['usable_cores']} core(s) < {sh['workers']} workers)"
        )
        lines += [
            f"sharded truth build ({sh['workload']['shape'][0]}x"
            f"{sh['workload']['shape'][1]}, "
            f"{sh['workload']['blocks']} blocks):",
            f"  cold build      : {sh['cold_seconds'] * 1e3:9.1f} ms",
            f"  streamed        : {sh['streamed_seconds'] * 1e3:9.1f} ms "
            f"(fan-out {fanout_note})",
            f"  shard resume    : {sh['resumed_seconds'] * 1e3:9.1f} ms",
            f"  resume speedup  : {sh['resume_speedup']:9.1f}x (target >= "
            f"{sh['speedup_target']:g}x, byte-identical: "
            f"{sh['byte_identical']}, interrupt resumed: "
            f"{sh['interrupt_resumed']})",
        ]
    m = report.get("matrix")
    if m is not None:
        lines += [
            f"scenario matrix ({m['cells']} cells):",
            f"  sweep x2        : {m['seconds'] * 1e3:9.1f} ms",
            f"  verdicts        : {m['counts']['MATCH']} MATCH, "
            f"{m['counts']['WITHIN_BOUND']} WITHIN_BOUND, "
            f"{m['counts']['MISMATCH']} MISMATCH "
            f"(byte-identical at 1 vs 2 workers: {m['byte_identical']})",
        ]
    c = report.get("cache")
    if c is not None:
        lines += [
            f"persistent cache ({c['predicate']}, {c['partitions']} partitions):",
            f"  cold sweep      : {c['cold_seconds'] * 1e3:9.1f} ms",
            f"  warm sweep      : {c['warm_seconds'] * 1e3:9.1f} ms",
            f"  speedup         : {c['speedup']:9.1f}x (target >= "
            f"{c['speedup_target']:g}x, results identical: "
            f"{c['results_identical']}, {c['store']['entries']} records)",
        ]
    lines.append(f"ok = {report['ok']}")
    return "\n".join(lines)
