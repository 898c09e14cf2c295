"""Parallel shared-bound root fan-out == sequential bitset == legacy oracle.

The parallel mode prunes each root split against an incumbent folded from
the worker's local best and a cross-process bound file; its soundness
claim (docs/performance.md §6) is that a split is only dropped when a
*witnessed* cost proves it cannot win.  The executable form of that claim:
the returned integers are identical at every worker count — Hypothesis
over random ≤6×6 matrices, workers ∈ {1, 2, 4}, both D(f) and d^P(f).
One ``slow`` test holds the fan-out to its speed bar on a pinned hard
instance.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache
from repro.comm.exhaustive import (
    clear_search_cache,
    communication_complexity,
    configure_search_cache,
    partition_number,
    search_cache_stats,
)
from repro.comm.truth_matrix import TruthMatrix
from repro.util.rng import ReproducibleRNG

WORKERS = (1, 2, 4)


def tm_from(array) -> TruthMatrix:
    a = np.array(array, dtype=np.uint8)
    return TruthMatrix(a, tuple(range(a.shape[0])), tuple(range(a.shape[1])))


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda r: st.integers(min_value=1, max_value=6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestParallelEqualsSequential:
    @given(matrices)
    @settings(max_examples=12, deadline=None)
    def test_d_identical_at_every_worker_count(self, rows):
        tm = tm_from(rows)
        sequential = communication_complexity(tm, workers=1)
        oracle = communication_complexity(tm, engine="legacy")
        assert sequential == oracle
        for workers in WORKERS:
            assert communication_complexity(tm, workers=workers) == sequential

    @given(matrices)
    @settings(max_examples=12, deadline=None)
    def test_leaves_identical_at_every_worker_count(self, rows):
        tm = tm_from(rows)
        sequential = partition_number(tm, workers=1)
        oracle = partition_number(tm, engine="legacy")
        assert sequential == oracle
        for workers in WORKERS:
            assert partition_number(tm, workers=workers) == sequential

    def test_pinned_values_parallel(self):
        # EQ_3: identity 8x8 — D = 4 (known), leaves = 2*8 - 1... pinned
        # through the sequential engine rather than by hand, then asserted
        # stable across worker counts.
        eye = np.eye(8, dtype=np.uint8)
        tm = TruthMatrix(eye, tuple(range(8)), tuple(range(8)))
        d = communication_complexity(tm)
        leaves = partition_number(tm)
        for workers in WORKERS:
            assert communication_complexity(tm, workers=workers) == d
            assert partition_number(tm, workers=workers) == leaves

    def test_trivial_matrices_parallel(self):
        for array in ([[0]], [[1]], [[0, 0], [0, 0]], [[0, 1]]):
            tm = tm_from(array)
            d = communication_complexity(tm)
            leaves = partition_number(tm)
            assert communication_complexity(tm, workers=4) == d
            assert partition_number(tm, workers=4) == leaves

    def test_legacy_engine_ignores_workers(self):
        tm = tm_from([[0, 1], [1, 0]])
        assert communication_complexity(tm, engine="legacy", workers=4) == 2

    def test_env_var_drives_parallel_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        tm = tm_from([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert communication_complexity(tm) == communication_complexity(
            tm, workers=1
        )


class TestSearchCacheConfiguration:
    def test_limit_round_trip(self):
        try:
            assert configure_search_cache(5) == 5
            assert search_cache_stats()["limit"] == 5
            assert len(search_cache_stats()["entries"]) <= 5
        finally:
            assert configure_search_cache() == 64

    def test_shrink_evicts_immediately(self):
        try:
            configure_search_cache(64)
            for value in range(8):
                tm = tm_from([[value >> 2 & 1, value >> 1 & 1], [value & 1, 1]])
                communication_complexity(tm)
            configure_search_cache(2)
            assert search_cache_stats()["size"] <= 2
        finally:
            configure_search_cache()

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEARCH_CACHE_LIMIT", "7")
        try:
            assert configure_search_cache() == 7
        finally:
            monkeypatch.delenv("REPRO_SEARCH_CACHE_LIMIT")
            assert configure_search_cache() == 64

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEARCH_CACHE_LIMIT", "lots")
        import pytest

        with pytest.raises(ValueError):
            configure_search_cache()
        monkeypatch.delenv("REPRO_SEARCH_CACHE_LIMIT")
        configure_search_cache()


#: The bar for d^P at 4 workers over the sequential bitset search.
PARALLEL_SEARCH_SPEEDUP_BAR = 3.0


@pytest.mark.slow
def test_parallel_search_speedup_bar():
    """d^P of the pinned 12x14 seed-3 instance, 1 worker vs 4.

    The win is algorithmic (seeded witnessed bound + budgeted pruning), so
    the bar holds even when the host has fewer than 4 cores.
    """
    rng = ReproducibleRNG(3)
    tm = tm_from([rng.bit_vector(14) for _ in range(12)])
    seconds, values = {}, set()
    with cache.disabled():
        for workers in (1, 4):
            clear_search_cache()
            t0 = time.perf_counter()
            values.add(partition_number(tm, workers=workers))
            seconds[workers] = time.perf_counter() - t0
    assert len(values) == 1
    speedup = seconds[1] / seconds[4]
    assert speedup >= PARALLEL_SEARCH_SPEEDUP_BAR, (
        f"parallel d^P bar missed: {speedup:.1f}x < "
        f"{PARALLEL_SEARCH_SPEEDUP_BAR:g}x at 4 workers"
    )
