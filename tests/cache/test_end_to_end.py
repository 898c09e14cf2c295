"""The search entry points round-tripping through a real store on disk.

One ``slow`` test holds a warm partition sweep to its speed bar over a
cold one.
"""

import time

import numpy as np
import pytest

from repro import cache, obs
from repro.comm.exhaustive import (
    ENGINES,
    clear_search_cache,
    communication_complexity,
    optimal_protocol_tree,
    partition_number,
)
from repro.comm.partition_search import best_partition_cc
from repro.comm.truth_matrix import TruthMatrix
from repro.util.rng import ReproducibleRNG


def tm_from(array) -> TruthMatrix:
    a = np.array(array, dtype=np.uint8)
    return TruthMatrix(a, tuple(range(a.shape[0])), tuple(range(a.shape[1])))


def gt(n):
    return tm_from([[1 if i > j else 0 for j in range(n)] for i in range(n)])


@pytest.fixture(autouse=True)
def hermetic(monkeypatch):
    """No ambient store leaks in; the LRU starts empty."""
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    clear_search_cache()
    yield
    clear_search_cache()


@pytest.mark.parametrize("engine", ENGINES)
class TestRoundTrip:
    def test_d_survives_the_process_boundary_simulation(self, tmp_path, engine):
        tm = gt(6)
        with cache.directory(tmp_path):
            cold = communication_complexity(tm, engine=engine)
            clear_search_cache()  # simulate a fresh process
            with obs.scoped():
                warm = communication_complexity(tm, engine=engine)
                counters = obs.snapshot()["counters"]
        assert warm == cold
        assert counters["cache.hits"] == 1
        # A disk hit answers without rebuilding the search at all.
        assert counters.get("exhaustive.subproblems", 0) == 0

    def test_partition_number_survives(self, tmp_path, engine):
        tm = gt(5)
        with cache.directory(tmp_path):
            cold = partition_number(tm, engine=engine)
            clear_search_cache()
            with obs.scoped():
                warm = partition_number(tm, engine=engine)
                counters = obs.snapshot()["counters"]
        assert warm == cold
        assert counters.get("exhaustive.subproblems", 0) == 0

    def test_tree_rebuilt_from_cached_serial_computes_the_function(
        self, tmp_path, engine
    ):
        tm = tm_from([[1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
        with cache.directory(tmp_path):
            cost_cold, _ = optimal_protocol_tree(tm, engine=engine)
            clear_search_cache()
            with obs.scoped():
                cost_warm, tree = optimal_protocol_tree(tm, engine=engine)
                counters = obs.snapshot()["counters"]
        assert cost_warm == cost_cold
        assert counters.get("exhaustive.subproblems", 0) == 0
        assert tree.depth() == cost_warm
        for i, rl in enumerate(tm.row_labels):
            for j, cl in enumerate(tm.col_labels):
                assert tree.evaluate(rl, cl)[0] == tm.data[i, j]

    def test_queries_accumulate_in_one_record(self, tmp_path, engine):
        tm = gt(4)
        with cache.directory(tmp_path) as store:
            communication_complexity(tm, engine=engine)
            optimal_protocol_tree(tm, engine=engine)
            partition_number(tm, engine=engine)
            stats = store.stats()
            assert store.verify() == []
        assert stats["entries"] == 1
        assert stats["fields"] == {"d": 1, "leaves": 1, "tree": 1}

    def test_disabled_store_never_touches_disk(self, tmp_path, engine):
        tm = gt(4)
        cache.configure(tmp_path)
        try:
            with cache.disabled(), obs.scoped():
                communication_complexity(tm, engine=engine)
                counters = obs.snapshot()["counters"]
            assert counters.get("cache.lookups", 0) == 0
            assert cache.active_store().stats()["entries"] == 0
        finally:
            cache.unconfigure()


class TestCrossEngineIsolation:
    def test_engines_write_distinct_records(self, tmp_path):
        tm = gt(4)
        with cache.directory(tmp_path) as store:
            d_bitset = communication_complexity(tm, engine="bitset")
            clear_search_cache()
            d_legacy = communication_complexity(tm, engine="legacy")
            stats = store.stats()
        assert d_bitset == d_legacy
        assert stats["entries"] == 2
        assert stats["engines"] == {"bitset-1": 1, "tuple-1": 1}

    def test_corrupt_record_falls_back_to_search(self, tmp_path):
        tm = gt(5)
        with cache.directory(tmp_path) as store:
            cold = communication_complexity(tm)
            for path in store._record_paths():
                path.write_text("garbage")
            clear_search_cache()
            assert communication_complexity(tm) == cold


def _eq_pairs_4(bits) -> bool:
    """Left pair equals right pair."""
    return bits[0] == bits[2] and bits[1] == bits[3]


class _SeededRandomPredicate:
    """A pinned random function: hard under every partition, so each cold
    cell pays a real search while a warm cell is hashing plus one disk read.
    A class, not a closure, so parmap workers can pickle it."""

    def __init__(self, total_bits: int, seed: int):
        self.table = tuple(ReproducibleRNG(seed).bit_vector(1 << total_bits))

    def __call__(self, bits) -> bool:
        index = 0
        for bit in bits:
            index = (index << 1) | bit
        return bool(self.table[index])


def _cold_then_warm(predicate, total_bits, directory):
    """Two timed partition sweeps through one store, LRU cleared between,
    so the warm sweep's only advantage is the disk."""
    runs = []
    with cache.directory(directory) as store:
        for _ in range(2):
            clear_search_cache()
            t0 = time.perf_counter()
            result = best_partition_cc(predicate, total_bits)
            runs.append((result, time.perf_counter() - t0))
        stats = store.stats()
    (cold, cold_s), (warm, warm_s) = runs
    assert warm.costs == cold.costs
    return cold, cold_s / warm_s, stats


class TestPartitionSweep:
    def test_warm_sweep_reads_one_record_per_partition(self, tmp_path):
        cold, _, stats = _cold_then_warm(_eq_pairs_4, 4, tmp_path)
        # Every partition's deduped matrix landed one record with a d field.
        assert stats["entries"] == len(cold.costs)
        assert stats["fields"]["d"] == len(cold.costs)


#: The bar for a warm partition sweep over a cold one.
CACHE_SPEEDUP_BAR = 10.0


@pytest.mark.slow
def test_warm_cache_speedup_bar(tmp_path):
    _, speedup, _ = _cold_then_warm(_SeededRandomPredicate(8, 1989), 8, tmp_path)
    assert speedup >= CACHE_SPEEDUP_BAR, (
        f"warm cache bar missed: {speedup:.1f}x < {CACHE_SPEEDUP_BAR:g}x"
    )
