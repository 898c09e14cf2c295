"""Cross-engine suite: the bitset engine must equal the legacy enumerator.

The pruned bitset engine (branch-and-bound, canonicalization, packed row
masks) is three orders of magnitude faster than the legacy tuple engine —
which makes agreement the whole ballgame.  Hypothesis drives random small
matrices through both engines and demands identical D(f) and d^P(f); the
canonical functions (EQ, GT, IP, DISJ, 2x2 singularity) pin the absolute
values; protocol trees from both engines must be depth-optimal and compute
the function everywhere.  One ``slow`` test holds the bitset engine to its
speed bar over legacy on the E15 suite.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache, obs
from repro.comm.exhaustive import (
    ENGINES,
    clear_search_cache,
    communication_complexity,
    optimal_protocol_tree,
    partition_number,
    search_cache_stats,
)
from repro.comm.partition import Partition
from repro.comm.truth_matrix import TruthMatrix, truth_matrix_from_function
from repro.util.rng import ReproducibleRNG


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


class TestEnginesAgree:
    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_communication_complexity_identical(self, rows):
        tm = tm_from(rows)
        assert communication_complexity(
            tm, engine="bitset"
        ) == communication_complexity(tm, engine="legacy")

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_partition_number_identical(self, rows):
        tm = tm_from(rows)
        assert partition_number(tm, engine="bitset") == partition_number(
            tm, engine="legacy"
        )

    @given(matrices)
    @settings(max_examples=25, deadline=None)
    def test_trees_are_optimal_and_correct_on_both_engines(self, rows):
        tm = tm_from(rows)
        costs = {}
        for engine in ENGINES:
            cost, tree = optimal_protocol_tree(tm, engine=engine)
            costs[engine] = cost
            assert tree.depth() == cost
            for i, rl in enumerate(tm.row_labels):
                for j, cl in enumerate(tm.col_labels):
                    assert tree.evaluate(rl, cl)[0] == tm.data[i, j], engine
        assert costs["bitset"] == costs["legacy"]


# -- the canonical functions, 2 bits per side --------------------------------

def _eq(bits):
    return bits[0] == bits[2] and bits[1] == bits[3]


def _gt(bits):
    return (bits[0] * 2 + bits[1]) > (bits[2] * 2 + bits[3])


def _ip(bits):
    return bool((bits[0] & bits[2]) ^ (bits[1] & bits[3]))


def _disj(bits):
    return not ((bits[0] & bits[2]) or (bits[1] & bits[3]))


def _sing_2x2_1bit(bits):
    # [[a, b], [c, d]] singular over the rationals <=> ad == bc.
    return bits[0] * bits[3] == bits[1] * bits[2]


CANONICAL = [
    # (predicate, total_bits, pinned D, pinned d^P)
    (_eq, 4, 3, 8),
    (_gt, 4, 3, 7),
    (_ip, 4, 3, 7),
    (_disj, 4, 3, 7),
    (_sing_2x2_1bit, 4, 3, 7),
]


class TestPinnedValues:
    @pytest.mark.parametrize("f,total_bits,d,dp", CANONICAL)
    def test_canonical_functions_on_both_engines(self, f, total_bits, d, dp):
        partition = Partition(total_bits, frozenset(range(total_bits // 2)))
        tm = truth_matrix_from_function(f, partition)
        for engine in ENGINES:
            assert communication_complexity(tm, engine=engine) == d, engine
            assert partition_number(tm, engine=engine) == dp, engine

    def test_eq8_matches_the_textbook_value(self):
        # EQ over 8 values: ceil(log2 8) + 1 = 4, on both engines.
        tm = tm_from(np.eye(8, dtype=np.uint8))
        for engine in ENGINES:
            assert communication_complexity(tm, engine=engine) == 4


class TestSharedMemo:
    """Satellite proof: every query family shares one search per matrix."""

    def test_partition_number_reuses_the_search_memo(self):
        tm = tm_from(np.eye(6, dtype=np.uint8))
        for engine in ENGINES:
            clear_search_cache()
            with obs.scoped():
                partition_number(tm, engine=engine)
                first = obs.snapshot()["counters"]["exhaustive.subproblems"]
                assert first > 0
                partition_number(tm, engine=engine)
                assert (
                    obs.snapshot()["counters"]["exhaustive.subproblems"] == first
                ), engine

    def test_d_tree_and_partition_number_share_one_search(self):
        tm = tm_from([[1 if i > j else 0 for j in range(5)] for i in range(5)])
        for engine in ENGINES:
            clear_search_cache()
            with obs.scoped():
                communication_complexity(tm, engine=engine)
                optimal_protocol_tree(tm, engine=engine)
                partition_number(tm, engine=engine)
                counters = obs.snapshot()["counters"]
                # One miss (the first call), then pure hits.
                assert counters["exhaustive.search_cache.misses"] == 1, engine
                assert counters["exhaustive.search_cache.hits"] == 2, engine
            stats = search_cache_stats()
            assert stats["size"] == 1
            assert stats["entries"][0]["engine"] == engine
            assert stats["entries"][0]["hits"] == 2

    def test_engines_do_not_share_cache_entries(self):
        tm = tm_from(np.eye(4, dtype=np.uint8))
        clear_search_cache()
        communication_complexity(tm, engine="bitset")
        communication_complexity(tm, engine="legacy")
        stats = search_cache_stats()
        assert stats["size"] == 2
        assert {e["engine"] for e in stats["entries"]} == set(ENGINES)


#: The bar for the bitset engine over legacy on the E15 suite.
EXACT_SPEEDUP_BAR = 5.0


@pytest.mark.slow
def test_bitset_speedup_bar():
    """Summed D(f) search time over EQ8, GT8 and a seeded random 8x8."""
    rng = ReproducibleRNG(1515)
    suite = [
        tm_from(np.eye(8, dtype=np.uint8)),
        tm_from([[1 if i > j else 0 for j in range(8)] for i in range(8)]),
        tm_from([rng.bit_vector(8) for _ in range(8)]),
    ]
    seconds = {engine: 0.0 for engine in ("legacy", "bitset")}
    with cache.disabled():
        for tm in suite:
            values = set()
            for engine in seconds:
                clear_search_cache()
                t0 = time.perf_counter()
                values.add(communication_complexity(tm, engine=engine))
                seconds[engine] += time.perf_counter() - t0
            assert len(values) == 1
    speedup = seconds["legacy"] / seconds["bitset"]
    assert speedup >= EXACT_SPEEDUP_BAR, (
        f"bitset vs legacy bar missed: {speedup:.1f}x < {EXACT_SPEEDUP_BAR:g}x"
    )
