"""Tests for exact D(f) and partition-number computation.

The canonical values certified here:

* EQ_n: D = n + 1 (deterministic equality needs everything plus the answer);
* GT_n (greater-than): D = n + 1 as well at these sizes;
* constant functions: D = 0;
* one-bit AND: D = 2.
"""

import numpy as np
import pytest

from repro.comm.exhaustive import (
    communication_complexity,
    dedupe,
    deterministic_cc_of_function,
    optimal_protocol_tree,
    partition_number,
)
from repro.comm.measures import truth_matrix_rank, yao_bound
from repro.comm.partition import Partition
from repro.comm.truth_matrix import TruthMatrix, truth_matrix_from_function
from repro.util.rng import ReproducibleRNG


def tm_from(array) -> TruthMatrix:
    a = np.array(array, dtype=np.uint8)
    return TruthMatrix(a, tuple(range(a.shape[0])), tuple(range(a.shape[1])))


def eq_matrix(n_values: int) -> TruthMatrix:
    return tm_from(np.eye(n_values, dtype=np.uint8))


def gt_matrix(n_values: int) -> TruthMatrix:
    return tm_from(
        [[1 if i > j else 0 for j in range(n_values)] for i in range(n_values)]
    )


class TestCommunicationComplexity:
    def test_constant(self):
        assert communication_complexity(tm_from([[1, 1], [1, 1]])) == 0
        assert communication_complexity(tm_from([[0]])) == 0

    def test_and_function(self):
        # AND truth matrix [[0,0],[0,1]]: D = 2.
        assert communication_complexity(tm_from([[0, 0], [0, 1]])) == 2

    def test_xor_function(self):
        assert communication_complexity(tm_from([[0, 1], [1, 0]])) == 2

    def test_eq_on_k_values(self):
        # EQ over 2^b values needs b + 1 bits.
        assert communication_complexity(eq_matrix(2)) == 2
        assert communication_complexity(eq_matrix(4)) == 3
        assert communication_complexity(eq_matrix(8)) == 4

    def test_gt(self):
        assert communication_complexity(gt_matrix(4)) == 3

    def test_one_row_matrix(self):
        # Agent 0's input is irrelevant; agent 1 announces the column class.
        assert communication_complexity(tm_from([[0, 1, 1, 0]])) == 1

    def test_from_function_wrapper(self):
        p = Partition(2, frozenset({0}))
        assert deterministic_cc_of_function(
            lambda bits: bits[0] ^ bits[1], p
        ) == 2

    def test_size_guard(self):
        # The pruned search affords 18 rows/columns by default...
        big = tm_from(np.eye(19, dtype=np.uint8))
        with pytest.raises(ValueError):
            communication_complexity(big)
        # ...and an explicit limit overrides the default.
        with pytest.raises(ValueError):
            communication_complexity(tm_from(np.eye(5, dtype=np.uint8)), limit=4)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrix_is_rejected(self, shape):
        # An empty matrix has no leaf to reach, so no search could end.
        tm = tm_from(np.zeros(shape, dtype=np.uint8))
        for query in (communication_complexity, optimal_protocol_tree,
                      partition_number):
            with pytest.raises(ValueError, match="non-empty"):
                query(tm)


class TestDedupe:
    def test_removes_duplicates(self):
        tm = tm_from([[1, 0, 1], [1, 0, 1], [0, 1, 0]])
        reduced = dedupe(tm)
        assert reduced.shape == (2, 2)

    def test_preserves_complexity(self):
        tm = tm_from([[1, 0], [1, 0], [0, 1]])
        assert communication_complexity(tm) == communication_complexity(dedupe(tm))


class TestOptimalTree:
    def test_tree_cost_matches_dp(self):
        for tm in (eq_matrix(4), gt_matrix(4), tm_from([[0, 0], [0, 1]])):
            cost, tree = optimal_protocol_tree(tm)
            assert cost == communication_complexity(tm)
            assert tree.depth() == cost

    def test_tree_computes_the_function(self):
        tm = eq_matrix(4)
        cost, tree = optimal_protocol_tree(tm)
        for i, rl in enumerate(tm.row_labels):
            for j, cl in enumerate(tm.col_labels):
                assert tree.evaluate(rl, cl)[0] == tm.data[i, j]

    def test_compiled_tree_measures_cost(self):
        tm = gt_matrix(4)
        cost, tree = optimal_protocol_tree(tm)
        protocol = tree.compile()
        worst = max(
            protocol.cost(rl, cl)
            for rl in tm.row_labels
            for cl in tm.col_labels
        )
        assert worst == cost

    def test_tree_accepts_duplicate_labels(self):
        tm = tm_from([[1, 0], [1, 0], [0, 1]])
        cost, tree = optimal_protocol_tree(tm)
        for i, rl in enumerate(tm.row_labels):
            for j, cl in enumerate(tm.col_labels):
                assert tree.evaluate(rl, cl)[0] == tm.data[i, j]


class TestSharedSearch:
    def test_tree_after_cc_costs_no_new_subproblems(self):
        """The bugfix this suite pins down: D(f) followed by the tree used
        to run the exponential DP twice; now the tree is a walk over the
        first search's memo.  The obs counter is the proof."""
        from repro import obs
        from repro.comm import exhaustive

        tm = gt_matrix(6)
        exhaustive._SEARCH_CACHE.clear()
        with obs.scoped():
            communication_complexity(tm)
            first = obs.snapshot()["counters"]["exhaustive.subproblems"]
            assert first > 0
            cost, tree = optimal_protocol_tree(tm)
            second = obs.snapshot()["counters"]["exhaustive.subproblems"]
        # The tree query may touch at most a handful of subrectangles the
        # cost query pruned past (children along non-optimal branches are
        # never needed); in practice it re-solves nothing.
        assert second == first
        assert tree.depth() == cost

    def test_repeated_cc_queries_hit_the_cache(self):
        from repro import obs
        from repro.comm import exhaustive

        tm = eq_matrix(6)
        exhaustive._SEARCH_CACHE.clear()
        with obs.scoped():
            communication_complexity(tm)
            first = obs.snapshot()["counters"]["exhaustive.subproblems"]
            communication_complexity(tm)
            assert obs.snapshot()["counters"]["exhaustive.subproblems"] == first

    def test_query_after_clear_is_cold_again(self):
        """Every content-keyed memo of the search (subproblems, canonical
        views) lives on the search object, so after ``clear_search_cache()``
        the same query misses the LRU and redoes exactly the same work."""
        from repro import obs
        from repro.comm import exhaustive

        tm = tm_from(ReproducibleRNG(7).kbit_matrix(7, 7, 1))
        runs = []
        for _run in range(2):
            exhaustive.clear_search_cache()
            with obs.scoped():
                answer = (communication_complexity(tm), partition_number(tm))
                runs.append((answer, obs.snapshot()["counters"]))
        (first_answer, first), (second_answer, second) = runs
        assert second_answer == first_answer
        assert first["exhaustive.search_cache.misses"] == 1
        assert second["exhaustive.search_cache.misses"] == 1
        assert second["exhaustive.subproblems"] == first["exhaustive.subproblems"] > 0
        assert second["exhaustive.pruned"] == first["exhaustive.pruned"]

    def test_searches_left_behind_keep_only_their_answers(self):
        """A new matrix compacts the cached searches: their canonical-form
        caches go, their answers stay, so coming back costs no new
        subproblems and gives the same answers and tree."""
        from repro import obs
        from repro.comm import exhaustive

        tm = gt_matrix(6)
        exhaustive.clear_search_cache()
        first = (communication_complexity(tm), partition_number(tm),
                 optimal_protocol_tree(tm)[1].depth())
        (search,) = exhaustive._SEARCH_CACHE.values()
        assert search._canon_cache and search._views
        communication_complexity(eq_matrix(5))
        assert not search._canon_cache and not search._views
        with obs.scoped():
            again = (communication_complexity(tm), partition_number(tm),
                     optimal_protocol_tree(tm)[1].depth())
            counters = obs.snapshot()["counters"]
        assert again == first
        assert counters.get("exhaustive.subproblems", 0) == 0

    def test_cache_bounded(self):
        from repro.comm import exhaustive

        exhaustive._SEARCH_CACHE.clear()
        for i in range(exhaustive._SEARCH_CACHE_LIMIT + 8):
            tm = tm_from([[1 if j == i % 3 else 0 for j in range(3)], [0, 1, 1]])
            communication_complexity(tm)
        assert len(exhaustive._SEARCH_CACHE) <= exhaustive._SEARCH_CACHE_LIMIT
        assert exhaustive.search_cache_stats()["limit"] == 64


class TestPartitionNumber:
    def test_constant(self):
        assert partition_number(tm_from([[1, 1], [1, 1]])) == 1

    def test_xor(self):
        assert partition_number(tm_from([[0, 1], [1, 0]])) == 4

    def test_eq4(self):
        # EQ on 4 values: 4 diagonal 1-rectangles + covering the 0s.
        d = partition_number(eq_matrix(4))
        assert d >= truth_matrix_rank(eq_matrix(4))
        assert communication_complexity(eq_matrix(4)) >= yao_bound(d)

    def test_sandwich_with_cc(self):
        # log2(d) <= D <= d - 1 roughly; check log2 d <= D on samples.
        import math

        for tm in (eq_matrix(4), gt_matrix(4)):
            d = partition_number(tm)
            assert communication_complexity(tm) >= math.log2(d) - 2


class TestYaoOnExactValues:
    def test_yao_bound_is_a_true_lower_bound(self):
        for tm in (eq_matrix(4), gt_matrix(4), tm_from([[0, 0], [0, 1]])):
            d = partition_number(tm)
            assert communication_complexity(tm) >= yao_bound(d)
