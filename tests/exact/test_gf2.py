"""Tests for GF(2) bitset linear algebra."""

import numpy as np
import pytest

from repro.exact.gf2 import (
    gf2_rank,
    gf2_rank_of_truth_matrix,
    pack_numpy,
    pack_rows,
)
from repro.comm.truth_matrix import TruthMatrix
from repro.exact.matrix import Matrix
from repro.exact.modular import rank_mod
from repro.util.rng import ReproducibleRNG


class TestPacking:
    def test_pack_rows(self):
        packed, width = pack_rows([[1, 0, 1], [0, 1, 0]])
        assert width == 3
        assert packed == [0b101, 0b010]

    def test_pack_validation(self):
        with pytest.raises(ValueError):
            pack_rows([])
        with pytest.raises(ValueError):
            pack_rows([[1, 0], [1]])
        with pytest.raises(ValueError):
            pack_rows([[2]])

    def test_pack_numpy_matches(self):
        rng = ReproducibleRNG(0)
        data = np.array(
            [[rng.randrange(2) for _ in range(70)] for _ in range(5)],
            dtype=np.uint8,
        )
        slow, w1 = pack_rows(data.tolist())
        fast, w2 = pack_numpy(data)
        assert slow == fast and w1 == w2 == 70


class TestRank:
    def test_known_values(self):
        assert gf2_rank(pack_rows([[1, 0], [0, 1]])[0]) == 2
        assert gf2_rank(pack_rows([[1, 1], [1, 1]])[0]) == 1
        assert gf2_rank(pack_rows([[0, 0], [0, 0]])[0]) == 0

    def test_xor_dependence(self):
        # row3 = row1 XOR row2
        assert gf2_rank(pack_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])[0]) == 2

    def test_agrees_with_rank_mod_2(self):
        rng = ReproducibleRNG(1)
        for _ in range(20):
            rows = [[rng.randrange(2) for _ in range(6)] for _ in range(6)]
            assert gf2_rank(pack_rows(rows)[0]) == rank_mod(rows, 2)

    def test_gf2_rank_lower_bounds_rational(self):
        rng = ReproducibleRNG(2)
        from repro.exact.rank import rank as rational_rank

        for _ in range(15):
            rows = [[rng.randrange(2) for _ in range(5)] for _ in range(5)]
            assert gf2_rank(pack_rows(rows)[0]) <= rational_rank(Matrix(rows))

    def test_truth_matrix_interface(self):
        tm = TruthMatrix(np.eye(8, dtype=np.uint8), tuple(range(8)), tuple(range(8)))
        assert gf2_rank_of_truth_matrix(tm) == 8

    def test_large_identity_fast(self):
        tm = TruthMatrix(
            np.eye(1024, dtype=np.uint8), tuple(range(1024)), tuple(range(1024))
        )
        assert gf2_rank_of_truth_matrix(tm) == 1024
