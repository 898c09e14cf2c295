"""Tests for rank, singularity and rank certificates.

The certificate comes from ``tests/exact/oracles.py``.
"""

from fractions import Fraction

import pytest

from repro.exact.determinant import determinant
from repro.exact.matrix import Matrix
from repro.exact.modular import next_prime, rank_mod
from repro.exact.rank import (
    column_space_contains,
    has_rank,
    is_nonsingular,
    is_singular,
    rank,
    rank_profile,
    row_rank_profile,
)
from repro.exact.vector import Vector
from repro.util.rng import ReproducibleRNG
from tests.exact.oracles import rank_certified


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(5)) == 5

    def test_zero(self):
        assert rank(Matrix.zeros(3, 4)) == 0

    def test_rational_entries(self):
        assert rank(Matrix([[Fraction(1, 2), 1], [1, 2]])) == 1

    def test_rank_of_outer_product_is_one(self):
        u = [1, 2, 3]
        v = [4, 5, 6]
        m = Matrix.from_function(3, 3, lambda i, j: u[i] * v[j])
        assert rank(m) == 1

    def test_rank_transpose_invariant(self):
        rng = ReproducibleRNG(0)
        for _ in range(15):
            m = Matrix.random_kbit(rng, 3, 5, 2)
            assert rank(m) == rank(m.T)

    def test_rank_subadditive(self):
        rng = ReproducibleRNG(1)
        a = Matrix.random_kbit(rng, 4, 4, 2)
        b = Matrix.random_kbit(rng, 4, 4, 2)
        assert rank(a + b) <= rank(a) + rank(b)

    def test_product_rank_bounded(self):
        rng = ReproducibleRNG(2)
        a = Matrix.random_kbit(rng, 4, 4, 2)
        b = Matrix.random_kbit(rng, 4, 4, 2)
        assert rank(a @ b) <= min(rank(a), rank(b))


class TestSingularity:
    def test_matches_determinant(self):
        rng = ReproducibleRNG(3)
        for _ in range(25):
            m = Matrix.random_kbit(rng, 4, 4, 2)
            assert is_singular(m) == (determinant(m) == 0)
            assert is_nonsingular(m) == (not is_singular(m))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            is_singular(Matrix([[1, 2]]))

    def test_duplicate_column_singular(self):
        m = Matrix([[1, 1, 0], [2, 2, 1], [3, 3, 5]])
        assert is_singular(m)

    def test_has_rank(self):
        assert has_rank(Matrix.identity(3), 3)
        assert not has_rank(Matrix.identity(3), 2)
        with pytest.raises(ValueError):
            has_rank(Matrix.identity(2), -1)


class TestRankProfiles:
    def test_pivot_columns_lexicographically_first(self):
        m = Matrix([[0, 1, 1], [0, 2, 3]])
        assert rank_profile(m) == (1, 2)

    def test_row_profile(self):
        m = Matrix([[0, 0], [1, 0], [2, 0]])
        assert row_rank_profile(m) == (1,)

    def test_certified_rank_witness(self):
        rng = ReproducibleRNG(4)
        for _ in range(10):
            m = Matrix.random_kbit(rng, 4, 5, 2)
            r, rows, cols = rank_certified(m)
            assert r == rank(m)
            if r:
                witness = m.submatrix(rows, cols)
                assert determinant(witness) != 0

    def test_certified_zero_matrix(self):
        assert rank_certified(Matrix.zeros(2, 2)) == (0, (), ())


#: The first prime above 2^31: past the NumPy kernels' cap, so only the
#: scalar GF(p) engine can rank over it.
_BIG_PRIME = next_prime(1 << 31)


class TestModularLowerBound:
    def test_never_exceeds_true_rank(self):
        rng = ReproducibleRNG(5)
        for _ in range(15):
            m = Matrix.random_kbit(rng, 4, 4, 3)
            assert rank_mod(m.to_int_rows(), _BIG_PRIME) <= rank(m)

    def test_usually_tight(self):
        rng = ReproducibleRNG(6)
        hits = sum(
            rank_mod(m.to_int_rows(), _BIG_PRIME) == rank(m)
            for m in (Matrix.random_kbit(rng, 4, 4, 3) for _ in range(20))
        )
        assert hits == 20  # a 31-bit prime never divides these tiny minors


class TestColumnSpaceContains:
    def test_column_itself(self):
        m = Matrix([[1, 0], [0, 1], [1, 1]])
        assert column_space_contains(m, Vector([1, 0, 1]))

    def test_outside_vector(self):
        m = Matrix([[1], [0], [0]])
        assert not column_space_contains(m, Vector([0, 1, 0]))

    def test_zero_vector_always_inside(self):
        m = Matrix([[1], [2], [3]])
        assert column_space_contains(m, Vector([0, 0, 0]))

    def test_length_check(self):
        with pytest.raises(ValueError):
            column_space_contains(Matrix([[1], [2]]), Vector([1, 2, 3]))
