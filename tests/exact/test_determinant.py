"""Tests for the determinant engines (three-way oracle + bounds).

The cofactor and CRT references come from ``tests/exact/oracles.py``.
"""

from fractions import Fraction

import pytest

from repro.exact.determinant import (
    bareiss_determinant,
    determinant,
    hadamard_bound,
    hadamard_bound_kbit,
    rational_determinant,
)
from repro.exact.matrix import Matrix
from repro.util.rng import ReproducibleRNG
from tests.exact.oracles import (
    cofactor_determinant,
    crt_determinant,
    primes_for_crt_bound,
)


class TestEnginesAgree:
    def test_three_way_oracle_random(self):
        rng = ReproducibleRNG(0)
        for _ in range(25):
            m = Matrix.random_kbit(rng, 4, 4, 3)
            reference = cofactor_determinant(m)
            assert bareiss_determinant(m) == reference
            assert rational_determinant(m) == reference
            assert determinant(m) == reference

    def test_rational_entries(self):
        m = Matrix([[Fraction(1, 2), 1], [1, Fraction(1, 2)]])
        assert determinant(m) == Fraction(-3, 4)
        assert rational_determinant(m) == cofactor_determinant(m)

    def test_known_values(self):
        assert determinant(Matrix.identity(4)) == 1
        assert determinant(Matrix([[1, 2], [2, 4]])) == 0
        assert determinant(Matrix([[0, 1], [1, 0]])) == -1

    def test_multiplicativity(self):
        rng = ReproducibleRNG(1)
        a = Matrix.random_kbit(rng, 3, 3, 2)
        b = Matrix.random_kbit(rng, 3, 3, 2)
        assert determinant(a @ b) == determinant(a) * determinant(b)

    def test_transpose_invariance(self):
        rng = ReproducibleRNG(2)
        m = Matrix.random_kbit(rng, 4, 4, 2)
        assert determinant(m) == determinant(m.T)

    def test_row_swap_flips_sign(self):
        m = Matrix([[1, 2, 0], [0, 1, 3], [2, 0, 1]])
        assert determinant(m.swap_rows(0, 2)) == -determinant(m)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            determinant(Matrix([[1, 2]]))
        with pytest.raises(ValueError):
            bareiss_determinant(Matrix([[1, 2]]))

    def test_cofactor_size_guard(self):
        with pytest.raises(ValueError):
            cofactor_determinant(Matrix.identity(11))


class TestHadamardBound:
    def test_bounds_actual_determinant(self):
        rng = ReproducibleRNG(3)
        for _ in range(20):
            m = Matrix.random_kbit(rng, 4, 4, 3)
            assert abs(determinant(m)) <= hadamard_bound(m)

    def test_zero_row_gives_zero(self):
        m = Matrix([[0, 0], [1, 1]])
        assert hadamard_bound(m) == 0

    def test_closed_form_dominates(self):
        rng = ReproducibleRNG(4)
        for _ in range(10):
            m = Matrix.random_kbit(rng, 3, 3, 2)
            assert hadamard_bound(m) <= hadamard_bound_kbit(3, 2)

    def test_closed_form_values(self):
        # 1x1 of k-bit: bound = q * 1
        assert hadamard_bound_kbit(1, 3) == 7
        with pytest.raises(ValueError):
            hadamard_bound_kbit(0, 1)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            hadamard_bound(Matrix([[1, 2]]))


class TestCRTDeterminant:
    def test_matches_exact(self):
        rng = ReproducibleRNG(5)
        for _ in range(10):
            m = Matrix.random_kbit(rng, 4, 4, 4)
            primes = primes_for_crt_bound(hadamard_bound(m))
            assert crt_determinant(m, primes) == bareiss_determinant(m)

    def test_negative_determinant_lifts_correctly(self):
        m = Matrix([[0, 1], [1, 0]])  # det -1
        primes = primes_for_crt_bound(hadamard_bound(m))
        assert crt_determinant(m, primes) == -1

    def test_insufficient_primes_rejected(self):
        m = Matrix([[100, 1], [1, 100]])
        with pytest.raises(ValueError):
            crt_determinant(m, [3])
