"""Tests for rational and fraction-free elimination."""

from fractions import Fraction

import pytest

from repro.exact.elimination import bareiss_echelon, row_echelon, rref
from repro.exact.matrix import Matrix
from repro.util.rng import ReproducibleRNG
from tests.exact.oracles import elimination_agreement


class TestRowEchelon:
    def test_identity_unchanged(self):
        ech = row_echelon(Matrix.identity(3))
        assert ech.rank == 3
        assert ech.pivot_cols == (0, 1, 2)
        assert ech.det_sign_flips == 0

    def test_zero_matrix(self):
        ech = row_echelon(Matrix.zeros(3, 3))
        assert ech.rank == 0
        assert ech.pivot_cols == ()

    def test_known_rank(self):
        m = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert row_echelon(m).rank == 2

    def test_echelon_shape(self):
        m = Matrix([[0, 2], [3, 4]])
        ech = row_echelon(m)
        # Below each pivot the column is zero.
        for i, col in enumerate(ech.pivot_cols):
            for r in range(i + 1, m.num_rows):
                assert ech.matrix[r, col] == 0

    def test_row_permutation_tracks_swaps(self):
        m = Matrix([[0, 1], [1, 0]])
        ech = row_echelon(m)
        assert ech.det_sign_flips == 1
        assert sorted(ech.row_permutation) == [0, 1]

    def test_wide_and_tall(self):
        wide = Matrix([[1, 2, 3, 4]])
        assert row_echelon(wide).rank == 1
        tall = Matrix([[1], [2], [3]])
        assert row_echelon(tall).rank == 1


class TestRREF:
    def test_unit_pivots(self):
        m = Matrix([[2, 4], [1, 3]])
        red = rref(m)
        for i, col in enumerate(red.pivot_cols):
            assert red.matrix[i, col] == 1
            for r in range(m.num_rows):
                if r != i:
                    assert red.matrix[r, col] == 0

    def test_canonical_for_row_equivalent(self):
        m = Matrix([[1, 2], [3, 4]])
        scrambled = m.permute_rows([1, 0])
        assert rref(m).matrix == rref(scrambled).matrix

    def test_idempotent(self):
        m = Matrix([[1, 2, 1], [0, 1, 3]])
        once = rref(m).matrix
        assert rref(once).matrix == once


class TestBareiss:
    def test_matches_rational_rank(self):
        rng = ReproducibleRNG(0)
        for _ in range(30):
            m = Matrix.random_kbit(rng, 4, 4, 3)
            assert bareiss_echelon(m).rank == row_echelon(m).rank

    def test_agreement_helper(self):
        rng = ReproducibleRNG(1)
        for _ in range(20):
            assert elimination_agreement(Matrix.random_kbit(rng, 3, 5, 2))

    def test_agreement_rejects_rational(self):
        with pytest.raises(ValueError):
            elimination_agreement(Matrix([[Fraction(1, 2)]]))

    def test_entries_stay_integral(self):
        rng = ReproducibleRNG(2)
        m = Matrix.random_kbit(rng, 5, 5, 4)
        form = bareiss_echelon(m)
        assert form.matrix.is_integer()

    def test_last_pivot_is_determinant_magnitude(self):
        m = Matrix([[2, 1], [1, 2]])  # det 3
        form = bareiss_echelon(m)
        sign = -1 if form.det_sign_flips % 2 else 1
        assert sign * form.last_pivot == 3

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            bareiss_echelon(Matrix([[Fraction(1, 3)]]))
