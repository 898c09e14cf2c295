"""Oracle tests for the truth builder's GF(p) kernels (repro.exact.modnp).

Each kernel is checked against an independent engine: the echelon rank
against the scalar GF(p) engine :func:`repro.exact.modular.rank_mod`, and
span membership against the exact :class:`~repro.exact.span.Subspace`.
The fingerprint decision, which runs on that scalar engine at any prime,
is held to the echelon rank where both apply.
"""

import numpy as np
import pytest

from repro.exact import modnp
from repro.exact.matrix import Matrix
from repro.exact.modular import is_prime, is_singular_mod, rank_mod
from repro.exact.span import Subspace
from repro.exact.vector import Vector
from repro.util.rng import ReproducibleRNG

PRIMES = (2, 3, 10007, modnp.DEFAULT_PRIME)


def random_rows(rng, n_rows, n_cols, lo=-50, hi=50):
    return [
        [rng.randrange(lo, hi) for _ in range(n_cols)] for _ in range(n_rows)
    ]


class TestValidation:
    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError, match="prime"):
            modnp.echelon_mod([[1]], 6)
        with pytest.raises(ValueError, match="prime"):
            modnp.span_membership_batch([[1]], [[1]], 6)

    def test_rejects_negative_modulus(self):
        with pytest.raises(ValueError, match="prime"):
            modnp.echelon_mod([[1]], -7)
        with pytest.raises(ValueError, match="prime"):
            modnp.span_membership_batch([[1]], [[1]], -7)

    def test_rejects_oversized_prime(self):
        big = 2305843009213693951  # Mersenne prime 2^61 - 1, way over 2^31
        with pytest.raises(ValueError, match="2\\^31"):
            modnp.echelon_mod([[1]], big)
        with pytest.raises(ValueError, match="2\\^31"):
            modnp.span_membership_batch([[1]], [[1]], big)

    def test_default_prime_fits_kernel(self):
        assert modnp.DEFAULT_PRIME < modnp.MAX_MODULUS

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            modnp.as_residues([], 7)


class TestAsResidues:
    def test_huge_python_ints_reduced_exactly(self):
        # Entries like q^n overflow any fixed dtype; the reduction must
        # happen in exact Python arithmetic first.
        big = 12345678901234567890123456789
        p = 10007
        out = modnp.as_residues([[big, -big]], p)
        assert out.dtype == np.uint64
        assert int(out[0, 0]) == big % p
        assert int(out[0, 1]) == (-big) % p

    def test_accepts_matrix(self):
        m = Matrix([[1, 2], [3, 4]])
        out = modnp.as_residues(m, 7)
        assert out.tolist() == [[1, 2], [3, 4]]

    def test_accepts_numpy_and_copies(self):
        src = np.array([[5, 9]], dtype=np.int64)
        out = modnp.as_residues(src, 7)
        assert out.tolist() == [[5, 2]]
        out[0, 0] = 0
        assert src[0, 0] == 5  # caller's array untouched


class TestRankOracle:
    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_pure_python(self, p):
        rng = ReproducibleRNG(p)
        for _ in range(15):
            rows = random_rows(rng, rng.randrange(1, 6), rng.randrange(1, 6))
            assert len(modnp.echelon_mod(rows, p)[1]) == rank_mod(rows, p)

    def test_echelon_shape_contract(self):
        ech, pivots = modnp.echelon_mod([[2, 4], [1, 2], [0, 1]], 7)
        assert pivots == [0, 1]
        # Unit pivots, zeros below.
        assert ech[0, 0] == 1 and ech[1, pivots[1]] == 1
        assert ech[1, 0] == 0 and ech[2, 0] == 0


class TestSpanMembership:
    def test_matches_exact_subspace(self):
        rng = ReproducibleRNG(5)
        p = modnp.DEFAULT_PRIME
        for _ in range(10):
            dim, amb = 2, 4
            basis = random_rows(rng, dim, amb, lo=-9, hi=9)
            span = Subspace.span([Vector(r) for r in basis])
            queries = random_rows(rng, 12, amb, lo=-9, hi=9)
            # Members: random combinations of the basis.
            members = [
                [
                    sum(c * row[j] for c, row in zip(coeffs, basis))
                    for j in range(amb)
                ]
                for coeffs in (
                    [rng.randrange(-4, 5) for _ in range(dim)]
                    for _ in range(6)
                )
            ]
            verdict = modnp.span_membership_batch(
                basis, members + queries, p
            )
            exact = [Vector(v) in span for v in members + queries]
            # Soundness direction: exact members are always mod-p members.
            for got, truth in zip(verdict, exact):
                if truth:
                    assert got
            # At a 2^31-scale prime, no false positives in practice either.
            assert verdict.tolist() == exact

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            modnp.span_membership_batch([[1, 0]], [[1, 0, 0]], 7)


class TestFingerprintDispatch:
    def test_small_prime_agrees_with_python(self):
        # Below 2^31 the fingerprint decision agrees with the echelon rank.
        rng = ReproducibleRNG(10007)
        for _ in range(15):
            n = rng.randrange(1, 6)
            rows = random_rows(rng, n, n, lo=-3, hi=4)
            expected = len(modnp.echelon_mod(rows, 10007)[1]) < n
            assert is_singular_mod(rows, 10007) == expected
        assert is_singular_mod([[1, 2], [2, 4]], 10007)
        assert not is_singular_mod([[1, 0], [0, 1]], 10007)

    def test_oversized_prime_falls_back(self):
        # A 33-bit prime (what default_prime_bits can produce at n=255):
        # modnp refuses it, the scalar engine decides it.
        p = 8589934609
        assert is_prime(p)
        with pytest.raises(ValueError, match="2\\^31"):
            modnp.echelon_mod([[1, 2], [2, 4]], p)
        assert is_singular_mod([[1, 2], [2, 4]], p)
        assert not is_singular_mod([[1, 0], [0, 1]], p)
