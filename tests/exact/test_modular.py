"""Tests for mod-p arithmetic (the randomized protocol's substrate).

The determinant-mod-p, ``solve_mod`` and CRT tests check the reference
engines of ``tests/exact/oracles.py``, which the determinant and
solvability checks lean on.
"""

import pytest

from repro.exact.determinant import bareiss_determinant
from repro.exact.matrix import Matrix
from repro.exact.modular import (
    count_primes_with_bits,
    is_prime,
    is_singular_mod,
    next_prime,
    primes_in_range,
    random_prime_with_bits,
    rank_mod,
)
from repro.exact.rank import is_singular, rank
from repro.exact.solve import is_solvable
from repro.exact.vector import Vector
from repro.util.rng import ReproducibleRNG
from tests.exact.oracles import (
    crt_combine,
    det_mod,
    primes_for_crt_bound,
    solve_mod,
)


class TestPrimes:
    def test_small_primes(self):
        assert [p for p in range(30) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_carmichael_not_prime(self):
        assert not is_prime(561)
        assert not is_prime(1729)

    def test_large_known_prime(self):
        assert is_prime(2**31 - 1)  # Mersenne
        assert not is_prime(2**32 - 1)

    def test_next_prime(self):
        assert next_prime(14) == 17
        assert next_prime(17) == 17
        assert next_prime(0) == 2

    def test_primes_in_range(self):
        assert primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]
        assert primes_in_range(30, 10) == []

    def test_random_prime_bits(self):
        rng = ReproducibleRNG(0)
        for bits in (4, 8, 16):
            p = random_prime_with_bits(rng, bits)
            assert is_prime(p)
            assert p.bit_length() == bits
        with pytest.raises(ValueError):
            random_prime_with_bits(rng, 1)

    def test_count_primes_with_bits_exact(self):
        # primes in [8, 16): 11, 13
        assert count_primes_with_bits(4) == 2
        # primes in [4, 8): 5, 7
        assert count_primes_with_bits(3) == 2


class TestModularLinearAlgebra:
    def test_rank_mod_never_exceeds(self):
        rng = ReproducibleRNG(1)
        for _ in range(20):
            m = Matrix.random_kbit(rng, 4, 4, 3)
            assert rank_mod(m.to_int_rows(), 10007) <= rank(m)

    def test_det_mod_matches_exact(self):
        rng = ReproducibleRNG(2)
        for _ in range(25):
            m = Matrix.random_kbit(rng, 4, 4, 3)
            p = 10007
            assert det_mod(m.to_int_rows(), p) == bareiss_determinant(m) % p

    def test_det_mod_with_swaps(self):
        m = Matrix([[0, 1], [1, 0]])
        assert det_mod(m.to_int_rows(), 7) == (-1) % 7

    def test_det_mod_rows_wire_format(self):
        assert det_mod([[0, 1], [1, 0]], 7) == (-1) % 7

    def test_det_mod_requires_prime(self):
        with pytest.raises(ValueError):
            det_mod([[1]], 4)
        with pytest.raises(ValueError):
            det_mod([[1]], -3)

    def test_det_mod_requires_square(self):
        with pytest.raises(ValueError):
            det_mod([[1, 2]], 7)

    def test_singular_mod_one_sided(self):
        # Singular over Q => singular mod every p.
        rng = ReproducibleRNG(3)
        m = Matrix([[1, 2], [2, 4]])
        for p in (3, 7, 101, 10007):
            assert is_singular_mod(m.to_int_rows(), p)

    def test_unlucky_prime_false_positive(self):
        # det = 7: singular mod 7 but not over Q — the protocol's error mode.
        m = Matrix([[7, 0], [0, 1]])
        assert not is_singular(m)
        assert is_singular_mod(m.to_int_rows(), 7)
        assert not is_singular_mod(m.to_int_rows(), 11)

    def test_rank_mod_rejects_bad_modulus(self):
        for p in (6, 1, -7):
            with pytest.raises(ValueError):
                rank_mod([[1]], p)
        with pytest.raises(ValueError):
            rank_mod([], 7)

    def test_singular_mod_requires_square(self):
        # A 2x3 has no determinant: neither "singular" nor "nonsingular".
        with pytest.raises(ValueError, match="square"):
            is_singular_mod([[1, 0, 0], [0, 1, 0]], 7)
        with pytest.raises(ValueError, match="square"):
            is_singular_mod([[1, 0], [0, 1], [0, 0]], 7)

    def test_solve_mod_agrees_with_exact_solvability(self):
        rng = ReproducibleRNG(4)
        p = 10007
        for _ in range(20):
            a = Matrix.random_kbit(rng, 3, 3, 2)
            b = [rng.kbit_entry(2) for _ in range(3)]
            x = solve_mod(a.to_int_rows(), b, p)
            if is_solvable(a, Vector(b)):
                assert x is not None
                # Verify the residue solution.
                rows = a.to_int_rows()
                for i in range(3):
                    assert sum(rows[i][j] * x[j] for j in range(3)) % p == b[i] % p

    def test_solve_mod_inconsistent(self):
        assert solve_mod([[1, 1], [1, 1]], [0, 1], 7) is None

    def test_solve_mod_length_check(self):
        with pytest.raises(ValueError):
            solve_mod([[1, 1]], [1, 2], 7)


class TestCRT:
    def test_combine_known(self):
        # x = 2 mod 3, x = 3 mod 5 -> x = 8 mod 15
        assert crt_combine([2, 3], [3, 5]) == 8

    def test_combine_roundtrip(self):
        value = 123456789
        moduli = [10007, 10009, 10037]
        residues = [value % m for m in moduli]
        assert crt_combine(residues, moduli) == value

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            crt_combine([1, 2], [6, 9])

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            crt_combine([1], [3, 5])

    def test_primes_for_crt_bound(self):
        primes = primes_for_crt_bound(10**12)
        product = 1
        for p in primes:
            assert is_prime(p)
            product *= p
        assert product > 2 * 10**12
