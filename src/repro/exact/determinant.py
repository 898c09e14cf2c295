"""Exact determinants: Bareiss and rational elimination, plus Hadamard bounds.

:func:`determinant` routes integer matrices through fraction-free Bareiss
and rational ones through rational elimination.  The Hadamard bound is the
mathematics behind the randomized fingerprinting protocol (Leighton's
O(n² max(log n, log k)) upper bound contrasted in the paper's introduction):
``det(M) mod p`` for a random prime ``p`` is a cheap fingerprint of
singularity because a nonzero determinant is divisible by few primes.
The cofactor and CRT reference engines the tests check these against live
in ``tests/exact/oracles.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.exact.elimination import bareiss_echelon, row_echelon
from repro.exact.matrix import Matrix


def determinant(m: Matrix) -> Fraction:
    """The determinant, via the engine best suited to the entries.

    Integer matrices go through fraction-free Bareiss; rational ones through
    rational elimination.
    """
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    if m.is_integer():
        return Fraction(bareiss_determinant(m))
    return rational_determinant(m)


def bareiss_determinant(m: Matrix) -> int:
    """Determinant of an integer matrix by fraction-free elimination.

    The last Bareiss pivot of a full-rank square matrix *is* the determinant
    up to the sign of the row swaps.
    """
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    form = bareiss_echelon(m)
    if form.rank < m.num_rows:
        return 0
    sign = -1 if form.det_sign_flips % 2 else 1
    return sign * form.last_pivot


def rational_determinant(m: Matrix) -> Fraction:
    """Determinant over ℚ as the product of echelon pivots."""
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    ech = row_echelon(m)
    if ech.rank < m.num_rows:
        return Fraction(0)
    det = Fraction(1)
    for i, col in enumerate(ech.pivot_cols):
        det *= ech.matrix[i, col]
    if ech.det_sign_flips % 2:
        det = -det
    return det


def hadamard_bound(m: Matrix) -> int:
    """An integer upper bound on ``|det(m)|`` (Hadamard's inequality).

    ``|det| <= prod_i ||row_i||_2``.  For a matrix of k-bit entries this is
    at most ``(2^k - 1)^n * n^{n/2}``; the fingerprinting protocol uses it to
    bound how many primes can divide a nonzero determinant.
    """
    if not m.is_square:
        raise ValueError("Hadamard bound needs a square matrix")
    bound = Fraction(1)
    for i in range(m.num_rows):
        norm_sq = sum((x * x for x in m.row(i)), Fraction(0))
        if norm_sq == 0:
            return 0
        bound *= norm_sq
    # bound now holds prod ||row||^2; we need ceil(sqrt(bound)).
    return _isqrt_ceil(math.ceil(bound))


def hadamard_bound_kbit(n: int, k: int) -> int:
    """Closed-form Hadamard bound for an n×n matrix of k-bit entries.

    Every entry lies in ``[0, 2^k - 1]``, so each row's 2-norm is at most
    ``(2^k - 1) * sqrt(n)``.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    q = (1 << k) - 1
    # (q * sqrt(n))^n = q^n * n^(n/2); take ceil of the half power exactly.
    base = q**n
    if n % 2 == 0:
        return base * n ** (n // 2)
    return base * n ** (n // 2) * _isqrt_ceil(n)


def _isqrt_ceil(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1
