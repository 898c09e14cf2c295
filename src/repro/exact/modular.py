"""Arithmetic mod p: primes, prime sampling, and the scalar GF(p) engine.

This is the number-theoretic substrate of the *randomized* side of the paper:
Leighton's O(n² max(log n, log k)) protocol reduces each agent's entries mod
a public random prime of Θ(max(log n, log k)) bits and decides singularity of
the reduced matrix.  :func:`rank_mod` and :func:`is_singular_mod` are the
only single-matrix GF(p) kernels in the package; they take any prime and
work on plain ``list[list[int]]``, so the protocol agents run them on
wire-format data without constructing :class:`~repro.exact.matrix.Matrix`
objects.  (The NumPy kernels of :mod:`repro.exact.modnp` serve only the
truth builder's batch filter.)
"""

from __future__ import annotations

import math
from collections.abc import Sequence


# ----------------------------------------------------------------------
# Primality and prime sampling
# ----------------------------------------------------------------------
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin, exact for all 64-bit inputs and reliable
    far beyond (uses the standard deterministic witness set).

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The smallest prime ``>= n``."""
    if n <= 2:
        return 2
    candidate = n | 1  # first odd >= n
    while not is_prime(candidate):
        candidate += 2
    return candidate


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in ``[lo, hi)`` (simple sieve; fine for protocol-sized ranges)."""
    if hi <= 2 or hi <= lo:
        return []
    lo = max(lo, 2)
    sieve = bytearray([1]) * (hi - lo)
    for p in range(2, math.isqrt(hi - 1) + 1):
        start = max(p * p, (lo + p - 1) // p * p)
        for multiple in range(start, hi, p):
            sieve[multiple - lo] = 0
    return [lo + i for i, flag in enumerate(sieve) if flag]


def random_prime_with_bits(rng, bits: int) -> int:
    """A uniform-ish prime with exactly ``bits`` bits (top bit set).

    Rejection sampling over odd ``bits``-bit integers; for protocol purposes
    uniformity over the prime set is unnecessary — only that the draw covers
    enough primes that a fixed nonzero determinant rarely vanishes mod p.
    """
    if bits < 2:
        raise ValueError("need at least 2 bits for a prime")
    if bits == 2:
        return rng.choice([2, 3])
    while True:
        candidate = (1 << (bits - 1)) | rng.randrange(1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


def count_primes_with_bits(bits: int) -> int:
    """Exact count of primes with exactly ``bits`` bits (enumerative; small bits).

    Used by the error analysis of the fingerprint protocol at the sizes the
    benchmarks run; falls back to the prime number theorem estimate above 26
    bits where the sieve gets expensive.
    """
    if bits < 2:
        raise ValueError("need at least 2 bits")
    if bits <= 26:
        return len(primes_in_range(1 << (bits - 1), 1 << bits))
    lo, hi = 1 << (bits - 1), 1 << bits
    return int(hi / math.log(hi) - lo / math.log(lo))


# ----------------------------------------------------------------------
# Mod-p linear algebra on wire-format matrices
# ----------------------------------------------------------------------
def mat_mod(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Reduce every entry mod ``p``."""
    if p <= 1:
        raise ValueError("modulus must be >= 2")
    return [[x % p for x in row] for row in rows]


def _validate_modulus(p: int) -> None:
    """``p`` must be a prime ``>= 2`` — elimination inverts pivots by Fermat,
    which silently returns garbage over a composite modulus."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix over the field GF(p) (``p`` prime).

    Any prime is accepted: entries are Python ints, so there is no
    overflow cap.
    """
    _validate_modulus(p)
    if not rows or not rows[0]:
        raise ValueError("matrix must be non-empty")
    work = mat_mod(rows, p)
    n_rows = len(work)
    rank = 0
    for col in range(len(work[0])):
        if rank >= n_rows:
            break
        pivot_row = None
        for r in range(rank, n_rows):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank]
        inv = pow(pivot[col], p - 2, p)
        for r in range(rank + 1, n_rows):
            if work[r][col]:
                factor = work[r][col] * inv % p
                work[r] = [(a - factor * b) % p for a, b in zip(work[r], pivot)]
        rank += 1
    return rank


def is_singular_mod(rows: Sequence[Sequence[int]], p: int) -> bool:
    """Is the square matrix singular over GF(p)?  (The fingerprint decision.)

    Note the one-sided error direction: a matrix singular over ℚ is singular
    mod every ``p``, but a nonsingular matrix can *look* singular mod an
    unlucky prime dividing its determinant.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("singularity needs a square matrix")
    return rank_mod(rows, p) < n
