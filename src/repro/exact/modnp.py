"""NumPy-vectorized linear algebra over GF(p) — the truth builder's batch filter.

The exact engines in this package (:mod:`repro.exact.elimination`,
:mod:`repro.exact.span`) compute over ℚ with :class:`fractions.Fraction`
entries, which is the right substrate for *decisions* but far too slow for
the truth-matrix builds of E1/E6.  Over a finite field the same span
membership test is a handful of ``uint64`` array operations on a whole
block of candidate vectors at once.  This module is that layer, and only
that: :func:`echelon_mod` and :func:`span_membership_batch` for primes
``p < 2³¹``.  Single-matrix decisions (rank, singularity) at any prime
live in :mod:`repro.exact.modular`, which is faster at every size a
protocol uses.

Overflow-safety argument (the reason for the 2³¹ cap):

* every stored residue is ``< p < 2³¹``;
* the only products formed are ``residue · residue < p² < 2⁶²``, which fits
  ``uint64`` (max ``2⁶⁴ − 1``) with two bits to spare;
* subtraction ``a − b mod p`` is computed as ``(a + (p − b)) % p`` with both
  operands ``< p``, so the sum stays ``< 2³²`` — no signed underflow, no
  wraparound, ever.

Correctness contract with the exact engines (used by the truth-matrix fast
path in :mod:`repro.singularity.truth_builder`):

* ``rank_p(M) ≤ rank_ℚ(M)`` always — minors that vanish over ℤ vanish mod
  every ``p``;
* hence when ``rank_p(A) = rank_ℚ(A)``, membership over ℚ *implies*
  membership over GF(p): a mod-p **non**-member is certified a ℚ non-member,
  while a mod-p member is only a candidate (an unlucky prime can collapse a
  genuinely independent vector into the span).  The fast path therefore uses
  :func:`span_membership_batch` as a filter and confirms the (rare)
  positives exactly.

Both kernels are oracle-tested against :func:`repro.exact.modular.rank_mod`
and the exact :class:`~repro.exact.span.Subspace`
(``tests/exact/test_modnp.py``, ``tests/exact/test_cross_engine_properties.py``).
"""

from __future__ import annotations

import numpy as np

from repro.exact.modular import is_prime

#: Kernels accept primes strictly below this (see the overflow argument above).
MAX_MODULUS = 1 << 31


def _check_kernel_modulus(p: int) -> None:
    if p < 2 or not is_prime(p):
        raise ValueError(f"modulus must be a prime >= 2, got {p}")
    if p >= MAX_MODULUS:
        raise ValueError(
            f"vectorized kernels need p < 2^31 for uint64 overflow safety, "
            f"got {p}; use repro.exact.modular for larger primes"
        )


def as_residues(rows, p: int) -> np.ndarray:
    """A fresh 2-D ``uint64`` array of residues mod ``p``.

    Accepts a :class:`~repro.exact.matrix.Matrix`, a numpy integer array, or
    any nested sequence of Python ints.  Python-int input may be arbitrarily
    large (e.g. the ``B·u`` vectors, whose entries grow like ``q^n``): the
    reduction then happens in exact Python arithmetic *before* the values
    ever touch a fixed-width dtype.
    """
    if p <= 1:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if hasattr(rows, "to_int_rows"):  # Matrix, without a circular import
        rows = rows.to_int_rows()
    if isinstance(rows, np.ndarray) and rows.dtype != object:
        if not np.issubdtype(rows.dtype, np.integer):
            raise TypeError("residue arrays need an integer dtype")
        return (rows.astype(np.int64, copy=True) % p).astype(np.uint64)
    reduced = [[int(x) % p for x in row] for row in rows]
    if not reduced or not reduced[0]:
        raise ValueError("matrix must be non-empty")
    return np.array(reduced, dtype=np.uint64)


def echelon_mod(rows, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over GF(p) with **unit pivots**.

    Returns ``(echelon, pivot_cols)`` where ``echelon`` is a fresh
    ``uint64`` array whose first ``len(pivot_cols)`` rows are the echelon
    basis (each with a leading 1 in its pivot column and zeros below), and
    ``pivot_cols`` is the strictly increasing list of pivot columns —
    ``len(pivot_cols)`` is the rank.
    """
    _check_kernel_modulus(p)
    work = as_residues(rows, p)
    pp = np.uint64(p)
    n_rows, n_cols = work.shape
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        nz = np.nonzero(work[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            work[[r, pr]] = work[[pr, r]]
        inv = np.uint64(pow(int(work[r, c]), p - 2, p))
        work[r] = work[r] * inv % pp
        below = work[r + 1 :, c]
        hot = np.nonzero(below)[0]
        if hot.size:
            factors = below[hot]
            # a - f*row mod p, unsigned-safe: products < p² < 2⁶².
            prod = factors[:, None] * work[r][None, :] % pp
            work[r + 1 + hot] = (work[r + 1 + hot] + (pp - prod)) % pp
        pivot_cols.append(c)
        r += 1
    return work, pivot_cols


def span_membership_batch(basis_rows, vectors, p: int) -> np.ndarray:
    """Which of many ``vectors`` lie in the GF(p) row space of ``basis_rows``?

    One echelonization of the basis plus one reduction pass shared by every
    query: for each pivot row the whole query block sheds its component in
    that pivot column with a single rank-2 update.  Returns a boolean array
    aligned with ``vectors``.

    This is the kernel behind the Section-3 truth-matrix fast path: the
    basis is the columns of ``A`` (pass them as rows), the vectors are the
    ``B·u`` candidates of every truth-matrix column at once.
    """
    _check_kernel_modulus(p)
    echelon, pivot_cols = echelon_mod(basis_rows, p)
    residual = as_residues(vectors, p)
    if residual.shape[1] != echelon.shape[1]:
        raise ValueError(
            f"vectors have dimension {residual.shape[1]}, "
            f"basis has {echelon.shape[1]}"
        )
    pp = np.uint64(p)
    for r, c in enumerate(pivot_cols):
        coeffs = residual[:, c].copy()
        hot = np.nonzero(coeffs)[0]
        if hot.size:
            prod = coeffs[hot, None] * echelon[r][None, :] % pp
            residual[hot] = (residual[hot] + (pp - prod)) % pp
    return (residual == 0).all(axis=1)


#: A comfortable default kernel prime: the largest prime below 2³¹.
DEFAULT_PRIME = 2147483629

assert is_prime(DEFAULT_PRIME) and DEFAULT_PRIME < MAX_MODULUS
