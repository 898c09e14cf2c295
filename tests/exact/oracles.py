"""Reference engines for the exact-arithmetic tests.

Each function here is an independent second computation of something the
library computes in production.  None has a caller in ``src/``; they live
with the tests that hold the production functions to them:

* :func:`cofactor_determinant` — Laplace expansion, the check on
  :func:`repro.exact.determinant.determinant`,
  :func:`~repro.exact.determinant.bareiss_determinant` and
  :func:`~repro.exact.determinant.rational_determinant`.
* :func:`crt_determinant` — the Chinese-remainder determinant, a second
  check on :func:`~repro.exact.determinant.bareiss_determinant`.  It moves
  as one unit with its parts: :func:`det_mod` (determinant mod ``p`` on
  plain rows), :func:`crt_combine` and :func:`primes_for_crt_bound`.
* :func:`solve_mod` — one solution of ``A x = b`` over GF(p), the check
  on :func:`repro.exact.solve.is_solvable`'s positive answers.  It shares
  the chain's mod-p elimination.
* :func:`elimination_agreement` — rational vs fraction-free pivots, the
  check on :func:`repro.exact.elimination.bareiss_echelon` against
  :func:`~repro.exact.elimination.row_echelon`.
* :func:`rank_certified` — an r×r nonsingular minor read off the rank
  profiles, the certificate check on :func:`repro.exact.rank.rank`,
  :func:`~repro.exact.rank.rank_profile` and
  :func:`~repro.exact.rank.row_rank_profile`.

Not a test module (pytest collects ``test_*.py`` only).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import reduce

from repro.exact.determinant import hadamard_bound
from repro.exact.elimination import bareiss_echelon, row_echelon
from repro.exact.matrix import Matrix
from repro.exact.rank import rank_profile
from repro.exact.modular import _validate_modulus, is_prime, mat_mod, next_prime


# ----------------------------------------------------------------------
# Cofactor expansion
# ----------------------------------------------------------------------
#: Largest n the cofactor oracle accepts.  Laplace expansion is Θ(n·n!):
#: 8! ≈ 40k leaf terms is instant, 11! ≈ 40M is not — the docstring, the
#: guard, and the error message all enforce this one number.
_COFACTOR_ORACLE_LIMIT = 8


def cofactor_determinant(m: Matrix) -> Fraction:
    """Determinant by Laplace expansion along the first row.

    Exponential time — a reference oracle for matrices up to
    ``_COFACTOR_ORACLE_LIMIT`` × ``_COFACTOR_ORACLE_LIMIT`` (8x8), used by
    the test suite to validate the elimination engines.
    """
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    n = m.num_rows
    if n > _COFACTOR_ORACLE_LIMIT:
        raise ValueError(
            f"cofactor expansion is a small-matrix oracle: n <= "
            f"{_COFACTOR_ORACLE_LIMIT} enforced, got n = {n}"
        )
    return _cofactor(m.rows())


def _cofactor(rows: tuple) -> Fraction:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = Fraction(0)
    rest = rows[1:]
    for j, entry in enumerate(rows[0]):
        if entry == 0:
            continue
        minor = tuple(r[:j] + r[j + 1 :] for r in rest)
        term = entry * _cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


# ----------------------------------------------------------------------
# The CRT determinant chain
# ----------------------------------------------------------------------
def _eliminate_mod(rows: list[list[int]], p: int) -> tuple[int, int, int]:
    """In-place elimination mod prime ``p``.

    Returns ``(rank, det_of_processed_square_part, sign_flips)`` where the
    det value is the product of pivots mod p (0 if rank-deficient when
    square).
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    rank = 0
    det = 1
    swaps = 0
    for col in range(n_cols):
        if rank >= n_rows:
            break
        pivot_row = None
        for r in range(rank, n_rows):
            if rows[r][col] % p:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            swaps += 1
        pivot = rows[rank][col] % p
        det = det * pivot % p
        inv = pow(pivot, p - 2, p)
        for r in range(rank + 1, n_rows):
            if rows[r][col] % p:
                factor = rows[r][col] * inv % p
                rows[r] = [
                    (a - factor * b) % p for a, b in zip(rows[r], rows[rank])
                ]
        rank += 1
    return rank, det, swaps


def det_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Determinant mod prime ``p`` on plain rows (``list[list[int]]``)."""
    _validate_modulus(p)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    work = mat_mod(rows, p)
    rank, det, swaps = _eliminate_mod(work, p)
    if rank < n:
        return 0
    return (p - det) % p if swaps % 2 else det


def solve_mod(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], p: int
) -> list[int] | None:
    """One solution of ``A x = b`` over GF(p), or ``None`` if inconsistent."""
    _validate_modulus(p)
    n_rows = len(rows)
    if len(rhs) != n_rows:
        raise ValueError("rhs length mismatch")
    augmented = [list(r) + [b] for r, b in zip(mat_mod(rows, p), [x % p for x in rhs])]
    rank_aug, _, _ = _eliminate_mod(augmented, p)
    n_cols = len(rows[0])
    # Consistency: no pivot may land in the rhs column.
    pivots: list[int] = []
    for r in range(rank_aug):
        for c, v in enumerate(augmented[r]):
            if v % p:
                pivots.append(c)
                break
    if pivots and pivots[-1] == n_cols:
        return None
    x = [0] * n_cols
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        acc = augmented[r][n_cols]
        for c in range(col + 1, n_cols):
            acc = (acc - augmented[r][c] * x[c]) % p
        x[col] = acc * pow(augmented[r][col], p - 2, p) % p
    return x


def crt_combine(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """The unique ``x mod prod(moduli)`` with ``x ≡ residues[i] (mod moduli[i])``.

    Moduli must be pairwise coprime (primes distinct in our use).
    """
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must align")
    if not moduli:
        raise ValueError("need at least one modulus")
    x, modulus = residues[0] % moduli[0], moduli[0]
    for r, m in zip(residues[1:], moduli[1:]):
        g = math.gcd(modulus, m)
        if g != 1:
            raise ValueError("moduli must be pairwise coprime")
        inv = pow(modulus % m, m - 2, m) if is_prime(m) else pow(modulus, -1, m)
        diff = (r - x) % m
        x = x + modulus * (diff * inv % m)
        modulus *= m
    return x % modulus


def primes_for_crt_bound(bound: int, start_bits: int = 31) -> list[int]:
    """Enough distinct primes (each ~``start_bits`` bits) so their product
    exceeds ``2*bound`` — the standard CRT determinant recipe."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    target = 2 * bound + 1
    primes: list[int] = []
    candidate = (1 << (start_bits - 1)) + 1
    product = 1
    while product < target:
        candidate = next_prime(candidate)
        primes.append(candidate)
        product *= candidate
        candidate += 2
    return primes


def crt_determinant(m: Matrix, primes: list[int]) -> int:
    """Determinant via Chinese remaindering over the given primes.

    The product of the primes must exceed ``2 * hadamard_bound(m)`` so the
    symmetric residue pins down the true integer value; a :class:`ValueError`
    flags an insufficient prime set rather than returning garbage.
    """
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    bound = hadamard_bound(m)
    modulus = reduce(lambda a, b: a * b, primes, 1)
    if modulus <= 2 * bound:
        raise ValueError(
            f"prime product {modulus} does not exceed twice the Hadamard bound {bound}"
        )
    rows = m.to_int_rows()
    residues = [det_mod(rows, p) for p in primes]
    combined = crt_combine(residues, primes)
    # Symmetric lift: the true determinant lies in [-bound, bound].
    if combined > modulus // 2:
        combined -= modulus
    return combined


# ----------------------------------------------------------------------
# Elimination engines
# ----------------------------------------------------------------------
def elimination_agreement(m: Matrix) -> bool:
    """Do the rational and fraction-free engines agree on rank and pivots?"""
    if not m.is_integer():
        raise ValueError("agreement check needs an integer matrix")
    a = row_echelon(m)
    b = bareiss_echelon(m)
    return a.pivot_cols == b.pivot_cols


# ----------------------------------------------------------------------
# Rank certificates
# ----------------------------------------------------------------------
def rank_certified(m: Matrix) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Rank together with witnessing row and column index sets.

    Returns ``(r, rows, cols)`` such that the r×r submatrix on ``rows`` ×
    ``cols`` is nonsingular — a certificate checkable by an independent
    determinant computation.
    """
    cols = rank_profile(m)
    restricted = m.submatrix(range(m.num_rows), cols) if cols else None
    if restricted is None:
        return 0, (), ()
    rows = rank_profile(restricted.transpose())
    return len(cols), rows, cols
