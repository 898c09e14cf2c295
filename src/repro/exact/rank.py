"""Exact rank computation and rank-related predicates.

Rank is the quantity the whole paper orbits: singularity is ``rank < n``,
Corollary 1.2(b) is about computing rank, and the ``[[I, B], [A, C]]``
construction of the introduction turns matrix-product verification into a
rank-n test.  Rank over ℚ runs on the fraction-free Bareiss engine for
integer matrices and on rational elimination otherwise; GF(p) rank is
:func:`repro.exact.modular.rank_mod`.
"""

from __future__ import annotations

from repro.exact.elimination import bareiss_echelon, row_echelon
from repro.exact.matrix import Matrix


def rank(m: Matrix) -> int:
    """Rank over ℚ (fraction-free path for integer matrices)."""
    if m.is_integer():
        return bareiss_echelon(m).rank
    return row_echelon(m).rank


def is_singular(m: Matrix) -> bool:
    """Is the square matrix singular over ℚ?  The paper's core predicate."""
    if not m.is_square:
        raise ValueError("singularity is a property of square matrices")
    return rank(m) < m.num_rows

def is_nonsingular(m: Matrix) -> bool:
    """Convenience negation of :func:`is_singular`."""
    return not is_singular(m)


def rank_profile(m: Matrix) -> tuple[int, ...]:
    """The lexicographically first column indices forming a basis of the
    column space (i.e. the pivot columns of the echelon form)."""
    if m.is_integer():
        return bareiss_echelon(m).pivot_cols
    return row_echelon(m).pivot_cols


def row_rank_profile(m: Matrix) -> tuple[int, ...]:
    """Row indices of a lexicographically first independent row set."""
    return rank_profile(m.transpose())


def has_rank(m: Matrix, r: int) -> bool:
    """Decision form used by the "rank n/2" problem from the introduction."""
    if r < 0:
        raise ValueError("rank cannot be negative")
    return rank(m) == r


def column_space_contains(m: Matrix, vec) -> bool:
    """Is ``vec`` in the column space of ``m``?

    Lemma 3.2's right-hand side is exactly this predicate with
    ``m = A`` and ``vec = B·u``.  Implemented as: appending the vector must
    not raise the rank.
    """
    column = Matrix.column(list(vec))
    if column.num_rows != m.num_rows:
        raise ValueError("vector length must equal the matrix row count")
    return rank(m.hstack(column)) == rank(m)
