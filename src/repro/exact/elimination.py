"""Exact Gaussian and fraction-free (Bareiss) elimination.

Two engines, one contract:

* :func:`row_echelon` / :func:`rref` — classical elimination over ℚ with
  explicit pivots.  Simple, and exact because entries are Fractions.
* :func:`bareiss_echelon` — Montante/Bareiss fraction-free elimination over
  ℤ.  Intermediate entries stay integers and stay polynomially bounded,
  which is dramatically faster than rational arithmetic once entries grow;
  its final pivot equals the determinant of a square nonsingular input.

Everything downstream (rank, determinant, solvability, span membership)
builds on these, so their agreement is itself a tested invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exact.matrix import Matrix


@dataclass(frozen=True)
class EchelonForm:
    """The result of an elimination pass.

    Attributes:
        matrix: the (reduced) echelon form.
        pivot_cols: column index of each pivot, in row order.
        row_permutation: ``row_permutation[i]`` is the original index of the
            row now in position ``i`` (identity when no swaps happened).
        det_sign_flips: number of row swaps performed (parity matters for
            determinants derived from the echelon form).
    """

    matrix: Matrix
    pivot_cols: tuple[int, ...]
    row_permutation: tuple[int, ...]
    det_sign_flips: int

    @property
    def rank(self) -> int:
        """Number of pivots."""
        return len(self.pivot_cols)


def row_echelon(m: Matrix) -> EchelonForm:
    """Row echelon form over ℚ by partial pivoting on the first nonzero.

    Pivot choice is deterministic (topmost nonzero entry in the leftmost
    unfinished column) so results are reproducible across runs.
    """
    rows = [list(r) for r in m.rows()]
    n_rows, n_cols = m.shape
    perm = list(range(n_rows))
    pivot_cols: list[int] = []
    swaps = 0
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row >= n_rows:
            break
        # Find the topmost nonzero entry at or below pivot_row.
        found = None
        for r in range(pivot_row, n_rows):
            if rows[r][col] != 0:
                found = r
                break
        if found is None:
            continue
        if found != pivot_row:
            rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
            perm[pivot_row], perm[found] = perm[found], perm[pivot_row]
            swaps += 1
        pivot = rows[pivot_row][col]
        for r in range(pivot_row + 1, n_rows):
            if rows[r][col] != 0:
                factor = rows[r][col] / pivot
                # Entries left of `col` are already zero in both rows.
                for c in range(col, n_cols):
                    rows[r][c] -= factor * rows[pivot_row][c]
        pivot_cols.append(col)
        pivot_row += 1
    return EchelonForm(Matrix(rows), tuple(pivot_cols), tuple(perm), swaps)


def rref(m: Matrix) -> EchelonForm:
    """Reduced row echelon form over ℚ (unit pivots, zeros above pivots)."""
    ech = row_echelon(m)
    rows = [list(r) for r in ech.matrix.rows()]
    n_cols = m.num_cols
    for i, col in enumerate(ech.pivot_cols):
        pivot = rows[i][col]
        if pivot != 1:
            rows[i] = [x / pivot for x in rows[i]]
        for r in range(i):
            if rows[r][col] != 0:
                factor = rows[r][col]
                for c in range(col, n_cols):
                    rows[r][c] -= factor * rows[i][c]
    return EchelonForm(Matrix(rows), ech.pivot_cols, ech.row_permutation, ech.det_sign_flips)


@dataclass(frozen=True)
class BareissForm:
    """Result of fraction-free elimination on an integer matrix.

    Attributes:
        matrix: upper-triangularized integer matrix (Bareiss-scaled rows).
        pivot_cols: pivot columns in row order.
        det_sign_flips: number of row swaps.
        last_pivot: for a square, full-rank input this is ``±det``; the sign
            flips are already *not* folded in (see :func:`bareiss_determinant`
            in :mod:`repro.exact.determinant` for the signed value).
    """

    matrix: Matrix
    pivot_cols: tuple[int, ...]
    det_sign_flips: int
    last_pivot: int

    @property
    def rank(self) -> int:
        """Number of pivots."""
        return len(self.pivot_cols)


def bareiss_echelon(m: Matrix) -> BareissForm:
    """Fraction-free elimination (Bareiss, 1968) on an integer matrix.

    The update rule ``a[r][c] = (a[r][c]*pivot - a[r][col]*a[p][c]) / prev``
    keeps every intermediate an integer whose bit-length is bounded by the
    Hadamard bound of the input — no coefficient explosion, no fractions.

    Raises :class:`ValueError` on non-integer input.
    """
    rows = [[int(x) for x in row] for row in m.to_int_rows()]
    n_rows, n_cols = m.shape
    pivot_cols: list[int] = []
    swaps = 0
    prev_pivot = 1
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row >= n_rows:
            break
        found = None
        for r in range(pivot_row, n_rows):
            if rows[r][col] != 0:
                found = r
                break
        if found is None:
            continue
        if found != pivot_row:
            rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
            swaps += 1
        pivot = rows[pivot_row][col]
        for r in range(pivot_row + 1, n_rows):
            for c in range(col + 1, n_cols):
                num = rows[r][c] * pivot - rows[r][col] * rows[pivot_row][c]
                q, rem = divmod(num, prev_pivot)
                # Exactness of the Bareiss division is a theorem; a nonzero
                # remainder means the input was not integral.
                assert rem == 0, "Bareiss division was not exact"
                rows[r][c] = q
            rows[r][col] = 0
        prev_pivot = pivot
        pivot_cols.append(col)
        pivot_row += 1
    return BareissForm(Matrix(rows), tuple(pivot_cols), swaps, prev_pivot)
