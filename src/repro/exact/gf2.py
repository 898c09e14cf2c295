"""Bitset linear algebra over GF(2).

Truth matrices are 0/1 matrices, and ``rank over GF(2) ≤ rank over ℚ``
makes the GF(2) rank a *certified* lower bound for the log-rank method that
is computable at scales where rational elimination is hopeless: rows are
packed into Python big-ints (one bit per column), elimination is word-wide
XOR, and a 4096×4096 matrix ranks in a couple of seconds of pure Python.

This is the engine behind the large-k rank-bound measurements of E1.
"""

from __future__ import annotations

from collections.abc import Sequence


def pack_rows(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """0/1 matrix → (list of bitset ints, width).  Bit j of a row int is
    column j."""
    if not rows:
        raise ValueError("matrix must have at least one row")
    width = len(rows[0])
    packed = []
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged matrix")
        value = 0
        for j, x in enumerate(row):
            if x not in (0, 1):
                raise ValueError("entries must be bits")
            if x:
                value |= 1 << j
        packed.append(value)
    return packed, width


def pack_numpy(array) -> tuple[list[int], int]:
    """Fast packing of a numpy 0/1 array via bytes."""
    import numpy as np

    a = np.asarray(array)
    if a.ndim != 2:
        raise ValueError("need a 2-D array")
    bits = np.packbits(a.astype(np.uint8), axis=1, bitorder="little")
    packed = [int.from_bytes(row.tobytes(), "little") for row in bits]
    return packed, a.shape[1]


def gf2_rank(packed: Sequence[int]) -> int:
    """Rank of packed bitset rows by greedy pivoting on the lowest set bit."""
    pivots: list[int] = []  # reduced rows, each with a unique lowest bit
    rank = 0
    for row in packed:
        current = row
        for pivot in pivots:
            low = pivot & -pivot
            if current & low:
                current ^= pivot
        if current:
            pivots.append(current)
            rank += 1
    return rank


def gf2_rank_of_truth_matrix(tm) -> int:
    """Rank over GF(2) of a :class:`~repro.comm.truth_matrix.TruthMatrix`."""
    packed, _ = pack_numpy(tm.data)
    return gf2_rank(packed)


def gf2_rank_pair(packed: Sequence[int], width: int) -> tuple[int, int]:
    """``(rank(M), rank(J ⊕ M))`` of packed bitset rows, ``J`` = all-ones.

    The pair feeds the branch-and-bound pruning of the exact D(f) search
    (:mod:`repro.comm.exhaustive`): any protocol-tree leaf partition of a
    0/1 matrix writes ``M`` as a disjoint sum of its 1-leaf rectangles and
    ``J ⊕ M`` as a disjoint sum of its 0-leaf rectangles, each of GF(2)
    rank ≤ 1 — so a non-constant matrix needs at least
    ``rank(M) + rank(J ⊕ M)`` leaves, a certified lower bound on the
    protocol partition number.
    """
    full = (1 << width) - 1
    return gf2_rank(packed), gf2_rank([row ^ full for row in packed])
