"""The exact-search test oracle: the tuple-of-indices DP, unpruned.

This is the enumerator straight from the definitions (Pálvölgyi's thesis,
Kushilevitz-Nisan ch. 1): every subrectangle is an ``(rows, cols)`` pair
of index tuples, every bipartition of either side is tried, and nothing is
pruned, canonicalized or shared across permutations.  It is three orders
of magnitude slower than :mod:`repro.comm.exhaustive`'s branch-and-bound
search, which is exactly why it is the check on it: the cross-engine,
parallel and cache suites demand the library's D(f), d^P(f) and tree
depth equal this module's answers.

It also keeps the search's original canonical form
(:func:`reference_canon`, built on the three-round :func:`_refined_orders`),
the reference the fast normal-form kernel must reproduce exactly.

Not a test module (pytest collects ``test_*.py`` only); import
:func:`oracle_cc`, :func:`oracle_partition_number` or
:func:`reference_canon`.
"""

import numpy as np

from repro import obs
from repro.comm.exhaustive import _bipartitions, dedupe
from repro.comm.truth_matrix import TruthMatrix

#: A solved subrectangle: (cost, split).  ``split`` is None for a
#: monochromatic leaf, else ``(axis, left, right)`` — axis 0 splits rows,
#: axis 1 splits columns, left/right are the index tuples of the children.
_Solved = tuple[int, "tuple[int, tuple[int, ...], tuple[int, ...]] | None"]


class _ExactSearch:
    """The shared memoized DP over one deduplicated truth matrix.

    Every solved subrectangle stores its cost **and** the bipartition that
    achieves it, so any number of ``D(f)`` / protocol-tree / ``d^P(f)``
    queries after the first traversal are pure memo walks.
    """

    def __init__(self, data: np.ndarray):
        self.data = data
        self.memo: dict[tuple[tuple[int, ...], tuple[int, ...]], _Solved] = {}
        self.leaves_memo: dict[
            tuple[tuple[int, ...], tuple[int, ...]], _Solved
        ] = {}

    def solve(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> _Solved:
        cached = self.memo.get((rows, cols))
        if cached is not None:
            return cached
        obs.counter("exhaustive.subproblems").inc()
        block = self.data[np.ix_(rows, cols)]
        if (block == block[0, 0]).all():
            result: _Solved = (0, None)
            self.memo[(rows, cols)] = result
            return result
        best_cost: int | None = None
        best_split = None
        # Agent 0 speaks: split rows.
        if len(rows) > 1:
            for left, right in _bipartitions(rows):
                cost = 1 + max(
                    self.solve(left, cols)[0], self.solve(right, cols)[0]
                )
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_split = (0, left, right)
                    if best_cost == 1:
                        break
        # Agent 1 speaks: split columns.
        if (best_cost is None or best_cost > 1) and len(cols) > 1:
            for left, right in _bipartitions(cols):
                cost = 1 + max(
                    self.solve(rows, left)[0], self.solve(rows, right)[0]
                )
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_split = (1, left, right)
                    if best_cost == 1:
                        break
        assert best_cost is not None, "non-monochromatic 1x1 block is impossible"
        result = (best_cost, best_split)
        self.memo[(rows, cols)] = result
        return result

    def solve_root(self) -> _Solved:
        n_rows, n_cols = self.data.shape
        return self.solve(tuple(range(n_rows)), tuple(range(n_cols)))

    def solve_leaves(
        self, rows: tuple[int, ...], cols: tuple[int, ...]
    ) -> int:
        """Exact protocol partition number of the subrectangle (the D(f)
        recursion with ``+`` in place of ``max``), on the same shared search
        object — this is the memo unification the obs proof covers."""
        cached = self.leaves_memo.get((rows, cols))
        if cached is not None:
            return cached[0]
        obs.counter("exhaustive.subproblems").inc()
        block = self.data[np.ix_(rows, cols)]
        if (block == block[0, 0]).all():
            self.leaves_memo[(rows, cols)] = (1, None)
            return 1
        best: int | None = None
        best_split = None
        if len(rows) > 1:
            for left, right in _bipartitions(rows):
                total = self.solve_leaves(left, cols) + self.solve_leaves(
                    right, cols
                )
                if best is None or total < best:
                    best = total
                    best_split = (0, left, right)
        if len(cols) > 1:
            for left, right in _bipartitions(cols):
                total = self.solve_leaves(rows, left) + self.solve_leaves(
                    rows, right
                )
                if best is None or total < best:
                    best = total
                    best_split = (1, left, right)
        assert best is not None
        self.leaves_memo[(rows, cols)] = (best, best_split)
        return best

    def solve_leaves_root(self) -> int:
        n_rows, n_cols = self.data.shape
        return self.solve_leaves(
            tuple(range(n_rows)), tuple(range(n_cols))
        )

    def serialized_tree(
        self, rows: tuple[int, ...], cols: tuple[int, ...]
    ) -> list:
        """The optimal protocol tree in the engine-independent wire form
        ``["L", value]`` / ``["N", axis, right_indices, left, right]``
        (indices are deduped-matrix positions; see
        :func:`repro.comm.exhaustive._tree_from_serialized`)."""
        _cost, split = self.solve(rows, cols)
        if split is None:
            return ["L", int(self.data[rows[0], cols[0]])]
        axis, left, right = split
        if axis == 0:
            return [
                "N", 0, sorted(right),
                self.serialized_tree(left, cols),
                self.serialized_tree(right, cols),
            ]
        return [
            "N", 1, sorted(right),
            self.serialized_tree(rows, left),
            self.serialized_tree(rows, right),
        ]

    def serialized_root_tree(self) -> list:
        n_rows, n_cols = self.data.shape
        return self.serialized_tree(
            tuple(range(n_rows)), tuple(range(n_cols))
        )



def _search(tm: TruthMatrix) -> _ExactSearch:
    return _ExactSearch(np.ascontiguousarray(dedupe(tm).data))


def oracle_cc(tm: TruthMatrix) -> int:
    """Exact D(f) by the unpruned DP over the deduplicated matrix."""
    return _search(tm).solve_root()[0]


def oracle_partition_number(tm: TruthMatrix) -> int:
    """Exact protocol partition number d^P(f) by the unpruned DP."""
    return _search(tm).solve_leaves_root()


# ---------------------------------------------------------------------------
# The canonical-form reference: the search's original normal form, kept
# verbatim (full-width bit tests, always three rounds, no memo) so the fast
# kernel in ``repro.comm.exhaustive`` can be held to it output for output.
# ---------------------------------------------------------------------------


def _refined_orders(patterns: list[int], nr: int, nc: int):
    """Iteratively sort columns then rows by pattern value (3 rounds).

    Returns ``(final_row_patterns, row_order, col_order)``.  All patterns
    are distinct (the matrix is deduplicated), so each sort is a total
    deterministic order; the iteration just drives permutation-equivalent
    matrices toward a common fixed point.  Convergence is *not* required
    for soundness — any reordering yields a valid normal-form candidate.
    """
    row_order = list(range(nr))
    col_order = list(range(nc))
    for _ in range(3):
        col_pats = []
        for c in col_order:
            v = 0
            for t, r in enumerate(row_order):
                if patterns[r] >> c & 1:
                    v |= 1 << t
            col_pats.append(v)
        col_order = [c for _, c in sorted(zip(col_pats, col_order))]
        row_pats = []
        for r in row_order:
            v = 0
            for k, c in enumerate(col_order):
                if patterns[r] >> c & 1:
                    v |= 1 << k
            row_pats.append(v)
        pairs = sorted(zip(row_pats, row_order))
        row_order = [r for _, r in pairs]
    final = []
    for r in row_order:
        v = 0
        for k, c in enumerate(col_order):
            if patterns[r] >> c & 1:
                v |= 1 << k
        final.append(v)
    return tuple(final), row_order, col_order


def _bits(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _extract(value: int, mask: int) -> int:
    """Software PEXT: compress ``value``'s bits at ``mask``'s set positions
    into the low bits (ascending position order)."""
    out = 0
    bit = 1
    while mask:
        low = mask & -mask
        if value & low:
            out |= bit
        mask ^= low
        bit <<= 1
    return out


def _reduce(search, row_mask: int, col_mask: int) -> tuple[int, int]:
    """Collapse duplicate rows/columns of the subrectangle to their
    lowest-index representative, iterating to a fixed point."""
    changed = True
    while changed:
        changed = False
        seen: set[int] = set()
        new_rows = 0
        for i in _bits(row_mask):
            pattern = search.row_ones[i] & col_mask
            if pattern not in seen:
                seen.add(pattern)
                new_rows |= 1 << i
        if new_rows != row_mask:
            row_mask = new_rows
            changed = True
        seen = set()
        new_cols = 0
        for j in _bits(col_mask):
            pattern = search.col_ones[j] & row_mask
            if pattern not in seen:
                seen.add(pattern)
                new_cols |= 1 << j
        if new_cols != col_mask:
            col_mask = new_cols
            changed = True
    return row_mask, col_mask


def reference_canon(search, row_mask: int, col_mask: int):
    """``(key, transposed, classes)`` of a subrectangle of ``search``'s
    matrix, computed as the search's original ``_canon`` did."""
    reduced_rows, reduced_cols = _reduce(search, row_mask, col_mask)
    rows = _bits(reduced_rows)
    cols = _bits(reduced_cols)
    nr, nc = len(rows), len(cols)
    patterns = [
        _extract(search.row_ones[i] & reduced_cols, reduced_cols)
        for i in rows
    ]
    key_rows, row_order, col_order = _refined_orders(patterns, nr, nc)
    key_straight = (nr, nc, key_rows)
    col_patterns = [
        _extract(search.col_ones[j] & reduced_rows, reduced_rows)
        for j in cols
    ]
    key_cols, t_row_order, t_col_order = _refined_orders(
        col_patterns, nc, nr
    )
    key_transposed = (nc, nr, key_cols)
    transposed = key_transposed < key_straight
    row_groups: dict[int, int] = {}
    for i in _bits(row_mask):
        pattern = search.row_ones[i] & reduced_cols
        row_groups[pattern] = row_groups.get(pattern, 0) | (1 << i)
    col_groups: dict[int, int] = {}
    for j in _bits(col_mask):
        pattern = search.col_ones[j] & reduced_rows
        col_groups[pattern] = col_groups.get(pattern, 0) | (1 << j)
    if transposed:
        key = key_transposed
        axis0 = tuple(
            col_groups[search.col_ones[cols[c]] & reduced_rows]
            for c in t_row_order
        )
        axis1 = tuple(
            row_groups[search.row_ones[rows[r]] & reduced_cols]
            for r in t_col_order
        )
    else:
        key = key_straight
        axis0 = tuple(
            row_groups[search.row_ones[rows[r]] & reduced_cols]
            for r in row_order
        )
        axis1 = tuple(
            col_groups[search.col_ones[cols[c]] & reduced_rows]
            for c in col_order
        )
    return key, transposed, (axis0, axis1)
