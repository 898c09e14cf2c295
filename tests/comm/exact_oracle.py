"""The exact-search test oracle: the tuple-of-indices DP, unpruned.

This is the enumerator straight from the definitions (Pálvölgyi's thesis,
Kushilevitz-Nisan ch. 1): every subrectangle is an ``(rows, cols)`` pair
of index tuples, every bipartition of either side is tried, and nothing is
pruned, canonicalized or shared across permutations.  It is three orders
of magnitude slower than :mod:`repro.comm.exhaustive`'s branch-and-bound
search, which is exactly why it is the check on it: the cross-engine,
parallel and cache suites demand the library's D(f), d^P(f) and tree
depth equal this module's answers.

Not a test module (pytest collects ``test_*.py`` only); import the two
query helpers at the bottom.
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

