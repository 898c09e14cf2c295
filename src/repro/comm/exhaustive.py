"""Exact deterministic communication complexity of small truth matrices.

For an explicit truth matrix we can compute the *exact* deterministic
communication complexity ``D(f)`` by dynamic programming over sub-rectangles:

    D(R) = 0                       if R is monochromatic
    D(R) = 1 + min over speakers s and bipartitions of s's side of R
               max(D(R_left), D(R_right))

A bit spoken by agent 0 splits R's rows into the two preimage classes of the
announced bit (any bipartition is achievable since the protocol may apply an
arbitrary function of agent 0's input); symmetrically for agent 1 and the
columns.  Also computed: the exact *protocol partition number* ``d^P(f)``
(leaves of a leaf-optimal protocol — the same recursion with ``+`` for
``max``) and an optimal :class:`~repro.comm.protocol.ProtocolTree`.

Subrectangles are ``(row_mask, col_mask)`` Python-int pairs over the
deduplicated matrix; monochromaticity and duplicate-row/column collapse are
O(n) mask operations against precomputed per-row/per-column one-masks.  The
search is branch-and-bound: admissible lower bounds (GF(2) rank pair via
:mod:`repro.exact.gf2`, greedy fooling sets via :mod:`repro.comm.rectangles`
— see docs/performance.md for the admissibility proofs) prune whole
subtrees, and a symmetry normal form (iterated row/column sort + transpose
minimum) lets permutation-equivalent subrectangles share one memo entry.
Size limit: :data:`DEFAULT_LIMIT` (18) rows/columns after deduplication.
The unpruned tuple-of-indices DP the test suite checks this search
against lives in ``tests/comm/exact_oracle.py``.

The search also has a **parallel mode** (the raw-speed tier): pass
``workers > 1`` (or set ``REPRO_WORKERS``) to
:func:`communication_complexity` / :func:`partition_number` and the
*root-level* split enumeration fans out over
:func:`repro.util.parallel.parmap`.  D(f) = min over root splits of
``1 + max(D(children))`` (and d^P likewise with ``+``), so each worker
evaluates a round-robin chunk of the splits with its own process-local
search object, pruning against an incumbent folded from its local best
and a :class:`repro.util.parallel.SharedBound` file that every worker
publishes *witnessed* costs to.  A stale bound only weakens pruning —
every published value was exactly achieved and is returned by its
publishing worker, so the driver's min over worker bests is the exact
optimum at any worker count (the soundness argument is spelled out in
docs/performance.md §6).  ``optimal_protocol_tree`` stays sequential:
the tree it returns is pinned to the sequential traversal order.

One memo serves every query: ``D(f)``, the protocol tree and ``d^P(f)`` all
run over the shared per-matrix search object (LRU-cached in
``_SEARCH_CACHE``, at most 64 matrices, lock-guarded so
:func:`repro.util.parallel.parmap` drivers can query it from threads).  The
``exhaustive.subproblems`` counter in :mod:`repro.obs` counts distinct
subrectangles solved and is the test suite's proof of the sharing.

When a persistent cache is configured (see :mod:`repro.cache`;
``REPRO_CACHE_DIR``), results additionally survive across processes: the
deduplicated matrix bytes plus :data:`ENGINE_VERSION` form a
content-addressed key, and all three queries consult the on-disk record
before searching.  They share one query path (:func:`_query`): dedupe,
size guard, cache probe, search, cache merge.
"""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict
from threading import Lock

import numpy as np

from repro import obs
from repro.comm.protocol import Leaf, Node, ProtocolTree
from repro.comm.truth_matrix import TruthMatrix
from repro.trace import core as trace
from repro.util.parallel import SharedBound, parmap, resolve_workers

#: Version tag of the search: it keys the persistent cache (and serve's
#: coalescing), so bump it whenever the search could produce a different
#: (even just differently serialized) result, and old records die with it.
ENGINE_VERSION = "bitset-1"

#: Size limit (post-dedupe rows/columns) unless a caller passes ``limit``.
DEFAULT_LIMIT = 18


def _check_size(tm: TruthMatrix, limit: int) -> None:
    n_rows, n_cols = tm.shape
    if n_rows == 0 or n_cols == 0:
        raise ValueError(
            "exact search needs a non-empty truth matrix; the deduplicated "
            f"one is {n_rows}x{n_cols}"
        )
    if n_rows > limit or n_cols > limit:
        raise ValueError(
            f"exact search on a {n_rows}x{n_cols} matrix would enumerate "
            f"2^{max(n_rows, n_cols)} bipartitions per step; limit is {limit} "
            "rows/columns (deduplicate rows/columns first, or raise `limit` "
            "knowingly)"
        )


def dedupe(tm: TruthMatrix) -> TruthMatrix:
    """Collapse duplicate rows and columns.

    Duplicate rows/columns never change D(f) (agents can merge identical
    inputs before speaking), so exact search should always run on the
    deduplicated matrix.
    """
    row_seen: dict[tuple, int] = {}
    row_keep: list[int] = []
    for i, row in enumerate(map(tuple, tm.data.tolist())):
        if row not in row_seen:
            row_seen[row] = i
            row_keep.append(i)
    col_seen: dict[tuple, int] = {}
    col_keep: list[int] = []
    for j, col in enumerate(map(tuple, tm.data.T.tolist())):
        if col not in col_seen:
            col_seen[col] = j
            col_keep.append(j)
    return tm.submatrix(row_keep, col_keep)


def _bipartitions(members: tuple[int, ...]):
    """All splits of `members` into (non-empty, non-empty), up to swapping."""
    m = len(members)
    # Fix members[0] on the left side to kill the swap symmetry.
    for assignment in range(1 << (m - 1)):
        left = [members[0]]
        right = []
        for idx in range(1, m):
            if assignment >> (idx - 1) & 1:
                left.append(members[idx])
            else:
                right.append(members[idx])
        if right:
            yield tuple(left), tuple(right)


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


# ---------------------------------------------------------------------------
# The branch-and-bound search.
# ---------------------------------------------------------------------------


class _Canon:
    """The canonical view of one ``(row_mask, col_mask)`` subrectangle.

    ``key`` is a permutation/transpose normal form: equal keys imply the two
    subrectangles are identical up to row/column permutation (and possibly a
    transpose), so they may share one memo entry — ``key`` literally *is*
    ``(n_rows, n_cols, row_patterns)`` of a reordered copy of the reduced
    submatrix, so key equality means the reordered copies are the same
    matrix.  ``classes[axis]`` maps each canonical axis position to the mask
    of *actual* deduped-matrix indices it stands for (duplicate rows/columns
    of the subrectangle ride along with their representative).
    ``transposed`` records whether canonical axis 0 is actual columns.
    """

    __slots__ = ("row_mask", "col_mask", "key", "transposed", "classes")

    def __init__(self, row_mask, col_mask, key, transposed, classes):
        self.row_mask = row_mask
        self.col_mask = col_mask
        self.key = key
        self.transposed = transposed
        self.classes = classes


class _Entry:
    """The engine's memo record for one canonical subrectangle.

    ``d_exact``/``lv_exact`` are exact values once known; ``d_low``/
    ``lv_low`` are certified lower bounds that tighten as budgeted searches
    fail; the splits are stored in canonical coordinates so every
    permutation-equivalent subrectangle can replay them through its own
    class maps.
    """

    __slots__ = (
        "key", "mono",
        "d_exact", "d_low", "d_split",
        "lv_exact", "lv_low", "lv_split", "lb_leaves",
    )

    def __init__(self, key):
        self.key = key
        nr, nc, patterns = key
        # Dedupe guarantees a monochromatic subrectangle reduces to 1x1.
        self.mono = patterns[0] if nr == 1 and nc == 1 else None
        self.d_exact = 0 if self.mono is not None else None
        self.d_low = 0
        self.d_split = None
        self.lv_exact = 1 if self.mono is not None else None
        self.lv_low = 1
        self.lv_split = None
        self.lb_leaves = None


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


class _BitsetSearch:
    """Branch-and-bound D(f)/d^P(f) search over bitmask subrectangles.

    One instance per deduplicated matrix; all queries (D, leaves, tree)
    share ``self.memo``, keyed by the canonical normal form so symmetric
    subrectangles are solved once.
    """

    def __init__(self, data: np.ndarray):
        from repro.exact.gf2 import pack_numpy

        self.data = data
        self.hits = 0  # _SEARCH_CACHE per-entry hit count
        n_rows, n_cols = data.shape
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.row_ones, _ = pack_numpy(data)
        self.col_ones, _ = pack_numpy(data.T)
        self.full_rows = (1 << n_rows) - 1
        self.full_cols = (1 << n_cols) - 1
        self.memo: dict[tuple, _Entry] = {}
        self._canon_cache: dict[tuple[int, int], _Canon] = {}

    # -- canonicalization ----------------------------------------------
    def _reduce(self, row_mask: int, col_mask: int) -> tuple[int, int]:
        """Collapse duplicate rows/columns of the subrectangle to their
        lowest-index representative, iterating to a fixed point (collapsing
        one axis can create duplicates on the other)."""
        changed = True
        while changed:
            changed = False
            seen: set[int] = set()
            new_rows = 0
            for i in _bits(row_mask):
                pattern = self.row_ones[i] & col_mask
                if pattern not in seen:
                    seen.add(pattern)
                    new_rows |= 1 << i
            if new_rows != row_mask:
                row_mask = new_rows
                changed = True
            seen = set()
            new_cols = 0
            for j in _bits(col_mask):
                pattern = self.col_ones[j] & row_mask
                if pattern not in seen:
                    seen.add(pattern)
                    new_cols |= 1 << j
            if new_cols != col_mask:
                col_mask = new_cols
                changed = True
        return row_mask, col_mask

    def _canon(self, row_mask: int, col_mask: int) -> _Canon:
        cached = self._canon_cache.get((row_mask, col_mask))
        if cached is not None:
            return cached
        reduced_rows, reduced_cols = self._reduce(row_mask, col_mask)
        rows = _bits(reduced_rows)
        cols = _bits(reduced_cols)
        nr, nc = len(rows), len(cols)
        patterns = [
            _extract(self.row_ones[i] & reduced_cols, reduced_cols)
            for i in rows
        ]
        key_rows, row_order, col_order = _refined_orders(patterns, nr, nc)
        key_straight = (nr, nc, key_rows)
        col_patterns = [
            _extract(self.col_ones[j] & reduced_rows, reduced_rows)
            for j in cols
        ]
        key_cols, t_row_order, t_col_order = _refined_orders(
            col_patterns, nc, nr
        )
        key_transposed = (nc, nr, key_cols)
        transposed = key_transposed < key_straight
        # Class masks: every actual row/column of the (unreduced)
        # subrectangle grouped with the representative it matches.
        row_groups: dict[int, int] = {}
        for i in _bits(row_mask):
            pattern = self.row_ones[i] & reduced_cols
            row_groups[pattern] = row_groups.get(pattern, 0) | (1 << i)
        col_groups: dict[int, int] = {}
        for j in _bits(col_mask):
            pattern = self.col_ones[j] & reduced_rows
            col_groups[pattern] = col_groups.get(pattern, 0) | (1 << j)
        if transposed:
            key = key_transposed
            axis0 = tuple(
                col_groups[self.col_ones[cols[c]] & reduced_rows]
                for c in t_row_order
            )
            axis1 = tuple(
                row_groups[self.row_ones[rows[r]] & reduced_cols]
                for r in t_col_order
            )
        else:
            key = key_straight
            axis0 = tuple(
                row_groups[self.row_ones[rows[r]] & reduced_cols]
                for r in row_order
            )
            axis1 = tuple(
                col_groups[self.col_ones[cols[c]] & reduced_rows]
                for c in col_order
            )
        canon = _Canon(row_mask, col_mask, key, transposed, (axis0, axis1))
        self._canon_cache[(row_mask, col_mask)] = canon
        return canon

    def _entry(self, canon: _Canon) -> _Entry:
        entry = self.memo.get(canon.key)
        if entry is None:
            entry = _Entry(canon.key)
            self.memo[canon.key] = entry
            obs.counter("exhaustive.subproblems").inc()
        return entry

    def _children(self, canon: _Canon, axis: int, left, right):
        """Actual ``(row_mask, col_mask)`` pairs of a canonical split."""
        classes = canon.classes[axis]
        left_mask = 0
        for position in left:
            left_mask |= classes[position]
        right_mask = 0
        for position in right:
            right_mask |= classes[position]
        actual_axis = axis ^ canon.transposed
        if actual_axis == 0:
            return (
                (left_mask, canon.col_mask),
                (right_mask, canon.col_mask),
                actual_axis,
                right_mask,
            )
        return (
            (canon.row_mask, left_mask),
            (canon.row_mask, right_mask),
            actual_axis,
            right_mask,
        )

    # -- admissible lower bounds ---------------------------------------
    def _leaves_lb(self, entry: _Entry) -> int:
        """A certified lower bound on the subrectangle's leaf count.

        ``max`` of: the GF(2) rank pair ``rk(M) + rk(J xor M)`` (each 1-leaf
        is a rank-<=1 summand of M, each 0-leaf of its complement) and the
        greedy fooling-set sizes ``s1 + s0`` (fooling-set members need
        distinct leaves).  Both never exceed the true d^P — the
        admissibility proofs live in docs/performance.md.
        """
        if entry.lb_leaves is not None:
            return entry.lb_leaves
        if entry.mono is not None:
            entry.lb_leaves = 1
            return 1
        from repro.comm.rectangles import greedy_fooling_set_size_packed
        from repro.exact.gf2 import gf2_rank_pair

        nr, nc, patterns = entry.key
        rank_one, rank_zero = gf2_rank_pair(patterns, nc)
        fool_one = greedy_fooling_set_size_packed(patterns, nc, 1)
        fool_zero = greedy_fooling_set_size_packed(patterns, nc, 0)
        entry.lb_leaves = max(2, rank_one + rank_zero, fool_one + fool_zero)
        return entry.lb_leaves

    def _d_lb(self, entry: _Entry) -> int:
        """Certified D lower bound: d^P <= 2^D, so D >= ceil(log2 lb)."""
        if entry.mono is not None:
            return 0
        return max(1, (self._leaves_lb(entry) - 1).bit_length())

    # -- exact D: iterative deepening with a transposition table --------
    def solve_d(self, row_mask: int, col_mask: int, budget: int) -> int:
        """Exact D of the subrectangle if <= ``budget``, else a certified
        lower bound exceeding ``budget``."""
        canon = self._canon(row_mask, col_mask)
        entry = self._entry(canon)
        if entry.d_exact is not None:
            return entry.d_exact
        lower = max(entry.d_low, self._d_lb(entry))
        entry.d_low = lower
        if lower > budget:
            obs.counter("exhaustive.pruned").inc()
            obs.counter("exhaustive.pruned.depth_bound").inc()
            return lower
        for depth in range(lower, budget + 1):
            if self._feasible_d(canon, entry, depth):
                entry.d_exact = depth
                return depth
            entry.d_low = depth + 1
        return budget + 1

    def _feasible_d(self, canon: _Canon, entry: _Entry, depth: int) -> bool:
        """Is there a split whose children both solve within ``depth - 1``?
        Records the witnessing canonical split on success."""
        nr, nc, _patterns = entry.key
        for axis in (0, 1):
            size = nr if axis == 0 else nc
            if size < 2:
                continue
            for left, right in _bipartitions(tuple(range(size))):
                child_a, child_b = self._children(canon, axis, left, right)[:2]
                if (
                    self.solve_d(child_a[0], child_a[1], depth - 1)
                    <= depth - 1
                    and self.solve_d(child_b[0], child_b[1], depth - 1)
                    <= depth - 1
                ):
                    entry.d_split = (axis, left, right)
                    return True
        return False

    def solve_d_root(self) -> int:
        return self._solve_d_node(self.full_rows, self.full_cols)

    def _solve_d_node(self, row_mask: int, col_mask: int) -> int:
        """Exact D with no budget: widen until the deepening succeeds."""
        canon = self._canon(row_mask, col_mask)
        entry = self._entry(canon)
        if entry.d_exact is not None:
            return entry.d_exact
        budget = max(entry.d_low, self._d_lb(entry), 1)
        while True:
            trace.event("exhaustive.deepen", budget=budget)
            result = self.solve_d(row_mask, col_mask, budget)
            if result <= budget:
                return result
            budget = result

    # -- exact leaves: depth-first branch-and-bound ---------------------
    def _peek_leaves_lb(self, row_mask: int, col_mask: int) -> int:
        canon = self._canon(row_mask, col_mask)
        entry = self._entry(canon)
        if entry.lv_exact is not None:
            return entry.lv_exact
        return max(entry.lv_low, self._leaves_lb(entry))

    def solve_leaves(self, row_mask: int, col_mask: int, cap: int) -> int:
        """Exact minimum leaves if <= ``cap``, else a certified lower bound
        exceeding ``cap``."""
        canon = self._canon(row_mask, col_mask)
        entry = self._entry(canon)
        if entry.lv_exact is not None:
            return entry.lv_exact
        lower = max(entry.lv_low, self._leaves_lb(entry))
        entry.lv_low = lower
        if lower > cap:
            obs.counter("exhaustive.pruned").inc()
            obs.counter("exhaustive.pruned.leaf_bound").inc()
            return lower
        nr, nc, _patterns = entry.key
        best: int | None = None
        best_split = None
        current = cap
        for axis in (0, 1):
            size = nr if axis == 0 else nc
            if size < 2:
                continue
            for left, right in _bipartitions(tuple(range(size))):
                child_a, child_b = self._children(canon, axis, left, right)[:2]
                lb_b = self._peek_leaves_lb(*child_b)
                leaves_a = self.solve_leaves(*child_a, current - lb_b)
                if leaves_a + lb_b > current:
                    continue
                leaves_b = self.solve_leaves(*child_b, current - leaves_a)
                total = leaves_a + leaves_b
                if total <= current:
                    best = total
                    best_split = (axis, left, right)
                    current = total - 1
        if best is not None:
            entry.lv_exact = best
            entry.lv_split = best_split
            return best
        entry.lv_low = max(entry.lv_low, cap + 1)
        return entry.lv_low

    def solve_leaves_root(self) -> int:
        # A protocol's leaves partition the matrix, so entries bound leaves:
        # the search with this cap always terminates with the exact optimum.
        cap = self.n_rows * self.n_cols
        result = self.solve_leaves(self.full_rows, self.full_cols, cap)
        assert result <= cap, "leaf partition cannot exceed the entry count"
        return result

    # -- tree extraction ------------------------------------------------
    def serialized_root_tree(self) -> list:
        return self._serialized_tree(self.full_rows, self.full_cols)

    def _serialized_tree(self, row_mask: int, col_mask: int) -> list:
        canon = self._canon(row_mask, col_mask)
        entry = self._entry(canon)
        if entry.mono is not None:
            i = _bits(row_mask)[0]
            j = _bits(col_mask)[0]
            return ["L", int(self.data[i, j])]
        if entry.d_exact is None or entry.d_split is None:
            self._solve_d_node(row_mask, col_mask)
        axis, left, right = entry.d_split
        child_a, child_b, actual_axis, right_mask = self._children(
            canon, axis, left, right
        )
        return [
            "N", actual_axis, _bits(right_mask),
            self._serialized_tree(*child_a),
            self._serialized_tree(*child_b),
        ]


# ---------------------------------------------------------------------------
# Shared in-process search cache (LRU, lock-guarded for parmap drivers).
# ---------------------------------------------------------------------------

#: LRU of shared searches keyed by (deduplicated bytes, shape), so a D(f)
#: query followed by a tree or d^P query (the E15 pattern) reuses one search
#: object.  Guarded by ``_SEARCH_CACHE_LOCK``: :mod:`repro.util.parallel`
#: pools fork *processes* (each worker gets its own cache), but driver-side
#: threads may share this one — see docs/performance.md.
_SEARCH_CACHE: OrderedDict[tuple[bytes, tuple[int, int]], _BitsetSearch] = (
    OrderedDict()
)
_SEARCH_CACHE_LIMIT = 64
_SEARCH_CACHE_LOCK = Lock()


def _search_for(deduped: TruthMatrix) -> _BitsetSearch:
    data = np.ascontiguousarray(deduped.data)
    key = (data.tobytes(), deduped.shape)
    with _SEARCH_CACHE_LOCK:
        search = _SEARCH_CACHE.get(key)
        if search is not None:
            _SEARCH_CACHE.move_to_end(key)
            search.hits += 1
            obs.counter("exhaustive.search_cache.hits").inc()
            trace.event("exhaustive.search_memo", hit=True)
            return search
    # Construct outside the lock; a racing duplicate is harmless (one wins).
    search = _BitsetSearch(data)
    with _SEARCH_CACHE_LOCK:
        existing = _SEARCH_CACHE.get(key)
        if existing is not None:
            _SEARCH_CACHE.move_to_end(key)
            existing.hits += 1
            obs.counter("exhaustive.search_cache.hits").inc()
            return existing
        obs.counter("exhaustive.search_cache.misses").inc()
        trace.event("exhaustive.search_memo", hit=False)
        _SEARCH_CACHE[key] = search
        while len(_SEARCH_CACHE) > _SEARCH_CACHE_LIMIT:
            _SEARCH_CACHE.popitem(last=False)
    return search


def clear_search_cache() -> None:
    """Drop every in-process search object (the persistent on-disk cache,
    if configured, is unaffected — that is exactly what lets the warm-cache
    tests and perfbench's exact_batch measure disk-cache warmth honestly)."""
    with _SEARCH_CACHE_LOCK:
        _SEARCH_CACHE.clear()


def search_cache_stats() -> dict:
    """Size/limit plus per-entry hit counts of the in-process LRU."""
    with _SEARCH_CACHE_LOCK:
        entries = [
            {"shape": list(key[1]), "hits": search.hits}
            for key, search in _SEARCH_CACHE.items()
        ]
    return {
        "size": len(entries),
        "limit": _SEARCH_CACHE_LIMIT,
        "entries": entries,
    }


# ---------------------------------------------------------------------------
# Parallel root-split fan-out.
#
# D(f) and d^P(f) are minima over *root* splits: D = 1 + min over splits of
# max(D(A), D(B)); d^P = min over splits of leaves(A) + leaves(B).  The
# matrix is deduplicated before the fan-out, so enumerating bipartitions of
# the actual row/column index sets is a complete enumeration (no reduction
# happens at the root).  Each worker evaluates a round-robin chunk of the
# splits against an incumbent = min(its own best, the SharedBound file);
# a split is pruned only when a budgeted child search certifies its cost
# cannot *strictly* beat a witnessed incumbent, so the driver's min over
# worker bests is exact at any worker count — see docs/performance.md §6.
# ---------------------------------------------------------------------------


def _root_splits(n_rows: int, n_cols: int) -> list[tuple[int, int, int]]:
    """Every root split as ``(axis, left_mask, right_mask)`` bitmasks."""
    splits = []
    for axis, size in ((0, n_rows), (1, n_cols)):
        if size < 2:
            continue
        for left, right in _bipartitions(tuple(range(size))):
            left_mask = 0
            for i in left:
                left_mask |= 1 << i
            right_mask = 0
            for i in right:
                right_mask |= 1 << i
            splits.append((axis, left_mask, right_mask))
    return splits


def _split_priority(split, kind: str):
    """Deterministic evaluation order for root splits, promising first.

    For leaves, peeling a thin slice off (singleton row/column) tends to
    be optimal or near it — a 1xc deduped child costs at most 2 leaves —
    so thin-first lets every worker witness a tight cost almost
    immediately and downgrade the rest of its chunk to lower-bound
    prunes.  For D the cost is ``1 + max`` of the children, so *balanced*
    splits are the promising ones.
    """
    _axis, left_mask, right_mask = split
    thin = min(left_mask.bit_count(), right_mask.bit_count())
    if kind == "d":
        skew = abs(left_mask.bit_count() - right_mask.bit_count())
        return (skew, split)
    return (thin, split)


def _round_robin(splits, n_chunks: int):
    """Deal splits into ``n_chunks`` hands, preserving per-hand order.

    Round-robin (rather than contiguous slices) interleaves row and column
    splits across workers, so every worker finds *some* cheap witnessed
    cost early and the shared bound tightens for all of them.
    """
    n_chunks = max(1, min(n_chunks, len(splits)))
    chunks: list[list] = [[] for _ in range(n_chunks)]
    for index, split in enumerate(splits):
        chunks[index % n_chunks].append(split)
    return chunks


def _worker_search(data_bytes: bytes, shape: tuple[int, int]) -> "_BitsetSearch":
    """Rebuild the bitset search inside a pool worker.

    Routes through :func:`_search_for`, so consecutive chunk tasks that
    land on the same (pool-persistent) worker process reuse one search
    object — and with it the memo all chunks of this matrix share.
    """
    data = np.frombuffer(data_bytes, dtype=np.uint8).reshape(shape)
    tmx = TruthMatrix(
        data.copy(), tuple(range(shape[0])), tuple(range(shape[1]))
    )
    return _search_for(tmx)


def _split_children(search: "_BitsetSearch", split):
    axis, left_mask, right_mask = split
    if axis == 0:
        return (
            (left_mask, search.full_cols),
            (right_mask, search.full_cols),
        )
    return (
        (search.full_rows, left_mask),
        (search.full_rows, right_mask),
    )


def _incumbent(best: int | None, bound: SharedBound | None) -> int | None:
    if bound is None:
        return best
    shared = bound.get()
    if shared is None:
        return best
    if best is None or shared < best:
        return shared
    return best


def _parallel_d_task(task) -> int | None:
    """One worker's chunk of the root-split D(f) minimum.

    Returns the best *witnessed* ``1 + max(D(A), D(B))`` over its splits,
    or None when the incumbent pruned every one — in which case some other
    worker witnessed (and returns) a cost at least as good.
    """
    data_bytes, shape, splits, bound_path = task
    search = _worker_search(data_bytes, shape)
    bound = SharedBound(bound_path) if bound_path else None
    best: int | None = None
    for split in splits:
        child_a, child_b = _split_children(search, split)
        incumbent = _incumbent(best, bound)
        if incumbent is not None:
            # Beating the incumbent strictly needs both children <= inc-2.
            budget = incumbent - 2
            if budget < 0:
                obs.counter("exhaustive.parallel.pruned").inc()
                continue
            a = search.solve_d(*child_a, budget)
            if a > budget:
                obs.counter("exhaustive.parallel.pruned").inc()
                continue
            b = search.solve_d(*child_b, budget)
            if b > budget:
                obs.counter("exhaustive.parallel.pruned").inc()
                continue
            cost = 1 + max(a, b)
        else:
            a = search._solve_d_node(*child_a)
            b = search._solve_d_node(*child_b)
            cost = 1 + max(a, b)
        if best is None or cost < best:
            best = cost
            if bound is not None:
                bound.publish(cost)
    return best


def _parallel_leaves_task(task) -> int | None:
    """One worker's chunk of the root-split d^P minimum (same contract)."""
    data_bytes, shape, splits, bound_path = task
    search = _worker_search(data_bytes, shape)
    bound = SharedBound(bound_path) if bound_path else None
    # Leaves of any subrectangle never exceed its entry count, so the full
    # entry count is a cap under which solve_leaves is always exact.
    cap_total = shape[0] * shape[1]
    best: int | None = None
    for split in splits:
        child_a, child_b = _split_children(search, split)
        incumbent = _incumbent(best, bound)
        if incumbent is not None:
            current = incumbent - 1  # must strictly beat the incumbent
            lb_b = search._peek_leaves_lb(*child_b)
            if lb_b + 1 > current:
                obs.counter("exhaustive.parallel.pruned").inc()
                continue
            a = search.solve_leaves(*child_a, current - lb_b)
            if a + lb_b > current:
                obs.counter("exhaustive.parallel.pruned").inc()
                continue
            b = search.solve_leaves(*child_b, current - a)
            if a + b > current:
                obs.counter("exhaustive.parallel.pruned").inc()
                continue
            cost = a + b
        else:
            a = search.solve_leaves(*child_a, cap_total)
            b = search.solve_leaves(*child_b, cap_total)
            cost = a + b
        if best is None or cost < best:
            best = cost
            if bound is not None:
                bound.publish(cost)
    return best


_PARALLEL_TASKS = {"d": _parallel_d_task, "leaves": _parallel_leaves_task}


def _announcement_bound(data: np.ndarray, kind: str) -> int:
    """A *witnessed* upper bound from the two announcement protocols.

    Agent 0 can always announce its (deduped) row index with a balanced
    split tree, after which the rectangle is a single row and one more bit
    from agent 1 finishes any non-constant row; symmetrically for columns.
    Both are real protocols, so their costs are achieved — which is what
    lets the driver seed the shared bound with them and fold them into the
    final min without breaking exactness.
    """
    bounds = []
    for view in (data, data.T):
        n = view.shape[0]
        constant = [
            bool((row == row[0]).all()) for row in view
        ]
        if kind == "d":
            index_bits = max(1, (n - 1).bit_length()) if n > 1 else 0
            cost = index_bits + (0 if all(constant) else 1)
        else:
            cost = sum(1 if c else 2 for c in constant)
        bounds.append(cost)
    return min(bounds)


def _parallel_root_min(deduped: TruthMatrix, kind: str, n_workers: int) -> int:
    """Fan the root-split minimum out over ``n_workers`` pool processes."""
    data = np.ascontiguousarray(deduped.data)
    n_rows, n_cols = deduped.shape
    splits = _root_splits(n_rows, n_cols)
    assert splits, "parallel path requires a splittable (non-1x1) matrix"
    splits.sort(key=lambda split: _split_priority(split, kind))
    chunks = _round_robin(splits, n_workers * 2)
    # Seeding the bound file with the announcement-protocol cost spares
    # every worker the unbudgeted first evaluation (cap = entry count)
    # that would otherwise dominate its wall time.
    seed = _announcement_bound(data, kind)
    with trace.span(
        "exhaustive.parallel_root",
        kind=kind,
        workers=n_workers,
        splits=len(splits),
        chunks=len(chunks),
        seed_bound=seed,
    ):
        with tempfile.TemporaryDirectory(prefix="repro-bound-") as scratch:
            bound_path = os.path.join(scratch, f"{kind}.bound")
            SharedBound(bound_path).publish(seed)
            tasks = [
                (data.tobytes(), deduped.shape, tuple(chunk), bound_path)
                for chunk in chunks
            ]
            # chunksize=1: chunks are few and heavy; queueing two behind a
            # straggler would forfeit the whole fan-out.
            results = parmap(
                _PARALLEL_TASKS[kind], tasks, workers=n_workers, chunksize=1
            )
    # The seed is witnessed too: a worker best only exists where it beat
    # the incumbent, and splits pruned against the seed cost >= seed.
    return min([seed] + [r for r in results if r is not None])


# ---------------------------------------------------------------------------
# The one query path (the persistent cache is opt-in; see repro.cache).
# ---------------------------------------------------------------------------

#: How one sequential search answers each record field.
_SOLVERS = {
    "d": _BitsetSearch.solve_d_root,
    "leaves": _BitsetSearch.solve_leaves_root,
    "tree": _BitsetSearch.serialized_root_tree,
}


def _query(name: str, fields: tuple[str, ...], tm, limit, workers) -> dict:
    """The record ``fields`` of ``tm``'s deduplicated matrix.

    Span ``exhaustive.<name>``, dedupe, size guard, persistent-cache
    probe, search, cache merge.  A record answers only when it holds
    every field; a fresh result is merged into it.  ``workers > 1``
    fans a single ``d`` or ``leaves`` field out over the root splits.
    """
    from repro import cache

    n_workers = resolve_workers(workers)
    # The span covers dedup + cache probing too, so traced wall time stays
    # attributed even when the search itself is cheap.
    with trace.span(
        f"exhaustive.{name}",
        workers=n_workers,
        rows=int(tm.shape[0]),
        cols=int(tm.shape[1]),
    ) as sp:
        deduped = dedupe(tm)
        _check_size(deduped, DEFAULT_LIMIT if limit is None else limit)
        if sp is not None:
            sp.annotate(
                deduped_rows=int(deduped.shape[0]),
                deduped_cols=int(deduped.shape[1]),
            )
        store = cache.active_store()
        if store is not None:
            key = cache.matrix_key(
                ENGINE_VERSION,
                deduped.shape,
                np.ascontiguousarray(deduped.data).tobytes(),
            )
            record = store.get(key) or {}
            if all(
                isinstance(record.get(field), list if field == "tree" else int)
                for field in fields
            ):
                return {field: record[field] for field in fields}
        if n_workers > 1 and len(fields) == 1 and deduped.data.size > 1:
            result = {
                fields[0]: _parallel_root_min(deduped, fields[0], n_workers)
            }
        else:
            search = _search_for(deduped)
            result = {field: _SOLVERS[field](search) for field in fields}
        if store is not None:
            store.merge(key, result, ENGINE_VERSION, deduped.shape)
        return result


# ---------------------------------------------------------------------------
# Public API.
# ---------------------------------------------------------------------------


def communication_complexity(
    tm: TruthMatrix, limit: int | None = None, workers: int | None = None
) -> int:
    """Exact D(f) of the (deduplicated) truth matrix.

    ``workers`` (explicit arg > ``REPRO_WORKERS`` env > 1) fans the root
    splits out across a process pool with a shared pruning bound; the
    result is the same exact integer at any worker count.
    """
    return _query("communication_complexity", ("d",), tm, limit, workers)["d"]


def optimal_protocol_tree(
    tm: TruthMatrix, limit: int | None = None
) -> tuple[int, ProtocolTree]:
    """Exact D(f) together with a protocol tree achieving it.

    The tree's node predicates take a *label* (row label for agent 0 nodes,
    column label for agent 1 nodes) and return the announced bit.  Labels of
    duplicate rows/columns are mapped onto their representative.  Always
    sequential: the tree is pinned to the sequential traversal order.
    """
    record = _query("optimal_protocol_tree", ("d", "tree"), tm, limit, 1)
    root = _tree_from_serialized(
        record["tree"],
        _label_index(tm.data, tm.row_labels),
        _label_index(tm.data.T, tm.col_labels),
    )
    return record["d"], ProtocolTree(root)


def partition_number(
    tm: TruthMatrix, limit: int | None = None, workers: int | None = None
) -> int:
    """The *protocol* partition number: minimum leaves over all protocols.

    This upper-bounds (and for Yao's bound substitutes) the unrestricted
    rectangle partition number d(f); ``log2`` of it sandwiches D(f) within a
    factor-2/additive terms.  Same recursion as D(f) with ``+`` in place of
    ``max``, running on the same shared search memo as
    :func:`communication_complexity`.  ``workers`` parallelizes the root
    splits exactly as in :func:`communication_complexity` (same value at
    any worker count).
    """
    return _query("partition_number", ("leaves",), tm, limit, workers)["leaves"]


def _label_index(data: np.ndarray, labels) -> dict:
    """Each row label of ``data`` mapped to its row's deduped index.

    dedupe() keeps first occurrences in order, so position-among-distinct
    on the ORIGINAL matrix is the deduped index (comparing against deduped
    rows directly would fail: deduping rows changes the length of column
    tuples and vice versa).
    """
    distinct: dict[tuple, int] = {}
    return {
        label: distinct.setdefault(row, len(distinct))
        for label, row in zip(labels, map(tuple, data.tolist()))
    }


def _row_predicate(row_index: dict, right_set: frozenset):
    def predicate(label):
        return 1 if row_index[label] in right_set else 0

    return predicate


def _col_predicate(col_index: dict, right_set: frozenset):
    def predicate(label):
        return 1 if col_index[label] in right_set else 0

    return predicate


def _tree_from_serialized(serial, row_index: dict, col_index: dict):
    """Rebuild a protocol tree from the wire form (cacheable across
    processes): ``["L", value]`` leaves, ``["N", axis, right_indices,
    left_subtree, right_subtree]`` nodes with deduped-matrix indices."""
    if serial[0] == "L":
        return Leaf(int(serial[1]))
    _tag, axis, right, left_subtree, right_subtree = serial
    right_set = frozenset(int(i) for i in right)
    predicate = (
        _row_predicate(row_index, right_set)
        if axis == 0
        else _col_predicate(col_index, right_set)
    )
    return Node(
        int(axis),
        predicate,
        _tree_from_serialized(left_subtree, row_index, col_index),
        _tree_from_serialized(right_subtree, row_index, col_index),
    )


def deterministic_cc_of_function(f, partition, limit: int | None = None) -> int:
    """Convenience: exact D(f) of a full-bit-string predicate under π."""
    from repro.comm.truth_matrix import truth_matrix_from_function

    return communication_complexity(
        truth_matrix_from_function(f, partition), limit
    )
