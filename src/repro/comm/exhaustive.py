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
subtrees, and a symmetry normal form (column/row sorts to a fixed point,
at most 3 rounds, then the transpose minimum) lets permutation-equivalent
subrectangles share one memo entry.
Size limit: :data:`DEFAULT_LIMIT` (18) rows/columns after deduplication.
The unpruned tuple-of-indices DP the test suite checks this search
against lives in ``tests/comm/exact_oracle.py``.

At the root, d^P starts from a *witnessed* upper bound: the cheaper of
the two announcement protocols (one agent names its input, the other
adds a bit where needed).  The search only has to refute every protocol
with fewer leaves; when it cannot, the seed is the optimum, and the rank
and fooling-set bounds usually finish that refutation at the root
itself (docs/performance.md §6).  The search runs in the calling
process; no option fans it out.

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

from collections import OrderedDict
from threading import Lock

import numpy as np

from repro import obs
from repro.comm.protocol import Leaf, Node, ProtocolTree
from repro.comm.truth_matrix import TruthMatrix
from repro.trace import core as trace

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
    matrix.  ``classes[axis]`` (None until :meth:`_BitsetSearch._class_maps`
    needs it) maps each canonical axis position to the mask of *actual*
    deduped-matrix indices it stands for (duplicate rows/columns of the
    subrectangle ride along with their representative).  ``transposed``
    records whether canonical axis 0 is actual columns.
    """

    __slots__ = ("row_mask", "col_mask", "key", "transposed", "classes")

    def __init__(self, row_mask, col_mask, key, transposed):
        self.row_mask = row_mask
        self.col_mask = col_mask
        self.key = key
        self.transposed = transposed
        self.classes = None


class _Entry:
    """The engine's memo record for one canonical subrectangle.

    ``d_exact``/``lv_exact`` are exact values once known; ``d_low``/
    ``lv_low`` are certified lower bounds that tighten as budgeted searches
    fail; the D split is stored in canonical coordinates so every
    permutation-equivalent subrectangle can replay it through its own
    class maps.
    """

    __slots__ = (
        "key", "mono",
        "d_exact", "d_low", "d_split",
        "lv_exact", "lv_low", "lb_leaves",
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
        self.lb_leaves = None


class _SetBits(dict):
    """Set-bit positions of each mask, ascending, computed on first lookup."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        positions = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        self[mask] = positions
        return positions


def _refined_orders(patterns: list[int], col_patterns: list[int], set_bits):
    """Sort columns, then rows, by pattern value, for at most 3 rounds.

    Takes a matrix's row patterns, its column patterns and a
    :class:`_SetBits`; returns ``(final_row_patterns, row_order,
    col_order)``.  Patterns are rebuilt by scattering set-bit positions,
    and ties break by index, so each order is a function of the other: a
    round that reproduces either order is a fixed point, and stopping
    there returns what three full rounds return (docs/performance.md §5).
    """
    nr, nc = len(patterns), len(col_patterns)
    row_bits = [set_bits[p] for p in patterns]
    row_order = list(range(nr))
    col_order = None
    col_pats = col_patterns
    for round_ in range(3):
        if round_:
            col_pats = [0] * nc
            for t, r in enumerate(row_order):
                bit = 1 << t
                for c in row_bits[r]:
                    col_pats[c] |= bit
        new_cols = sorted(range(nc), key=col_pats.__getitem__)
        if new_cols == col_order:
            break
        col_order = new_cols
        col_bit = [0] * nc
        for k, c in enumerate(col_order):
            col_bit[c] = 1 << k
        row_pats = [0] * nr
        for r, bits in enumerate(row_bits):
            v = 0
            for c in bits:
                v |= col_bit[c]
            row_pats[r] = v
        new_rows = sorted(range(nr), key=row_pats.__getitem__)
        if new_rows == row_order:
            break
        row_order = new_rows
    return tuple([row_pats[r] for r in row_order]), row_order, col_order


def _canonical_view(patterns: list[int], col_patterns: list[int], set_bits):
    """``(key, transposed, axis0_order, axis1_order)`` of a reduced matrix:
    the smaller ordering, straight or transposed.  Keys start with their
    shape, so only a square matrix needs both; a tie keeps the straight."""
    nr, nc = len(patterns), len(col_patterns)
    view = None
    if nr <= nc:
        rows_key, order0, order1 = _refined_orders(patterns, col_patterns, set_bits)
        view = ((nr, nc, rows_key), False, order0, order1)
    if nc <= nr:
        cols_key, order0, order1 = _refined_orders(col_patterns, patterns, set_bits)
        if view is None or (nc, nr, cols_key) < view[0]:
            view = ((nc, nr, cols_key), True, order0, order1)
    return view


def _announcement_leaves(data: np.ndarray) -> int:
    """Leaves of the better announcement protocol: a witnessed d^P bound.

    Agent 0 announces its (deduped) row index, after which a constant row
    is one leaf and any other row takes one more bit from agent 1 (two
    leaves); symmetrically with agent 1 announcing its column.  Taking the
    min over both keeps the search's work equal on a matrix and its
    transpose.
    """
    return min(
        sum(1 if (row == row[0]).all() else 2 for row in view)
        for view in (data, data.T)
    )


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
        self.row_ones, _ = pack_numpy(data)
        self.col_ones, _ = pack_numpy(data.T)
        self.set_bits = _SetBits()
        self.full_rows = (1 << n_rows) - 1
        self.full_cols = (1 << n_cols) - 1
        self.memo: dict[tuple, _Entry] = {}
        self._canon_cache: dict[tuple[int, int], _Canon] = {}
        self._views: dict[tuple, tuple] = {}

    # -- canonicalization ----------------------------------------------
    def compact(self) -> None:
        """Drop the canonical-form caches; ``memo`` keeps every answer."""
        self._canon_cache.clear()
        self._views.clear()

    def _reduced(self, row_mask: int, col_mask: int):
        """``(row_groups, col_groups, patterns, col_patterns)``: rows grouped
        by their pattern on ``col_mask``, columns by theirs on ``row_mask``
        (pattern -> class mask, by ascending representative), and the row
        and column patterns of the representatives.  One pass per axis is
        a fixed point: dropping duplicate columns never merges rows."""
        set_bits, row_ones, col_ones = self.set_bits, self.row_ones, self.col_ones
        row_groups: dict[int, int] = {}
        position: dict[int, int] = {}  # representative row -> its position
        reduced_rows = 0
        for i in set_bits[row_mask]:
            pattern = row_ones[i] & col_mask
            if pattern in row_groups:
                row_groups[pattern] |= 1 << i
            else:
                row_groups[pattern] = 1 << i
                position[i] = len(position)
                reduced_rows |= 1 << i
        col_groups: dict[int, int] = {}
        for j in set_bits[col_mask]:
            pattern = col_ones[j] & row_mask
            if pattern in col_groups:
                col_groups[pattern] |= 1 << j
            else:
                col_groups[pattern] = 1 << j
        patterns = [0] * len(row_groups)
        col_patterns = [0] * len(col_groups)
        for k, ones in enumerate(col_groups):
            bit = 1 << k
            v = 0
            for i in set_bits[ones & reduced_rows]:
                t = position[i]
                patterns[t] |= bit
                v |= 1 << t
            col_patterns[k] = v
        return row_groups, col_groups, patterns, col_patterns

    def _canon(self, row_mask: int, col_mask: int) -> _Canon:
        """The canonical view of a subrectangle (see :class:`_Canon`).

        ``_canon_cache`` (by masks) and ``_views`` (by reduced patterns) are
        keyed by matrix content, so they live on the instance: a query after
        :func:`clear_search_cache` is cold again.  A module-level table may
        hold only input-independent facts."""
        cached = self._canon_cache.get((row_mask, col_mask))
        if cached is not None:
            return cached
        _rows, _cols, patterns, col_patterns = self._reduced(row_mask, col_mask)
        memo_key = (len(col_patterns), *patterns)
        view = self._views.get(memo_key)
        if view is None:
            view = _canonical_view(patterns, col_patterns, self.set_bits)[:2]
            self._views[memo_key] = view
        canon = _Canon(row_mask, col_mask, *view)
        self._canon_cache[(row_mask, col_mask)] = canon
        return canon

    def _class_maps(self, canon: _Canon) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``canon.classes``, built when the search first splits it."""
        if canon.classes is None:
            rows, cols, patterns, col_patterns = self._reduced(canon.row_mask, canon.col_mask)
            _, transposed, order0, order1 = _canonical_view(patterns, col_patterns, self.set_bits)
            axis0, axis1 = list(rows.values()), list(cols.values())
            if transposed:
                axis0, axis1 = axis1, axis0
            canon.classes = (tuple([axis0[i] for i in order0]), tuple([axis1[i] for i in order1]))
        return canon.classes

    def _entry(self, canon: _Canon) -> _Entry:
        entry = self.memo.get(canon.key)
        if entry is None:
            entry = _Entry(canon.key)
            self.memo[canon.key] = entry
            obs.counter("exhaustive.subproblems").inc()
        return entry

    def _children(self, canon: _Canon, axis: int, left, right):
        """Actual ``(row_mask, col_mask)`` pairs of a canonical split."""
        classes = self._class_maps(canon)[axis]
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
                    current = total - 1
        if best is not None:
            entry.lv_exact = best
            return best
        entry.lv_low = max(entry.lv_low, cap + 1)
        return entry.lv_low

    def solve_leaves_root(self) -> int:
        """Exact d^P: refute every protocol cheaper than the announcement
        seed (:func:`_announcement_leaves`, a real protocol's cost); when
        the refutation fails, the seed itself is the optimum."""
        seed = _announcement_leaves(self.data)
        result = self.solve_leaves(self.full_rows, self.full_cols, seed - 1)
        if result < seed:
            return result
        self._entry(self._canon(self.full_rows, self.full_cols)).lv_exact = seed
        return seed

    # -- tree extraction ------------------------------------------------
    def serialized_root_tree(self) -> list:
        return self._serialized_tree(self.full_rows, self.full_cols)

    def _serialized_tree(self, row_mask: int, col_mask: int) -> list:
        canon = self._canon(row_mask, col_mask)
        entry = self._entry(canon)
        if entry.mono is not None:
            i = self.set_bits[row_mask][0]
            j = self.set_bits[col_mask][0]
            return ["L", int(self.data[i, j])]
        if entry.d_exact is None or entry.d_split is None:
            self._solve_d_node(row_mask, col_mask)
        axis, left, right = entry.d_split
        child_a, child_b, actual_axis, right_mask = self._children(
            canon, axis, left, right
        )
        return [
            "N", actual_axis, list(self.set_bits[right_mask]),
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
        # Searches left behind keep their answers but not the canonical-form
        # caches (four fifths of their memory), which rebuild on demand.
        for cached in _SEARCH_CACHE.values():
            cached.compact()
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
# The one query path (the persistent cache is opt-in; see repro.cache).
# ---------------------------------------------------------------------------

#: How one sequential search answers each record field.
_SOLVERS = {
    "d": _BitsetSearch.solve_d_root,
    "leaves": _BitsetSearch.solve_leaves_root,
    "tree": _BitsetSearch.serialized_root_tree,
}


def _query(name: str, fields: tuple[str, ...], tm, limit) -> dict:
    """The record ``fields`` of ``tm``'s deduplicated matrix.

    Span ``exhaustive.<name>``, dedupe, size guard, persistent-cache
    probe, search, cache merge.  A record answers only when it holds
    every field; a fresh result is merged into it.
    """
    from repro import cache

    # The span covers dedup + cache probing too, so traced wall time stays
    # attributed even when the search itself is cheap.
    with trace.span(
        f"exhaustive.{name}",
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
        search = _search_for(deduped)
        result = {field: _SOLVERS[field](search) for field in fields}
        if store is not None:
            store.merge(key, result, ENGINE_VERSION, deduped.shape)
        return result


# ---------------------------------------------------------------------------
# Public API.
# ---------------------------------------------------------------------------


def _check_workers(workers: int | None) -> None:
    """The search runs in the calling process; ``workers`` remains only
    for callers that still pass ``workers=1``."""
    if workers not in (None, 1):
        raise ValueError(
            f"exact search runs in one process; workers must be None or 1, "
            f"got {workers!r}"
        )


def communication_complexity(
    tm: TruthMatrix, limit: int | None = None, workers: int | None = None
) -> int:
    """Exact D(f) of the (deduplicated) truth matrix.

    ``workers`` accepts only ``None`` or ``1``: the search always runs
    in the calling process.
    """
    _check_workers(workers)
    return _query("communication_complexity", ("d",), tm, limit)["d"]


def optimal_protocol_tree(
    tm: TruthMatrix, limit: int | None = None
) -> tuple[int, ProtocolTree]:
    """Exact D(f) together with a protocol tree achieving it.

    The tree's node predicates take a *label* (row label for agent 0 nodes,
    column label for agent 1 nodes) and return the announced bit.  Labels of
    duplicate rows/columns are mapped onto their representative.
    """
    record = _query("optimal_protocol_tree", ("d", "tree"), tm, limit)
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
    :func:`communication_complexity`; ``workers`` is checked as there.
    """
    _check_workers(workers)
    return _query("partition_number", ("leaves",), tm, limit)["leaves"]


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
