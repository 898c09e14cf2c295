"""Definition 3.8 (proper partitions) and Lemma 3.9 (normalization).

A *proper* partition assigns

* at least ``k(n-1)²/8`` bit positions of the submatrix C to the first
  agent (i.e. agent 0 *dominates* C), and
* at least ``k(n-3-⌈log_q n⌉)/2`` bit positions of *every row* of the
  submatrix E to the second agent (agent 1 dominates each E row).

Lemma 3.9: *any* even partition can be transformed into a proper one by
permuting rows and columns of the input matrix (and possibly renaming the
agents) — permutations don't change singularity, so the lower bound proven
for proper partitions covers all even partitions.

Our executable transform: permuting the input means the construction is free
to choose *which input rows/columns play the roles* of the designated C and
E blocks.  :func:`make_proper` searches for that casting — greedy alternating
optimization with randomized restarts — and returns a verified certificate
(:class:`Properization`).  The paper's pigeonhole case analysis guarantees a
casting exists for every even partition; the search failing would therefore
falsify (our reading of) the lemma, and the test suite hammers it with
adversarial partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.partition import Partition
from repro.singularity.family import RestrictedFamily
from repro.util.rng import ReproducibleRNG


def required_c_bits(family: RestrictedFamily) -> int:
    """The Definition 3.8 threshold for C: k(n-1)²/8 (half of C's bits)."""
    return family.k * (family.n - 1) ** 2 // 8


def required_e_row_bits(family: RestrictedFamily) -> int:
    """Per-row threshold for E: k·e_width/2, rounded up (at least half)."""
    return (family.k * family.e_width + 1) // 2


def is_proper(family: RestrictedFamily, partition: Partition) -> bool:
    """Definition 3.8 on the identity casting (blocks where Fig. 1 puts them)."""
    codec = family.codec()
    c_positions = [
        p for (i, j) in family.c_cells() for p in codec.entry_positions(i, j)
    ]
    agent0_c, _ = partition.count_in(c_positions)
    if agent0_c < required_c_bits(family):
        return False
    for r in range(family.h):
        row_positions = [
            p for (i, j) in family.e_row_cells(r) for p in codec.entry_positions(i, j)
        ]
        _, agent1_row = partition.count_in(row_positions)
        if family.e_width and agent1_row < required_e_row_bits(family):
            return False
    return True


@dataclass(frozen=True)
class Properization:
    """A verified Lemma 3.9 certificate.

    Attributes:
        row_perm / col_perm: constructed cell (i, j) is played by input cell
            (row_perm[i], col_perm[j]).
        swap_agents: whether the agents were renamed.
        c_weight: agent-0 bits landing in the C block (≥ threshold).
        e_row_weights: agent-1 bits per E row (each ≥ threshold).
    """

    family: RestrictedFamily
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    swap_agents: bool
    c_weight: int
    e_row_weights: tuple[int, ...]

    def transformed_partition(self, partition: Partition) -> Partition:
        """The partition as seen on the permuted matrix: bit (i, j, b) of the
        constructed matrix is owned by whoever owns bit
        (row_perm[i], col_perm[j], b) of the input (names swapped if asked)."""
        codec = self.family.codec()
        agent0: set[int] = set()
        size = self.family.m_size
        for i in range(size):
            for j in range(size):
                src_i, src_j = self.row_perm[i], self.col_perm[j]
                for b in range(self.family.k):
                    owner = partition.owner(codec.bit_index(src_i, src_j, b))
                    if self.swap_agents:
                        owner = 1 - owner
                    if owner == 0:
                        agent0.add(codec.bit_index(i, j, b))
        return Partition(codec.total_bits, frozenset(agent0))

    def verify(self, partition: Partition) -> bool:
        """Re-check Definition 3.8 on the transformed partition from scratch."""
        return is_proper(self.family, self.transformed_partition(partition))


class ProperizationError(Exception):
    """No proper casting found — would falsify (our reading of) Lemma 3.9
    if the input partition was genuinely even."""


def make_proper(
    family: RestrictedFamily,
    partition: Partition,
    seed: int = 0,
    restarts: int = 200,
) -> Properization:
    """Find row/column permutations (and possibly an agent swap) casting the
    partition as proper.

    Strategy per restart: score every input cell by its agent-0 bit weight;
    greedily choose h rows × h columns maximizing agent-0 weight for C
    (alternating row/column improvement), then choose e_width columns and h
    rows (disjoint) where agent 1 dominates every chosen row's chosen cells.
    Deterministic first pass, randomized row/column orderings afterwards.
    """
    codec = family.codec()
    size = family.m_size
    k = family.k
    # weight0[i][j] = bits of entry (i,j) read by agent 0.
    weight0 = [
        [
            sum(
                1
                for b in range(k)
                if partition.owner(codec.bit_index(i, j, b)) == 0
            )
            for j in range(size)
        ]
        for i in range(size)
    ]
    rng = ReproducibleRNG(seed)
    for attempt in range(restarts):
        for swap in (False, True):
            w = (
                weight0
                if not swap
                else [[k - x for x in row] for row in weight0]
            )
            casting = _greedy_casting(family, w, rng if attempt else None)
            if casting is None:
                continue
            c_rows, c_cols, e_rows, e_cols, c_weight, e_weights = casting
            row_perm = _build_perm(size, _c_row_slots(family), c_rows, _e_row_slots(family), e_rows)
            col_perm = _build_perm(size, _c_col_slots(family), c_cols, _e_col_slots(family), e_cols)
            result = Properization(
                family,
                tuple(row_perm),
                tuple(col_perm),
                swap,
                c_weight,
                tuple(e_weights),
            )
            if result.verify(partition):
                return result
    raise ProperizationError(
        f"no proper casting found in {restarts} restarts — "
        f"is the partition even? sizes={partition.sizes()}"
    )


def _c_row_slots(family: RestrictedFamily) -> list[int]:
    return [family.n + i for i in range(family.h)]


def _c_col_slots(family: RestrictedFamily) -> list[int]:
    return [1 + family.h + j for j in range(family.h)]


def _e_row_slots(family: RestrictedFamily) -> list[int]:
    return [family.n + family.h + i for i in range(family.h)]


def _e_col_slots(family: RestrictedFamily) -> list[int]:
    offset = (family.n - 1) - family.e_width
    return [family.n + 1 + offset + j for j in range(family.e_width)]


def _build_perm(
    size: int,
    slots_a: list[int],
    fill_a: list[int],
    slots_b: list[int],
    fill_b: list[int],
) -> list[int]:
    """A permutation sending ``fill_a`` into ``slots_a`` and ``fill_b`` into
    ``slots_b``, everything else in order."""
    perm = [-1] * size
    used = set(fill_a) | set(fill_b)
    for slot, src in zip(slots_a, fill_a):
        perm[slot] = src
    for slot, src in zip(slots_b, fill_b):
        perm[slot] = src
    rest = iter([x for x in range(size) if x not in used])
    for i in range(size):
        if perm[i] == -1:
            perm[i] = next(rest)
    return perm


def _greedy_casting(family: RestrictedFamily, w, rng):
    """Choose (C rows, C cols, E rows, E cols) maximizing agent-0 weight on C
    while agent 1 dominates each chosen E row.  Returns None on failure."""
    size = family.m_size
    h, k = family.h, family.k
    e_width = family.e_width
    need_c = required_c_bits(family)
    need_e = required_e_row_bits(family)
    order = list(range(size))
    if rng is not None:
        rng.shuffle(order)

    # --- C block: alternating maximization of sum of w over rows x cols ---
    cols = sorted(order, key=lambda j: -sum(w[i][j] for i in range(size)))[:h]
    rows: list[int] = []
    for _ in range(4):
        rows = sorted(order, key=lambda i: -sum(w[i][j] for j in cols))[:h]
        cols = sorted(order, key=lambda j: -sum(w[i][j] for i in rows))[:h]
    c_weight = sum(w[i][j] for i in rows for j in cols)
    if c_weight < need_c:
        return None
    c_rows, c_cols = rows, cols

    if e_width == 0:
        return c_rows, c_cols, [], [], c_weight, []

    # --- E block: agent 1 weight is k - w; avoid C's rows and columns ---
    row_pool = [i for i in order if i not in set(c_rows)]
    col_pool = [j for j in order if j not in set(c_cols)]
    # Pick columns with the largest total agent-1 weight over the pool, then
    # rows that individually clear the per-row threshold.
    e_cols = sorted(
        col_pool, key=lambda j: -sum(k - w[i][j] for i in row_pool)
    )[:e_width]
    scored_rows = sorted(
        row_pool, key=lambda i: -sum(k - w[i][j] for j in e_cols)
    )
    e_rows = []
    e_weights = []
    for i in scored_rows:
        weight = sum(k - w[i][j] for j in e_cols)
        if weight >= need_e:
            e_rows.append(i)
            e_weights.append(weight)
            if len(e_rows) == h:
                break
    if len(e_rows) < h:
        return None
    return c_rows, c_cols, e_rows, e_cols, c_weight, e_weights
