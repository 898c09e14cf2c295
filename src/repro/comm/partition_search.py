"""The outer minimum of Yao's definition: Comm(f) = min over partitions.

The paper's complexity measure minimizes over *all* even input partitions
(" The communication complexity of f is defined to be the minimum of
Comm(f, π) over all π"), and Theorem 1.1's strength is precisely that the
Ω(k n²) bound survives that minimum.  At enumerable sizes we can compute
the minimum *exactly*: enumerate every even bit-partition, build each truth
matrix, run the exact D(f) engine, take the min — and also the argmax/argmin
partitions, which show how much the split matters for a given function.

Costs are combinatorial twice over (C(2m, m) partitions × exponential D(f)
search), so this is strictly a small-input instrument — which is exactly
what certifying the *definition* needs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.comm.exhaustive import communication_complexity
from repro.comm.partition import Partition
from repro.comm.truth_matrix import truth_matrix_from_function
from repro.util.parallel import parmap


def even_partitions(total_bits: int, dedupe_symmetry: bool = True):
    """All exactly-even partitions of ``total_bits`` positions.

    With ``dedupe_symmetry`` (default), agent-swapped duplicates are removed
    by fixing position 0 with agent 0 — D(f) is symmetric under renaming, so
    the search space halves to C(n-1, n/2-1).
    """
    if total_bits < 2 or total_bits % 2:
        raise ValueError("need an even number of at least 2 bits")
    half = total_bits // 2
    if dedupe_symmetry:
        for rest in itertools.combinations(range(1, total_bits), half - 1):
            yield Partition(total_bits, frozenset((0,) + rest))
    else:
        for chosen in itertools.combinations(range(total_bits), half):
            yield Partition(total_bits, frozenset(chosen))


def count_even_partitions(total_bits: int, dedupe_symmetry: bool = True) -> int:
    """How many partitions :func:`even_partitions` yields."""
    half = total_bits // 2
    if dedupe_symmetry:
        return math.comb(total_bits - 1, half - 1)
    return math.comb(total_bits, half)


@dataclass(frozen=True)
class PartitionSearchResult:
    """The full landscape of Comm(f, π) over even partitions."""

    best_cost: int
    worst_cost: int
    best_partition: Partition
    worst_partition: Partition
    costs: tuple[int, ...]

    @property
    def spread(self) -> int:
        """worst − best: how partition-sensitive the function is."""
        return self.worst_cost - self.best_cost

    def histogram(self) -> dict[int, int]:
        """cost -> how many partitions achieve it."""
        out: dict[int, int] = {}
        for c in self.costs:
            out[c] = out.get(c, 0) + 1
        return out


def _partition_cost_task(task) -> int:
    """One sweep cell: build the truth matrix under π, run exact D(f).

    Module-level so :func:`repro.util.parallel.parmap` can pickle it; with
    ``workers > 1`` the predicate ``f`` must itself be picklable (a
    module-level function or a small callable object — see
    :class:`_SingularityPredicate`).  Worker processes inherit
    ``REPRO_CACHE_DIR`` through the environment, so a configured persistent
    cache (:mod:`repro.cache`) warms every worker, not just the driver.
    """
    f, partition, dp_limit = task
    tm = truth_matrix_from_function(f, partition)
    return communication_complexity(tm, limit=dp_limit)


def best_partition_cc(
    f: Callable[[Sequence[int]], bool],
    total_bits: int,
    max_partitions: int = 5000,
    dp_limit: int | None = None,
    workers: int | None = None,
    chunksize: int | None = 1,
) -> PartitionSearchResult:
    """Exact Comm(f) = min over even partitions of exact D(f, π).

    Refuses absurd enumerations (``max_partitions``); ``dp_limit`` is
    forwarded to the D(f) search (size guard applies post-dedupe).  The
    sweep fans out over :func:`repro.util.parallel.parmap` — results are
    bit-identical at every worker count, and cells that repeat a
    deduplicated matrix reuse the shared search memo (plus the persistent
    :mod:`repro.cache` store when one is configured).

    ``chunksize`` is forwarded to :func:`repro.util.parallel.parmap`;
    the default is 1 (not parmap's throughput heuristic) because a D(f)
    cell can cost orders of magnitude more than its neighbors and a
    straggler must never strand queued cells behind it.
    """
    n_parts = count_even_partitions(total_bits)
    if n_parts > max_partitions:
        raise ValueError(
            f"{n_parts} even partitions of {total_bits} bits; capped at "
            f"{max_partitions}"
        )
    partitions = list(even_partitions(total_bits))
    costs = parmap(
        _partition_cost_task,
        [(f, partition, dp_limit) for partition in partitions],
        workers=workers,
        chunksize=chunksize,
    )
    best = None
    worst = None
    for cost, partition in zip(costs, partitions):
        if best is None or cost < best[0]:
            best = (cost, partition)
        if worst is None or cost > worst[0]:
            worst = (cost, partition)
    assert best is not None and worst is not None
    return PartitionSearchResult(
        best[0], worst[0], best[1], worst[1], tuple(costs)
    )


def partition_sensitivity_example() -> tuple[PartitionSearchResult, PartitionSearchResult]:
    """Two 4-bit functions at the extremes of partition sensitivity.

    * XOR of all bits: D = 2 under EVERY partition (each agent XORs its
      share locally — nothing to hide): spread 0.
    * "left pair equals right pair" (EQ₂ in disguise): the natural split
      makes it hard (D = 3); the interleaved split pairs matching bits on
      one side each... still needs crossing — but scattering *can* help
      functions whose hard direction is partition-specific.  Returned for
      inspection; the tests pin the exact values.
    """
    def parity(bits):
        return (bits[0] ^ bits[1] ^ bits[2] ^ bits[3]) == 1

    def eq_pairs(bits):
        return bits[0] == bits[2] and bits[1] == bits[3]

    return best_partition_cc(parity, 4), best_partition_cc(eq_pairs, 4)


class _SingularityPredicate:
    """Picklable ``bits -> is_singular(decode(bits))`` predicate.

    A plain closure over the codec would not survive the trip into a
    :func:`repro.util.parallel.parmap` worker; this tiny object carries
    only ``k`` and rebuilds its codec lazily on each side of the fork.
    """

    def __init__(self, k: int):
        self.k = k
        self._codec = None

    def __getstate__(self):
        return {"k": self.k}

    def __setstate__(self, state):
        self.k = state["k"]
        self._codec = None

    def __call__(self, bits) -> bool:
        from repro.exact.rank import is_singular

        if self._codec is None:
            from repro.comm.bits import MatrixBitCodec

            self._codec = MatrixBitCodec(2, 2, self.k)
        return is_singular(self._codec.decode(bits))


def min_partition_singularity(
    k: int,
    workers: int | None = None,
    chunksize: int | None = 1,
) -> PartitionSearchResult:
    """Exact min-over-partitions CC of 2×2 singularity with k-bit entries.

    The executable form of "the bound holds under every partition" at the
    only size where full enumeration is feasible (k = 1: 8 bits, 35
    partitions after symmetry dedupe).
    """
    from repro.comm.bits import MatrixBitCodec

    codec = MatrixBitCodec(2, 2, k)
    return best_partition_cc(
        _SingularityPredicate(k),
        codec.total_bits,
        workers=workers,
        chunksize=chunksize,
    )
