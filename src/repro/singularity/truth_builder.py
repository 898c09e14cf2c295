"""Builders for the *restricted* truth matrix of Section 3.

The paper's argument lives on the truth matrix whose rows are instances of
the first agent's free block (C) and whose columns are instances of the
second agent's free blocks (D, E, y).  Experiments E1/E6 and the integration
tests all need the same construction; this module owns it:

* rows and columns sampled reproducibly (with completions mixed in so the
  matrix actually contains ones — random columns alone are almost never
  singular against any row);
* the predicate evaluated through Lemma 3.2's cheap surrogate
  (``B·u ∈ Span(A)``), with spans cached per row;
* helper measurements (ones per row, max 1-rectangle fraction) in one call.

Two predicate engines build the same matrix:

* ``engine="fraction"`` — the original exact path: one
  :class:`~repro.exact.span.Subspace` membership test per entry, all
  :class:`~fractions.Fraction` arithmetic;
* ``engine="modnp"`` (default) — the vectorized fast path: per row, **one**
  batched GF(p) call (:func:`repro.exact.modnp.span_membership_batch`)
  filters every column at once, and only the mod-p *members* (rare — ones
  are sparse by claim 2b) are confirmed with the exact Fraction test.  The
  filter direction is sound (see :mod:`repro.exact.modnp`): when
  ``rank_p(A) = rank_ℚ(A) = n − 1``, mod-p non-membership certifies exact
  non-membership, so the two engines produce **byte-identical** matrices;
  rows whose A drops rank mod p (never observed, but checked) fall back to
  the exact path entirely.

Parallelism: :func:`completed_columns` fans its completions out through
:func:`repro.util.parallel.parmap` with per-task seeds derived from the
root seed and the task's (row, completion) position — bit-identical output
at any worker count.

Streaming (the raw-speed tier): :func:`sharded_truth_matrix` builds the
same matrix in **column blocks** — each block is one :func:`parmap` task
(the ``modnp`` batched filter runs per block, so a worker's peak memory is
O(rows x block) instead of O(matrix)), and when a persistent store is
active (:mod:`repro.cache`) every finished block is spilled to disk as a
content-addressed shard (``blake2b`` of family/params/block-range).  A
killed build resumes from whatever shards survived and reassembles to the
same bytes; :func:`restricted_truth_matrix` delegates here whenever callers
ask for workers or an explicit block size, so the streamed path and the
single-pass path are interchangeable by construction (and Hypothesis-pinned
to stay so).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro import obs
from repro.comm.truth_matrix import TruthMatrix, truth_matrix_from_family
from repro.exact import modnp
from repro.singularity.family import Block, RestrictedFamily
from repro.singularity.lemma35 import complete
from repro.trace import core as trace
from repro.util.parallel import parmap, resolve_workers
from repro.util.rng import ReproducibleRNG, derive_seed

BColumn = tuple[Block, Block, tuple[int, ...]]

#: Predicate engines accepted by :func:`restricted_truth_matrix`.
ENGINES = ("modnp", "fraction")

#: Default column-block width of the sharded builder.  A pure function of
#: nothing — block boundaries are part of every shard's content address, so
#: they must never depend on the worker count or the machine.
DEFAULT_BLOCK_COLUMNS = 32

#: Shard-format version tags, per engine (the role
#: ``repro.comm.exhaustive.ENGINE_VERSION`` plays for search records): bump
#: one whenever its engine could spill different bytes, and stale shards die
#: with the tag.
SHARD_VERSIONS = {"modnp": "modnp-shard-1", "fraction": "fraction-shard-1"}


class TruthBuildInterrupted(RuntimeError):
    """A sharded build deliberately stopped mid-stream (kill simulation).

    Raised by :func:`sharded_truth_matrix` when ``interrupt_after`` blocks
    have been spilled; the resume tests (and operators rehearsing recovery)
    catch it, then call the builder again to finish from the shards.
    """

    def __init__(self, key: str | None, blocks_done: int, blocks_total: int):
        super().__init__(
            f"truth-matrix build interrupted after {blocks_done}/"
            f"{blocks_total} block(s)"
        )
        self.key = key
        self.blocks_done = blocks_done
        self.blocks_total = blocks_total


def sample_distinct_rows(
    family: RestrictedFamily, rng: ReproducibleRNG, count: int
) -> list[Block]:
    """``count`` distinct C blocks (raises if the family is too small)."""
    if count > family.count_c_instances():
        raise ValueError(
            f"family has only {family.count_c_instances()} C instances"
        )
    rows: list[Block] = []
    seen: set[Block] = set()
    attempts = 0
    while len(rows) < count:
        c = family.random_c(rng)
        attempts += 1
        if c not in seen:
            seen.add(c)
            rows.append(c)
        if attempts > 100 * count + 1000:
            raise RuntimeError("sampling stalled — family too small for count")
    return rows


def _completion_task(task: tuple[RestrictedFamily, Block, int, int, int]) -> BColumn:
    """One completion, with randomness derived from the task's position.

    Module-level so :func:`parmap` can ship it to worker processes.
    """
    family, c, root_seed, row_index, completion_index = task
    with trace.span(
        "truth_builder.completion_shard",
        row=row_index,
        completion=completion_index,
    ):
        rng = ReproducibleRNG(
            derive_seed(
                root_seed, "completed_columns", row_index, completion_index
            )
        )
        e = family.random_e(rng)
        completion = complete(family, c, e)
        return (completion.d, e, completion.y)


def completed_columns(
    family: RestrictedFamily,
    rows: list[Block],
    rng: ReproducibleRNG,
    per_row: int = 1,
    workers: int | None = None,
) -> list[BColumn]:
    """Columns guaranteed singular against their source row: for each of the
    first rows, ``per_row`` completions with fresh E blocks.

    Each completion draws from its own seed stream — derived from
    ``rng.root_seed`` and the (row, completion) position, never from shared
    RNG state — so the result is bit-identical for every ``workers`` value
    (and the order is always row-major).
    """
    tasks = [
        (family, c, rng.root_seed, i, j)
        for i, c in enumerate(rows)
        for j in range(per_row)
    ]
    return parmap(_completion_task, tasks, workers=workers)


def random_columns(
    family: RestrictedFamily, rng: ReproducibleRNG, count: int
) -> list[BColumn]:
    """Uniform (D, E, y) triples — the background population."""
    return [
        (family.random_d(rng), family.random_e(rng), family.random_y(rng))
        for _ in range(count)
    ]


def _bu_int_vector(family: RestrictedFamily, column: BColumn) -> list[int]:
    """``B·u`` for one column, as plain Python ints (entries are integral)."""
    return [int(x) for x in family.b_times_u_from_blocks(*column)]


def _fraction_predicate_matrix(
    family: RestrictedFamily,
    rows: list[Block],
    columns: list[BColumn],
) -> TruthMatrix:
    """The original exact path: spans precomputed per row, one Fraction
    membership test per entry."""
    spans = {c: family.span_a(c) for c in rows}

    def predicate(c: Block, column: BColumn) -> bool:
        obs.counter("truth_builder.span_cache_hits").inc()
        return family.b_times_u_from_blocks(*column) in spans[c]

    return truth_matrix_from_family(predicate, rows, columns)


def _modnp_matrix(
    family: RestrictedFamily,
    rows: list[Block],
    columns: list[BColumn],
    prime: int,
) -> TruthMatrix:
    """The batched fast path: filter all columns per row with one GF(p)
    kernel call, confirm the surviving candidates exactly."""
    import numpy as np

    if not rows or not columns:
        return truth_matrix_from_family(lambda c, col: False, rows, columns)
    bu_vectors = [_bu_int_vector(family, column) for column in columns]
    data = np.zeros((len(rows), len(columns)), dtype=np.uint8)
    expected_rank = family.n - 1  # Lemma 3.2's premise: A has full column rank
    span_cache: dict[Block, object] = {}

    def exact_member(c: Block, j: int) -> bool:
        span = span_cache.get(c)
        if span is None:
            span_cache[c] = span = family.span_a(c)
            obs.counter("truth_builder.span_cache_misses").inc()
        else:
            obs.counter("truth_builder.span_cache_hits").inc()
        return family.b_times_u_from_blocks(*columns[j]) in span

    for i, c in enumerate(rows):
        a_cols = family.build_a(c).transpose().to_int_rows()
        echelon, pivot_cols = modnp.echelon_mod(a_cols, prime)
        if len(pivot_cols) < expected_rank:
            # A collapsed mod p (needs p | some maximal minor — essentially
            # never for a 2³¹-scale prime, but soundness demands the check):
            # the filter direction is no longer certified, do the row exactly.
            obs.counter("truth_builder.modnp_fallback_rows").inc()
            for j in range(len(columns)):
                data[i, j] = 1 if exact_member(c, j) else 0
            continue
        candidates = modnp.span_membership_batch(echelon, bu_vectors, prime)
        obs.counter("truth_builder.modnp_filtered").inc(
            int((~candidates).sum())
        )
        for j in np.nonzero(candidates)[0]:
            obs.counter("truth_builder.exact_confirms").inc()
            data[i, int(j)] = 1 if exact_member(c, int(j)) else 0
    return TruthMatrix(data, tuple(rows), tuple(columns))


def restricted_truth_matrix(
    family: RestrictedFamily,
    rows: list[Block],
    columns: list[BColumn],
    engine: str = "modnp",
    prime: int = modnp.DEFAULT_PRIME,
    workers: int | None = None,
    block_size: int | None = None,
) -> TruthMatrix:
    """The Section 3 truth matrix on explicit row/column instances.

    Entry (C, B) = 1 iff M(A(C), B) is singular, decided via Lemma 3.2's
    span-membership surrogate (valid because Span(A) always has full
    dimension under Fig. 3; the equivalence itself is test-certified).

    ``engine`` selects the predicate implementation (see the module
    docstring); both produce the same matrix, byte for byte.  Asking for
    more than one worker or an explicit ``block_size`` routes through the
    streamed sharded builder (:func:`sharded_truth_matrix`), which is
    byte-identical again.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; have {ENGINES}")
    if block_size is not None or resolve_workers(workers) > 1:
        return sharded_truth_matrix(
            family,
            rows,
            columns,
            engine=engine,
            prime=prime,
            block_size=block_size,
            workers=workers,
        )
    with trace.span(
        "truth_builder.build",
        engine=engine,
        rows=len(rows),
        cols=len(columns),
    ):
        with obs.time_block(f"truth_builder.{engine}"):
            if engine == "fraction":
                return _fraction_predicate_matrix(family, rows, columns)
            return _modnp_matrix(family, rows, columns, prime)


def _block_task(task) -> tuple[int, bytes]:
    """One column block's predicate pass; module-level for :func:`parmap`.

    The block runs the same per-row machinery as the single-pass engines
    (``modnp``'s batched filter included) restricted to its columns, so a
    worker's peak footprint is O(rows x block) and — because every entry is
    a pure per-column predicate — the bytes are position-for-position the
    ones the single-pass build would have produced.
    """
    import numpy as np

    family, rows, block_columns, engine, prime, start = task
    with trace.span(
        "truth_builder.block_shard", start=start, cols=len(block_columns)
    ):
        columns = list(block_columns)
        if engine == "fraction":
            tm = _fraction_predicate_matrix(family, rows, columns)
        else:
            tm = _modnp_matrix(family, rows, columns, prime)
        return start, np.ascontiguousarray(tm.data).tobytes()


def _shard_build_key(
    family: RestrictedFamily, rows, columns, engine: str, prime: int,
    block_size: int,
) -> str:
    """Content address of one sharded build (see :mod:`repro.cache.keys`)."""
    from repro import cache

    return cache.build_key(
        SHARD_VERSIONS[engine],
        {
            "n": family.n,
            "k": family.k,
            "rows": tuple(rows),
            "cols": tuple(columns),
            # The prime only reaches modnp's filter; keying the exact
            # engine on it would orphan shards for no byte difference.
            "prime": int(prime) if engine == "modnp" else 0,
            "block": int(block_size),
        },
    )


def sharded_truth_matrix(
    family: RestrictedFamily,
    rows: list[Block],
    columns: list[BColumn],
    engine: str = "modnp",
    prime: int = modnp.DEFAULT_PRIME,
    block_size: int | None = None,
    workers: int | None = None,
    interrupt_after: int | None = None,
) -> TruthMatrix:
    """Streamed, resumable build of the Section 3 truth matrix.

    Columns are cut into fixed blocks (``block_size``, default
    ``DEFAULT_BLOCK_COLUMNS`` — never derived from the worker count, since
    the block grid is part of every shard's content address).  Each block
    is one :func:`parmap` task; with a persistent store active
    (:mod:`repro.cache`) finished blocks are spilled as shards and a
    partial build resumes from whatever shards already exist, reassembling
    byte-identically to :func:`restricted_truth_matrix`.

    ``interrupt_after`` deliberately kills the build after that many
    freshly computed blocks have been spilled (raising
    :class:`TruthBuildInterrupted`) — the hook the resume tests and
    recovery rehearsals use.
    """
    import numpy as np

    from repro import cache
    from repro.cache.store import block_ranges
    from repro.comm.truth_matrix import truth_matrix_from_column_blocks

    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; have {ENGINES}")
    rows = list(rows)
    columns = list(columns)
    if block_size is None:
        block_size = DEFAULT_BLOCK_COLUMNS
    block_size = int(block_size)
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if not rows or not columns:
        # Nothing to shard; the single-pass path handles the empty shapes.
        return restricted_truth_matrix(
            family, rows, columns, engine=engine, prime=prime
        )
    n_rows = len(rows)
    n_workers = resolve_workers(workers)
    ranges = block_ranges(len(columns), block_size)
    with trace.span(
        "truth_builder.sharded_build",
        engine=engine,
        rows=n_rows,
        cols=len(columns),
        block=block_size,
        blocks=len(ranges),
        workers=n_workers,
    ):
        with obs.time_block(f"truth_builder.sharded_{engine}"):
            store = cache.active_store()
            key = None
            if store is not None:
                key = _shard_build_key(
                    family, rows, columns, engine, prime, block_size
                )
                store.put_shard_manifest(
                    key,
                    cache.shard_manifest_record(
                        n_rows, len(columns), block_size,
                        SHARD_VERSIONS[engine],
                    ),
                )
            blocks: dict[tuple[int, int], bytes] = {}
            remaining: list[tuple[int, int]] = []
            for start, stop in ranges:
                data = (
                    store.get_shard(key, start, stop)
                    if store is not None
                    else None
                )
                if data is not None:
                    obs.counter("truth_builder.shards_resumed").inc()
                    blocks[(start, stop)] = data
                else:
                    remaining.append((start, stop))
            # Waves keep resumability real: a kill between waves loses at
            # most one wave of work, everything before it is already on
            # disk.  The wave width amortizes pool spin-up without
            # affecting the bytes (block boundaries are fixed above).
            wave = max(1, n_workers) * 4
            built = 0
            while remaining:
                take = wave
                if interrupt_after is not None:
                    take = min(take, interrupt_after - built)
                    if take <= 0:
                        raise TruthBuildInterrupted(
                            key, built, len(ranges)
                        )
                current = remaining[:take]
                remaining = remaining[take:]
                tasks = [
                    (
                        family, rows, tuple(columns[start:stop]), engine,
                        prime, start,
                    )
                    for start, stop in current
                ]
                results = parmap(
                    _block_task, tasks, workers=n_workers, chunksize=1
                )
                for (start, stop), (result_start, data) in zip(
                    current, results
                ):
                    assert result_start == start, "parmap order broke"
                    blocks[(start, stop)] = data
                    obs.counter("truth_builder.shards_built").inc()
                    if store is not None:
                        store.put_shard(key, start, stop, data)
                    built += 1
            arrays = [
                np.frombuffer(blocks[(start, stop)], dtype=np.uint8).reshape(
                    n_rows, stop - start
                )
                for start, stop in ranges
            ]
            return truth_matrix_from_column_blocks(arrays, rows, columns)


@dataclass(frozen=True)
class RestrictedMatrixReport:
    """Summary measurements of one sampled restricted truth matrix."""

    shape: tuple[int, int]
    ones: int
    max_rectangle_area: int
    #: ``area / ones`` as an exact ratio — the degeneracy check compares it
    #: to 1, and a float here could round a barely-proper matrix past it.
    max_rectangle_fraction: Fraction
    ones_per_row_max: int

    @property
    def is_degenerate(self) -> bool:
        """A single rectangle covering everything — the e_width = 0 disease."""
        return self.ones > 0 and self.max_rectangle_fraction >= 1


def build_and_measure(
    family: RestrictedFamily,
    seed: int,
    n_rows: int = 20,
    completions_per_row: int = 1,
    n_random_columns: int = 20,
    completion_rows: int | None = None,
    engine: str = "modnp",
    workers: int | None = None,
) -> RestrictedMatrixReport:
    """One-call pipeline: sample, build, measure (used by E1/E6 and tests)."""
    from repro.comm.rectangles import max_one_rectangle

    rng = ReproducibleRNG(seed)
    rows = sample_distinct_rows(family, rng, n_rows)
    source_rows = rows[: completion_rows if completion_rows is not None else n_rows // 2]
    columns = completed_columns(
        family, source_rows, rng, completions_per_row, workers=workers
    )
    columns += random_columns(family, rng, n_random_columns)
    tm = restricted_truth_matrix(family, rows, columns, engine=engine, workers=workers)
    area, _, _ = max_one_rectangle(tm)
    ones = tm.ones_count()
    per_row_max = int(tm.data.sum(axis=1).max()) if ones else 0
    return RestrictedMatrixReport(
        tm.shape,
        ones,
        area,
        Fraction(area, ones) if ones else Fraction(0),
        per_row_max,
    )
