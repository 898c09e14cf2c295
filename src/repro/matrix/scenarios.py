"""The scenario matrix's cell catalogue: models × families, seeded.

One *cell* of the matrix is a communication model, an instance family at
fixed parameters, and a fault regime.  This module owns the first two
axes: for every (model, family, params) point it builds one seeded
:class:`MatrixCase` — a live protocol with concrete inputs, the ground
truth the deterministic models must reproduce, and the bound formulas
that apply at that point.  The third axis (fault regimes) and the
execution machinery live in :mod:`repro.matrix.sweep`.

The four models and what "predicted" means in each:

* ``deterministic`` — the paper's baseline protocols; predictions come
  from :func:`repro.costs.models.shape_of` and ground truth is checked
  (a deterministic protocol may never be wrong).
* ``randomized-leighton`` — the O(n² log n) fingerprinting side of the
  paper's contrast (Leighton's protocol and its relatives); same shape
  predictions, but ground truth is *not* a gate (bounded error is the
  model; the fault legs still compare against the same-coins gold run).
* ``one-way`` — :class:`repro.matrix.protocols.OneWayTableProtocol`
  realizing ``D^{0→1}(f) = ⌈log₂ #distinct rows⌉`` exactly.
* ``nondeterministic`` — :class:`repro.matrix.protocols
  .CertificateProtocol` realizing ``⌈N^value(f)⌉`` plus two audit bits,
  with the certificate supplied by the omniscient instance builder
  (:func:`certificate_for`).

This is the repository's one instance catalogue: the service's
``protocol.run``/``cost.estimate`` scenarios (:data:`SCENARIOS`), its
pricer (:func:`repro.costs.models.scenario_shape`) and the cost-formula
tests all build their instances with the builders below.

Everything is a pure function of the seed and the coordinates — the DET
lint rules watch this package like they watch the cache.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.comm.bits import MatrixBitCodec
from repro.comm.partition import pi_zero
from repro.comm.truth_matrix import (
    TruthMatrix,
    truth_matrix_from_matrix_predicate,
)
from repro.costs.models import (
    MessageShape,
    leighton_upper_bound_bits,
    shape_of,
    theorem_lower_bound_bits,
    trivial_upper_bound_bits,
)
from repro.matrix.protocols import CertificateProtocol, OneWayTableProtocol
from repro.util.rng import ReproducibleRNG

__all__ = [
    "MODELS",
    "SCENARIOS",
    "MatrixCase",
    "canonical_scenarios",
    "case_shape",
    "catalogue",
    "certificate_for",
    "equality_truth_matrix",
    "singularity_truth_matrix",
]

#: The four communication models, in report order.
MODELS = (
    "deterministic",
    "randomized-leighton",
    "one-way",
    "nondeterministic",
)


@dataclass(frozen=True)
class MatrixCase:
    """One concrete (model, family, params) instance, ready to execute.

    Attributes:
        model: one of :data:`MODELS`.
        family: instance-family key (cell identity within the model).
        params: the cell's axis coordinates (sizes, widths, rounds, ...).
        protocol: the protocol object (``agent0``/``agent1`` generators).
        input0 / input1: the agents' local inputs.
        randomized: True when the agents take public coins.
        expected: ground-truth answer the clean run must reproduce, or
            None when correctness is probabilistic (randomized model).
        bounds: applicable bound formulas evaluated at this cell — lower
            and upper bounds for the live singularity axes, exact
            ``d_exact``/``one_way``/``cover`` quantities for the
            truth-matrix models.
    """

    model: str
    family: str
    params: dict[str, int]
    protocol: Any
    input0: Any
    input1: Any
    randomized: bool = False
    expected: Any = None
    bounds: dict[str, int] = field(default_factory=dict)


def case_shape(case: MatrixCase) -> MessageShape:
    """The exact message plan of one case.

    Protocols born in this package carry their own ``shape()``; every
    library protocol goes through the one shared cost model
    (:func:`repro.costs.models.shape_of`), so the matrix and the costs
    gate can never disagree about what "predicted" means.
    """
    shape = getattr(case.protocol, "shape", None)
    if callable(shape):
        return shape()
    return shape_of(case.protocol, case.input0)


# ----------------------------------------------------------------------
# Shared truth matrices and instance helpers
# ----------------------------------------------------------------------
def equality_truth_matrix(n_bits: int) -> TruthMatrix:
    """EQ over ``n_bits``-bit strings: the 2^n × 2^n identity."""
    size = 1 << n_bits
    return TruthMatrix(
        np.eye(size, dtype=np.uint8), tuple(range(size)), tuple(range(size))
    )


def singularity_truth_matrix(size: int, k: int) -> TruthMatrix:
    """Singularity of ``size×size`` k-bit matrices under π₀, enumerated."""
    from repro.exact import is_singular

    codec = MatrixBitCodec(size, size, k)
    return truth_matrix_from_matrix_predicate(
        is_singular, codec, pi_zero(codec)
    )


def index_truth_matrix(address_bits: int) -> TruthMatrix:
    """INDEX: agent 0 holds a 2^b-bit table, agent 1 an address; f = t[a].

    The classic one-way/two-way separation: every table is a distinct
    row, so one-way needs all 2^b bits while two-way needs only b + 1.
    """
    tables = range(1 << (1 << address_bits))
    addresses = range(1 << address_bits)
    data = np.array(
        [[(t >> a) & 1 for a in addresses] for t in tables], dtype=np.uint8
    )
    return TruthMatrix(data, tuple(tables), tuple(addresses))


def certificate_for(
    protocol: CertificateProtocol, row_index: int, col_index: int
) -> int:
    """The prover's move: a cover rectangle containing the joint input.

    Picks the first (canonical order) rectangle of the protocol's minimum
    cover containing ``(row, col)``; when the cell is not a value-cell no
    rectangle contains it (monochromaticity) and the honest choice is
    irrelevant — certificate 0 stands in, and the audit bits reject it.
    """
    for index, (rows, cols) in enumerate(protocol.cover):
        if row_index in rows and col_index in cols:
            return index
    return 0


def _exact_table_bounds(tm: TruthMatrix) -> int:
    """Exact two-way D(f) of a small truth matrix (deduped first)."""
    from repro.comm.exhaustive import communication_complexity, dedupe

    return communication_complexity(dedupe(tm))


def _singularity_bounds(size: int, k: int) -> dict[str, int]:
    """The paper's bound columns for a ``size×size`` k-bit instance."""
    n = size // 2
    return {
        "lower": theorem_lower_bound_bits(n, k),
        "trivial_upper": trivial_upper_bound_bits(n, k),
        "leighton_upper": leighton_upper_bound_bits(n, k),
    }


def _pi_zero_instance(seed: int, size: int, k: int):
    """A random π₀-split matrix: (codec, partition, view0, view1, truth)."""
    from repro.exact import is_singular
    from repro.exact.matrix import Matrix

    rng = ReproducibleRNG(seed)
    codec = MatrixBitCodec(size, size, k)
    partition = pi_zero(codec)
    m = Matrix.random_kbit(rng, size, size, k)
    view0, view1 = partition.split_input(codec.encode(m))
    return codec, partition, view0, view1, bool(is_singular(m))


def _linear_system(seed: int, n_rows: int, n_cols: int, k: int):
    """A random k-bit system Ax = b: (a, b, left view, right view)."""
    from repro.exact.matrix import Matrix
    from repro.exact.vector import Vector
    from repro.protocols.solvability import split_system

    rng = ReproducibleRNG(seed)
    a = Matrix.random_kbit(rng, n_rows, n_cols, k)
    b = Vector([rng.kbit_entry(k) for _ in range(n_rows)])
    return (a, b, *split_system(a, b))


def _equality_strings(seed: int, n: int):
    rng = ReproducibleRNG(seed)
    x = tuple(rng.bit_vector(n))
    y = tuple(x) if rng.randrange(2) else tuple(rng.bit_vector(n))
    return x, y


# ----------------------------------------------------------------------
# Case builders — deterministic model
# ----------------------------------------------------------------------
def _det_equality(seed: int, n: int) -> MatrixCase:
    from repro.protocols.equality import DeterministicEquality

    x, y = _equality_strings(seed, n)
    return MatrixCase(
        "deterministic", "equality", {"n_bits": n},
        DeterministicEquality(n), x, y, expected=(x == y),
    )


def _det_singularity(seed: int, size: int, k: int) -> MatrixCase:
    from repro.protocols.trivial import TrivialProtocol

    codec, partition, view0, view1, truth = _pi_zero_instance(seed, size, k)
    return MatrixCase(
        "deterministic", "singularity-pi0", {"size": size, "k": k},
        TrivialProtocol(codec, partition), view0, view1,
        expected=truth, bounds=_singularity_bounds(size, k),
    )


def _det_matmul(seed: int, n: int, k: int) -> MatrixCase:
    from repro.exact.matrix import Matrix
    from repro.protocols.matmul_verify import DeterministicMatMulVerify

    rng = ReproducibleRNG(seed)
    a = Matrix.random_kbit(rng, n, n, k)
    b = Matrix.random_kbit(rng, n, n, k)
    c = a @ b
    if rng.randrange(2):  # half the instances are wrong products
        rows = [list(c.row(i)) for i in range(n)]
        rows[rng.randrange(n)][rng.randrange(n)] += 1
        c = Matrix(rows)
    return MatrixCase(
        "deterministic", "matmul-verify", {"n": n, "k": k},
        DeterministicMatMulVerify(n, k), (a, b), c,
        expected=(a @ b == c),
        bounds={
            "lower": theorem_lower_bound_bits(n, k),
            "trivial_upper": trivial_upper_bound_bits(n, k),
        },
    )


def _det_solvability(seed: int, n_rows: int, n_cols: int, k: int) -> MatrixCase:
    from repro.exact.solve import is_solvable
    from repro.protocols.solvability import TrivialSolvability

    a, b, left, right = _linear_system(seed, n_rows, n_cols, k)
    return MatrixCase(
        "deterministic", "solvability",
        {"n_rows": n_rows, "n_cols": n_cols, "k": k},
        TrivialSolvability(n_rows, k), left, right,
        expected=bool(is_solvable(a, b)),
    )


def _det_rank_basis(seed: int, size: int) -> MatrixCase:
    from repro.exact import is_singular
    from repro.exact.matrix import Matrix
    from repro.protocols.rank_protocol import ColumnBasisProtocol

    rng = ReproducibleRNG(seed)
    m = Matrix.random_kbit(rng, size, size, 1)
    half = size // 2
    # No trivial/Leighton columns: the fraction-encoded basis is
    # instance-dependent and may exceed 2kn² + 1.
    return MatrixCase(
        "deterministic", "rank-column-basis", {"size": size},
        ColumnBasisProtocol(),
        m.slice(0, size, 0, half), m.slice(0, size, half, size),
        expected=bool(is_singular(m)),
        bounds={"lower": theorem_lower_bound_bits(half, 1)},
    )


# ----------------------------------------------------------------------
# Case builders — randomized-Leighton model
# ----------------------------------------------------------------------
def _rand_equality(seed: int, n: int, rounds: int) -> MatrixCase:
    from repro.protocols.equality import RandomizedEquality

    x, y = _equality_strings(seed, n)
    return MatrixCase(
        "randomized-leighton", "equality", {"n_bits": n, "rounds": rounds},
        RandomizedEquality(n, rounds), x, y, randomized=True,
    )


def _rand_fingerprint(seed: int, size: int, k: int) -> MatrixCase:
    from repro.protocols.fingerprint import FingerprintProtocol

    codec, partition, view0, view1, _ = _pi_zero_instance(seed, size, k)
    return MatrixCase(
        "randomized-leighton", "singularity-pi0", {"size": size, "k": k},
        FingerprintProtocol(codec, partition), view0, view1,
        randomized=True, bounds=_singularity_bounds(size, k),
    )


def _rand_rabin_karp(seed: int, n: int) -> MatrixCase:
    from repro.protocols.equality import RabinKarpEquality

    x, y = _equality_strings(seed, n)
    return MatrixCase(
        "randomized-leighton", "equality-rabin-karp", {"n_bits": n},
        RabinKarpEquality(n), x, y, randomized=True,
    )


def _rand_freivalds(seed: int, n: int, k: int, rounds: int) -> MatrixCase:
    from repro.exact.matrix import Matrix
    from repro.protocols.matmul_verify import FreivaldsVerify

    rng = ReproducibleRNG(seed)
    a = Matrix.random_kbit(rng, n, n, k)
    b = Matrix.random_kbit(rng, n, n, k)
    c = a @ b
    if rng.randrange(2):
        rows = [list(c.row(i)) for i in range(n)]
        rows[rng.randrange(n)][rng.randrange(n)] += 1
        c = Matrix(rows)
    return MatrixCase(
        "randomized-leighton", "matmul-verify",
        {"n": n, "k": k, "rounds": rounds},
        FreivaldsVerify(n, k, rounds), (a, b), c, randomized=True,
    )


def _rand_solvability(seed: int, n_rows: int, n_cols: int, k: int) -> MatrixCase:
    from repro.protocols.solvability import FingerprintSolvability

    _, _, left, right = _linear_system(seed, n_rows, n_cols, k)
    return MatrixCase(
        "randomized-leighton", "solvability",
        {"n_rows": n_rows, "n_cols": n_cols, "k": k},
        FingerprintSolvability(n_rows, k), left, right, randomized=True,
    )


# ----------------------------------------------------------------------
# Case builders — one-way model
# ----------------------------------------------------------------------
def _one_way_case(
    seed: int, tm: TruthMatrix, family: str, params: dict[str, int]
) -> MatrixCase:
    rng = ReproducibleRNG(seed)
    protocol = OneWayTableProtocol(tm, family)
    rows, cols = tm.shape
    col_index = rng.randrange(cols)
    if family == "equality" and rng.randrange(2):
        row_index = col_index  # keep the diagonal represented
    else:
        row_index = rng.randrange(rows)
    return MatrixCase(
        "one-way", family, dict(params),
        protocol, row_index, col_index,
        expected=bool(tm.data[row_index, col_index]),
        bounds={
            "one_way": protocol.width,
            "d_exact": _exact_table_bounds(tm),
        },
    )


def _one_way_equality(seed: int, n: int) -> MatrixCase:
    return _one_way_case(
        seed, equality_truth_matrix(n), "equality", {"n_bits": n}
    )


def _one_way_singularity(seed: int, size: int, k: int) -> MatrixCase:
    return _one_way_case(
        seed, singularity_truth_matrix(size, k), "singularity-pi0",
        {"size": size, "k": k},
    )


def _one_way_index(seed: int, b: int) -> MatrixCase:
    return _one_way_case(
        seed, index_truth_matrix(b), "index", {"address_bits": b}
    )


# ----------------------------------------------------------------------
# Case builders — nondeterministic model
# ----------------------------------------------------------------------
def _certificate_case(
    seed: int, tm: TruthMatrix, family: str, params: dict[str, int], value: int
) -> MatrixCase:
    rng = ReproducibleRNG(seed)
    protocol = CertificateProtocol(tm, value, family)
    rows, cols = tm.shape
    col_index = rng.randrange(cols)
    if family == "equality" and value == 1 and rng.randrange(2):
        row_index = col_index  # half the instances should be certifiable
    else:
        row_index = rng.randrange(rows)
    certificate = certificate_for(protocol, row_index, col_index)
    return MatrixCase(
        "nondeterministic", family, dict(params),
        protocol, (row_index, certificate), col_index,
        expected=bool(tm.data[row_index, col_index] == value),
        bounds={
            "cover": len(protocol.cover),
            "nondet": max(0, (len(protocol.cover) - 1).bit_length()),
            "d_exact": _exact_table_bounds(tm),
        },
    )


def _nondet_equality(seed: int, n: int, value: int) -> MatrixCase:
    return _certificate_case(
        seed, equality_truth_matrix(n), "equality",
        {"n_bits": n, "value": value}, value,
    )


def _nondet_singularity(seed: int, size: int, k: int, value: int) -> MatrixCase:
    return _certificate_case(
        seed, singularity_truth_matrix(size, k), "singularity-pi0",
        {"size": size, "k": k, "value": value}, value,
    )


# ----------------------------------------------------------------------
# The catalogue
# ----------------------------------------------------------------------
def catalogue(
    quick: bool = True,
) -> list[tuple[Callable[..., MatrixCase], dict[str, int]]]:
    """The (model, family) axis points: ``(builder, params)`` per point.

    Quick mode (rendered into ``docs/RESULTS.md``) keeps two or three
    families per model; full mode widens every axis and adds one point of
    every live library protocol, so each declared cost plan is checked
    against the wire.  All four models appear in both.
    """
    quick_axes: list[tuple[Callable[..., MatrixCase], dict[str, int]]] = [
        (_det_equality, {"n": 16}),
        (_det_singularity, {"size": 4, "k": 2}),
        (_det_matmul, {"n": 2, "k": 2}),
        (_rand_equality, {"n": 16, "rounds": 8}),
        (_rand_fingerprint, {"size": 4, "k": 2}),
        (_one_way_equality, {"n": 3}),
        (_one_way_singularity, {"size": 2, "k": 1}),
        (_nondet_equality, {"n": 3, "value": 1}),
        (_nondet_singularity, {"size": 2, "k": 1, "value": 1}),
    ]
    if quick:
        return quick_axes
    axes = list(quick_axes)
    axes.extend([
        (_det_singularity, {"size": 6, "k": 1}),
        (_det_solvability, {"n_rows": 3, "n_cols": 4, "k": 2}),
        (_det_rank_basis, {"size": 4}),
        (_rand_fingerprint, {"size": 6, "k": 1}),
        (_rand_rabin_karp, {"n": 8}),
        (_rand_freivalds, {"n": 2, "k": 2, "rounds": 2}),
        (_rand_solvability, {"n_rows": 3, "n_cols": 4, "k": 2}),
        (_one_way_index, {"b": 2}),
        (_nondet_equality, {"n": 2, "value": 0}),
    ])
    return axes


#: The service's ``protocol.run``/``cost.estimate`` scenarios: wire name →
#: catalogue builder at fixed params (instance seed → :class:`MatrixCase`).
SCENARIOS: dict[str, Callable[[int], MatrixCase]] = {
    "equality": partial(_det_equality, n=16),
    "trivial": partial(_det_singularity, size=4, k=2),
    "fingerprint": partial(_rand_fingerprint, size=4, k=2),
    "matmul_verify": partial(_det_matmul, n=2, k=2),
    "rank_protocol": partial(_det_rank_basis, size=4),
    "solvability": partial(_det_solvability, n_rows=3, n_cols=4, k=2),
}


def canonical_scenarios() -> tuple[str, ...]:
    """Service scenario names whose point is in the quick matrix, sorted.

    ``repro.serve``'s load harness draws its ``protocol.run`` mix from
    this list, so the service is exercised on exactly the workload the
    scenario matrix measures and gates.
    """
    quick = catalogue(quick=True)
    return tuple(sorted(
        name for name, build in SCENARIOS.items()
        if (build.func, build.keywords) in quick
    ))
