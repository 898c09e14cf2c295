"""The search's canonical form equals its original, output for output.

:func:`repro.comm.exhaustive._refined_orders` (set-bit scatter, early stop
at a fixed point) must return exactly what the three-round reference in
``tests/comm/exact_oracle.py`` returns, and every ``_Canon`` the search
builds must carry the reference's key, transpose flag and class masks: the
memo keys, the stored splits and hence every answer and counter depend on
them.
"""

import random

import numpy as np
import pytest

from repro.comm.exhaustive import (
    DEFAULT_LIMIT,
    _BitsetSearch,
    _refined_orders,
    _SetBits,
)
from tests.comm.exact_oracle import _refined_orders as reference_orders
from tests.comm.exact_oracle import reference_canon


def column_patterns(patterns: list[int], nc: int) -> list[int]:
    cols = [0] * nc
    for r, pattern in enumerate(patterns):
        for c in range(nc):
            if pattern >> c & 1:
                cols[c] |= 1 << r
    return cols


def random_patterns(rng: random.Random, nr: int, nc: int, distinct: bool):
    if distinct:
        return rng.sample(range(1 << nc), nr)
    return [rng.getrandbits(nc) for _ in range(nr)]


def shapes():
    """Every thin shape, and random shapes up to the size limit."""
    rng = random.Random(2024)
    out = [(1, n) for n in range(1, DEFAULT_LIMIT + 1)]
    out += [(n, 1) for n in range(1, DEFAULT_LIMIT + 1)]
    out += [(n, n) for n in range(1, DEFAULT_LIMIT + 1)]
    out += [
        (rng.randint(1, DEFAULT_LIMIT), rng.randint(1, DEFAULT_LIMIT))
        for _ in range(300)
    ]
    return out


@pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "any"])
def test_kernel_matches_reference(distinct):
    """Distinct row patterns (what the search feeds it) and, since ties
    break by index in both, arbitrary pattern lists too."""
    rng = random.Random(f"refined-orders:{distinct}")
    checked = 0
    set_bits = _SetBits()
    for nr, nc in shapes():
        if distinct and nr > 1 << nc:
            nr = 1 << nc
        for _ in range(4):
            patterns = random_patterns(rng, nr, nc, distinct)
            expected = reference_orders(list(patterns), nr, nc)
            got = _refined_orders(
                patterns, column_patterns(patterns, nc), set_bits
            )
            assert got == expected, (nr, nc, patterns)
            checked += 1
    assert checked > 1000


def pool():
    rng = np.random.default_rng(11)
    matrices = [rng.integers(0, 2, size=(n, n)) for n in (4, 5, 6)]
    matrices.append(np.eye(5, dtype=np.uint8))
    matrices.append(np.array([[1 if i > j else 0 for j in range(6)]
                              for i in range(6)]))
    matrices.append(rng.integers(0, 2, size=(4, 6)))
    return [np.ascontiguousarray(m, dtype=np.uint8) for m in matrices]


def fields(search, canon):
    return canon.key, canon.transposed, search._class_maps(canon)


@pytest.mark.parametrize("index", range(len(pool())))
def test_canon_matches_reference_on_every_subrectangle(index):
    data = pool()[index]
    search = _BitsetSearch(data)
    n_rows, n_cols = data.shape
    for row_mask in range(1, 1 << n_rows):
        for col_mask in range(1, 1 << n_cols):
            canon = search._canon(row_mask, col_mask)
            expected = reference_canon(search, row_mask, col_mask)
            assert fields(search, canon) == expected
            assert (canon.row_mask, canon.col_mask) == (row_mask, col_mask)


def test_canon_matches_reference_on_a_wide_matrix():
    """Sampled subrectangles of a matrix wider than the exhaustive pool."""
    rng = random.Random(5)
    data = np.array([[rng.randrange(2) for _ in range(14)] for _ in range(12)],
                    dtype=np.uint8)
    search = _BitsetSearch(data)
    for _ in range(1500):
        row_mask = rng.randrange(1, 1 << 12)
        col_mask = rng.randrange(1, 1 << 14)
        canon = search._canon(row_mask, col_mask)
        expected = reference_canon(search, row_mask, col_mask)
        assert fields(search, canon) == expected
