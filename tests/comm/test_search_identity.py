"""Byte identity of the exact search: cache records and search counters.

A pinned pool (40 seeded random matrices plus EQ8 and GT8) goes through
``optimal_protocol_tree`` and ``partition_number`` into a fresh store.  The
blake2b digest of the sorted records (``name NUL bytes`` per record) pins
every answer, every serialized tree and the cache tag; the obs counters pin
the work the search did.  A refactor of :mod:`repro.comm.exhaustive` that moves any of
these has changed the search, not just its plumbing.
"""

import hashlib

import numpy as np

from repro import cache, obs
from repro.comm.exhaustive import (
    clear_search_cache,
    optimal_protocol_tree,
    partition_number,
)
from repro.comm.truth_matrix import TruthMatrix
from repro.util.rng import ReproducibleRNG

PINNED_RECORDS = 42
PINNED_DIGEST = "3f9b1fab9e2997b4"
PINNED_SUBPROBLEMS = 363
PINNED_PRUNED = 250


def tm_from(array) -> TruthMatrix:
    a = np.array(array, dtype=np.uint8)
    return TruthMatrix(a, tuple(range(a.shape[0])), tuple(range(a.shape[1])))


def identity_pool() -> list[TruthMatrix]:
    pool = []
    for seed in range(40):
        shape = (3 + seed % 4, 3 + (seed // 4) % 4)
        pool.append(tm_from(ReproducibleRNG(seed).kbit_matrix(*shape, 1)))
    pool.append(tm_from(np.eye(8, dtype=np.uint8)))
    pool.append(tm_from([[1 if i > j else 0 for j in range(8)] for i in range(8)]))
    return pool


def test_records_and_counters_are_pinned(tmp_path):
    with cache.directory(tmp_path) as store, obs.scoped():
        clear_search_cache()
        for tm in identity_pool():
            optimal_protocol_tree(tm)
            partition_number(tm)
        counters = obs.snapshot()["counters"]
        paths = store._record_paths()
        digest = hashlib.blake2b(digest_size=8)
        for path in paths:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    clear_search_cache()
    assert len(paths) == PINNED_RECORDS
    assert digest.hexdigest() == PINNED_DIGEST
    assert counters["exhaustive.subproblems"] == PINNED_SUBPROBLEMS
    assert counters["exhaustive.pruned"] == PINNED_PRUNED
