"""The ``workers`` keyword never changes an exact-search answer.

The search runs in the calling process; ``communication_complexity`` and
``partition_number`` still accept ``workers`` as ``None`` or ``1`` (other
counts raise, see ``test_exhaustive_engines.TestWorkersKeyword``).  Every
accepted worker count must return the oracle's D(f) and d^P(f) —
Hypothesis over random ≤6×6 matrices.
"""

from hypothesis import given, settings

from repro.comm.exhaustive import communication_complexity, partition_number
from tests.comm.exact_oracle import oracle_cc, oracle_partition_number
from tests.comm.test_exhaustive_engines import matrices, tm_from

WORKERS = (None, 1)


class TestParallelEqualsSequential:
    @given(matrices)
    @settings(max_examples=12, deadline=None)
    def test_d_identical_at_every_worker_count(self, rows):
        tm = tm_from(rows)
        sequential = communication_complexity(tm, workers=1)
        assert sequential == oracle_cc(tm)
        for workers in WORKERS:
            assert communication_complexity(tm, workers=workers) == sequential

    @given(matrices)
    @settings(max_examples=12, deadline=None)
    def test_leaves_identical_at_every_worker_count(self, rows):
        tm = tm_from(rows)
        sequential = partition_number(tm, workers=1)
        assert sequential == oracle_partition_number(tm)
        for workers in WORKERS:
            assert partition_number(tm, workers=workers) == sequential
