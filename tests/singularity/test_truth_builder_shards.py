"""Resume-to-byte-identity for the sharded truth-matrix builder.

The streamed builder's whole contract is one sentence: however a build is
cut into blocks, killed, resumed, or fanned out, the reassembled
TruthMatrix is byte-for-byte the single-pass matrix.  Hypothesis drives
the kill point and block grid; the fixed tests pin worker fan-out, the
fraction engine, and the resume counters.  One ``slow`` test holds resume
(and, given the cores, fan-out) to its speed bar over a cold build.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache, obs
from repro.singularity.family import RestrictedFamily
from repro.singularity.truth_builder import (
    TruthBuildInterrupted,
    completed_columns,
    random_columns,
    restricted_truth_matrix,
    sample_distinct_rows,
    sharded_truth_matrix,
)
from repro.util.rng import ReproducibleRNG


def workload(seed=3, n_rows=10, n_cols=26):
    family = RestrictedFamily(5, 3)
    rng = ReproducibleRNG(seed)
    rows = sample_distinct_rows(family, rng, n_rows)
    cols = completed_columns(family, rows[:4], rng, 2)
    cols += random_columns(family, rng, n_cols - len(cols))
    return family, rows, cols


@pytest.fixture(scope="module")
def baseline():
    family, rows, cols = workload()
    return family, rows, cols, restricted_truth_matrix(family, rows, cols)


class TestShardedEqualsSinglePass:
    def test_no_store_needed(self, baseline):
        family, rows, cols, base = baseline
        tm = sharded_truth_matrix(family, rows, cols, block_size=7)
        assert tm.data.tobytes() == base.data.tobytes()
        assert tm.row_labels == base.row_labels
        assert tm.col_labels == base.col_labels

    @pytest.mark.parametrize("block_size", [1, 5, 8, 100])
    def test_block_grid_never_changes_bytes(self, baseline, block_size):
        family, rows, cols, base = baseline
        tm = sharded_truth_matrix(family, rows, cols, block_size=block_size)
        assert tm.data.tobytes() == base.data.tobytes()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_never_changes_bytes(self, baseline, workers):
        family, rows, cols, base = baseline
        tm = restricted_truth_matrix(
            family, rows, cols, workers=workers, block_size=6
        )
        assert tm.data.tobytes() == base.data.tobytes()

    def test_fraction_engine_streams_too(self, baseline):
        family, rows, cols, base = baseline
        tm = sharded_truth_matrix(
            family, rows, cols, engine="fraction", block_size=9
        )
        assert tm.data.tobytes() == base.data.tobytes()


class TestResume:
    @given(
        kill=st.integers(min_value=1, max_value=5),
        block=st.integers(min_value=3, max_value=11),
    )
    @settings(max_examples=10, deadline=None)
    def test_kill_then_resume_is_byte_identical(
        self, tmp_path_factory, baseline, kill, block
    ):
        family, rows, cols, base = baseline
        # A kill point at/past the block count would just finish the build.
        kill = min(kill, len(cache.block_ranges(len(cols), block)) - 1)
        scratch = tmp_path_factory.mktemp("shards")
        with cache.directory(scratch) as store:
            with pytest.raises(TruthBuildInterrupted) as exc:
                sharded_truth_matrix(
                    family, rows, cols, block_size=block,
                    interrupt_after=kill,
                )
            assert exc.value.blocks_done == kill
            assert store.shard_stats()["partial_builds"] == 1
            with obs.scoped() as reg:
                tm = sharded_truth_matrix(
                    family, rows, cols, block_size=block
                )
                counters = reg.snapshot()["counters"]
            assert tm.data.tobytes() == base.data.tobytes()
            assert counters["truth_builder.shards_resumed"] == kill
            stats = store.shard_stats()
            assert stats["complete_builds"] == 1
            assert store.verify_shards() == []

    def test_completed_build_is_all_hits(self, baseline, tmp_path):
        family, rows, cols, base = baseline
        with cache.directory(tmp_path):
            sharded_truth_matrix(family, rows, cols, block_size=6)
            with obs.scoped() as reg:
                tm = sharded_truth_matrix(family, rows, cols, block_size=6)
                counters = reg.snapshot()["counters"]
            assert tm.data.tobytes() == base.data.tobytes()
            assert "truth_builder.shards_built" not in counters

    def test_engines_do_not_share_shards(self, baseline, tmp_path):
        family, rows, cols, base = baseline
        with cache.directory(tmp_path) as store:
            sharded_truth_matrix(family, rows, cols, block_size=6)
            tm = sharded_truth_matrix(
                family, rows, cols, engine="fraction", block_size=6
            )
            assert tm.data.tobytes() == base.data.tobytes()
            assert store.shard_stats()["builds"] == 2

    def test_interrupt_reports_progress(self, baseline, tmp_path):
        family, rows, cols, _base = baseline
        with cache.directory(tmp_path):
            with pytest.raises(TruthBuildInterrupted) as exc:
                sharded_truth_matrix(
                    family, rows, cols, block_size=4, interrupt_after=2
                )
        err = exc.value
        assert err.blocks_done == 2
        assert err.blocks_total == len(cache.block_ranges(len(cols), 4))
        assert err.key is not None


class TestValidation:
    def test_bad_block_size(self, baseline):
        family, rows, cols, _base = baseline
        with pytest.raises(ValueError):
            sharded_truth_matrix(family, rows, cols, block_size=0)

    def test_empty_columns_fall_back(self):
        family, rows, _cols = workload()
        tm = sharded_truth_matrix(family, rows, [], block_size=4)
        assert tm.shape == (len(rows), 0)

    def test_build_and_dtype(self, baseline):
        _family, _rows, _cols, base = baseline
        assert base.data.dtype == np.uint8


#: The bar for a resumed (and, given the cores, a fanned-out) build over a
#: cold single-pass build.
SHARDED_SPEEDUP_BAR = 3.0


@pytest.mark.slow
def test_shard_resume_speedup_bar(tmp_path):
    """A 40x452 fraction-engine build: cold vs 4-worker stream vs resume.

    Resume is pure reads plus reassembly, so its bar holds on any host; the
    fan-out bar is gated only when 4 cores are really usable, because a
    smaller box serializes the pool whatever the code does.
    """
    family = RestrictedFamily(5, 3)
    rng = ReproducibleRNG(1989)
    rows = sample_distinct_rows(family, rng, 40)
    cols = completed_columns(family, rows[:12], rng, 1)
    cols += random_columns(family, rng, 440)
    workers = 4
    t0 = time.perf_counter()
    cold = restricted_truth_matrix(family, rows, cols, engine="fraction")
    cold_s = time.perf_counter() - t0
    with cache.directory(tmp_path):
        t0 = time.perf_counter()
        streamed = sharded_truth_matrix(
            family, rows, cols, engine="fraction", block_size=16, workers=workers
        )
        streamed_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        resumed = sharded_truth_matrix(
            family, rows, cols, engine="fraction", block_size=16
        )
        resumed_s = time.perf_counter() - t0
    assert streamed.data.tobytes() == cold.data.tobytes()
    assert resumed.data.tobytes() == cold.data.tobytes()
    resume_speedup = cold_s / resumed_s
    assert resume_speedup >= SHARDED_SPEEDUP_BAR, (
        f"shard resume bar missed: {resume_speedup:.1f}x < "
        f"{SHARDED_SPEEDUP_BAR:g}x"
    )
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    if cores >= workers:
        fanout_speedup = cold_s / streamed_s
        assert fanout_speedup >= SHARDED_SPEEDUP_BAR, (
            f"shard fan-out bar missed: {fanout_speedup:.1f}x < "
            f"{SHARDED_SPEEDUP_BAR:g}x at {workers} workers"
        )
