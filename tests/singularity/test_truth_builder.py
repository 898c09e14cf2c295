"""Tests for the restricted-truth-matrix pipeline."""

import pytest

from repro import obs
from repro.exact.rank import is_singular
from repro.singularity.family import RestrictedFamily
from repro.singularity.truth_builder import (
    build_and_measure,
    completed_columns,
    random_columns,
    restricted_truth_matrix,
    sample_distinct_rows,
)
from repro.util.rng import ReproducibleRNG


@pytest.fixture
def fam53():
    return RestrictedFamily(5, 3)


class TestSampling:
    def test_rows_distinct(self, fam53):
        rng = ReproducibleRNG(0)
        rows = sample_distinct_rows(fam53, rng, 25)
        assert len(set(rows)) == 25

    def test_row_count_guard(self):
        fam = RestrictedFamily(5, 2)  # 81 C instances
        rng = ReproducibleRNG(1)
        with pytest.raises(ValueError):
            sample_distinct_rows(fam, rng, 100)

    def test_completed_columns_are_singular_on_their_row(self, fam53):
        rng = ReproducibleRNG(2)
        rows = sample_distinct_rows(fam53, rng, 3)
        columns = completed_columns(fam53, rows, rng, per_row=2)
        assert len(columns) == 6
        for c, (d, e, y) in zip([r for r in rows for _ in range(2)], columns):
            m = fam53.build_m(fam53.build_a(c), fam53.build_b(d, e, y))
            assert is_singular(m)

    def test_random_columns_count(self, fam53):
        rng = ReproducibleRNG(3)
        assert len(random_columns(fam53, rng, 7)) == 7


class TestTruthMatrix:
    def test_matrix_agrees_with_exact_singularity(self, fam53):
        rng = ReproducibleRNG(4)
        rows = sample_distinct_rows(fam53, rng, 4)
        columns = completed_columns(fam53, rows[:2], rng) + random_columns(
            fam53, rng, 4
        )
        tm = restricted_truth_matrix(fam53, rows, columns)
        for i, c in enumerate(rows):
            for j, (d, e, y) in enumerate(columns):
                m = fam53.build_m(fam53.build_a(c), fam53.build_b(d, e, y))
                assert bool(tm.data[i, j]) == is_singular(m)

    def test_ones_at_least_completions(self, fam53):
        rng = ReproducibleRNG(5)
        rows = sample_distinct_rows(fam53, rng, 6)
        columns = completed_columns(fam53, rows[:3], rng)
        tm = restricted_truth_matrix(fam53, rows, columns)
        assert tm.ones_count() >= 3

    def test_engine_builds_record_their_obs(self, fam53):
        rng = ReproducibleRNG(1989)
        rows = sample_distinct_rows(fam53, rng, 10)
        columns = completed_columns(fam53, rows[:5], rng, 1)
        columns += random_columns(fam53, rng, 12)
        with obs.scoped():
            for engine in ("fraction", "modnp"):
                restricted_truth_matrix(fam53, rows, columns, engine=engine)
            snapshot = obs.snapshot()
        # The modnp fast path must actually have filtered something.
        assert snapshot["counters"].get("truth_builder.modnp_filtered", 0) > 0
        assert "truth_builder.fraction" in snapshot["timers"]
        assert "truth_builder.modnp" in snapshot["timers"]


class TestPipeline:
    def test_report_shape(self, fam53):
        report = build_and_measure(fam53, seed=6, n_rows=10, n_random_columns=8)
        assert report.shape[0] == 10
        assert report.ones >= 5  # the completions
        assert 0 < report.max_rectangle_fraction <= 1.0

    def test_nondegenerate_with_e(self, fam53):
        report = build_and_measure(fam53, seed=7, n_rows=12, n_random_columns=10)
        assert not report.is_degenerate

    def test_degenerate_without_e(self):
        # e_width = 0: one shared singular column covers everything.
        fam = RestrictedFamily(5, 2)
        report = build_and_measure(fam, seed=8, n_rows=10, n_random_columns=5)
        assert report.is_degenerate
