"""Tests for the deterministic process-pool fan-out (repro.util.parallel)."""

import os
from unittest import mock

import pytest

from repro.util.parallel import parmap, resolve_workers


def _square(x):
    return x * x


def _pid_tag(x):
    return (x, os.getpid())


class TestResolveWorkers:
    def test_explicit_wins(self):
        with mock.patch.dict(os.environ, {"REPRO_WORKERS": "7"}):
            assert resolve_workers(3) == 3

    def test_env_fallback(self):
        with mock.patch.dict(os.environ, {"REPRO_WORKERS": "5"}):
            assert resolve_workers(None) == 5

    def test_default_is_serial(self):
        env = {k: v for k, v in os.environ.items() if k != "REPRO_WORKERS"}
        with mock.patch.dict(os.environ, env, clear=True):
            assert resolve_workers(None) == 1

    def test_clamped_below_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1

    def test_malformed_env_raises(self):
        with mock.patch.dict(os.environ, {"REPRO_WORKERS": "many"}):
            with pytest.raises(ValueError, match="REPRO_WORKERS"):
                resolve_workers(None)


class TestParmap:
    def test_serial_basic(self):
        assert parmap(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_empty(self):
        assert parmap(_square, [], workers=4) == []

    def test_single_task_stays_serial(self):
        (result,) = parmap(_pid_tag, [9], workers=8)
        assert result == (9, os.getpid())

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_order_and_values_worker_invariant(self, workers):
        tasks = list(range(30))
        assert parmap(_square, tasks, workers=workers) == [
            x * x for x in tasks
        ]

    def test_parallel_really_forks(self):
        results = parmap(_pid_tag, list(range(8)), workers=2)
        assert [x for x, _ in results] == list(range(8))  # order preserved
        pids = {pid for _, pid in results}
        assert os.getpid() not in pids  # ran in child processes

    def test_accepts_any_iterable(self):
        assert parmap(_square, range(4), workers=1) == [0, 1, 4, 9]
