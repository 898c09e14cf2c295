"""Tests for the pinned perf harness (repro.bench, `python -m repro bench`)."""

import json

import pytest

from repro.bench import (
    CACHE_SPEEDUP_TARGET,
    EXACT_SPEEDUP_TARGET,
    SPEEDUP_TARGET,
    bench_engines,
    render_summary,
    run_bench,
)


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_PERF.json"
    report = run_bench(quick=True, workers=2, out_path=out)
    return report, out


class TestRunBench:
    def test_writes_valid_json(self, quick_report):
        report, out = quick_report
        on_disk = json.loads(out.read_text())
        assert on_disk["engines"] == report["engines"]
        assert on_disk["quick"] is True

    def test_byte_identity_everywhere(self, quick_report):
        report, _ = quick_report
        assert report["engines"]["byte_identical"] is True
        assert report["parallel"]["truth_matrix"]["byte_identical"] is True
        assert report["matrix"]["byte_identical"] is True
        assert report["ok"] is True

    def test_speedup_measured(self, quick_report):
        report, _ = quick_report
        e = report["engines"]
        assert e["speedup"] > 0
        assert e["speedup_target"] == SPEEDUP_TARGET
        assert e["fraction_seconds"] > 0 and e["modnp_seconds"] > 0

    def test_obs_snapshot_attached(self, quick_report):
        report, _ = quick_report
        counters = report["obs"]["counters"]
        # The modnp fast path must actually have filtered something.
        assert counters.get("truth_builder.modnp_filtered", 0) > 0
        assert "truth_builder.fraction" in report["obs"]["timers"]
        assert "truth_builder.modnp" in report["obs"]["timers"]

    def test_summary_renders(self, quick_report):
        report, _ = quick_report
        text = render_summary(report)
        assert "speedup" in text
        assert "exact D(f) search" in text
        assert "persistent cache" in text
        assert "ok = True" in text

    def test_exact_search_section(self, quick_report):
        report, _ = quick_report
        x = report["exact_search"]
        assert x["values_identical"] is True
        assert x["speedup"] > 0
        assert x["speedup_target"] == EXACT_SPEEDUP_TARGET
        assert {c["name"] for c in x["cases"]} == {"EQ6", "GT6", "RAND6"}
        assert all(c["values_identical"] for c in x["cases"])

    def test_cache_section(self, quick_report):
        report, _ = quick_report
        c = report["cache"]
        assert c["results_identical"] is True
        assert c["cold_seconds"] > 0 and c["warm_seconds"] > 0
        assert c["speedup_target"] == CACHE_SPEEDUP_TARGET
        # Every partition's deduped matrix landed one record with a d field.
        assert c["store"]["entries"] == c["partitions"]
        assert c["store"]["fields"]["d"] == c["partitions"]

    def test_no_cache_skips_the_roundtrip(self, tmp_path):
        report = run_bench(
            quick=True, workers=2, out_path=tmp_path / "nc.json", no_cache=True
        )
        assert report["cache"] is None
        assert report["ok"] is True
        assert "persistent cache" not in render_summary(report)


class TestCli:
    def test_bench_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "perf.json"
        rc = main(["bench", "--quick", "--workers", "2", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["ok"] is True
        assert "speedup" in capsys.readouterr().out


def test_full_mode_targets_5x():
    # The acceptance bars themselves — full mode must gate on >= 5x for
    # both engine comparisons and >= 10x for the warm cache.
    assert SPEEDUP_TARGET == 5.0
    assert EXACT_SPEEDUP_TARGET == 5.0
    assert CACHE_SPEEDUP_TARGET == 10.0


@pytest.mark.slow
def test_full_bench_meets_target(tmp_path):
    report = run_bench(quick=False, workers=4, out_path=tmp_path / "full.json")
    assert report["engines"]["meets_target"]
    assert report["exact_search"]["meets_target"]
    assert report["cache"]["meets_target"]
    assert report["ok"]
