"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["family"])
        assert args.n == 7 and args.k == 2


class TestCommands:
    def test_family(self, capsys):
        assert main(["family", "--n", "7", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "free information" in out
        assert "q = 3" in out

    def test_singular(self, capsys):
        assert main(["singular", "--n", "5", "--k", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "singular = True" in out
        assert "det = 0" in out

    def test_protocols(self, capsys):
        assert main(["protocols", "--n", "3", "--k", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "trivial" in out and "fingerprint" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "--n", "63", "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1.1 lower bound" in out
        assert "A*T^2" in out

    def test_check(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "E16" in out and "E17" in out

    def test_invalid_family_rejected(self):
        with pytest.raises(ValueError):
            main(["family", "--n", "6", "--k", "2"])  # even n


class TestMatrixCommand:
    def test_matrix_quick_table(self, capsys):
        assert main(["matrix", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "scenario matrix" in out
        assert "0 MISMATCH" in out

    def test_matrix_json_out_and_render(self, tmp_path, capsys):
        import json

        out = tmp_path / "MATRIX.json"
        rendered = tmp_path / "RESULTS.md"
        assert main([
            "matrix", "--quick", "--json",
            "--out", str(out), "--render", str(rendered),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1 and report["ok"]
        assert json.loads(out.read_text()) == report
        assert rendered.read_text().startswith("<!-- AUTO-GENERATED")

    def test_matrix_check_render_catches_drift(self, tmp_path, capsys):
        stale = tmp_path / "RESULTS.md"
        stale.write_text("# stale\n")
        assert main([
            "matrix", "--quick", "--check-render", str(stale),
        ]) == 1
        captured = capsys.readouterr()
        assert "RENDER DRIFT" in captured.err


class TestServeCommands:
    def test_serve_chaos_gate(self, capsys):
        assert main([
            "serve-chaos", "--kinds", "erase,duplicate",
            "--requests", "20", "--clients", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "no silent corruption" in out
        assert "no lost requests" in out

    def test_serve_chaos_json(self, capsys):
        import json

        assert main([
            "serve-chaos", "--kinds", "flip",
            "--requests", "15", "--clients", "3", "--json",
        ]) == 0
        points = json.loads(capsys.readouterr().out)
        assert points[0]["silent_wrong"] == 0
        assert points[0]["hung"] == 0
        assert points[0]["lost"] == 0

    def test_serve_chaos_lost_request_fails_the_gate(self, monkeypatch, capsys):
        from repro.serve import chaos

        calls = []

        def one_lost(**kwargs):
            calls.append(kwargs)
            return [chaos.ServeChaosPoint(
                kind="drop", rate=0.05, requests=3, ok=2, lost=1,
            )]

        monkeypatch.setattr(chaos, "chaos_sweep", one_lost)
        assert main(["serve-chaos"]) == 1
        assert "gate VIOLATED: 1 silent/hung/lost" in capsys.readouterr().out
        # Unset options fall through to chaos_sweep's own defaults.
        assert set(calls[0]) == {"config"}

    def test_serve_bounded_run(self, capsys):
        import asyncio

        from repro.serve import decode_frame, request_frame, validate_response
        from repro.serve.server import serve_tcp

        async def drive():
            loop = asyncio.get_running_loop()
            ready = loop.create_future()
            server = asyncio.ensure_future(
                serve_tcp(port=0, max_requests=1, ready=ready)
            )
            host, port = await ready
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(request_frame("t-0", "cache.stats"))
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await asyncio.wait_for(server, 10)
            return validate_response(decode_frame(line.rstrip(b"\n")))

        frame = asyncio.run(drive())
        assert frame["ok"] is True
        assert frame["result"]["ticks"] == 0  # stats never consumes a tick


class TestCacheCommand:
    def _warm(self, cache_dir):
        import numpy as np

        from repro import cache
        from repro.comm.exhaustive import (
            clear_search_cache,
            communication_complexity,
        )
        from repro.comm.truth_matrix import TruthMatrix

        tm = TruthMatrix(
            np.eye(4, dtype=np.uint8), tuple(range(4)), tuple(range(4))
        )
        clear_search_cache()
        with cache.directory(cache_dir):
            communication_complexity(tm)
        clear_search_cache()

    def test_no_store_configured(self, monkeypatch, capsys):
        from repro import cache

        monkeypatch.delenv(cache.ENV_VAR, raising=False)
        cache.unconfigure()
        assert main(["cache", "stats"]) == 2
        assert "no cache configured" in capsys.readouterr().err

    def test_stats_text_and_json(self, tmp_path, capsys):
        import json

        self._warm(tmp_path)
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "entries : 1" in capsys.readouterr().out
        assert main([
            "cache", "stats", "--dir", str(tmp_path), "--format", "json",
        ]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["fields"]["d"] == 1

    def test_stats_reads_env_store(self, tmp_path, monkeypatch, capsys):
        from repro import cache

        self._warm(tmp_path)
        cache.unconfigure()
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
        assert main(["cache", "stats"]) == 0
        assert "entries : 1" in capsys.readouterr().out

    def test_verify_clean_then_corrupted(self, tmp_path, capsys):
        self._warm(tmp_path)
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
        assert "verified" in capsys.readouterr().out
        victim = next((tmp_path / "objects").glob("*.json"))
        victim.write_text("{broken")
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
        assert "unparseable" in capsys.readouterr().out

    def test_sweep_tmp(self, tmp_path, capsys):
        self._warm(tmp_path)
        orphan = tmp_path / "objects" / "deadbeef.json.123.456.tmp"
        orphan.write_text("{half-written")
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
        assert "orphaned tmp" in capsys.readouterr().out
        assert main(["cache", "sweep-tmp", "--dir", str(tmp_path)]) == 0
        assert "swept 1 orphaned tmp file(s)" in capsys.readouterr().out
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0

    def test_clear(self, tmp_path, capsys):
        self._warm(tmp_path)
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 1 record(s)" in capsys.readouterr().out
        assert main([
            "cache", "stats", "--dir", str(tmp_path), "--format", "json",
        ]) == 0
        import json

        assert json.loads(capsys.readouterr().out)["entries"] == 0
