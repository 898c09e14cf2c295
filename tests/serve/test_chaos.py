"""Service-layer chaos: frame faults, pipes, and the robustness gate."""

import pytest

from repro.serve.chaos import (
    FRAME_FAULT_KINDS,
    FramePipe,
    ServeChaosPoint,
    chaos_sweep,
    gold_verdict,
    make_frame_fault_model,
    make_workload,
)
from repro.serve.service import ServiceConfig


class TestFrameFaultModel:
    def test_registry_rejects_unknown_kind_and_bad_rate(self):
        with pytest.raises(ValueError):
            make_frame_fault_model("gamma_ray", 0.1, 0)
        with pytest.raises(ValueError):
            make_frame_fault_model("flip", 1.5, 0)

    def test_determinism_per_seed(self):
        for kind in FRAME_FAULT_KINDS:
            a = make_frame_fault_model(kind, 0.5, 7)
            b = make_frame_fault_model(kind, 0.5, 7)
            payload = b"0123456789" * 4
            for _ in range(50):
                assert a.apply(payload) == b.apply(payload)

    def test_kind_semantics(self):
        payload = b"hello-frame-payload"
        seen = {kind: set() for kind in FRAME_FAULT_KINDS}
        for kind in FRAME_FAULT_KINDS:
            model = make_frame_fault_model(kind, 1.0, 3)
            for _ in range(30):
                delivered, hold = model.apply(payload)
                if kind == "drop":
                    assert delivered == [] and hold == 0
                elif kind == "duplicate":
                    assert delivered == [payload, payload]
                elif kind == "delay":
                    assert delivered == [] and 1 <= hold <= 3
                elif kind == "erase":
                    assert len(delivered) == 1
                    assert len(delivered[0]) < len(payload)
                    assert payload.startswith(delivered[0])
                else:  # flip / burst garble without changing length
                    assert len(delivered) == 1
                    assert len(delivered[0]) == len(payload)
                    assert delivered[0] != payload
                seen[kind].add(str((delivered, hold)))
        assert all(seen.values())


class TestFramePipe:
    def test_clean_pipe_is_a_wire(self):
        pipe = FramePipe(None)
        assert pipe.transfer(b"a") == [b"a"]
        assert pipe.transfer(b"b") == [b"b"]
        assert pipe.flush() == []

    def test_delayed_frames_release_on_later_traffic(self):
        model = make_frame_fault_model("delay", 1.0, 0)
        pipe = FramePipe(model)
        first = pipe.transfer(b"one")
        assert first == []  # held
        released = []
        for i in range(6):
            released.extend(
                frame for frame in pipe.transfer(b"tick%d" % i)
                if frame == b"one"
            )
        released.extend(frame for frame in pipe.flush() if frame == b"one")
        assert released == [b"one"]  # exactly once, never lost

    def test_drop_pipe_loses_frames_silently(self):
        pipe = FramePipe(make_frame_fault_model("drop", 1.0, 0))
        assert pipe.transfer(b"gone") == []
        assert pipe.flush() == []


class TestWorkload:
    def test_deterministic_per_seed(self):
        assert make_workload(5, 40) == make_workload(5, 40)
        assert make_workload(5, 40) != make_workload(6, 40)

    def test_mix_covers_every_method_and_error_bait(self):
        jobs = make_workload(0, 200)
        methods = {job["method"] for job in jobs}
        assert methods == {
            "protocol.run", "exhaustive.cc", "partition.search", "cache.stats",
        }
        golds = [
            gold_verdict(job["method"], job["params"], ServiceConfig())
            for job in jobs
        ]
        assert any(g is not None and g[0] == "error" for g in golds)
        assert any(g is not None and g[0] == "ok" for g in golds)

    def test_gold_verdict_excludes_cache_stats(self):
        assert gold_verdict("cache.stats", {}, ServiceConfig()) is None


class TestChaosGate:
    @pytest.mark.parametrize("kind", FRAME_FAULT_KINDS)
    def test_no_silent_corruption_or_hangs_per_kind(self, kind):
        (point,) = chaos_sweep(
            kinds=(kind,), rate=0.08, requests_per_kind=40, clients=4, seed=1
        )
        assert point.silent_wrong == 0
        assert point.hung == 0
        assert point.terminated == point.requests
        assert point.ok > 0  # faults degrade, they don't disable

    def test_sweep_is_deterministic_in_outcomes(self):
        run = lambda: chaos_sweep(  # noqa: E731
            kinds=("flip", "drop"), rate=0.1, requests_per_kind=25,
            clients=5, seed=3,
        )
        first = [p.as_dict() for p in run()]
        second = [p.as_dict() for p in run()]
        assert first == second

    def test_faults_actually_bite(self):
        (point,) = chaos_sweep(
            kinds=("drop",), rate=0.3, requests_per_kind=30, clients=3, seed=0
        )
        assert point.retries > 0  # the pipes really did lose frames
        assert point.silent_wrong == 0
        assert point.hung == 0

    def test_faulted_load_still_terminates_everything(self):
        (point,) = chaos_sweep(
            kinds=("drop",), rate=0.15, requests_per_kind=30, clients=10, seed=1
        )
        assert point.lost == 0  # bounded retries still settle every request
        assert point.ok + point.expected_errors == point.requests
        assert point.retries > 0

    def test_point_serialization(self):
        point = ServeChaosPoint(kind="flip", rate=0.1, requests=10, ok=10)
        as_dict = point.as_dict()
        assert as_dict["kind"] == "flip"
        assert set(as_dict) >= {
            "ok", "expected_errors", "lost", "silent_wrong", "hung", "retries",
        }
