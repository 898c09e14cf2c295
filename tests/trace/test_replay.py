"""Transcript replay: traces are faithful, replayable artifacts of runs.

The acceptance bar: for each of the six service scenarios
(:data:`repro.matrix.SCENARIOS`), replaying the recorded trace of a clean-channel run must
reproduce the run's gold leaf bit for bit.  On top of that, faulty
ARQ-protected runs must replay too (the transcript records what the
sender paid for, not what the faults delivered), and tampering with a
recorded trace must be *detected*, not silently accepted.
"""

import pytest

from repro import trace
from repro.comm.agents import run_protocol, run_supervised
from repro.comm.faults import FaultyChannel, make_fault_model
from repro.comm.transport import ArqConfig, reliable_pair
from repro.matrix import run_arq
from repro.matrix.scenarios import SCENARIOS
from repro.util.rng import ReproducibleRNG


def _run_scenario_clean(name: str, seed: int = 0):
    """One clean-channel gold run of a registered service scenario."""
    case = SCENARIOS[name](seed)
    coins = ReproducibleRNG(seed) if case.randomized else None
    return run_protocol(
        case.protocol.agent0,
        case.protocol.agent1,
        case.input0,
        case.input1,
        public_randomness=coins,
    )


class TestGoldLeafReplay:
    """Every service scenario's trace replays to its gold leaf."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_clean_run_replays_bit_for_bit(self, name):
        with trace.capture() as tracer:
            result = _run_scenario_clean(name)
        gold_leaf = result.transcript.as_bit_string()

        replays = trace.replay_all(tracer.events())
        assert len(replays) == 1
        replay = replays[0]
        assert replay.verified, replay.problems
        assert replay.leaf == gold_leaf
        assert replay.transcript.total_bits == result.transcript.total_bits
        assert replay.transcript.rounds == result.transcript.rounds
        assert replay.runner == "run_protocol"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distinct_instances_replay_to_distinct_leaves(self, seed):
        """The replay tracks the *instance*, not some fixed transcript."""
        with trace.capture() as tracer:
            result = _run_scenario_clean("equality", seed=seed)
        replay = trace.replay_all(tracer.events())[0]
        assert replay.verified
        assert replay.leaf == result.transcript.as_bit_string()


class TestFaultyReplay:
    def test_arq_run_under_faults_still_replays(self):
        """Faults corrupt deliveries, never the recorded transcript."""
        case = SCENARIOS["trivial"](3)
        model = make_fault_model("flip", 0.002, seed=5)
        with trace.capture() as tracer:
            inner0 = case.protocol.agent0(case.input0)
            inner1 = case.protocol.agent1(case.input1)
            wrapped0, wrapped1, e0, e1 = reliable_pair(inner0, inner1)
            report = run_supervised(
                lambda _: wrapped0,
                lambda _: wrapped1,
                None,
                None,
                channel=FaultyChannel(model),
            )
        assert report.ok
        replay = trace.replay_all(tracer.events())[0]
        assert replay.verified, replay.problems
        assert replay.runner == "run_supervised"
        assert replay.leaf == report.transcript.as_bit_string()

    def test_run_case_traces_gold_and_faulty_runs(self):
        """A gold run and its judged ARQ run under faults both replay."""
        case = SCENARIOS["matmul_verify"](1)
        with trace.capture() as tracer:
            gold = _run_scenario_clean("matmul_verify", seed=1).agreed_output()
            run = run_arq(
                case,
                gold,
                make_fault_model("erase", 0.01, seed=2),
                coin_seed=0,
                config=ArqConfig(),
            )
        replays = trace.replay_all(tracer.events())
        assert len(replays) == 2  # the gold run, then the faulty run
        assert all(r.verified for r in replays), [r.problems for r in replays]
        assert replays[1].leaf == run.report.transcript.as_bit_string()


class TestTamperDetection:
    def _traced_events(self):
        with trace.capture() as tracer:
            _run_scenario_clean("equality")
        return tracer.events()

    def test_flipped_payload_bit_is_a_leaf_mismatch(self):
        events = self._traced_events()
        for ev in events:
            if ev.kind == "event" and ev.name == "wire.send":
                payload = ev.fields["payload"]
                flipped = ("1" if payload[0] == "0" else "0") + payload[1:]
                ev.fields = {**ev.fields, "payload": flipped}
                break
        replay = trace.replay_all(events)[0]
        assert not replay.verified
        assert any("leaf mismatch" in p for p in replay.problems)

    def test_truncated_payload_is_a_bit_count_mismatch(self):
        events = self._traced_events()
        for ev in events:
            if ev.kind == "event" and ev.name == "wire.send":
                ev.fields = {**ev.fields, "payload": ev.fields["payload"][:-1]}
                break
        replay = trace.replay_all(events)[0]
        assert not replay.verified
        assert any("payload length" in p for p in replay.problems)

    @pytest.mark.parametrize("bad", ["2", "x"])
    def test_non_bit_payload_is_a_problem_not_a_crash(self, bad):
        events = self._traced_events()
        for ev in events:
            if ev.kind == "event" and ev.name == "wire.send":
                payload = ev.fields["payload"]
                ev.fields = {**ev.fields, "payload": payload[:-1] + bad}
                break
        replay = trace.replay_all(events)[0]
        assert not replay.verified
        assert any("is not a bit string" in p for p in replay.problems)

    def test_bad_sender_is_a_problem_not_a_crash(self):
        events = self._traced_events()
        for ev in events:
            if ev.kind == "event" and ev.name == "wire.send":
                ev.fields = {**ev.fields, "agent": 2}
                break
        replay = trace.replay_all(events)[0]
        assert not replay.verified
        assert any("sender 2 is not 0 or 1" in p for p in replay.problems)

    def test_missing_report_is_unreported_not_verified(self):
        events = [
            ev
            for ev in self._traced_events()
            if not (ev.kind == "event" and ev.name == "run.report")
        ]
        replay = trace.replay_all(events)[0]
        assert not replay.verified
        assert replay.report == {}
        assert not replay.problems  # nothing to check against — not a lie

    def test_replay_survives_jsonl_round_trip(self, tmp_path):
        with trace.capture() as tracer:
            result = _run_scenario_clean("solvability")
        path = tracer.flush(tmp_path / "run.jsonl")
        replay = trace.replay_all(trace.load_jsonl(path))[0]
        assert replay.verified
        assert replay.leaf == result.transcript.as_bit_string()
