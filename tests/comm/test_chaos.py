"""Chaos tests: the protocol suite under injected faults never lies.

Every run goes through the scenario matrix's one ARQ leg
(:func:`repro.matrix.run_arq`) and is judged against the gold answer the
same instance and coins give on a bare channel; the no-silent-corruption
sweep runs the matrix's faulted cells (:func:`repro.matrix.run_cell`).
"""

import pytest

import repro.matrix.sweep as sweep_module
from repro.comm.agents import run_protocol
from repro.comm.faults import FAULT_KINDS, NoFaults, make_fault_model
from repro.comm.transport import ArqConfig
from repro.matrix import FaultRegime, MatrixCase, run_arq, run_cell
from repro.matrix.scenarios import SCENARIOS
from repro.util.rng import ReproducibleRNG, derive_seed


def _gold(case, coin_seed):
    coins = ReproducibleRNG(coin_seed) if case.randomized else None
    return run_protocol(
        case.protocol.agent0,
        case.protocol.agent1,
        case.input0,
        case.input1,
        public_randomness=coins,
    ).agreed_output()


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_clean_channel_recovers_gold_with_bounded_overhead(self, name):
        case = SCENARIOS[name](derive_seed(99, name))
        cfg = ArqConfig()
        run = run_arq(
            case, _gold(case, 1), NoFaults(), coin_seed=1, config=cfg
        )
        assert run.recovered
        assert not run.silent_wrong
        assert run.report.outcome == "ok"
        assert run.answer == run.gold
        assert run.problems == ()
        assert run.stats.retransmissions == 0
        # framing overhead exists but is bounded: a handful of frames, each
        # paying header + crc, plus acks and linger traffic.
        frames = run.stats.frames_delivered
        per_frame = cfg.data_header_bits + 16 + 2 * cfg.control_frame_bits
        assert 0 < run.stats.overhead_bits <= frames * per_frame + 200
        assert run.report.overhead_bits == run.stats.overhead_bits

    def test_instances_vary_with_seed(self):
        a = SCENARIOS["equality"](derive_seed(0, "eq", 0))
        b = SCENARIOS["equality"](derive_seed(0, "eq", 1))
        assert (a.input0, a.input1) != (b.input0, b.input1)

    def test_case_is_plain_data(self):
        case = MatrixCase("deterministic", "toy", {}, None, 1, 2)
        assert not case.randomized
        assert case.expected is None and case.bounds == {}


class TestFaultModelFactory:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_known_kinds(self, kind):
        model = make_fault_model(kind, 0.1, seed=1)
        assert model.apply(0, 0, 0xFF, 8) is not None

    def test_rate_zero_is_clean(self):
        assert isinstance(make_fault_model("flip", 0.0), NoFaults)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            make_fault_model("gremlins", 0.1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            make_fault_model("flip", -0.1)


class TestSweep:
    """Faulted matrix cells aggregate their runs consistently."""

    def test_aggregation_is_consistent(self):
        seed = derive_seed(1, "equality")
        case = SCENARIOS["equality"](seed)
        clean, faulty = (
            run_cell(case, seed, FaultRegime(f"flip@{p}", "flip", p, 5))
            for p in (0, 20)
        )
        for cell in (clean, faulty):
            measured = cell["measured"]["faulted"]
            assert measured["runs"] == 5
            assert (
                measured["recovered"]
                + measured["loud_failures"]
                + measured["silent_wrong"]
                == measured["runs"]
            )
        assert clean["measured"]["faulted"]["recovered"] == 5
        assert clean["measured"]["faulted"]["faults_injected"] == 0
        assert faulty["measured"]["faulted"]["faults_injected"] > 0

    def test_replayable(self):
        seed = derive_seed(7, "trivial")
        regime = FaultRegime("erase@50", "erase", 50, 4)
        first = run_cell(SCENARIOS["trivial"](seed), seed, regime)
        second = run_cell(SCENARIOS["trivial"](seed), seed, regime)
        assert first == second


class TestNoSilentCorruption:
    """The acceptance criterion: ≥ 1000 seeded faulty runs, zero runs that
    finish ``ok`` with an answer different from the fault-free gold standard.
    Failures must be loud (structured non-ok outcomes), never silent."""

    def test_thousand_runs_zero_silent_wrong(self, monkeypatch):
        outcomes = []

        def spy(*args, **kwargs):
            run = real_run_arq(*args, **kwargs)
            outcomes.append(run.report.outcome)
            return run

        real_run_arq = sweep_module.run_arq
        monkeypatch.setattr(sweep_module, "run_arq", spy)

        protocols = ["equality", "trivial", "solvability", "matmul_verify"]
        cells = []
        # 4 protocols × 5 kinds × 2 rates × 5 instances × 5 runs = 1000.
        for name in protocols:
            for kind in FAULT_KINDS:  # flip, burst, erase, duplicate, delay
                for permille in (10, 50):
                    regime = FaultRegime(f"{kind}@{permille}", kind, permille, 5)
                    for i in range(5):
                        seed = derive_seed(2026, name, i)
                        cells.append(
                            run_cell(SCENARIOS[name](seed), seed, regime)
                        )
        faulted = [cell["measured"]["faulted"] for cell in cells]
        total = sum(m["runs"] for m in faulted)
        assert total >= 1000
        assert len(outcomes) == total
        assert sum(m["silent_wrong"] for m in faulted) == 0
        assert all(cell["verdict"] == "WITHIN_BOUND" for cell in cells)
        failures = [o for o in outcomes if o != "ok"]
        assert len(failures) == sum(m["loud_failures"] for m in faulted)
        assert set(failures) <= {
            "transport_failure",
            "deadlock",
            "budget_exceeded",
            "agent_error",
        }
        # the sweep is not vacuous: faults really were injected and many
        # runs still recovered the gold answer.
        assert sum(m["faults_injected"] for m in faulted) > 100
        assert sum(m["recovered"] for m in faulted) > total // 2
