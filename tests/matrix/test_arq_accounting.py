"""The clean ARQ leg reconciles the transport accounting on every cell.

Two invariants of :func:`repro.matrix.run_arq` hold on clean and faulted
channels alike: each endpoint's four bit buckets sum to its wire bits, and
on a completed run the channel transcript carries exactly the bits each
endpoint claims it sent.  Breaking either one — and nothing else — must
turn a clean ``MATCH`` cell into a ``MISMATCH`` naming the broken check.
"""

import repro.matrix.sweep as sweep_module
from repro.comm.channel import BitChannel
from repro.comm.transport import TransportStats
from repro.matrix import regimes, run_cell
from repro.matrix.scenarios import SCENARIOS

CLEAN = regimes()[0]


class _LeakyStats(TransportStats):
    """Transport stats whose buckets claim one bit more than the wire."""

    @property
    def accounted_bits(self) -> int:
        return super().accounted_bits + 1


class _ShortChannel(BitChannel):
    """A channel whose transcript reports one bit fewer from agent 0."""

    def __init__(self):
        super().__init__()
        real = self.transcript.bits_from
        self.transcript.bits_from = lambda agent: real(agent) - (agent == 0)


def _clean_cell(name="trivial", seed=3):
    return run_cell(SCENARIOS[name](seed), seed, CLEAN)


class TestCleanArqAccounting:
    def test_untouched_cell_matches(self):
        cell = _clean_cell()
        assert cell["verdict"] == "MATCH", cell["mismatches"]

    def test_bucket_leak_fails_the_cell(self, monkeypatch):
        real_pair = sweep_module.reliable_pair

        def leaky_pair(inner0, inner1, config=None):
            wrapped0, wrapped1, e0, e1 = real_pair(inner0, inner1, config)
            e0.stats = _LeakyStats()
            return wrapped0, wrapped1, e0, e1

        monkeypatch.setattr(sweep_module, "reliable_pair", leaky_pair)
        cell = _clean_cell()
        assert cell["verdict"] == "MISMATCH"
        (problem,) = cell["mismatches"]
        assert problem.startswith("clean arq endpoint 0 buckets: wire ")

    def test_channel_endpoint_drift_fails_the_cell(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "BitChannel", _ShortChannel)
        cell = _clean_cell()
        assert cell["verdict"] == "MISMATCH"
        (problem,) = cell["mismatches"]
        assert problem.startswith("clean arq endpoint 0: channel saw ")
