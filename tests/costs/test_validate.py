"""Formula == wire on every library protocol, gated by the scenario matrix.

The matrix's clean cells check each protocol's symbolic cost against the
live :class:`~repro.comm.channel.BitChannel` transcript and, field for
field, against the clean-channel ARQ endpoints' transport stats.  The full
catalogue holds one point of every library protocol, so its sweep is the
cost-formula gate: zero ``MISMATCH`` cells, every family represented, and
the paper's bounds bracketing the singularity protocols exactly.
"""

import json

import pytest

from repro.matrix import run_sweep

#: The (model, family) points that run a library protocol — one per
#: entry of ``repro.costs.PROTOCOL_PLANS``.
LIBRARY_FAMILIES = {
    ("deterministic", "equality"),
    ("randomized-leighton", "equality"),
    ("randomized-leighton", "equality-rabin-karp"),
    ("deterministic", "singularity-pi0"),
    ("randomized-leighton", "singularity-pi0"),
    ("deterministic", "rank-column-basis"),
    ("deterministic", "solvability"),
    ("randomized-leighton", "solvability"),
    ("deterministic", "matmul-verify"),
    ("randomized-leighton", "matmul-verify"),
}


@pytest.fixture(scope="module")
def clean_cells():
    return [
        cell
        for cell in run_sweep(quick=False)
        if cell["regime"]["kind"] is None
    ]


class TestQuickSweepGate:
    """The cost-formula gate over the full catalogue's clean cells."""

    def test_every_cell_matches(self, clean_cells):
        assert clean_cells, "the clean regime must not be empty"
        bad = [c for c in clean_cells if c["verdict"] != "MATCH"]
        detail = "; ".join(m for c in bad for m in c["mismatches"])
        assert not bad, f"formula/wire disagreement: {detail}"

    def test_every_family_represented(self, clean_cells):
        live = {
            (c["model"], c["family"])
            for c in clean_cells
            if c["model"] in ("deterministic", "randomized-leighton")
        }
        assert live == LIBRARY_FAMILIES

    def test_sweep_is_deterministic(self):
        first = run_sweep(quick=False, seed=7)
        second = run_sweep(quick=False, seed=7)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_bounds_bracket_singularity_measurements(self, clean_cells):
        # On singularity cells the paper's bounds must actually bracket
        # the protocols: trivial meets its upper bound exactly, the
        # fingerprint meets Leighton's, and the lower bound sits beneath
        # the deterministic upper bound.
        bracketed = 0
        for cell in clean_cells:
            bounds = cell["bounds"]
            if "trivial_upper" not in bounds:
                continue
            assert bounds["lower"] < bounds["trivial_upper"]
            if cell["family"] != "singularity-pi0":
                continue
            total = cell["measured"]["clean"]["total_bits"]
            if cell["model"] == "deterministic":
                assert total == bounds["trivial_upper"]
                bracketed += 1
            if cell["model"] == "randomized-leighton":
                assert total == bounds["leighton_upper"]
                bracketed += 1
        assert bracketed >= 4  # two sizes of each singularity protocol
