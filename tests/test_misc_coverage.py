"""Coverage for small helpers not exercised elsewhere."""

import subprocess
import sys

import pytest

from repro.singularity import RestrictedFamily
from repro.singularity.lemma36 import lemma36_enumeration_capacity_log2
from repro.util.fmt import format_pow, format_si


class TestLemma36Capacity:
    def test_capacity_below_threshold(self):
        # The proof's punchline: with a shared 7n/8-1 subspace, the
        # enumerable spans are fewer than r — capacity log2 < threshold log2
        # asymptotically.  At n=101 the gap is already visible.
        from repro.singularity.lemma36 import lemma36_row_threshold_log2

        fam = RestrictedFamily(101, 2)
        shared = 7 * fam.n // 8 - 1
        capacity = lemma36_enumeration_capacity_log2(fam, shared)
        threshold = lemma36_row_threshold_log2(fam)
        assert capacity < threshold

    def test_full_shared_space_zero_capacity(self, family_7_2):
        assert lemma36_enumeration_capacity_log2(family_7_2, family_7_2.n) == 0.0

    def test_capacity_monotone_in_freedom(self, family_7_2):
        low = lemma36_enumeration_capacity_log2(family_7_2, family_7_2.n - 2)
        high = lemma36_enumeration_capacity_log2(family_7_2, 1)
        assert high > low


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "experiments"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "E16" in result.stdout

    def test_python_dash_m_repro_bad_args(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode != 0
