"""Cross-engine property suite: every engine answers the same question.

Hypothesis drives random integer matrices through *all* the independent
implementations of determinant, rank, span membership, and the truth-matrix
predicate, and demands agreement:

* determinant: Bareiss / rational elimination vs the cofactor and mod-p
  oracles of ``tests/exact/oracles.py``;
* rank: rational elimination vs GF(p) (the scalar engine and the truth
  builder's echelon kernel, as a lower bound and as exact agreement at a
  2³¹-scale prime on small matrices);
* span membership: exact :class:`Subspace` vs the batched GF(p) filter
  (one-sided: exact members can never be mod-p non-members);
* the restricted truth matrix: ``fraction`` vs ``modnp`` engines must be
  byte-identical, and :func:`completed_columns` must be bit-identical at
  workers ∈ {1, 2, 4}.

One ``slow`` test also holds modnp to its speed bar over ``fraction`` on
the pinned E6-scale build.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact import modnp
from repro.exact.determinant import bareiss_determinant, rational_determinant
from repro.exact.matrix import Matrix
from repro.exact.modular import rank_mod
from repro.exact.rank import rank
from repro.exact.span import Subspace
from repro.exact.vector import Vector
from tests.exact.oracles import cofactor_determinant, det_mod

P = modnp.DEFAULT_PRIME

entries = st.integers(min_value=-30, max_value=30)


@st.composite
def square_int_matrices(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    return rows


@st.composite
def rect_int_matrices(draw, max_side=5):
    n_rows = draw(st.integers(min_value=1, max_value=max_side))
    n_cols = draw(st.integers(min_value=1, max_value=max_side))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n_cols, max_size=n_cols),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return rows


@settings(max_examples=60, deadline=None)
@given(square_int_matrices())
def test_all_determinant_engines_agree(rows):
    m = Matrix(rows)
    exact = bareiss_determinant(m)
    assert rational_determinant(m) == Fraction(exact)
    assert cofactor_determinant(m) == Fraction(exact)
    assert det_mod(rows, P) == exact % P


@settings(max_examples=60, deadline=None)
@given(rect_int_matrices())
def test_rank_engines_agree(rows):
    exact = rank(Matrix(rows))
    py = rank_mod(rows, P)
    vec = len(modnp.echelon_mod(rows, P)[1])
    assert py == vec  # the two GF(p) kernels are interchangeable
    assert vec <= exact  # rank never grows under reduction
    # Entries are tiny (< 31): no minor of a 5x5 can reach 2^31-scale, so
    # the mod-p rank is in fact exact here.
    assert vec == exact


@settings(max_examples=40, deadline=None)
@given(
    rect_int_matrices(max_side=4),
    st.lists(
        st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=6
    ),
)
def test_span_membership_filter_is_sound(basis, queries):
    amb = len(basis[0])
    queries = [q[:amb] for q in queries]
    span = Subspace.span([Vector(r) for r in basis])
    verdict = modnp.span_membership_batch(basis, queries, P)
    for got, q in zip(verdict, queries):
        exact = Vector(q) in span
        if exact:
            assert got  # an exact member may never be filtered out
        # And at this prime/entry scale the filter is exact:
        assert bool(got) == exact


class TestTruthMatrixEngines:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_engines_byte_identical(self, seed):
        from repro.singularity import truth_builder as tb
        from repro.singularity.family import RestrictedFamily
        from repro.util.rng import ReproducibleRNG

        fam = RestrictedFamily(5, 3)
        rng = ReproducibleRNG(seed)
        rows = tb.sample_distinct_rows(fam, rng, 8)
        columns = tb.completed_columns(fam, rows[:4], rng, 1)
        columns += tb.random_columns(fam, rng, 8)
        tm_fraction = tb.restricted_truth_matrix(
            fam, rows, columns, engine="fraction"
        )
        tm_modnp = tb.restricted_truth_matrix(
            fam, rows, columns, engine="modnp"
        )
        assert tm_fraction.shape == tm_modnp.shape
        assert (tm_fraction.data == tm_modnp.data).all()
        assert tm_fraction.data.tobytes() == tm_modnp.data.tobytes()

    def test_unknown_engine_rejected(self):
        from repro.singularity import truth_builder as tb
        from repro.singularity.family import RestrictedFamily

        with pytest.raises(ValueError, match="unknown engine"):
            tb.restricted_truth_matrix(RestrictedFamily(5, 3), [], [], engine="gpu")


#: The bar for modnp over fraction on the pinned E6-scale build.
MODNP_SPEEDUP_BAR = 5.0


@pytest.mark.slow
def test_modnp_speedup_bar():
    """Best-of-3 wall time of the pinned E6-scale build (n=5, k=3, 25 rows)."""
    from repro import cache
    from repro.singularity import truth_builder as tb
    from repro.singularity.family import RestrictedFamily
    from repro.util.rng import ReproducibleRNG

    fam = RestrictedFamily(5, 3)
    rng = ReproducibleRNG(1989)
    rows = tb.sample_distinct_rows(fam, rng, 25)
    columns = tb.completed_columns(fam, rows[:12], rng, 1)
    columns += tb.random_columns(fam, rng, 60)
    seconds, data = {}, {}
    with cache.disabled():
        for engine in ("fraction", "modnp"):
            seconds[engine] = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                tm = tb.restricted_truth_matrix(fam, rows, columns, engine=engine)
                seconds[engine] = min(seconds[engine], time.perf_counter() - t0)
            data[engine] = tm.data.tobytes()
    assert data["fraction"] == data["modnp"]
    speedup = seconds["fraction"] / seconds["modnp"]
    assert speedup >= MODNP_SPEEDUP_BAR, (
        f"modnp vs fraction bar missed: {speedup:.1f}x < {MODNP_SPEEDUP_BAR:g}x"
    )


class TestParmapDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_completed_columns_worker_invariant(self, workers):
        from repro.singularity import truth_builder as tb
        from repro.singularity.family import RestrictedFamily
        from repro.util.rng import ReproducibleRNG

        fam = RestrictedFamily(5, 3)
        rows = tb.sample_distinct_rows(fam, ReproducibleRNG(7), 6)
        baseline = tb.completed_columns(
            fam, rows, ReproducibleRNG(7), per_row=2, workers=1
        )
        assert (
            tb.completed_columns(
                fam, rows, ReproducibleRNG(7), per_row=2, workers=workers
            )
            == baseline
        )
