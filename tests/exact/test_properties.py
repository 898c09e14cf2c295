"""Property-based tests (hypothesis) on the exact linear-algebra core.

These are the invariants the whole reproduction leans on; hypothesis probes
them over randomized small matrices with shrinking.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact.determinant import bareiss_determinant, hadamard_bound
from repro.exact.elimination import bareiss_echelon, row_echelon
from repro.exact.matrix import Matrix
from repro.exact.modular import rank_mod
from repro.exact.lu import lup_decompose
from repro.exact.qr import qr_decompose
from repro.exact.rank import rank
from repro.exact.solve import nullity, solve, verify_solution
from repro.exact.span import Subspace
from repro.exact.vector import Vector
from tests.exact.oracles import cofactor_determinant, det_mod

entries = st.integers(min_value=-8, max_value=8)


def square_matrices(max_n: int = 4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(Matrix)
    )


def rect_matrices(max_dim: int = 4):
    return st.tuples(
        st.integers(min_value=1, max_value=max_dim),
        st.integers(min_value=1, max_value=max_dim),
    ).flatmap(
        lambda dims: st.lists(
            st.lists(entries, min_size=dims[1], max_size=dims[1]),
            min_size=dims[0],
            max_size=dims[0],
        ).map(Matrix)
    )


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_determinant_engines_agree(m):
    assert bareiss_determinant(m) == cofactor_determinant(m)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_hadamard_dominates_determinant(m):
    assert abs(bareiss_determinant(m)) <= hadamard_bound(m)


@settings(max_examples=60, deadline=None)
@given(rect_matrices())
def test_elimination_engines_agree_on_pivots(m):
    assert bareiss_echelon(m).pivot_cols == row_echelon(m).pivot_cols


@settings(max_examples=60, deadline=None)
@given(rect_matrices())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.T)


@settings(max_examples=60, deadline=None)
@given(rect_matrices())
def test_rank_nullity(m):
    assert rank(m) + nullity(m) == m.num_cols


@settings(max_examples=40, deadline=None)
@given(square_matrices())
def test_rank_mod_lower_bounds_rank(m):
    assert rank_mod(m.to_int_rows(), 10007) <= rank(m)


@settings(max_examples=40, deadline=None)
@given(square_matrices())
def test_det_mod_is_reduction(m):
    assert det_mod(m.to_int_rows(), 10007) == bareiss_determinant(m) % 10007


@settings(max_examples=40, deadline=None)
@given(rect_matrices())
def test_lup_reconstructs(m):
    assert lup_decompose(m).reconstruct() == m


@settings(max_examples=40, deadline=None)
@given(rect_matrices())
def test_qr_reconstructs_and_orthogonal(m):
    dec = qr_decompose(m)
    assert dec.reconstruct() == m
    assert dec.orthogonality_defect() == 0
    assert dec.rank() == rank(m)


@settings(max_examples=40, deadline=None)
@given(rect_matrices(), st.lists(entries, min_size=1, max_size=4))
def test_solve_soundness(m, b_entries):
    b = Vector((b_entries + [0] * m.num_rows)[: m.num_rows])
    result = solve(m, b)
    if result.solvable:
        assert result.particular is not None
        assert verify_solution(m, result.particular, b)
        for v in result.nullspace_basis:
            assert all(x == 0 for x in m.matvec(list(v)))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=3),
)
def test_subspace_modular_law_inequality(rows_a, rows_b):
    # dim(a + b) + dim(a ∩ b) == dim a + dim b  (exact modular identity)
    a = Subspace.span([Vector(r) for r in rows_a])
    b = Subspace.span([Vector(r) for r in rows_b])
    assert (a + b).dimension + (a & b).dimension == a.dimension + b.dimension


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3, unique=True),
)
def test_projection_image_membership(rows, indices):
    # The projection of a member is a member of the projection.
    space = Subspace.span([Vector(r) for r in rows])
    member = Vector(rows[0])
    projected_space = space.project(indices)
    assert member.project(indices) in projected_space


@settings(max_examples=40, deadline=None)
@given(square_matrices(3), square_matrices(3))
def test_determinant_multiplicative(a, b):
    if a.shape == b.shape:
        assert bareiss_determinant(a @ b) == bareiss_determinant(a) * bareiss_determinant(b)
