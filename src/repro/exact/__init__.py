"""Exact linear algebra over ℤ and ℚ — the substrate of every decision.

Design rule: **no floating point in any decision path**.  Floats appear only
in explicitly named cross-checks (:func:`repro.exact.svd.numeric_svd_check`)
and visualization helpers.

The public surface:

* :class:`Matrix`, :class:`Vector` — immutable exact containers.
* Elimination engines — rational (:func:`row_echelon`, :func:`rref`) and
  fraction-free integer (:func:`bareiss_echelon`).
* Determinants — :func:`determinant` (Bareiss for integer matrices,
  rational elimination otherwise) and the Hadamard bounds.
* :func:`rank`, :func:`is_singular` — the paper's core predicate.
* Decompositions — :func:`lup_decompose`, :func:`qr_decompose`,
  :func:`svd_structure` (Corollary 1.2 c–e).
* :func:`solve`, :func:`is_solvable` — Corollary 1.3's decision.
* :class:`Subspace` — spans, intersections, projections (Lemmas 3.2–3.7).
* Modular arithmetic — primes and the one scalar GF(p) engine
  (:func:`rank_mod`, :func:`is_singular_mod`, any prime: the randomized
  protocols' machinery), plus the truth builder's NumPy batch filter
  :mod:`repro.exact.modnp` (echelon form and span membership over uint64).
* Normal forms — Hermite and Smith over ℤ.
"""

from repro.exact.matrix import Matrix, permutation_matrix
from repro.exact.vector import Vector
from repro.exact.elimination import (
    BareissForm,
    EchelonForm,
    bareiss_echelon,
    row_echelon,
    rref,
)
from repro.exact.determinant import (
    bareiss_determinant,
    determinant,
    hadamard_bound,
    hadamard_bound_kbit,
    rational_determinant,
)
from repro.exact.rank import (
    column_space_contains,
    has_rank,
    is_nonsingular,
    is_singular,
    rank,
    rank_profile,
    row_rank_profile,
)
from repro.exact.lu import LUPDecomposition, is_singular_via_lup, lup_decompose
from repro.exact.qr import QRDecomposition, is_singular_via_qr, qr_decompose
from repro.exact.svd import (
    SVDStructure,
    gram_matrix,
    gram_rank_agrees,
    is_singular_via_svd,
    numeric_svd_check,
    svd_structure,
)
from repro.exact.solve import (
    SolutionSet,
    invert,
    is_solvable,
    nullity,
    nullspace,
    solve,
    verify_solution,
)
from repro.exact.span import Subspace
from repro.exact.modular import (
    count_primes_with_bits,
    is_prime,
    is_singular_mod,
    next_prime,
    primes_in_range,
    random_prime_with_bits,
    rank_mod,
)
from repro.exact import modnp
from repro.exact.gf2 import (
    gf2_rank,
    gf2_rank_of_truth_matrix,
    pack_numpy,
    pack_rows,
)
from repro.exact.charpoly import (
    cayley_hamilton_holds,
    characteristic_polynomial,
    determinant_via_charpoly,
    is_singular_via_charpoly,
    rational_eigenvalues,
)
from repro.exact.normal_forms import (
    HermiteForm,
    SmithForm,
    hermite_normal_form,
    smith_normal_form,
)

__all__ = [
    "Matrix",
    "Vector",
    "permutation_matrix",
    "BareissForm",
    "EchelonForm",
    "bareiss_echelon",
    "row_echelon",
    "rref",
    "bareiss_determinant",
    "determinant",
    "hadamard_bound",
    "hadamard_bound_kbit",
    "rational_determinant",
    "column_space_contains",
    "has_rank",
    "is_nonsingular",
    "is_singular",
    "rank",
    "rank_profile",
    "row_rank_profile",
    "LUPDecomposition",
    "is_singular_via_lup",
    "lup_decompose",
    "QRDecomposition",
    "is_singular_via_qr",
    "qr_decompose",
    "SVDStructure",
    "gram_matrix",
    "gram_rank_agrees",
    "is_singular_via_svd",
    "numeric_svd_check",
    "svd_structure",
    "SolutionSet",
    "invert",
    "is_solvable",
    "nullity",
    "nullspace",
    "solve",
    "verify_solution",
    "Subspace",
    "count_primes_with_bits",
    "modnp",
    "is_prime",
    "is_singular_mod",
    "next_prime",
    "primes_in_range",
    "random_prime_with_bits",
    "rank_mod",
    "gf2_rank",
    "gf2_rank_of_truth_matrix",
    "pack_numpy",
    "pack_rows",
    "cayley_hamilton_holds",
    "characteristic_polynomial",
    "determinant_via_charpoly",
    "is_singular_via_charpoly",
    "rational_eigenvalues",
    "HermiteForm",
    "SmithForm",
    "hermite_normal_form",
    "smith_normal_form",
]
