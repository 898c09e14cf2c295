"""The paper's core: the restricted family, the lemma chain, the reductions.

Module map (paper section → module):

* Figures 1 & 3, Definition 3.1 → :mod:`repro.singularity.family`
* Lemma 3.2 → :mod:`repro.singularity.lemma32`
* Lemma 3.4 → :mod:`repro.singularity.lemma34`
* Lemma 3.5 / claim (2a) → :mod:`repro.singularity.lemma35`
* Lemmas 3.3, 3.6, 3.7 / claim (2b) → :mod:`repro.singularity.lemma36`
* Section 3 padding → :mod:`repro.singularity.padding`
* Definition 3.8, Lemma 3.9, Figure 4 → :mod:`repro.singularity.proper`
* Corollaries 1.2, 1.3, [[I,B],[A,C]] → :mod:`repro.singularity.reductions`
* Vector space span problem → :mod:`repro.singularity.span_problem`
* All quantitative bounds → :mod:`repro.singularity.counting`
* Base-(-q) digit machinery → :mod:`repro.singularity.negabase`
"""

from repro.singularity.family import FamilyInstance, RestrictedFamily, ceil_log
from repro.singularity.negabase import (
    fits_in_negabase,
    negabase_digits,
    negabase_range,
    negabase_value,
)
from repro.singularity.lemma32 import (
    check_equivalence,
    dependence_witness,
    forced_coefficients,
    span_a_has_full_dimension,
    verify_witness,
)
from repro.singularity.lemma34 import (
    count_distinct_spans_sampled,
    distinctness_counterexample_without_restrictions,
    recover_c_from_span,
    span_dimension_is_full,
    spans_are_distinct,
    verify_recovery,
)
from repro.singularity.lemma35 import (
    Completion,
    CompletionError,
    complete,
    complete_and_check_singular,
    count_singular_columns_exact,
    count_singular_columns_exhaustive,
    count_singular_columns_sampled,
    distinct_e_give_distinct_columns,
    ones_lower_bound,
    ones_upper_bound,
)
from repro.singularity.lemma36 import (
    count_ew_vectors_in_subspace,
    intersection_dimension,
    intersection_dimension_profile,
    lemma33_containment,
    lemma36_row_threshold_log2,
    lemma37_column_bound_log2,
    one_rectangle_column_cap,
    projected_intersection_dimension,
    verify_column_cap_on_rectangle,
)
from repro.singularity.padding import (
    has_identity_tail,
    pad,
    padding_parameters,
    padding_preserves_singularity,
    padding_rank_identity,
    unpad,
)
from repro.singularity.proper import (
    Properization,
    ProperizationError,
    is_proper,
    make_proper,
    required_c_bits,
    required_e_row_bits,
)
from repro.singularity.reductions import (
    Reduction,
    all_corollary_12_reductions,
    corollary_13_holds,
    corollary_13_instance,
    determinant_reduction,
    half_rank_instance,
    lup_reduction,
    product_equals_via_rank,
    product_verification_matrix,
    qr_reduction,
    rank_identity_holds,
    rank_reduction,
    svd_reduction,
)
from repro.singularity.span_problem import (
    SpanInstance,
    enumerate_l,
    kbit_span_universe_log2,
    lovasz_saks_bound_bits,
    matrix_to_span_instance,
    span_instance_agrees_with_singularity,
    spans_union,
)
from repro.singularity.ablations import (
    ablate_d_width,
    ablate_evenness,
    ablate_prime_bits,
    ablate_unit_diagonal,
)
from repro.singularity.truth_builder import (
    build_and_measure,
    completed_columns,
    random_columns,
    restricted_truth_matrix,
    sample_distinct_rows,
)
from repro.singularity.two_by_two import (
    exact_singular_count_2x2,
    measured_rank_bound_sweep,
    singularity_2x2_truth_matrix,
)
from repro.singularity.counting import (
    QPower,
    TheoremBounds,
    randomized_upper_bound_bits,
    theorem_ratio,
    trivial_upper_bound_bits,
)

__all__ = [
    "FamilyInstance",
    "RestrictedFamily",
    "ceil_log",
    "fits_in_negabase",
    "negabase_digits",
    "negabase_range",
    "negabase_value",
    "check_equivalence",
    "dependence_witness",
    "forced_coefficients",
    "span_a_has_full_dimension",
    "verify_witness",
    "count_distinct_spans_sampled",
    "distinctness_counterexample_without_restrictions",
    "recover_c_from_span",
    "span_dimension_is_full",
    "spans_are_distinct",
    "verify_recovery",
    "Completion",
    "CompletionError",
    "complete",
    "complete_and_check_singular",
    "count_singular_columns_exact",
    "count_singular_columns_exhaustive",
    "count_singular_columns_sampled",
    "distinct_e_give_distinct_columns",
    "ones_lower_bound",
    "ones_upper_bound",
    "count_ew_vectors_in_subspace",
    "intersection_dimension",
    "intersection_dimension_profile",
    "lemma33_containment",
    "lemma36_row_threshold_log2",
    "lemma37_column_bound_log2",
    "one_rectangle_column_cap",
    "projected_intersection_dimension",
    "verify_column_cap_on_rectangle",
    "has_identity_tail",
    "pad",
    "padding_parameters",
    "padding_preserves_singularity",
    "padding_rank_identity",
    "unpad",
    "Properization",
    "ProperizationError",
    "is_proper",
    "make_proper",
    "required_c_bits",
    "required_e_row_bits",
    "Reduction",
    "all_corollary_12_reductions",
    "corollary_13_holds",
    "corollary_13_instance",
    "determinant_reduction",
    "half_rank_instance",
    "lup_reduction",
    "product_equals_via_rank",
    "product_verification_matrix",
    "qr_reduction",
    "rank_identity_holds",
    "rank_reduction",
    "svd_reduction",
    "SpanInstance",
    "enumerate_l",
    "kbit_span_universe_log2",
    "lovasz_saks_bound_bits",
    "matrix_to_span_instance",
    "span_instance_agrees_with_singularity",
    "spans_union",
    "ablate_d_width",
    "ablate_evenness",
    "ablate_prime_bits",
    "ablate_unit_diagonal",
    "build_and_measure",
    "completed_columns",
    "random_columns",
    "restricted_truth_matrix",
    "sample_distinct_rows",
    "exact_singular_count_2x2",
    "measured_rank_bound_sweep",
    "singularity_2x2_truth_matrix",
    "QPower",
    "TheoremBounds",
    "randomized_upper_bound_bits",
    "theorem_ratio",
    "trivial_upper_bound_bits",
]
