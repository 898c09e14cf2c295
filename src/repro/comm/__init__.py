"""Yao's two-party communication model, executable.

The pieces, mapped to the paper's Section 2:

* :class:`MatrixBitCodec` — the bit-level input format (k-bit entries).
* :class:`Partition` and the canonical partitions (π₀ of Definition 2.1,
  random even partitions, adversarial scatters) — "the input is evenly
  divided between the two agents according to some partition rule π".
* :class:`BitChannel` / :func:`run_protocol` — "their only means of
  communication is to exchange messages"; the channel counts the bits that
  define Comm(f, π, P).
* :class:`TruthMatrix` — "we can characterize a two-argument Boolean
  function by a truth matrix".
* :mod:`repro.comm.rectangles` — monochromatic submatrices and their sizes.
* :mod:`repro.comm.measures` + :mod:`repro.comm.exhaustive` — Yao's
  ``log d(f) − 2`` bound with exact d(f)/D(f) on small instances, plus
  fooling-set / rank / counting bounds.
* :mod:`repro.comm.randomized` — the probabilistic model of the paper's
  introduction (correctness probability > 1/2 + ε).

On top of the ideal model sits the robustness stack (see
``docs/fault_model.md``):

* :mod:`repro.comm.faults` — seeded fault injection
  (:class:`FaultyChannel` + pluggable :class:`FaultModel` subclasses,
  built by name through :func:`make_fault_model`);
* :mod:`repro.comm.transport` — reliable ARQ transport (framing, CRC-16,
  sequence numbers, retransmission with deterministic backoff);
* :func:`run_supervised` / :func:`run_with_retries` — structured
  :class:`RunReport` outcomes instead of exceptions.

The harness that runs the protocol suite under these faults and judges
every run against its gold answer is the scenario matrix
(:mod:`repro.matrix`).
"""

from repro.comm.bits import MatrixBitCodec, bits_to_int, int_to_bits
from repro.comm.partition import (
    Partition,
    checkerboard,
    from_entry_assignment,
    interleaved,
    pi_zero,
    random_even_partition,
    row_split,
)
from repro.comm.channel import (
    BitChannel,
    ChannelClosed,
    Message,
    Transcript,
    TransportFailure,
)
from repro.comm.agents import (
    OUTCOMES,
    BudgetExceeded,
    Drain,
    ProtocolDeadlock,
    ProtocolError,
    Recv,
    RunReport,
    RunResult,
    Send,
    run_protocol,
    run_supervised,
    run_with_retries,
)
from repro.comm.faults import (
    FAULT_KINDS,
    BitFlipFaults,
    BurstFaults,
    ChannelDropFaults,
    CompositeFaults,
    DelayFaults,
    Delivery,
    DuplicateFaults,
    ErasureFaults,
    FaultEvent,
    FaultLog,
    FaultModel,
    FaultyChannel,
    NoFaults,
    make_fault_model,
)
from repro.comm.transport import (
    ArqConfig,
    ArqEndpoint,
    TransportStats,
    arq_adapt,
    crc16,
    reliable_pair,
)
from repro.comm.protocol import (
    Leaf,
    Node,
    ProtocolTree,
    TreeProtocol,
    TwoPartyProtocol,
)
from repro.comm.truth_matrix import (
    TruthMatrix,
    truth_matrix_from_family,
    truth_matrix_from_function,
    truth_matrix_from_matrix_predicate,
)
from repro.comm.rectangles import (
    greedy_monochromatic_partition,
    is_monochromatic,
    is_one_rectangle,
    max_one_rectangle,
    max_one_rectangle_exact,
    max_one_rectangle_greedy,
    ones_covered_fraction,
    rectangle_value,
    verify_partition,
)
from repro.comm.measures import (
    counting_bound,
    counting_bound_on_matrix,
    fooling_set_bound,
    greedy_fooling_set,
    is_fooling_set,
    rank_bound,
    rectangle_partition_lower_bound_from_rank,
    truth_matrix_rank,
    yao_bound,
)
from repro.comm.exhaustive import (
    clear_search_cache,
    communication_complexity,
    dedupe,
    deterministic_cc_of_function,
    optimal_protocol_tree,
    partition_number,
    search_cache_stats,
)
from repro.comm.nondeterministic import (
    aho_ullman_yannakakis_gap,
    certificate_asymmetry_on_eq,
    cover_number_exact,
    cover_number_greedy,
    minimum_cover,
    nondeterministic_cc,
)
from repro.comm.one_way import (
    one_way_cc,
    one_way_gap_example,
    one_way_lower_bounds_two_way,
    one_way_singularity_log2,
)
from repro.comm.partition_search import (
    PartitionSearchResult,
    best_partition_cc,
    count_even_partitions,
    even_partitions,
    min_partition_singularity,
)
from repro.comm.discrepancy import (
    discrepancy_exact,
    discrepancy_report,
    discrepancy_spectral_bound,
    inner_product_matrix,
    randomized_lower_bound_bits,
)
from repro.comm.rounds import (
    round_bounded_cc,
    round_profile,
    rounds_needed_for_saturation,
)
from repro.comm.randomized import (
    ErrorEstimate,
    RandomizedProtocol,
    amplify_by_majority,
    estimate_cost,
    estimate_error,
    worst_input_error,
)

__all__ = [
    "MatrixBitCodec",
    "bits_to_int",
    "int_to_bits",
    "Partition",
    "checkerboard",
    "from_entry_assignment",
    "interleaved",
    "pi_zero",
    "random_even_partition",
    "row_split",
    "BitChannel",
    "ChannelClosed",
    "Message",
    "Transcript",
    "TransportFailure",
    "OUTCOMES",
    "BudgetExceeded",
    "Drain",
    "ProtocolDeadlock",
    "ProtocolError",
    "Recv",
    "RunReport",
    "RunResult",
    "Send",
    "run_protocol",
    "run_supervised",
    "run_with_retries",
    "FAULT_KINDS",
    "BitFlipFaults",
    "BurstFaults",
    "ChannelDropFaults",
    "CompositeFaults",
    "DelayFaults",
    "Delivery",
    "DuplicateFaults",
    "ErasureFaults",
    "FaultEvent",
    "FaultLog",
    "FaultModel",
    "FaultyChannel",
    "NoFaults",
    "make_fault_model",
    "ArqConfig",
    "ArqEndpoint",
    "TransportStats",
    "arq_adapt",
    "crc16",
    "reliable_pair",
    "Leaf",
    "Node",
    "ProtocolTree",
    "TreeProtocol",
    "TwoPartyProtocol",
    "TruthMatrix",
    "truth_matrix_from_family",
    "truth_matrix_from_function",
    "truth_matrix_from_matrix_predicate",
    "greedy_monochromatic_partition",
    "is_monochromatic",
    "is_one_rectangle",
    "max_one_rectangle",
    "max_one_rectangle_exact",
    "max_one_rectangle_greedy",
    "ones_covered_fraction",
    "rectangle_value",
    "verify_partition",
    "counting_bound",
    "counting_bound_on_matrix",
    "fooling_set_bound",
    "greedy_fooling_set",
    "is_fooling_set",
    "rank_bound",
    "rectangle_partition_lower_bound_from_rank",
    "truth_matrix_rank",
    "yao_bound",
    "clear_search_cache",
    "communication_complexity",
    "dedupe",
    "deterministic_cc_of_function",
    "optimal_protocol_tree",
    "partition_number",
    "search_cache_stats",
    "aho_ullman_yannakakis_gap",
    "certificate_asymmetry_on_eq",
    "cover_number_exact",
    "cover_number_greedy",
    "minimum_cover",
    "nondeterministic_cc",
    "one_way_cc",
    "one_way_gap_example",
    "one_way_lower_bounds_two_way",
    "one_way_singularity_log2",
    "PartitionSearchResult",
    "best_partition_cc",
    "count_even_partitions",
    "even_partitions",
    "min_partition_singularity",
    "discrepancy_exact",
    "discrepancy_report",
    "discrepancy_spectral_bound",
    "inner_product_matrix",
    "randomized_lower_bound_bits",
    "round_bounded_cc",
    "round_profile",
    "rounds_needed_for_saturation",
    "ErrorEstimate",
    "RandomizedProtocol",
    "amplify_by_majority",
    "estimate_cost",
    "estimate_error",
    "worst_input_error",
]
