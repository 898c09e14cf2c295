"""Executable upper-bound protocols, measured on a bit-counting channel.

Every cost cited in the paper's introduction exists here as running code:

* :class:`TrivialProtocol` — deterministic O(k n²) for any matrix predicate
  (the upper bound that Theorem 1.1's Ω(k n²) meets);
* :class:`FingerprintProtocol` — Leighton's randomized
  O(n² max(log n, log k)) singularity protocol, with its one-sided-error
  analysis;
* :class:`DeterministicEquality` / :class:`RandomizedEquality` /
  :class:`RabinKarpEquality` — the identity problem (Vuillemin's baseline);
* :class:`DeterministicMatMulVerify` / :class:`FreivaldsVerify` — "is
  A·B = C?" (Lin–Wu's problem);
* :class:`ColumnBasisProtocol` — an honest compression attempt for rank
  that still costs Θ(k n²) in the worst case;
* :class:`TrivialSolvability` / :class:`FingerprintSolvability` —
  Corollary 1.3's decision problem.
"""

from repro.protocols.trivial import TrivialProtocol, theoretical_trivial_cost
from repro.protocols.fingerprint import (
    FingerprintProtocol,
    default_prime_bits,
    error_upper_bound,
    repetitions_for_error,
)
from repro.protocols.equality import (
    DeterministicEquality,
    RabinKarpEquality,
    RandomizedEquality,
    equality_reference,
)
from repro.protocols.matmul_verify import (
    DeterministicMatMulVerify,
    FreivaldsVerify,
    matmul_reference,
)
from repro.protocols.rank_protocol import ColumnBasisProtocol
from repro.protocols.solvability import (
    FingerprintSolvability,
    TrivialSolvability,
    join_system,
    split_system,
)
from repro.protocols.wire import (
    decode_fraction,
    decode_fraction_matrix,
    decode_varint,
    encode_fraction,
    encode_fraction_matrix,
    encode_varint,
)

__all__ = [
    "TrivialProtocol",
    "theoretical_trivial_cost",
    "FingerprintProtocol",
    "default_prime_bits",
    "error_upper_bound",
    "repetitions_for_error",
    "DeterministicEquality",
    "RabinKarpEquality",
    "RandomizedEquality",
    "equality_reference",
    "DeterministicMatMulVerify",
    "FreivaldsVerify",
    "matmul_reference",
    "ColumnBasisProtocol",
    "FingerprintSolvability",
    "TrivialSolvability",
    "join_system",
    "split_system",
    "decode_fraction",
    "decode_fraction_matrix",
    "decode_varint",
    "encode_fraction",
    "encode_fraction_matrix",
    "encode_varint",
]
