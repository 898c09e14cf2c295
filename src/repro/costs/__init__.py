"""``repro.costs`` — the exact symbolic cost calculus.

The paper's headline results are *exact bit counts* — deterministic
Θ(k·n²) against probabilistic O(n² log n) for singularity, rank and
solvability — yet measuring bits is not the same as predicting them.
This package closes that gap: for every implemented protocol it states a
closed-form cost model in the instance parameters (n, k, prime width,
retry budget) and the repository's gates check the model against the live
:class:`~repro.comm.channel.BitChannel` transcript and
:class:`~repro.comm.transport.TransportStats` by **integer equality** —
no tolerances, so any disagreement between formula and wire is a bug, not
noise.

The layers:

* :mod:`repro.costs.models` — :class:`~repro.costs.models.MessageShape`,
  the per-run message plan ``((sender, bits), …)`` from which the total
  cost, the round count, the per-agent bit split and the clean-channel
  ARQ framing/ACK overhead all derive; :func:`~repro.costs.models.shape_of`
  maps every protocol instance to its shape; the paper's lower/upper
  bound formulas evaluated on the same axes.
* :mod:`repro.costs.plan` — the declared per-protocol message plans
  (``PROTOCOL_PLANS``): pure-literal ``(sender, width, repeat)`` terms in
  the width algebra of :mod:`repro.lint.flow`.  The COST lint rules
  compare this table against skeletons derived statically from the agent
  source, and :func:`~repro.costs.plan.expand_plan` evaluates it
  numerically for comparison with ``shape_of`` — the three-way
  code↔plan↔formula gate (docs/static_analysis.md).

``repro.serve`` prices ``protocol.run`` requests with these models
before admitting them (the ``cost.estimate`` method), so an over-budget
request is rejected up front instead of burning its budget to learn the
same answer.  This module sits under the EXA lint rules: integer (or
``Fraction``) arithmetic only.
"""

from repro.costs.models import (
    MessageShape,
    arq_retry_ceiling_bits,
    fraction_matrix_bits,
    leighton_upper_bound_bits,
    scenario_shape,
    shape_of,
    theorem_lower_bound_bits,
    trivial_upper_bound_bits,
    varint_bits,
)
from repro.costs.plan import PROTOCOL_PLANS, evaluate_width, expand_plan

__all__ = [
    "MessageShape",
    "PROTOCOL_PLANS",
    "evaluate_width",
    "expand_plan",
    "arq_retry_ceiling_bits",
    "fraction_matrix_bits",
    "leighton_upper_bound_bits",
    "scenario_shape",
    "shape_of",
    "theorem_lower_bound_bits",
    "trivial_upper_bound_bits",
    "varint_bits",
]
