"""Declared message plans: the term-level contract between code and costs.

``PROTOCOL_PLANS`` writes down, for every two-party protocol class, the
ordered message terms of one execution: who sends, how many bits, and
how often the term repeats.  Widths are the canonical strings of the
width algebra in :mod:`repro.lint.flow` — integer constants, instance
parameters (``n_bits``, ``codec.rows``, ``len(_agent0_positions)``),
``?`` for an input/wire-dependent quantity — so the COST lint rules can
compare this table *term-for-term* against the skeletons they derive
from the agent source, with no imports in either direction.

The table is a **pure literal**: :mod:`repro.lint.rules.cost` reads it
with ``ast.literal_eval`` (the lint engine never imports checked code),
and the cross-check tests evaluate it numerically against
:func:`repro.costs.models.shape_of`.  Keep it that way — no computed
entries.

Together the three artifacts form the consistency triangle documented in
``docs/static_analysis.md``:

* the **code** (agent programs, via the flow skeletons),
* this **declared plan**,
* the **formulas** (:func:`repro.costs.shape_of`, already validated
  against live channel transcripts by the scenario matrix,
  :mod:`repro.matrix`).
"""

from __future__ import annotations

#: Per-class message plans.  Each entry is a tuple of terms
#: ``{"sender": 0|1, "width": <width expr>, "repeat": <width expr>}``
#: in wire order.  ``repeat`` is ``"1"`` for a straight-line term and a
#: loop bound (e.g. ``"rounds"``) for a term inside a repeated round.
PROTOCOL_PLANS = {
    "DeterministicEquality": (
        {"sender": 0, "width": "n_bits", "repeat": "1"},
        {"sender": 1, "width": "1", "repeat": "1"},
    ),
    "RandomizedEquality": (
        {"sender": 0, "width": "rounds", "repeat": "1"},
        {"sender": 1, "width": "1", "repeat": "1"},
    ),
    "RabinKarpEquality": (
        {"sender": 0, "width": "width", "repeat": "1"},
        {"sender": 1, "width": "1", "repeat": "1"},
    ),
    "TrivialProtocol": (
        {"sender": 0, "width": "len(_agent0_positions)", "repeat": "1"},
        {"sender": 1, "width": "1", "repeat": "1"},
    ),
    "FingerprintProtocol": (
        {"sender": 0, "width": "codec.cols*codec.rows*prime_bits", "repeat": "1"},
        {"sender": 1, "width": "1", "repeat": "1"},
    ),
    "TrivialSolvability": (
        {"sender": 0, "width": "16 + ?*k*n_rows", "repeat": "1"},
        {"sender": 1, "width": "1", "repeat": "1"},
    ),
    "FingerprintSolvability": (
        {"sender": 0, "width": "16 + ?*n_rows*prime_bits", "repeat": "1"},
        {"sender": 1, "width": "1", "repeat": "1"},
    ),
    "DeterministicMatMulVerify": (
        {"sender": 0, "width": "2*k*n*n", "repeat": "1"},
        {"sender": 1, "width": "1", "repeat": "1"},
    ),
    "FreivaldsVerify": (
        {"sender": 1, "width": "n*width", "repeat": "rounds"},
        {"sender": 0, "width": "1", "repeat": "1"},
    ),
    "ColumnBasisProtocol": (
        {"sender": 0, "width": "48 + ?", "repeat": "1"},
        {"sender": 1, "width": "1", "repeat": "1"},
    ),
}


def evaluate_width(expr: str, env: dict) -> int:
    """Evaluate a width expression to an exact bit count.

    ``env`` maps atoms (``"n_bits"``, ``"codec.rows"``, ``"?"``) to
    integers.  Raises ``KeyError`` on a missing atom and ``ValueError``
    on a malformed or ``UNBOUNDED`` expression — a plan term that cannot
    be priced is a bug, never a silent zero.
    """
    total = 0
    for term in str(expr).split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in width expression {expr!r}")
        product = 1
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in width expression {expr!r}")
            if factor == "UNBOUNDED":
                raise ValueError(
                    f"width {expr!r} is unbounded; it cannot be priced"
                )
            if factor.isdigit():
                product *= int(factor)
            else:
                product *= int(env[factor])
        total += product
    return total


def expand_plan(name: str, env: dict) -> tuple[tuple[int, int], ...]:
    """Concrete ``(sender, bits)`` messages of ``PROTOCOL_PLANS[name]``.

    Repeated terms are unrolled (``repeat`` evaluated in the same
    ``env``), so the result is comparable message-for-message with
    :func:`repro.costs.models.shape_of`.
    """
    messages: list[tuple[int, int]] = []
    for term in PROTOCOL_PLANS[name]:
        repeat = evaluate_width(term["repeat"], env)
        bits = evaluate_width(term["width"], env)
        messages.extend((term["sender"], bits) for _ in range(repeat))
    return tuple(messages)
