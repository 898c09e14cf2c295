"""The declared plan table priced against the cost formulas.

``PROTOCOL_PLANS`` is the middle vertex of the consistency triangle: the
COST lint rules check it term-for-term against the *code* (the flow
skeletons), and this module checks it bit-for-bit against the *formulas*
(:func:`repro.costs.shape_of`) on seeded instances of every scenario-matrix
catalogue point that runs a library protocol.  With both edges green the declared table is provably in
sync with what the agents do and what the calculus predicts.
"""

import pytest

from repro.costs import PROTOCOL_PLANS, evaluate_width, expand_plan, shape_of
from repro.costs.models import BASIS_HEADER_BITS, fraction_matrix_bits
from repro.matrix.scenarios import catalogue


# ----------------------------------------------------------------------
# Atom resolution: width-algebra atoms -> integers, per concrete case
# ----------------------------------------------------------------------
def _solvability_cols(case):
    # The column count travels in-band, so the plan only knows it as ?.
    return case.input0.num_cols


def _basis_body(case):
    from repro.exact.span import Subspace

    basis = Subspace.column_space(case.input0).basis_matrix()
    body = fraction_matrix_bits(basis, case.input0.num_rows)
    return body - BASIS_HEADER_BITS


#: What ``?`` means, per protocol whose plan contains one.
_UNKNOWN_RESOLVERS = {
    "TrivialSolvability": _solvability_cols,
    "FingerprintSolvability": _solvability_cols,
    "ColumnBasisProtocol": _basis_body,
}


def _resolve_atom(case, atom: str) -> int:
    if atom == "?":
        return _UNKNOWN_RESOLVERS[type(case.protocol).__name__](case)
    if atom.startswith("len(") and atom.endswith(")"):
        return len(getattr(case.protocol, atom[4:-1]))
    value = case.protocol
    for part in atom.split("."):
        value = getattr(value, part)
    return int(value)


def _atom_env(case) -> dict[str, int]:
    """Every atom of the case's plan, resolved on the live instance."""
    env: dict[str, int] = {}
    for term in PROTOCOL_PLANS[type(case.protocol).__name__]:
        for expr in (term["width"], term["repeat"]):
            for factor in expr.replace("+", "*").split("*"):
                atom = factor.strip()
                if atom and not atom.isdigit():
                    env[atom] = _resolve_atom(case, atom)
    return env


def _library_cases():
    """The full catalogue's library-protocol cases (the protocols born in
    :mod:`repro.matrix.protocols` carry their own ``shape()``, no plan)."""
    cases = [
        builder(1000 + i, **params)
        for i, (builder, params) in enumerate(catalogue(quick=False))
    ]
    return [c for c in cases if not hasattr(c.protocol, "shape")]


# ----------------------------------------------------------------------
# The plan <-> formula edge of the triangle
# ----------------------------------------------------------------------
class TestPlanMatchesShapeOf:
    def test_quick_sweep_covers_every_declared_plan(self):
        names = {type(case.protocol).__name__ for case in _library_cases()}
        assert names == set(PROTOCOL_PLANS)

    def test_expanded_plans_equal_shape_of_message_for_message(self):
        for case in _library_cases():
            name = type(case.protocol).__name__
            expanded = expand_plan(name, _atom_env(case))
            shape = shape_of(case.protocol, case.input0)
            assert expanded == shape.shape, (name, expanded, shape.shape)

    def test_plan_totals_match_shape_totals(self):
        for case in _library_cases():
            name = type(case.protocol).__name__
            expanded = expand_plan(name, _atom_env(case))
            shape = shape_of(case.protocol, case.input0)
            assert sum(bits for _, bits in expanded) == shape.total_bits, name


# ----------------------------------------------------------------------
# evaluate_width semantics
# ----------------------------------------------------------------------
class TestEvaluateWidth:
    def test_sums_of_products(self):
        env = {"k": 3, "n_rows": 4, "?": 5}
        assert evaluate_width("16 + ?*k*n_rows", env) == 16 + 5 * 3 * 4
        assert evaluate_width("1", {}) == 1
        assert evaluate_width("codec.rows", {"codec.rows": 7}) == 7

    def test_missing_atom_raises_key_error(self):
        with pytest.raises(KeyError):
            evaluate_width("n_bits", {})

    def test_unbounded_cannot_be_priced(self):
        with pytest.raises(ValueError, match="unbounded"):
            evaluate_width("UNBOUNDED", {"UNBOUNDED": 1})

    def test_malformed_expression_raises(self):
        with pytest.raises(ValueError):
            evaluate_width("n_bits + ", {"n_bits": 4})
        with pytest.raises(ValueError):
            evaluate_width("2 * * k", {"k": 3})

    def test_repeat_unrolls_terms(self):
        env = {"n": 2, "width": 3, "rounds": 2}
        assert expand_plan("FreivaldsVerify", env) == (
            (1, 6),
            (1, 6),
            (0, 1),
        )
