"""Protocol-flow analysis: static message skeletons from agent source.

The paper's objects are *message sequences* — who speaks when, and how
many bits each turn costs.  This module recovers that sequence from the
agent programs **statically**: a small intraprocedural dataflow engine
over the stdlib :mod:`ast` (never importing the checked code, the same
contract as :mod:`repro.lint.engine`) extracts each agent's **protocol
skeleton** — the ordered ``Send``/``Recv`` operations with symbolically
resolved widths plus loop/branch structure.

Width expressions form a tiny polynomial language over *atoms*:

* integer constants — ``Recv(48)`` → ``48``;
* instance parameters — ``self.n_bits`` → ``n_bits``, chains keep their
  dots (``codec.rows``), ``len(self._agent0_positions)`` becomes the atom
  ``len(_agent0_positions)``;
* ``?`` — a quantity that depends on input values (payload sizes built
  from matrix entries) or on received bits (an in-band length header);
* ``UNBOUNDED`` — the repeat count of a ``while`` loop whose bound is
  data-dependent; extraction degrades to this term instead of failing.

Polynomials render canonically (``16 + ?*k*n_rows``, ``2*k*n*n``) so the
same string can be written down in a *declared plan*
(:mod:`repro.costs.plan`) and compared term-for-term — see
:mod:`repro.lint.rules.cost`.  Width *kinds* label provenance:
``const``/``param`` are statically known, ``input``/``wire`` carry a
``?``, ``unbounded`` carries ``UNBOUNDED``.

Resolution rules (deliberately small, each one earned by a real
protocol): ``Send(value, w)`` costs ``w``, its second argument, and
``Recv(n)`` costs ``n`` and binds one packed int of wire data (so a
width read from it, like an in-band length header, is ``?``);
single-assignment local dataflow; list-literal/``list()``/comprehension
lengths, so a codec-built payload sent as ``Send(bits_to_int(p),
len(p))`` costs the length of ``p``; ``range(e)`` has length ``e``; one
level of ``self._helper()`` return-value resolution; ``int_to_bits(v,
w)`` has length ``w``; ``random_prime_with_bits(_, b)`` yields a value
whose ``.bit_length()`` is exactly ``b`` (primes are drawn with their
top bit set); and accumulator loops (``payload.extend(...)`` in a
channel-free loop) multiply the per-iteration delta by the loop bound.
Everything else degrades to ``?`` — soundly imprecise, never wrong.

On top of the per-agent skeletons, :func:`normalize`/:func:`dualize`/
:func:`compare_dual` implement the session-duality check (SES rules) and
:func:`merged_plan` derives the message plan the COST rules compare with
the declared table.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro import obs

#: Atom spelling for a value the analysis cannot pin statically.
UNKNOWN_ATOM = "?"
#: Atom spelling for a data-dependent ``while`` repeat count.
UNBOUNDED_ATOM = "UNBOUNDED"

#: Effect constructors recognized in ``yield`` expressions.
_SEND_NAMES = {"Send"}
_RECV_NAMES = {"Recv"}
_DRAIN_NAMES = {"Drain"}


# ----------------------------------------------------------------------
# The width polynomial: dict of (sorted atom tuple) -> int coefficient.
# ----------------------------------------------------------------------
def _poly_const(value: int) -> dict:
    return {(): value} if value else {}


def _poly_atom(atom: str) -> dict:
    return {(atom,): 1}


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, 0) + coeff
        if not out[mono]:
            del out[mono]
    return _poly_collapse(out)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return _poly_collapse(out)


def _poly_collapse(poly: dict) -> dict:
    """Canonicalize: a bare ``?`` monomial never carries a coefficient
    (``? + ?`` is still just "something unknown", not "twice it")."""
    out = dict(poly)
    if out.get((UNKNOWN_ATOM,), 0):
        out[(UNKNOWN_ATOM,)] = 1
    return out


def _poly_unknowns(poly: dict) -> int:
    """Occurrences of ``?``/``UNBOUNDED`` atoms across all monomials."""
    return sum(
        mono.count(UNKNOWN_ATOM) + mono.count(UNBOUNDED_ATOM) for mono in poly
    )


def _poly_resolved(poly: dict) -> bool:
    return _poly_unknowns(poly) == 0


def render_poly(poly: dict) -> str:
    """Canonical rendering: constant first, then monomials sorted."""
    if not poly:
        return "0"

    def mono_key(mono):
        return (len(mono), mono)

    parts = []
    for mono in sorted(poly, key=mono_key):
        coeff = poly[mono]
        if not mono:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append("*".join(mono))
        else:
            parts.append("*".join((str(coeff),) + mono))
    return " + ".join(parts)


_ATOM_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.()?")


def parse_width(expr: str) -> dict:
    """Parse a rendered width expression back into a polynomial.

    Accepts sums of products of integer constants and atoms (``?``,
    ``UNBOUNDED``, dotted names, ``len(name)``); raises ``ValueError`` on
    anything else, so a typo in a declared plan fails loudly.
    """
    poly: dict = {}
    for term in str(expr).split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in width expression {expr!r}")
        coeff = 1
        atoms: list[str] = []
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor or not set(factor) <= _ATOM_CHARS:
                raise ValueError(f"bad factor {factor!r} in width {expr!r}")
            if factor.isdigit():
                coeff *= int(factor)
            else:
                atoms.append(factor)
        poly = _poly_add(poly, {tuple(sorted(atoms)): coeff})
    return poly


# ----------------------------------------------------------------------
# Widths: a canonical polynomial plus a provenance kind.
# ----------------------------------------------------------------------
_TAINT_RANK = {"": 0, "input": 1, "wire": 2}


def _merge_taint(a: str, b: str) -> str:
    return a if _TAINT_RANK[a] >= _TAINT_RANK[b] else b


@dataclass(frozen=True)
class Width:
    """A statically-derived bit width (or repeat count).

    ``expr`` is the canonical rendering; ``kind`` is one of ``const``,
    ``param``, ``input``, ``wire``, ``unbounded``.
    """

    expr: str
    kind: str

    @property
    def resolved(self) -> bool:
        """True when the width is a closed form over instance parameters."""
        return self.kind in ("const", "param")


def _width_of(poly: dict, taint: str) -> Width:
    if any(UNBOUNDED_ATOM in mono for mono in poly):
        kind = "unbounded"
    elif not _poly_resolved(poly):
        kind = "wire" if taint == "wire" else "input"
    elif any(poly):
        kind = "param" if any(mono for mono in poly) else "const"
        kind = "param" if any(m for m in poly if m) else "const"
    else:
        kind = "const"
    return Width(expr=render_poly(poly), kind=kind)


def _better_poly(a: dict, b: dict) -> dict:
    """The more informative of two polynomials describing the same bits.

    Fewer unknown occurrences wins; then more structure (monomials,
    atoms).  Ties keep ``b`` — callers pass the receiver side second, and
    a receiver that decodes an in-band header knows the shape best.
    """

    def key(p):
        return (
            _poly_unknowns(p),
            -len(p),
            -sum(len(m) for m in p),
        )

    return a if key(a) < key(b) else b


# ----------------------------------------------------------------------
# Skeleton nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChanOp:
    """One channel effect: ``kind`` is ``"send"`` or ``"recv"``."""

    kind: str
    width: Width
    line: int


@dataclass(frozen=True)
class LoopOp:
    """A loop whose body speaks on the channel, repeated ``bound`` times."""

    bound: Width
    body: tuple
    line: int


@dataclass(frozen=True)
class Skeleton:
    """Extraction result for one agent program."""

    ok: bool
    ops: tuple = ()
    reason: str = ""
    #: name of the helper the agent body dispatches to (``return
    #: self._program(...)``), empty when the body is inline.
    dispatch: str = ""

    @property
    def has_ops(self) -> bool:
        return bool(self.ops)


class _Unsupported(Exception):
    """Raised internally when a construct defeats static extraction."""

    def __init__(self, reason: str, node: ast.AST | None = None):
        super().__init__(reason)
        self.reason = reason
        self.line = getattr(node, "lineno", 0)


# ----------------------------------------------------------------------
# Abstract values for the local dataflow
# ----------------------------------------------------------------------
# Tagged tuples:
#   ("int",   poly, taint)  numeric value
#   ("list",  poly, taint)  sequence; poly is its *length*
#   ("prime", poly, taint)  value of random_prime_with_bits; poly is its
#                           exact bit length
#   ("opaque", taint)       anything else
def _opaque(taint: str = "") -> tuple:
    return ("opaque", taint)


def _val_taint(val: tuple) -> str:
    return val[-1]


def _unknown_poly() -> dict:
    return _poly_atom(UNKNOWN_ATOM)


def _effect_name(call: ast.expr) -> str | None:
    """``Send``/``Recv``/``Drain`` for a recognized effect constructor."""
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    if name in _SEND_NAMES | _RECV_NAMES | _DRAIN_NAMES:
        return name
    return None


def _self_chain(node: ast.expr) -> str | None:
    """``"n_bits"`` / ``"codec.rows"`` for a ``self.``-rooted read chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return ".".join(reversed(parts))
    return None


def _module_int_constants(tree: ast.Module) -> dict[str, int]:
    out: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)
            ):
                out[target.id] = value.value
    return out


_MAX_HELPER_DEPTH = 2


class _ProgramExtractor:
    """Walk one agent program, producing skeleton ops and tracking locals."""

    def __init__(
        self,
        tree: ast.Module,
        class_node: ast.ClassDef | None,
        func: ast.FunctionDef,
        bound_args: dict[str, tuple] | None = None,
        depth: int = 0,
    ):
        self.tree = tree
        self.class_node = class_node
        self.func = func
        self.depth = depth
        self.globals = _module_int_constants(tree)
        self.env: dict[str, tuple] = {}
        params = [a.arg for a in func.args.args if a.arg != "self"]
        for name in params:
            taint = "" if name == "coins" else "input"
            self.env[name] = _opaque(taint)
        if bound_args:
            self.env.update(bound_args)

    # -- expression evaluation -----------------------------------------
    def eval(self, node: ast.expr) -> tuple:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return ("int", _poly_const(int(node.value)), "")
            if isinstance(node.value, int):
                return ("int", _poly_const(node.value), "")
            return _opaque()
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.globals:
                return ("int", _poly_const(self.globals[node.id]), "")
            return _opaque()
        if isinstance(node, ast.Attribute):
            chain = _self_chain(node)
            if chain is not None:
                return ("int", _poly_atom(chain), "")
            base = self.eval(node.value)
            return _opaque(_val_taint(base))
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.List, ast.Tuple)):
            if any(isinstance(e, ast.Starred) for e in node.elts):
                taint = self._merge_arg_taints(node.elts)
                return ("list", _unknown_poly(), taint)
            taint = self._merge_arg_taints(node.elts)
            return ("list", _poly_const(len(node.elts)), taint)
        if isinstance(node, ast.ListComp):
            return self._eval_comp(node)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            if isinstance(node.slice, ast.Slice):
                return ("list", _unknown_poly(), _val_taint(base))
            return _opaque(_val_taint(base))
        if isinstance(node, (ast.Compare, ast.BoolOp, ast.UnaryOp, ast.IfExp)):
            taints = [
                _val_taint(self.eval(sub))
                for sub in ast.iter_child_nodes(node)
                if isinstance(sub, ast.expr)
            ]
            taint = ""
            for t in taints:
                taint = _merge_taint(taint, t)
            return _opaque(taint)
        return _opaque()

    def _merge_arg_taints(self, exprs) -> str:
        taint = ""
        for e in exprs:
            if isinstance(e, ast.expr):
                taint = _merge_taint(taint, _val_taint(self.eval(e)))
        return taint

    def _eval_binop(self, node: ast.BinOp) -> tuple:
        left, right = self.eval(node.left), self.eval(node.right)
        taint = _merge_taint(_val_taint(left), _val_taint(right))
        if isinstance(node.op, ast.Add):
            if left[0] == "list" and right[0] == "list":
                return ("list", _poly_add(left[1], right[1]), taint)
            if left[0] == "int" and right[0] == "int":
                return ("int", _poly_add(left[1], right[1]), taint)
            if left[0] == "list" or right[0] == "list":
                lp = left[1] if left[0] == "list" else _unknown_poly()
                rp = right[1] if right[0] == "list" else _unknown_poly()
                return ("list", _poly_add(lp, rp), taint)
            return ("int", _unknown_poly(), taint)
        if isinstance(node.op, ast.Mult):
            if left[0] == "int" and right[0] == "int":
                return ("int", _poly_mul(left[1], right[1]), taint)
            # [0] * n — sequence repetition scales the length.
            for seq, num in ((left, right), (right, left)):
                if seq[0] == "list" and num[0] == "int":
                    return ("list", _poly_mul(seq[1], num[1]), taint)
            return ("int", _unknown_poly(), taint)
        if isinstance(node.op, ast.Sub):
            if left[0] == "int" and right[0] == "int":
                negated = {m: -c for m, c in right[1].items()}
                return ("int", _poly_add(left[1], negated), taint)
            return ("int", _unknown_poly(), taint)
        return ("int", _unknown_poly(), taint)

    def _eval_call(self, node: ast.Call) -> tuple:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        args = node.args
        arg_taint = self._merge_arg_taints(args)

        if name == "len" and len(args) == 1:
            return self._length_as_int(self.eval(args[0]), args[0])
        if name in ("list", "tuple", "sorted", "reversed") and len(args) == 1:
            inner = self.eval(args[0])
            if inner[0] == "list":
                return inner
            return ("list", _unknown_poly(), _val_taint(inner))
        if name == "range" and args:
            if len(args) == 1:
                bound = self.eval(args[0])
            elif len(args) == 2:
                bound = self._eval_binop_like(args[1], args[0])
            else:
                bound = ("int", _unknown_poly(), arg_taint)
            poly = bound[1] if bound[0] == "int" else _unknown_poly()
            return ("list", poly, _val_taint(bound))
        if name == "int_to_bits" and len(args) >= 2:
            width = self.eval(args[1])
            poly = width[1] if width[0] == "int" else _unknown_poly()
            return ("list", poly, _merge_taint(arg_taint, _val_taint(width)))
        if name == "bits_to_int":
            return ("int", _unknown_poly(), _merge_taint("wire", arg_taint))
        if name == "random_prime_with_bits" and len(args) >= 2:
            bits = self.eval(args[1])
            poly = bits[1] if bits[0] == "int" else _unknown_poly()
            return ("prime", poly, _val_taint(bits))
        if name == "bit_length" and isinstance(func, ast.Attribute) and not args:
            target = self.eval(func.value)
            if target[0] == "prime":
                return ("int", target[1], _val_taint(target))
            return ("int", _unknown_poly(), _val_taint(target))
        if name and name.startswith("encode_"):
            return ("list", _unknown_poly(), _merge_taint("input", arg_taint))
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return self._resolve_helper_call(name, args, arg_taint)
        return _opaque(arg_taint)

    def _eval_binop_like(self, stop: ast.expr, start: ast.expr) -> tuple:
        fake = ast.BinOp(left=stop, op=ast.Sub(), right=start)
        return self._eval_binop(fake)

    def _length_as_int(self, val: tuple, origin: ast.expr) -> tuple:
        if val[0] == "list":
            return ("int", val[1], _val_taint(val))
        chain = _self_chain(origin)
        if chain is not None:
            return ("int", _poly_atom(f"len({chain})"), "")
        return ("int", _unknown_poly(), _val_taint(val))

    def _eval_comp(self, node: ast.ListComp) -> tuple:
        if len(node.generators) == 1 and not node.generators[0].ifs:
            source = self.eval(node.generators[0].iter)
            if source[0] == "list":
                return ("list", source[1], _val_taint(source))
            return ("list", _unknown_poly(), _val_taint(source))
        return ("list", _unknown_poly(), self._merge_arg_taints(
            [g.iter for g in node.generators]
        ))

    # -- helper-method resolution ---------------------------------------
    def _find_method(self, name: str) -> ast.FunctionDef | None:
        if self.class_node is None or not name:
            return None
        for stmt in self.class_node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                return stmt
        return None

    def _resolve_helper_call(self, name, args, arg_taint: str) -> tuple:
        method = self._find_method(name)
        if method is None or self.depth + 1 >= _MAX_HELPER_DEPTH:
            return _opaque(arg_taint)
        if any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(method)):
            return _opaque(arg_taint)  # a program helper, not a value helper
        bound: dict[str, tuple] = {}
        params = [a.arg for a in method.args.args if a.arg != "self"]
        for param, arg in zip(params, args):
            bound[param] = self.eval(arg)
        sub = _ProgramExtractor(
            self.tree, self.class_node, method, bound_args=bound,
            depth=self.depth + 1,
        )
        try:
            return sub.eval_return_value()
        except _Unsupported:
            return _opaque(arg_taint)

    def eval_return_value(self) -> tuple:
        """Interpret a value helper's body; the value of its ``return``."""
        result: tuple | None = None
        for stmt in self._body_stmts(self.func.body):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if result is not None:
                    return _opaque("")  # multiple returns: give up
                result = self.eval(stmt.value)
            else:
                self._exec_value_stmt(stmt)
        return result if result is not None else _opaque("")

    def _exec_value_stmt(self, stmt: ast.stmt) -> None:
        """Statement effects inside a value helper (no channel ops)."""
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._exec_assign(stmt)
        elif isinstance(stmt, ast.For):
            self._apply_loop_deltas(stmt)
        elif isinstance(stmt, (ast.If, ast.While, ast.Try, ast.With)):
            self._invalidate_assigned(stmt)
        elif isinstance(stmt, ast.Expr):
            self._exec_expr_stmt(stmt)

    # -- statement interpretation ---------------------------------------
    @staticmethod
    def _body_stmts(stmts):
        """The statements minus a leading docstring."""
        out = list(stmts)
        if (
            out
            and isinstance(out[0], ast.Expr)
            and isinstance(out[0].value, ast.Constant)
            and isinstance(out[0].value.value, str)
        ):
            out = out[1:]
        return out

    def extract(self) -> list:
        """The skeleton ops of the program body."""
        return self._exec_block(self._body_stmts(self.func.body))

    def _exec_block(self, stmts) -> list:
        ops: list = []
        for stmt in stmts:
            ops.extend(self._exec_stmt(stmt))
        return ops

    def _exec_stmt(self, stmt: ast.stmt) -> list:
        if isinstance(stmt, ast.Expr):
            return self._exec_expr_stmt(stmt)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._exec_assign(stmt)
        if isinstance(stmt, ast.For):
            return self._exec_for(stmt)
        if isinstance(stmt, ast.While):
            return self._exec_while(stmt)
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt)
        if isinstance(stmt, (ast.Return, ast.Pass, ast.Assert, ast.Raise)):
            return []
        if isinstance(stmt, (ast.Try, ast.With)):
            if self._contains_op(stmt):
                raise _Unsupported(
                    f"channel operation inside {type(stmt).__name__.lower()}",
                    stmt,
                )
            self._invalidate_assigned(stmt)
            return []
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return []
        if self._contains_op(stmt):
            raise _Unsupported(
                f"channel operation inside {type(stmt).__name__.lower()}", stmt
            )
        return []

    def _exec_expr_stmt(self, stmt: ast.Expr) -> list:
        value = stmt.value
        if isinstance(value, ast.Yield):
            return self._exec_yield(value, target=None)
        if isinstance(value, ast.YieldFrom):
            raise _Unsupported("yield from defeats skeleton extraction", stmt)
        if isinstance(value, ast.Call):
            func = value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("append", "extend")
                and isinstance(func.value, ast.Name)
            ):
                self._apply_accumulate(func.value.id, func.attr, value.args)
        return []

    def _apply_accumulate(self, name: str, how: str, args) -> None:
        acc = self.env.get(name)
        if acc is None or acc[0] != "list":
            return
        if how == "append":
            delta, taint = _poly_const(1), ""
        else:
            val = self.eval(args[0]) if args else _opaque()
            delta = val[1] if val[0] == "list" else _unknown_poly()
            taint = _val_taint(val)
        self.env[name] = (
            "list", _poly_add(acc[1], delta), _merge_taint(acc[2], taint)
        )

    def _exec_yield(self, node: ast.Yield, target) -> list:
        call = node.value
        effect = _effect_name(call) if call is not None else None
        if effect is None:
            raise _Unsupported("yield of an unrecognized effect", node)
        if effect in _DRAIN_NAMES:
            obs.counter("lint.flow.drain_ops").inc()
            return []
        # Send(value, width) carries its width second; Recv(n) first.
        kind, default_taint, arg = (
            ("send", "input", 1) if effect in _SEND_NAMES else ("recv", "wire", 0)
        )
        nbits = self.eval(call.args[arg]) if len(call.args) > arg else ("int", {}, "")
        poly = nbits[1] if nbits[0] == "int" else _unknown_poly()
        width = _width_of(poly, _merge_taint(default_taint, _val_taint(nbits))
                          if not _poly_resolved(poly) else _val_taint(nbits))
        if kind == "recv" and target is not None:
            self._bind_recv_target(target)
        return [ChanOp(kind, width, node.lineno)]

    def _bind_recv_target(self, target: ast.expr) -> None:
        """A received payload is one packed int whose value is wire data."""
        if isinstance(target, ast.Name):
            self.env[target.id] = ("int", _unknown_poly(), "wire")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.env[elt.id] = _opaque("wire")

    def _exec_assign(self, stmt) -> list:
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                # x += e: treat like rebinding to an unknown of merged taint
                old = self.env.get(stmt.target.id, _opaque())
                val = self.eval(stmt.value)
                if old[0] == "list" and isinstance(stmt.op, ast.Add):
                    delta = val[1] if val[0] == "list" else _unknown_poly()
                    self.env[stmt.target.id] = (
                        "list",
                        _poly_add(old[1], delta),
                        _merge_taint(_val_taint(old), _val_taint(val)),
                    )
                else:
                    self.env[stmt.target.id] = _opaque(
                        _merge_taint(_val_taint(old), _val_taint(val))
                    )
            return []
        value = stmt.value
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        if value is None:
            return []
        if isinstance(value, ast.Yield):
            ops = self._exec_yield(value, target=targets[0])
            return ops
        if isinstance(value, ast.YieldFrom):
            raise _Unsupported("yield from defeats skeleton extraction", stmt)
        val = self.eval(value)
        for target in targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = val
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self.env[elt.id] = _opaque(_val_taint(val))
            # attribute/subscript stores don't disturb tracked lengths
        return []

    # -- loops ----------------------------------------------------------
    def _contains_op(self, node: ast.AST) -> bool:
        return any(
            isinstance(n, (ast.Yield, ast.YieldFrom))
            for n in ast.walk(node)
        )

    def _bind_loop_target(self, target: ast.expr, taint: str) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = _opaque(taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_loop_target(elt, taint)

    def _exec_for(self, stmt: ast.For) -> list:
        source = self.eval(stmt.iter)
        taint = _val_taint(source)
        self._bind_loop_target(stmt.target, taint)
        if not self._contains_op(stmt):
            self._apply_loop_deltas(stmt)
            return []
        if stmt.orelse and any(self._contains_op(s) for s in stmt.orelse):
            raise _Unsupported("channel operation in for-else", stmt)
        poly = source[1] if source[0] == "list" else _unknown_poly()
        bound = _width_of(
            poly,
            taint if _poly_resolved(poly) else _merge_taint("input", taint),
        )
        body = self._exec_block(stmt.body)
        if not body:
            return []
        return [LoopOp(bound, tuple(body), stmt.lineno)]

    def _exec_while(self, stmt: ast.While) -> list:
        if not self._contains_op(stmt):
            self._invalidate_assigned(stmt)
            return []
        bound = Width(expr=UNBOUNDED_ATOM, kind="unbounded")
        obs.counter("lint.flow.unbounded_loops").inc()
        body = self._exec_block(stmt.body)
        if stmt.orelse and any(self._contains_op(s) for s in stmt.orelse):
            raise _Unsupported("channel operation in while-else", stmt)
        if not body:
            return []
        return [LoopOp(bound, tuple(body), stmt.lineno)]

    def _exec_if(self, stmt: ast.If) -> list:
        if not self._contains_op(stmt):
            self._invalidate_assigned(stmt)
            return []
        saved = dict(self.env)
        then_ops = self._exec_block(stmt.body)
        then_env = self.env
        self.env = dict(saved)
        else_ops = self._exec_block(stmt.orelse)
        else_env = self.env
        unified = _unify_branches(then_ops, else_ops, stmt)
        merged: dict[str, tuple] = {}
        for key in set(then_env) | set(else_env):
            a, b = then_env.get(key), else_env.get(key)
            if a == b and a is not None:
                merged[key] = a
            else:
                taint = _merge_taint(
                    _val_taint(a) if a else "", _val_taint(b) if b else ""
                )
                merged[key] = _opaque(taint)
        self.env = merged
        return unified

    def _invalidate_assigned(self, node: ast.AST) -> None:
        """Conservatively forget names mutated inside an opaque block."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                taint = _val_taint(self.env.get(sub.id, _opaque()))
                self.env[sub.id] = _opaque(taint)
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("append", "extend")
                and isinstance(sub.func.value, ast.Name)
            ):
                name = sub.func.value.id
                acc = self.env.get(name)
                if acc is not None and acc[0] == "list":
                    self.env[name] = ("list", _unknown_poly(), acc[2])

    def _apply_loop_deltas(self, stmt: ast.For) -> None:
        """Accumulator effects of a channel-free for loop."""
        source = self.eval(stmt.iter)
        bound = source[1] if source[0] == "list" else _unknown_poly()
        bound_taint = _val_taint(source)
        deltas = self._collect_deltas(stmt.body)
        for name, delta in deltas.items():
            acc = self.env.get(name)
            if acc is None or acc[0] != "list":
                continue
            if delta is None:
                self.env[name] = ("list", _unknown_poly(), acc[2])
            else:
                per_iter, taint = delta
                total = _poly_mul(bound, per_iter)
                self.env[name] = (
                    "list",
                    _poly_add(acc[1], total),
                    _merge_taint(acc[2], _merge_taint(bound_taint, taint)),
                )
        # Plain names rebound inside the loop end up data-dependent.
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Store)
                and sub.id not in deltas
            ):
                taint = _val_taint(self.env.get(sub.id, _opaque()))
                self.env[sub.id] = _opaque(taint)

    def _collect_deltas(self, stmts) -> dict:
        """name -> (per-iteration length poly, taint) or None (unresolved)."""
        deltas: dict = {}

        def add(name, poly, taint):
            if deltas.get(name, ((), "")) is None:
                return
            old_poly, old_taint = deltas.get(name, ({}, ""))
            if old_poly == ():
                old_poly = {}
            deltas[name] = (
                _poly_add(old_poly, poly), _merge_taint(old_taint, taint)
            )

        for stmt in stmts:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                func = stmt.value.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("append", "extend")
                    and isinstance(func.value, ast.Name)
                ):
                    name = func.value.id
                    if func.attr == "append":
                        add(name, _poly_const(1), "")
                    else:
                        val = (
                            self.eval(stmt.value.args[0])
                            if stmt.value.args else _opaque()
                        )
                        poly = val[1] if val[0] == "list" else _unknown_poly()
                        add(name, poly, _val_taint(val))
            elif isinstance(stmt, ast.For):
                self._bind_loop_target(stmt.target, _val_taint(self.eval(stmt.iter)))
                inner = self._collect_deltas(stmt.body)
                source = self.eval(stmt.iter)
                bound = source[1] if source[0] == "list" else _unknown_poly()
                for name, delta in inner.items():
                    if delta is None:
                        deltas[name] = None
                    else:
                        poly, taint = delta
                        add(name, _poly_mul(bound, poly),
                            _merge_taint(taint, _val_taint(source)))
            elif isinstance(stmt, (ast.If, ast.While, ast.Try, ast.With)):
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in ("append", "extend")
                        and isinstance(sub.func.value, ast.Name)
                    ):
                        deltas[sub.func.value.id] = None
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._exec_assign(stmt)
        return deltas


def _unify_widths(a: Width, b: Width) -> Width:
    if a == b:
        return a
    kind = "wire" if "wire" in (a.kind, b.kind) else "input"
    return Width(expr=UNKNOWN_ATOM, kind=kind)


def _unify_branches(then_ops: list, else_ops: list, node: ast.AST) -> list:
    """Unify the skeletons of two ``if`` arms; both must speak alike.

    Equal widths/bounds are kept; differing ones degrade to ``?``.  A
    *structural* difference (op kinds, counts, loop placement) means the
    message sequence depends on a branch the peer cannot observe — that
    defeats static extraction and is reported as such.
    """
    if len(then_ops) != len(else_ops):
        raise _Unsupported("branch-dependent message structure", node)
    unified: list = []
    for a, b in zip(then_ops, else_ops):
        if isinstance(a, ChanOp) and isinstance(b, ChanOp) and a.kind == b.kind:
            unified.append(ChanOp(a.kind, _unify_widths(a.width, b.width), a.line))
        elif isinstance(a, LoopOp) and isinstance(b, LoopOp):
            unified.append(LoopOp(
                _unify_widths(a.bound, b.bound),
                tuple(_unify_branches(list(a.body), list(b.body), node)),
                a.line,
            ))
        else:
            raise _Unsupported("branch-dependent message structure", node)
    return unified


# ----------------------------------------------------------------------
# Per-agent extraction entry points
# ----------------------------------------------------------------------
def _dispatch_call(func: ast.FunctionDef) -> ast.Call | None:
    """``return self._helper(...)`` as the whole body, or None."""
    body = _ProgramExtractor._body_stmts(func.body)
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return None
    value = body[0].value
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and isinstance(value.func.value, ast.Name)
        and value.func.value.id == "self"
    ):
        return value
    return None


def extract_program(
    tree: ast.Module, class_node: ast.ClassDef | None, func: ast.FunctionDef
) -> Skeleton:
    """The protocol skeleton of one agent program.

    Handles helper-method dispatch (``return self._program(...)``) by
    extracting the helper with the call arguments bound.  Failure modes
    degrade to ``Skeleton(ok=False, reason=...)`` — never an exception.
    """
    has_yield = any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(func)
    )
    dispatch = ""
    target = func
    bound_args: dict[str, tuple] = {}
    if not has_yield:
        call = _dispatch_call(func)
        if call is not None and class_node is not None:
            name = call.func.attr  # type: ignore[union-attr]
            method = next(
                (
                    s for s in class_node.body
                    if isinstance(s, ast.FunctionDef) and s.name == name
                ),
                None,
            )
            if method is not None and any(
                isinstance(n, (ast.Yield, ast.YieldFrom))
                for n in ast.walk(method)
            ):
                dispatch = name
                caller = _ProgramExtractor(tree, class_node, func)
                params = [a.arg for a in method.args.args if a.arg != "self"]
                for param, arg in zip(params, call.args):
                    bound_args[param] = caller.eval(arg)
                target = method
        if not dispatch:
            return Skeleton(ok=True, ops=())  # no channel ops at all
    extractor = _ProgramExtractor(
        tree, class_node, target, bound_args=bound_args or None
    )
    try:
        ops = extractor.extract()
    except _Unsupported as exc:
        obs.counter("lint.flow.unsupported").inc()
        return Skeleton(ok=False, reason=exc.reason, dispatch=dispatch)
    except RecursionError:  # pragma: no cover — pathological nesting
        return Skeleton(ok=False, reason="program too deeply nested",
                        dispatch=dispatch)
    obs.counter("lint.flow.skeletons").inc()
    return Skeleton(ok=True, ops=tuple(ops), dispatch=dispatch)


@dataclass
class AgentPair:
    """A class with one program per party, plus their skeletons."""

    class_node: ast.ClassDef
    name: str
    func0: ast.FunctionDef
    func1: ast.FunctionDef
    skeleton0: Skeleton = field(default=None)  # type: ignore[assignment]
    skeleton1: Skeleton = field(default=None)  # type: ignore[assignment]

    @property
    def shared_program(self) -> str:
        """The common helper name when both agents dispatch to it."""
        if (
            self.skeleton0 is not None
            and self.skeleton0.dispatch
            and self.skeleton0.dispatch == self.skeleton1.dispatch
        ):
            return self.skeleton0.dispatch
        return ""

    @property
    def has_ops(self) -> bool:
        return bool(
            (self.skeleton0 and self.skeleton0.ops)
            or (self.skeleton1 and self.skeleton1.ops)
        )


def _pick_agent(methods: list[ast.FunctionDef], registry, party: int):
    exact = [
        m for m in methods
        if m.name in (registry.party0_names, registry.party1_names)[party]
    ]
    if len(exact) == 1:
        return exact[0]
    classified = [m for m in methods if registry.classify(m.name) == party]
    if len(classified) == 1:
        return classified[0]
    return None


def extract_pairs(tree: ast.Module, registry) -> list[AgentPair]:
    """Every class in ``tree`` defining one program per party, extracted."""
    pairs: list[AgentPair] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [s for s in node.body if isinstance(s, ast.FunctionDef)]
        func0 = _pick_agent(methods, registry, 0)
        func1 = _pick_agent(methods, registry, 1)
        if func0 is None or func1 is None:
            continue
        pair = AgentPair(class_node=node, name=node.name, func0=func0, func1=func1)
        pair.skeleton0 = extract_program(tree, node, func0)
        pair.skeleton1 = extract_program(tree, node, func1)
        pairs.append(pair)
    return pairs


# ----------------------------------------------------------------------
# Normalization, duality, comparison, plan derivation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Segment:
    """A maximal run of same-direction channel ops."""

    direction: str  # "send" | "recv"
    ops: tuple
    line: int

    @property
    def total(self) -> dict:
        poly: dict = {}
        for op in self.ops:
            poly = _poly_add(poly, parse_width(op.width.expr))
        return poly


@dataclass(frozen=True)
class LoopItem:
    bound: Width
    body: tuple
    line: int


def normalize(ops) -> tuple:
    """Collapse an op sequence into alternating segments and loops."""
    items: list = []
    for op in ops:
        if isinstance(op, LoopOp):
            items.append(LoopItem(op.bound, normalize(op.body), op.line))
        elif items and isinstance(items[-1], Segment) and items[-1].direction == op.kind:
            last = items[-1]
            items[-1] = Segment(last.direction, last.ops + (op,), last.line)
        else:
            items.append(Segment(op.kind, (op,), op.line))
    return tuple(items)


def dualize(items) -> tuple:
    """Swap send↔recv throughout — agent 1's view of agent 0's wire."""
    out: list = []
    for item in items:
        if isinstance(item, LoopItem):
            out.append(LoopItem(item.bound, dualize(item.body), item.line))
        else:
            flipped = "recv" if item.direction == "send" else "send"
            out.append(Segment(flipped, item.ops, item.line))
    return tuple(out)


@dataclass(frozen=True)
class DualityProblem:
    """One reason two skeletons fail to be dual."""

    kind: str  # "structure" | "width" | "bound"
    message: str
    line0: int
    line1: int


def compare_dual(items0, items1_dual) -> list[DualityProblem]:
    """Problems preventing ``items0`` ≡ dual(``items1``); empty when dual.

    Segment totals are compared (a receiver may split one message into
    several ``Recv`` calls); widths and loop bounds are only *required*
    to agree when both sides resolve to closed forms.
    """
    problems: list[DualityProblem] = []
    if len(items0) != len(items1_dual):
        line0 = items0[-1].line if items0 else 0
        line1 = items1_dual[-1].line if items1_dual else 0
        problems.append(DualityProblem(
            "structure",
            f"agent0 has {len(items0)} turn(s)/loop(s), agent1 expects "
            f"{len(items1_dual)} — unmatched channel operations",
            line0, line1,
        ))
        return problems
    for a, b in zip(items0, items1_dual):
        if isinstance(a, Segment) != isinstance(b, Segment):
            problems.append(DualityProblem(
                "structure",
                "loop on one side faces a straight-line turn on the other",
                a.line, b.line,
            ))
            continue
        if isinstance(a, Segment):
            if a.direction != b.direction:
                problems.append(DualityProblem(
                    "structure",
                    "turn order mismatch: agent0 "
                    f"{'sends' if a.direction == 'send' else 'receives'} while "
                    f"agent1 {'sends' if b.direction == 'recv' else 'receives'}"
                    " — both parties would wait (or both speak) here",
                    a.line, b.line,
                ))
                continue
            ta, tb = a.total, b.total
            if _poly_resolved(ta) and _poly_resolved(tb) and ta != tb:
                problems.append(DualityProblem(
                    "width",
                    f"width mismatch on a {a.direction} turn: agent0 side "
                    f"totals {render_poly(ta)} bit(s), agent1 side "
                    f"{render_poly(tb)}",
                    a.line, b.line,
                ))
        else:
            pa, pb = parse_width(a.bound.expr), parse_width(b.bound.expr)
            if _poly_resolved(pa) and _poly_resolved(pb) and pa != pb:
                problems.append(DualityProblem(
                    "bound",
                    f"loop bounds diverge: agent0 repeats {a.bound.expr}, "
                    f"agent1 repeats {b.bound.expr}",
                    a.line, b.line,
                ))
            problems.extend(compare_dual(a.body, b.body))
    return problems


@dataclass(frozen=True)
class PlanTerm:
    """One derived message term: ``sender`` ships ``width`` × ``repeat``."""

    sender: int
    width: Width
    repeat: Width

    def render(self) -> str:
        if self.repeat.expr == "1":
            return f"agent{self.sender}: {self.width.expr}"
        return f"agent{self.sender}: {self.width.expr} × {self.repeat.expr}"


def _merge_width(sender_poly: dict, receiver_poly: dict) -> Width:
    poly = _better_poly(sender_poly, receiver_poly)
    taint = "wire" if not _poly_resolved(poly) else ""
    return _width_of(poly, taint)


def merged_plan(items0, items1_dual, repeat: Width | None = None) -> list[PlanTerm]:
    """The message plan both skeletons agree on (call after compare_dual).

    Per segment the more informative side wins: a receiver that decodes
    an in-band header usually pins the width the sender only knows
    dynamically.  Requires the structures to already align.
    """
    unit = Width(expr="1", kind="const")
    repeat = repeat or unit
    terms: list[PlanTerm] = []
    for a, b in zip(items0, items1_dual):
        if isinstance(a, LoopItem):
            pa, pb = parse_width(a.bound.expr), parse_width(b.bound.expr)
            bound = _merge_width(pa, pb)
            inner = (
                bound if repeat.expr == "1"
                else _width_of(
                    _poly_mul(parse_width(repeat.expr), parse_width(bound.expr)),
                    "",
                )
            )
            terms.extend(merged_plan(a.body, b.body, repeat=inner))
            continue
        sender = 0 if a.direction == "send" else 1
        sender_ops = a.ops if sender == 0 else b.ops
        receiver_ops = b.ops if sender == 0 else a.ops
        recv_total: dict = {}
        for op in receiver_ops:
            recv_total = _poly_add(recv_total, parse_width(op.width.expr))
        if len(sender_ops) == 1:
            widths = [_merge_width(parse_width(sender_ops[0].width.expr), recv_total)]
        elif len(sender_ops) == len(receiver_ops):
            widths = [
                _merge_width(
                    parse_width(s.width.expr), parse_width(r.width.expr)
                )
                for s, r in zip(sender_ops, receiver_ops)
            ]
        else:
            widths = [
                _width_of(parse_width(op.width.expr), "") for op in sender_ops
            ]
        terms.extend(PlanTerm(sender, w, repeat) for w in widths)
    return terms
