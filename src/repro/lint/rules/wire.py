"""WIRE — every encoder has a decoder, and both survive corruption tests.

The faulted matrix cells' "no silent corruption" guarantee rests on each
wire format rejecting damaged encodings; a codec with an untested decode
path — or no decode path at all — is exactly where a bit flip turns into
a silently wrong protocol answer.  This family is *cross-file*: it pairs
``encode_X``/``decode_X`` definitions in the wire module and checks both
names are exercised by the configured corruption-test files.

Codes:

* WIRE401 — ``encode_X`` with no matching ``decode_X``.
* WIRE402 — ``decode_X`` with no matching ``encode_X``.
* WIRE403 — a codec pair not exercised (both sides called) by the
  corruption tests.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.rules.base import ProjectContext, register_code

WIRE401 = register_code(
    "WIRE401",
    "encoder without a paired decoder",
    """An encode_X with no decode_X means the receiving agent must
hand-roll parsing — precisely the unaudited path where framing bugs and
silent misparses live.  Every format crosses the channel twice: once in
code, once in review.""",
    "def encode_tag(value): ...  # no decode_tag anywhere",
    "def encode_tag(value): ...\ndef decode_tag(bits, cursor): ...",
)

WIRE402 = register_code(
    "WIRE402",
    "decoder without a paired encoder",
    """A decode_X with no encode_X accepts a format nothing in the repo
produces — either dead code or a parser for hostile input that the
corruption suite cannot reach through the encoder.  Add the encoder or
delete the decoder.""",
    "def decode_legacy_header(bits, cursor): ...",
    "def encode_legacy_header(value): ...\ndef decode_legacy_header(bits, cursor): ...",
)

WIRE403 = register_code(
    "WIRE403",
    "codec pair not exercised by the corruption tests",
    """The fault-injection contract (docs/fault_model.md) is per-format:
a corrupted encoding must raise or decode to a different value.  A codec
absent from the corruption tests carries no such guarantee, so ARQ can
deliver silently wrong payloads through it.  Add flip/truncation
properties for the pair to the wire corruption suite.""",
    "def encode_perm(p): ...\ndef decode_perm(bits, cursor): ...\n# tests never import them",
    "# in tests/protocols/test_wire_corruption.py\n"
    "@given(perms)\ndef test_perm_flip_detected(p):\n"
    "    bits = encode_perm(p)\n    ...flip every position, decode_perm must raise or differ...",
)


def _top_level_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _called_names(tree: ast.Module) -> set[str]:
    """Every identifier that appears called or imported in a test module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.name)
    return names


def check(project: ProjectContext) -> Iterable[Finding]:
    """Pair encoders/decoders in the wire module; demand test coverage."""
    config = project.config
    if config.wire_module is None:
        return []
    wire_path = Path(config.wire_module)
    try:
        tree = ast.parse(wire_path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError) as exc:
        return [
            Finding(
                code=WIRE401, path=str(wire_path), line=1, col=0, symbol="",
                message=f"cannot analyse wire module: {exc}",
            )
        ]
    functions = _top_level_functions(tree)
    encoders = {n[len("encode_"):]: f for n, f in functions.items() if n.startswith("encode_")}
    decoders = {n[len("decode_"):]: f for n, f in functions.items() if n.startswith("decode_")}

    exercised: set[str] = set()
    for test_path in config.wire_test_paths:
        try:
            test_tree = ast.parse(Path(test_path).read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            continue
        exercised |= _called_names(test_tree)

    rel = str(wire_path)
    findings: list[Finding] = []
    for stem, node in sorted(encoders.items()):
        if stem not in decoders:
            findings.append(Finding(
                code=WIRE401, path=rel, line=node.lineno, col=node.col_offset,
                symbol=node.name,
                message=f"encode_{stem} has no decode_{stem} counterpart",
            ))
    for stem, node in sorted(decoders.items()):
        if stem not in encoders:
            findings.append(Finding(
                code=WIRE402, path=rel, line=node.lineno, col=node.col_offset,
                symbol=node.name,
                message=f"decode_{stem} has no encode_{stem} counterpart",
            ))
    if config.wire_test_paths:
        for stem in sorted(set(encoders) & set(decoders)):
            enc, dec = f"encode_{stem}", f"decode_{stem}"
            missing = [n for n in (enc, dec) if n not in exercised]
            if missing:
                node = encoders[stem]
                findings.append(Finding(
                    code=WIRE403, path=rel, line=node.lineno, col=node.col_offset,
                    symbol=node.name,
                    message=(
                        f"codec pair {enc}/{dec} not exercised by the corruption "
                        f"tests (missing: {', '.join(missing)})"
                    ),
                ))
    return findings


CODES = (WIRE401, WIRE402, WIRE403)
