"""Tolerance policy: every exponent-form numeric literal in the package is a
named constant in qcore's constants block, so no threshold hides in code."""

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twotime"


def _constants_block_lines():
    # Module-level UPPER_CASE assignments in qcore, up to its first def or class.
    lines = set()
    for node in ast.parse((SRC / "qcore.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            break
        if isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _exponent_literals(path):
    with open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            text = tok.string.lower()
            if tok.type == tokenize.NUMBER and "e" in text and not text.startswith("0x"):
                yield tok.start[0], tok.string


def test_exponent_literals_only_in_qcore_constants_block():
    block = _constants_block_lines()
    assert any(line in block for line, _ in _exponent_literals(SRC / "qcore.py"))
    stray = [
        f"{path.name}:{line}: {literal}"
        for path in sorted(SRC.glob("*.py"))
        for line, literal in _exponent_literals(path)
        if not (path.name == "qcore.py" and line in block)
    ]
    assert stray == []
