"""Source check: the LP kernel computes in exact arithmetic only.

`flexdp.lp` packs integers into slots and divides them exactly; a float
anywhere in it could round a slot, a ratio or a certificate without a
trace.  So its source may hold no float constant, no use of the name
`float` and no true division `/` (on ints it returns a float; every
division in the kernel is an exact `//` or a Fraction).
"""
import ast
from pathlib import Path

import flexdp.lp


def inexact(tree: ast.AST):
    """(what, line) of every float constant, use of `float` and true
    division `/` (or `/=`) in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            yield "float constant", node.lineno
        elif isinstance(node, ast.Name) and node.id == "float":
            yield "float", node.lineno
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            yield "/", node.lineno


def test_inexact_finds_constants_float_and_true_division():
    tree = ast.parse(
        "a = 0.5\n"
        "b = float(3)\n"
        "c = 7 / 2\n"
        "c /= 2\n"
        "d = 7 // 2 + 2j.imag\n"
        "e = 1e3 if x else 1\n")
    assert sorted(inexact(tree)) == [
        ("/", 3), ("/", 4), ("float", 2), ("float constant", 1),
        ("float constant", 5), ("float constant", 6)]


def test_lp_source_is_exact():
    path = Path(flexdp.lp.__file__)
    assert list(inexact(ast.parse(path.read_text()))) == []
