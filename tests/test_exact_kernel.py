"""Source check: flexdp computes in exact arithmetic only.

No module of the package may hold a float constant or use the name
`float`: a float anywhere could round a value, a witness or a certificate
without a trace.  `flexdp.lp` packs integers into slots and divides them
exactly, so its source may also hold no true division `/` (on ints it
returns a float; every division in the kernel is an exact `//` or a
Fraction).  Elsewhere `/` divides Fractions.
"""
import ast
from pathlib import Path

import pytest

import flexdp
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


MODULES = sorted(Path(flexdp.__file__).parent.glob("*.py"))


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {"lp", "search", "flexibility"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_source_holds_no_float(path):
    assert [(what, line) for what, line in inexact(ast.parse(path.read_text()))
            if what != "/"] == []
