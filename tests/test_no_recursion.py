"""Source check: no function in flexdp calls itself.

Python's recursion limit turns a deep search into an error on large inputs,
so every search in the package runs on an explicit stack or queue.
"""
import ast
from pathlib import Path

import flexdp

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_calls(tree: ast.AST):
    """(name, line) of every call a function, nested ones included, makes to
    its own name, or a method makes to `self.<its name>`."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, FUNCTIONS)}
    for f in ast.walk(tree):
        if not isinstance(f, FUNCTIONS):
            continue
        for call in ast.walk(f):
            if not isinstance(call, ast.Call):
                continue
            fn = call.func
            if (isinstance(fn, ast.Name) and fn.id == f.name
                    or id(f) in methods and isinstance(fn, ast.Attribute)
                    and fn.attr == f.name and isinstance(fn.value, ast.Name)
                    and fn.value.id == "self"):
                yield f.name, call.lineno


def test_self_calls_finds_direct_nested_and_method_recursion():
    tree = ast.parse(
        "def walk(x):\n    return walk(x - 1)\n"
        "def outer():\n    def inner(y):\n        return inner(y)\n    return inner\n"
        "class C:\n    def go(self):\n        return self.go()\n"
        "    def stop(self):\n        return self.go()\n")
    assert sorted(self_calls(tree)) == [("go", 9), ("inner", 5), ("walk", 2)]


def test_no_function_calls_itself():
    package = Path(flexdp.__file__).resolve().parent
    found = [f"{path.name}:{line} {name}"
             for path in sorted(package.glob("*.py"))
             for name, line in self_calls(ast.parse(path.read_text()))]
    assert found == []
