"""The flexdp names the benchmark reads still exist.

`perfbench/tracer.py` wraps flexdp's layer entry points by name and
`perfbench/workloads.py` calls the library through its modules, so a rename
in flexdp would only show as a crash in a timed or traced bench run.  Both
files are parsed here, not imported: every attribute they read off a flexdp
module, off a name imported from one, or off a local bound to such an
attribute, and every name a `(owner, "name", ...)` patch tuple gives, must
resolve.  Attributes of instances (`enum.g`, `report.rows`) are out of reach
of the parse.
"""
import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dotted(node: ast.expr, aliases: dict[str, str]):
    """The flexdp dotted name a Name/Attribute chain reads, or None."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return f"{base}.{node.attr}" if base else None
    return None


def flexdp_reads(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "flexdp":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    reads = set(aliases.values())
    changed = True
    while changed:      # locals bound to a flexdp attribute, `cls = covers.X`
        changed = False
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name, value = node.targets[0].id, _dotted(node.value, aliases)
                if value and aliases.get(name) != value:
                    aliases[name] = value
                    changed = True
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node, aliases)
            if dotted:
                reads.add(dotted)
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            owner, attr = node.elts[:2]
            base = _dotted(owner, aliases)
            if base and isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                reads.add(f"{base}.{attr.value}")
    return reads


def resolve(dotted: str):
    """The object a dotted name stands for: its longest importable module
    prefix, then getattr for the rest (AttributeError when one is gone)."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(dotted)


@pytest.mark.parametrize("name, expected", [
    ("tracer.py", {"flexdp.flexibility.enumerate_colorings", "flexdp.flexibility.solve",
                   "flexdp.flexibility.epsilon_star", "flexdp.search.epsilon_star",
                   "flexdp.search.enumerate_connected_multigraphs",
                   "flexdp.search.canonical_code", "flexdp.search.mad",
                   "flexdp.search.find_I_subgraph", "flexdp.covers.CoverEnumeration.at",
                   "flexdp.covers.CoverEnumeration.__init__",
                   "flexdp.lp.verify_certificate", "flexdp.lp.LpInternalError"}),
    ("workloads.py", {"flexdp.search.theorem_check", "flexdp.flexibility.epsilon_star",
                      "flexdp.covers.tight_cover", "flexdp.covers.CoverEnumeration",
                      "flexdp.search.enumerate_connected_multigraphs",
                      "flexdp.graphs.gen_family", "flexdp.graphs.Multigraph"}),
], ids=["tracer", "workloads"])
def test_every_flexdp_name_the_bench_reads_exists(name, expected):
    reads = flexdp_reads(BENCH / name)
    assert expected <= reads        # the parse finds the names it must
    missing = []
    for dotted in sorted(reads):
        try:
            resolve(dotted)
        except (AttributeError, ImportError):
            missing.append(dotted)
    assert missing == []


def test_a_renamed_name_is_caught():
    assert resolve("flexdp.covers.CoverEnumeration.at")
    with pytest.raises(AttributeError):
        resolve("flexdp.covers.CoverEnumeration.cover_at")
    with pytest.raises(AttributeError):
        resolve("flexdp.flexibility.no_such_name")
