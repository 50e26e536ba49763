"""The benchmark's workloads: inputs, the question each one asks, and its gate.

Every workload is a serial question put to flexdp's public API.  The names
the program is called through are looked up on their modules at call time
(`search.theorem_check`, `flexibility.epsilon_star`, ...), so the traced run
can wrap them.  Gates compare only invariants that the optimisations queued
in ROADMAP must preserve, and they are written without the library's own
coloring code, so a wrong answer cannot confirm itself.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from flexdp import covers, flexibility, search
from flexdp.covers import Cover
from flexdp.graphs import Multigraph, gen_family

Q = Fraction
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a gate: operations attempted, operations failed, first problems."""

    attempted: int
    failed: int
    problems: tuple[str, ...] = ()


@cache
def load_reference(name: str) -> Any:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Independent checks shared by the gates
# ---------------------------------------------------------------------------

def proper_colorings(g: Multigraph, cover: Cover) -> list[tuple[int, ...]]:
    """Every coloring of the cover, by backtracking in vertex-index order."""
    earlier: list[list[tuple[int, tuple]]] = [[] for _ in range(g.n)]
    for (u, v), perms in cover.matchings.items():
        earlier[v].append((u, perms))
    found: list[tuple[int, ...]] = []
    chosen = [0] * g.n

    def place(v: int) -> None:
        if v == g.n:
            found.append(tuple(chosen))
            return
        for c in range(3):
            if all(p[chosen[u]] != c for u, perms in earlier[v] for p in perms):
                chosen[v] = c
                place(v + 1)

    place(0)
    return found


def is_proper(cover: Cover, phi: tuple[int, ...]) -> bool:
    return all(p[phi[u]] != phi[v]
               for (u, v), perms in cover.matchings.items() for p in perms)


def _marginals(n: int, dist) -> dict[tuple[int, int], Fraction]:
    out = {(v, c): Q(0) for v in range(n) for c in range(3)}
    for phi, w in dist:
        for v, c in enumerate(phi):
            out[(v, c)] += w
    return out


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def theorem_rows(report) -> list[dict[str, str]]:
    """The invariant columns of a theorem_check report, one dict per row."""
    return [{"code": r.code, "mad": str(r.mad),
             "i_family": "-" if r.i_subgraph is None else f"I{r.i_subgraph}",
             "epsilon_min": str(r.epsilon_min), "status": r.status}
            for r in report.rows]


def check_theorem(rows: list[dict[str, str]], reference: list[dict[str, str]]) -> Verdict:
    """Each reference row must come back with equal invariants; nothing extra.

    Witness hashes and class counts are not compared: orbit enumeration may
    change them.  A skipped or counterexample row always fails.
    """
    problems = []
    by_code = {r["code"]: r for r in rows}
    failed = 0
    for ref in reference:
        got = by_code.get(ref["code"])
        if got != ref:
            failed += 1
            problems.append(f"row {ref['code']}: expected {ref}, got {got}")
        elif got["status"] in ("skipped", "counterexample"):
            failed += 1
            problems.append(f"row {ref['code']}: status {got['status']}")
    expected = {r["code"] for r in reference}
    extra = [r for r in rows if r["code"] not in expected]
    dup = len(rows) - len(by_code)
    failed += len(extra) + dup
    problems += [f"unexpected row {r}" for r in extra]
    if dup:
        problems.append(f"{dup} duplicate rows")
    return Verdict(max(len(reference), len(rows)), failed, tuple(problems[:5]))


def check_flex(g: Multigraph, cover: Cover, report, expected: Fraction) -> Verdict:
    """epsilon* must equal `expected`, certified by both reported certificates.

    The worst request must be a probability vector on the listed colors whose
    largest weight collected by any coloring (found by an exact scan) equals
    epsilon*; the distribution must be a probability vector on colorings that
    gives every listed color at least epsilon*.
    """
    problems = []
    eps = report.epsilon_star
    if eps != expected:
        problems.append(f"epsilon* {eps} != {expected}")
    request = report.worst_request
    pairs = {(v, c) for v in range(g.n) for c in range(3)}
    if set(request) != pairs:
        problems.append("worst_request keys are not the listed colors")
    elif any(w < 0 for w in request.values()) or sum(request.values(), Q(0)) != 1:
        problems.append("worst_request is not a probability vector")
    else:
        colorings = proper_colorings(g, cover)
        best = max((sum((request[(v, c)] for v, c in enumerate(phi)), Q(0))
                    for phi in colorings), default=None)
        if best != eps:
            problems.append(f"max collected weight {best} != epsilon* {eps}")
    dist = report.distribution
    if (any(w <= 0 for _, w in dist) or sum((w for _, w in dist), Q(0)) != 1
            or not all(is_proper(cover, phi) for phi, _ in dist)):
        problems.append("distribution is not a probability vector on colorings")
    elif min(_marginals(g.n, dist).values()) < eps:
        problems.append("some listed color has marginal below epsilon*")
    return Verdict(1, 1 if problems else 0, tuple(problems[:5]))


def check_graphs(kept: list[dict[str, Any]], reference: list[dict[str, str]]) -> Verdict:
    """The kept graphs must be exactly the stored codes with their mad and I-flag."""
    got = {(k["code"], k["mad"], k["i_family"]) for k in kept}
    want = {(r["code"], r["mad"], r["i_family"]) for r in reference}
    missing, extra = want - got, got - want
    failed = len(missing) + len(extra) + (len(kept) - len(got))
    problems = [f"missing {m}" for m in sorted(missing)]
    problems += [f"unexpected {e}" for e in sorted(extra)]
    return Verdict(max(len(want), len(kept)), failed, tuple(problems[:5]))


def instance_text(g: Multigraph, cover: Cover) -> str:
    edges = ",".join(f"{u}-{v}x{m}" for u, v, m in g.edge_items())
    matchings = ",".join(f"{u}-{v}:" + "/".join("".join(map(str, p)) for p in perms)
                         for (u, v), perms in cover.matchings.items())
    return f"{g.n}|{edges}|{matchings}"


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Any]          # seed -> inputs
    answer: Callable[[Any], Any]         # inputs -> output (the timed part)
    check: Callable[[Any, Any], Verdict]
    digest: Callable[[Any], str]
    operations: Callable[[Any], int]     # operations one question attempts


def _theorem(max_vertices: int, max_mult: int) -> Workload:
    name = f"theorem_{max_vertices}{max_mult}"
    return Workload(
        name,
        build=lambda seed: None,
        answer=lambda _: theorem_rows(search.theorem_check(max_vertices, max_mult)),
        check=lambda _, rows: check_theorem(rows, load_reference(name)),
        digest=lambda _: _digest(f"theorem_check({max_vertices},{max_mult})"),
        operations=lambda _: len(load_reference(name)))


def _jm(name: str, m: int) -> Workload:
    def build(seed: int):
        g = gen_family("jm", m)[0]
        return g, covers.tight_cover("jm", g)

    return Workload(
        name,
        build=build,
        answer=lambda inp: flexibility.epsilon_star(*inp),
        check=lambda inp, report: check_flex(inp[0], inp[1], report, Q(1, 5)),
        digest=lambda inp: _digest(instance_text(*inp)),
        operations=lambda inp: 1)


def graphs_question(max_vertices: int, max_mult: int) -> list[dict[str, Any]]:
    """The pre-LP half of theorem_check: enumerate, filter, code, flag, count."""
    kept = []
    for g in search.enumerate_connected_multigraphs(max_vertices, max_mult):
        density = search.mad(g)
        if density < 3:
            found = search.find_I_subgraph(g)
            kept.append({"code": search.canonical_code(g), "mad": str(density),
                         "i_family": "-" if found is None else f"I{found[0]}",
                         "classes": covers.CoverEnumeration(g).count})
    return kept


def _graphs(max_vertices: int, max_mult: int) -> Workload:
    name = f"graphs_{max_vertices}{max_mult}"
    return Workload(
        name,
        build=lambda seed: None,
        answer=lambda _: graphs_question(max_vertices, max_mult),
        check=lambda _, kept: check_graphs(kept, load_reference(name)),
        digest=lambda _: _digest(f"graphs({max_vertices},{max_mult})"),
        operations=lambda _: len(load_reference(name)))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    _theorem(4, 2), _jm("jm_tight", 5), _graphs(5, 1))}

# Tiny versions of the same questions, for the smoke check.
SMOKE: dict[str, Workload] = {w.name: w for w in (
    _theorem(3, 1), _jm("jm_tight_1", 1), _graphs(3, 2))}
