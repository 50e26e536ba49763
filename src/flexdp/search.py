"""Quantification over covers and graphs: worst cover, desk-scale theorem
check, criticality, and the potential gap audit.

Graph isomorphism is handled by brute-force canonical codes (minimum
multiplicity vector over all vertex permutations), which is plenty at the
desk cap of five vertices.  Parallel runs split the cover-class index
range into chunks; chunks carry only immutable tuples and return their
values in index order, and one merge keeps the first index attaining the
minimum, so output is identical for any job count.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice, permutations, product
from typing import Iterator, Optional, Sequence

from .covers import Cover, CoverEnumeration, serialize_cover, trivial_list_distribution
from .flexibility import epsilon_star, framework_feasible
from .graphs import Multigraph, PotentialAssignment, find_I_subgraph, mad, potential
from .rationals import rat_str

Q = Fraction

DESK_CAP = 5
DEFAULT_BUDGET = 10 ** 6
CHUNK = 32

I_SEMANTICS_NOTE = ("inflexible-family detection matches the alternating "
                    "doubled-edge cycle with >= required multiplicity on "
                    "every edge; extra parallel edges do not block a match")


class BudgetExceeded(RuntimeError):
    pass


def cover_hash(cover: Cover) -> str:
    return hashlib.sha256(serialize_cover(cover).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Canonical codes and graph enumeration
# ---------------------------------------------------------------------------

def canonical_code(g: Multigraph) -> str:
    """Minimum multiplicity vector over all vertex relabelings."""
    pairs = list(combinations(range(g.n), 2))
    best: Optional[tuple[int, ...]] = None
    for perm in permutations(range(g.n)):
        vec = tuple(g.multiplicity(perm[u], perm[v]) for u, v in pairs)
        if best is None or vec < best:
            best = vec
    body = ",".join(map(str, best or ()))
    return f"{g.n}:{body}"


def _graph_from_code_vector(n: int, vec: Sequence[int]) -> Multigraph:
    pairs = list(combinations(range(n), 2))
    return Multigraph(n, [(u, v, m) for (u, v), m in zip(pairs, vec) if m > 0])


def enumerate_connected_multigraphs(max_vertices: int,
                                    max_multiplicity: int) -> Iterator[Multigraph]:
    """Connected multigraphs up to isomorphism, smallest vertex count first."""
    for n in range(1, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        seen: set[str] = set()
        for vec in product(range(max_multiplicity + 1), repeat=len(pairs)):
            g = _graph_from_code_vector(n, vec)
            if not g.is_connected():
                continue
            code = canonical_code(g)
            if code in seen:
                continue
            seen.add(code)
            yield g


# ---------------------------------------------------------------------------
# Worst cover for one graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorstCoverReport:
    epsilon_min: Fraction
    witness_cover: Cover
    complete: bool
    classes_total: int
    classes_evaluated: int
    per_class_values: Optional[tuple[tuple[Cover, Fraction], ...]] = None


def _eps_chunk(task: tuple) -> list[Fraction]:
    """Worker: epsilon* of cover classes [lo, hi) of one graph, in index order."""
    n, edges, lo, hi = task
    g = Multigraph(n, edges)
    enum = CoverEnumeration(g)
    return [epsilon_star(g, enum.at(i)).epsilon_star for i in range(lo, hi)]


def _class_minima(graphs: Sequence[tuple[Multigraph, int]], jobs: int,
                  keep: bool) -> list[tuple[Fraction, int, Optional[list[Fraction]]]]:
    """Minimum epsilon* over the first `evaluated` cover classes of each graph.

    Returns, per (graph, evaluated) pair, the minimum, the first index that
    attains it, and with `keep` every value in index order.  The index
    ranges are cut into chunks that run in a process pool when jobs > 1;
    chunk results are merged in task order, so the output does not depend
    on the job count.
    """
    if any(evaluated < 1 for _, evaluated in graphs):
        raise ValueError("budget must be at least 1")
    tasks = [(g.n, g.edge_items(), lo, min(lo + CHUNK, evaluated))
             for g, evaluated in graphs for lo in range(0, evaluated, CHUNK)]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_eps_chunk, tasks))
    else:
        chunks = map(_eps_chunk, tasks)
    stream = chain.from_iterable(chunks)
    minima = []
    for _, evaluated in graphs:
        values = list(islice(stream, evaluated))
        best = min(values)
        minima.append((best, values.index(best), values if keep else None))
    return minima


def min_epsilon_over_covers(g: Multigraph, budget: int = DEFAULT_BUDGET,
                            jobs: int = 1,
                            per_class: bool = False) -> WorstCoverReport:
    """Exact minimum of epsilon* over the enumerated cover classes.

    The witness is the first class attaining the minimum in enumeration
    order.  When the class count exceeds the budget only the first `budget`
    classes are evaluated and the report is flagged incomplete; a budget
    below 1 is rejected.
    """
    enum = CoverEnumeration(g)
    evaluated = min(enum.count, budget)
    [(best, best_index, values)] = _class_minima([(g, evaluated)], jobs, per_class)
    per_class_values = None if values is None else \
        tuple((enum.at(i), eps) for i, eps in enumerate(values))
    return WorstCoverReport(best, enum.at(best_index), evaluated == enum.count,
                            enum.count, evaluated, per_class_values)


# ---------------------------------------------------------------------------
# Desk-scale theorem check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphRow:
    code: str
    vertex_count: int
    mad: Fraction
    i_subgraph: Optional[int]       # smallest m of a matched family member
    epsilon_min: Fraction
    witness_hash: str
    classes: int
    status: str                     # ok | exception | counterexample | skipped


@dataclass(frozen=True)
class TheoremReport:
    max_vertices: int
    max_multiplicity: int
    rows: tuple[GraphRow, ...]
    note: str = I_SEMANTICS_NOTE

    @property
    def counterexamples(self) -> tuple[GraphRow, ...]:
        return tuple(r for r in self.rows if r.status == "counterexample")

    @property
    def skipped(self) -> tuple[GraphRow, ...]:
        return tuple(r for r in self.rows if r.status == "skipped")

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.rows:
            counts[r.status] = counts.get(r.status, 0) + 1
        counts["graphs"] = len(self.rows)
        return counts

    def to_tsv(self) -> str:
        lines = ["code\tmad\ti_family\tepsilon_min\twitness_cover\tstatus"]
        for r in self.rows:
            flag = f"I{r.i_subgraph}" if r.i_subgraph is not None else "-"
            lines.append("\t".join([r.code, rat_str(r.mad), flag,
                                    rat_str(r.epsilon_min), r.witness_hash,
                                    r.status]))
        return "\n".join(lines) + "\n"


def theorem_check(max_vertices: int, max_multiplicity: int, jobs: int = 1,
                  budget: int = DEFAULT_BUDGET,
                  desk_cap: int = DESK_CAP) -> TheoremReport:
    """Check every small sparse multigraph against the 1/5 threshold.

    Enumerates connected multigraphs up to isomorphism, keeps those with
    mad < 3, and asserts min-over-covers epsilon* >= 1/5 except for graphs
    containing a member of the inflexible family, which are only flagged.
    Graphs whose cover count exceeds the budget are reported as skipped,
    never silently passed.
    """
    if max_vertices > desk_cap:
        raise ValueError(f"max_vertices {max_vertices} above desk cap {desk_cap}")
    if max_multiplicity > 2:
        raise ValueError("max_multiplicity above 2 is outside the check's scope")
    kept: list[tuple[str, Multigraph, Fraction]] = []
    for g in enumerate_connected_multigraphs(max_vertices, max_multiplicity):
        density = mad(g)
        if density < 3:
            kept.append((canonical_code(g), g, density))
    kept.sort(key=lambda item: (item[1].n, item[0]))

    enums = [CoverEnumeration(g) for _, g, _ in kept]
    minima = _class_minima([(g, min(enum.count, budget))
                            for (_, g, _), enum in zip(kept, enums)], jobs, False)
    rows = []
    for (code, g, density), enum, (best, best_index, _) in zip(kept, enums, minima):
        found = find_I_subgraph(g)
        if budget < enum.count:
            status = "skipped"
        elif found is not None:
            status = "exception"
        elif best >= Q(1, 5):
            status = "ok"
        else:
            status = "counterexample"
        rows.append(GraphRow(code, g.n, density,
                             found[0] if found is not None else None,
                             best, cover_hash(enum.at(best_index)),
                             enum.count, status))
    return TheoremReport(max_vertices, max_multiplicity, tuple(rows))


# ---------------------------------------------------------------------------
# Criticality
# ---------------------------------------------------------------------------

def is_flexible(g: Multigraph, pa: PotentialAssignment, eps: Fraction,
                budget: int = DEFAULT_BUDGET) -> bool:
    """Whether every cover class admits an eps-distribution (empty lists).

    Only defined when no vertex has rho = 3: the empty list distribution is
    not an h-list distribution otherwise.  Disconnected graphs are handled
    component by component.
    """
    if pa.pi(3):
        raise ValueError("flexibility with the empty list distribution "
                         "requires rho values in {4,6}")
    if g.n == 0:
        return True
    for comp in g.components():
        sub = g.induced(comp)
        sub_pa = pa.restrict(comp)
        enum = CoverEnumeration(sub)
        if enum.count > budget:
            raise BudgetExceeded(
                f"component with {enum.count} cover classes exceeds {budget}")
        dist = trivial_list_distribution(sub.n)
        if not all(framework_feasible(sub, sub_pa, enum.at(i), dist, eps)
                   is not None for i in range(enum.count)):
            return False
    return True


def criticality_check(g: Multigraph, pa: PotentialAssignment, eps: Fraction,
                      budget: int = DEFAULT_BUDGET) -> str:
    """Verdict: flexible, critical, or non-minimal at the given eps.

    Critical means the graph itself fails while every single-edge-deleted
    and single-vertex-deleted subgraph passes.
    """
    eps = Q(eps)
    if is_flexible(g, pa, eps, budget):
        return "flexible"
    for u, v in g.pairs():
        if not is_flexible(g.delete_one_edge(u, v), pa, eps, budget):
            return "non-minimal"
    for v in range(g.n):
        keep = [w for w in range(g.n) if w != v]
        if not is_flexible(g.delete_vertex(v), pa.restrict(keep), eps, budget):
            return "non-minimal"
    return "critical"


# ---------------------------------------------------------------------------
# Potential gap audit
# ---------------------------------------------------------------------------

def gap_audit(g: Multigraph, pa: PotentialAssignment,
              cap: int = 20) -> list[tuple[int, ...]]:
    """All nonempty S with potential(S) <= |E(S, complement)|, by size.

    An empty result certifies the gap property potential(S) >= 1 + boundary
    for every nonempty subset; in particular every vertex then satisfies
    d(v) <= rho(v) - 1.
    """
    if g.n > cap:
        raise ValueError(f"gap audit capped at {cap} vertices, got {g.n}")
    violations = []
    for mask in range(1, 1 << g.n):
        subset = tuple(v for v in range(g.n) if mask >> v & 1)
        if potential(g, pa, subset) <= g.boundary(subset):
            violations.append(subset)
    violations.sort(key=lambda s: (len(s), s))
    return violations
