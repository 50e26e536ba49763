"""Quantification over covers and graphs: worst cover, desk-scale theorem
check, criticality, and the potential gap audit.

Graphs are enumerated up to isomorphism by orderly generation (Read 1978):
multiplicity vectors are scanned in lexicographic order, and only those that
no vertex relabeling makes smaller are kept.  The relabelings of each vertex
count are built once, as itemgetters over the pair indices, and serve both
that scan and `canonical_code`.

The worst-cover search evaluates one cover per orbit under per-vertex list
relabeling and graph automorphisms (`CoverEnumeration.representatives`),
since epsilon* with full lists is invariant under both; each orbit is
represented by its smallest index, so the first index attaining the minimum
is always evaluated.  Before any LP, a representative's uniform floor
(`uniform_floor`, an exact lower bound on epsilon*) settles it when the
floor is 1/3 or 0, which is then epsilon*, or, when only the minimum is
wanted, when the floor is at least the minimum already found in its chunk;
every other representative gets an epsilon* LP, built from the colorings
its floor enumerated (`flexibility._floor_and_query`).  Parallel runs split
the representatives into chunks; chunks carry only immutable tuples and return
their values in order, and one merge keeps the first index attaining the
minimum.  Chunks depend only on the graph, so output and LP count are
identical for any job count.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, islice, permutations, product
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .covers import Cover, CoverEnumeration, serialize_cover, trivial_list_distribution
# `epsilon_star` is not called here; it stays a name of this module because
# perfbench's tracer wraps `search.epsilon_star`.
from .flexibility import _floor_and_query, epsilon_star, framework_feasible
from .graphs import Multigraph, PotentialAssignment, find_I_subgraph, mad, potential
from .rationals import rat_str

Q = Fraction

DESK_CAP = {0: 7, 1: 7, 2: 5}  # most vertices per max multiplicity
GAP_AUDIT_CAP = 20  # the audit visits all 2^n - 1 subsets
DEFAULT_BUDGET = 10 ** 6
CHUNK = 32
THIRD = Q(1, 3)     # the largest epsilon* there is

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

@cache
def _relabelings(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[itemgetter, ...]]:
    """K_n's vertex pairs, and one itemgetter per way a vertex relabeling
    can move them: applied to a multiplicity vector over the pairs, it
    returns the relabeled graph's vector.

    Below 3 vertices no relabeling moves a pair, so there are no getters;
    that also keeps out `itemgetter` of one index, which returns a scalar.
    """
    pairs = tuple(combinations(range(n), 2))
    index = {pair: i for i, (u, v) in enumerate(pairs) for pair in ((u, v), (v, u))}
    identity = tuple(range(len(pairs)))
    images = dict.fromkeys(tuple(index[p[u], p[v]] for u, v in pairs)
                           for p in permutations(range(n)))
    return pairs, tuple(itemgetter(*image) for image in images
                        if image != identity)


def _code(n: int, vec: Sequence[int]) -> str:
    return f"{n}:{','.join(map(str, vec))}"


def _own_vector(g: Multigraph) -> tuple[int, ...]:
    return tuple(g.multiplicity(u, v) for u, v in _relabelings(g.n)[0])


def canonical_code(g: Multigraph) -> str:
    """Minimum multiplicity vector over all vertex relabelings.

    The relabelings of each vertex count are built on first use and kept
    for the life of the process: n! of them, meant for desk-scale n."""
    vec = _own_vector(g)
    return _code(g.n, min([vec] + [m(vec) for m in _relabelings(g.n)[1]]))


def enumerate_connected_multigraphs(max_vertices: int,
                                    max_multiplicity: int) -> Iterator[Multigraph]:
    """Connected multigraphs up to isomorphism, in (vertex count, code) order:
    each class once, as the graph whose own multiplicity vector is its code."""
    for n in range(1, max_vertices + 1):
        pairs, maps = _relabelings(n)
        for vec in product(range(max_multiplicity + 1), repeat=len(pairs)):
            if all(m(vec) >= vec for m in maps):
                g = Multigraph(n, [(u, v, k) for (u, v), k in zip(pairs, vec) if k])
                if g.is_connected():
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
    orbits: int                     # orbits among them
    queries: int                    # epsilon* queries made for the orbits
    per_class_values: Optional[tuple[tuple[Cover, Fraction], ...]] = None


def _eps_chunk(task: tuple) -> tuple[list[Optional[Fraction]], int]:
    """Worker: epsilon* of the given cover classes of one graph, in order,
    and the number of epsilon* queries made.

    A class whose uniform floor is 1/3 or 0 takes that value without a
    query: epsilon* lies between the floor and 1/3, and a floor of 0 is a
    listed color no coloring uses.  Without `keep`, a class whose floor is
    at least the minimum found so far in this chunk gets None: an earlier
    index already attains a value no larger, so neither the minimum nor its
    first index can change.  The colorings are enumerated once per class;
    a query solves its LP over the floor's enumeration.
    """
    n, edges, indices, keep = task
    g = Multigraph(n, edges)
    enum = CoverEnumeration(g)
    values: list[Optional[Fraction]] = []
    best = THIRD                    # the smallest value found so far, if lower
    queries = 0
    for i in indices:
        cover = enum.at(i)
        value, query = _floor_and_query(g, cover)
        if 0 < value < THIRD:
            if value >= best and not keep:
                values.append(None)
                continue
            value = query().epsilon_star
            queries += 1
        best = min(best, value)
        values.append(value)
    return values, queries


def _class_minima(enums: Sequence[tuple[CoverEnumeration, int]], jobs: int,
                  keep: bool
                  ) -> list[tuple[Fraction, int, int, int, Optional[list[Fraction]]]]:
    """Minimum epsilon* over the first `evaluated` cover classes of each graph.

    Only the representatives from `CoverEnumeration.representatives` are
    evaluated, and only those that `_eps_chunk` cannot settle by their
    uniform floor get an epsilon* query.  Returns, per (enumeration,
    evaluated) pair, the minimum, the first index that attains it, the
    number of representatives (the orbit count), the number of queries, and
    with `keep` every index's value in index order.  The representatives
    are cut into chunks of CHUNK that run in a process pool when jobs > 1;
    chunk results are merged in task order, skipped classes (None) are
    ignored, and the chunks do not depend on the job count, so neither does
    the output.  A budget or job count below 1 raises ValueError.
    """
    if any(evaluated < 1 for _, evaluated in enums):
        raise ValueError("budget must be at least 1")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    scans = [enum.representatives(evaluated) for enum, evaluated in enums]
    tasks = [(enum.g.n, enum.g.edge_items(), tuple(reps[lo:lo + CHUNK]), keep)
             for (enum, _), (reps, _) in zip(enums, scans)
             for lo in range(0, len(reps), CHUNK)]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunks = list(pool.map(_eps_chunk, tasks))
    else:
        chunks = map(_eps_chunk, tasks)
    results = iter(chunks)
    minima = []
    for reps, rep_of in scans:
        parts = list(islice(results, -(-len(reps) // CHUNK)))
        value = dict(zip(reps, chain.from_iterable(values for values, _ in parts)))
        best = min(v for v in value.values() if v is not None)
        first = next(i for i in reps if value[i] == best)
        minima.append((best, first, len(reps), sum(q for _, q in parts),
                       [value[r] for r in rep_of] if keep else None))
    return minima


def min_epsilon_over_covers(g: Multigraph, budget: int = DEFAULT_BUDGET,
                            jobs: int = 1,
                            per_class: bool = False) -> WorstCoverReport:
    """Exact minimum of epsilon* over the enumerated cover classes.

    The witness is the first class attaining the minimum in enumeration
    order.  When the class count exceeds the budget only the first `budget`
    classes are evaluated and the report is flagged incomplete; a budget
    or job count below 1 is rejected.  `per_class_values` gives every
    evaluated class the value of its orbit's representative.
    """
    enum = CoverEnumeration(g)
    evaluated = min(enum.count, budget)
    [(best, best_index, orbits, queries, values)] = _class_minima(
        [(enum, evaluated)], jobs, per_class)
    per_class_values = None if values is None else \
        tuple((enum.at(i), eps) for i, eps in enumerate(values))
    return WorstCoverReport(best, enum.at(best_index), evaluated == enum.count,
                            enum.count, evaluated, orbits, queries, per_class_values)


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
    orbits: int                     # orbits among the evaluated classes
    queries: int                    # epsilon* queries made for the orbits


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
                  budget: int = DEFAULT_BUDGET) -> TheoremReport:
    """Check every small sparse multigraph against the 1/5 threshold.

    Enumerates connected multigraphs up to isomorphism, keeps those with
    mad < 3, and asserts min-over-covers epsilon* >= 1/5 except for graphs
    containing a member of the inflexible family, which are only flagged.
    Graphs whose cover count exceeds the budget are reported as skipped,
    never silently passed.  Rows come in (vertex count, code) order; each
    graph comes from `enumerate_connected_multigraphs`, so its own
    multiplicity vector is its code.  The vertex cap is DESK_CAP at the
    given multiplicity.
    """
    if max_multiplicity not in DESK_CAP:
        raise ValueError(f"max_multiplicity {max_multiplicity} outside 0..2")
    cap = DESK_CAP[max_multiplicity]
    if not 1 <= max_vertices <= cap:
        raise ValueError(f"max_vertices {max_vertices} outside 1..{cap} at "
                         f"max_multiplicity {max_multiplicity}")
    kept: list[tuple[str, Multigraph, Fraction]] = []
    for g in enumerate_connected_multigraphs(max_vertices, max_multiplicity):
        density = mad(g)
        if density < 3:
            kept.append((_code(g.n, _own_vector(g)), g, density))

    enums = [CoverEnumeration(g) for _, g, _ in kept]
    minima = _class_minima([(enum, min(enum.count, budget)) for enum in enums],
                           jobs, False)
    rows = []
    for (code, g, density), enum, (best, best_index, orbits, queries, _) in zip(
            kept, enums, minima):
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
                             enum.count, status, orbits, queries))
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

def gap_audit(g: Multigraph, pa: PotentialAssignment) -> list[tuple[int, ...]]:
    """All nonempty S with potential(S) <= |E(S, complement)|, by size.

    An empty result certifies the gap property potential(S) >= 1 + boundary
    for every nonempty subset; in particular every vertex then satisfies
    d(v) <= rho(v) - 1.
    """
    if g.n > GAP_AUDIT_CAP:
        raise ValueError(f"gap audit capped at {GAP_AUDIT_CAP} vertices, got {g.n}")
    violations = []
    for mask in range(1, 1 << g.n):
        subset = tuple(v for v in range(g.n) if mask >> v & 1)
        if potential(g, pa, subset) <= g.boundary(subset):
            violations.append(subset)
    violations.sort(key=lambda s: (len(s), s))
    return violations
