"""Quantification over covers and graphs: worst cover, desk-scale theorem
check, criticality, and the potential gap audit.

Graphs are enumerated up to isomorphism in two ways.  The theorem check's
graphs, those with mad < 3, are grown one vertex at a time from the kept
graphs one vertex smaller (`enumerate_sparse_multigraphs`), and `_least`
codes each candidate.  Every connected graph, mad >= 3 included, comes from
orderly generation (Read 1978, `enumerate_connected_multigraphs`):
multiplicity vectors are scanned in lexicographic order, and only those that
no vertex relabeling makes smaller are kept.  The scan skips every vector
that swapping two tied vertices makes smaller (`_orderly_candidates`), so
row 0 is non-decreasing.  The relabelings of each vertex count are built
once, as itemgetters over the pair indices, grouped by the vertex each moves
to position 0 (`_relabelings`).  The scan (`_is_canonical`) and `_least`,
the one search for the least relabeled vector behind `canonical_code` and
the 2-core lookup, search only the groups whose vertex's sorted row can tie
the least row 0; the scan stops at the first smaller vector.

The worst-cover search evaluates one cover per orbit under per-vertex list
relabeling and graph automorphisms (`CoverEnumeration.representatives`),
since epsilon* with full lists is invariant under both; each orbit is
represented by its smallest index, so the first index attaining the minimum
is always evaluated.  Before any LP, a representative's uniform floor (the
smallest marginal of the uniform distribution over its colorings, an exact
lower bound on epsilon*) settles it when the floor is 1/3 or 0, which is
then epsilon*, or, when only the minimum is wanted, when the floor is at
least the minimum already found in its chunk; six of its colorings that give
every marginal exactly 1/3 settle it at 1/3; when that minimum is 1/k with
k >= 4, at most k of its colorings that together use every (vertex, color)
pair skip it, since uniform weight on them gives every marginal at least
1/k; every other representative gets an epsilon* LP, built from the
colorings its floor enumerated (`flexibility.epsilon_below`).  Parallel runs
split the representatives into chunks; a chunk carries the graph's
enumeration and returns its values in order, the merge gives each index its
representative's value, and `_first_minimum` reads off the minimum and its
first index.  Chunks depend only on the graph, so output and LP count are
identical for any job count.

The theorem check searches its grown graphs so, and reuses the answers
for every graph with a leaf.  A pendant vertex changes no cover's epsilon*
(`_from_core`), so such a graph's values are those of its 2-core
(`graphs.peel`), which is an earlier row: connected, with fewer vertices,
the same multiplicity cap and mad no larger.  The graphs without a leaf
are searched first, as above, in one wave; then each graph with a leaf
scans its own indices in order and reads each cover's value off its core's
row, at the index `CoverEnumeration.class_index` gives the cover carried
along a vertex map (`_core_row`) onto the row's graph.  It builds no
representatives, and only a class its core's row left unknown (skipped, or
past the budget) is evaluated.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, islice, permutations, product
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .covers import Cover, CoverEnumeration, serialize_cover, trivial_list_distribution
# `epsilon_star` is not called here; it stays a name of this module because
# perfbench's tracer wraps `search.epsilon_star`.
from .flexibility import THIRD, epsilon_below, epsilon_star, framework_feasible
from .graphs import (Multigraph, PotentialAssignment, find_I_subgraph, mad, peel,
                     potential)
from .rationals import rat_str

Q = Fraction

DESK_CAP = {0: 7, 1: 7, 2: 7}  # most vertices per max multiplicity
RELABELING_CAP = 8  # most vertices whose n! relabelings are tabulated
GAP_AUDIT_CAP = 20  # the audit visits all 2^n - 1 subsets
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

@cache
def _relabelings(n: int) -> tuple[tuple[tuple[int, int], ...], tuple]:
    """K_n's vertex pairs and, per vertex x, a getter of x's row (its
    multiplicities to the other vertices, in vertex order), then the
    relabelings p other than the identity with p[0] = x, in `permutations`
    order: one itemgetter each, which maps a multiplicity vector to the one
    holding at each pair (u, v) the entry of (p[u], p[v]), and the p.

    Below 3 vertices no relabeling moves a pair, so there are no groups;
    that also keeps out `itemgetter` of one index, which returns a scalar.
    Built on first use and kept for the life of the process: n! relabelings,
    so above RELABELING_CAP vertices it raises ValueError before building
    anything.
    """
    if n > RELABELING_CAP:
        raise ValueError(f"{n} vertices: relabelings are tabulated for at "
                         f"most {RELABELING_CAP}")
    pairs = tuple(combinations(range(n), 2))
    index = {pair: i for i, (u, v) in enumerate(pairs) for pair in ((u, v), (v, u))}
    groups = []
    for x in range(n if n > 2 else 0):
        rest = [v for v in range(n) if v != x]
        perms = tuple((x, *q) for q in permutations(rest))[x == 0:]  # no identity
        groups.append((itemgetter(*(index[x, v] for v in rest)),
                       tuple(itemgetter(*(index[p[u], p[v]] for u, v in pairs))
                             for p in perms), perms))
    return pairs, tuple(groups)


def _least(n: int, vec: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The least vector a relabeling makes of the multiplicity vector
    `vec`, and the first relabeling, in `permutations` order, attaining it.

    A relabeling's row 0 is its group vertex's row in some order, so at
    least that row sorted: only the identity and the groups whose vertex
    has the least sorted row can attain the minimum, and they are searched
    in `permutations` order."""
    groups = _relabelings(n)[1]
    rows = [sorted(row(vec)) for row, _, _ in groups]
    least = min(rows, default=None)
    best, first = vec, tuple(range(n))
    for (_, maps, perms), r in zip(groups, rows):
        if r == least:
            moved = [m(vec) for m in maps]
            low = min(moved)
            if low < best:
                best, first = low, perms[moved.index(low)]
    return best, first


def _code(n: int, vec: Sequence[int]) -> str:
    return f"{n}:{','.join(map(str, vec))}"


def _own_vector(g: Multigraph) -> tuple[int, ...]:
    return tuple(g.multiplicity(u, v) for u, v in _relabelings(g.n)[0])


def canonical_code(g: Multigraph) -> str:
    """Minimum multiplicity vector over all vertex relabelings (`_least`)."""
    return _code(g.n, _least(g.n, _own_vector(g))[0])


def _orderly_candidates(n: int, top: int) -> Iterator[tuple[int, ...]]:
    """Multiplicity vectors over K_n's pairs with entries at most `top`, in
    lexicographic order, without those that swapping two tied vertices
    makes smaller; every canonical vector is among them.

    Vertices j < k, both above i, are tied at row i when their columns
    agree in every row before i.  Swapping them then changes nothing before (i, j) and
    swaps (i, j) with (i, k), so the entry at (i, k) must be at least the
    one at (i, j).  Tied vertices form runs (all of 1..n-1 at row 0; each
    row is non-decreasing along a run, so equal entries split it), so only
    j = k - 1 is checked: tied at row i when tied at row i - 1 with equal
    entries there.  The vector is an odometer on an explicit stack: its
    last entry below `top` goes up by one and every later entry restarts
    at its least value.
    """
    pairs = _relabelings(n)[0]
    index = {pair: i for i, pair in enumerate(pairs)}
    # per pair (i, k): the pair (i, k - 1) within the row, and (i - 1, k)
    # and (i - 1, k - 1) above it; -1 where there is none
    steps = [(index[i, k - 1] if k - 1 > i else -1, index[i - 1, k] if i else -1,
              index[i - 1, k - 1] if i else -1) for i, k in pairs]
    vec = [0] * len(pairs)
    tied = [False] * len(pairs)     # at (i, k): k - 1 and k tied at row i
    start = 0
    while True:
        for s in range(start, len(pairs)):
            left, up, diag = steps[s]
            tied[s] = left >= 0 and (up < 0 or tied[up] and vec[up] == vec[diag])
            vec[s] = vec[left] if tied[s] else 0
        yield tuple(vec)
        start = len(pairs) - 1
        while start >= 0 and vec[start] == top:
            start -= 1
        if start < 0:
            return
        vec[start] += 1
        start += 1


def _is_canonical(vec: tuple[int, ...], groups: Sequence) -> bool:
    """Whether no relabeling of `groups` makes the vector, whose row 0 is
    sorted, smaller: a vertex whose sorted row is below row 0 beats it at
    once, and only group 0 and the groups of vertices whose sorted row
    equals row 0 are tested, as any other relabeling is larger on row 0."""
    first = list(vec[:len(groups) - 1])
    tested = [groups[0][1]]
    for row, maps, _ in groups[1:]:
        r = sorted(row(vec))
        if r < first:
            return False
        if r == first:
            tested.append(maps)
    for maps in tested:
        for m in maps:
            if m(vec) < vec:
                return False
    return True


def enumerate_connected_multigraphs(max_vertices: int,
                                    max_multiplicity: int) -> Iterator[Multigraph]:
    """Connected multigraphs up to isomorphism, in (vertex count, code) order:
    each class once, as the graph whose own multiplicity vector is its code."""
    for n in range(1, max_vertices + 1):
        pairs, groups = _relabelings(n)
        for vec in _orderly_candidates(n, max_multiplicity):
            if not groups or _is_canonical(vec, groups):
                g = Multigraph(n, [(u, v, k) for (u, v), k in zip(pairs, vec) if k])
                if g.is_connected():
                    yield g


def enumerate_sparse_multigraphs(max_vertices: int, max_multiplicity: int
                                 ) -> Iterator[tuple[str, Multigraph, Fraction]]:
    """Connected multigraphs with mad < 3 up to isomorphism, with their codes
    and mad, in (vertex count, code) order: each class once, as the graph
    whose own multiplicity vector is its code.

    Grown by vertex extension (McKay 1998): each kept graph on n - 1
    vertices gets a new vertex, joined to the old ones by every nonzero
    multiplicity vector with entries at most `max_multiplicity`.  Only a
    candidate with 2|E| < 3n can have mad < 3; its code is `_least`'s, and
    `mad` runs once per new code.  Nothing is missed: mad never grows when
    a vertex is deleted, and every connected graph loses a vertex (a leaf
    of a spanning tree) without losing connectivity.
    """
    level: list[tuple[int, ...]] = [()]   # the kept codes on n - 1 vertices
    # (at n = 1 the one empty code, which the empty row extends)
    for n in range(1, max_vertices + 1):
        pairs = _relabelings(n)[0]
        # a kept vector, then the new vertex's row: their entries in pair order
        old = {pair: i for i, pair in enumerate(combinations(range(n - 1), 2))}
        place = [old[u, v] if v < n - 1 else len(old) + u for u, v in pairs]
        rows = [(sum(r), r) for r in product(range(max_multiplicity + 1),
                                             repeat=n - 1) if any(r) or n == 1]
        seen, found = set(), []
        for vec in level:
            room = (3 * n - 1) // 2 - sum(vec)   # most edges the new row may add
            for joined in (vec + r for s, r in rows if s <= room):
                code = _least(n, tuple(joined[i] for i in place))[0]
                if code not in seen:
                    seen.add(code)
                    g = Multigraph(n, [(u, v, k) for (u, v), k in zip(pairs, code) if k])
                    density = mad(g)
                    if density < 3:
                        found.append((code, g, density))
        found.sort(key=itemgetter(0))
        level = [code for code, _, _ in found]
        for code, g, density in found:
            yield _code(n, code), g, density


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
    queries: int                    # epsilon* LPs solved for the orbits
    per_class_values: Optional[tuple[tuple[Cover, Fraction], ...]] = None


def _eps_chunk(task: tuple) -> tuple[list[Optional[Fraction]], int]:
    """Worker: epsilon* of the given cover classes of one graph, in order,
    and the number of epsilon* LPs solved (queries).

    Each class goes through `epsilon_below`.  Without `keep`, its `best` is
    the minimum found so far in this chunk, so a skipped class (None) has
    an earlier index attaining a value no larger: neither the minimum nor
    its first index can change.  The task carries the graph's enumeration
    itself, which a pool pickles as plain data.
    """
    enum, indices, keep = task
    values: list[Optional[Fraction]] = []
    best = THIRD                    # the smallest value found so far, if lower
    queries = 0
    for i in indices:
        value, query = epsilon_below(enum.g, enum.at(i), THIRD if keep else best)
        queries += query
        if value is not None:
            best = min(best, value)
        values.append(value)
    return values, queries


def _class_minima(enums: Sequence[tuple[CoverEnumeration, int]], jobs: int,
                  keep: bool) -> list[tuple[list[Optional[Fraction]], int, int]]:
    """Epsilon* over the first `evaluated` cover classes of each graph.

    Only the representatives from `CoverEnumeration.representatives` are
    evaluated, and only those that `epsilon_below` settles neither by their
    uniform floor, nor by six colorings, nor by k colorings that use every
    pair when the chunk's minimum is 1/k, get an epsilon* LP.  Returns, per
    (enumeration, evaluated) pair, each index's representative's value (None
    where it was skipped; with `keep` none is), the number of
    representatives (orbits) and of LPs solved (queries).  The
    representatives are cut into chunks of CHUNK that run in a process pool
    when jobs > 1 (the pool's module is imported only then); chunk results
    are merged in task order, and the chunks do not depend on the job count,
    so neither does the output.  A budget or job count below 1 raises
    ValueError.
    """
    if any(evaluated < 1 for _, evaluated in enums):
        raise ValueError("budget must be at least 1")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    scans = [enum.representatives(evaluated) for enum, evaluated in enums]
    tasks = [(enum, tuple(reps[lo:lo + CHUNK]), keep)
             for (enum, _), (reps, _) in zip(enums, scans)
             for lo in range(0, len(reps), CHUNK)]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunks = list(pool.map(_eps_chunk, tasks))
    else:
        chunks = map(_eps_chunk, tasks)
    results = iter(chunks)
    minima = []
    for reps, rep_of in scans:
        parts = list(islice(results, -(-len(reps) // CHUNK)))
        value = dict(zip(reps, chain.from_iterable(values for values, _ in parts)))
        minima.append(([value[r] for r in rep_of], len(reps),
                       sum(q for _, q in parts)))
    return minima


def _first_minimum(values: list[Optional[Fraction]]) -> tuple[Fraction, int]:
    """The smallest value that is not None, and the first index holding it."""
    best = min(v for v in values if v is not None)
    return best, values.index(best)


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
    [(values, orbits, queries)] = _class_minima([(enum, evaluated)], jobs, per_class)
    best, best_index = _first_minimum(values)
    per_class_values = tuple((enum.at(i), v) for i, v in enumerate(values)) \
        if per_class else None
    return WorstCoverReport(best, enum.at(best_index), evaluated == enum.count,
                            enum.count, evaluated, orbits, queries, per_class_values)


# ---------------------------------------------------------------------------
# Pendant vertices: a graph's minimum is its 2-core's
# ---------------------------------------------------------------------------

def _core_row(g: Multigraph, core: Sequence[int]) -> tuple[str, dict[int, int]]:
    """The canonical code of g's subgraph on `core`, and a map from `core`
    onto the vertices of the graph whose own multiplicity vector is that
    code (the relabeling `_least` returns)."""
    n = len(core)
    code, p = _least(n, tuple(g.multiplicity(core[a], core[b])
                              for a, b in _relabelings(n)[0]))
    return _code(n, code), {core[x]: a for a, x in enumerate(p)}


def _from_core(enum: CoverEnumeration, evaluated: int, phi: dict[int, int],
               core_enum: CoverEnumeration,
               known: list[Optional[Fraction]]) -> tuple[Fraction, int, int, int]:
    """The minimum over a graph's first `evaluated` classes, read off its
    2-core's row: the minimum, its first index, the classes evaluated and
    the LPs solved.

    The 2-core is what `peel(g, 1)` leaves.  A peeled vertex v has one
    simple edge to the rest, so epsilon*(G, H) = epsilon*(G - v, H - v) for
    every cover H.  Restriction gives <=; giving v, uniformly, one of the
    two colors its neighbour's color leaves gives >= (`gadgets.gadget_pendent`).

    Index i takes `known[j]`, for the index j that `core_enum.class_index`
    gives `enum.at(i)` carried along `phi`.  A class the core's row left
    unknown (skipped, or j past its budget) goes through `epsilon_below` at
    `core_enum.at(j)`, whose S3^n class, and so floor, colorings and
    epsilon*, it shares, with the minimum found so far as `best`; the core's
    row holds a None wherever its chunk's minimum was 1/k and k colorings
    used every pair, so such a class is evaluated here.  The scan
    stops once the minimum reaches a lower bound: the core's minimum when
    `known` covers all `core_enum.count` indices, else 0.
    """
    lower = _first_minimum(known)[0] if len(known) == core_enum.count else 0
    values: list[Optional[Fraction]] = []
    best, orbits, queries = Fraction(1), 0, 0
    for i in range(evaluated):
        j = core_enum.class_index(enum.at(i), phi)
        value = known[j] if j < len(known) else None
        if value is None:
            value, query = epsilon_below(core_enum.g, core_enum.at(j), best)
            orbits, queries = orbits + 1, queries + query
        values.append(value)
        if value is not None and value < best:
            best = value
            if best == lower:
                break
    return (*_first_minimum(values), orbits, queries)


# ---------------------------------------------------------------------------
# Desk-scale theorem check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphRow:
    """One graph of `theorem_check`.

    `orbits` counts the cover classes the row evaluated (one enumeration of
    the colorings each) and `queries` the epsilon* LPs it solved.  A row
    without a leaf evaluates one representative per orbit; a row with a
    leaf reads its values off its 2-core's row, so both are 0 unless that
    row left a class unknown.
    """

    code: str
    vertex_count: int
    mad: Fraction
    i_subgraph: Optional[int]       # smallest m of a matched family member
    epsilon_min: Fraction
    witness_hash: str
    classes: int
    status: str                     # ok | exception | counterexample | skipped
    orbits: int                     # classes the row evaluated
    queries: int                    # epsilon* LPs the row solved


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

    Takes the connected multigraphs with mad < 3 up to isomorphism and
    asserts min-over-covers epsilon* >= 1/5 except for graphs containing a
    member of the inflexible family, which are only flagged.
    Graphs whose cover count exceeds the budget are reported as skipped,
    never silently passed.  Rows come in (vertex count, code) order; each
    graph comes from `enumerate_sparse_multigraphs`, which grows them one
    vertex at a time, so its own multiplicity vector is its code.  The
    vertex cap is DESK_CAP at the given multiplicity.

    Graphs without a leaf are searched first, in the pool when jobs > 1.
    Each graph with a leaf is then answered in this process from its
    2-core's row (`_from_core`), so the output is the same for any job
    count; a core with no row is a bug and raises RuntimeError.
    """
    if max_multiplicity not in DESK_CAP:
        raise ValueError(f"max_multiplicity {max_multiplicity} outside 0..2")
    cap = DESK_CAP[max_multiplicity]
    if not 1 <= max_vertices <= cap:
        raise ValueError(f"max_vertices {max_vertices} outside 1..{cap} at "
                         f"max_multiplicity {max_multiplicity}")
    kept = list(enumerate_sparse_multigraphs(max_vertices, max_multiplicity))

    enums = [CoverEnumeration(g) for _, g, _ in kept]
    limits = [min(enum.count, budget) for enum in enums]
    cores = [peel(g, 1) for _, g, _ in kept]
    wave = [k for k, (_, g, _) in enumerate(kept) if len(cores[k]) == g.n]
    known = dict(zip(wave, _class_minima([(enums[k], limits[k]) for k in wave],
                                         jobs, False)))
    row_of = {kept[k][0]: k for k in wave}
    rows = []
    for k, ((code, g, density), enum) in enumerate(zip(kept, enums)):
        if k in known:
            values, orbits, queries = known[k]
            best, best_index = _first_minimum(values)
        else:
            core_code, phi = _core_row(g, cores[k])
            if core_code not in row_of:
                raise RuntimeError(f"the 2-core {core_code} of {code} is not a row")
            c = row_of[core_code]
            best, best_index, orbits, queries = _from_core(
                enum, limits[k], phi, enums[c], known[c][0])
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
    """Whether every cover admits an eps-distribution (empty lists).

    Only defined when no vertex has rho = 3: the empty list distribution is
    not an h-list distribution otherwise.  Disconnected graphs are handled
    component by component.  Each tree-pinned cover of `CoverEnumeration`
    is checked at every basepoint placement of the rho = 4 vertices,
    3^|pi_4| LPs per index: relabeling a cover's lists moves only those
    basepoints (full lists and the rho = 6 rows are symmetric), so this
    covers every relabeling, and the answer never depends on
    `pa.basepoint`.  The budget bounds the indices; below 1 it raises
    ValueError.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
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
        placements = [PotentialAssignment(sub_pa.rho, basepoint) for basepoint in
                      product(*(range(3) if r == 4 else (0,) for r in sub_pa.rho))]
        if not all(framework_feasible(sub, placed, cover, dist, eps) is not None
                   for cover in map(enum.at, range(enum.count)) for placed in placements):
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
