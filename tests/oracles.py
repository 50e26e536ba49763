"""Independent reference implementations used to validate the fast paths.

Everything here is deliberately brute force or textbook: vertex enumeration
and a dense `Fraction` simplex for LPs, a column-by-column pricing scan for
the simplex kernel's packed pricing, exhaustive assignment counting for
colorings, explicit relabeling orbits for cover classes (per-vertex color
relabelings, then graph automorphisms) and for graph classes and codes, a
union-find for connected components, every vertex sequence for the
inflexible family, every root and every triple of coloring pairs for the
six-coloring certificate of epsilon* = 1/3, every set of at most k colorings
for the k-coloring cover that certifies epsilon* >= 1/k.  None of it shares
code with the implementations under test, except in one place: the per-index
worst-cover scan calls the library's `epsilon_star` on every cover index, so
it checks the search's orbit cut and LP skipping, not the LP.  The product
scan of graph classes tests every vector against relabeling getters of its
own (`relabeling_getters`).

`LinearProgram` keeps only each row's nonzeros.  Tests that write an LP's
rows in full build it through `dense_lp`, and the LP oracles read every
program's rows back in full through `dense_rows`.
"""
from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import itemgetter
from typing import Iterator

from flexdp.covers import PERMS, Cover
from flexdp.graphs import Multigraph
from flexdp.lp import LinearProgram

Q = Fraction


# ---------------------------------------------------------------------------
# Dense LPs: the one way tests write rows in full, and the oracles read them
# ---------------------------------------------------------------------------

def dense_lp(objective, rows) -> LinearProgram:
    """max objective . x over `rows`, each (coefficients, relation, rhs)
    with one coefficient per entry of `objective`, as the `LinearProgram`
    that keeps each row's nonzeros."""
    n = len(objective)
    assert all(len(coeffs) == n for coeffs, _, _ in rows), "row width"
    return LinearProgram(n, tuple(objective), tuple(
        ({j: a for j, a in enumerate(coeffs) if a}, rel, rhs)
        for coeffs, rel, rhs in rows))


def dense_rows(lp) -> list:
    """The rows of `lp` in full: (num_vars Fractions, relation, rhs)."""
    rows = []
    for coeffs, rel, rhs in lp.rows:
        dense = [Q(0)] * lp.num_vars
        for j, a in coeffs.items():
            dense[j] = Q(a)
        rows.append((dense, rel, rhs))
    return rows


# ---------------------------------------------------------------------------
# LP oracle: vertex enumeration plus recession-cone test
# ---------------------------------------------------------------------------

def _solve_square(matrix, rhs):
    """Exact Gaussian elimination; None when singular."""
    n = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _feasible(point, constraints):
    for coeffs, rel, rhs in constraints:
        lhs = sum((c * x for c, x in zip(coeffs, point)), Q(0))
        if rel == "<=" and lhs > rhs:
            return False
        if rel == ">=" and lhs < rhs:
            return False
        if rel == "=" and lhs != rhs:
            return False
    return True


def _vertices(constraints, n):
    found = []
    for subset in combinations(range(len(constraints)), n):
        matrix = [constraints[i][0] for i in subset]
        rhs = [constraints[i][2] for i in subset]
        point = _solve_square(matrix, rhs)
        if point is not None and _feasible(point, constraints):
            found.append(tuple(point))
    return found


def oracle_solve(lp):
    """(status, value) by brute force; exact, exponential, tiny LPs only."""
    n = lp.num_vars
    constraints = dense_rows(lp)
    for j in range(n):
        bound = [Q(0)] * n
        bound[j] = Q(1)
        constraints.append((bound, ">=", Q(0)))
    vertices = _vertices(constraints, n)
    if not vertices:
        return "infeasible", None
    best = max(sum((c * x for c, x in zip(lp.objective, v)), Q(0))
               for v in vertices)
    # Recession cone, sliced by sum(d) = 1; any direction with positive
    # objective certifies unboundedness.
    cone = []
    for coeffs, rel, _ in constraints[:len(lp.rows)]:
        cone.append((coeffs, rel, Q(0)))
    for j in range(n):
        bound = [Q(0)] * n
        bound[j] = Q(1)
        cone.append((bound, ">=", Q(0)))
    cone.append(([Q(1)] * n, "=", Q(1)))
    for d in _vertices(cone, n):
        if sum((c * x for c, x in zip(lp.objective, d)), Q(0)) > 0:
            return "unbounded", None
    return "optimal", best


# ---------------------------------------------------------------------------
# LP oracle: textbook dense two-phase simplex with Bland's rule
# ---------------------------------------------------------------------------

def bland_simplex(lp):
    """(status, primal, value, dual) by a dense `Fraction` tableau.

    Rows with a negative right-hand side are negated; each inequality row
    gets a slack and every row an artificial, in row order.  Phase 1
    maximises minus the sum of the artificials of the unscaled rows.  Bland's
    rule enters the smallest-index column with a negative z entry and
    breaks ratio ties by the smaller basis index.  Artificials still basic
    after phase 1 are driven out from the last row to the first, and a row
    that is zero outside the artificial columns is deleted.  The duals are
    the final z-row's artificial entries, negated for negated rows.  Primal,
    value and dual are None unless the status is "optimal".
    """
    n, m = lp.num_vars, len(lp.rows)
    slack_of = {}
    for i, (_, rel, _) in enumerate(lp.rows):
        if rel != "=":
            slack_of[i] = n + len(slack_of)
    art0 = n + len(slack_of)
    tab, signs, basis = [], [], list(range(art0, art0 + m))
    for i, (coeffs, rel, rhs) in enumerate(dense_rows(lp)):
        sign = -1 if rhs < 0 else 1
        row = [Q(sign * a) for a in coeffs] + [Q(0)] * (art0 + m - n)
        if rel != "=":
            row[slack_of[i]] = Q(sign if rel == "<=" else -sign)
        row[art0 + i] = Q(1)
        tab.append(row + [Q(sign * rhs)])
        signs.append(sign)

    def z_row(cost):
        z = [-c for c in cost] + [Q(0)]
        for row, b in zip(tab, basis):
            z = [a + cost[b] * r for a, r in zip(z, row)]
        return z

    def pivot(p, col, z):
        tab[p] = [a / tab[p][col] for a in tab[p]]
        for i, row in enumerate(tab):
            if i != p and row[col]:
                tab[i] = [a - row[col] * b for a, b in zip(row, tab[p])]
        basis[p] = col
        return [a - z[col] * b for a, b in zip(z, tab[p])]

    def run(z, ncols):
        while True:
            col = next((j for j in range(ncols) if z[j] < 0), None)
            if col is None:
                return "optimal", z
            ratios = [(row[-1] / row[col], basis[i], i)
                      for i, row in enumerate(tab) if row[col] > 0]
            if not ratios:
                return "unbounded", z
            z = pivot(min(ratios)[2], col, z)

    _, z = run(z_row([Q(0)] * art0 + [Q(-1)] * m), art0 + m)
    if z[-1] != 0:
        return "infeasible", None, None, None
    for i in range(len(tab) - 1, -1, -1):
        if basis[i] >= art0:
            col = next((j for j in range(art0) if tab[i][j] != 0), None)
            if col is None:
                del tab[i], basis[i]
            else:
                z = pivot(i, col, z)
    status, z = run(z_row(list(lp.objective) + [Q(0)] * (art0 + m - n)), art0)
    if status == "unbounded":
        return status, None, None, None
    primal = [Q(0)] * n
    for row, b in zip(tab, basis):
        if b < n:
            primal[b] = row[-1]
    dual = tuple(sign * z[art0 + i] for i, sign in enumerate(signs))
    return "optimal", tuple(primal), z[-1], dual


def reduced_costs(tab) -> list:
    """u.A_j - d*cost[j] for every column j of a revised-simplex kernel, one
    dot product per column, from `tab.u` (the z-row multipliers u), `tab.d`,
    `tab.cols` (sparse columns: row indices, entries or None if all are 1)
    and `tab.cost`."""
    u, d = tab.u, tab.d
    return [sum(u[k] * a for k, a in zip(ks, (1,) * len(ks) if vs is None else vs))
            - d * c for (ks, vs), c in zip(tab.cols, tab.cost)]


def slots_of(x: int, width: int, count: int) -> list[int]:
    """The `count` signed `width`-bit slots s_i of x = sum_i s_i *
    2**(width*i), lowest first, peeled off one at a time; asserts that
    nothing is left above them."""
    out = []
    for _ in range(count):
        s = x % (1 << width)
        if s >> width - 1:
            s -= 1 << width
        out.append(s)
        x = (x - s) >> width
    assert x == 0, "x has bits above its slots"
    return out


def list_pivot(rows: list, p: int, column: list, d: int) -> int:
    """The fraction-free pivot of a revised-simplex kernel kept as lists of
    rows: `rows[i]` is row i of d*B^-1 with beta_i appended and `rows[-1]`
    is u with u.b appended; `column` is the entering tableau column over d
    with its z entry last.  Updates `rows` in place and returns the new d.

    Every entry a of row i takes (a*piv - f*b) / d with b the entry of row
    p and f = column[i].  A pivot equal to d (unit) moves only the entries
    at the pivot row's nonzeros, in place; any other (full) rewrites every
    row, and a negative one then negates them all."""
    rp, piv = rows[p], column[p]
    if piv == d:
        moved = [(k, b) for k, b in enumerate(rp) if b]
        for ri, f in zip(rows, column):
            if f and ri is not rp:
                for k, b in moved:
                    ri[k] -= f * b // d
        return d
    for i, (ri, f) in enumerate(zip(rows, column)):
        if i != p:
            rows[i] = [(a * piv - f * b) // d for a, b in zip(ri, rp)]
    if piv < 0:
        rows[:] = [[-a for a in row] for row in rows]
    return abs(piv)


def first_negative_column(tab) -> int:
    """Bland's entering column by scanning: the first j below `tab.ncols`
    whose reduced cost is negative, or -1."""
    return next((j for j, r in zip(range(tab.ncols), reduced_costs(tab))
                 if r < 0), -1)


# ---------------------------------------------------------------------------
# Coloring oracles
# ---------------------------------------------------------------------------

def count_proper_3_colorings(g: Multigraph) -> int:
    total = 0
    for assignment in product(range(3), repeat=g.n):
        if all(assignment[u] != assignment[v] for u, v in g.pairs()):
            total += 1
    return total


def colorings_by_brute_force(g: Multigraph, cover: Cover, lists) -> list:
    result = []
    for assignment in product(range(3), repeat=g.n):
        if any(assignment[v] not in lists[v] for v in range(g.n)):
            continue
        ok = True
        for (u, v), perms in cover.matchings.items():
            if any(perm[assignment[u]] == assignment[v] for perm in perms):
                ok = False
                break
        if ok:
            result.append(assignment)
    return result


@functools.cache
def epsilon_every_index(g: Multigraph, limit: int) -> tuple:
    """epsilon* of every cover index below `limit`: one LP per index, with
    no orbit cut and no lower bound skipping any.  Cached, as the scan is
    the slow part of the tests that use it."""
    from flexdp.covers import CoverEnumeration
    from flexdp.flexibility import epsilon_star
    enum = CoverEnumeration(g)
    return tuple(epsilon_star(g, enum.at(i)).epsilon_star for i in range(limit))


def min_epsilon_every_index(g: Multigraph, limit: int) -> tuple:
    """The minimum epsilon* over the cover indices below `limit`, and the
    first index attaining it."""
    values = epsilon_every_index(g, limit)
    best = min(values)
    return best, values.index(best)


def epsilon_lp(g: Multigraph, cover: Cover) -> LinearProgram:
    """The epsilon* LP of a colorable cover, written in full: one variable
    per brute-force coloring, then eps; maximise eps subject to every
    full-list marginal minus eps >= 0 and total weight 1.  A color no
    coloring uses keeps its row, so the LP itself finds eps* = 0."""
    found = colorings_by_brute_force(g, cover, [(0, 1, 2)] * g.n)
    rows = [([Q(phi[v] == c) for phi in found] + [Q(-1)], ">=", Q(0))
            for v in range(g.n) for c in range(3)]
    rows.append(([Q(1)] * len(found) + [Q(0)], "=", Q(1)))
    return dense_lp([Q(0)] * len(found) + [Q(1)], rows)


def uniform_marginals(g: Multigraph, cover: Cover) -> list:
    """Every full-list marginal of the uniform distribution over the
    brute-force colorings; empty when there are none."""
    found = colorings_by_brute_force(g, cover, [(0, 1, 2)] * g.n)
    return [Q(sum(1 for phi in found if phi[v] == c), len(found))
            for v in range(g.n) for c in range(3)] if found else []


def six_colorings_by_brute_force(n: int, colorings) -> bool:
    """Whether some root r and three pairs of the colorings, one pair per
    color at r, each pair differing at every vertex but r, give all 3n
    (vertex, color) pairs exactly two of the six colorings.  Every root,
    every pair and every triple of pairs is tried, on the coloring tuples
    themselves."""
    for r in range(n):
        pairs = [[(a, b) for a, b in combinations(colorings, 2)
                  if a[r] == b[r] == c
                  and all(a[v] != b[v] for v in range(n) if v != r)]
                 for c in range(3)]
        for triple in product(*pairs):
            six = [phi for pair in triple for phi in pair]
            if all(sum(1 for phi in six if phi[v] == c) == 2
                   for v in range(n) for c in range(3)):
                return True
    return False


def k_cover_by_brute_force(n: int, colorings, k: int) -> bool:
    """Whether some at most k of the colorings together use all 3n
    (vertex, color) pairs.  Every combination of each size is tried, on the
    sets of pairs the coloring tuples use."""
    used = [frozenset(enumerate(phi)) for phi in colorings]
    return any(len(frozenset().union(*chosen)) == 3 * n
               for size in range(1, k + 1) for chosen in combinations(used, size))


# ---------------------------------------------------------------------------
# Cover-class oracle: explicit relabeling orbits
# ---------------------------------------------------------------------------

def all_full_covers(g: Multigraph):
    """Every cover using min(multiplicity, 6) distinct matchings per pair."""
    pairs = g.pairs()
    options = [list(combinations(PERMS, min(g.multiplicity(u, v), 6)))
               for u, v in pairs]
    for pick in product(*options):
        yield Cover({pair: perms for pair, perms in zip(pairs, pick)})


def _apply_relabeling(cover: Cover, sigma) -> tuple:
    canonical = []
    for (u, v), perms in cover.matchings.items():
        su, sv = sigma[u], sigma[v]
        inv_u = [0, 0, 0]
        for i in range(3):
            inv_u[su[i]] = i
        transformed = sorted(tuple(sv[perm[inv_u[c]]] for c in range(3))
                             for perm in perms)
        canonical.append(((u, v), tuple(transformed)))
    return tuple(canonical)


def cover_form(g: Multigraph, cover: Cover) -> tuple:
    """The serialized form of the cover itself, as `relabeling_orbit` lists it."""
    return _apply_relabeling(cover, ((0, 1, 2),) * g.n)


def relabeling_orbit(g: Multigraph, cover: Cover) -> set:
    """Serialized forms of the cover under every per-vertex color relabeling."""
    return {_apply_relabeling(cover, sigma) for sigma in product(PERMS, repeat=g.n)}


def relabeling_canonical_form(g: Multigraph, cover: Cover) -> tuple:
    """Minimum serialized form over all per-vertex color relabelings."""
    return min(_apply_relabeling(cover, sigma)
               for sigma in product(PERMS, repeat=g.n))


def carried_cover(cover: Cover, phi: dict) -> Cover:
    """The cover's matchings between the vertices the map phi takes,
    carried along it; a pair whose ends swap order has its matchings
    inverted, so they still read from the smaller end."""
    matchings = {}
    for (u, v), perms in cover.matchings.items():
        if u not in phi or v not in phi:
            continue
        a, b = phi[u], phi[v]
        if a > b:
            a, b = b, a
            perms = tuple(tuple(p.index(c) for c in range(3)) for p in perms)
        matchings[(a, b)] = perms
    return Cover(matchings)


def automorphisms(g: Multigraph) -> set:
    """The vertex permutations that keep every multiplicity, among all n!."""
    return {perm for perm in permutations(range(g.n))
            if all(g.multiplicity(perm[u], perm[v]) == g.multiplicity(u, v)
                   for u, v in combinations(range(g.n), 2))}


def orbit_canonical_form(g: Multigraph, cover: Cover) -> tuple:
    """Minimum of `relabeling_canonical_form` over the automorphisms of g."""
    return min(relabeling_canonical_form(g, carried_cover(cover, dict(enumerate(perm))))
               for perm in automorphisms(g))


def drop_matching(cover: Cover, u: int, v: int, index: int) -> Cover:
    """The cover without slot `index` of pair {u,v}."""
    key = (u, v) if u < v else (v, u)
    slots = list(cover.matchings[key])
    del slots[index]
    matchings = dict(cover.matchings)
    if slots:
        matchings[key] = tuple(slots)
    else:
        del matchings[key]
    return Cover(matchings)


# ---------------------------------------------------------------------------
# Graph-class oracle: explicit relabeling orbits of edge lists
# ---------------------------------------------------------------------------

def _edge_list_connected(n: int, edges) -> bool:
    reached = {0}
    grew = True
    while grew:
        grew = False
        for u, v, _ in edges:
            if (u in reached) != (v in reached):
                reached |= {u, v}
                grew = True
    return len(reached) == n


def components_by_union_find(g: Multigraph) -> list[list[int]]:
    """Connected components from a union-find over the edge list, each
    sorted, ordered by smallest vertex."""
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for u, v, _ in g.edge_items():
        a, b = find(u), find(v)
        root[max(a, b)] = min(a, b)
    comps: dict[int, list[int]] = {}
    for v in range(g.n):
        comps.setdefault(find(v), []).append(v)
    return [comps[r] for r in sorted(comps)]


def _relabeled_edge_list(edges, perm) -> tuple:
    return tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), k)
                        for u, v, k in edges))


def canonical_code_by_permutations(g: Multigraph) -> str:
    """The smallest multiplicity vector, over pairs in lexicographic order,
    among all n! vertex relabelings, written as `n:m1,m2,...`."""
    vec = tuple(g.multiplicity(u, v) for u, v in combinations(range(g.n), 2))
    best, _ = least_relabeling_by_permutations(g.n, vec)
    return f"{g.n}:{','.join(map(str, best))}"


def least_relabeling_by_permutations(n: int, vec: tuple) -> tuple:
    """The smallest vector any of the n! vertex relabelings p makes of a
    multiplicity vector over the pairs in lexicographic order (holding at
    (u, v) the entry of the pair {p[u], p[v]}), and the first p in
    `permutations` order that attains it."""
    pairs = list(combinations(range(n), 2))
    entry = dict(zip(pairs, vec))
    best = None
    for p in permutations(range(n)):
        moved = tuple(entry[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs)
        if best is None or moved < best[0]:
            best = (moved, p)
    return best


def connected_multigraph_classes(max_vertices: int, max_mult: int) -> set:
    """Isomorphism classes of connected multigraphs on 1..max_vertices
    vertices with multiplicities <= max_mult.  Each class is the frozenset
    of (n, sorted edge list) forms of all its relabelings."""
    classes = set()
    for n in range(1, max_vertices + 1):
        slots = list(combinations(range(n), 2))
        for mults in product(range(max_mult + 1), repeat=len(slots)):
            edges = [(u, v, k) for (u, v), k in zip(slots, mults) if k]
            if _edge_list_connected(n, edges):
                classes.add(frozenset((n, _relabeled_edge_list(edges, perm))
                                      for perm in permutations(range(n))))
    return classes


def relabeling_getters(n: int) -> list:
    """One itemgetter per vertex relabeling p of n vertices, in
    `permutations` order, over the pairs in lexicographic order: applied to
    a multiplicity vector it returns the vector holding at each pair (u, v)
    the entry of the pair {p[u], p[v]}.  Below 3 vertices every relabeling
    fixes every pair, so there are none (and no `itemgetter` of one index,
    which would return a scalar)."""
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    return [itemgetter(*(index[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs))
            for p in permutations(range(n))] if n >= 3 else []


def enumerate_by_product_scan(max_vertices: int,
                              max_multiplicity: int) -> Iterator[Multigraph]:
    """Connected multigraphs up to isomorphism, in (vertex count, code) order,
    by the plain orderly scan: every multiplicity vector in `product` order,
    kept when no getter of `relabeling_getters` makes it smaller."""
    for n in range(1, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        maps = relabeling_getters(n)
        for vec in product(range(max_multiplicity + 1), repeat=len(pairs)):
            if all(m(vec) >= vec for m in maps):
                g = Multigraph(n, [(u, v, k) for (u, v), k in zip(pairs, vec) if k])
                if g.is_connected():
                    yield g


# ---------------------------------------------------------------------------
# Random instance generators (seeded by the caller)
# ---------------------------------------------------------------------------

def two_core_by_brute_force(g: Multigraph) -> list[int]:
    """The largest vertex set whose induced subgraph has minimum multigraph
    degree at least 2, found by scanning every subset; [0] when there is
    none (a tree), as any single vertex is then what peeling leaves."""
    best: list[int] = []
    for mask in range(1, 1 << g.n):
        subset = [v for v in range(g.n) if mask >> v & 1]
        if len(subset) > len(best) and all(
                sum(g.multiplicity(v, w) for w in subset) >= 2 for v in subset):
            best = subset
    return best or [0]


def with_pendant_trees(rng: random.Random, g: Multigraph,
                       extra: int) -> Multigraph:
    """g with `extra` new vertices, each joined by one simple edge to a
    random earlier vertex, the new ones placed at random labels."""
    n = g.n + extra
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v], m) for u, v, m in g.edge_items()]
    edges += [(label[rng.randrange(v)], label[v], 1) for v in range(g.n, n)]
    return Multigraph(n, edges)


def random_multigraph(rng: random.Random, max_n: int = 5,
                      max_mult: int = 2) -> Multigraph:
    """1..max_n vertices, each pair an edge of multiplicity 1..max_mult with
    probability 0.55; possibly disconnected or edgeless."""
    n = rng.randint(1, max_n)
    edges = []
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.55:
            edges.append((u, v, rng.randint(1, max_mult)))
    return Multigraph(n, edges)


def random_connected_multigraph(rng: random.Random, max_n: int = 5,
                                max_mult: int = 2) -> Multigraph:
    while True:
        g = random_multigraph(rng, max_n, max_mult)
        if g.is_connected():
            return g


def random_tree(rng: random.Random, n: int) -> Multigraph:
    edges = [(rng.randint(0, v - 1), v, 1) for v in range(1, n)]
    return Multigraph(n, edges)


def random_cover(rng: random.Random, g: Multigraph) -> Cover:
    matchings = {}
    for u, v in g.pairs():
        k = min(g.multiplicity(u, v), 6)
        matchings[(u, v)] = tuple(sorted(rng.sample(PERMS, k)))
    return Cover(matchings)


def random_2lists(rng: random.Random, n: int):
    return tuple(tuple(sorted(rng.sample(range(3), 2))) for _ in range(n))


def is_2connected(g: Multigraph) -> bool:
    if g.n < 3 or not g.is_connected():
        return False
    return all(g.delete_vertex(v).is_connected() for v in range(g.n))


def random_2connected_subcubic(rng: random.Random, max_n: int = 8) -> Multigraph:
    """Cycle plus ears, keeping max degree 3 and at least two 2-vertices."""
    while True:
        n = rng.randint(4, max_n)
        k = rng.randint(4, n)
        edges = [(i, (i + 1) % k, 1) for i in range(k)]
        degree = [2] * k
        used = k
        while used < n:
            anchors = [v for v in range(used) if degree[v] < 3]
            if len(anchors) < 2:
                break
            a, b = rng.sample(anchors, 2)
            length = min(n - used, rng.randint(1, 3))
            path = list(range(used, used + length))
            used += length
            degree += [2] * length
            chain = [a] + path + [b]
            for x, y in zip(chain, chain[1:]):
                edges.append((x, y, 1))
            degree[a] += 1
            degree[b] += 1
        g = Multigraph(used, edges)
        two_vertices = sum(1 for v in range(g.n) if g.degree(v) == 2)
        if (used == n and g.is_simple() and max(map(g.degree, range(g.n))) <= 3
                and two_vertices >= 2 and is_2connected(g)):
            return g


# ---------------------------------------------------------------------------
# Inflexible-family oracle: every vertex sequence of every odd length
# ---------------------------------------------------------------------------

def find_I_subgraph_oracle(g: Multigraph, cap: int = 12):
    """Smallest m and a vertex sequence v_1..v_{2m+1} closing an odd cycle
    with multiplicity >= 2 on (v_1,v_2), (v_3,v_4), ..., (v_{2m-1},v_{2m})
    and >= 1 on its other edges; None when there is none."""
    if g.n > cap:
        raise ValueError(f"oracle capped at {cap} vertices")
    for m in range(1, (g.n - 1) // 2 + 1):
        for seq in permutations(range(g.n), 2 * m + 1):
            cycle = zip(seq, seq[1:] + seq[:1])
            if all(g.multiplicity(u, v) >= (2 if i < 2 * m and i % 2 == 0 else 1)
                   for i, (u, v) in enumerate(cycle)):
                return m, seq
    return None
