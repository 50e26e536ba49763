"""Loopless multigraphs, potential arithmetic, mad, and the tight families.

Vertices are dense integer indices 0..n-1.  Edge multiplicities are stored
as counts keyed by the unordered pair (min, max); parallel edges have no
identity of their own.  All values are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

Q = Fraction

SUBSET_ORACLE_CAP = 20  # the oracle visits all 2^n - 1 subsets
MAX_VERTICES = 10**5    # most vertices a graph may have, checked before any per-vertex list


class GraphError(ValueError):
    """Structural violation: loop, bad index, bad multiplicity."""


class GraphFormatError(ValueError):
    """Malformed graph/cover text input."""


def _check_vertex_count(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")


class Multigraph:
    """Loopless multigraph with positive integer edge multiplicities.

    `bfs` is the one breadth-first walk; `components`, `is_connected`,
    the coloring order and the spanning tree of `CoverEnumeration` read
    from it.
    Each vertex's row of `_adj` maps its neighbours, in increasing order,
    to multiplicities: `_mult` is sorted, so a vertex's smaller neighbours
    are inserted before its larger ones.  `neighbors`, `bfs` and
    `find_I_subgraph` read the rows in that order without sorting.
    """

    __slots__ = ("n", "_mult", "_adj")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, int]] = ()):
        _check_vertex_count(vertex_count)
        self.n = vertex_count
        mult: dict[tuple[int, int], int] = {}
        for u, v, m in edges:
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
            if m < 1:
                raise GraphError(f"multiplicity {m} < 1 on edge ({u},{v})")
            key = (u, v) if u < v else (v, u)
            mult[key] = mult.get(key, 0) + m
        self._mult = dict(sorted(mult.items()))
        adj: dict[int, dict[int, int]] = {v: {} for v in range(vertex_count)}
        for (u, v), m in self._mult.items():
            adj[u][v] = m
            adj[v][u] = m
        self._adj = adj

    # -- queries ---------------------------------------------------------

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._mult)

    def multiplicity(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return self._mult.get(key, 0)

    def degree(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range")
        return sum(self._adj[v].values())

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range")
        return tuple(self._adj[v])

    def edge_total(self) -> int:
        """Number of edges counted with multiplicity."""
        return sum(self._mult.values())

    def edge_items(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((u, v, m) for (u, v), m in self._mult.items())

    def _vertex_set(self, subset: Iterable[int]) -> set[int]:
        s = set(subset)
        for v in s:
            if not (0 <= v < self.n):
                raise GraphError(f"vertex {v} out of range")
        return s

    def edges_within(self, subset: Iterable[int]) -> int:
        """Total multiplicity of edges with both ends in `subset`."""
        s = self._vertex_set(subset)
        return sum(m for (u, v), m in self._mult.items() if u in s and v in s)

    def boundary(self, subset: Iterable[int]) -> int:
        """Total multiplicity of edges with exactly one end in `subset`."""
        s = self._vertex_set(subset)
        return sum(m for (u, v), m in self._mult.items() if (u in s) != (v in s))

    def is_simple(self) -> bool:
        return all(m == 1 for m in self._mult.values())

    # -- derived graphs --------------------------------------------------

    def delete_vertex(self, v: int) -> "Multigraph":
        """Remove v and reindex the remaining vertices densely."""
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range")
        return self.induced([w for w in range(self.n) if w != v])

    def delete_one_edge(self, u: int, v: int) -> "Multigraph":
        """Decrement the multiplicity of pair {u,v} by one."""
        if self.multiplicity(u, v) < 1:
            raise GraphError(f"no edge between {u} and {v}")
        key = (u, v) if u < v else (v, u)
        edges = [(a, b, m if (a, b) != key else m - 1)
                 for (a, b), m in self._mult.items()]
        return Multigraph(self.n, [(a, b, m) for a, b, m in edges if m > 0])

    def induced(self, subset: Sequence[int]) -> "Multigraph":
        keep = sorted(self._vertex_set(subset))
        remap = {v: i for i, v in enumerate(keep)}
        edges = [(remap[u], remap[v], m) for (u, v), m in self._mult.items()
                 if u in remap and v in remap]
        return Multigraph(len(keep), edges)

    def bfs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Breadth-first walk over every vertex: the visit order, and per
        vertex its parent (-1 for the vertex a component's walk starts at).

        The walk starts at vertex 0, restarts at the smallest unseen vertex
        and visits neighbours in increasing order.  So each component is one
        contiguous run of the order, opened by its smallest vertex, and
        every parent comes before its child.
        """
        parent = [-1] * self.n
        seen = [False] * self.n
        order: list[int] = []
        for root in range(self.n):
            if seen[root]:
                continue
            seen[root] = True
            head = len(order)
            order.append(root)
            while head < len(order):
                x = order[head]
                head += 1
                for y in self._adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        parent[y] = x
                        order.append(y)
        return tuple(order), tuple(parent)

    def components(self) -> list[list[int]]:
        """Sorted vertex lists of the components, by smallest vertex."""
        order, parent = self.bfs()
        comps: list[list[int]] = []
        for v in order:
            if parent[v] < 0:
                comps.append([])
            comps[-1].append(v)
        return [sorted(comp) for comp in comps]

    def is_connected(self) -> bool:
        return self.bfs()[1].count(-1) <= 1

    # -- value semantics -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Multigraph)
                and self.n == other.n and self._mult == other._mult)

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._mult.items())))

    def __repr__(self) -> str:
        return f"Multigraph({self.n}, {self.edge_items()})"


@dataclass(frozen=True)
class PotentialAssignment:
    """Per-vertex value in {3,4,6} plus a distinguished basepoint color."""

    rho: tuple[int, ...]
    basepoint: tuple[int, ...]

    def __post_init__(self):
        if len(self.rho) != len(self.basepoint):
            raise GraphError("rho and basepoint must have equal length")
        for r in self.rho:
            if r not in (3, 4, 6):
                raise GraphError(f"rho value {r} not in {{3,4,6}}")
        for b in self.basepoint:
            if b not in (0, 1, 2):
                raise GraphError(f"basepoint {b} not in {{0,1,2}}")

    @classmethod
    def uniform(cls, n: int, value: int = 6, basepoint: int = 0) -> "PotentialAssignment":
        return cls((value,) * n, (basepoint,) * n)

    @property
    def n(self) -> int:
        return len(self.rho)

    def list_size(self, v: int) -> int:
        """h(v): 2 for rho = 3, 3 otherwise."""
        return 2 if self.rho[v] == 3 else 3

    def pi(self, value: int) -> tuple[int, ...]:
        """Vertices with the given rho value."""
        return tuple(v for v, r in enumerate(self.rho) if r == value)

    def restrict(self, keep: Sequence[int]) -> "PotentialAssignment":
        keep = sorted(set(keep))
        return PotentialAssignment(tuple(self.rho[v] for v in keep),
                                   tuple(self.basepoint[v] for v in keep))


def _check_assignment(g: Multigraph, pa: PotentialAssignment) -> None:
    if pa.n != g.n:
        raise GraphError(f"assignment covers {pa.n} vertices, graph has {g.n}")


def potential(g: Multigraph, pa: PotentialAssignment, subset: Iterable[int]) -> int:
    """Sum of rho over the subset minus 4 times the edges inside it."""
    _check_assignment(g, pa)
    s = g._vertex_set(subset)
    return sum(pa.rho[v] for v in s) - 4 * g.edges_within(s)


def sigma(g: Multigraph, pa: PotentialAssignment, v: int) -> int:
    """Initial charge rho(v) - 2 d(v); degrees count multiplicity."""
    _check_assignment(g, pa)
    return pa.rho[v] - 2 * g.degree(v)


# ---------------------------------------------------------------------------
# Maximum average degree
# ---------------------------------------------------------------------------

def mad_subset_oracle(g: Multigraph) -> Fraction:
    """mad by exhaustive subset enumeration; reference oracle for at most
    SUBSET_ORACLE_CAP vertices."""
    if g.n == 0:
        raise GraphError("mad of the empty graph is undefined")
    if g.n > SUBSET_ORACLE_CAP:
        raise GraphError(f"subset oracle capped at {SUBSET_ORACLE_CAP} "
                         f"vertices, got {g.n}")
    pair_bits = [(1 << u | 1 << v, m) for (u, v), m in g._mult.items()]
    best = Q(0)
    for mask in range(1, 1 << g.n):
        inside = sum(m for bits, m in pair_bits if bits & mask == bits)
        dens = Q(2 * inside, mask.bit_count())
        if dens > best:
            best = dens
    return best


def _min_cut(size: int, arcs: Sequence[tuple[int, int, int]],
             s: int, t: int) -> tuple[int, list[int]]:
    """Maximum s-t flow over the arcs (tail, head, capacity), and the source
    side of the minimal minimum cut: the vertices the final BFS reaches from
    s in the residual network, the same set for every maximum flow, listed
    in BFS order (s first).

    Dinic's blocking flows (Dinic 1970): arc 2i is the i-th given arc and
    2i+1 its residual reverse.  Each augmenting path is walked on an
    explicit stack of arcs with a current-arc pointer per vertex; a dead end
    pops one arc and moves its tail's pointer on.
    """
    head: list[int] = []
    cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(size)]
    for u, v, c in arcs:
        out[u].append(len(head))
        out[v].append(len(head) + 1)
        head += (v, u)
        cap += (c, 0)
    flow = 0
    while True:
        level = [-1] * size
        level[s] = 0
        queue = [s]
        for x in queue:
            for e in out[x]:
                if cap[e] > 0 and level[head[e]] < 0:
                    level[head[e]] = level[x] + 1
                    queue.append(head[e])
        if level[t] < 0:
            return flow, queue
        current = [0] * size
        path: list[int] = []
        x = s
        while True:
            if x == t:
                pushed = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                flow += pushed
                path.clear()
                x = s
            row, i = out[x], current[x]
            while i < len(row) and (cap[row[i]] == 0
                                    or level[head[row[i]]] != level[x] + 1):
                i += 1
            current[x] = i
            if i < len(row):
                path.append(row[i])
                x = head[row[i]]
            elif x == s:
                break
            else:
                x = head[path.pop() ^ 1]
                current[x] += 1


def peel(g: Multigraph, floor: int) -> list[int]:
    """The vertices left, in increasing order, after removing vertices of
    multigraph degree at most 1 one at a time until none is left or only
    `floor` vertices are (Batagelj and Zaversnik 2003).  A removed vertex
    has at most one simple edge to the rest, so each removal lowers at
    most one degree by one."""
    degree = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    low = [v for v in range(g.n) if degree[v] <= 1]
    while low and len(alive) > floor:
        v = low.pop()
        alive.remove(v)
        for u in g.neighbors(v):
            if u in alive:
                degree[u] -= 1
                if degree[u] == 1:
                    low.append(u)
    return sorted(alive)


def mad(g: Multigraph) -> Fraction:
    """Exact maximum average degree, max over nonempty U of 2|E(U)|/|U|.

    Vertices of multigraph degree at most 1 are peeled first (`peel`).
    While mad >= 2 such a vertex never lowers the density of a densest set,
    so a nonempty 2-core has g's mad; an empty one means g is a simple
    forest, whose mad is 2(c-1)/c for its largest component of c vertices
    (0 when every vertex is isolated).

    On the core: Dinkelbach iteration (Dinkelbach 1967) on min cuts of the
    classical densest-subgraph network (Goldberg 1984), with guess p/q
    held as two integers.  The network has s->v of capacity 2q*deg(v),
    v->t of 2p and u->v, v->u of 2q*mult(u,v); the cut with source side
    {s} + S has capacity 4q|E| - 4q|E(S)| + 2p|S|, which is 4q|E| at S
    empty.  So a maximum flow below 4q|E| leaves a minimum cut whose source
    side minus s is a nonempty set S strictly denser than p/q, and when
    the flow is 4q|E| no set is.  Starting from the density 2|E|/n of the
    whole core, each step moves the guess to the density of the denser set
    found; the guess is always the density of an actual set and rises
    strictly, so the iteration ends, and it ends at the maximum.  Agreement
    with `mad_subset_oracle` is a tested invariant.
    """
    if g.n == 0:
        raise GraphError("mad of the empty graph is undefined")
    core = peel(g, 0)
    if not core:
        c = max(map(len, g.components()))
        return Q(2 * (c - 1), c)
    if len(core) < g.n:
        g = g.induced(core)
    s, t = g.n, g.n + 1
    total = g.edge_total()
    p, q = 2 * total, g.n
    while True:
        arcs = []
        for v in range(g.n):
            arcs += ((s, v, 2 * q * g.degree(v)), (v, t, 2 * p))
        for (u, v), m in g._mult.items():
            arcs += ((u, v, 2 * q * m), (v, u, 2 * q * m))
        flow, side = _min_cut(g.n + 2, arcs, s, t)
        if flow == 4 * q * total:
            return Q(p, q)
        denser = side[1:]
        p, q = 2 * g.edges_within(denser), len(denser)


# ---------------------------------------------------------------------------
# Detection of the inflexible odd-cycle family
# ---------------------------------------------------------------------------

def find_I_subgraph(g: Multigraph) -> Optional[tuple[int, tuple[int, ...]]]:
    """Smallest m and a witness odd cycle whose alternating edges are doubled.

    The witness (v_1, ..., v_{2m+1}) has multiplicity >= 2 on the pairs
    (v_1,v_2), (v_3,v_4), ..., (v_{2m-1},v_{2m}) and >= 1 on the remaining
    cycle edges.  Extra multiplicity anywhere is allowed.  Returns None when
    no such cycle exists; simple graphs always return None.

    For each m and start vertex, a depth-first search grows the path on a
    stack of (place, vertex) entries, smallest neighbour first, so the
    witness is the lexicographically first sequence for the smallest m.
    The edge leaving place i (from 0) is doubled when i is even and < 2m.
    """
    path: list[int] = []
    used = [False] * g.n
    for m in range(1, (g.n - 1) // 2 + 1):
        length = 2 * m + 1
        for start in range(g.n):
            stack = [(0, start)]
            while stack:
                place, v = stack.pop()
                for w in path[place:]:
                    used[w] = False
                del path[place:]
                path.append(v)
                used[v] = True
                if place == length - 1:
                    if g.multiplicity(v, start) >= 1:
                        return m, tuple(path)
                    continue
                need = 2 if place % 2 == 0 and place < 2 * m else 1
                stack += [(place + 1, w)
                          for w, mult in reversed(g._adj[v].items())
                          if not used[w] and mult >= need]
    return None


# ---------------------------------------------------------------------------
# Family generators
# ---------------------------------------------------------------------------

def gen_family(kind: str, m: Optional[int] = None,
               chains: Optional[Sequence[int]] = None) -> tuple[Multigraph, PotentialAssignment]:
    """Construct the named tight example together with its potential values.

    Kinds and vertex layouts:
      im  -- odd cycle 0..2m on consecutive indices, pairs (0,1),(2,3),...
             doubled; m >= 1.
      jm  -- odd cycle 0..2m, pairs (1,2),(3,4),...,(2m-3,2m-2) doubled,
             pendant 2m+1 doubled to 0 and pendant 2m+2 doubled to 2m-1.
      s   -- odd cycle 0..2m with a diamond chain of chains[j] diamonds
             hung between cycle vertices 2j and 2j+1; chains gives m.
      h5  -- house: doubled base 0-1, walls 0-2 and 1-3, roof 2-3, 2-4, 3-4.
      k4  -- complete graph on 4 vertices.
      c2  -- doubled edge with the exceptional values rho = (4, 6).

    Everything gets rho = 6 and basepoint 0 except the c2 kind; beyond
    MAX_VERTICES vertices, GraphError is raised before anything is built.
    """
    kind = kind.lower()
    if kind == "im":
        if m is None or m < 1:
            raise GraphError("im requires m >= 1")
        n = 2 * m + 1
        _check_vertex_count(n)
        edges = [(j, (j + 1) % n, 1) for j in range(n)]
        edges += [(2 * i, 2 * i + 1, 1) for i in range(m)]
        return Multigraph(n, edges), PotentialAssignment.uniform(n)
    if kind == "jm":
        if m is None or m < 1:
            raise GraphError("jm requires m >= 1")
        cyc = 2 * m + 1
        n = cyc + 2
        _check_vertex_count(n)
        edges = [(j, (j + 1) % cyc, 1) for j in range(cyc)]
        edges += [(j - 1, j, 1) for j in range(2, 2 * m - 1, 2)]
        edges += [(0, cyc, 2), (2 * m - 1, cyc + 1, 2)]
        return Multigraph(n, edges), PotentialAssignment.uniform(n)
    if kind == "s":
        if not chains or any(t < 1 for t in chains):
            raise GraphError("s requires a list of chain lengths >= 1")
        m_val = len(chains)
        cyc = 2 * m_val + 1
        _check_vertex_count(cyc + 3 * sum(chains))
        edges = [(j, (j + 1) % cyc, 1) for j in range(cyc)]
        next_vertex = cyc
        for j, t in enumerate(chains):
            anchor = 2 * j
            for _ in range(t):
                b1, b2, a_next = next_vertex, next_vertex + 1, next_vertex + 2
                next_vertex += 3
                edges += [(anchor, b1, 1), (anchor, b2, 1), (b1, b2, 1),
                          (b1, a_next, 1), (b2, a_next, 1)]
                anchor = a_next
            edges.append((anchor, 2 * j + 1, 1))
        return Multigraph(next_vertex, edges), PotentialAssignment.uniform(next_vertex)
    if kind == "h5":
        edges = [(0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 1), (2, 4, 1), (3, 4, 1)]
        return Multigraph(5, edges), PotentialAssignment.uniform(5)
    if kind == "k4":
        edges = [(u, v, 1) for u, v in combinations(range(4), 2)]
        return Multigraph(4, edges), PotentialAssignment.uniform(4)
    if kind == "c2":
        pa = PotentialAssignment((4, 6), (0, 0))
        return Multigraph(2, [(0, 1, 2)]), pa
    raise GraphError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_LINE_FORMS = {"vertices": "vertices N", "edge": "edge U V MULT",
               "rho": "rho V {3|4|6}", "basepoint": "basepoint V {0|1|2}"}


def parse_graph(text: str) -> tuple[Multigraph, PotentialAssignment]:
    """Parse the line-oriented graph format.

    `vertices N`, then `edge U V MULT` lines (duplicates sum), optional
    `rho V {3|4|6}` (default 6) and `basepoint V {0|1|2}` (default 0).
    Comments start with '#'.
    """
    n: Optional[int] = None
    edges: list[tuple[int, int, int]] = []
    rho_over: dict[int, int] = {}
    bp_over: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        word = fields[0].lower()
        try:
            if word in _LINE_FORMS and len(fields) != len(_LINE_FORMS[word].split()):
                raise GraphFormatError(f"expected {_LINE_FORMS[word]!r}")
            if word == "vertices":
                if n is not None:
                    raise GraphFormatError("duplicate vertices line")
                n = int(fields[1])
            elif word == "edge":
                edges.append((int(fields[1]), int(fields[2]), int(fields[3])))
            elif word == "rho":
                rho_over[int(fields[1])] = int(fields[2])
            elif word == "basepoint":
                bp_over[int(fields[1])] = int(fields[2])
            else:
                raise GraphFormatError(f"unknown directive {word!r}")
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc
    if n is None:
        raise GraphFormatError("missing vertices line")
    g = Multigraph(n, edges)
    rho = [6] * n
    bp = [0] * n
    for v, r in rho_over.items():
        if not (0 <= v < n):
            raise GraphFormatError(f"rho vertex {v} out of range")
        rho[v] = r
    for v, b in bp_over.items():
        if not (0 <= v < n):
            raise GraphFormatError(f"basepoint vertex {v} out of range")
        bp[v] = b
    return g, PotentialAssignment(tuple(rho), tuple(bp))


def serialize_graph(g: Multigraph, pa: Optional[PotentialAssignment] = None) -> str:
    lines = [f"vertices {g.n}"]
    lines += [f"edge {u} {v} {m}" for u, v, m in g.edge_items()]
    if pa is not None:
        _check_assignment(g, pa)
        lines += [f"rho {v} {r}" for v, r in enumerate(pa.rho) if r != 6]
        lines += [f"basepoint {v} {b}" for v, b in enumerate(pa.basepoint) if b != 0]
    return "\n".join(lines) + "\n"
