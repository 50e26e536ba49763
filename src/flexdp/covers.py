"""Correspondence 3-covers: representation, validation, and enumeration.

A cover stores, for each unordered vertex pair {u,v} carrying s parallel
edges, a set of at most s pairwise-distinct permutations of {0,1,2}.  The
permutation is always oriented from min(u,v) to max(u,v): color i at the
smaller endpoint conflicts with color perm[i] at the larger one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from typing import Callable, Iterator, Optional, Sequence

from .graphs import GraphError, GraphFormatError, Multigraph, gen_family

Q = Fraction

Perm = tuple[int, int, int]

PERMS: tuple[Perm, ...] = tuple(sorted(permutations(range(3))))
IDENTITY: Perm = (0, 1, 2)
SWAP01: Perm = (1, 0, 2)
SWAP02: Perm = (2, 1, 0)

ListAssignment = tuple[tuple[int, ...], ...]


class CoverError(ValueError):
    """Invalid cover structure or kind/graph mismatch."""


def full_lists(n: int) -> ListAssignment:
    return ((0, 1, 2),) * n


class Cover:
    """Immutable map from vertex pairs to their matching permutations."""

    __slots__ = ("matchings",)

    def __init__(self, matchings: dict[tuple[int, int], Sequence[Perm]]):
        cleaned = {}
        for (u, v), perms in sorted(matchings.items()):
            if u >= v:
                raise CoverError(f"pair ({u},{v}) must be ordered min,max")
            cleaned[(u, v)] = tuple(tuple(p) for p in perms)
        object.__setattr__(self, "matchings", cleaned)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.matchings)

    def slots(self, u: int, v: int) -> tuple[Perm, ...]:
        key = (u, v) if u < v else (v, u)
        return self.matchings.get(key, ())

    def key(self) -> tuple:
        return tuple((pair, perms) for pair, perms in self.matchings.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Cover) and self.matchings == other.matchings

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Cover({self.matchings})"


def validate(g: Multigraph, cover: Cover) -> list[tuple[tuple[int, int], str]]:
    """Check a cover against its graph; empty list means ok.

    Violations: matchings on a non-edge, more matchings than the edge
    multiplicity, non-bijective rows, duplicate permutations on one pair.
    """
    problems = []
    for (u, v), perms in cover.matchings.items():
        mult = g.multiplicity(u, v) if max(u, v) < g.n else 0
        if mult == 0:
            problems.append(((u, v), "pair is not an edge of the graph"))
            continue
        if len(perms) > mult:
            problems.append(((u, v), f"{len(perms)} matchings exceed multiplicity {mult}"))
        seen = set()
        for p in perms:
            if sorted(p) != [0, 1, 2]:
                problems.append(((u, v), f"matching {p} is not a permutation of (0,1,2)"))
            elif p in seen:
                problems.append(((u, v), f"duplicate matching {p}"))
            seen.add(p)
    return problems


def assert_valid(g: Multigraph, cover: Cover) -> None:
    problems = validate(g, cover)
    if problems:
        raise CoverError("; ".join(f"{pair}: {msg}" for pair, msg in problems))


def straight_cover(g: Multigraph) -> Cover:
    """Identity matchings; doubled pairs also get the (0 1) swap.

    Multiplicity 1 -> identity only; 2 -> identity plus swap; 3 or more ->
    identity, swap(0,1), swap(0,2), truncated at three distinct matchings.
    """
    matchings = {}
    for u, v, m in g.edge_items():
        if m == 1:
            matchings[(u, v)] = (IDENTITY,)
        elif m == 2:
            matchings[(u, v)] = (IDENTITY, SWAP01)
        else:
            matchings[(u, v)] = (IDENTITY, SWAP01, SWAP02)
    return Cover(matchings)


# ---------------------------------------------------------------------------
# The adversarial covers of the tight families
# ---------------------------------------------------------------------------

def tight_cover(kind: str, g: Multigraph, m: Optional[int] = None,
                chains: Optional[Sequence[int]] = None) -> Cover:
    """The cover that witnesses the family's tightness: the straight cover
    of the family's graph, with the s kind's chain exits swapped.

    im  -- identities on the cycle, swap(0,1) added on every doubled pair;
           under it the last cycle vertex can never receive color 2.
    jm  -- identities everywhere, swap(0,1) added on the doubled cycle pairs
           and on both doubled pendants; pins the optimum to 1/5.
    s   -- identities inside the cycle and the diamond chains; each chain
           exit edge w_j v_{j+1} carries the single matching swap(0,1).
    c2x -- identity plus swap(0,1) on the doubled pair, giving the doubled
           edge plus 4-cycle shape on colors.
    h5  -- identities plus swap(0,1) on the doubled base of the house.

    `g` must be the graph `gen_family` builds for the kind (c2 for c2x);
    when `gen_family` builds none for these arguments, as for a graph too
    small to infer m >= 1 from, the mismatch is a CoverError too.
    """
    kind = kind.lower()
    if kind not in ("im", "jm", "s", "c2x", "h5"):
        raise CoverError(f"unknown cover kind {kind!r}")
    if kind == "s" and chains is None:
        raise CoverError("the s kind needs the chain lengths used to generate the graph")
    if m is None and kind in ("im", "jm"):
        m = (g.n - 1) // 2 if kind == "im" else (g.n - 3) // 2
    try:
        family = gen_family("c2" if kind == "c2x" else kind, m, chains)[0]
    except GraphError as exc:
        raise CoverError(f"graph does not match the {kind} generator layout: "
                         f"{exc}") from exc
    if g != family:
        raise CoverError(f"graph does not match the {kind} generator layout")
    matchings = dict(straight_cover(g).matchings)
    if kind == "s":
        exit_vertex = 2 * len(chains)  # last cycle vertex; a diamond adds 3
        for j, t in enumerate(chains):
            exit_vertex += 3 * t
            matchings[(2 * j + 1, exit_vertex)] = (SWAP01,)
    return Cover(matchings)


# ---------------------------------------------------------------------------
# Enumeration of cover classes
# ---------------------------------------------------------------------------

_PERM_ID = {p: i for i, p in enumerate(PERMS)}
_COMPOSE = tuple(tuple(_PERM_ID[tuple(a[b[i]] for i in range(3))] for b in PERMS)
                 for a in PERMS)                    # id of a after b
_INVERSE = tuple(_PERM_ID[tuple(p.index(i) for i in range(3))] for p in PERMS)
# _TWIST[q][a * 6 + b]: q once its ends' lists are relabeled by a and b, b q a^-1
_TWIST = tuple(tuple(_COMPOSE[_COMPOSE[b][q]][_INVERSE[a]] for a in range(6) for b in range(6))
               for q in range(6))
# a set of perm ids, as a bit mask, mapped to the set of their inverses
_INVERSE_MASK = tuple(sum(1 << _INVERSE[q] for q in range(6) if mask >> q & 1)
                      for mask in range(64))


def _automorphism_generators(g: Multigraph) -> list[tuple[int, ...]]:
    """Generators of Aut(G), found without listing the group.

    For k = n-1 down to 0, and for each v > k that the generators found so
    far cannot send k to, a backtracking search looks for one automorphism
    that fixes 0..k-1 and sends k to v.  It extends a partial vertex map one
    vertex at a time and prunes on degree and on the multiplicities to the
    vertices already mapped.  The maps found fixing 0..k-1 then reach the
    whole orbit of k, so by induction they generate each point stabiliser
    and finally Aut(G) (Sims 1970).  Each map found lies outside the group
    the earlier ones generate, so it at least doubles that group: there are
    at most log2 |Aut(G)| of them.
    """
    n = g.n
    mult = [[g.multiplicity(u, v) for v in range(n)] for u in range(n)]
    degree = [sum(row) for row in mult]

    def fits(image: list[int], v: int) -> bool:
        k = len(image)
        return (v not in image and degree[v] == degree[k]
                and all(mult[v][w] == mult[k][u] for u, w in enumerate(image)))

    def extend(image: list[int]) -> Optional[tuple[int, ...]]:
        if len(image) == n:
            return tuple(image)
        for v in range(n):
            if fits(image, v):
                found = extend(image + [v])
                if found is not None:
                    return found
        return None

    generators: list[tuple[int, ...]] = []
    for k in reversed(range(n)):
        orbit = {k}
        for v in range(k + 1, n):
            if v in orbit or not fits(list(range(k)), v):
                continue
            found = extend(list(range(k)) + [v])
            if found is not None:
                generators.append(found)
                frontier = list(orbit)
                while frontier:
                    w = frontier.pop()
                    for p in generators:
                        if p[w] not in orbit:
                            orbit.add(p[w])
                            frontier.append(p[w])
    return generators


class CoverEnumeration:
    """Mixed-radix index that hits every relabeling class at least once.

    Relabeling each list L(v) independently lets the first matching of every
    spanning-tree pair be pinned to the identity.  The tree is the one of
    `Multigraph.bfs`, kept in `tree` as (parent, child) edges in visit
    order; witness hashes depend on that order.  All other slots range over
    the remaining distinct permutations.  Every pair uses its full matching
    budget min(multiplicity, 6): dropping matchings never shrinks the set of
    colorings, so full covers dominate every worst-case question.

    A class can be hit more than once: one permutation applied to every
    list keeps the tree pinned and conjugates the other matchings, and a
    doubled tree pair can have either slot pinned.  On the 23 graphs of
    `theorem_check(4,2)` the 289 indices fall into 82 classes under
    per-vertex relabeling (the gauge group S3^n), and into 76 orbits once
    graph automorphisms act too.  `representatives` picks one index per
    S3^n x Aut(G) orbit, and every question whose answer is invariant under
    that group (epsilon* with full lists) need only be asked there.
    `class_index` sends any full cover to an index of its S3^n class, so a
    question already answered per orbit can be looked up for any cover.
    Both search through `_relabeled_indices`, whose tables are built on
    first use, not by the constructor.
    """

    def __init__(self, g: Multigraph):
        if g.n == 0:
            raise CoverError("cover enumeration requires at least one vertex")
        order, parent = g.bfs()
        if parent.count(-1) > 1:
            raise CoverError("cover enumeration requires a connected graph")
        self.g = g
        self.tree = [(parent[y], y) for y in order[1:]]
        tree = {(min(x, y), max(x, y)) for x, y in self.tree}
        self.pairs: list[tuple[int, int]] = list(g.pairs())
        self.choices: list[tuple[tuple[Perm, ...], ...]] = []
        non_identity = tuple(p for p in PERMS if p != IDENTITY)
        for u, v in self.pairs:
            k = min(g.multiplicity(u, v), 6)
            if (u, v) in tree:
                opts = tuple((IDENTITY,) + combo
                             for combo in combinations(non_identity, k - 1))
            else:
                opts = tuple(combinations(PERMS, k))
            self.choices.append(opts)
        self.count = 1
        for opts in self.choices:
            self.count *= len(opts)

    def _digits(self, index: int) -> list[int]:
        digits = []
        for opts in reversed(self.choices):
            index, d = divmod(index, len(opts))
            digits.append(d)
        digits.reverse()
        return digits

    def at(self, index: int) -> Cover:
        if not (0 <= index < self.count):
            raise IndexError(index)
        digits = self._digits(index)
        return Cover({pair: self.choices[i][d]
                      for i, (pair, d) in enumerate(zip(self.pairs, digits))})

    def representatives(self, limit: int) -> tuple[list[int], list[int]]:
        """One index per S3^n x Aut(G) orbit among the indices 0..limit-1.

        Scans the indices in order.  An index no earlier class reached is a
        representative, and `_relabeled_indices` marks its whole S3^n class
        below the limit.  Graph automorphisms then merge classes: for each
        class and each generator from `_automorphism_generators`, the
        image's class is found the same way and joined to it (union-find,
        smaller index as root).  Each representative is therefore the
        smallest index of its merged orbit.  With limit = count the merged
        sets are exactly the orbits; below it, two classes of one orbit
        that are linked only through indices past the limit both stay
        representatives, which costs an LP but changes no answer.

        Cost: per class, 1 + (number of generators) runs of
        `_relabeled_indices`, each bounded by its distinct states, never
        by |Aut(G)| or by the size of the gauge group.  Returns the
        representatives in increasing order and, per index, its
        representative.
        """
        masks = self._gauge[1]

        def cover_masks(index: int) -> list[int]:
            return [masks[t][d] for t, d in enumerate(self._digits(index))]

        rep_of = [-1] * limit
        classes = []
        for index in range(limit):
            if rep_of[index] < 0:
                classes.append(index)
                for j in self._relabeled_indices(cover_masks(index), limit):
                    rep_of[j] = index

        root = {c: c for c in classes}

        def find(c: int) -> int:
            while root[c] != c:
                root[c] = c = root[root[c]]
            return c

        position = {pair: t for t, pair in enumerate(self.pairs)}
        # per generator: where each pair goes, and whether its ends swap order
        moves = [[(position[min(p[u], p[v]), max(p[u], p[v])], p[u] > p[v])
                  for u, v in self.pairs] for p in _automorphism_generators(self.g)]
        for c in classes:
            cover = cover_masks(c)
            for move in moves:
                image = [0] * len(cover)
                for mask, (target, flip) in zip(cover, move):
                    image[target] = _INVERSE_MASK[mask] if flip else mask
                found = self._relabeled_indices(image, limit, first=True)
                if found:
                    a, b = find(c), find(rep_of[found.pop()])
                    root[max(a, b)] = min(a, b)
        return [c for c in classes if find(c) == c], [find(r) for r in rep_of]

    def class_index(self, cover: Cover) -> int:
        """An index of the cover's S3^n class: one found by
        `_relabeled_indices` below `count`, not always the class's smallest.

        The cover must have exactly the enumeration's slot count on every
        pair, so full covers of this graph qualify; any other raises
        CoverError.
        """
        mask = {pair: sum(1 << _PERM_ID[p] for p in perms)
                for pair, perms in cover.matchings.items()}
        if mask.keys() != set(self.pairs):
            raise CoverError("cover pairs differ from the graph's")
        found = self._relabeled_indices([mask[pair] for pair in self.pairs],
                                        self.count, first=True)
        if not found:
            raise CoverError("cover is in no class of this enumeration")
        return found.pop()

    @cached_property
    def _gauge(self) -> tuple[list[tuple], list[list[int]], Callable]:
        """Built on first use and kept: the `_pinning_steps`, each pair's
        choices as bit masks of perm ids, and `table(t, mask)`, the index
        contribution of pair t for its ends' relabelings (a, b) at a * 6 + b.
        A pairing the enumeration lacks contributes `count`, which pushes the
        index past every limit."""
        masks = [[sum(1 << _PERM_ID[p] for p in combo) for combo in opts]
                 for opts in self.choices]
        digit_of = [{mask: d for d, mask in enumerate(row)} for row in masks]
        weights = []
        weight = 1
        for opts in reversed(self.choices):
            weights.append(weight)
            weight *= len(opts)
        weights.reverse()
        tables: dict[tuple[int, int], tuple[int, ...]] = {}

        def table(t: int, mask: int) -> tuple[int, ...]:
            if (t, mask) not in tables:
                twists = [_TWIST[q] for q in range(6) if mask >> q & 1]
                row = []
                for ab in range(36):
                    d = digit_of[t].get(sum(1 << twist[ab] for twist in twists))
                    row.append(self.count if d is None else d * weights[t])
                tables[t, mask] = tuple(row)
            return tables[t, mask]

        return self._pinning_steps(), masks, table

    def __getstate__(self) -> dict:
        """Without `_gauge`, which holds a closure; a copy builds its own."""
        return {k: v for k, v in self.__dict__.items() if k != "_gauge"}

    def _pinning_steps(self) -> list[tuple]:
        """The plan `_relabeled_indices` follows: one step per BFS tree edge.

        Vertices get their relabeling in BFS order.  A pair with more than
        one choice is read when its later end is relabeled; a vertex's
        relabeling is kept (in the frontier) while a read or a tree child
        still needs it.  A step is (x's place in the frontier, the tree
        pair, whether x is its smaller end, the reads as (pair, place of u,
        place of v) in the frontier extended by the child, the places kept).
        """
        order = [0] + [y for _, y in self.tree]
        rank = {v: k for k, v in enumerate(order)}
        needed = [0] * self.g.n
        reads: list[list[tuple[int, int, int]]] = [[] for _ in order]
        for t, (u, v) in enumerate(self.pairs):
            if len(self.choices[t]) > 1:
                k = max(rank[u], rank[v])
                reads[k].append((t, u, v))
                needed[u] = max(needed[u], k)
                needed[v] = max(needed[v], k)
        for k, (x, _) in enumerate(self.tree, 1):
            needed[x] = max(needed[x], k)
        position = {pair: t for t, pair in enumerate(self.pairs)}
        frontier, steps = [0], []
        for k, (x, y) in enumerate(self.tree, 1):
            extended = frontier + [y]
            place = {v: i for i, v in enumerate(extended)}
            frontier = [v for v in extended if needed[v] > k]
            steps.append((place[x], position[min(x, y), max(x, y)], x < y,
                          tuple((t, place[u], place[v]) for t, u, v in reads[k]),
                          tuple(place[v] for v in frontier)))
        return steps

    def _relabeled_indices(self, cover: list[int], limit: int,
                           first: bool = False) -> set[int]:
        """Indices below `limit` of the tree-pinned relabelings of a cover:
        all of them, or with `first` any one.

        `cover` gives each pair's matchings as a bit mask of perm ids.  The
        root's list takes each of the 6 relabelings, and down the tree each
        child's relabeling follows from which slot of its tree pair becomes
        the identity.  The search is depth-first over states (step, index
        so far, frontier relabelings); it visits each state once and drops
        any whose index so far already reaches `limit` (digits only add),
        so its cost is bounded by the distinct states, not by the
        6 * product(tree slot counts) relabelings they stand for.
        """
        steps, _, table = self._gauge
        work = [(x_at, [_INVERSE[q] if down else q
                        for q in range(6) if cover[tree_pair] >> q & 1],
                 [(table(t, cover[t]), u_at, v_at) for t, u_at, v_at in reads], keep)
                for x_at, tree_pair, down, reads, keep in steps]
        stack = [(0, 0, r) for r in range(6)] if work else [(0, 0)]
        seen, found = set(), set()
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            k, index, *gauge = state
            if k == len(work):
                found.add(index)
                if first:
                    break
                continue
            x_at, pins, rows, keep = work[k]
            parent = gauge[x_at]
            for pin in pins:
                frontier = gauge + [_COMPOSE[parent][pin]]
                total = index
                for row, u_at, v_at in rows:
                    total += row[frontier[u_at] * 6 + frontier[v_at]]
                if total < limit:
                    stack.append((k + 1, total, *(frontier[i] for i in keep)))
        return found

    def __iter__(self) -> Iterator[Cover]:
        for i in range(self.count):
            yield self.at(i)


# ---------------------------------------------------------------------------
# List distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ListDistribution:
    """Finitely supported distribution over list assignments."""

    outcomes: tuple[tuple[ListAssignment, Fraction], ...]

    def __post_init__(self):
        total = Q(0)
        for lists, prob in self.outcomes:
            if prob < 0:
                raise CoverError(f"negative probability {prob}")
            total += prob
        if total != 1:
            raise CoverError(f"probabilities sum to {total}, not 1")


def trivial_list_distribution(n: int) -> ListDistribution:
    """The empty list distribution: full lists with probability one.

    Only a valid h-list distribution when no vertex has rho = 3.
    """
    return ListDistribution(((full_lists(n), Q(1)),))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_cover(text: str, g: Optional[Multigraph] = None) -> Cover:
    """Parse `match U V P0 P1 P2` lines; validate against g when given."""
    matchings: dict[tuple[int, int], list[Perm]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0].lower() != "match" or len(fields) != 6:
            raise GraphFormatError(f"line {lineno}: expected 'match U V P0 P1 P2'")
        try:
            u, v, p0, p1, p2 = (int(f) for f in fields[1:])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from exc
        if u == v:
            raise GraphFormatError(f"line {lineno}: pair endpoints equal")
        matchings.setdefault((min(u, v), max(u, v)), []).append((p0, p1, p2))
    cover = Cover({pair: tuple(perms) for pair, perms in matchings.items()})
    if g is not None:
        assert_valid(g, cover)
    return cover


def serialize_cover(cover: Cover) -> str:
    lines = []
    for (u, v), perms in cover.matchings.items():
        for p in perms:
            lines.append(f"match {u} {v} {p[0]} {p[1]} {p[2]}")
    return "\n".join(lines) + "\n"
