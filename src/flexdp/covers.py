"""Correspondence 3-covers: representation, validation, and enumeration.

A cover stores, for each unordered vertex pair {u,v} carrying s parallel
edges, a set of at most s pairwise-distinct permutations of {0,1,2}.  The
permutation is always oriented from min(u,v) to max(u,v): color i at the
smaller endpoint conflicts with color perm[i] at the larger one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

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

    def masks(self) -> list[tuple[tuple[int, int], int]]:
        """Each pair with its matchings as a bit mask of perm ids (bit q for
        PERMS[q]).  A mask cannot hold a matching that is no permutation of
        (0,1,2) or one listed twice, so either raises CoverError."""
        items = []
        for pair, perms in self.matchings.items():
            mask = 0
            for p in perms:
                q = _PERM_ID.get(p)
                if q is None:
                    raise CoverError(f"{pair}: matching {p} is not a permutation of (0,1,2)")
                if mask >> q & 1:
                    raise CoverError(f"{pair}: duplicate matching {p}")
                mask |= 1 << q
            items.append((pair, mask))
        return items

    def __eq__(self, other) -> bool:
        return isinstance(other, Cover) and self.matchings == other.matchings

    def __hash__(self) -> int:
        return hash(tuple(self.matchings.items()))

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


def assert_valid_masks(g: Multigraph, masks: Iterable[tuple[tuple[int, int], int]]) -> None:
    """`assert_valid` for a cover given as (pair, perm-id mask) items, as
    `Cover.masks` and `CoverEnumeration` hold them: every pair an edge,
    ordered min, max, with at most its multiplicity of perms.  The mask
    holds distinct permutations by construction."""
    problems = []
    for (u, v), mask in masks:
        mult = g.multiplicity(u, v) if 0 <= u < v < g.n else 0
        if mult == 0:
            problems.append(f"{(u, v)}: pair is not an edge of the graph")
        elif not 0 <= mask < 64:
            problems.append(f"{(u, v)}: {mask} is not a mask of perm ids")
        elif mask.bit_count() > mult:
            problems.append(f"{(u, v)}: {mask.bit_count()} matchings exceed "
                            f"multiplicity {mult}")
    if problems:
        raise CoverError("; ".join(problems))


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
# the perms of each mask, in PERMS order
_PERMS_OF = tuple(tuple(p for q, p in enumerate(PERMS) if mask >> q & 1)
                  for mask in range(64))


@cache
def _choices(k: int, pinned: bool) -> tuple[int, ...]:
    """The masks a pair with k slots can hold, in the `combinations` order
    of their perms; a pinned pair's all hold the identity, perm id 0."""
    if pinned:
        return tuple(1 + sum(1 << q for q in c) for c in combinations(range(1, 6), k - 1))
    return tuple(sum(1 << q for q in c) for c in combinations(range(6), k))


# `_digit_row`s per pair kind 2k + pinned (k slots) and mask, kept from first use
_DIGIT_ROWS: list[list[Optional[tuple[int, ...]]]] = [[None] * 64 for _ in range(14)]


def _digit_row(kind: int, mask: int) -> tuple[int, ...]:
    """For each relabeling (a, b) of the ends of a pair of kind 2k + pinned,
    at a * 6 + b, the position in `_choices(k, pinned)` of the pair's `mask`
    once twisted, or -1 when the twisted mask is no choice there."""
    row = _DIGIT_ROWS[kind][mask]
    if row is None:
        choices = _choices(kind >> 1, bool(kind & 1))
        position = {choice: d for d, choice in enumerate(choices)}
        twists = [_TWIST[q] for q in range(6) if mask >> q & 1]
        row = _DIGIT_ROWS[kind][mask] = tuple(
            position.get(sum(1 << twist[ab] for twist in twists), -1) for ab in range(36))
    return row


@cache
def _conjugates(choices: tuple[int, ...], width: int) -> tuple[int, ...]:
    """For each choice of a `_choices` tuple, the positions there of its six
    conjugates r q r^-1, r = 0..5, packed one per slot of `width` bits.
    Relabeling every list by r conjugates every matching, so a pair whose
    digit is d when the root keeps its labels has, when the root takes r,
    the digit in slot r of `_conjugates(choices, width)[d]`."""
    position = {choice: d for d, choice in enumerate(choices)}
    return tuple(sum(position[sum(1 << _TWIST[q][7 * r] for q in range(6) if choice >> q & 1)]
                     << width * r for r in range(6))
                 for choice in choices)


def _automorphism_generators(g: Multigraph) -> list[tuple[int, ...]]:
    """Generators of Aut(G), found without listing the group.

    For k = n-2 down to 0, and for each v > k that the generators found so
    far cannot send k to, a backtracking search looks for one automorphism
    that fixes 0..k-1 and sends k to v.  It extends a partial vertex map one
    vertex at a time, depth first on an explicit stack, smallest candidate
    first.  A vertex with an already-mapped neighbour u can only go to a
    neighbour of u's image, and a candidate must match its degree and its
    multiplicities to the mapped vertices, which it does exactly when the
    two neighbourhoods agree on them.  The maps found fixing 0..k-1 then
    reach the whole orbit of k, so by induction they generate each point
    stabiliser and finally Aut(G) (Sims 1970).  Each map found lies outside
    the group the earlier ones generate, so it at least doubles that group:
    there are at most log2 |Aut(G)| of them.
    """
    n = g.n
    # each neighbourhood in increasing order, with its multiplicities
    adj = [{w: g.multiplicity(v, w) for w in g.neighbors(v)} for v in range(n)]
    degree = [g.degree(v) for v in range(n)]
    lower = [[(u, m) for u, m in adj[k].items() if u < k] for k in range(n)]
    image: list[int] = []           # the partial map, of 0..len(image)-1

    def candidates() -> list[int]:
        """The vertices that can be the image of the next vertex, k."""
        k, taken = len(image), set(image)
        mapped = lower[k]
        pool = adj[image[mapped[0][0]]] if mapped else range(n)
        return [v for v in pool if v not in taken and degree[v] == degree[k]
                and all(adj[v].get(image[u]) == m for u, m in mapped)
                and sum(w in taken for w in adj[v]) == len(mapped)]

    def extend() -> Optional[tuple[int, ...]]:
        stack = [(len(image), v) for v in reversed(candidates())]
        while stack:
            k, v = stack.pop()
            image[k:] = [v]
            if k + 1 == n:
                return tuple(image)
            stack.extend((k + 1, w) for w in reversed(candidates()))
        return None

    generators: list[tuple[int, ...]] = []
    for k in reversed(range(n - 1)):
        image[:] = range(k)
        orbit = {k}
        for v in candidates():
            if v <= k or v in orbit:
                continue
            image[k:] = [v]
            found = extend()
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
    colorings, so full covers dominate every worst-case question.  `choices`
    holds each pair's options as bit masks of perm ids (`_choices`).

    A class can be hit more than once: one permutation applied to every
    list keeps the tree pinned and conjugates the other matchings, and a
    doubled tree pair can have either slot pinned.  On the 23 graphs of
    `theorem_check(4,2)` the 289 indices fall into 82 classes under
    per-vertex relabeling (the gauge group S3^n), and into 76 orbits once
    graph automorphisms act too.  `representatives` picks one index per
    S3^n x Aut(G) orbit, and every question whose answer is invariant under
    that group (epsilon* with full lists) need only be asked there.
    `class_index` sends any full cover, carried along a vertex map onto
    this graph, to an index of its S3^n class, so a question already
    answered per orbit can be looked up for any cover.  Both carry covers
    as (pair, mask) items and look their classes up through one helper
    (`_carried_index`), which the theorem check also feeds straight from
    another enumeration's masks; `_masks` gives the cover at an index in
    that form, which is what the worst-cover search evaluates, and `at`
    the same cover as a `Cover`.  The class search fixes the root's labels
    and carries the other five root relabelings as conjugates, one packed
    index per root (`_relabeled_indices`).  It reads process-wide digit
    rows, filled per pair kind and mask on first use (`_digit_row`), and a
    pinning plan built on first use; an enumeration is plain data.
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
        self.choices: list[tuple[int, ...]] = [
            _choices(min(g.multiplicity(u, v), 6), (u, v) in tree) for u, v in self.pairs]
        self.count, self._weights = 1, []   # an index is sum(digit * weight)
        for opts in reversed(self.choices):
            self._weights.append(self.count)
            self.count *= len(opts)
        self._weights.reverse()
        self._plan: Optional[tuple[list[tuple], int, int]] = None   # `_pinning_plan`

    def _masks(self, index: int) -> list[int]:
        """The cover at `index`, as each pair's mask."""
        return [opts[index // w % len(opts)] for w, opts in zip(self._weights, self.choices)]

    def at(self, index: int) -> Cover:
        if not (0 <= index < self.count):
            raise IndexError(index)
        return Cover({pair: _PERMS_OF[mask]
                      for pair, mask in zip(self.pairs, self._masks(index))})

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
        rep_of = [-1] * limit
        classes = []
        for index in range(limit):
            if rep_of[index] < 0:
                classes.append(index)
                for j in self._relabeled_indices(self._masks(index), limit):
                    rep_of[j] = index

        root = {c: c for c in classes}

        def find(c: int) -> int:
            while root[c] != c:
                root[c] = c = root[root[c]]
            return c

        generators = [dict(enumerate(p)) for p in _automorphism_generators(self.g)]
        for c in classes:
            cover = list(zip(self.pairs, self._masks(c)))
            for phi in generators:
                found = self._carried_index(cover, phi, limit)
                if found >= 0:
                    a, b = find(c), find(rep_of[found])
                    root[max(a, b)] = min(a, b)
        return [c for c in classes if find(c) == c], [find(r) for r in rep_of]

    def class_index(self, cover: Cover, phi: Optional[dict[int, int]] = None) -> int:
        """An index of the S3^n class of the cover, carried along the vertex
        map phi onto this graph when given (`_carried_index`): one found
        below `count`, not always the class's smallest.  The carried cover
        must have exactly the enumeration's slot count on every pair, as
        full covers of this graph, or of a graph whose 2-core phi maps onto
        it, have; any other raises CoverError."""
        return self._carried_index(cover.masks(), phi or {v: v for v in range(self.g.n)},
                                   self.count)

    def _carried_index(self, masks: Iterable[tuple[tuple[int, int], int]],
                       phi: dict, limit: int) -> int:
        """One index below `limit` of the S3^n class of a cover, or -1 when
        none is.  The cover's (pair, mask) items, of some graph, are carried
        along phi onto this graph's pairs: a pair with an end outside phi is
        dropped, and one whose ends swap order takes the inverse perms.
        Raises CoverError unless the pairs land on exactly this graph's, or
        when no index at all is in the class (a slot count differs)."""
        image = {}
        for (u, v), mask in masks:
            if u in phi and v in phi:
                a, b = phi[u], phi[v]
                if a > b:
                    a, b, mask = b, a, _INVERSE_MASK[mask]
                image[a, b] = mask
        carried = [image.get(pair) for pair in self.pairs]
        if len(image) != len(carried) or None in carried:
            raise CoverError("cover pairs differ from the graph's")
        found = self._relabeled_indices(carried, limit, first=True)
        if found:
            return found.pop()
        if limit < self.count:
            return -1
        raise CoverError("cover is in no class of this enumeration")

    def _pinning_plan(self) -> tuple[list[tuple], int, int]:
        """The plan `_relabeled_indices` follows, one step per BFS tree
        edge, the slot width of its packed indices and a 1 in each slot.

        Vertices get their relabeling in BFS order.  A pair with more than
        one choice is read when its later end is relabeled; a vertex's
        relabeling is kept (in the frontier) while a read or a tree child
        still needs it.  A step is (x's place in the frontier, the tree
        pair, whether x is its smaller end, the reads, the places kept).  A
        read is (pair, its kind for `_digit_row`, the place of u, the place
        of v in the frontier extended by the child, and per digit d the
        pair's weight times d's packed `_conjugates`).  No slot overflows:
        each holds a partial index, below `count`.
        """
        order = [0] + [y for _, y in self.tree]
        rank = {v: k for k, v in enumerate(order)}
        tree = {(min(x, y), max(x, y)) for x, y in self.tree}
        width = self.count.bit_length() + 1
        needed = [0] * self.g.n
        reads: list[list[tuple]] = [[] for _ in order]
        for t, ((u, v), choices, weight) in enumerate(zip(self.pairs, self.choices,
                                                          self._weights)):
            if len(choices) > 1:
                k = max(rank[u], rank[v])
                packed = tuple(six * weight for six in _conjugates(choices, width))
                reads[k].append((t, u, v, 2 * min(self.g.multiplicity(u, v), 6)
                                 + ((u, v) in tree), packed))
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
                          tuple((t, kind, place[u], place[v], packed)
                                for t, u, v, kind, packed in reads[k]),
                          tuple(place[v] for v in frontier)))
        return steps, width, sum(1 << width * r for r in range(6))

    def _relabeled_indices(self, cover: list[int], limit: int,
                           first: bool = False) -> set[int]:
        """Indices below `limit` of the tree-pinned relabelings of a cover:
        all of them, or with `first` one.

        `cover` gives each pair's matchings as a bit mask of perm ids.  The
        root keeps its labels, and down the tree each child's relabeling
        follows from which slot of its tree pair becomes the identity; each
        pair read then adds its `_digit_row` digit times its weight, and a
        pairing the enumeration lacks (digit -1) drops the state.  The five
        other relabelings of the root relabel every list by the same
        permutation, which conjugates every matching and so maps each
        pair's digit to another of its digits (`_conjugates`).  Each state
        therefore carries all six roots' partial indices, packed one per
        slot of `width` bits, and a read adds one packed integer.  The
        search is depth-first over states (step, packed indices, frontier
        relabelings); it visits each state once and drops one whose six
        indices so far all reach `limit` (digits only add), so it visits at
        most as many states as six searches with the root fixed at each
        relabeling, and its cost is bounded by the distinct states, not by
        the 6 * product(tree slot counts) relabelings they stand for.  With
        `first` it returns the index of the highest root that has one,
        taking that root's first in depth-first order, and stops searching
        the roots at or below the best found.
        """
        if self._plan is None:
            self._plan = self._pinning_plan()
        steps, width, ones = self._plan
        limit = min(limit, self.count)
        work = [(x_at, [_INVERSE[q] if down else q
                        for q in range(6) if cover[tree_pair] >> q & 1],
                 [(_digit_row(kind, cover[t]), packed, u_at, v_at)
                  for t, kind, u_at, v_at, packed in reads], keep)
                for x_at, tree_pair, down, reads, keep in steps]
        # a slot holds less than 2^(width - 1); adding `bias` sets its top
        # bit exactly when it reaches the limit
        top, slot = 1 << width - 1, (1 << width) - 1
        roots = list(range(5, -1, -1))      # the roots still searched
        wanted, bias = top * ones, (top - limit) * ones
        stack = [(0, 0, 0)] if work else [(0, 0)]
        seen, found = set(), set()
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            k, packed, *gauge = state
            if k == len(work):
                for r in roots:
                    index = packed >> width * r & slot
                    if index < limit:
                        if not first:
                            found.add(index)
                            continue
                        found = {index}
                        roots = roots[:roots.index(r)]
                        wanted = top * ones >> width * (r + 1) << width * (r + 1)
                        break
                if not roots:
                    break
                continue
            x_at, pins, rows, keep = work[k]
            parent = gauge[x_at]
            for pin in pins:
                frontier = gauge + [_COMPOSE[parent][pin]]
                total = packed
                for digits, weights, u_at, v_at in rows:
                    digit = digits[frontier[u_at] * 6 + frontier[v_at]]
                    if digit < 0:
                        break
                    total += weights[digit]
                else:
                    if (total + bias) & wanted != wanted:
                        stack.append((k + 1, total, *(frontier[i] for i in keep)))
        return found


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
