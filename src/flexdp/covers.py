"""Correspondence 3-covers: representation, validation, and enumeration.

A cover stores, for each unordered vertex pair {u,v} carrying s parallel
edges, a set of at most s pairwise-distinct permutations of {0,1,2}.  The
permutation is always oriented from min(u,v) to max(u,v): color i at the
smaller endpoint conflicts with color perm[i] at the larger one.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator, Optional, Sequence

from .graphs import Multigraph, GraphFormatError

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

    def drop_matching(self, u: int, v: int, index: int) -> "Cover":
        key = (u, v) if u < v else (v, u)
        slots = list(self.matchings[key])
        del slots[index]
        new = dict(self.matchings)
        if slots:
            new[key] = tuple(slots)
        else:
            del new[key]
        return Cover(new)

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

def _require_same_graph(g: Multigraph, expected: Multigraph, kind: str) -> None:
    if g != expected:
        raise CoverError(f"graph does not match the {kind} generator layout")


def tight_cover(kind: str, g: Multigraph, m: Optional[int] = None,
                chains: Optional[Sequence[int]] = None) -> Cover:
    """The cover that witnesses the family's tightness.

    im  -- identities on the cycle, swap(0,1) added on every doubled pair;
           under it the last cycle vertex can never receive color 2.
    jm  -- identities everywhere, swap(0,1) added on the doubled cycle pairs
           and on both doubled pendants; pins the optimum to 1/5.
    s   -- identities inside the cycle and the diamond chains; each chain
           exit edge w_j v_{j+1} carries the single matching swap(0,1).
    c2x -- identity plus swap(0,1) on the doubled pair, giving the doubled
           edge plus 4-cycle shape on colors.
    h5  -- identities plus swap(0,1) on the doubled base of the house.
    """
    from .graphs import gen_family

    kind = kind.lower()
    if kind in ("im", "jm"):
        if m is None:
            m = (g.n - 1) // 2 if kind == "im" else (g.n - 3) // 2
        _require_same_graph(g, gen_family(kind, m)[0], kind)
        return Cover({(u, v): (IDENTITY, SWAP01) if g.multiplicity(u, v) == 2
                      else (IDENTITY,) for u, v in g.pairs()})
    if kind == "s":
        if chains is None:
            raise CoverError("the s kind needs the chain lengths used to generate the graph")
        _require_same_graph(g, gen_family("s", chains=chains)[0], "s")
        matchings = {pair: (IDENTITY,) for pair in g.pairs()}
        next_vertex = 2 * len(chains) + 1
        for j, t in enumerate(chains):
            exit_vertex = next_vertex + 3 * t - 1
            next_vertex += 3 * t
            pair = tuple(sorted((exit_vertex, 2 * j + 1)))
            matchings[pair] = (SWAP01,)
        return Cover(matchings)
    if kind == "c2x":
        if g != Multigraph(2, [(0, 1, 2)]):
            raise CoverError("c2x expects the doubled edge on two vertices")
        return Cover({(0, 1): (IDENTITY, SWAP01)})
    if kind == "h5":
        _require_same_graph(g, gen_family("h5")[0], "h5")
        matchings = {pair: (IDENTITY,) for pair in g.pairs()}
        matchings[(0, 1)] = (IDENTITY, SWAP01)
        return Cover(matchings)
    raise CoverError(f"unknown cover kind {kind!r}")


# ---------------------------------------------------------------------------
# Enumeration of cover classes
# ---------------------------------------------------------------------------

def _spanning_tree_pairs(g: Multigraph) -> set[tuple[int, int]]:
    tree = set()
    seen = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y not in seen:
                seen.add(y)
                tree.add((min(x, y), max(x, y)))
                queue.append(y)
    return tree


class CoverEnumeration:
    """Mixed-radix index that hits every relabeling class at least once.

    Relabeling each list L(v) independently lets the first matching of every
    spanning-tree pair be pinned to the identity; all other slots range over
    the remaining distinct permutations.  A class can be hit more than once:
    one permutation applied to every list keeps the tree pinned and
    conjugates the other matchings (on the (4,2) graphs, 289 indices fall
    into 90 classes).  Every pair uses its full matching budget
    min(multiplicity, 6): dropping matchings never shrinks the set of
    colorings, so full covers dominate every worst-case question.
    """

    def __init__(self, g: Multigraph):
        if not g.is_connected():
            raise CoverError("cover enumeration requires a connected graph")
        self.g = g
        tree = _spanning_tree_pairs(g)
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

    def at(self, index: int) -> Cover:
        if not (0 <= index < self.count):
            raise IndexError(index)
        digits = []
        for opts in reversed(self.choices):
            index, d = divmod(index, len(opts))
            digits.append(d)
        digits.reverse()
        return Cover({pair: self.choices[i][d]
                      for i, (pair, d) in enumerate(zip(self.pairs, digits))})

    def __len__(self) -> int:
        return self.count

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

    @classmethod
    def point_mass(cls, lists: ListAssignment) -> "ListDistribution":
        return cls(((lists, Q(1)),))


def trivial_list_distribution(n: int) -> ListDistribution:
    """The empty list distribution: full lists with probability one.

    Only a valid h-list distribution when no vertex has rho = 3.
    """
    return ListDistribution.point_mass(full_lists(n))


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
