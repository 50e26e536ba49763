"""Enumeration of cover colorings, tree packings, and multiset conversion.

A coloring is a tuple of absolute color indices (0..2), one per vertex,
whose chosen colors avoid every matching slot of the cover.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .covers import Cover, ListAssignment, assert_valid, full_lists
from .graphs import Multigraph
from .rationals import integral

Q = Fraction

Coloring = tuple[int, ...]
ColoringDistribution = list[tuple[Coloring, Fraction]]


class ColoringError(ValueError):
    pass


def _check_lists(g: Multigraph, lists: ListAssignment) -> None:
    if len(lists) != g.n:
        raise ColoringError(f"lists cover {len(lists)} vertices, graph has {g.n}")
    for v, colors in enumerate(lists):
        if not colors or any(c not in (0, 1, 2) for c in colors):
            raise ColoringError(f"bad list {colors} at vertex {v}")
        if len(set(colors)) != len(colors):
            raise ColoringError(f"repeated color in list at vertex {v}")


def _conflict_tables(g: Multigraph, cover: Cover, order: Sequence[int]):
    """For each vertex, the constraints imposed by earlier-placed neighbors.

    Entry (u, banned) at position of v: banned[cu] is the bitmask of colors
    of v excluded when u already has color cu.
    """
    position = {v: i for i, v in enumerate(order)}
    tables: list[list[tuple[int, list[int]]]] = [[] for _ in order]
    for (a, b), perms in cover.matchings.items():
        early, late = (a, b) if position[a] < position[b] else (b, a)
        banned = [0, 0, 0]
        for p in perms:
            if early < late:
                for c_early in range(3):
                    banned[c_early] |= 1 << p[c_early]
            else:
                for c_late in range(3):
                    banned[p[c_late]] |= 1 << c_late
        tables[position[late]].append((early, banned))
    return tables


def enumerate_colorings(g: Multigraph, cover: Cover,
                        lists: Optional[ListAssignment] = None) -> list[Coloring]:
    """All colorings, duplicate-free, sorted lexicographically.

    Backtracking runs along a BFS order from vertex 0 so dense neighborhoods
    prune early; the result list is sorted in vertex-index coordinates.
    The cover is checked before the lists.
    """
    assert_valid(g, cover)
    return _colorings_of_valid_cover(g, cover,
                                     full_lists(g.n) if lists is None else lists)


def _colorings_of_valid_cover(g: Multigraph, cover: Cover,
                              lists: ListAssignment) -> list[Coloring]:
    """`enumerate_colorings` for a cover the caller has already validated;
    the lists are still checked."""
    _check_lists(g, lists)
    order = g.bfs_order()
    tables = _conflict_tables(g, cover, order)
    result: list[Coloring] = []
    chosen = [0] * g.n

    def place(k: int) -> None:
        if k == g.n:
            result.append(tuple(chosen))
            return
        v = order[k]
        forbidden = 0
        for u, banned in tables[k]:
            forbidden |= banned[chosen[u]]
        for c in lists[v]:
            if not forbidden >> c & 1:
                chosen[v] = c
                place(k + 1)

    place(0)
    result.sort()
    return result


# ---------------------------------------------------------------------------
# Tree packings with 2-lists
# ---------------------------------------------------------------------------

def tree_pack_2cover(tree: Multigraph, cover: Cover,
                     lists: ListAssignment) -> tuple[Coloring, Coloring]:
    """Two disjoint colorings of a tree jointly covering all listed colors.

    Each tree edge carries one matching; restricted to the 2-lists it pins
    zero, one, or two color pairs.  The pinned pairs are extended to a
    bijection between the endpoint lists (unmatched colors are compatible
    with everything, so any extension is safe), after which the two
    colorings propagate from the root by always taking the color the
    bijection does not force out.
    """
    if not tree.is_connected() or tree.edge_total() != tree.n - 1:
        raise ColoringError("input is not a tree")
    _check_lists(tree, lists)
    if any(len(colors) != 2 for colors in lists):
        raise ColoringError("tree packing needs 2-lists everywhere")
    assert_valid(tree, cover)
    bijection: dict[tuple[int, int], dict[int, int]] = {}
    for u, v in tree.pairs():
        slots = cover.slots(u, v)
        if len(slots) != 1:
            raise ColoringError(f"tree pair ({u},{v}) must carry exactly one matching")
        perm = slots[0]
        beta: dict[int, int] = {}
        for a in lists[u]:
            if perm[a] in lists[v]:
                beta[a] = perm[a]
        free_u = [a for a in lists[u] if a not in beta]
        free_v = [b for b in lists[v] if b not in beta.values()]
        for a, b in zip(free_u, free_v):
            beta[a] = b
        bijection[(u, v)] = beta

    phi1 = [-1] * tree.n
    phi2 = [-1] * tree.n
    root = 0
    phi1[root], phi2[root] = lists[root]
    stack = [root]
    seen = {root}
    while stack:
        u = stack.pop()
        for v in tree.neighbors(u):
            if v in seen:
                continue
            seen.add(v)
            if u < v:
                forward = bijection[(u, v)]
            else:
                forward = {b: a for a, b in bijection[(v, u)].items()}
            for phi in (phi1, phi2):
                blocked = forward[phi[u]]
                phi[v] = next(c for c in lists[v] if c != blocked)
            stack.append(v)
    return tuple(phi1), tuple(phi2)


# ---------------------------------------------------------------------------
# Rational distributions as uniform multisets
# ---------------------------------------------------------------------------

def distribution_to_multiset(dist: ColoringDistribution) -> list[Coloring]:
    """Multiset of size lcm(denominators) realizing the same marginals.

    Each coloring appears N*weight times, so sampling uniformly from the
    result reproduces every per-color probability exactly.
    """
    weights = [w for _, w in dist]
    if any(w < 0 for w in weights):
        raise ColoringError("negative weight in distribution")
    if sum(weights, Q(0)) != 1:
        raise ColoringError("weights must sum to 1")
    counts, _ = integral(weights)
    multiset: list[Coloring] = []
    for (coloring, _), count in zip(dist, counts):
        multiset.extend([coloring] * count)
    multiset.sort()
    return multiset


def marginal(dist: ColoringDistribution, v: int, c: int) -> Fraction:
    """Probability that vertex v receives color c under the distribution."""
    return sum((w for coloring, w in dist if coloring[v] == c), Q(0))
