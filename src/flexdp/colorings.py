"""Enumeration of cover colorings, tree packings, and multiset conversion.

A coloring is a tuple of absolute color indices (0..2), one per vertex,
whose chosen colors avoid every matching slot of the cover.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .covers import Cover, ListAssignment, assert_valid, full_lists
from .graphs import Multigraph
from .rationals import integral

Q = Fraction

Coloring = tuple[int, ...]
ColoringDistribution = list[tuple[Coloring, Fraction]]

ENUMERATION_CAP = 10 ** 7   # most colorings x vertices one enumeration holds


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
    prune early, on an explicit stack, so depth is not bounded by Python's
    recursion limit; the result list is sorted in vertex-index coordinates.
    The cover is checked before the lists.  More than ENUMERATION_CAP
    entries (colorings times vertices) raise ColoringError: a 1,100-vertex
    path with full lists has 3 * 2^1099 colorings.
    """
    assert_valid(g, cover)
    return _colorings_of_valid_cover(g, cover,
                                     full_lists(g.n) if lists is None else lists)


@cache
def _choices(k: int, colors: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each mask f of forbidden colors, a (k, c) for each color c of
    `colors` outside f: the entries to push for the k-th vertex placed."""
    return tuple(tuple((k, c) for c in colors if not f >> c & 1) for f in range(8))


def _colorings_of_valid_cover(g: Multigraph, cover: Cover,
                              lists: ListAssignment) -> list[Coloring]:
    """`enumerate_colorings` for a cover the caller has already validated;
    the lists are still checked."""
    _check_lists(g, lists)
    if g.n == 0:
        return [()]
    order = g.bfs()[0]
    tables = _conflict_tables(g, cover, order)
    choices = [_choices(k, tuple(lists[v])) for k, v in enumerate(order)]
    result: list[Coloring] = []
    chosen = [0] * g.n
    last = g.n - 1
    most = ENUMERATION_CAP // g.n
    # Popping (k, c) gives order[k] the color c and pushes the choices left
    # for order[k + 1]; they are all popped before anything below them.
    stack = list(choices[0][0])
    while stack:
        k, c = stack.pop()
        chosen[order[k]] = c
        if k == last:
            result.append(tuple(chosen))
            if len(result) > most:
                raise ColoringError(f"more than {most} colorings of {g.n} "
                                    f"vertices: input too large to enumerate")
            continue
        k += 1
        forbidden = 0
        for u, banned in tables[k]:
            forbidden |= banned[chosen[u]]
        stack += choices[k][forbidden]
    result.sort()
    return result


# ---------------------------------------------------------------------------
# Tree packings with 2-lists
# ---------------------------------------------------------------------------

def tree_pack_2cover(tree: Multigraph, cover: Cover,
                     lists: ListAssignment) -> tuple[Coloring, Coloring]:
    """Two disjoint colorings of a tree jointly covering all listed colors.

    The root takes its list in order.  Down the BFS tree, the parent's two
    colors block two different colors at the child, since its one matching
    is a bijection, and they cannot both miss the child's 2-list, which
    leaves one color outside it.  So exactly one order of the child's list
    avoids both blocked colors, and the child takes that order.
    """
    if not tree.is_connected() or tree.edge_total() != tree.n - 1:
        raise ColoringError("input is not a tree")
    _check_lists(tree, lists)
    if any(len(colors) != 2 for colors in lists):
        raise ColoringError("tree packing needs 2-lists everywhere")
    assert_valid(tree, cover)
    for u, v in tree.pairs():
        if len(cover.slots(u, v)) != 1:
            raise ColoringError(f"tree pair ({u},{v}) must carry exactly one matching")
    order, parent = tree.bfs()
    phi1, phi2 = [-1] * tree.n, [-1] * tree.n
    phi1[0], phi2[0] = lists[0]
    for v in order[1:]:
        u = parent[v]
        (perm,) = cover.slots(u, v)
        # color c at u blocks block(c) at v; perm runs from the smaller end
        block = perm.__getitem__ if u < v else perm.index
        first, second = lists[v]
        if first == block(phi1[u]) or second == block(phi2[u]):
            first, second = second, first
        phi1[v], phi2[v] = first, second
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
