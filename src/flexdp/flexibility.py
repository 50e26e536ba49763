"""Flexibility computations: epsilon*, packings, and framework feasibility.

Everything is phrased as an exact LP over the enumerated colorings of a
cover, with each row built from its nonzeros only: a (vertex, color) row
is 1 at the colorings in that pair's `_support`.  The dual multipliers of
the marginal constraints are reported as the worst weighted request
certifying the optimum.  Only `epsilon_below`, the worst-cover search's
query, settles most covers without an LP, by exact bounds and
certificates of its own: the uniform floor, six colorings that give every
marginal exactly 1/3, k colorings that together use every pair, which give
every marginal at least 1/k, and j pairs that no coloring uses two of, which
bound epsilon* by 1/j.  The last two are the integral cover and packing
sides of the duality behind epsilon* (Lovasz 1975, "On the ratio of optimal
integral and fractional covers", Discrete Math. 13), and epsilon* is 1/j
exactly where they, or the floor, meet.  `epsilon_below` takes its cover as
the enumeration's (pair, perm-id mask) items and works on the colorings as
masks (`colorings.coloring_masks`): the floor's counts, the certificates and
their exact checks.  Tuples and `_support` are built only for a cover that
reaches the LP.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Optional, Sequence

from .colorings import (Coloring, ColoringDistribution, _colorings_of_valid_cover,
                        coloring_masks, colorings_of_masks, enumerate_colorings,
                        pair_bit)
from .covers import (Cover, ListAssignment, ListDistribution, assert_valid,
                     full_lists)
from .graphs import Multigraph, PotentialAssignment
from .lp import LinearProgram, LpInternalError, solve
from .rationals import json_rat

Q = Fraction
THIRD = Q(1, 3)     # the largest epsilon* there is


class InadmissibleDistribution(ValueError):
    """The list distribution fails the forbid-probability requirement."""


@dataclass(frozen=True)
class FlexReport:
    """Exact optimum with primal and dual certificates.

    `worst_request` maps every listed (vertex, color) to a nonnegative
    weight with total 1; no coloring collects more than epsilon_star of it
    and some coloring in the support collects exactly that much.
    """

    epsilon_star: Fraction
    colorable: bool
    distribution: tuple[tuple[Coloring, Fraction], ...]
    worst_request: dict[tuple[int, int], Fraction]


def _require_vertices(g: Multigraph) -> None:
    if g.n == 0:
        raise ValueError("flexibility queries need at least one vertex")


def _support(colorings: Sequence[Coloring], lists: ListAssignment
             ) -> dict[tuple[int, int], list[int]]:
    """For each listed (vertex, color), in list order, the indices of the
    colorings that use it."""
    where: dict[tuple[int, int], list[int]] = {
        (v, c): [] for v, colors in enumerate(lists) for c in colors}
    for i, phi in enumerate(colorings):
        for v, c in enumerate(phi):
            if (v, c) in where:
                where[(v, c)].append(i)
    return where


def _marginal_columns(g: Multigraph, cover: Cover, lists: ListAssignment
                      ) -> tuple[list[Coloring], dict[tuple[int, int], list[int]]]:
    """Validate the inputs; return the colorings and their `_support`.
    `enumerate_colorings` checks the cover, then the lists."""
    _require_vertices(g)
    colorings = enumerate_colorings(g, cover, lists)
    return colorings, _support(colorings, lists)


def _feasible_support(columns: Sequence, rows) -> Optional[list]:
    """(column, weight) pairs with nonzero weight at a feasible point of
    `rows`, x >= 0, one variable per column; None when infeasible.  The
    objective is zero, so the program is never unbounded."""
    k = len(columns)
    outcome = solve(LinearProgram(k, (0,) * k, tuple(rows)))
    if outcome.status != "optimal":
        return None
    return [(col, x) for col, x in zip(columns, outcome.primal) if x != 0]


def epsilon_star(g: Multigraph, cover: Cover) -> FlexReport:
    """max eps s.t. some distribution gives every color marginal >= eps.

    Returns eps* = 0 with a flagged report when the cover admits no coloring
    at all, which composes with minimisation over covers.  A color missing
    from every coloring yields eps* = 0 without an LP solve; the
    certificate is the unit request on that color.
    """
    return _epsilon_report(*_marginal_columns(g, cover, full_lists(g.n)))


def _epsilon_report(colorings: list[Coloring],
                    where: dict[tuple[int, int], list[int]]) -> FlexReport:
    """`epsilon_star` over the colorings and `_support` it enumerated."""
    pairs = list(where)
    dead = next((pair for pair in pairs if not where[pair]), None)
    if dead is not None:            # the first pair when there is no coloring
        request = {pair: Q(0) for pair in pairs}
        request[dead] = Q(1)
        dist = tuple((phi, Q(1, len(colorings))) for phi in colorings)
        return FlexReport(Q(0), bool(colorings), dist, request)

    k = len(colorings)
    rows = [({**dict.fromkeys(where[pair], 1), k: -1}, ">=", Q(0))  # marginal - eps
            for pair in pairs]
    rows.append((dict.fromkeys(range(k), 1), "=", Q(1)))
    outcome = solve(LinearProgram(k + 1, (0,) * k + (1,), tuple(rows)))
    if outcome.status != "optimal":   # feasible at eps = 0 and bounded by 1
        raise LpInternalError(f"the epsilon* LP reported {outcome.status}")
    dist = tuple((phi, x) for phi, x in zip(colorings, outcome.primal) if x != 0)
    weights = [-outcome.dual[i] for i in range(len(pairs))]
    total = sum(weights, Q(0))
    request = {pair: w / total for pair, w in zip(pairs, weights)}
    return FlexReport(outcome.value, True, dist, request)


def _floor(g: Multigraph, masks: Sequence[tuple[tuple[int, int], int]]
           ) -> tuple[Fraction, list[int]]:
    """The uniform floor of the cover given as (pair, perm-id mask) items,
    the smallest full-list marginal of the uniform distribution over its
    colorings (0 when there is none), with the colorings as
    `coloring_masks` gives them.

    Any distribution certifies a lower bound on epsilon*, so the floor is
    one; and since the three marginals at a vertex sum to 1, epsilon* <=
    1/3, so a floor of 1/3 is epsilon* itself.
    """
    _require_vertices(g)
    colorings, counts = coloring_masks(g, masks)
    return (Q(min(counts), len(colorings)) if colorings else Q(0)), colorings


def _six_colorings(n: int, colorings: Sequence[int]) -> Optional[list[int]]:
    """Six of the coloring masks that, with weight 1/6 each, give every
    (vertex, color) marginal exactly 1/3; None when the search finds none.

    For a root r and each color c it looks for two colorings that give r
    the color c and differ at every other vertex v, so miss one color
    m_c(v) there.  When m_0(v), m_1(v) and m_2(v) differ at every v != r,
    every color at v is used by exactly two of the six.  "Differ off r" is
    one AND, and m_2 is looked up as the complement of m_0 | m_1.
    """
    full = (1 << 3 * n) - 1
    for r in range(n):
        at_r = [pair_bit(n, r, c) for c in range(3)]
        off_r = full & ~sum(at_r)
        missed: list[dict[int, tuple[int, int]]] = []   # m_c -> one pair
        for bit in at_r:
            group = [a for a in colorings if a & bit]
            pairs: dict[int, tuple[int, int]] = {}
            for x, a in enumerate(group):
                for b in group[x + 1:]:
                    if not a & b & off_r:
                        pairs.setdefault(off_r & ~(a | b), (a, b))
            if not pairs:
                break
            missed.append(pairs)
        else:
            for m0, first in missed[0].items():
                for m1, second in missed[1].items():
                    third = None if m0 & m1 else missed[2].get(off_r & ~(m0 | m1))
                    if third is not None:
                        return [*first, *second, *third]
    return None


# Most nodes one `_k_cover` or `_exclusive_pairs` search visits.  The covers
# found at (6,2) and (7,1) took at most 937 and 1,888 nodes, the largest
# exclusive sets at most 101 and 127; a failed cover search stops in about
# 0.7 ms (2-core Xeon, Python 3.11), less than the small LP it falls back to.
COVER_NODE_CAP = 2000


def _k_cover(n: int, colorings: Sequence[int], k: int) -> Optional[list[int]]:
    """At most k of the coloring masks whose union uses every full-list
    (vertex, color) pair; None when the search finds none.

    With weight 1/j on j <= k such colorings every marginal is at least
    1/k, so epsilon* >= 1/k: the uniform, integral case of the fractional
    packing that epsilon* is.  A depth-first search on an explicit stack:
    it branches on the lowest uncovered pair (the highest bit), over the
    colorings that use it in their order, and prunes a node when more
    pairs are uncovered than n times the colorings left (each coloring
    uses n pairs).  It gives up after COVER_NODE_CAP nodes, so a failed
    search stays cheap and its answer does not depend on time.
    """
    users: dict[int, list[int]] = {}    # per pair's bit, the colorings using it
    stack: list[tuple[int, tuple[int, ...]]] = [((1 << 3 * n) - 1, ())]
    for _ in range(COVER_NODE_CAP):
        if not stack:
            break
        uncovered, chosen = stack.pop()
        if not uncovered:
            return list(chosen)
        if uncovered.bit_count() > n * (k - len(chosen)):
            continue
        top = 1 << uncovered.bit_length() - 1
        if top not in users:
            users[top] = [m for m in colorings if m & top]
        stack += [(uncovered & ~m, chosen + (m,)) for m in reversed(users[top])]
    return None


def _exclusive_pairs(n: int, colorings: Sequence[int]) -> int:
    """The largest set S of full-list (vertex, color) pairs that no coloring
    uses two of, as a mask over the colorings' bits; 0 when the search
    visits no node.

    With weight 1/|S| on each pair of S no coloring collects more than
    1/|S|, so epsilon* <= 1/|S|: the uniform, integral case of the worst
    request that bounds epsilon* from above.  A pair's co-use mask is the
    OR of the colorings that use it, and S is a maximum independent set of
    the graph those masks give.  A depth-first search on an explicit stack
    branches on the lowest allowed pair (the highest bit), taking it or
    dropping it, and prunes a node whose chosen and allowed pairs together
    cannot beat the best set found.  It stops after COVER_NODE_CAP nodes
    with the best set found so far, which is pairwise exclusive, so the
    bound holds anyway.
    """
    co_use: dict[int, int] = {}         # per pair's bit, filled on first use
    best = 0
    stack = [((1 << 3 * n) - 1, 0)]     # (allowed, chosen)
    for _ in range(COVER_NODE_CAP):
        if not stack:
            break
        allowed, chosen = stack.pop()
        if chosen.bit_count() + allowed.bit_count() <= best.bit_count():
            continue
        if not allowed:
            best = chosen
            continue
        top = 1 << allowed.bit_length() - 1
        if top not in co_use:
            co_use[top] = reduce(or_, [m for m in colorings if m & top], 0)
        stack += [(allowed ^ top, chosen),
                  ((allowed ^ top) & ~co_use[top], chosen | top)]
    return best


def _covered(n: int, colorings: Sequence[int], k: int) -> bool:
    """Whether `_k_cover` finds at most k colorings that use every pair,
    so that epsilon* >= 1/k; a cover that fails its exact check raises."""
    chosen = _k_cover(n, colorings, k)
    if chosen is not None and (len(chosen) > k
                               or reduce(or_, chosen, 0) != (1 << 3 * n) - 1):
        raise LpInternalError("k colorings failed their cover check")
    return chosen is not None


def epsilon_below(g: Multigraph, masks: Sequence[tuple[tuple[int, int], int]],
                  best: Fraction) -> tuple[Optional[Fraction], int]:
    """`epsilon_star(g, cover).epsilon_star` for the full cover given as
    (pair, perm-id mask) items, as `CoverEnumeration` holds it, or None
    when it cannot fall below `best`; and the number of LPs solved (0 or 1).

    Each call checks the masks against g and enumerates the colorings
    once, as masks, for the uniform floor (`_floor`), and settles the
    cover without an LP in five ways, all on those masks.  A floor of 1/3
    or 0 is epsilon*: epsilon* lies between the floor and 1/3, and a floor
    of 0 is a listed color no coloring uses.  A floor of at least `best`
    gives None.  Six colorings from `_six_colorings` give epsilon* = 1/3,
    after their marginals are checked exactly.  When `best` = 1/k with k >=
    4, at most k colorings from `_k_cover` that use every pair, checked
    exactly, give epsilon* >= best and so None.  Never at `best` = 1/3:
    that is the value a caller starts from, so no earlier cover holds it.
    Then j pairs from `_exclusive_pairs` that no coloring uses two of,
    checked exactly, give epsilon* <= 1/j; that is epsilon* itself when the
    floor is 1/j, or when at most j colorings use every pair, and the value
    is returned.  Otherwise the colorings become tuples, with their
    `_support`, and one LP is solved over them.
    """
    floor, colorings = _floor(g, masks)
    if not 0 < floor < THIRD:
        return floor, 0
    if floor >= best:
        return None, 0
    n = g.n
    six = _six_colorings(n, colorings)
    if six is not None:     # at weight 1/6 each, a marginal of 1/3 is two of six
        if any(sum(m >> b & 1 for m in six) != 2 for b in range(3 * n)):
            raise LpInternalError("six colorings failed their marginal check")
        return THIRD, 0
    if best < THIRD and best.numerator == 1 and _covered(   # best = 1/k, k >= 4
            n, colorings, best.denominator):
        return None, 0
    exclusive = _exclusive_pairs(n, colorings)
    j = exclusive.bit_count()
    if j:
        if any((m & exclusive).bit_count() > 1 for m in colorings):
            raise LpInternalError("exclusive pairs failed their check")
        if floor == Q(1, j) or _covered(n, colorings, j):
            return Q(1, j), 0
    tuples = colorings_of_masks(n, colorings)
    return _epsilon_report(tuples, _support(tuples, full_lists(n))).epsilon_star, 1


def fractional_packing(g: Multigraph, cover: Cover) -> Optional[ColoringDistribution]:
    """Distribution with every full-list marginal exactly 1/3, if one exists."""
    colorings, where = _marginal_columns(g, cover, full_lists(g.n))
    if not colorings or not all(where.values()):
        return None
    return _feasible_support(colorings, [(dict.fromkeys(cols, 1), "=", Q(1, 3))
                                         for cols in where.values()])


def box_distribution(g: Multigraph, cover: Cover, lists: ListAssignment,
                     lower: Fraction, upper: Fraction,
                     pinned: Sequence[tuple[int, int, Fraction]] = ()
                     ) -> Optional[ColoringDistribution]:
    """Feasibility with lower <= marginal <= upper and exact pinned entries."""
    lower, upper = Q(lower), Q(upper)
    if lower > upper:
        raise ValueError(f"lower bound {lower} exceeds upper bound {upper}")
    colorings, where = _marginal_columns(g, cover, lists)
    pins: dict[tuple[int, int], Fraction] = {}
    for v, c, val in pinned:
        if not 0 <= v < g.n:
            raise ValueError(f"pinned vertex {v} out of range for {g.n} vertices")
        if c not in lists[v]:
            raise ValueError(f"pinned color {c} not in the list of vertex {v}")
        val = Q(val)
        if pins.get((v, c), val) != val:
            raise ValueError(f"({v},{c}) pinned to both {pins[(v, c)]} and {val}")
        pins[(v, c)] = val
    if not colorings:
        return None
    rows = []
    for pair, cols in where.items():
        coeffs = dict.fromkeys(cols, 1)
        bounds = [("=", pins[pair])] if pair in pins else [(">=", lower), ("<=", upper)]
        rows += [(coeffs, rel, rhs) for rel, rhs in bounds]
    rows.append((dict.fromkeys(range(len(colorings)), 1), "=", Q(1)))
    return _feasible_support(colorings, rows)


@dataclass(frozen=True)
class FrameworkWitness:
    """Joint distribution over (list outcome, coloring) pairs."""

    outcomes: tuple[tuple[ListAssignment, tuple[tuple[Coloring, Fraction], ...]], ...]

    def overall(self) -> ColoringDistribution:
        merged: dict[Coloring, Fraction] = {}
        for _, colorings in self.outcomes:
            for phi, w in colorings:
                merged[phi] = merged.get(phi, Q(0)) + w
        return sorted(merged.items())


def check_admissible(g: Multigraph, pa: PotentialAssignment,
                     dist: ListDistribution, eps: Fraction) -> None:
    """Each 2-list vertex must forbid every color with probability >= eps."""
    for lists, _ in dist.outcomes:
        if len(lists) != g.n:
            raise ValueError("list assignment does not match the vertex set")
        for v in range(g.n):
            if len(lists[v]) != pa.list_size(v):
                raise ValueError(
                    f"outcome list at vertex {v} has size {len(lists[v])}, "
                    f"expected {pa.list_size(v)}")
    for v in pa.pi(3):
        for c in range(3):
            forbid = sum((prob for lists, prob in dist.outcomes
                          if c not in lists[v]), Q(0))
            if forbid < eps:
                raise InadmissibleDistribution(
                    f"color {c} at vertex {v} forbidden with probability "
                    f"{forbid} < {eps}")


def framework_feasible(g: Multigraph, pa: PotentialAssignment, cover: Cover,
                       dist: ListDistribution, eps: Fraction
                       ) -> Optional[FrameworkWitness]:
    """Feasibility of an eps-distribution against the given list distribution.

    Overall marginals must reach eps on every color of every full list, and
    rho = 4 vertices are held to the exact equalities: 2*eps at the
    basepoint and 1/2 - eps elsewhere.  Inadmissible list distributions
    raise; an infeasible LP returns None.
    """
    eps = Q(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    _require_vertices(g)
    assert_valid(g, cover)
    if pa.n != g.n:
        raise ValueError("potential assignment does not match the graph")
    check_admissible(g, pa, dist, eps)

    active = [(lists, prob) for lists, prob in dist.outcomes if prob > 0]
    owner: list[int] = []
    colorings: list[Coloring] = []
    for o, (lists, _) in enumerate(active):
        found = _colorings_of_valid_cover(g, cover, lists)
        if not found:
            return None
        owner += [o] * len(found)
        colorings += found
    where = _support(colorings, full_lists(g.n))
    if not all(where.values()):
        return None

    rows = [(dict.fromkeys((i for i, x in enumerate(owner) if x == o), 1), "=", prob)
            for o, (_, prob) in enumerate(active)]
    rows += [(dict.fromkeys(cols, 1), ">=", eps) for cols in where.values()]
    for v in pa.pi(4):
        for c in range(3):
            target = 2 * eps if c == pa.basepoint[v] else Q(1, 2) - eps
            rows.append((dict.fromkeys(where[(v, c)], 1), "=", target))
    support = _feasible_support(list(zip(owner, colorings)), rows)
    if support is None:
        return None
    grouped: list[list[tuple[Coloring, Fraction]]] = [[] for _ in active]
    for (o, phi), weight in support:
        grouped[o].append((phi, weight))
    return FrameworkWitness(tuple((lists, tuple(found))
                                  for (lists, _), found in zip(active, grouped)))


def flex_report_json(report: FlexReport) -> dict:
    """Schema: rationals as 'p/q' strings, colorings space-separated."""
    return {
        "epsilon_star": json_rat(report.epsilon_star),
        "colorable": report.colorable,
        "distribution": [[" ".join(map(str, phi)), json_rat(w)]
                         for phi, w in report.distribution],
        "worst_request": [[v, c, json_rat(w)]
                          for (v, c), w in sorted(report.worst_request.items())
                          if w != 0],
    }
