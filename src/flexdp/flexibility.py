"""Flexibility computations: epsilon*, packings, and framework feasibility.

Everything is phrased as an exact LP over the enumerated colorings of a
cover.  The dual multipliers of the marginal constraints are reported as
the worst weighted request certifying the optimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .colorings import (Coloring, ColoringDistribution, _colorings_of_valid_cover,
                        enumerate_colorings)
from .covers import (Cover, ListAssignment, ListDistribution, assert_valid,
                     full_lists)
from .graphs import Multigraph, PotentialAssignment
from .lp import LinearProgram, LpInternalError, solve
from .rationals import json_rat

Q = Fraction


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


def _indicator(width: int, columns: Sequence[int]) -> tuple[int, ...]:
    """0/1 row of the given width with ones at `columns`, as Python ints:
    the LPs here have integer coefficients and Fraction right-hand sides."""
    coeffs = [0] * width
    for i in columns:
        coeffs[i] = 1
    return tuple(coeffs)


def _feasible_support(columns: Sequence, rows) -> Optional[list]:
    """(column, weight) pairs with nonzero weight at a feasible point of
    `rows`, x >= 0, one variable per column; None when infeasible.  The
    objective is zero, so the program is never unbounded."""
    k = len(columns)
    outcome = solve(LinearProgram(k, (0,) * k, tuple(rows)))
    if outcome.status != "optimal":
        return None
    return [(col, x) for col, x in zip(columns, outcome.primal) if x != 0]


def epsilon_star(g: Multigraph, cover: Cover,
                 lists: Optional[ListAssignment] = None,
                 shortcut: bool = True) -> FlexReport:
    """max eps s.t. some distribution gives every listed color marginal >= eps.

    Returns eps* = 0 with a flagged report when the cover admits no coloring
    at all, which composes with minimisation over covers.  With `shortcut`
    a listed color missing from every coloring yields eps* = 0 without an
    LP solve; the certificate is the unit request on that color.
    """
    if lists is None:
        lists = full_lists(g.n)
    return _epsilon_report(*_marginal_columns(g, cover, lists), shortcut)


def _epsilon_report(colorings: list[Coloring],
                    where: dict[tuple[int, int], list[int]],
                    shortcut: bool) -> FlexReport:
    """`epsilon_star` over the colorings and `_support` it enumerated."""
    pairs = list(where)
    if not colorings:
        request = {pair: Q(0) for pair in pairs}
        request[pairs[0]] = Q(1)
        return FlexReport(Q(0), False, (), request)
    if shortcut:
        dead = next((pair for pair in pairs if not where[pair]), None)
        if dead is not None:
            uniform = Q(1, len(colorings))
            request = {pair: Q(0) for pair in pairs}
            request[dead] = Q(1)
            dist = tuple((phi, uniform) for phi in colorings)
            return FlexReport(Q(0), True, dist, request)

    k = len(colorings)
    rows = [(_indicator(k, where[pair]) + (-1,), ">=", Q(0)) for pair in pairs]
    rows.append(((1,) * k + (0,), "=", Q(1)))
    outcome = solve(LinearProgram(k + 1, (0,) * k + (1,), tuple(rows)))
    if outcome.status != "optimal":   # feasible at eps = 0 and bounded by 1
        raise LpInternalError(f"the epsilon* LP reported {outcome.status}")
    dist = tuple((phi, x) for phi, x in zip(colorings, outcome.primal) if x != 0)
    weights = [-outcome.dual[i] for i in range(len(pairs))]
    total = sum(weights, Q(0))
    request = {pair: w / total for pair, w in zip(pairs, weights)}
    return FlexReport(outcome.value, True, dist, request)


def uniform_floor(g: Multigraph, cover: Cover) -> Fraction:
    """Smallest full-list marginal of the uniform distribution over the
    cover's colorings, 0 when there is none.

    Any distribution certifies a lower bound on epsilon*, so this is one;
    and since the three marginals at a vertex sum to 1, epsilon* <= 1/3, so
    a floor of 1/3 is epsilon* itself.
    """
    return _floor_and_query(g, cover)[0]


def _floor_and_query(g: Multigraph, cover: Cover
                     ) -> tuple[Fraction, Callable[[], FlexReport]]:
    """`uniform_floor(g, cover)`, and a call that returns
    `epsilon_star(g, cover)` from the same enumeration of the colorings:
    worst-cover search reads the floor of every cover and solves the LP
    only for the covers the floor does not settle."""
    colorings, where = _marginal_columns(g, cover, full_lists(g.n))
    floor = Q(min(map(len, where.values())), len(colorings)) if colorings else Q(0)
    return floor, lambda: _epsilon_report(colorings, where, True)


def fractional_packing(g: Multigraph, cover: Cover) -> Optional[ColoringDistribution]:
    """Distribution with every full-list marginal exactly 1/3, if one exists."""
    colorings, where = _marginal_columns(g, cover, full_lists(g.n))
    if not colorings or not all(where.values()):
        return None
    k = len(colorings)
    return _feasible_support(colorings, [(_indicator(k, cols), "=", Q(1, 3))
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
    k = len(colorings)
    rows = []
    for pair, cols in where.items():
        coeffs = _indicator(k, cols)
        if pair in pins:
            rows.append((coeffs, "=", pins[pair]))
        else:
            rows.append((coeffs, ">=", lower))
            rows.append((coeffs, "<=", upper))
    rows.append(((1,) * k, "=", Q(1)))
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

    k = len(colorings)
    rows = [(_indicator(k, [col for col in range(k) if owner[col] == o]), "=", prob)
            for o, (_, prob) in enumerate(active)]
    rows += [(_indicator(k, cols), ">=", eps) for cols in where.values()]
    for v in pa.pi(4):
        for c in range(3):
            target = 2 * eps if c == pa.basepoint[v] else Q(1, 2) - eps
            rows.append((_indicator(k, where[(v, c)]), "=", target))
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
