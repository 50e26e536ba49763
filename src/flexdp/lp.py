"""Exact rational linear programming via two-phase simplex with Bland's rule.

Maximization problems over rational data: row coefficients and objective
entries may be `int` or `Fraction`.  Each row is scaled to integers by its
own denominator, and the whole tableau, z-row included, is kept as integer
rows over one common denominator, updated by fraction-free pivots whose
divisions are exact, so no entry ever needs a gcd.  Bland's smallest-index
rule guarantees termination.  Dual multipliers are read off the artificial
columns of the final z-row, and every optimal solve is verified against the
exact optimality certificate (feasibility, complementary slackness, strong
duality), computed as integer dot products over a scaled primal and dual.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from .rationals import integral

Q = Fraction
Number = Union[int, Fraction]

LESS, EQUAL, GREATER = "<=", "=", ">="
_RELATIONS = (LESS, EQUAL, GREATER)


class LpError(ValueError):
    """Malformed program: width mismatch or unknown relation."""


class LpInternalError(AssertionError):
    """The exact optimality certificate failed; indicates a solver bug."""


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x  subject to rows, x >= lower (default 0)."""

    num_vars: int
    objective: tuple[Number, ...]
    rows: tuple[tuple[tuple[Number, ...], str, Number], ...]
    lower: tuple[Number, ...] = ()

    def __post_init__(self):
        if len(self.objective) != self.num_vars:
            raise LpError("objective width does not match num_vars")
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != self.num_vars:
                raise LpError("row width does not match num_vars")
            if rel not in _RELATIONS:
                raise LpError(f"unknown relation {rel!r}")
        if self.lower and len(self.lower) != self.num_vars:
            raise LpError("lower bound width does not match num_vars")

    @classmethod
    def build(cls, objective: Sequence, rows, lower: Optional[Sequence] = None) -> "LinearProgram":
        obj = tuple(Q(c) for c in objective)
        rws = tuple((tuple(Q(a) for a in coeffs), rel, Q(rhs))
                    for coeffs, rel, rhs in rows)
        low = tuple(Q(b) for b in lower) if lower is not None else ()
        return cls(len(obj), obj, rws, low)


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    primal: Optional[tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None
    dual: Optional[tuple[Fraction, ...]] = None


class _Tableau:
    """Fraction-free simplex tableau: integer rows over one denominator `d`.

    `rows` holds the constraint rows followed by the z-row, each of length
    ncols + 1 with the right-hand side last; every entry stands for
    entry / d, and d > 0.  Invariant: the basic column of row i holds d in
    row i and 0 in every other row, the z-row included.  Each pivot divides
    exactly (Edmonds 1967; Bareiss 1968), so no entry needs a gcd.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], ncols: int):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols
        self.d = 1

    def pivot(self, p: int, col: int) -> None:
        rp = self.rows[p]
        piv, d = rp[col], self.d
        for i, ri in enumerate(self.rows):
            f = ri[col]
            if i == p or (f == 0 and piv == d):
                continue
            self.rows[i] = [(a * piv - f * b) // d for a, b in zip(ri, rp)]
        if piv < 0:
            self.rows = [[-a for a in row] for row in self.rows]
        self.d = abs(piv)
        self.basis[p] = col

    def run(self, barred: frozenset[int]) -> str:
        """Bland's rule until optimal or unbounded."""
        while True:
            z = self.rows[-1]
            entering = next((j for j in range(self.ncols)
                             if z[j] < 0 and j not in barred), -1)
            if entering < 0:
                return "optimal"
            leave = -1
            best_num = best_den = 0  # ratio = rhs / coeff, both from the row
            for i, row in enumerate(self.rows[:-1]):
                coeff = row[entering]
                if coeff <= 0:
                    continue
                num, den = row[self.ncols], coeff
                if leave < 0 or num * best_den < best_num * den or (
                        num * best_den == best_num * den
                        and self.basis[i] < self.basis[leave]):
                    leave, best_num, best_den = i, num, den
            if leave < 0:
                return "unbounded"
            self.pivot(leave, entering)


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact two-phase simplex; the certificate is verified on every solve."""
    n = lp.num_vars
    m = len(lp.rows)
    n_slack = sum(1 for _, rel, _ in lp.rows if rel != EQUAL)
    ncols = n + n_slack + m  # structural, slack/surplus, artificial
    art0 = n + n_slack
    padding = [0] * (n_slack + m)

    # Row i is scaled to integers by its own denominator dens[i]; its slack
    # gets +-1 and its artificial 1, so the starting basis is the identity.
    rows: list[list[int]] = []
    dens: list[int] = []
    signs: list[int] = []  # +1 if the row kept its direction, -1 if negated
    slack_at = 0
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        if lp.lower:  # shift x = x' + lower so all variables are >= 0
            rhs = rhs - sum((c * b for c, b in zip(coeffs, lp.lower) if c and b), 0)
        nums, den = integral((*coeffs, rhs))
        sign = 1
        if rhs < 0:
            sign = -1
            nums = [-a for a in nums]
            rel = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[rel]
        signs.append(sign)
        row = nums[:n] + padding + nums[n:]
        if rel != EQUAL:
            row[n + slack_at] = 1 if rel == LESS else -1
            slack_at += 1
        row[art0 + i] = 1
        rows.append(row)
        dens.append(den)

    # Phase 1: maximize -(sum of the artificials of the unscaled rows), so
    # row i enters the z-row with weight L / dens[i]; with basis = I the
    # z-row is zero under the artificials.
    common = lcm(*dens)
    scaled = rows if common == 1 else [[common // den * a for a in row]
                                       for row, den in zip(rows, dens)]
    z = [-sum(col) for col in zip(*scaled)] if m else [0] * (ncols + 1)
    z[art0:ncols] = [0] * m
    tab = _Tableau(rows + [z], list(range(art0, art0 + m)), ncols)
    tab.run(barred=frozenset())
    if tab.rows[-1][ncols] != 0:
        return LpOutcome(status="infeasible")

    # Drive artificials out of the basis; drop rows that turn out redundant.
    for i in range(m - 1, -1, -1):
        if tab.basis[i] < art0:
            continue
        pivot_col = next((j for j in range(art0) if tab.rows[i][j] != 0), None)
        if pivot_col is None:
            del tab.rows[i], tab.basis[i]
        else:
            tab.pivot(i, pivot_col)

    # Phase 2 with the real objective: z = d (c_B . B^-1 A - c), where each
    # stored row is d times its row of B^-1 A.
    cost, cden = integral(lp.objective)
    d = tab.d
    z = [-d * c for c in cost] + [0] * (ncols + 1 - n)
    for row, b in zip(tab.rows, tab.basis):
        if b < n and cost[b]:
            z = [a + cost[b] * r for a, r in zip(z, row)]
    tab.rows[-1] = z
    status = tab.run(barred=frozenset(range(art0, art0 + m)))
    if status == "unbounded":
        return LpOutcome(status="unbounded")

    d, z = tab.d, tab.rows[-1]
    primal = [Q(0)] * n
    for row, b in zip(tab.rows, tab.basis):
        if b < n:
            primal[b] = Q(row[ncols], d)
    value = Q(z[ncols], d * cden)
    if lp.lower:
        primal = [v + b for v, b in zip(primal, lp.lower)]
        value += sum((c * b for c, b in zip(lp.objective, lp.lower)), 0)

    # The z-row is a combination of the scaled rows minus the cost row; the
    # coefficient on scaled row i sits under its artificial column, and row
    # i was scaled by dens[i] (and negated if sign is -1).
    dual = tuple(Q(signs[i] * dens[i] * z[art0 + i], d * cden) for i in range(m))
    outcome = LpOutcome(status="optimal", primal=tuple(primal), value=value,
                        dual=dual)
    verify_certificate(lp, outcome)
    return outcome


def verify_certificate(lp: LinearProgram, out: LpOutcome) -> None:
    """Exact optimality check: raises LpInternalError on any violation.

    The primal is scaled to integers over one denominator and the dual over
    another, so every dot product below is an integer sum for integer rows;
    a Fraction is built only where a sum meets its bound.
    """
    if out.status != "optimal":
        return
    x, y, lower = out.primal, out.dual, lp.lower
    if any(xj < bj for xj, bj in zip(x, lower or (0,) * lp.num_vars)):
        raise LpInternalError("primal violates a lower bound")
    xs, xden = integral(x)
    support = [(j, v) for j, v in enumerate(xs) if v]
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        lhs = Q(sum(coeffs[j] * v for j, v in support), xden)
        if rel == LESS and lhs > rhs:
            raise LpInternalError(f"row {i}: {lhs} > {rhs}")
        if rel == GREATER and lhs < rhs:
            raise LpInternalError(f"row {i}: {lhs} < {rhs}")
        if rel == EQUAL and lhs != rhs:
            raise LpInternalError(f"row {i}: {lhs} != {rhs}")
        if rel == LESS and y[i] < 0:
            raise LpInternalError(f"row {i}: dual sign for <= must be >= 0")
        if rel == GREATER and y[i] > 0:
            raise LpInternalError(f"row {i}: dual sign for >= must be <= 0")
        if y[i] != 0 and lhs != rhs:
            raise LpInternalError(f"row {i}: complementary slackness fails")
    value = Q(sum(lp.objective[j] * v for j, v in support), xden)
    if value != out.value:
        raise LpInternalError("reported value differs from objective at primal")

    # Reduced costs y.A - c, all scaled by the dual denominator.
    ys, yden = integral(y)
    reduced = [-yden * c for c in lp.objective]
    for (coeffs, _, _), w in zip(lp.rows, ys):
        if w:
            reduced = [r + w * a for r, a in zip(reduced, coeffs)]
    for j, rj in enumerate(reduced):
        if rj < 0:
            raise LpInternalError(
                f"column {j}: dual infeasible (reduced cost {Q(rj, yden)})")
        if rj != 0 and (x[j] != lower[j] if lower else xs[j] != 0):
            raise LpInternalError(f"column {j}: complementary slackness fails")
    rhs, rden = integral([rhs for _, _, rhs in lp.rows])
    dual_value = Q(sum(w * b for w, b in zip(ys, rhs) if w), yden * rden)
    correction = Q(sum((rj * b for rj, b in zip(reduced, lower) if rj and b), 0),
                   yden)
    if dual_value != value + correction:
        raise LpInternalError(
            f"strong duality fails: dual {dual_value} vs primal {value}")
