"""Exact rational linear programming via two-phase simplex with Bland's rule.

Maximization problems over rational data: row coefficients and objective
entries may be `int` or `Fraction`.  Each row is scaled to integers
straight from its entries, and the tableau is kept as integer numerator
rows with one positive denominator per row, which is exact and avoids
per-entry gcd work; both z-rows are formed in integers over one common
denominator.  Bland's smallest-index rule guarantees termination.  Dual
multipliers are read off the artificial columns of the final tableau, and
every optimal solve is re-verified against the exact optimality
certificate (feasibility, complementary slackness, strong duality),
computed as integer dot products over a scaled primal and dual, unless
the caller opts out.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union

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


def _reduce_row(nums: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *nums)
    if g > 1:
        nums = [x // g for x in nums]
        den //= g
    return nums, den


class _Tableau:
    """Simplex tableau over integer rows with per-row denominators."""

    def __init__(self, rows: list[list[int]], dens: list[int], basis: list[int],
                 ncols: int):
        self.rows = rows          # each of length ncols + 1, last entry = rhs
        self.dens = dens
        self.basis = basis
        self.ncols = ncols
        self.z: list[int] = []
        self.zden = 1

    def pivot(self, p: int, col: int) -> None:
        rp = self.rows[p]
        piv = rp[col]
        for i in range(len(self.rows)):
            if i == p:
                continue
            ri = self.rows[i]
            factor = ri[col]
            if factor == 0:
                continue
            new = [a * piv - factor * b for a, b in zip(ri, rp)]
            den = self.dens[i] * piv
            if den < 0:
                new = [-a for a in new]
                den = -den
            self.rows[i], self.dens[i] = _reduce_row(new, den)
        factor = self.z[col]
        if factor != 0:
            new = [a * piv - factor * b for a, b in zip(self.z, rp)]
            den = self.zden * piv
            if den < 0:
                new = [-a for a in new]
                den = -den
            self.z, self.zden = _reduce_row(new, den)
        if piv < 0:
            self.rows[p] = [-a for a in rp]
        self.rows[p], self.dens[p] = _reduce_row(self.rows[p], self.dens[p])
        self.basis[p] = col

    def run(self, barred: frozenset[int]) -> str:
        """Bland's rule until optimal or unbounded."""
        while True:
            entering = -1
            for j in range(self.ncols):
                if j in barred:
                    continue
                if self.z[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            leave = -1
            best_num = best_den = 0  # ratio = rhs / coeff, both from the row
            for i, row in enumerate(self.rows):
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


def _lcm(values: Iterable[int]) -> int:
    common = 1
    for d in values:
        if d != 1:
            common = common * d // gcd(common, d)
    return common


def _integral(values: Sequence[Number]) -> tuple[list[int], int]:
    """Integer numerators of `values` over the lcm of their denominators."""
    den = _lcm(v.denominator for v in values)
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def solve(lp: LinearProgram, check: bool = True) -> LpOutcome:
    """Exact two-phase simplex.  `check` re-verifies the certificate."""
    n = lp.num_vars
    m = len(lp.rows)
    n_slack = sum(1 for _, rel, _ in lp.rows if rel != EQUAL)
    ncols = n + n_slack + m  # structural, slack/surplus, artificial
    art0 = n + n_slack
    padding = [0] * (n_slack + m)

    rows: list[list[int]] = []
    dens: list[int] = []
    signs: list[int] = []  # +1 if the row kept its direction, -1 if negated
    slack_at = 0
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        if lp.lower:  # shift x = x' + lower so all variables are >= 0
            rhs = rhs - sum((c * b for c, b in zip(coeffs, lp.lower) if c and b), 0)
        nums, den = _integral((*coeffs, rhs))
        sign = 1
        if rhs < 0:
            sign = -1
            nums = [-a for a in nums]
            rel = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[rel]
        signs.append(sign)
        row = nums[:n] + padding + nums[n:]
        if rel != EQUAL:
            row[n + slack_at] = den if rel == LESS else -den
            slack_at += 1
        row[art0 + i] = den
        row, den = _reduce_row(row, den)
        rows.append(row)
        dens.append(den)

    tab = _Tableau(rows, dens, list(range(art0, art0 + m)), ncols)

    # Phase 1: maximize -(sum of artificials).  With basis = I the z-row is
    # minus the column sums of the rows, zero under the artificials.
    common = _lcm(dens)
    scaled = rows if common == 1 else [[a * (common // d) for a in row]
                                       for row, d in zip(rows, dens)]
    z = [-sum(col) for col in zip(*scaled)] if m else [0] * (ncols + 1)
    z[art0:ncols] = [0] * m
    tab.z, tab.zden = _reduce_row(z, common)
    tab.run(barred=frozenset())
    if tab.z[ncols] != 0:
        return LpOutcome(status="infeasible")

    # Drive artificials out of the basis; drop rows that turn out redundant.
    for i in range(m - 1, -1, -1):
        if tab.basis[i] < art0:
            continue
        pivot_col = next((j for j in range(art0) if tab.rows[i][j] != 0), None)
        if pivot_col is None:
            del tab.rows[i], tab.dens[i], tab.basis[i]
        else:
            tab.pivot(i, pivot_col)

    # Phase 2 with the real objective: z = c_B . B^-1 A - c.  Stored rows
    # are unnormalized (the basic coefficient is not 1), so row i enters
    # with weight c_b / row[b]; only rows with a nonzero basic cost count.
    cost, cden = _integral(lp.objective)
    basic = [(cost[b], row, row[b]) for row, b in zip(tab.rows, tab.basis)
             if b < n and cost[b]]
    common = _lcm(piv for _, _, piv in basic)
    z = [-common * c for c in cost] + [0] * (ncols + 1 - n)
    for cb, row, piv in basic:
        w = cb * (common // piv)
        z = [a + w * r for a, r in zip(z, row)]
    tab.z, tab.zden = _reduce_row(z, common * cden)
    status = tab.run(barred=frozenset(range(art0, art0 + m)))
    if status == "unbounded":
        return LpOutcome(status="unbounded")

    primal = [Q(0)] * n
    for row, b in zip(tab.rows, tab.basis):
        if b < n:
            primal[b] = Q(row[ncols], row[b])
    value = Q(tab.z[ncols], tab.zden)
    if lp.lower:
        primal = [v + b for v, b in zip(primal, lp.lower)]
        value += sum((c * b for c, b in zip(lp.objective, lp.lower)), 0)

    # The z-row is a combination of the standard-form rows minus the cost
    # row; the coefficient on row i sits under its artificial column, which
    # is exactly the dual multiplier (sign-corrected for negated rows).
    dual = tuple(signs[i] * Q(tab.z[art0 + i], tab.zden) for i in range(m))
    outcome = LpOutcome(status="optimal", primal=tuple(primal), value=value,
                        dual=dual)
    if check:
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
    xs, xden = _integral(x)
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
    ys, yden = _integral(y)
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
    rhs, rden = _integral([rhs for _, _, rhs in lp.rows])
    dual_value = Q(sum(w * b for w, b in zip(ys, rhs) if w), yden * rden)
    correction = Q(sum((rj * b for rj, b in zip(reduced, lower) if rj and b), 0),
                   yden)
    if dual_value != value + correction:
        raise LpInternalError(
            f"strong duality fails: dual {dual_value} vs primal {value}")
