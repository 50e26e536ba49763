"""Exact rational linear programming: revised simplex with Bland's rule.

Maximization over `int` or `Fraction` data, `x >= 0` only (any other bound
is written as a row), kept as sparse integer columns (each row scaled by its
own denominator).  The kernel `_Revised` pivots only d*B^-1 over one
common denominator d, with exact divisions and no gcd.  A pivot equal to d
(most of them) moves only the entries at the pivot row's nonzeros, in
place: Bareiss's exact division leaves a - f*b/d there, so d divides f*b.
It prices every column at once: the z-row's reduced costs sit in one
integer T, one W-bit slot per column (Kronecker substitution), which each
pivot updates exactly with a few big-integer operations, and Bland's
entering column is T's lowest negative slot.  W doubles, and T is packed
again, whenever a bound on the reduced costs outgrows W - 2 bits.
Every optimal solve is verified against the exact optimality certificate
(feasibility, complementary slackness, strong duality).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Union

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
    """max objective . x  subject to rows, x >= 0."""

    num_vars: int
    objective: tuple[Number, ...]
    rows: tuple[tuple[tuple[Number, ...], str, Number], ...]

    def __post_init__(self):
        if len(self.objective) != self.num_vars:
            raise LpError("objective width does not match num_vars")
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != self.num_vars:
                raise LpError("row width does not match num_vars")
            if rel not in _RELATIONS:
                raise LpError(f"unknown relation {rel!r}")


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    primal: Optional[tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None
    dual: Optional[tuple[Fraction, ...]] = None


def _dot(row: list[int], col: tuple) -> int:
    """row . A_j; a column is (row indices, entries or None if all are 1)."""
    ks, vs = col
    get = row.__getitem__
    return sum(map(get, ks)) if vs is None else sum(map(mul, map(get, ks), vs))


def _pack(cols: list, width: int, rows: int) -> list[int]:
    """Each row k of the sparse columns `cols` (see `_dot`) as one integer,
    sum_j A_kj * 2**(width*j) (Kronecker substitution); `width` is a
    multiple of 8.  The entries of the all-ones columns, most of them, are
    set as bytes; the others are added as shifted integers."""
    step = width // 8
    size = step * len(cols)
    ones, others = bytearray(size * rows), [0] * rows
    for at, (ks, vs) in zip(range(0, size, step), cols):
        if vs is None:
            for k in ks:
                ones[k * size + at] = 1
        else:
            for k, a in zip(ks, vs):
                others[k] += a << 8 * at
    ones = memoryview(ones)
    return [int.from_bytes(ones[i:i + size], "little") + rest
            for i, rest in zip(range(0, size * rows, size), others)]


class _Revised:
    """Revised simplex over sparse columns, fraction-free over `d` > 0.

    `cols[j]` is column A_j of the scaled matrix (see `_dot`), `cost[j]` its
    phase cost.  `rows[i]` is row i of d*B^-1 with beta_i = d*(B^-1 b)_i
    appended; `rows[-1]` is u with u.b appended.  Invariant: the tableau
    over d has row_i . A_j in row i and u.A_j - d*cost[j] in the z-row.
    The artificials start as the identity, so `rows` is the dense
    tableau's artificial block and right-hand side, and `pivot` is its
    exact update (Edmonds 1967; Bareiss 1968) on that block: every reduced
    cost and ratio Bland's rule reads, and so every basis, is the same.

    The update of row i by a pivot `piv` in row p is
    (a*piv - f*b) / d for each entry a of row i, b of row p and f of the
    entering column in row i; Bareiss's theorem makes every such quotient
    an integer.  When piv == d (most pivots: d = 1 and piv = 1 dominate)
    the quotient is a - f*b/d, so d divides f*b exactly, d stays, row p
    and every row with f == 0 stay, and an entry with b == 0 stays: only
    the pivot row's nonzeros move, in place.  Rows are distinct lists, so
    updating one in place changes no other.

    Pricing reads the whole z-row at once from one integer.  Row k of A is
    packed as `packed[k]` = sum_j A_kj * 2**(W*j), and the invariant on
    `T` is T = sum_j (u.A_j - d*cost[j]) * 2**(W*j) = sum_k u_k*packed[k]
    - d*C, with C the packed costs; `run` computes T from u when it starts.
    `pivot` applies to T the update it applies to u: with the packed pivot
    row P = sum_k rp[k]*packed[k] and the entering column's z entry zq,
    T becomes (piv*T - zq*P) / d, which is T - zq*P/d when piv == d, and
    is negated with the rows when piv < 0.  Every slot of T is exact, so
    the packed T is too, whatever W.  Only reading slots needs W: once the
    bound sum_k |u_k| * max_j |A_kj| + d * max_j |cost[j]| fits in W - 2
    bits, every slot is in [-2**(W-1), 2**(W-1)), and adding 2**(W-1) to
    each (`top`) leaves bit W-1 of slot j clear exactly when column j's
    reduced cost is negative.  Before each pricing the bound is checked;
    when it does not fit, W doubles and everything is packed again from u.
    """

    def __init__(self, cols: list, rows: list[list[int]], cost: list[int]):
        self.cols, self.rows, self.cost = cols, rows, cost
        self.basis = list(range(len(cols) - len(rows) + 1, len(cols)))
        self.d = 1
        # max_j |A_kj|: at least the 1 of row k's artificial
        self.amax = amax = [1] * (len(rows) - 1)
        for ks, vs in cols:
            if vs:
                for k, a in zip(ks, map(abs, vs)):
                    if a > amax[k]:
                        amax[k] = a
        self.width = 16
        self.packed = _pack(cols, self.width, len(amax))

    def column(self, j: int) -> list[int]:
        """Tableau column j over d: d*B^-1 A_j, then its z entry."""
        ks, vs = self.cols[j]
        if vs is None:
            out = [sum(map(r.__getitem__, ks)) for r in self.rows]
        else:
            out = [sum(map(mul, map(r.__getitem__, ks), vs)) for r in self.rows]
        out[-1] -= self.d * self.cost[j]
        return out

    def repack(self, width: int) -> None:
        """Pack A's rows (when `width` is new), the costs, T and `top` at
        `width` bits a slot; T is computed from u."""
        if width != self.width:
            self.width = width
            self.packed = _pack(self.cols, width, len(self.amax))
        costs = sum(c << width * j for j, c in enumerate(self.cost) if c)
        self.T = sum(map(mul, self.rows[-1], self.packed)) - self.d * costs
        self.top = int.from_bytes(
            (bytes(width // 8 - 1) + b"\x80") * self.ncols, "little")

    def entering(self) -> int:
        """Bland's entering column: the lowest slot of T below 0, or -1.
        First the slots widen until the reduced costs' bound fits."""
        bits = (sum(map(mul, map(abs, self.rows[-1]), self.amax))
                + self.d * self.cmax).bit_length() + 2
        if bits > self.width:
            width = 2 * self.width
            while width < bits:
                width *= 2
            self.repack(width)
        top = self.top
        negative = ~(self.T + top) & top
        if not negative:
            return -1
        return ((negative & -negative).bit_length() - 1) // self.width

    def pivot(self, p: int, j: int, column: list[int]) -> None:
        rows, rp = self.rows, self.rows[p]
        piv, d, zq = column[p], self.d, column[-1]
        pivot_row = sum(b * r for b, r in zip(rp, self.packed) if b)  # rp.A
        if piv == d:
            moved = [(k, b) for k, b in enumerate(rp) if b]
            for ri, f in zip(rows, column):
                if f and ri is not rp:
                    for k, b in moved:
                        ri[k] -= f * b // d
            self.T -= zq * pivot_row // d
        else:
            for i, (ri, f) in enumerate(zip(rows, column)):
                if i != p:
                    rows[i] = ([(a * piv - f * b) // d for a, b in zip(ri, rp)]
                               if f else [a * piv // d for a in ri])
            self.T = (piv * self.T - zq * pivot_row) // d
            if piv < 0:
                self.rows = [[-a for a in row] for row in rows]
                self.T = -self.T
            self.d = abs(piv)
        self.basis[p] = j

    def run(self, ncols: int) -> str:
        """Bland's rule over columns below `ncols` until optimal or unbounded."""
        self.ncols = ncols
        self.cmax = max(map(abs, self.cost), default=0)
        self.repack(self.width)
        while True:
            entering = self.entering()
            if entering < 0:
                return "optimal"
            column = self.column(entering)
            leave = -1
            best_num = best_den = 0  # ratio = beta / coefficient
            for i, (row, den) in enumerate(zip(self.rows[:-1], column)):
                if den <= 0:
                    continue
                num = row[-1]
                if leave < 0 or num * best_den < best_num * den or (
                        num * best_den == best_num * den
                        and self.basis[i] < self.basis[leave]):
                    leave, best_num, best_den = i, num, den
            if leave < 0:
                return "unbounded"
            self.pivot(leave, entering, column)


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact two-phase simplex; the certificate is verified on every solve."""
    n = lp.num_vars
    m = len(lp.rows)
    # Column j has row indices ks[j] and entries vs[j].  Row i is scaled by
    # its denominator dens[i] and negated if its rhs is negative; its slack
    # gets +-1 and its artificial 1.
    ks = [[] for _ in range(n)]
    vs = [[] for _ in range(n)]
    rhs, dens, signs = [], [], []
    for i, (coeffs, rel, b) in enumerate(lp.rows):
        nums, den = integral((*coeffs, b))
        sign = -1 if b < 0 else 1
        for j, a in enumerate(nums[:n]):
            if a:
                ks[j].append(i)
                vs[j].append(sign * a)
        if rel != EQUAL:
            ks.append([i])
            vs.append([sign if rel == LESS else -sign])
        signs.append(sign)
        rhs.append(sign * nums[n])
        dens.append(den)
    art0 = len(ks)
    cols = [(tuple(k), None if v.count(1) == len(v) else tuple(v))
            for k, v in zip(ks, vs)] + [((i,), None) for i in range(m)]

    # Phase 1: maximize -(sum of the artificials of the unscaled rows): with
    # B = I, u is the artificials' costs -L/dens[i].
    common = lcm(*dens)
    weights = [-(common // den) for den in dens]
    rows = [[int(i == k) for k in range(m)] + [b] for i, b in enumerate(rhs)]
    rows.append(weights + [sum(w * b for w, b in zip(weights, rhs))])
    tab = _Revised(cols, rows, [0] * art0 + weights)
    tab.run(art0 + m)
    if tab.rows[-1][m] != 0:
        return LpOutcome(status="infeasible")

    # Drive artificials out of the basis; drop rows that turn out redundant.
    for i in range(m - 1, -1, -1):
        if tab.basis[i] < art0:
            continue
        j = next((j for j in range(art0) if _dot(tab.rows[i], cols[j])), -1)
        if j < 0:
            del tab.rows[i], tab.basis[i]
        else:
            tab.pivot(i, j, tab.column(j))

    # Phase 2, artificials barred: u = c_B . d B^-1 for the real costs.
    cost, cden = integral(lp.objective)
    z = [0] * (m + 1)
    for row, b in zip(tab.rows, tab.basis):
        if b < n and cost[b]:
            z = [a + cost[b] * r for a, r in zip(z, row)]
    tab.rows[-1] = z
    tab.cost = cost + [0] * (art0 + m - n)
    if tab.run(art0) == "unbounded":
        return LpOutcome(status="unbounded")

    d, z = tab.d, tab.rows[-1]
    primal = [Q(0)] * n
    for row, b in zip(tab.rows, tab.basis):
        if b < n:
            primal[b] = Q(row[m], d)
    value = Q(z[m], d * cden)

    # u_i weighs row i, which was scaled by dens[i] and negated if sign < 0.
    dual = tuple(Q(signs[i] * dens[i] * z[i], d * cden) for i in range(m))
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
    x, y = out.primal, out.dual
    if any(xj < 0 for xj in x):
        raise LpInternalError("primal violates x >= 0")
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
        if rj != 0 and xs[j] != 0:
            raise LpInternalError(f"column {j}: complementary slackness fails")
    rhs, rden = integral([rhs for _, _, rhs in lp.rows])
    dual_value = Q(sum(w * b for w, b in zip(ys, rhs) if w), yden * rden)
    if dual_value != value:
        raise LpInternalError(
            f"strong duality fails: dual {dual_value} vs primal {value}")
