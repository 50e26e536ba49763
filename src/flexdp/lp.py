"""Exact rational linear programming: revised simplex with Bland's rule.

Maximization over `int` or `Fraction` data, `x >= 0` only (any other bound
is written as a row).  A row is a {column: coefficient} dict of its
nonzeros, read in one pass into sparse integer columns, each row scaled by
its own denominator.  The kernel `_Revised` pivots fraction-free on integers
packed by Kronecker substitution, a slot per entry stored with a bias of
half its range, so that no stored slot is negative and a slot reads with
one mask and one shift; it prices every column at once, and no float is
used anywhere.  A redundant row, one that phase 1 leaves with no real
column to drive its artificial out, keeps that artificial basic at zero.
Every optimal solve is verified against the exact optimality certificate
(feasibility, complementary slackness, strong duality), which compares
integers only.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import isqrt, lcm, prod
from operator import itemgetter, mul
from struct import calcsize
from typing import Optional, Union

from .rationals import integral

Q = Fraction
Number = Union[int, Fraction]

LESS, EQUAL, GREATER = "<=", "=", ">="
_BROKEN = {LESS: ">", EQUAL: "!=", GREATER: "<"}   # what a violated row shows

# Slot width -> the native signed format that reads a little-endian slot of
# that width; wider slots, or a big-endian host, decode slot by slot.
_CASTS = ({8 * calcsize(c): c for c in "hiq"} if sys.byteorder == "little"
          else {})


class LpError(ValueError):
    """Malformed program: bad width, column out of range, unknown relation."""


class LpInternalError(AssertionError):
    """The exact optimality certificate failed; indicates a solver bug."""


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x  subject to rows, x >= 0; a row is (coefficients,
    relation, rhs), its coefficients a {column: value} dict of its nonzeros
    over columns 0..num_vars-1 (an empty dict is the zero row)."""

    num_vars: int
    objective: tuple[Number, ...]
    rows: tuple[tuple[dict[int, Number], str, Number], ...]

    def __post_init__(self):
        if len(self.objective) != self.num_vars:
            raise LpError("objective width does not match num_vars")
        for coeffs, rel, _ in self.rows:
            if coeffs and not 0 <= min(coeffs) <= max(coeffs) < self.num_vars:
                raise LpError(f"row column outside 0..{self.num_vars - 1}")
            if rel not in _BROKEN:
                raise LpError(f"unknown relation {rel!r}")


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    primal: Optional[tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None
    dual: Optional[tuple[Fraction, ...]] = None


def _pack(cols: list, width: int, rows: int) -> list[int]:
    """Each row k of the sparse columns `cols`, (row indices, entries or
    None if all are 1), as sum_j A_kj * 2**(width*j) (Kronecker
    substitution), one integer; `width` is a
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

    `cols[j]` is column A_j of the scaled matrix (see `_pack`), `cost[j]`
    its phase cost.  Over the m rows of A and the basic rows i (`basis[i]`
    is row i's basic column), the kernel keeps d*B^-1 and beta = d*B^-1 b
    as m + 1 packed columns with every slot biased by h = 2**(V-1):
    `B[k]` = sum_i ((d*B^-1)_ik + h) * 2**(V*i) for k < m, and `B[m]` =
    sum_i (beta_i + h) * 2**(V*i).  So `B[k]` = s_k + `off`, where s_k is
    the signed packed column and `off` = sum_i h * 2**(V*i); every stored
    slot lies in [0, 2**V), `row(p)` reads slot p with one mask and one
    shift, less h, and `decode` flips each slot's top bit.  `u` is the z-row
    multipliers with u.b appended.  Invariant: the tableau over d has
    (d*B^-1 A_j)_i in row i and u.A_j - d*cost[j] in the z-row, so
    `column(j)` is X = sum_k A_kj * B[k] + (1 - sum_k A_kj) * off, the
    stored form of sum_k A_kj * s_k, decoded once.  The artificials
    start as the identity, so `B` and `u` are the dense tableau's artificial
    block, right-hand side and z-row, and `pivot` is its exact update
    (Edmonds 1967; Bareiss 1968): every reduced cost and ratio Bland's rule
    reads, and so every basis, is the same.

    A pivot `piv` on row p, entering column X (stored) with z entry zq,
    reads the pivot row b_k (slot p of every B[k]) and sets the signed Y =
    X - off - d * 2**(V*p); every s_k becomes (piv*s_k - b_k*Y) / d and
    every u_k (piv*u_k - zq*b_k) / d.  Slot i != p of s_k takes Bareiss's
    step (a*piv - f_i*b_k) / d, an integer, and slot p keeps b_k, so the
    packed division is exact.  When piv == d (most pivots) only the B[k]
    at the pivot row's nonzeros move, by b_k*Y / d, with no division when
    d == 1; the bias stays as it is.  Any other pivot writes B[k] as
    (piv*B[k] - b_k*Y - (piv - d)*off) / d, which is the stored form of
    the new s_k.  A negative piv negates s, u and T with the same
    operations (piv, Y and zq change sign, so the bias correction uses
    |piv|); d becomes |piv|.

    The packed arithmetic is exact at any width; only reading a slot needs
    |slot| < 2**(V-1), which keeps its stored form in [0, 2**V).  `M`
    bounds every |entry| of d*B^-1 and beta pivot by pivot, and cs >=
    max_j sum_k |A_kj| makes M*cs bound every decoded column.  A pivot leaves slot i != p at most (|piv|*M + |f_i|*|b_k|) / d
    and slot p at b_k, which the first bound misses when |piv| < d; so
    before each pivot M' = max((|piv|*M + max|f|*max|b|) // d + 1, max|b|)
    is checked: M'*cs < 2**(V-2).  When that fails, `refit` reads every
    column at the current width, sets M to their exact maximum, and doubles
    V until M'*cs fits V/2 - 2 bits, leaving half of each slot for M to
    drift.  M starts at max(b) (at least the 1 of d*B^-1 = I), and V at the
    narrowest width with M*cs < 2**(V/2-2), the same headroom.

    Pricing reads the z-row from one integer.  Row k of A is packed as
    `packed[k]` = sum_j A_kj * 2**(W*j), and T = sum_j (u.A_j - d*cost[j])
    * 2**(W*j) = sum_k u_k*packed[k] - d*C, C the packed costs; `run`
    computes T from u, and `pivot` updates it as u: with the packed pivot
    row P = sum_k b_k*packed[k], T becomes (piv*T - zq*P) / d.  Once the
    bound S + d * max_j |cost[j]|, S = sum_k |u_k| * max_j |A_kj|, fits W -
    2 bits, adding 2**(W-1) to each slot (`top`) leaves bit W-1 of slot j
    clear exactly when column j's reduced cost is negative.  `entering`
    checks the bound, and when it does not fit, W doubles and everything is
    packed again from u.  S is kept running: a unit pivot adds the change
    of each u_k it moves, and `run` and a full pivot sum it afresh.
    """

    def __init__(self, cols: list, rhs: list[int], u: list[int],
                 cost: list[int]):
        m = len(rhs)
        self.cols, self.rhs, self.u, self.cost = cols, rhs, u, cost
        self.art0 = len(cols) - m
        self.basis = list(range(self.art0, len(cols)))
        self.d = 1
        # max_j |A_kj| (at least the 1 of row k's artificial), then 0 for
        # u.b, which no reduced cost reads
        self.amax = amax = [1] * m + [0]
        for ks, vs in cols:
            if vs:
                for k, a in zip(ks, map(abs, vs)):
                    if a > amax[k]:
                        amax[k] = a
        # the longest column times the largest entry: sum_k |A_kj| <= cs
        longest = max(map(len, map(itemgetter(0), cols)), default=0)
        self.cs = cs = max(1, longest * max(amax, default=1))
        self.width = 16
        self.packed = _pack(cols, self.width, m)
        self.M = max(rhs, default=0) or 1
        width = 16
        while self.M * cs >> width // 2 - 2:
            width *= 2
        self.slots(width, m)
        self.B = [self.off + (1 << width * k) for k in range(m)] + [
            self.encode(rhs)]

    def slots(self, width: int, count: int) -> None:
        """Set V = `width` bits a slot over `count` basic rows, and the
        constants that read them: `off` has bit V-1, the bias, set in
        every slot."""
        self.V, self.half, self.mask = width, 1 << width - 1, (1 << width) - 1
        self.off = int.from_bytes(
            (bytes(width // 8 - 1) + b"\x80") * count, "little")
        self.nbytes = width // 8 * count
        self.cast = _CASTS.get(width)

    def encode(self, values: list[int]) -> int:
        """The stored form sum_i (values[i] + 2**(V-1)) * 2**(V*i)."""
        V = self.V
        return sum(v << V * i for i, v in enumerate(values) if v) + self.off

    def decode(self, x: int) -> list[int]:
        """The signed slots of the stored x, each in [-2**(V-1), 2**(V-1)):
        the xor with `off` flips the top bit of each biased slot, which
        leaves its V-bit two's complement."""
        raw = (x ^ self.off).to_bytes(self.nbytes, "little")
        if self.cast:
            return memoryview(raw).cast(self.cast).tolist()
        step = self.V // 8
        return [int.from_bytes(raw[i:i + step], "little", signed=True)
                for i in range(0, self.nbytes, step)]

    def row(self, p: int) -> list[int]:
        """Slot p of every B[k]: row p of d*B^-1, then beta_p.  Masking
        before the shift keeps the shifted integer one slot long."""
        shift = self.V * p
        mask, half = self.mask << shift, self.half
        return [((x & mask) >> shift) - half for x in self.B]

    def column(self, j: int) -> list[int]:
        """Tableau column j over d: d*B^-1 A_j, then its z entry.  Its
        packed form X, stored with the bias of one column, is kept for
        `pivot`."""
        ks, vs = self.cols[j]
        B, u = self.B, self.u
        if vs is None:
            self.X = X = (sum(map(B.__getitem__, ks))
                          + (1 - len(ks)) * self.off)
            z = sum(map(u.__getitem__, ks))
        else:
            self.X = X = (sum(map(mul, map(B.__getitem__, ks), vs))
                          + (1 - sum(vs)) * self.off)
            z = sum(map(mul, map(u.__getitem__, ks), vs))
        out = self.decode(X)
        out.append(z - self.d * self.cost[j])
        return out

    def refit(self, piv: int, fb: int, bmax: int) -> int:
        """Tighten M to the exact max |entry| of d*B^-1 and beta, and double
        V until the bound M' after pivoting on `piv`, with max|f|*max|b| =
        `fb` and max|b| = `bmax`, fits V/2 - 2 bits; return M'.

        Every |piv|, M, |f| and |b| is a minor of the scaled [A | b] of
        order at most m, so at most Hadamard's bound H, the product of the
        m largest column norms, and d >= 1: M' <= 2*H*H + 1.  A V wider
        than that bound needs, with the same headroom, can only come from a
        kernel defect, and raises LpInternalError instead of growing."""
        columns = list(map(self.decode, self.B))
        self.M = max(max(map(abs, c)) for c in columns)
        bound = max((abs(piv) * self.M + fb) // self.d + 1, bmax)
        width = self.V
        while bound * self.cs >> width // 2 - 2:
            width *= 2
        if width != self.V:
            m = len(self.rhs)
            squares = sorted([len(ks) if vs is None else sum(map(mul, vs, vs))
                              for ks, vs in self.cols]
                             + [sum(map(mul, self.rhs, self.rhs))])
            H = isqrt(prod(squares[len(squares) - m:])) + 1
            ceiling = 16
            while (2 * H * H + 1) * self.cs >> ceiling // 2 - 2:
                ceiling *= 2
            if width > ceiling:
                raise LpInternalError(f"slot width {width} exceeds the Hadamard "
                                      f"ceiling {ceiling}")
            self.slots(width, m)
            self.B = list(map(self.encode, columns))
        return bound

    def redundant(self, p: int) -> int:
        """The first real column with a nonzero in basic row p, or -1 when
        the row is redundant: the lowest nonzero slot of the packed row P =
        sum_k b_k*packed[k], read at P's lowest set bit once W holds P."""
        rp = self.row(p)
        self.fit(sum(map(mul, map(abs, rp), self.amax)))
        P = sum(map(mul, compress(rp, rp), compress(self.packed, rp)))
        j = ((P & -P).bit_length() - 1) // self.width
        return j if P and j < self.art0 else -1

    def repack(self, width: int) -> None:
        """Pack A's rows (when `width` is new), the costs, T and `top` at
        `width` bits a slot; T is computed from u."""
        if width != self.width:
            self.width = width
            self.packed = _pack(self.cols, width, len(self.amax) - 1)
        costs = sum(c << width * j for j, c in enumerate(self.cost) if c)
        self.T = sum(map(mul, self.u, self.packed)) - self.d * costs
        self.top = int.from_bytes(
            (bytes(width // 8 - 1) + b"\x80") * self.ncols, "little")

    def fit(self, bound: int) -> None:
        """Double W, and pack again, until `bound` fits W - 2 bits."""
        width = self.width
        while bound >> width - 2:
            width *= 2
        if width != self.width:
            self.repack(width)

    def entering(self) -> int:
        """Bland's entering column: the lowest slot of T below 0, or -1.
        First the slots widen until the reduced costs' bound fits."""
        self.fit(self.S + self.d * self.cmax)
        top = self.top
        negative = ~(self.T + top) & top
        if not negative:
            return -1
        return ((negative & -negative).bit_length() - 1) // self.width

    def pivot(self, p: int, j: int, column: list[int]) -> None:
        d, piv, zq = self.d, column[p], column[-1]
        rp = self.row(p)
        X = self.X
        f = column[:-1]
        bmax = max(map(abs, rp))
        fb = max(map(abs, f)) * bmax
        bound = max((abs(piv) * self.M + fb) // d + 1, bmax)
        if bound * self.cs >> self.V - 2:
            width = self.V
            bound = self.refit(piv, fb, bmax)
            if self.V != width:
                X = self.encode(f)
        self.M = bound
        B, u, amax = self.B, self.u, self.amax
        Y = X - self.off - (d << self.V * p)
        P = sum(map(mul, compress(rp, rp), compress(self.packed, rp)))  # rp.A
        if piv == d:
            S = self.S
            for k in compress(range(len(rp)), rp):   # the nonzeros b_k
                b, a = rp[k], u[k]
                B[k] -= b * Y if d == 1 else b * Y // d
                u[k] = z = a - (zq * b if d == 1 else zq * b // d)
                S += (abs(z) - abs(a)) * amax[k]
            self.S = S
            self.T -= zq * P if d == 1 else zq * P // d
        else:
            if piv < 0:  # negate B, u and T with the update
                piv, Y, zq = -piv, -Y, -zq
            bias = (piv - d) * self.off
            self.B = [(piv * x - b * Y - bias) // d if b
                      else (piv * x - bias) // d for x, b in zip(B, rp)]
            self.u = u = [(piv * a - zq * b) // d for a, b in zip(u, rp)]
            self.S = sum(map(mul, map(abs, u), amax))
            self.T = (piv * self.T - zq * P) // d
            self.d = piv
        self.basis[p] = j

    def run(self, ncols: int) -> str:
        """Bland's rule over columns below `ncols` until optimal or unbounded."""
        self.ncols = ncols
        self.cmax = max(map(abs, self.cost), default=0)
        self.S = sum(map(mul, map(abs, self.u), self.amax))
        self.repack(self.width)
        while True:
            entering = self.entering()
            if entering < 0:
                return "optimal"
            column = self.column(entering)
            leave = -1
            best_num = best_den = 0  # ratio = beta / coefficient
            for i, (num, den) in enumerate(zip(self.decode(self.B[-1]),
                                               column)):
                if den <= 0:
                    continue
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
    # Column j has row indices ks[j] and entries vs[j], read off the rows'
    # nonzeros.  Row i is scaled by its denominator dens[i] and negated if
    # its rhs is negative; its slack gets +-1 and its artificial 1.
    ks = [[] for _ in range(n)]
    vs = [[] for _ in range(n)]
    rhs, dens, signs = [], [], []
    for i, (coeffs, rel, b) in enumerate(lp.rows):
        nums, den = integral((*coeffs.values(), b))
        sign = -1 if b < 0 else 1
        rhs.append(sign * nums.pop())
        for j, a in zip(coeffs, nums):
            if a:
                ks[j].append(i)
                vs[j].append(sign * a)
        if rel != EQUAL:
            ks.append([i])
            vs.append([sign if rel == LESS else -sign])
        signs.append(sign)
        dens.append(den)
    art0 = len(ks)
    cols = [(tuple(k), None if v.count(1) == len(v) else tuple(v))
            for k, v in zip(ks, vs)] + [((i,), None) for i in range(m)]

    # Phase 1: maximize -(sum of the artificials of the unscaled rows): with
    # B = I, u is the artificials' costs -L/dens[i].
    common = lcm(*dens)
    weights = [-(common // den) for den in dens]
    u = weights + [sum(w * b for w, b in zip(weights, rhs))]
    tab = _Revised(cols, rhs, u, [0] * art0 + weights)
    tab.run(art0 + m)
    if tab.u[m] != 0:
        return LpOutcome(status="infeasible")

    # Drive artificials out of the basis.  A redundant row is zero on every
    # real column, which each later pivot keeps (it scales the row by
    # piv/d), so its artificial stays basic at zero: the ratio test never
    # picks the row, and its beta stays 0.
    for i in range(m - 1, -1, -1):
        if tab.basis[i] >= art0:
            j = tab.redundant(i)
            if j >= 0:
                tab.pivot(i, j, tab.column(j))

    # Phase 2, artificials barred: u = c_B . d B^-1 for the real costs.
    cost, cden = integral(lp.objective)
    z = [0] * (m + 1)
    for i, b in enumerate(tab.basis):
        if b < n and cost[b]:
            z = [a + cost[b] * r for a, r in zip(z, tab.row(i))]
    tab.u = z
    tab.cost = cost + [0] * (art0 + m - n)
    if tab.run(art0) == "unbounded":
        return LpOutcome(status="unbounded")

    d, z = tab.d, tab.u
    primal = [Q(0)] * n
    for beta, b in zip(tab.decode(tab.B[-1]), tab.basis):
        if b < n:
            primal[b] = Q(beta, d)

    # u_i weighs row i, which was scaled by dens[i] and negated if sign < 0.
    dual = tuple(Q(signs[i] * dens[i] * z[i], d * cden) for i in range(m))
    outcome = LpOutcome(status="optimal", primal=tuple(primal),
                        value=Q(z[m], d * cden), dual=dual)
    verify_certificate(lp, outcome)
    return outcome


def verify_certificate(lp: LinearProgram, out: LpOutcome) -> None:
    """Exact optimality check: raises LpInternalError on any violation.

    Every check compares integers: primal, dual and objective are each
    scaled to integers over one denominator, every row's entries on the
    primal's support over one more, in one pass, and the nonzeros of each
    row with a nonzero dual over the row's own.  A Fraction is built only
    for a message.
    """
    if out.status != "optimal":
        return
    xs, xden = integral(out.primal)
    if min(xs, default=0) < 0:
        raise LpInternalError("primal violates x >= 0")
    support = [j for j, v in enumerate(xs) if v]
    xsup, zeros = [xs[j] for j in support], [0] * len(support)
    ys, yden = integral(out.dual)
    # Every row's entries on the support, row after row, over one den; the
    # sum below reads xsup first, so it stops before the next row's entries.
    nums, den = integral([*chain.from_iterable(
        map(coeffs.get, support, zeros) for coeffs, _, _ in lp.rows)])
    nums = iter(nums)
    for i, ((coeffs, rel, b), w) in enumerate(zip(lp.rows, ys)):
        lhs = sum(map(mul, xsup, nums))     # over den * xden
        gap = lhs * b.denominator - b.numerator * den * xden  # sign of lhs - b
        if gap and (rel == EQUAL or (gap > 0) == (rel == LESS)):
            raise LpInternalError(
                f"row {i}: {Q(lhs, den * xden)} {_BROKEN[rel]} {b}")
        if rel == LESS and w < 0:
            raise LpInternalError(f"row {i}: dual sign for <= must be >= 0")
        if rel == GREATER and w > 0:
            raise LpInternalError(f"row {i}: dual sign for >= must be <= 0")
        if w and gap:
            raise LpInternalError(f"row {i}: complementary slackness fails")
    cs, cden = integral(lp.objective)
    value = sum(map(mul, cs, xs))   # over cden * xden
    if value * out.value.denominator != out.value.numerator * cden * xden:
        raise LpInternalError("reported value differs from objective at primal")

    # Reduced costs y.A - c over yden * L * cden, L the lcm of the
    # denominators of the rows with a nonzero dual.
    dual_rows = [(coeffs, *integral(coeffs.values()), w)
                 for (coeffs, _, _), w in zip(lp.rows, ys) if w]
    L = lcm(*(den for _, _, den, _ in dual_rows))
    reduced = [-yden * L * c for c in cs]
    for coeffs, nums, den, w in dual_rows:
        w *= L // den * cden
        for j, a in zip(coeffs, nums):
            reduced[j] += w * a
    for j, rj in enumerate(reduced):
        if rj < 0:
            raise LpInternalError(f"column {j}: dual infeasible "
                                  f"(reduced cost {Q(rj, yden * L * cden)})")
        if rj and xs[j]:
            raise LpInternalError(f"column {j}: complementary slackness fails")
    bs, bden = integral([b for _, _, b in lp.rows])
    dual_value = sum(map(mul, ys, bs))  # over yden * bden
    if dual_value * cden * xden != value * yden * bden:
        raise LpInternalError(
            f"strong duality fails: dual {Q(dual_value, yden * bden)} "
            f"vs primal {Q(value, cden * xden)}")
