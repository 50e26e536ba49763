"""Conditional-probability gadget matrices, built symbolically and exactly.

Each gadget turns the color distribution seen at an attachment vertex into
a conditional rule for coloring the gadget's own vertices.  The matrices
are rational functions of the input vector p, evaluated exactly; their
defining identities (column stochasticity, the output marginal vector, the
zero pattern) are algebraic and hold with no tolerance.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Q = Fraction

SIMPLEX_SCALE = 40  # largest random factor in a sampled point's denominator


class GadgetError(ValueError):
    """Input outside the gadget's feasible region."""


@dataclass(frozen=True)
class GadgetMatrix:
    """Columns are conditional distributions over the row events.

    Construction validates the matrix.  A column whose input event has
    probability zero is never selected; such columns are all-zero and are
    skipped by the stochasticity check.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    col_weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        self.validate()

    def output(self) -> tuple[Fraction, ...]:
        """The marginal row distribution A . p."""
        return tuple(sum((row[j] * self.col_weights[j] for j in range(len(row))),
                         Q(0)) for row in self.entries)

    def validate(self) -> None:
        for row in self.entries:
            for x in row:
                if x < 0:
                    raise GadgetError(f"negative entry {x}")
        for j, weight in enumerate(self.col_weights):
            col_sum = sum((row[j] for row in self.entries), Q(0))
            if weight > 0 and col_sum != 1:
                raise GadgetError(
                    f"column {self.col_labels[j]} sums to {col_sum}, not 1")
            if weight == 0 and col_sum not in (0, 1):
                raise GadgetError(
                    f"zero-probability column {self.col_labels[j]} not zeroed")


def _simplex_point(values: Sequence, size: int) -> tuple[Fraction, ...]:
    """The values as Fractions, checked to be a point of the simplex in
    `size` dimensions."""
    p = tuple(Q(v) for v in values)
    if len(p) != size:
        raise GadgetError(f"expected {size} probabilities")
    if sum(p, Q(0)) != 1:
        raise GadgetError(f"input must sum to 1, got {sum(p, Q(0))}")
    if any(x < 0 for x in p):
        raise GadgetError("input has a negative entry")
    return p


def gadget_pendent(p: Sequence) -> GadgetMatrix:
    """Pendant-vertex rule: output marginals exactly (2/5, 3/10, 3/10).

    Feasible for p on the simplex with every entry at least 1/5 (the region
    where q_i = (5 p_i - 1)/2 lies in [0,1]).  The zero diagonal keeps the
    pendant color off its neighbor's color.
    """
    p = _simplex_point(p, 3)
    q = [(5 * x - 1) / 2 for x in p]
    if any(not 0 <= qi <= 1 for qi in q):
        raise GadgetError(f"q = {q} leaves [0,1]; p must lie in [1/5, 3/5]^3")
    p1, p2, p3 = p
    q1, q2, q3 = q
    tenth = Q(1, 10)
    entries = (
        (Q(0), tenth * (2 * q1 + 3 * q2) / p2, tenth * (1 + q1 + 3 * q3) / p3),
        (tenth * (1 + 2 * q1 + q2) / p1, Q(0), tenth * (q2 + 2 * q3) / p3),
        (tenth * (3 * q1 + q3) / p1, tenth * (3 * q2 + 2 * q3) / p2, Q(0)),
    )
    return GadgetMatrix(entries, ("color0", "color1", "color2"),
                        ("nbr0", "nbr1", "nbr2"), p)


def gadget_butterfly(p: Sequence) -> GadgetMatrix:
    """Doubled-pendant pair rule: five colorings, each used with mass 1/5.

    Rows are the five colorings of the three gadget vertices; the column
    zero pattern keeps the middle vertex off the attachment color.
    """
    p = _simplex_point(p, 3)
    q = [Q(5, 2) * x - Q(1, 2) for x in p]
    if any(qi < 0 for qi in q):
        raise GadgetError(f"q = {q} has a negative entry; p needs entries >= 1/5")
    p1, p2, p3 = p
    q1, q2, q3 = q
    tenth = Q(1, 10)
    top = (Q(0), tenth * (q1 + q2) / p2, tenth * (1 + q3) / p3)
    bottom = (tenth * (2 * q1 + q3) / p1, tenth * (2 * q2 + q3) / p2, Q(0))
    entries = (
        top,
        top,
        (tenth * (2 * q1 + 2 * q2) / p1, Q(0), tenth * (2 * q3) / p3),
        bottom,
        bottom,
    )
    return GadgetMatrix(entries, ("mid0", "mid0'", "mid1", "mid2", "mid2'"),
                        ("nbr0", "nbr1", "nbr2"), p)


def gadget_one_positive(p: Sequence) -> GadgetMatrix:
    """Path-endpoint rule: output (2/5, 3/10, 3/10), nonzero entries >= 1/3.

    Feasible when every p_i lies in [3/10, 2/5], i.e. q_i = 10 p_i - 3 in
    [0,1]; the entry bound is what lets the rule compose with a tree
    packing step downstream.
    """
    p = _simplex_point(p, 3)
    q = [10 * x - 3 for x in p]
    if any(not 0 <= qi <= 1 for qi in q):
        raise GadgetError(f"q = {q} leaves [0,1]; p must lie in [3/10, 2/5]^3")
    p1, p2, p3 = p
    q1, q2, q3 = q
    tenth = Q(1, 10)
    entries = (
        (Q(0), tenth * 2 / p2, tenth * 2 / p3),
        (tenth * (1 + q1 + q2) / p1, Q(0), tenth * (1 + q3) / p3),
        (tenth * (1 + q1 + q3) / p1, tenth * (1 + q2) / p2, Q(0)),
    )
    return GadgetMatrix(entries, ("color0", "color1", "color2"),
                        ("nbr0", "nbr1", "nbr2"), p)


PARALLEL3_COLUMNS = ("(1,2)", "(2,1)", "(1,3)", "(2,3)", "(3,1)", "(3,2)")
PARALLEL3_ROWS = ("(1u,3v)", "(2u,3v)", "(3u,1v)", "(3u,2v)")


def _parallel3_check(p: tuple[Fraction, ...]) -> None:
    p12, p21, p13, p23, p31, p32 = p
    marginals = {
        "first coordinate 1": p12 + p13,
        "first coordinate 2": p21 + p23,
        "first coordinate 3": p31 + p32,
        "second coordinate 1": p21 + p31,
        "second coordinate 2": p12 + p32,
        "second coordinate 3": p13 + p23,
    }
    fifth = Q(1, 5)
    for name, value in marginals.items():
        if value < fifth:
            raise GadgetError(f"marginal on {name} is {value} < 1/5")
    if p31 + p32 < p13 + p23:
        raise GadgetError("normalization broken: need p31+p32 >= p13+p23 "
                          "(swap the two endpoint roles first)")
    if p21 < p12:
        raise GadgetError("normalization broken: need p21 >= p12 "
                          "(swap color labels 1 and 2 first)")


def normalize_parallel3(p: Sequence) -> tuple[Fraction, ...]:
    """Apply the two label swaps that establish the symmetry normalizations."""
    p12, p21, p13, p23, p31, p32 = map(Q, p)
    if p31 + p32 < p13 + p23:
        p12, p21 = p21, p12
        p13, p23, p31, p32 = p31, p32, p13, p23
    if p21 < p12:
        p12, p21 = p21, p12
        p13, p23 = p23, p13
        p31, p32 = p32, p31
    return p12, p21, p13, p23, p31, p32


def gadget_parallel3(p: Sequence) -> tuple[str, GadgetMatrix]:
    """Doubled-edge contraction rule; selects the first applicable case.

    Columns follow the pair order (1,2),(2,1),(1,3),(2,3),(3,1),(3,2) of
    colors at the two attachment vertices.  Every output entry is at least
    1/5; in case c' the output equals (1/5, 2/5, 1/5, 1/5) identically.
    Denominators are positive throughout the feasible region, so no
    zero-probability event is ever conditioned on.
    """
    p = _simplex_point(p, 6)
    _parallel3_check(p)
    p12, p21, p13, p23, p31, p32 = p
    two_fifths = Q(2, 5)
    half = Q(1, 2)
    zero, one = Q(0), Q(1)
    if p31 + p32 >= two_fifths:
        case = "a"
        entries = (
            (zero, zero, zero, zero, half, half),
            (zero, zero, zero, zero, half, half),
            (one, zero, one, zero, zero, zero),
            (zero, one, zero, one, zero, zero),
        )
    elif p12 + p13 + p23 >= two_fifths:
        case = "b"
        entries = (
            (zero, half, zero, zero, half, half),
            (half, zero, zero, zero, half, half),
            (half, zero, half, half, zero, zero),
            (zero, half, half, half, zero, zero),
        )
    elif p21 + p31 > two_fifths:
        case = "c"
        share = Q(1, 5) / p21
        entries = (
            (zero, one - share, zero, zero, one, zero),
            (one, zero, zero, zero, zero, one),
            (zero, zero, one, one, zero, zero),
            (zero, share, zero, zero, zero, zero),
        )
    else:
        case = "c'"
        share = Q(1, 5) / p21
        spill = Q(1, 5) / (p13 + p23)
        slack = (two_fifths - p21 - p31) / p32
        entries = (
            (zero, one - share, zero, zero, one, slack),
            (one, zero, one - spill, one - spill, zero, one - slack),
            (zero, zero, spill, spill, zero, zero),
            (zero, share, zero, zero, zero, zero),
        )
    return case, GadgetMatrix(entries, PARALLEL3_ROWS, PARALLEL3_COLUMNS, p)


# ---------------------------------------------------------------------------
# Feasible-region samplers and the self-test used by the CLI
# ---------------------------------------------------------------------------

def _split_units(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def sample_simplex(rng: random.Random, parts: int, floor: Fraction
                   ) -> tuple[Fraction, ...]:
    """Random rational point with all coordinates >= floor, summing to 1."""
    den = floor.denominator * rng.randint(1, SIMPLEX_SCALE) * parts
    base = int(floor * den)
    slack = den - parts * base
    extra = _split_units(rng, slack, parts)
    return tuple(Q(base + e, den) for e in extra)


def sample_parallel3(rng: random.Random) -> tuple[Fraction, ...]:
    """Rejection sample a feasible 6-vector, then normalize by label swaps."""
    while True:
        den = 5 * rng.randint(4, 60)
        parts = _split_units(rng, den, 6)
        p = normalize_parallel3(tuple(Q(x, den) for x in parts))
        try:
            _parallel3_check(p)
        except GadgetError:
            continue
        return p


def selftest(samples: int, seed: int) -> dict[str, dict]:
    """Validate every gadget identity on random feasible inputs.

    Returns per-gadget pass counts; for the six-column gadget the case
    distribution is reported as well, and a fixed probe per case keeps all
    four branches covered regardless of the draw.
    """
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    rng = random.Random(seed)
    report: dict[str, dict] = {}

    fifth, third = Q(1, 5), Q(1, 3)
    rule = (Q(2, 5), Q(3, 10), Q(3, 10))
    for name, gadget, floor, check in (
            ("pendent", gadget_pendent, fifth, lambda m: m.output() == rule
             and all(m.entries[i][i] == 0 for i in range(3))),
            ("butterfly", gadget_butterfly, fifth,
             lambda m: m.output() == (fifth,) * 5),
            ("one_positive", gadget_one_positive, Q(3, 10), lambda m: m.output() == rule
             and all(x == 0 or x >= third for row in m.entries for x in row))):
        passed = sum(1 for _ in range(samples)
                     if check(gadget(sample_simplex(rng, 3, floor))))
        report[name] = {"passed": passed, "samples": samples}

    probes = [PARALLEL3_CASE_PROBES[c] for c in ("a", "b", "c", "c'")]
    passed = 0
    cases: dict[str, int] = {}
    total = samples + len(probes)
    for i in range(total):
        p = probes[i - samples] if i >= samples else sample_parallel3(rng)
        case, m = gadget_parallel3(p)
        cases[case] = cases.get(case, 0) + 1
        out = m.output()
        ok = all(x >= fifth for x in out)
        if case == "c'":
            ok = ok and out == (fifth, Q(2, 5), fifth, fifth)
        if ok:
            passed += 1
    report["parallel3"] = {"passed": passed, "samples": total, "cases": cases}
    return report


PARALLEL3_CASE_PROBES: dict[str, tuple[Fraction, ...]] = {
    "a": tuple(Q(x, 100) for x in (20, 20, 10, 10, 20, 20)),
    "b": tuple(Q(x, 100) for x in (18, 19, 17, 13, 15, 18)),
    "c": tuple(Q(x, 100) for x in (19, 28, 12, 8, 13, 20)),
    "c'": tuple(Q(x, 100) for x in (17, 25, 12, 9, 10, 27)),
}
