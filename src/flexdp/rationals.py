"""Exact rational helpers shared by every module.

Every value in this package is exact: an `int` or a `fractions.Fraction`,
which stores values in lowest terms with a positive denominator and never
overflows.  `integral` scales a sequence of them to integers over one
denominator, which is how the LP does its arithmetic.  Nothing here may
ever pass through a float.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Sequence, Union

Q = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a plain integer string into a Fraction.

    Decimal notation is rejected on purpose: exact inputs only.
    """
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not an exact rational: {text!r}")
    if "/" in s:
        num, _, den = s.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Q(int(num), int(den))
    return Q(int(s))


def rat_str(x: Fraction) -> str:
    """Canonical human-readable form: '1/5', '3', '-2/7'."""
    return str(Q(x))


def json_rat(x: Fraction) -> str:
    """Machine form used in JSON output: always 'p/q', e.g. '3/1'."""
    x = Q(x)
    return f"{x.numerator}/{x.denominator}"


def integral(values: Sequence[Union[int, Fraction]]) -> tuple[list[int], int]:
    """Integer numerators of `values` over the lcm of their denominators.

    `values` are ints or Fractions; an empty sequence gives ([], 1).
    """
    den = lcm(*map(attrgetter("denominator"), values))
    if den == 1:
        return list(map(attrgetter("numerator"), values)), 1
    return [v.numerator * (den // v.denominator) for v in values], den
