"""Exact rational helpers shared by every module.

All arithmetic in this package is carried out with `fractions.Fraction`,
which stores values in lowest terms with a positive denominator and never
overflows.  Nothing here may ever pass through a float.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def common_denominator(values) -> int:
    """lcm of the denominators of an iterable of Fractions (1 for empty)."""
    result = 1
    for v in values:
        result = lcm(result, Q(v).denominator)
    return result
