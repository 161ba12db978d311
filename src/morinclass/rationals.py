"""Exact rational scalars.

Scalars are `fractions.Fraction`: arbitrary-precision, normalized on
construction (gcd 1, positive denominator), with exact arithmetic.  `rat`
takes ints and Fractions; text is read by `parsing.parse_rational`.  The
helpers below fix the text form used everywhere in reports and goldens:
`p` for integers, `p/q` otherwise, minus sign on the numerator.
"""

from fractions import Fraction


def rat(value) -> Fraction:
    """Coerce an int or a Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
