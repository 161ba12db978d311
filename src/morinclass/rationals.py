"""Exact rational scalars.

Scalars are `fractions.Fraction`: arbitrary-precision, normalized on
construction (gcd 1, positive denominator), with exact arithmetic.  `rat`
takes ints and Fractions; text is read by `parsing.parse_rational`.  The
helpers below fix the text form used everywhere in reports and goldens:
`p` for integers, `p/q` otherwise, minus sign on the numerator, every digit
printed however long the number.  An error message names a number through
`brief_rational`, which gives the size of a very long one instead.
"""

import math
import sys
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
        return integer_text(q.numerator)
    return f"{integer_text(q.numerator)}/{integer_text(q.denominator)}"


def integer_text(n: int) -> str:
    """`str(n)`, also past the interpreter's limit on the digits `str` prints.

    Beyond `sys.get_int_max_str_digits()` digits `str` raises ValueError;
    the digits are then cut into chunks that `str` prints, least significant
    first, by divmod with a power of ten of the limit's length.
    """
    try:
        return str(n)
    except ValueError:
        pass
    width = sys.get_int_max_str_digits()
    chunk = 10**width
    sign, n = ("-", -n) if n < 0 else ("", n)
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(str(low).zfill(width))
    parts.append(str(n))
    return sign + "".join(reversed(parts))


def brief_rational(q: Fraction) -> str:
    """`format_rational(q)`, or its size where `str` refuses so many digits.

    For messages: every digit of a million-digit number takes seconds to
    write, and a hundred times as long at ten times the length.
    """
    try:
        return str(q)
    except ValueError:
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        return f"a rational of about {round(bits * math.log10(2))} digits"
