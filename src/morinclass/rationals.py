"""Exact rational scalars.

Scalars are `fractions.Fraction`: arbitrary-precision, normalized on
construction (gcd 1, positive denominator), with exact arithmetic.  `rat`
takes ints and Fractions; text is read by `parsing.parse_rational`.  The
helpers below fix the text form used everywhere in reports and goldens:
`p` for integers, `p/q` otherwise, minus sign on the numerator, every digit
printed however long the number.  An error message names a number through
`brief_rational`, which gives the size of a very long one instead.

Exact values are ints where integral and Fractions elsewhere.  `cleared`
owns their integer form (times the lcm of the denominators) and `quotient`
the way back, to an int where the division is exact.
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


def cleared(values):
    """(L, ints): L the lcm of the denominators of the sequence `values`, and each value times L.

    A float has no exact integer form: ValueError, pointing to `numeric_classify`.
    """
    try:
        den = math.lcm(*(v.denominator for v in values))
    except AttributeError:
        raise ValueError("exact arithmetic is not defined on float coefficients; "
                         "classify a float germ with numeric_classify") from None
    return den, [v.numerator * (den // v.denominator) for v in values]


def quotient(v, d):
    """v / d for exact v and d != 0: an int where the quotient is integral, else a Fraction."""
    q, r = divmod(v, d)
    return Fraction(v, d) if r else q


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
