"""Pure-Python kernel for sparse polynomial term arithmetic.

Terms are dicts mapping packed monomials to nonzero coefficients: one int
per monomial, with the total degree in the top field and one fixed-width
field per context variable below it (`context.VariableContext` fixes the
layout).  A monomial product is one integer addition and the total degree is
one shift.  Coefficients are exact rationals, where plain ints and Fractions
mix freely and integer inputs give integer outputs, or floats for the float
companion.  `Polynomial` hands `scale_terms` an integral Fraction scalar as
its int, so an int polynomial scales to ints.  `pow_terms` expands a power
k >= 2 of an exact base on ints, so each of its terms is an int exactly
where it is integral; `rationals.cleared` and `rationals.quotient`, which
own that integer form, take it there and back.  Every result is a canonical
dict (no stored zeros).  `iadd_terms` and `isub_terms` merge into their first
argument and return it, and `shift_terms` fills the row cache it is given;
every other function returns a new dict and mutates none of its inputs.

The ops that raise degrees check the largest degree they can form against
`context.MAX_DEGREE` once per call, and raise DegreeOverflowError above it,
so a field never carries into its neighbour.

A product capped at total degree `trunc` sorts the larger factor once by
total degree, stably, so terms of one degree keep their order.  Each term
of the smaller factor, in its order, then walks that list and stops at the
first partner whose key sum reaches the keys of degree trunc + 1: the pairs
it forms are exactly those whose degrees sum within the cap.

Work is counted, not predicted.  Inside a `work_limit(pairs)` block the
module state `_pairs_left` holds the term pairs the block still allows, and
each `mul_terms` product is charged, before it runs, the pairs it will
form: len(a) * len(b) uncapped, and capped, for each term of the smaller
factor the number of partners of allowed degree, found by bisection over
the sorted degrees.  The product that would pass the limit raises
WorkLimitError instead.  Outside any block `_pairs_left` is None and
nothing is counted.  The parser runs each `^` and each product of two sums
in a block of MAX_TERM_PAIRS, and the float companion builds its chart in
one.

`Polynomial` runs its arithmetic through these functions.
"""

from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction

from .context import MAX_DEGREE, WorkLimitError, check_degree
from .rationals import cleared, quotient

# The term pairs one expansion may take.  On a 2-core host (x+y)^700 takes
# 490,698 and parses in 0.2 s, (x+y+z)^124 976,497 in 0.4 s, and the float
# chart of the (6, 3, 3) ladder germ 414,826 in 0.4 s.
MAX_TERM_PAIRS = 10**6

_pairs_left = None  # the term pairs the innermost `work_limit` block still allows


@contextmanager
def work_limit(pairs):
    """Allow the block at most `pairs` term pairs of `mul_terms` products.

    A nested block runs on its own limit.  On exit, also by an exception,
    the outer block's count (or None) is restored.
    """
    global _pairs_left
    outer, _pairs_left = _pairs_left, pairs
    try:
        yield
    finally:
        _pairs_left = outer


def iadd_terms(out, b):
    """Add `b` into `out` in place and return `out`, still canonical: a new
    key takes its coefficient as given, and a sum that cancels is deleted."""
    get = out.get
    for key, coeff in b.items():
        s = get(key)
        if s is None:
            out[key] = coeff
        elif s := s + coeff:
            out[key] = s
        else:
            del out[key]
    return out


def isub_terms(out, b):
    """Subtract `b` from `out` in place and return `out`, as `iadd_terms` adds."""
    get = out.get
    for key, coeff in b.items():
        s = get(key)
        if s is None:
            out[key] = -coeff
        elif s := s - coeff:
            out[key] = s
        else:
            del out[key]
    return out


def add_terms(a, b):
    if not a:
        return dict(b)
    return iadd_terms(dict(a), b)


def sub_terms(a, b):
    return isub_terms(dict(a), b)


def neg_terms(a):
    return {key: -coeff for key, coeff in a.items()}


def scale_terms(a, c):
    if not c:
        return {}
    return {key: coeff * c for key, coeff in a.items()}


def mul_terms(a, b, ctx, trunc=-1):
    """Product of two term dicts over `ctx`, optionally dropping total degree > trunc."""
    global _pairs_left
    if not a or not b:
        return {}
    small, large = (b, a) if len(a) > len(b) else (a, b)
    shift = ctx.degree_shift
    if trunc >= 0:
        # stable: by total degree, and within a degree in their order
        partners = sorted(large.items(), key=lambda term: term[0] >> shift)
    if _pairs_left is not None:
        if trunc < 0:
            pairs = len(a) * len(b)
        else:
            degrees = [kb >> shift for kb, _ in partners]
            pairs = sum([bisect_right(degrees, trunc - (ka >> shift)) for ka in small])
        if pairs > _pairs_left:
            raise WorkLimitError(
                f"a product of {len(a)} by {len(b)} terms would pass the work limit")
        _pairs_left -= pairs
    out = {}
    get = out.get
    if trunc >= 0:
        check_degree(min(trunc, (max(small) >> shift) + (partners[-1][0] >> shift)))
        limit = (trunc + 1) << shift  # a key lies below it iff its degree is at most trunc
        for ka, ca in small.items():
            stop = limit - ka
            for kb, cb in partners:
                if kb >= stop:
                    break
                key = ka + kb
                s = get(key, 0) + ca * cb
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return out
    check_degree((max(small) >> shift) + (max(large) >> shift))
    for ka, ca in small.items():
        for kb, cb in large.items():
            key = ka + kb
            s = get(key, 0) + ca * cb
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def pow_terms(a, k, ctx, trunc=-1):
    """a^k by k - 1 products `mul_terms(a^j, a)`, optionally capped at `trunc`.

    For k >= 2 an exact base with a Fraction coefficient is expanded on ints,
    which cost a tenth of Fractions: as the integer base den * a, den the
    lcm of its denominators (`cleared`).  Each partial sum of that power is
    den^j times the one of a^k, so the same terms cancel in the same order,
    and each term is then divided by den^k (`quotient`).  A base with a
    float coefficient multiplies as it is, which fixes its bits.
    """
    if k == 0:
        return {0: 1}
    if a:
        # before any product: the degree of a^k must fit
        top = (max(a) >> ctx.degree_shift) * k
        check_degree(top if trunc < 0 else min(trunc, top))
    if k == 1:
        return dict(a)
    kinds = {c.__class__ for c in a.values()}
    if Fraction in kinds and float not in kinds:
        den, ints = cleared(a.values())
        den_k = den**k
        out = pow_terms(dict(zip(a, ints)), k, ctx, trunc)
        return {key: quotient(c, den_k) for key, c in out.items()}
    if len(a) == 1:
        ((key, coeff),) = a.items()
        # a monomial's k-th power is its key times k; floats keep the
        # rounding of the products below
        if not isinstance(coeff, float):
            if 0 <= trunc < (key >> ctx.degree_shift) * k:
                return {}
            return {key * k: coeff**k}
    result = dict(a)
    for _ in range(k - 1):
        result = mul_terms(result, a, ctx, trunc)
    return result


def shift_terms(a, point, ctx, rows):
    """The terms of a(x + p) - a(p): the Taylor shift of `a` to a point p.

    `point` lists the pairs (i, p_i) with p_i != 0; every other variable
    stays.  `rows` caches the powers of the x_i + p_i: the calls at one
    point may share it, and a new point needs a new dict.

    Each term c x^alpha of `a`, in exponent-tuple order, expands as
    c (x_i + p_i)^alpha_i ... over the listed i in context order, each
    factor the power `pow_terms` gives, paired as `mul_terms` pairs its
    factors, and joins the sum through `iadd_terms`; a product by the int 1
    is skipped.  So every float coefficient has the bits of that product and
    sum, and a product that underflows to zero is dropped.  The constant term
    a(p) - a(p) is dropped too, unless it is NaN, where a(p) overflowed the
    floats: that NaN keeps its place.
    """
    degree_unit = ctx.degree_unit
    factors = [(i, ctx.field_shifts[i], degree_unit + ctx.units[i], v) for i, v in point]
    out = {}
    # a key without its degree field orders as its exponent tuple
    for key in sorted(a, key=(degree_unit - 1).__and__):
        term = {key: a[key]}
        for i, shift, step, v in factors:
            e = key >> shift & MAX_DEGREE
            if not e:
                continue
            row = rows.get((i, e))
            if row is None:
                # (x_i + p_i)^e as pairs (key offset, coefficient): the offset
                # lowers x_i^e to the pair's power of x_i, and None is the int 1
                row = rows[(i, e)] = [
                    (k - e * step, None if c.__class__ is int and c == 1 else c)
                    for k, c in pow_terms({step: 1, 0: v}, e, ctx).items()
                ]
            moved = {}  # distinct pairs give distinct keys: nothing merges here
            if len(term) > len(row):  # as in `mul_terms`, the smaller factor goes outer
                for offset, c in row:
                    for k, t in term.items():
                        if c is None:
                            moved[k + offset] = t
                        elif p := c * t:
                            moved[k + offset] = p
            else:
                for k, t in term.items():
                    one = t.__class__ is int and t == 1
                    for offset, c in row:
                        if c is None:
                            moved[k + offset] = t
                        elif one:
                            moved[k + offset] = c
                        elif p := t * c:
                            moved[k + offset] = p
            term = moved
        iadd_terms(out, term)
    if 0 in out:
        rest = out[0] - out[0]  # NaN where a(p) is infinite or NaN, else zero
        if rest:
            out[0] = rest
        else:
            del out[0]
    return out


def diff_terms(a, idx, ctx):
    """d/dx_idx: one unit off the variable's field and one off the degree field."""
    shift = ctx.field_shifts[idx]
    step = ctx.degree_unit + ctx.units[idx]
    # distinct keys stay distinct, so no two terms merge
    return {
        key - step: coeff * e
        for key, coeff in a.items()
        if (e := key >> shift & MAX_DEGREE)
    }


def truncate_terms(a, trunc, ctx):
    limit = (trunc + 1) << ctx.degree_shift  # the keys of degree <= trunc lie below it
    return {key: coeff for key, coeff in a.items() if key < limit}


def eval_terms(a, values, ctx):
    """Exact evaluation; `values` is a sequence of Fractions, one per variable."""
    total = 0
    cache = {}
    shifts = tuple(enumerate(ctx.field_shifts))
    for key, coeff in a.items():
        term = coeff
        for i, shift in shifts:
            e = key >> shift & MAX_DEGREE
            if e == 0:
                continue
            p = cache.get((i, e))
            if p is None:
                p = values[i] ** e
                cache[(i, e)] = p
            term = term * p
        total += term
    return total
