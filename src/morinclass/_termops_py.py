"""Pure-Python kernel for sparse polynomial term arithmetic.

Terms are dicts mapping packed monomials to nonzero coefficients: one int
per monomial, with the total degree in the top field and one fixed-width
field per context variable below it (`context.VariableContext` fixes the
layout).  A monomial product is one integer addition and the total degree is
one shift.  Coefficients are exact rationals, where plain ints and Fractions
mix freely and integer inputs give integer outputs, or floats for the float
companion.  Every function returns a new canonical dict (no stored zeros)
and never mutates its inputs.

The ops that raise degrees check the largest degree they can form against
`context.MAX_DEGREE` once per call, and raise DegreeOverflowError above it,
so a field never carries into its neighbour.

`Polynomial` runs its arithmetic through these functions.
"""

from fractions import Fraction

from .context import MAX_DEGREE, check_degree


def add_terms(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for key, coeff in b.items():
        s = out.get(key, 0) + coeff
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def sub_terms(a, b):
    if not b:
        return dict(a)
    out = dict(a)
    for key, coeff in b.items():
        s = out.get(key, 0) - coeff
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def neg_terms(a):
    return {key: -coeff for key, coeff in a.items()}


def scale_terms(a, c):
    if not c:
        return {}
    return {key: coeff * c for key, coeff in a.items()}


def mul_terms(a, b, ctx, trunc=-1):
    """Product of two term dicts over `ctx`, optionally dropping total degree > trunc."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    shift = ctx.degree_shift
    out = {}
    get = out.get
    if trunc >= 0:
        # bucket the large factor by total degree so each term of the small
        # factor only meets partners that survive the cap
        buckets = {}
        for kb, cb in b.items():
            buckets.setdefault(kb >> shift, []).append((kb, cb))
        degrees = sorted(buckets)
        check_degree(min(trunc, (max(a) >> shift) + degrees[-1]))
        for ka, ca in a.items():
            allowed = trunc - (ka >> shift)
            if allowed < 0:
                continue
            for d in degrees:
                if d > allowed:
                    break
                for kb, cb in buckets[d]:
                    key = ka + kb
                    s = get(key, 0) + ca * cb
                    if s:
                        out[key] = s
                    elif key in out:
                        del out[key]
        return out
    check_degree((max(a) >> shift) + (max(b) >> shift))
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            s = get(key, 0) + ca * cb
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def pow_terms(a, k, ctx, trunc=-1):
    if k == 0:
        return {0: Fraction(1)}
    if a:
        # before any product: the degree of a^k must fit
        top = (max(a) >> ctx.degree_shift) * k
        check_degree(top if trunc < 0 else min(trunc, top))
    result = dict(a)
    for _ in range(k - 1):
        result = mul_terms(result, a, ctx, trunc)
    return result


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
