"""Pure-Python kernel for sparse polynomial term arithmetic.

Terms are dicts mapping exponent tuples (one non-negative int per context
variable) to nonzero exact rational coefficients; plain ints and Fractions
mix freely, and integer inputs give integer outputs.  Every function returns
a new canonical dict (no stored zeros) and never mutates its inputs.

`Polynomial` runs its arithmetic through these functions.
"""

from fractions import Fraction



def add_terms(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for exps, coeff in b.items():
        s = out.get(exps, 0) + coeff
        if s:
            out[exps] = s
        elif exps in out:
            del out[exps]
    return out


def sub_terms(a, b):
    if not b:
        return dict(a)
    out = dict(a)
    for exps, coeff in b.items():
        s = out.get(exps, 0) - coeff
        if s:
            out[exps] = s
        elif exps in out:
            del out[exps]
    return out


def neg_terms(a):
    return {exps: -coeff for exps, coeff in a.items()}


def scale_terms(a, c):
    if not c:
        return {}
    return {exps: coeff * c for exps, coeff in a.items()}


def mul_terms(a, b, trunc=-1):
    """Product of two term dicts, optionally dropping total degree > trunc."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    if trunc >= 0:
        # bucket the large factor by total degree so each term of the small
        # factor only meets partners that survive the cap
        buckets = {}
        for eb, cb in b.items():
            buckets.setdefault(sum(eb), []).append((eb, cb))
        degrees = sorted(buckets)
        for ea, ca in a.items():
            allowed = trunc - sum(ea)
            if allowed < 0:
                continue
            for d in degrees:
                if d > allowed:
                    break
                for eb, cb in buckets[d]:
                    exps = tuple(x + y for x, y in zip(ea, eb))
                    s = out.get(exps, 0) + ca * cb
                    if s:
                        out[exps] = s
                    elif exps in out:
                        del out[exps]
        return out
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(exps, 0) + ca * cb
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
    return out


def pow_terms(a, k, trunc=-1):
    if k == 0:
        nvars = len(next(iter(a))) if a else 0
        return {(0,) * nvars: Fraction(1)}
    result = dict(a)
    for _ in range(k - 1):
        result = mul_terms(result, a, trunc)
    return result


def diff_terms(a, idx):
    out = {}
    for exps, coeff in a.items():
        e = exps[idx]
        if e == 0:
            continue
        lowered = exps[:idx] + (e - 1,) + exps[idx + 1:]
        s = out.get(lowered, 0) + coeff * e
        if s:
            out[lowered] = s
        elif lowered in out:
            del out[lowered]
    return out


def truncate_terms(a, trunc):
    return {exps: coeff for exps, coeff in a.items() if sum(exps) <= trunc}


def eval_terms(a, values):
    """Exact evaluation; `values` is a sequence of Fractions, one per variable."""
    total = 0
    cache = {}
    for exps, coeff in a.items():
        term = coeff
        for i, e in enumerate(exps):
            if e == 0:
                continue
            key = (i, e)
            p = cache.get(key)
            if p is None:
                p = values[i] ** e
                cache[key] = p
            term = term * p
        total += term
    return total
