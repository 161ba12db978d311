"""Shared fixtures: contexts, normal-form battery, random generators, oracles."""

import contextlib
import importlib.util
import random
import sys
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from morinclass import MapGerm, Polynomial, PolyVectorField, RationalMatrix, VariableContext
from morinclass.context import MAX_DEGREE, DegreeOverflowError
from morinclass.criteria import (
    build_theta,
    hessian,
    kernel_hessian_of_last,
    lambdas_for_frame,
)
from morinclass.germ import build_frame
from morinclass.parsing import MAX_POWER_BITS, ParseError
from morinclass.rationals import format_rational


@contextlib.contextmanager
def int_str_digits(limit):
    """`sys.set_int_max_str_digits(limit)` within the block (0: no limit)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def make_context(*names, params=()):
    return VariableContext.make(names, params)


def poly_vars(ctx):
    return [Polynomial.variable(ctx, n) for n in ctx.names]


# -- the stable normal forms ----------------------------------------------------

BATTERY_DIMS = ((3, 2), (4, 2), (4, 3), (5, 3))


def normal_form(m, n, k, signs):
    """The k-Morin normal form with quadratic part sign pattern `signs`.

    For k = 1 the quadratic part uses all m-n+1 kernel variables; for k >= 2
    it uses m-n of them and the last variable carries z^{k+1} + sum x_i z^i.
    """
    n_x = n - 1
    if k == 1:
        n_y = m - n + 1
        names = tuple(f"x{i}" for i in range(1, n_x + 1)) + tuple(
            f"y{i}" for i in range(1, n_y + 1)
        )
        ctx = VariableContext.make(names)
        ys = [Polynomial.variable(ctx, f"y{i}") for i in range(1, n_y + 1)]
        q = sum((s * y**2 for s, y in zip(signs, ys)), Polynomial.zero(ctx))
        comps = [Polynomial.variable(ctx, f"x{i}") for i in range(1, n_x + 1)] + [q]
        return MapGerm(ctx, tuple(comps))
    n_y = m - n
    names = (
        tuple(f"x{i}" for i in range(1, n_x + 1))
        + tuple(f"y{i}" for i in range(1, n_y + 1))
        + ("z",)
    )
    ctx = VariableContext.make(names)
    ys = [Polynomial.variable(ctx, f"y{i}") for i in range(1, n_y + 1)]
    z = Polynomial.variable(ctx, "z")
    q = sum((s * y**2 for s, y in zip(signs, ys)), Polynomial.zero(ctx))
    last = q + z ** (k + 1)
    for i in range(1, k):
        last = last + Polynomial.variable(ctx, f"x{i}") * z**i
    comps = [Polynomial.variable(ctx, f"x{i}") for i in range(1, n_x + 1)] + [last]
    return MapGerm(ctx, tuple(comps))


def battery():
    """Every (m, n, k, sign pattern) of the normal-form battery."""
    for m, n in BATTERY_DIMS:
        for k in range(1, n + 1):
            n_q = m - n + 1 if k == 1 else m - n
            for signs in product((1, -1), repeat=n_q):
                yield m, n, k, signs


@pytest.fixture(scope="session")
def battery_germs():
    return [(m, n, k, signs, normal_form(m, n, k, signs)) for m, n, k, signs in battery()]


# -- random generators -----------------------------------------------------------

def random_rational(rng, lo=-3, hi=3, den_max=2):
    den = rng.randint(1, den_max)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_polynomial(rng, ctx, max_degree=2, n_terms=4, den_max=2):
    terms = {}
    nv = len(ctx)
    for _ in range(n_terms):
        exps = [0] * nv
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(nv)] += 1
        coeff = random_rational(rng, den_max=den_max)
        if coeff:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return Polynomial(ctx, {e: c for e, c in terms.items() if c})


def random_invertible_matrix(rng, size, lo=-3, hi=3):
    while True:
        entries = [random_rational(rng, lo, hi) for _ in range(size * size)]
        mat = RationalMatrix(size, size, entries)
        if mat.rank() == size:
            return mat


def linear_source_change(rng, germ):
    """Compose the germ with a random invertible linear source change."""
    ctx = germ.context
    names = ctx.source_names
    mat = random_invertible_matrix(rng, len(names))
    bindings = {}
    for i, name in enumerate(names):
        acc = Polynomial.zero(ctx)
        for j, other in enumerate(names):
            acc = acc + mat[i, j] * Polynomial.variable(ctx, other)
        bindings[name] = acc
    return MapGerm(ctx, tuple(p.substitute(bindings) for p in germ.components))


def linear_target_change(rng, germ):
    mat = random_invertible_matrix(rng, germ.n)
    comps = []
    for r in range(germ.n):
        acc = Polynomial.zero(germ.context)
        for c in range(germ.n):
            acc = acc + mat[r, c] * germ.components[c]
        comps.append(acc)
    return MapGerm(germ.context, tuple(comps))


def unipotent_source_change(rng, germ, max_degree=3):
    """x_i -> x_i + one random monomial of degree 2..max_degree (sparse)."""
    ctx = germ.context
    names = ctx.source_names
    nv = len(ctx)
    bindings = {}
    touched = rng.sample(range(len(names)), k=min(2, len(names)))
    for i in touched:
        exps = [0] * nv
        deg = rng.randint(2, max_degree)
        for _ in range(deg):
            exps[ctx.index(names[rng.randrange(len(names))])] += 1
        coeff = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        mono = Polynomial(ctx, {tuple(exps): coeff})
        bindings[names[i]] = Polynomial.variable(ctx, names[i]) + mono
    return MapGerm(ctx, tuple(p.substitute(bindings) for p in germ.components))


def unipotent_target_change(rng, germ, max_degree=3):
    """u_r -> u_r + one random monomial of degree 2..max_degree in the components."""
    comps = list(germ.components)
    r = rng.randrange(germ.n)
    deg = rng.randint(2, max_degree)
    mono = Polynomial.constant(germ.context, Fraction(rng.choice([-1, 1]), rng.choice([1, 2])))
    for _ in range(deg):
        mono = mono * comps[rng.randrange(germ.n)]
    comps[r] = comps[r] + mono
    return MapGerm(germ.context, tuple(comps))


# -- oracles ---------------------------------------------------------------------

def cofactor_determinant(rows):
    """Naive cofactor expansion over the first row; independent oracle."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = None
    for c in range(size):
        minor = [[rows[r][cc] for cc in range(size) if cc != c] for r in range(1, size)]
        term = rows[0][c] * cofactor_determinant(minor)
        if c % 2:
            term = -term
        total = term if total is None else total + term
    return total


def fraction_row_reduce(rows):
    """`linalg.exact_row_reduce` as Gauss-Jordan elimination over Fractions; independent oracle.

    Columns in order, the first free row with a nonzero entry as the pivot;
    every other free row loses its multiple of the pivot row, and T's row
    with it.  Returns T, the pivot rows and the pivot columns.
    """
    rows = [[Fraction(e) for e in row] for row in rows]
    n = len(rows)
    t = [[int(r == c) for c in range(n)] for r in range(n)]
    pivot_rows, pivot_cols = [], []
    for col in range(len(rows[0]) if rows else 0):
        free = [r for r in range(n) if r not in pivot_rows]
        if not free:
            break
        piv = next((r for r in free if rows[r][col] != 0), None)
        if piv is None:
            continue
        pivot_rows.append(piv)
        pivot_cols.append(col)
        for r in free:
            if r != piv and rows[r][col] != 0:
                f = rows[r][col] / rows[piv][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[piv])]
                t[r] = [a - f * b for a, b in zip(t[r], t[piv])]
    return t, pivot_rows, pivot_cols


def fraction_normalized(germ, t, pivot_rows):
    """The rows and target change of `germ.normalized`, built the plain way.

    Each row of T f is summed with the Fraction weights of T, then scaled by
    the lcm of its coefficients' denominators to integer coefficients, and
    T's row with it.
    """
    critical = next(row for row in range(germ.n) if row not in pivot_rows)
    comps, t_rows = [], []
    for r in list(pivot_rows) + [critical]:
        acc = Polynomial.zero(germ.context)
        for c, w in enumerate(t[r]):
            if w:
                acc = acc + Fraction(w) * germ.components[c]
        den = 1
        for c in acc.coefficients():
            den = den * c.denominator // gcd(den, c.denominator)
        comps.append(acc.map_coefficients(lambda c: int(c * den)))
        t_rows.append(tuple(Fraction(den) * w for w in t[r]))
    return tuple(comps), tuple(t_rows)


def eval_terms(terms, point):
    """Float value of a term dict at a point, one term and one power at a time."""
    total = 0.0
    for exps, coeff in terms.items():
        t = coeff
        for e, v in zip(exps, point):
            if e:
                t *= v ** e
        total += t
    return total


# The term kernel on exponent-tuple keys, one int per variable: the packed
# kernel in `morinclass._termops_py` must agree with it in values and in the
# insertion order of its results.


def tuple_add_terms(a, b):
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


def tuple_sub_terms(a, b):
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


def tuple_neg_terms(a):
    return {exps: -coeff for exps, coeff in a.items()}


def tuple_scale_terms(a, c):
    if not c:
        return {}
    return {exps: coeff * c for exps, coeff in a.items()}


def tuple_mul_terms(a, b, trunc=-1):
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


def tuple_pow_terms(a, k, trunc=-1):
    if k == 0:
        nvars = len(next(iter(a))) if a else 0
        return {(0,) * nvars: Fraction(1)}
    result = dict(a)
    for _ in range(k - 1):
        result = tuple_mul_terms(result, a, trunc)
    return result


def tuple_diff_terms(a, idx):
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


def tuple_truncate_terms(a, trunc):
    return {exps: coeff for exps, coeff in a.items() if sum(exps) <= trunc}


def tuple_eval_terms(a, values):
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


def naive_divide(p, divisor):
    """Single-divisor division that rescans for the leading term on every step."""
    div_exps, div_coeff = divisor.leading_term()
    quotient = Polynomial.zero(p.context)
    remainder = Polynomial.zero(p.context)
    work = p
    while not work.is_zero():
        exps, coeff = work.leading_term()
        delta = tuple(a - b for a, b in zip(exps, div_exps))
        if all(d >= 0 for d in delta):
            ratio = Fraction(coeff, div_coeff)
            if ratio.denominator == 1:
                ratio = ratio.numerator
            mono = Polynomial(p.context, {delta: ratio})
            quotient = quotient + mono
            work = work - mono * divisor
        else:
            mono = Polynomial(p.context, {exps: coeff})
            remainder = remainder + mono
            work = work - mono
    return quotient, remainder


def coordinate_field(context, name):
    """The vector field d/d(name)."""
    coeffs = [Polynomial.zero(context) for _ in context.source_names]
    coeffs[context.source_names.index(name)] = Polynomial.constant(context, 1)
    return PolyVectorField(context, tuple(coeffs))


def pivot_fields(frame, context):
    """xi_1, ..., xi_{n-1}: the coordinate fields of the frame's pivot variables."""
    return [coordinate_field(context, v) for v in frame.pivot_names]


def lambda_matrix(germ, frame, eta):
    """The defining n x n matrix (xi_1 f, ..., xi_{n-1} f, eta f) of one lambda."""
    fields = pivot_fields(frame, germ.context) + [eta]
    return [[vf.apply(comp) for vf in fields] for comp in germ.components]


def transpose(mat):
    """The transpose of a RationalMatrix."""
    return RationalMatrix(
        mat.cols, mat.rows, [mat[r, c] for c in range(mat.cols) for r in range(mat.rows)]
    )


def frame_matrix_at(frame, assignment):
    """Coefficients of xi_1, ..., xi_{n-1}, eta_1, ... at a point, one field a row."""
    context = frame.pivot_minor.context
    fields = pivot_fields(frame, context) + list(frame.eta)
    return RationalMatrix.from_rows(
        [[c.evaluate(assignment) for c in f.coefficients] for f in fields]
    )


def evaluate_rows(rows, assignment):
    """A matrix of polynomials, given as rows, evaluated at a point."""
    return RationalMatrix.from_rows([[p.evaluate(assignment) for p in row] for row in rows])


def rows_times_rows(a, b):
    """The matrix product of two matrices given as rows (of rationals or polynomials)."""
    return [
        [sum((a[i][k] * b[k][j] for k in range(1, len(b))), a[i][0] * b[0][j])
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def is_singular(germ, point):
    """Whether the differential of the germ drops rank at a source point."""
    return RationalMatrix.from_rows(germ.translate(point).linear_coefficients()).rank() < germ.n


def cusp_fast_path(ng, frame=None):
    """Cusp test via the kernel line of the Hessian of the last component.

    Applicable only when that Hessian has a one-dimensional kernel at 0; the
    cusp holds iff the third derivative of f_n along the kernel field is
    nonzero at 0 and d(theta f_n)_0 != 0.  An oracle for `classify`'s Morin 2
    label, from the polynomial frame.
    """
    if frame is None:
        frame = build_frame(ng)
    hess = kernel_hessian_of_last(ng, frame)
    kernel_dim = hess.rows - hess.rank()
    if kernel_dim != 1:
        return {"applicable": False, "is_cusp": False, "kernel_dim": kernel_dim}
    ls = lambdas_for_frame(ng.germ, frame)
    hd = first_column_theta(ls, hessian(ls))
    if hd is None:
        return {"applicable": False, "is_cusp": False, "kernel_dim": kernel_dim}
    fn = ng.germ.components[-1]
    t1 = hd.theta.apply(fn)
    t3 = hd.theta.apply(hd.theta.apply(t1))
    grad = t1.linear_coefficients()
    is_cusp = t3.constant_term() != 0 and any(e != 0 for e in grad)
    return {"applicable": True, "is_cusp": is_cusp, "kernel_dim": kernel_dim}


def nonzero_adjugate_columns(m0):
    """The c with M(0) less row c of rank s-1: the nonzero columns of adj(M(0)), by `minor_rank`."""
    size = len(m0)
    return [c for c in range(size) if minor_rank(m0[:c] + m0[c + 1:]) == size - 1]


def first_column_theta(ls, hd):
    """`build_theta` on the first column of adj(M(0)) that is not zero, or None if none is."""
    m0 = [[e.constant_term() for e in row] for row in hd.h_matrix.to_rows()]
    columns = nonzero_adjugate_columns(m0)
    return build_theta(ls, hd, columns[0]) if columns else None


# References for the term order of the jet kernels: the capped product as it
# bucketed the larger factor by degree, and a field applied through
# `Polynomial` products and sums.  The kernels must give their terms, in
# their order and to the bit.


def bucketed_mul_terms(a, b, ctx, trunc):
    """A capped product on packed keys, the larger factor bucketed by total degree.

    Each term of the smaller factor meets the buckets in rising degree while
    the degree sum stays within `trunc`, each bucket in insertion order.
    """
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    shift = ctx.degree_shift
    buckets = {}
    for kb, cb in b.items():
        buckets.setdefault(kb >> shift, []).append((kb, cb))
    out = {}
    for ka, ca in a.items():
        for d in sorted(buckets):
            if d > trunc - (ka >> shift):
                break
            for kb, cb in buckets[d]:
                key = ka + kb
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
    return out


def polynomial_sum_apply(field, p):
    """sum_i c_i * p.derivative(x_i) over the nonzero c_i, summed with `Polynomial`'s `+`."""
    acc = Polynomial.zero(field.context)
    for coeff, name in zip(field.coefficients, field.context.source_names):
        if not coeff.is_zero():
            acc = acc + coeff * p.derivative(name)
    return acc


def two_jet_coefficients(p):
    """The coefficients of each x_j, then of each x_a x_b (a <= b), source variables in order.

    The rows of `numeric`'s stacked stages, read by the context's packed keys.
    """
    get, keys = p.terms.get, p.context.linear_keys
    return [get(key, 0) for key in keys] + [
        get(a + b, 0) for i, a in enumerate(keys) for b in keys[i:]]


def minor_rank(rows):
    """Rank as the maximal order of a nonzero minor (enumeration oracle)."""
    from itertools import combinations

    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    for order in range(min(n_rows, n_cols), 0, -1):
        for rsel in combinations(range(n_rows), order):
            for csel in combinations(range(n_cols), order):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if cofactor_determinant(sub) != 0:
                    return order
    return 0


# The expression parser on `Polynomial` arithmetic, one polynomial per atom
# and per operator, over the tokens of a scan one character at a time:
# `morinclass.parsing`, which computes on term dicts, must agree with it in
# values, coefficient types, term order and errors.


def character_tokens(text, line_offset=1):
    """(kind, text, line, column) tuples by a scan one character at a time (ASCII classes)."""
    tokens = []
    line, col, i = line_offset, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch.isspace():
            col, i = col + 1, i + 1
            continue
        j = i + 1
        if ch in "0123456789":
            kind = "int"
            while j < len(text) and text[j] in "0123456789":
                j += 1
        elif ch.isascii() and (ch.isalpha() or ch == "_"):
            kind = "ident"
            while j < len(text) and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif ch in "+-*^()/":
            kind = "op"
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append((kind, text[i:j], line, col))
        col, i = col + j - i, j
    tokens.append(("end", "", line, col))
    return tokens


class PolynomialParser:
    def __init__(self, tokens, context):
        self.tokens = tokens
        self.pos = 0
        self.context = context

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def parse(self):
        value = self.expr()
        kind, text, line, colno = self.peek()
        if kind != "end":
            self.error(f"unexpected {text!r} after expression")
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, text, *_ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, text, *_ = self.peek()
            if kind == "op" and text == "*":
                op = self.advance()
                rhs = self.factor()
                try:
                    value = value * rhs
                except DegreeOverflowError as exc:
                    self.error(str(exc), op)
            elif kind == "op" and text == "/":
                self.error("'/' is only allowed inside rational literals like 3/2")
            else:
                return value

    def factor(self):
        kind, text, *_ = self.peek()
        if kind == "op" and text in "+-":
            self.advance()
            inner = self.factor()
            return inner if text == "+" else -inner
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, *_ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            etok = self.peek()
            if etok[0] == "op" and etok[1] == "-":
                self.error("exponent must be a non-negative integer literal", etok)
            if etok[0] != "int":
                self.error("exponent must be a non-negative integer literal", etok)
            self.advance()
            try:
                k = int(etok[1])
            except ValueError:  # more digits than int() converts
                self.error("exponent is too large", etok)
            if k > MAX_DEGREE:
                self.error(f"exponent {k} exceeds the largest supported degree {MAX_DEGREE}", etok)
            bits = k * max(
                (max(abs(c.numerator), c.denominator).bit_length() for c in base.coefficients()),
                default=0,
            )
            if bits > MAX_POWER_BITS:
                self.error(
                    f"power of about {bits} bits exceeds the largest supported"
                    f" coefficient size of {MAX_POWER_BITS} bits",
                    etok,
                )
            try:
                return base**k
            except DegreeOverflowError as exc:
                self.error(str(exc), etok)
        return base

    def literal(self, tok):
        try:
            return int(tok[1])
        except ValueError:  # more digits than int() converts
            self.error("integer literal is too large", tok)

    def atom(self):
        tok = self.advance()
        kind, text, line, colno = tok
        if kind == "int":
            num = self.literal(tok)
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "/":
                save = self.pos
                self.advance()
                dtok = self.peek()
                if dtok[0] == "int":
                    self.advance()
                    den = self.literal(dtok)
                    if den == 0:
                        raise ParseError("zero denominator", dtok[2], dtok[3])
                    return Polynomial.constant(self.context, Fraction(num, den))
                self.pos = save
            return Polynomial.constant(self.context, num)
        if kind == "ident":
            try:
                return Polynomial.variable(self.context, text)
            except KeyError:
                raise ParseError(f"unknown identifier {text!r}", line, colno) from None
        if kind == "op" and text == "(":
            value = self.expr()
            close = self.advance()
            if close[0] != "op" or close[1] != ")":
                raise ParseError("expected ')'", close[2], close[3])
            return value
        raise ParseError(f"unexpected {text or 'end of input'!r}", line, colno)


def polynomial_parse(text, context, line_offset=1):
    return PolynomialParser(character_tokens(text, line_offset), context).parse()


# The canonical order, `leading_term` and `render` on exponent tuples, sorted
# through a per-term key: the order and text that `Polynomial`'s versions on
# packed keys must give byte for byte.


def _reference_order(p, exps):
    """(degree in the source variables, exponent tuple): graded lex, parameters weighing zero."""
    return (sum(exps[i] for i in p.context.source_indices), exps)


def reference_sorted_terms(p):
    return sorted(p.items(), key=lambda t: _reference_order(p, t[0]), reverse=True)


def reference_leading_term(p):
    return max(p.items(), key=lambda t: _reference_order(p, t[0]))


def reference_render(p):
    if not p.terms:
        return "0"
    order = list(p.context.parameter_indices) + list(p.context.source_indices)
    pieces = []
    for n, (exps, coeff) in enumerate(reference_sorted_terms(p)):
        factors = []
        for i in order:
            name, e = p.context.names[i], exps[i]
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = format_rational(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = format_rational(mag) + "*" + "*".join(factors)
        if n == 0:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def reference_write_slice_csv(grid, path):
    """`lefschetz.write_slice_csv` as one `"%.17g"` per cell, row by row (oracle)."""
    res = grid.resolution
    block = res * res
    cells = ["%.17g" % float(v) for v in grid.nodes]
    inner = [f"{a2},{b1}," for a2 in cells for b1 in cells]
    tail = ",".join(["%.17g"] * 5) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write("a1,a2,b1,n1,n2,n3,n4,n5\n")
        for i, a1 in enumerate(cells):
            values = grid.values[:, i * block:(i + 1) * block].T.tolist()
            head = a1 + ","
            fh.write("".join([head + pre + tail % tuple(v) for pre, v in zip(inner, values)]))


def perfbench_module(name):
    """The benchmark's module `perfbench/<name>.py`, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).parent.parent / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ainv_request_texts(seed):
    """The germ-file texts the benchmark's `ainv_replay` workload sends at `seed`."""
    inputs = perfbench_module("inputs")
    return [r["text"] for r in inputs.ainv_requests(random.Random(seed))]


def to_sympy(poly, symbols):
    """A polynomial as a sympy expression in `symbols`, given in context order."""
    import sympy

    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
        for exps, c in poly.items()
    ))


def component_samples(per_component=10, seed=1618):
    """Generic rational points on each of the five published non-cusp displays.

    Solves the component equation for one parameter with the others random,
    rejecting points that land on a second component or on the degenerate
    coefficient pairs.  Every point has a1+ib1 != 0 and a2+ib2 != 0, so it
    lies off the actual non-cusp locus and carries no witness: its singular
    set holds folds and cusps only.
    """
    from morinclass.lefschetz import noncusp_polynomials

    locus = noncusp_polynomials()
    samples = {i: [] for i in range(5)}
    rng = random.Random(seed)

    def rq():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))

    while any(len(v) < per_component for v in samples.values()):
        a1, a2, b1, b2 = (rq() for _ in range(4))
        for idx in range(5):
            if len(samples[idx]) >= per_component:
                continue
            try:
                if idx == 0:
                    if a2**2 == b2**2 or a2 * b2 == 0:
                        continue
                    pars = (2 * a2 * b1 * b2 / (a2**2 - b2**2), a2, b1, b2)
                elif idx == 1:
                    if a1 + b1 == 0 or a2 == 0:
                        continue
                    pars = (a1, a2, b1, a2 * (a1**2 + b1**2) / (2 * (a1 + b1)))
                elif idx == 2:
                    if b2 == 0 or a1 * a2 == 0:
                        continue
                    pars = (a1, a2, -a1 * a2 / b2, b2)
                elif idx == 3:
                    if a1 * b1 == 0 or a2 == 0:
                        continue
                    pars = (a1, a2, b1, a2 * (a1**2 - b1**2) / (2 * a1 * b1))
                else:
                    if a2 + b2 == 0 or a1 == 0:
                        continue
                    pars = (a1, a2, a1 * (a2**2 + b2**2) / (2 * (a2 + b2)), b2)
            except ZeroDivisionError:
                continue
            values = locus.evaluate(pars)
            if values[idx] != 0:
                continue
            others = [v for j, v in enumerate(values) if j != idx]
            if any(v == 0 for v in others):
                continue
            if (pars[0] == 0 and pars[2] == 0) or (pars[1] == 0 and pars[3] == 0):
                continue
            samples[idx].append(pars)
    return samples


def plane_samples(per_plane=10, seed=2718):
    """Generic rational points on the two planes of the actual non-cusp locus.

    Key "a1=b1=0" holds points (0, a2, 0, b2) and key "a2=b2=0" points
    (a1, 0, b1, 0), with the two free coordinates random nonzero rationals,
    so no point lies on the other plane.  Off these planes every member of
    the family is affinely equivalent to UV + conj(U) + conj(V).
    """
    rng = random.Random(seed)

    def rq():
        while True:
            v = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            if v:
                return v

    zero = Fraction(0)
    samples = {"a1=b1=0": [], "a2=b2=0": []}
    for plane, points in samples.items():
        while len(points) < per_plane:
            s, t = rq(), rq()
            pars = (zero, s, zero, t) if plane == "a1=b1=0" else (s, zero, t, zero)
            if pars not in points:
                points.append(pars)
    return samples


def labels_equivalent(a, b):
    """Label equality up to the fold-signature swap.

    (x, q) and (x, -q) are equivalent germs, so a fold's (pos, neg) pair is
    an invariant only as a multiset.
    """
    if a.kind != b.kind or a.k != b.k or a.reason != b.reason:
        return False
    if a.signature is None or b.signature is None:
        return a.signature == b.signature
    return sorted(a.signature) == sorted(b.signature)


@pytest.fixture
def rng():
    return random.Random(20240817)
