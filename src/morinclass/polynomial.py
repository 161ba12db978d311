"""Sparse multivariate polynomials with exact rational coefficients.

The term map is canonical (no zero coefficients), so two polynomials are
equal iff their term maps are equal.  Its keys are packed monomials, one int
per exponent vector laid out by the context (see `morinclass.context`), and
they stay inside the package: the public constructor takes exponent tuples,
and `items`, `exponents`, `coefficients` and `coefficient` speak in them.
Besides this module, the kernel and the parser, `.terms` is read by key in
`MapGerm.translate`, `germ._apply_fields`, `germ._row_sum`, `germ._integer_row`,
`criteria._taylor_tail` and `criteria.kernel_hessian_at_origin` (the last two
by sums of the context's keys); all but the last wrap the term dicts they
compute with `Polynomial._wrap`, and `numeric` keys its shared pipelines on them.
`linear_coefficients` reads the gradient at 0 by the context's packed keys
of the x_j.  Kernel results are wrapped as they come, not packed or
truncated again.  A product whose total degree would exceed
`context.MAX_DEGREE` raises DegreeOverflowError.

The heavy term-merging loops live in `morinclass._termops_py`.
Coefficients are exact rational scalars: plain ints are kept as ints
(integer arithmetic is far cheaper than normalized fractions), everything
else is a Fraction, and the two mix freely.  A scalar product takes an
integral Fraction as its int, so an int polynomial times an entry of a
`RationalMatrix` such as `Fraction(3, 1)` stays int; `rationals.cleared`
owns the integer form of a coefficient list.  The float companion
(`morinclass.numeric`) runs the same code on float coefficients, which
`constant`, scalar products and `MapGerm.translate` accept.

Canonical text rendering sorts monomials by graded lexicographic order,
where the grade counts source-role variables only (parameters weigh zero)
and ties break on the exponent vector, descending, in context order: the
packed key less its parameter exponents in the degree field (the key itself
without parameters).  That ordering is the contract for golden-file tests.
"""

import heapq
from fractions import Fraction
from math import gcd

from . import _termops_py as kernel
from .context import (MAX_DEGREE, ContextMismatchError, VariableContext, check_degree,
                      check_same_context)
from .rationals import cleared, format_rational, quotient, rat


def _jet_min(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _order(terms, jet, shift):
    """The order of vanishing: the lowest degree present, jet + 1 for an empty
    jet, and None (infinite) for the exact zero."""
    if 0 in terms:
        return 0
    if terms:
        return min(terms) >> shift  # the keys order by total degree first
    return None if jet is None else jet + 1


def _product_jet(a, ja, b, jb, shift):
    """The order to which a product of `a` (known to ja) and `b` (to jb) is known.

    An unknown term of a of degree > ja meets the terms of b of degree at
    least ord b, so it disturbs the product only above ja + ord b; and
    symmetrically.  So the cap is min(ja + ord b, jb + ord a), None if both
    are infinite.  It stops at MAX_DEGREE: a product known beyond is known
    to MAX_DEGREE too, and no term above it could be held.
    """
    jet = None
    if ja is not None:
        order = _order(b, jb, shift)
        if order is not None:
            jet = ja + order
    if jb is not None:
        order = _order(a, ja, shift)
        if order is not None and (jet is None or jb + order < jet):
            jet = jb + order
    return jet if jet is None or jet < MAX_DEGREE else MAX_DEGREE


def _canonical_order(context):
    """The sort key of the canonical order on packed keys, None for the key itself.

    The key less its parameter exponents in the degree field: source degree,
    then the exponents in context order.  Without parameters that is the key.
    """
    params = context.parameter_indices
    if not params:
        return None
    unpack, shift = context.unpack, context.degree_shift

    def order(key):
        exps = unpack(key)
        return key - (sum([exps[i] for i in params]) << shift)

    return order


def _refuse_floats(what, *polys):
    """Exact division reads each coefficient as a rational: refuse a float one."""
    if any(isinstance(c, float) for p in polys for c in p.terms.values()):
        raise ValueError(f"{what} is not defined on float coefficients")


def jet_order(polys):
    """The order to which all of `polys` are known: their smallest cap, None if all are exact."""
    caps = [p.jet for p in polys if p.jet is not None]
    return min(caps) if caps else None


def cut_to_order(p, polys):
    """`p` truncated to the order of `polys`, where the jet rule knows it further.

    A stage computed from `polys` is read only to their order, as the
    stages of the classifier spend it.
    """
    order = jet_order(polys)
    return p if order is None else p.truncated(order)


class Polynomial:
    """`jet` is an optional total-degree cap, set by `truncated(k)`: arithmetic
    on capped polynomials truncates every result, so whole pipelines can run
    in the jet ring at the base point without intermediate term blowup.

    The cap is the order to which the terms are known.  A sum is known to
    the smaller cap of its operands.  A product also uses the order of
    vanishing, ord, the lowest degree present (cap + 1 for an empty jet,
    infinite for an uncapped zero): p q is known to
    min(cap p + ord q, cap q + ord p), so a jet times a polynomial vanishing
    to order v gains v orders, and p^k is known to cap p + (k-1) ord p;
    neither cap goes past MAX_DEGREE.  A
    derivative of a k-jet is a (k-1)-jet.  So every result of capped
    arithmetic is exact in each degree it holds; this is precision tracking
    in the m-adic setting.  Uncapped polynomials stay uncapped, and
    `substitute` and `divide` refuse jets, and `divide` and the content
    float coefficients; both read exponents from the packed keys' fields and
    add and subtract keys, without exponent tuples.
    """

    __slots__ = ("context", "terms", "jet")

    def __init__(self, context: VariableContext, terms: dict):
        """`terms` maps exponent tuples to nonzero coefficients."""
        pack = context.pack
        self.context = context
        # packed and canonical: no zero coefficients; treat as immutable
        self.terms = {pack(exps): coeff for exps, coeff in terms.items()}
        self.jet = None

    @classmethod
    def _wrap(cls, context, terms, jet=None):
        """A polynomial on packed `terms` that already satisfy the cap `jet`."""
        p = object.__new__(cls)
        p.context = context
        p.terms = terms
        p.jet = jet
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, context, value):
        if not isinstance(value, (int, float)):
            value = rat(value)
        return cls._wrap(context, {0: value} if value else {})

    @classmethod
    def variable(cls, context, name):
        return cls._wrap(context, {context.degree_unit + context.units[context.index(name)]: 1})

    @classmethod
    def zero(cls, context):
        return cls._wrap(context, {})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree over all variables; zero polynomial has degree 0."""
        if not self.terms:
            return 0
        return max(self.terms) >> self.context.degree_shift

    def constant_term(self):
        return self.terms.get(0, 0)

    def coefficient(self, exps):
        return self.terms.get(self.context.pack(exps), 0)

    def linear_coefficients(self):
        """The coefficient of each source variable x_j: the gradient at 0.

        No derivative is built.  A 0-jet does not know these coefficients.
        """
        if self.jet == 0:
            raise ValueError("a 0-jet has no derivative")
        get = self.terms.get
        return [get(key, 0) for key in self.context.linear_keys]

    # -- term access: exponent tuples, in term order --------------------------

    def items(self):
        """An iterator over the (exponent tuple, coefficient) pairs, in term order."""
        unpack = self.context.unpack
        return ((unpack(key), coeff) for key, coeff in self.terms.items())

    def exponents(self):
        """An iterator over the exponent tuples of the terms, in term order."""
        return map(self.context.unpack, self.terms)

    def coefficients(self):
        """The nonzero coefficients, in term order."""
        return self.terms.values()

    def map_coefficients(self, fn):
        """The same monomials with each coefficient c replaced by fn(c), which must not vanish."""
        return Polynomial._wrap(self.context, {k: fn(c) for k, c in self.terms.items()}, self.jet)

    def involves(self, indices):
        """Whether some term has a positive exponent at one of the variable `indices`."""
        mask = self.context.field_mask(indices)
        return any(key & mask for key in self.terms)

    def at_zero(self, indices):
        """This polynomial with the variables at `indices` set to 0."""
        mask = self.context.field_mask(indices)
        return Polynomial._wrap(
            self.context, {k: c for k, c in self.terms.items() if not k & mask}, self.jet
        )

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            check_same_context(self, other)
            return other
        return Polynomial.constant(self.context, other)

    def _capped(self, other, terms):
        """A sum's terms, known to the smaller cap of its operands."""
        jet = _jet_min(self.jet, other.jet)
        if self.jet != other.jet:
            # one operand may hold terms above the smaller cap
            terms = kernel.truncate_terms(terms, jet, self.context)
        return Polynomial._wrap(self.context, terms, jet)

    def __add__(self, other):
        if other.__class__ is not Polynomial or other.context is not self.context:
            other = self._coerce(other)
        return self._capped(other, kernel.add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Polynomial or other.context is not self.context:
            other = self._coerce(other)
        return self._capped(other, kernel.sub_terms(self.terms, other.terms))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Polynomial._wrap(self.context, kernel.neg_terms(self.terms), self.jet)

    def __mul__(self, other):
        ctx = self.context
        if other.__class__ is not Polynomial or other.context is not ctx:
            if isinstance(other, (int, float, Fraction)):
                if isinstance(other, Fraction) and other.denominator == 1:
                    other = other.numerator  # int terms stay ints
                return Polynomial._wrap(ctx, kernel.scale_terms(self.terms, other), self.jet)
            other = self._coerce(other)
        jet = _product_jet(self.terms, self.jet, other.terms, other.jet, ctx.degree_shift)
        trunc = -1 if jet is None else jet
        return Polynomial._wrap(ctx, kernel.mul_terms(self.terms, other.terms, ctx, trunc), jet)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take a non-negative integer exponent")
        if k == 0:
            return Polynomial.constant(self.context, 1)
        jet = self.jet
        if jet is not None:
            order = _order(self.terms, jet, self.context.degree_shift)
            jet = min(jet + (k - 1) * order, MAX_DEGREE)
            if k * order > jet:  # every term of p^k lies above the cap
                return Polynomial._wrap(self.context, {}, jet)
        trunc = -1 if jet is None else jet
        return Polynomial._wrap(
            self.context, kernel.pow_terms(self.terms, k, self.context, trunc), jet
        )

    def truncated(self, max_degree: int):
        """The jet at 0 of order max_degree, or this jet if its cap is lower already."""
        if self.jet is not None and self.jet <= max_degree:
            return self
        return Polynomial._wrap(
            self.context, kernel.truncate_terms(self.terms, max_degree, self.context), max_degree
        )

    def integer_scaled(self):
        """A positive integer multiple of this polynomial with int coefficients."""
        return Polynomial._wrap(
            self.context, dict(zip(self.terms, cleared(self.terms.values())[1])), self.jet)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                other = Polynomial.constant(self.context, other)
            else:
                return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------------

    def derivative(self, name):
        """Exact formal partial derivative; a k-jet differentiates to a (k-1)-jet."""
        jet = self.jet
        if jet is not None:
            if jet == 0:
                raise ValueError("a 0-jet has no derivative")
            jet -= 1
        return Polynomial._wrap(
            self.context, kernel.diff_terms(self.terms, self.context.index(name), self.context), jet
        )

    def evaluate(self, assignment) -> Fraction:
        """Exact value at a point given as a mapping name -> rational.

        The assignment must cover every variable of the context.
        """
        values = []
        for name in self.context.names:
            if name not in assignment:
                raise KeyError(f"missing assignment for variable {name!r}")
            values.append(rat(assignment[name]))
        return kernel.eval_terms(self.terms, tuple(values), self.context)

    def substitute(self, bindings, target_context=None):
        """Exact composition: replace variables by polynomials.

        Without `target_context` the result stays in this context and unbound
        variables map to themselves.  With it, every variable actually present
        must be bound by a polynomial over the target context.  Binding a name
        that is no variable here raises KeyError.  A jet, here or among the
        images, is refused: composition is computed uncapped only.
        """
        src = self.context
        ctx = target_context if target_context is not None else src
        if self.jet is not None:
            raise ValueError("cannot substitute into a jet")
        if target_context is None:
            images = [Polynomial.variable(ctx, name) for name in src.names]
        else:
            images = [None] * len(src)  # an unbound variable must stay unused
        for name, img in bindings.items():
            i = src.index(name)
            if not isinstance(img, Polynomial):
                img = Polynomial.constant(ctx, img)
            elif img.context != ctx:
                raise ContextMismatchError(f"binding for {name!r} lives in a different context")
            elif img.jet is not None:
                raise ValueError(f"cannot substitute the jet bound to {name!r}")
            images[i] = img
        out = {}
        power_cache = {}
        # in exponent-tuple order (a key's, less its degree field), which fixes
        # the order of every float sum; each term is the product
        # coeff * p_1 * p_2 * ... and joins the sum as `*` and `+` would join them
        for key in sorted(self.terms, key=(src.degree_unit - 1).__and__):
            term = {0: self.terms[key]}
            for i, shift in enumerate(src.field_shifts):
                e = key >> shift & MAX_DEGREE
                if e == 0:
                    continue
                if images[i] is None:
                    raise KeyError(f"variable {src.names[i]!r} is unbound under the target context")
                p = power_cache.get((i, e))
                if p is None:
                    p = power_cache[i, e] = images[i] ** e
                term = kernel.mul_terms(term, p.terms, ctx)
            kernel.iadd_terms(out, term)
        return Polynomial._wrap(ctx, out)

    # -- canonical ordering, rendering, division ------------------------------

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.terms, key=_canonical_order(self.context))
        return self.context.unpack(key), self.terms[key]

    def render(self) -> str:
        """Canonical text form, e.g. `x2^2 + y2^2 + a1*x2 + b1*y2`.

        Within a monomial, parameter factors print before source factors
        (each group in context order), matching the classical displays.  A
        float magnitude prints as its `repr`, an exact one with every digit.
        """
        if not self.terms:
            return "0"
        context, terms = self.context, self.terms
        unpack, names = context.unpack, context.names
        factors = context.parameter_indices + context.source_indices
        pieces = []
        for key in sorted(terms, key=_canonical_order(context), reverse=True):
            try:
                text = str(terms[key])  # `format_rational`'s text, or a float's repr
            except ValueError:  # more digits than `str` prints
                text = format_rational(terms[key])
            sign, text = ("- ", text[1:]) if text[0] == "-" else ("+ ", text)
            if key:
                exps = unpack(key)
                mono = "*".join([names[i] if exps[i] == 1 else f"{names[i]}^{exps[i]}"
                                 for i in factors if exps[i]])
                text = mono if text == "1" or text == "1.0" else text + "*" + mono
            pieces.append(sign + text)
        text = " ".join(pieces)
        return "-" + text[2:] if text[0] == "-" else text[2:]

    def __repr__(self):
        return f"Polynomial({self.render()})"

    def divide(self, divisor):
        """Single-divisor multivariate division: returns (quotient, remainder).

        Uses the canonical monomial order: the lead is `leading_term`'s, and
        quotient and remainder hold their terms in descending order.  When
        `self` is a multiple of `divisor` the remainder is exactly zero, so this
        doubles as an exact divisibility test.  A step that would form a term
        of degree above MAX_DEGREE raises DegreeOverflowError, and a jet or a
        float coefficient, of either operand, ValueError.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.jet is not None or divisor.jet is not None:
            raise ValueError("division is not defined on jet-capped polynomials")
        _refuse_floats("division", self, divisor)
        ctx, shift = self.context, self.context.degree_shift
        order = _canonical_order(ctx) or int  # int: the key itself
        lead = max(divisor.terms, key=order)
        lead_coeff = divisor.terms[lead]
        tail = [(k, c) for k, c in divisor.terms.items() if k != lead]
        # a term is divisible when it has at least each nonzero field of the lead
        fields = [(f, e) for f in ctx.field_shifts if (e := lead >> f & MAX_DEGREE)]
        degree = divisor.degree()  # a quotient term times the divisor must fit a key

        # Each step removes the leading term and adds only terms below it, so
        # a popped key never returns; entries of cancelled terms go stale.
        work = dict(self.terms)
        heap = [(-order(key), key) for key in work]
        heapq.heapify(heap)
        quot, remainder = {}, {}
        while heap:
            key = heapq.heappop(heap)[1]
            coeff = work.pop(key, None)
            if coeff is None:
                continue
            if not all(key >> f & MAX_DEGREE >= e for f, e in fields):
                remainder[key] = coeff
                continue
            delta = key - lead
            check_degree((delta >> shift) + degree)
            ratio = quot[delta] = quotient(coeff, lead_coeff)
            for k, c in tail:
                k += delta
                s = work.get(k, 0) - ratio * c
                if not s:
                    del work[k]
                    continue
                if k not in work:
                    heapq.heappush(heap, (-order(k), k))
                work[k] = s
        return Polynomial._wrap(ctx, quot), Polynomial._wrap(ctx, remainder)

    def div_exact(self, divisor):
        q, r = self.divide(divisor)
        if not r.is_zero():
            raise ValueError(f"{divisor!r} does not divide {self!r} exactly")
        return q

    def monomial_content(self):
        """Largest monomial (with rational coefficient) dividing every term.

        Returns (exponent tuple, coefficient) where the coefficient is the
        positive gcd of all coefficients carrying the sign of the leading term.
        """
        if not self.terms:
            raise ValueError("zero polynomial has no content")
        _refuse_floats("content", self)
        exps = list(self.exponents())
        exps_min = [min(e[i] for e in exps) for i in range(len(self.context))]
        den, ints = cleared(self.terms.values())
        coeff = Fraction(gcd(*ints), den)
        if self.leading_term()[1] < 0:
            coeff = -coeff
        return tuple(exps_min), coeff

    def primitive_part(self):
        exps, coeff = self.monomial_content()
        content = Polynomial(self.context, {exps: coeff})
        return self.div_exact(content)
