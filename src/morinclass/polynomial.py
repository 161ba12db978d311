"""Sparse multivariate polynomials with exact rational coefficients.

The term map is canonical (no zero coefficients), so two polynomials are
equal iff their term maps are equal.  Its keys are packed monomials, one int
per exponent vector laid out by the context (see `morinclass.context`), and
they stay private to this module, the kernel and the parser, which
computes on term dicts and wraps its result: the public constructor
takes exponent tuples, and `items`, `exponents`, `coefficients` and
`coefficient` speak in them.  Results of the kernel are wrapped as they
come, without packing or truncating them again.  A product whose total
degree would exceed `context.MAX_DEGREE` raises DegreeOverflowError.

The heavy term-merging loops live in `morinclass._termops_py`.
Coefficients are exact rational scalars: plain ints are kept as ints
(integer arithmetic is far cheaper than normalized fractions), everything
else is a Fraction, and the two mix freely.  The float companion
(`morinclass.numeric`) runs the same code on float coefficients, which
`constant`, scalar products and `MapGerm.translate` accept; `rat` and so
`from_terms` stay exact.

Canonical text rendering sorts monomials by graded lexicographic order,
where the grade counts source-role variables only (parameters weigh zero)
and ties break on the exponent vector, descending, in context order.  That
ordering is the contract for golden-file tests.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm

from . import _termops_py as kernel
from .context import MAX_DEGREE, ContextMismatchError, VariableContext, check_same_context
from .rationals import format_rational, rat


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
    """`jet` is an optional total-degree cap: arithmetic on capped polynomials
    truncates every result, so whole pipelines can run in the jet ring at the
    base point without intermediate term blowup.

    The cap is the order to which the terms are known.  A sum is known to
    the smaller cap of its operands.  A product also uses the order of
    vanishing, ord, the lowest degree present (cap + 1 for an empty jet,
    infinite for an uncapped zero): p q is known to
    min(cap p + ord q, cap q + ord p), so a jet times a polynomial vanishing
    to order v gains v orders, and p^k is known to cap p + (k-1) ord p;
    neither cap goes past MAX_DEGREE.  A
    derivative of a k-jet is a (k-1)-jet.  So every result of capped
    arithmetic is exact in each degree it holds; this is precision tracking
    in the m-adic setting.  Uncapped polynomials stay uncapped.
    """

    __slots__ = ("context", "terms", "jet")

    def __init__(self, context: VariableContext, terms: dict, jet: int = None):
        """`terms` maps exponent tuples to nonzero coefficients."""
        pack = context.pack
        terms = {pack(exps): coeff for exps, coeff in terms.items()}
        if jet is not None:
            terms = kernel.truncate_terms(terms, jet, context)
        self.context = context
        self.terms = terms  # packed and canonical: no zero coefficients; treat as immutable
        self.jet = jet

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
    def from_terms(cls, context, mapping):
        terms = {}
        for exps, coeff in mapping.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(context):
                raise ValueError(f"exponent vector {exps} has wrong length for context")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if not isinstance(coeff, int):
                coeff = rat(coeff)
            if coeff:
                terms[exps] = terms.get(exps, 0) + coeff
        return cls(context, {e: c for e, c in terms.items() if c})

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
        other = self._coerce(other)
        return self._capped(other, kernel.add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self._capped(other, kernel.sub_terms(self.terms, other.terms))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Polynomial._wrap(self.context, kernel.neg_terms(self.terms), self.jet)

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return Polynomial._wrap(self.context, kernel.scale_terms(self.terms, other), self.jet)
        other = self._coerce(other)
        ctx = self.context
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
        den = lcm(*(c.denominator for c in self.terms.values()))  # an int's is 1
        terms = {k: c.numerator * (den // c.denominator) for k, c in self.terms.items()}
        return Polynomial._wrap(self.context, terms, self.jet)

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
        must be bound by a polynomial over the target context.
        """
        ctx = target_context if target_context is not None else self.context
        images = []
        for i, name in enumerate(self.context.names):
            if name in bindings:
                img = bindings[name]
                if not isinstance(img, Polynomial):
                    img = Polynomial.constant(ctx, img)
                elif img.context != ctx:
                    raise ContextMismatchError(
                        f"binding for {name!r} lives in a different context"
                    )
                images.append(img)
            elif target_context is None:
                images.append(Polynomial.variable(ctx, name))
            else:
                images.append(None)  # must stay unused
        out, jet = {}, None
        power_cache = {}
        # in exponent-tuple order, which fixes the order of every float sum;
        # each term is the product coeff * p_1 * p_2 * ... and joins the sum
        # as `*` and `+` would join them, caps included
        for exps, coeff in sorted(self.items()):
            term, term_jet = {0: coeff}, None
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if images[i] is None:
                    raise KeyError(
                        f"variable {self.context.names[i]!r} is unbound under the target context"
                    )
                key = (i, e)
                p = power_cache.get(key)
                if p is None:
                    p = images[i] ** e
                    power_cache[key] = p
                term_jet = _product_jet(term, term_jet, p.terms, p.jet, ctx.degree_shift)
                term = kernel.mul_terms(term, p.terms, ctx, -1 if term_jet is None else term_jet)
            out = kernel.add_terms(out, term)
            if jet != term_jet:
                jet = _jet_min(jet, term_jet)
                out = kernel.truncate_terms(out, jet, ctx)
        return Polynomial._wrap(ctx, out, jet)

    # -- canonical ordering, rendering, division ------------------------------

    def _order_key(self, exps):
        idx = self.context.source_indices
        return (sum(exps[i] for i in idx), exps)

    def sorted_terms(self):
        """Terms in canonical (graded-lex, descending) order."""
        return sorted(self.items(), key=lambda t: self._order_key(t[0]), reverse=True)

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.items(), key=lambda t: self._order_key(t[0]))

    def render(self) -> str:
        """Canonical text form, e.g. `x2^2 + y2^2 + a1*x2 + b1*y2`.

        Within a monomial, parameter factors print before source factors
        (each group in context order), matching the classical displays.
        """
        if not self.terms:
            return "0"
        order = list(self.context.parameter_indices) + list(self.context.source_indices)
        pieces = []
        for n, (exps, coeff) in enumerate(self.sorted_terms()):
            factors = []
            for i in order:
                name, e = self.context.names[i], exps[i]
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

    def __repr__(self):
        return f"Polynomial({self.render()})"

    def divide(self, divisor):
        """Single-divisor multivariate division: returns (quotient, remainder).

        Uses the canonical monomial order.  When `self` is a multiple of
        `divisor` the remainder is exactly zero, so this doubles as an exact
        divisibility test.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.jet is not None or divisor.jet is not None:
            raise ValueError("division is not defined on jet-capped polynomials")
        div_exps, div_coeff = divisor.leading_term()
        tail = [(e, c) for e, c in divisor.items() if e != div_exps]
        src = self.context.source_indices

        def heap_key(exps):
            # `_order_key` negated, so heapq's smallest entry leads
            return (-sum(exps[i] for i in src), tuple(-e for e in exps))

        # Each step removes the leading term and adds only terms below it, so
        # a popped exponent never returns; keys of cancelled terms go stale.
        work = dict(self.items())
        heap = [(heap_key(e), e) for e in work]
        heapq.heapify(heap)
        quotient, remainder = {}, {}
        while heap:
            exps = heapq.heappop(heap)[1]
            coeff = work.pop(exps, None)
            if coeff is None:
                continue
            delta = tuple(a - b for a, b in zip(exps, div_exps))
            if delta and min(delta) < 0:
                remainder[exps] = coeff
                continue
            ratio = Fraction(coeff, div_coeff)
            if ratio.denominator == 1:
                ratio = ratio.numerator
            quotient[delta] = ratio
            for e, c in tail:
                e = tuple(a + b for a, b in zip(delta, e))
                s = work.get(e, 0) - ratio * c
                if not s:
                    del work[e]
                    continue
                if e not in work:
                    heapq.heappush(heap, (heap_key(e), e))
                work[e] = s
        return Polynomial(self.context, quotient), Polynomial(self.context, remainder)

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
        exps = list(self.exponents())
        exps_min = [min(e[i] for e in exps) for i in range(len(self.context))]
        coeff = Fraction(gcd(*(c.numerator for c in self.terms.values())),
                         lcm(*(c.denominator for c in self.terms.values())))
        if self.leading_term()[1] < 0:
            coeff = -coeff
        return tuple(exps_min), coeff

    def primitive_part(self):
        exps, coeff = self.monomial_content()
        content = Polynomial(self.context, {exps: coeff})
        return self.div_exact(content)
