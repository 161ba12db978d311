"""Exact polynomial arithmetic, calculus and canonical rendering."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morinclass import ContextMismatchError, MapGerm, Polynomial, VariableContext, classify
from morinclass.cli import report_to_dict
from morinclass.context import PARAMETER, SOURCE

from morinclass.lefschetz import locus_context
from morinclass.rationals import format_rational, integer_text

from conftest import (
    int_str_digits,
    make_context,
    naive_divide,
    perfbench_module,
    random_polynomial,
    reference_leading_term,
    reference_render,
)


@pytest.fixture
def xyz():
    ctx = make_context("x", "y", "z")
    return ctx, Polynomial.variable(ctx, "x"), Polynomial.variable(ctx, "y"), Polynomial.variable(ctx, "z")


def lefschetz_ctx():
    return VariableContext.make(("x1", "x2", "y1", "y2"), ("a1", "a2", "b1", "b2"))


class TestArithmetic:
    def test_difference_of_squares(self, xyz):
        ctx, x, y, z = xyz
        assert (x + y) * (x - y) == x**2 - y**2

    def test_add_zero_is_identity(self, xyz):
        ctx, x, y, z = xyz
        p = 3 * x * y - z**2
        assert p + Polynomial.zero(ctx) == p

    def test_family_first_component_assembly(self):
        ctx = lefschetz_ctx()
        x1, x2, y1, y2, a1, a2, b1, b2 = (Polynomial.variable(ctx, n) for n in ctx.names)
        combined = (x1 * x2 - y1 * y2) + (a1 * x1 + a2 * x2)
        expected = Polynomial(
            ctx,
            {
                (1, 1, 0, 0, 0, 0, 0, 0): 1,
                (0, 0, 1, 1, 0, 0, 0, 0): -1,
                (1, 0, 0, 0, 1, 0, 0, 0): 1,
                (0, 1, 0, 0, 0, 1, 0, 0): 1,
            },
        )
        assert combined == expected

    def test_context_mismatch_raises(self, xyz):
        ctx, x, *_ = xyz
        other = make_context("u")
        with pytest.raises(ContextMismatchError):
            x + Polynomial.variable(other, "u")

    def test_scalar_mixing(self, xyz):
        ctx, x, y, z = xyz
        assert 2 * x - x == x
        assert (Fraction(1, 2) * x) * 2 == x

    def test_power(self, xyz):
        ctx, x, y, _ = xyz
        assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
        assert x**0 == Polynomial.constant(ctx, 1)
        with pytest.raises(ValueError):
            x ** (-1)


class TestCalculus:
    def test_partial_derivative(self, xyz):
        ctx, x, y, z = xyz
        assert (x**2 * y).derivative("x") == 2 * x * y

    def test_derivative_of_constant(self, xyz):
        ctx, *_ = xyz
        assert Polynomial.constant(ctx, 5).derivative("x").is_zero()

    def test_family_component_derivative(self):
        ctx = lefschetz_ctx()
        x1, x2, y1, y2, *_ = (Polynomial.variable(ctx, n) for n in ctx.names)
        assert (x1 * x2 - y1 * y2).derivative("x1") == x2

    def test_unknown_variable(self, xyz):
        ctx, x, *_ = xyz
        with pytest.raises(KeyError):
            x.derivative("w")

    def test_derivative_spends_one_jet_order(self, xyz):
        ctx, x, y, z = xyz
        p = (x**3 * y + x * z**2 + 2 * x**2 + y).truncated(3)
        d = p.derivative("x")
        assert d.jet == 2
        assert d == (3 * x**2 * y + z**2 + 4 * x).truncated(2)
        assert d.derivative("z").jet == 1
        # d and p both vanish at 0, so their product is known to
        # min(cap d + ord p, cap p + ord d) = min(2 + 1, 3 + 1)
        assert (d * p).jet == 3

    def test_derivative_of_zero_jet_raises(self, xyz):
        ctx, x, y, z = xyz
        c = (3 + x).truncated(0)
        assert c == 3
        with pytest.raises(ValueError):
            c.derivative("x")

    def test_derivative_of_uncapped_stays_uncapped(self, xyz):
        ctx, x, y, z = xyz
        p = x**5 * y + z
        assert p.derivative("x").jet is None
        assert p.derivative("x").derivative("x").derivative("x") == 60 * x**2 * y


class TestEvaluate:
    def test_simple(self, xyz):
        ctx, x, y, z = xyz
        p = x**2 + 1
        assert p.evaluate({"x": 0, "y": 0, "z": 0}) == 1

    def test_lambda_two_at_origin(self):
        ctx = lefschetz_ctx()
        x2, y2, a1, b1 = (Polynomial.variable(ctx, n) for n in ("x2", "y2", "a1", "b1"))
        lam2 = x2**2 + y2**2 + a1 * x2 + b1 * y2
        zeros = {n: 0 for n in ctx.names}
        assert lam2.evaluate(zeros) == 0

    def test_exact_rational_point(self, xyz):
        ctx, x, y, z = xyz
        p = 3 * z**2 + x
        value = p.evaluate({"x": Fraction(1, 2), "y": 0, "z": Fraction(1, 3)})
        assert value == Fraction(5, 6)

    def test_missing_assignment(self, xyz):
        ctx, x, *_ = xyz
        with pytest.raises(KeyError):
            x.evaluate({"x": 1, "y": 2})


class TestSubstitute:
    def test_shift(self):
        ctx = make_context("x", "u")
        x = Polynomial.variable(ctx, "x")
        u = Polynomial.variable(ctx, "u")
        assert (x**2).substitute({"x": u + 1}) == u**2 + 2 * u + 1

    def test_identity_bindings(self, xyz):
        ctx, x, y, z = xyz
        p = x * y + z**3
        assert p.substitute({}) == p
        assert p.substitute({"x": x, "y": y}) == p

    def test_cross_context_requires_full_bindings(self, xyz):
        ctx, x, y, z = xyz
        target = make_context("u")
        u = Polynomial.variable(target, "u")
        p = x + y
        assert p.substitute({"x": u, "y": u**2}, target_context=target) == u + u**2
        with pytest.raises(KeyError):
            p.substitute({"x": u}, target_context=target)

    def test_unknown_binding_raises(self):
        # a mistyped name must not pass as a variable left unbound
        ctx, target = make_context("x", "y"), make_context("u")
        x, y = Polynomial.variable(ctx, "x"), Polynomial.variable(ctx, "y")
        u = Polynomial.variable(target, "u")
        p = x**2 + y
        with pytest.raises(KeyError, match="unknown variable 'z'"):
            p.substitute({"z": 5})
        with pytest.raises(KeyError, match="unknown variable 'z'"):
            p.substitute({"x": u, "y": u, "z": u}, target_context=target)

    def test_refuses_jets(self):
        # binding a = 2 in the 3-jet of a x y + a x^3 must not answer with the
        # exact-looking 2 x y: to order 3 the composition is 2 x^3 + 2 x y
        ctx = make_context("x", "y", params=("a",))
        x, y, a = (Polynomial.variable(ctx, n) for n in ("x", "y", "a"))
        p = a * x * y + a * x**3
        two = Polynomial.constant(ctx, 2)
        assert p.substitute({"a": two}) == 2 * x**3 + 2 * x * y
        with pytest.raises(ValueError, match="jet"):
            p.truncated(3).substitute({"a": two})
        with pytest.raises(ValueError, match="jet"):
            p.substitute({"a": two.truncated(3)})
        with pytest.raises(ValueError, match="jet"):
            MapGerm(ctx, (x, p)).truncated(3).bind_parameters({"a": 2})
        assert MapGerm(ctx, (x, p)).bind_parameters({"a": 2}).components[1] == p.substitute(
            {"a": two})


class TestCanonicalForm:
    def test_no_zero_terms_stored(self, xyz):
        ctx, x, y, _ = xyz
        p = x + y - x - y
        assert p.terms == {}
        assert p.is_zero()

    def test_rendering_contract(self):
        ctx = lefschetz_ctx()
        x2, y2, a1, b1 = (Polynomial.variable(ctx, n) for n in ("x2", "y2", "a1", "b1"))
        lam2 = x2**2 + y2**2 + a1 * x2 + b1 * y2
        assert lam2.render() == "x2^2 + y2^2 + a1*x2 + b1*y2"

    def test_render_zero_and_constants(self, xyz):
        ctx, x, *_ = xyz
        assert Polynomial.zero(ctx).render() == "0"
        assert Polynomial.constant(ctx, Fraction(-3, 2)).render() == "-3/2"
        assert (Fraction(1, 2) * x).render() == "1/2*x"
        assert (-x).render() == "-x"

    def test_float_coefficients_render_as_their_repr(self, xyz):
        ctx, x, y, z = xyz
        moved = MapGerm(ctx, (x, y**2 + z**2)).translate((0.5, 0.25, 0.0))
        assert repr(moved.components[1]) == "Polynomial(y^2 + z^2 + 0.5*y)"
        p = Polynomial(ctx, {(1, 0, 0): float("nan"), (0, 1, 0): -float("inf"),
                             (0, 0, 2): -1.0, (0, 0, 1): 1e-300, (0, 0, 0): 1.0})
        assert p.render() == "-z^2 + nan*x - inf*y + 1e-300*z + 1.0"

    @pytest.mark.parametrize("limit", [640, 4300])
    def test_numbers_print_every_digit(self, xyz, limit):
        # `str` refuses ints of more than `limit` digits; the text has them all
        ctx, x, y, _ = xyz
        edge = 10**limit
        numbers = [0, -7, edge - 1, edge, -edge, 3 ** (5 * limit), -edge * edge - 1, edge * edge + edge]
        big = Fraction(-(3**10000), 2**20000)
        p = big * x + (5**8000) * y + Fraction(1, edge)
        with int_str_digits(0):
            expected = [str(n) for n in numbers], str(big), p.render()
        with int_str_digits(limit):
            got = [integer_text(n) for n in numbers], format_rational(big), p.render()
        assert got == expected


    def test_divide_exact_and_remainder(self, xyz):
        ctx, x, y, _ = xyz
        p = (x + y) * (x - y)
        q, r = p.divide(x + y)
        assert r.is_zero() and q == x - y
        q, r = (p + 1).divide(x + y)
        assert not r.is_zero()
        assert q * (x + y) + r == p + 1

    def test_division_refuses_jets_and_floats(self, xyz):
        # a float quotient would not be exact: x^2 + y^2 at (0.5, 0.25) has
        # the float terms 1.0*x and 0.5*y
        ctx, x, y, _ = xyz
        p = x**2 + y**2
        shifted = MapGerm(ctx, (p,)).translate((0.5, 0.25, 0.0)).components[0]
        refusals = [(p.truncated(2).divide, (x,), "jet"), (p.divide, (x.truncated(1),), "jet"),
                    (shifted.divide, (x,), "float"), (shifted.div_exact, (x,), "float"),
                    (p.divide, (0.5 * x,), "float"),
                    (shifted.primitive_part, (), "float"), (shifted.monomial_content, (), "float")]
        for method, args, what in refusals:
            with pytest.raises(ValueError, match=f"not defined on {what}"):
                method(*args)

    def test_monomial_content(self, xyz):
        ctx, x, y, _ = xyz
        p = 6 * x**2 * y - 4 * x * y**2
        exps, coeff = p.monomial_content()
        assert exps == (1, 1, 0) and coeff == 2
        assert p.primitive_part() == 3 * x - 2 * y


# parameters last, first, interleaved with the sources, parameters only, and
# the locus context, whose names are the parameters' but whose roles are sources
RENDER_LAYOUTS = {
    "params_last": VariableContext.make(("x", "y", "z"), ("a", "b")),
    "params_first": VariableContext(("a", "b", "x", "y", "z"), (PARAMETER,) * 2 + (SOURCE,) * 3),
    "interleaved": VariableContext(("a", "x", "b", "y", "z"),
                                   (PARAMETER, SOURCE, PARAMETER, SOURCE, SOURCE)),
    "params_only": VariableContext(("a1", "a2", "b1", "b2"), (PARAMETER,) * 4),
    "locus": locus_context(),
}


def render_operand(rng, ctx):
    """Int and Fraction terms of either sign, a constant term at times, exponents up to 11."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exps = tuple(rng.choice((0, 0, 0, 1, 2, 3, 10, 11)) for _ in ctx.names)
        if rng.random() < 0.15:
            exps = (0,) * len(ctx)
        num = rng.choice((-1, 1)) * rng.choice((1, 1, 2, 3, 7, 10**12))
        den = rng.choice((1, 1, 2, 5))
        terms[exps] = Fraction(num, den) if den > 1 or rng.random() < 0.2 else num
    return Polynomial(ctx, terms)


@pytest.mark.parametrize("layout", list(RENDER_LAYOUTS))
def test_canonical_order_and_text_match_the_tuple_sorting_versions(layout):
    ctx = RENDER_LAYOUTS[layout]
    rng = random.Random(2015)
    constants = 0
    for _ in range(300):
        p = render_operand(rng, ctx)
        constants += 0 in p.terms
        assert p.render() == reference_render(p)
        assert p.leading_term() == reference_leading_term(p)
    assert constants >= 30


@pytest.mark.parametrize("layout", list(RENDER_LAYOUTS))
def test_divide_follows_the_canonical_order(layout):
    # `divide` takes the divisor's lead and pops the dividend's terms by
    # `_canonical_order` on packed keys: it must agree with the tuple order in
    # every role layout
    ctx = RENDER_LAYOUTS[layout]
    rng = random.Random(907)
    exact = 0
    for n in range(80):
        d = random_polynomial(rng, ctx, max_degree=2, n_terms=3)
        if d.is_zero():
            continue
        p = random_polynomial(rng, ctx, max_degree=4, n_terms=6)
        if n % 2:
            p = p * d
        assert d.leading_term() == reference_leading_term(d)
        q, r = p.divide(d)
        nq, nr = naive_divide(p, d)
        assert list(q.items()) == list(nq.items())
        assert list(r.items()) == list(nr.items())
        assert p == q * d + r
        exact += n % 2
        assert r.is_zero() or not n % 2
    assert exact >= 30


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_add_then_subtract_roundtrip(seed_p, seed_q):
    import random as _random

    ctx = make_context("x", "y", "z")
    p = random_polynomial(_random.Random(seed_p), ctx, max_degree=4, n_terms=6)
    q = random_polynomial(_random.Random(seed_q), ctx, max_degree=4, n_terms=6)
    assert (p + q) - q == p
    assert p * q == q * p
    assert p * (q + 1) == p * q + p


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
@example(41763)  # q = 0, so the product with the exact q is exact
def test_truncation_is_a_jet(seed):
    import random as _random

    ctx = make_context("x", "y")
    rng = _random.Random(seed)
    p = random_polynomial(rng, ctx, max_degree=5, n_terms=6)
    q = random_polynomial(rng, ctx, max_degree=5, n_terms=6)
    for cap_p, cap_q in ((3, 3), (2, 4), (1, None)):
        jp = p.truncated(cap_p)
        jq = q if cap_q is None else q.truncated(cap_q)
        jetwise = jp * jq
        if jetwise.jet is None:
            # exact: only an exact factor 0 makes a jet's product exact
            assert jetwise == p * q
        else:
            # right in every degree the product claims, and never below the
            # old rule's smaller cap
            assert jetwise.jet >= min(c for c in (cap_p, cap_q) if c is not None)
            assert jetwise == (p * q).truncated(jetwise.jet)
        assert jp**2 == (p * p).truncated((jp**2).jet)


def jet_operand(rng, ctx, kind, cap):
    """A random `cap`-jet with coefficients of `kind`: empty, of order 0, or vanishing to order 1 or more."""
    shape = rng.choice(("empty", "order 0", "vanishing") if cap else ("empty", "order 0"))
    if shape == "empty":
        return Polynomial.zero(ctx).truncated(cap)
    low = 0 if shape == "order 0" else rng.randint(1, cap)
    terms = random_terms(rng, ctx, kind, low, cap, rng.randint(1, 5))
    if shape == "order 0":
        terms[(0,) * len(ctx)] = coefficient(rng, kind)
    return Polynomial(ctx, terms).truncated(cap)


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_linear_coefficients_read_the_source_variables(kind):
    # parameters between the sources: the keys must index x, y and z only
    ctx = VariableContext(("a", "x", "b", "y", "z"), (PARAMETER, SOURCE, PARAMETER, SOURCE, SOURCE))
    units = [tuple(int(k == j) for k in range(len(ctx))) for j in ctx.source_indices]
    rng = random.Random(61)
    nonzero = 0
    for _ in range(100):
        p = jet_operand(rng, ctx, kind, rng.randint(1, 3))
        row = p.linear_coefficients()
        assert row == [p.coefficient(u) for u in units]
        nonzero += any(row)
    assert nonzero >= 20
    with pytest.raises(ValueError, match="0-jet"):
        Polynomial.variable(ctx, "x").truncated(0).linear_coefficients()


def coefficient(rng, kind):
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    if kind == "int":
        return num
    if kind == "fraction":
        return Fraction(num, rng.choice([1, 2, 3]))
    return num / rng.choice([1.0, 2.0, 4.0])  # dyadic, so every float sum is exact


def random_terms(rng, ctx, kind, low, high, count):
    terms = {}
    for _ in range(count):
        exps = [0] * len(ctx)
        for _ in range(rng.randint(low, high)):
            exps[rng.randrange(len(ctx))] += 1
        terms[tuple(exps)] = coefficient(rng, kind)
    return terms


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_capped_product_ignores_terms_above_the_caps(kind):
    # the unknown terms of a jet lie above its cap; whatever they are, the
    # product must not change in any degree up to the cap it claims
    import random as _random

    rng = _random.Random({"int": 1, "fraction": 2, "float": 3}[kind])
    ctx = make_context("x", "y", "z")
    shapes = set()
    for _ in range(150):
        a = jet_operand(rng, ctx, kind, rng.randint(0, 4))
        b = jet_operand(rng, ctx, kind, rng.randint(0, 4))
        product = a * b
        assert product.jet >= min(a.jet, b.jet)
        for _ in range(3):
            wide = [
                Polynomial(ctx, {**dict(p.items()),
                                 **random_terms(rng, ctx, kind, p.jet + 1, p.jet + 3, 3)})
                for p in (a, b)
            ]
            assert product == (wide[0] * wide[1]).truncated(product.jet)
        shapes.add((a.is_zero(), a.constant_term() != 0))
    assert shapes == {(True, False), (False, True), (False, False)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.booleans())
def test_divide_against_rescanning_oracle(seed, with_params, exact):
    import random as _random

    ctx = lefschetz_ctx() if with_params else make_context("x", "y", "z")
    rng = _random.Random(seed)
    d = random_polynomial(rng, ctx, max_degree=2, n_terms=3)
    if d.is_zero():
        d = Polynomial.variable(ctx, ctx.names[-1]) + 1
    p = random_polynomial(rng, ctx, max_degree=4, n_terms=6)
    if exact:
        p = p * d
    q, r = p.divide(d)
    assert p == q * d + r
    lead = d.leading_term()[0]
    assert all(any(e < l for e, l in zip(exps, lead)) for exps in r.exponents())
    if exact:
        assert r.is_zero()
    nq, nr = naive_divide(p, d)
    # same terms, coefficient types and insertion order as the oracle
    assert list(q.items()) == list(nq.items())
    assert list(r.items()) == list(nr.items())
    assert [type(c) for c in q.coefficients()] == [type(c) for c in nq.coefficients()]


class TestScalarProduct:
    """An integral Fraction scalar multiplies as its int, so int terms stay ints."""

    CTX = make_context("x", "y", "z")

    def exact_polynomial(self, rng):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.randint(0, 3) for _ in range(len(self.CTX)))
            num = rng.choice([-4, -3, -1, 1, 2, 5])
            terms[exps] = num if rng.random() < 0.5 else Fraction(num, rng.randint(1, 4))
        return Polynomial(self.CTX, terms)

    @staticmethod
    def scalars(rng):
        k = rng.randint(-6, 6)
        return [k, Fraction(k), Fraction(rng.randint(-6, 6), rng.randint(2, 5)),
                rng.randint(-8, 8) / 4]

    def test_terms_values_and_types(self):
        rng = random.Random(2718)
        kinds = set()
        for _ in range(200):
            p = self.exact_polynomial(rng)
            for c in self.scalars(rng):
                # the term-by-term product, in p's order; exact ones as Fractions
                exact = not isinstance(c, float)
                expected = [(key, Fraction(coeff) * c if exact else coeff * c)
                            for key, coeff in p.terms.items()] if c else []
                integral = exact and Fraction(c).denominator == 1
                for product in (p * c, c * p):
                    assert list(product.terms.items()) == expected
                    for key, coeff in product.terms.items():
                        assert isinstance(coeff, int) == (type(p.terms[key]) is int and integral)
                        kinds.add((type(p.terms[key]), type(c), type(coeff)))
        assert (int, Fraction, int) in kinds and (int, Fraction, Fraction) in kinds

    def test_float_bits(self):
        rng = random.Random(3141)
        for _ in range(100):
            p = Polynomial(self.CTX, {
                tuple(rng.randint(0, 3) for _ in range(3)):
                    rng.uniform(-9, 9) * 10.0**rng.randint(-9, 9)
                for _ in range(rng.randint(1, 6))})
            k = rng.choice([rng.randint(-9, 9), rng.randint(-2**60, 2**60)])
            expected = [(key, (c * float(k)).hex()) for key, c in p.terms.items()] if k else []
            for product in (p * Fraction(k), Fraction(k) * p):
                assert [(key, coeff.hex()) for key, coeff in product.terms.items()] == expected

    def test_ladder_germ_reports_as_its_fraction_twin(self):
        # the seed-1 (6,5,5) ladder germ is built under dense integer
        # RationalMatrix changes, and its terms stay ints
        germ = perfbench_module("inputs").ladder_case(random.Random(1), 6, 5, 5)["germ"]
        assert all(type(c) is int for p in germ.components for c in p.coefficients())
        twin = MapGerm(germ.context, tuple(
            Polynomial(germ.context, {exps: Fraction(c) for exps, c in p.items()})
            for p in germ.components))
        assert twin.components == germ.components
        reports = [json.dumps(report_to_dict(classify(g), include_trace=True))
                   for g in (germ, twin)]
        assert reports[0] == reports[1]


class TestContext:
    def test_role_indices_match_roles(self):
        ctx = VariableContext(("x", "a", "y", "b"), (SOURCE, PARAMETER, SOURCE, PARAMETER))
        assert ctx.source_indices == (0, 2)
        assert ctx.parameter_indices == (1, 3)
        assert ctx.source_names == ("x", "y")
        assert ctx.parameter_names == ("a", "b")
        lctx = lefschetz_ctx()
        assert lctx.source_indices == (0, 1, 2, 3)
        assert lctx.parameter_names == ("a1", "a2", "b1", "b2")

    def test_equal_contexts_compare_and_hash_equal(self):
        roles = (SOURCE, PARAMETER, SOURCE, PARAMETER)
        a = VariableContext(("x", "a", "y", "b"), roles)
        b = VariableContext(("x", "a", "y", "b"), roles)
        assert a == b and hash(a) == hash(b)
        assert a != VariableContext.make(("x", "y"), ("a", "b"))
        assert repr(a) == repr(b) == (
            "VariableContext(names=('x', 'a', 'y', 'b'), "
            "roles=('source', 'parameter', 'source', 'parameter'))"
        )
