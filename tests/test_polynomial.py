"""Exact polynomial arithmetic, calculus and canonical rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morinclass import ContextMismatchError, Polynomial, VariableContext
from morinclass.context import PARAMETER, SOURCE

from conftest import make_context, naive_divide, random_polynomial


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
        expected = Polynomial.from_terms(
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
        # the lower cap then bounds every later product
        assert (d * p).jet == 2

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

    def test_divide_exact_and_remainder(self, xyz):
        ctx, x, y, _ = xyz
        p = (x + y) * (x - y)
        q, r = p.divide(x + y)
        assert r.is_zero() and q == x - y
        q, r = (p + 1).divide(x + y)
        assert not r.is_zero()
        assert q * (x + y) + r == p + 1

    def test_monomial_content(self, xyz):
        ctx, x, y, _ = xyz
        p = 6 * x**2 * y - 4 * x * y**2
        exps, coeff = p.monomial_content()
        assert exps == (1, 1, 0) and coeff == 2
        assert p.primitive_part() == 3 * x - 2 * y


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
def test_truncation_is_a_jet(seed):
    import random as _random

    ctx = make_context("x", "y")
    rng = _random.Random(seed)
    p = random_polynomial(rng, ctx, max_degree=5, n_terms=6)
    q = random_polynomial(rng, ctx, max_degree=5, n_terms=6)
    deg = 3
    direct = (p * q).truncated(deg)
    jetwise = p.truncated(deg) * q.truncated(deg)
    assert direct == jetwise


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
