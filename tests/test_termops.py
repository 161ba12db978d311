"""The packed term kernel against the exponent-tuple kernel in conftest."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from morinclass import Polynomial
from morinclass import _termops_py as kernel
from morinclass.context import MAX_DEGREE, DegreeOverflowError, WorkLimitError

from conftest import (
    bucketed_mul_terms,
    make_context,
    tuple_add_terms,
    tuple_diff_terms,
    tuple_eval_terms,
    tuple_mul_terms,
    tuple_neg_terms,
    tuple_pow_terms,
    tuple_scale_terms,
    tuple_sub_terms,
    tuple_truncate_terms,
)

KINDS = ("int", "fraction", "float")


def random_coeff(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    while True:
        num = rng.randint(-6, 6)
        if num:
            break
    if kind == "int":
        return num
    if kind == "fraction":
        return Fraction(num, rng.choice([1, 2, 3, 5]))
    return num / rng.choice([1.0, 3.0, 7.0])


def random_terms(rng, nvars, kind, n_terms, max_degree=4):
    terms = {}
    for _ in range(n_terms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = random_coeff(rng, kind)
    return terms


def packed(ctx, terms):
    return {ctx.pack(e): c for e, c in terms.items()}


def unpacked(ctx, terms):
    """A packed result as an exponent-tuple dict, in its insertion order."""
    return [(ctx.unpack(k), c) for k, c in terms.items()]


def random_jet(rng, ctx, kind, max_degree):
    """Every monomial of degree at most `max_degree` (dense) or a few (sparse), shuffled."""
    nv = len(ctx)
    monomials = [mono for d in range(max_degree + 1)
                 for mono in combinations_with_replacement(range(nv), d)]
    rng.shuffle(monomials)
    if rng.random() < 0.5:
        monomials = monomials[:rng.randint(1, 8)]
    terms = {}
    for mono in monomials:
        exps = [0] * nv
        for i in mono:
            exps[i] += 1
        terms[ctx.pack(exps)] = random_coeff(rng, kind)
    return terms


def bits(terms):
    """Keys in order, with each coefficient's type and value (`float.hex` for floats)."""
    return [(k, type(c), c.hex() if isinstance(c, float) else c) for k, c in terms.items()]


def jet_products(seed, count):
    """Seeded (ctx, a, b, trunc): sparse and dense int, Fraction and float jets, caps 0 to 6."""
    rng = random.Random(seed)
    for i in range(count):
        ctx = make_context(*(f"v{j}" for j in range(rng.randint(1, 4))))
        kind = KINDS[i % 3]
        a = random_jet(rng, ctx, kind, rng.randint(0, 4))
        b = random_jet(rng, ctx, kind, rng.randint(0, 4))
        yield ctx, a, b, rng.randint(0, 6)


def cases(seed, count=40):
    rng = random.Random(seed)
    for i in range(count):
        kind = KINDS[i % 3]
        ctx = make_context(*(f"v{j}" for j in range(rng.randint(1, 5))))
        nv = len(ctx)
        a = random_terms(rng, nv, kind, rng.randint(0, 8))
        b = random_terms(rng, nv, kind, rng.randint(0, 8))
        # shared monomials, some of them cancelling in a sum
        for exps in rng.sample(sorted(a), k=min(2, len(a))):
            b[exps] = -a[exps] if rng.random() < 0.5 else random_coeff(rng, kind)
        yield rng, kind, ctx, a, b


class TestAgainstTupleKernel:
    def test_sum_difference_negation_scaling(self):
        for rng, kind, ctx, a, b in cases(11):
            pa, pb = packed(ctx, a), packed(ctx, b)
            c = random_coeff(rng, kind)
            assert unpacked(ctx, kernel.add_terms(pa, pb)) == list(tuple_add_terms(a, b).items())
            assert unpacked(ctx, kernel.sub_terms(pa, pb)) == list(tuple_sub_terms(a, b).items())
            assert unpacked(ctx, kernel.neg_terms(pa)) == list(tuple_neg_terms(a).items())
            assert unpacked(ctx, kernel.scale_terms(pa, c)) == list(
                tuple_scale_terms(a, c).items())

    def test_in_place_sum_and_difference(self):
        # the merge the parser, `shift_terms` and `substitute` accumulate
        # through: the key order, values and coefficient types of the tuple
        # kernel's sum, written into the dict it was given
        def typed(items):
            return [(k, type(c), c) for k, c in items]

        for _, _, ctx, a, b in cases(11):
            pb = packed(ctx, b)
            for merge, oracle in ((kernel.iadd_terms, tuple_add_terms),
                                  (kernel.isub_terms, tuple_sub_terms)):
                out = packed(ctx, a)
                assert merge(out, pb) is out
                assert typed(unpacked(ctx, out)) == typed(oracle(a, b).items())

    @pytest.mark.parametrize("trunc", [-1, 0, 1, 2, 3, 5])
    def test_product(self, trunc):
        for _, _, ctx, a, b in cases(12 + trunc):
            got = kernel.mul_terms(packed(ctx, a), packed(ctx, b), ctx, trunc)
            assert unpacked(ctx, got) == list(tuple_mul_terms(a, b, trunc).items())

    @pytest.mark.parametrize("trunc", [-1, 2, 4])
    def test_power(self, trunc):
        for rng, _, ctx, a, _ in cases(21 + trunc, count=15):
            for k in range(1, 4):
                got = kernel.pow_terms(packed(ctx, a), k, ctx, trunc)
                assert unpacked(ctx, got) == list(tuple_pow_terms(a, k, trunc).items())
        # the zeroth power is the int 1, as `Polynomial.__pow__` and the parser give it
        for base in ({}, packed(ctx, a)):
            assert kernel.pow_terms(base, 0, ctx) == {0: 1}
            assert type(kernel.pow_terms(base, 0, ctx)[0]) is int

    @pytest.mark.parametrize("trunc", [-1, 2, 6])
    def test_power_of_a_monomial(self, trunc):
        # one key times k and one coefficient power, where the others multiply
        rng = random.Random(24 + trunc)
        for i in range(30):
            kind = KINDS[i % 3]
            ctx = make_context(*(f"v{j}" for j in range(rng.randint(1, 4))))
            a = random_terms(rng, len(ctx), kind, 1)
            for k in range(1, 6):
                got = kernel.pow_terms(packed(ctx, a), k, ctx, trunc)
                assert unpacked(ctx, got) == list(tuple_pow_terms(a, k, trunc).items())

    @pytest.mark.parametrize("trunc", [-1, 3, 6])
    def test_exact_power_is_int_where_integral(self, trunc):
        # an exact base with a Fraction expands on ints: the terms of the
        # repeated products, each an int exactly where it is integral
        rng = random.Random(26 + trunc)
        for i in range(36):
            kind = ("int", "fraction", "mixed")[i % 3]
            ctx = make_context(*(f"v{j}" for j in range(rng.randint(1, 4))))
            a = random_terms(rng, len(ctx), kind, rng.randint(1, 5), max_degree=3)
            for k in range(2, 7):
                got = kernel.pow_terms(packed(ctx, a), k, ctx, trunc)
                assert unpacked(ctx, got) == list(tuple_pow_terms(a, k, trunc).items())
                assert all((type(c) is int) == (c.denominator == 1) for c in got.values())

    def test_float_base_with_a_fraction_multiplies_as_it_is(self):
        # a float fixes the bits: the power of the repeated products, with
        # their types, and no integer expansion
        ctx = make_context("x", "y")
        a = packed(ctx, {(1, 0): 0.5, (0, 1): Fraction(1, 3)})
        expected = a
        for k in range(2, 5):
            expected = kernel.mul_terms(expected, a, ctx)
            got = kernel.pow_terms(a, k, ctx)
            assert [(key, type(c), c) for key, c in got.items()] == [
                (key, type(c), c) for key, c in expected.items()]

    def test_derivative_truncation_evaluation(self):
        for rng, kind, ctx, a, _ in cases(13):
            pa = packed(ctx, a)
            for idx in range(len(ctx)):
                assert unpacked(ctx, kernel.diff_terms(pa, idx, ctx)) == list(
                    tuple_diff_terms(a, idx).items())
            for trunc in range(5):
                assert unpacked(ctx, kernel.truncate_terms(pa, trunc, ctx)) == list(
                    tuple_truncate_terms(a, trunc).items())
            if kind != "float":
                values = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(len(ctx))]
                assert kernel.eval_terms(pa, values, ctx) == tuple_eval_terms(a, values)


class TestCappedProductOrder:
    """The capped product walks the larger factor sorted stably by degree: the
    terms of the bucketed product, in its order, of its types, to the bit."""

    def test_matches_the_bucketed_product(self):
        for ctx, a, b, trunc in jet_products(41, 400):
            assert bits(kernel.mul_terms(a, b, ctx, trunc)) == bits(
                bucketed_mul_terms(a, b, ctx, trunc))

    def test_cancelling_and_underflowing_sums(self):
        # (a + b)(a - b): the cross terms cancel, and products of 1e-170
        # floats underflow to 0.0; both leave the dict, as in the reference
        rng = random.Random(42)
        for _ in range(60):
            ctx = make_context("x", "y", "z")
            kind = rng.choice(KINDS)
            a, b = random_jet(rng, ctx, kind, 3), random_jet(rng, ctx, kind, 3)
            if kind == "float" and rng.random() < 0.5:
                a = kernel.scale_terms(a, 1e-170)
                b = kernel.scale_terms(b, 10.0 ** -rng.randint(140, 160))
            plus, minus = kernel.add_terms(a, b), kernel.sub_terms(a, b)
            for trunc in range(7):
                assert bits(kernel.mul_terms(plus, minus, ctx, trunc)) == bits(
                    bucketed_mul_terms(plus, minus, ctx, trunc))


class TestLayout:
    def test_pack_unpack_round_trip(self):
        rng = random.Random(14)
        for nv in range(1, 9):
            ctx = make_context(*(f"v{j}" for j in range(nv)))
            vectors = [(0,) * nv, (MAX_DEGREE,) + (0,) * (nv - 1), (0,) * (nv - 1) + (MAX_DEGREE,)]
            for _ in range(50):
                exps = [0] * nv
                for _ in range(rng.choice([0, 1, 3, 40, 1000])):
                    exps[rng.randrange(nv)] += 1
                vectors.append(tuple(exps))
            for exps in vectors:
                key = ctx.pack(exps)
                assert ctx.unpack(key) == exps
                assert key >> ctx.degree_shift == sum(exps)

    def test_keys_of_a_product_add(self):
        ctx = make_context("x", "y", "z")
        assert ctx.pack((1, 2, 0)) + ctx.pack((0, 3, 4)) == ctx.pack((1, 5, 4))
        # a derivative lowers the variable's field and the degree field by one
        key = ctx.pack((2, 1, 3))
        assert key - ctx.degree_unit - ctx.units[2] == ctx.pack((2, 1, 2))

    def test_pack_rejects_bad_vectors(self):
        ctx = make_context("x", "y")
        with pytest.raises(DegreeOverflowError):
            ctx.pack((MAX_DEGREE, 1))
        with pytest.raises(ValueError):
            ctx.pack((1, -1))
        with pytest.raises(ValueError):
            ctx.pack((1, 2, 3))


class TestDegreeOverflow:
    def test_product_that_would_carry_raises(self):
        # x^a * x^b with a + b = MAX_DEGREE + 1 would carry out of x's field
        # into the degree field; the product refuses instead
        ctx = make_context("x", "y")
        a, b = MAX_DEGREE // 2 + 1, MAX_DEGREE // 2 + 1
        pa, pb = {ctx.pack((a, 0)): 1}, {ctx.pack((b - 1, 0)): 1, ctx.pack((0, b)): 2}
        for trunc in (-1, MAX_DEGREE + 1, 10 * MAX_DEGREE):
            with pytest.raises(DegreeOverflowError):
                kernel.mul_terms(pa, pb, ctx, trunc)
        # a cap within the fields drops those terms instead
        assert kernel.mul_terms(pa, pb, ctx, MAX_DEGREE) == {ctx.pack((a + b - 1, 0)): 1}
        # the largest degree that fits comes back with the right key
        got = kernel.mul_terms({ctx.pack((a, 0)): 1}, {ctx.pack((0, MAX_DEGREE - a)): 3}, ctx)
        assert [(ctx.unpack(k), c) for k, c in got.items()] == [((a, MAX_DEGREE - a), 3)]

    def test_power_raises_before_any_product(self, monkeypatch):
        ctx = make_context("x", "y")
        calls = []
        monkeypatch.setattr(kernel, "mul_terms", lambda *args: calls.append(args))
        with pytest.raises(DegreeOverflowError):
            kernel.pow_terms({ctx.pack((1, 1)): 1}, 99999999, ctx)
        assert calls == []

    def test_polynomial_arithmetic_raises(self):
        ctx = make_context("x", "y")
        x = Polynomial.variable(ctx, "x")
        big = Polynomial(ctx, {(MAX_DEGREE - 1, 0): 1})
        assert (big * x).degree() == MAX_DEGREE
        with pytest.raises(DegreeOverflowError):
            big * x * x
        with pytest.raises(DegreeOverflowError):
            (x + 1) ** (MAX_DEGREE + 1)
        # a parameter weighs zero, so x leads x + a^1000, and x^66 divided
        # by it leaves the remainder a^66000, which no key holds
        wide = make_context("x", params=("a",))
        x_, a = Polynomial.variable(wide, "x"), Polynomial.variable(wide, "a")
        with pytest.raises(DegreeOverflowError):
            (x_**66).divide(x_ + a**1000)
        q, r = (x_**65).divide(x_ + a**1000)
        assert r == -(a**65000) and q * (x_ + a**1000) + r == x_**65
        # in the jet ring the cap bounds every degree, so no error: the rule
        # lifts a cap by the other factor's order, but never past MAX_DEGREE
        assert (x + 1).truncated(2) * (big * x + 1) == x + 1
        got = (x + 1).truncated(2) * (big * x)
        # the exact product x^(MAX_DEGREE+1) + x^MAX_DEGREE, cut at its cap
        assert got.jet == MAX_DEGREE and got == big * x
        got = (big * x) * x.truncated(2)
        assert got.jet == MAX_DEGREE and got.is_zero()
        for base in (x, x + Polynomial.variable(ctx, "y")):
            got = base.truncated(2) ** 70000
            assert got.jet == MAX_DEGREE and got.is_zero()
        got = x.truncated(MAX_DEGREE + 5) * x.truncated(MAX_DEGREE + 5)
        assert got.jet == MAX_DEGREE and got == x * x


class TestWorkLimit:
    @staticmethod
    def operands(ctx, *sizes):
        # 1 + x + ... + x^(size-1): len(a) * len(b) term pairs for a product
        return [{ctx.pack((e, 0)): 1 for e in range(size)} for size in sizes]

    def test_products_are_charged_their_term_pairs(self):
        ctx = make_context("x", "y")
        a, b, c = self.operands(ctx, 3, 4, 2)
        with kernel.work_limit(3 * 4 + 3 * 2):
            expected = kernel.mul_terms(a, b, ctx)
            assert kernel._pairs_left == 3 * 2
            # capped at degree 1, the product forms 1*1, 1*x and x*1 only
            kernel.mul_terms(a, c, ctx, 1)
            assert kernel._pairs_left == 3 * 2 - 3
            assert kernel.mul_terms(a, {}, ctx) == {}  # an empty factor costs nothing
            with pytest.raises(WorkLimitError):
                kernel.mul_terms(c, c, ctx)
        assert kernel._pairs_left is None
        assert kernel.mul_terms(a, b, ctx) == expected

    def test_capped_products_are_charged_the_pairs_they_form(self):
        # by bisection over the sorted degrees: the brute-force count of the
        # pairs whose degrees sum within the cap; uncapped, len(a) * len(b)
        for ctx, a, b, trunc in jet_products(43, 300):
            shift = ctx.degree_shift
            formed = sum(1 for ka in a for kb in b if (ka >> shift) + (kb >> shift) <= trunc)
            for cap, pairs in ((trunc, formed), (-1, len(a) * len(b))):
                with kernel.work_limit(10**6):
                    kernel.mul_terms(a, b, ctx, cap)
                    assert 10**6 - kernel._pairs_left == pairs
            if formed:  # one pair short: refused, and nothing charged
                with kernel.work_limit(formed - 1):
                    with pytest.raises(WorkLimitError):
                        kernel.mul_terms(a, b, ctx, trunc)
                    assert kernel._pairs_left == formed - 1

    def test_the_product_that_would_pass_the_limit_raises_before_it_runs(self, monkeypatch):
        ctx = make_context("x", "y")
        a, b = self.operands(ctx, 5, 5)
        degrees = []
        monkeypatch.setattr(kernel, "check_degree", degrees.append)
        with kernel.work_limit(24), pytest.raises(WorkLimitError):
            kernel.mul_terms(a, b, ctx)
        assert degrees == []

    def test_outer_state_is_restored(self):
        ctx = make_context("x", "y")
        a, b = self.operands(ctx, 3, 3)
        with pytest.raises(WorkLimitError):
            with kernel.work_limit(8):
                kernel.mul_terms(a, b, ctx)
        assert kernel._pairs_left is None
        with kernel.work_limit(100):
            kernel.mul_terms(a, b, ctx)
            with kernel.work_limit(9):
                kernel.mul_terms(a, b, ctx)
                assert kernel._pairs_left == 0
            assert kernel._pairs_left == 91
            with pytest.raises(ZeroDivisionError), kernel.work_limit(1):
                1 / 0
            assert kernel._pairs_left == 91
        assert kernel._pairs_left is None
