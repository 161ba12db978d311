"""The packed term kernel against the exponent-tuple kernel in conftest."""

import random
from fractions import Fraction

import pytest

from morinclass import Polynomial
from morinclass import _termops_py as kernel
from morinclass.context import MAX_DEGREE, DegreeOverflowError

from conftest import (
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
        assert kernel.pow_terms({}, 0, ctx) == {0: 1}

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
        # in the jet ring the cap bounds every degree, so no error
        assert ((x + 1).truncated(2) * (big * x)).is_zero()
