"""Germ validation, normalization and adapted frames."""

import math
import random
from fractions import Fraction
from math import lcm

import pytest

from morinclass import (
    CORANK1,
    CORANK_HIGH,
    REGULAR,
    MalformedGermError,
    MapGerm,
    Polynomial,
    PolyVectorField,
    VariableContext,
    build_frame,
    classify,
    cramer_frame,
    normalize,
    validate,
)
from morinclass import _termops_py as kernel
from morinclass.context import PARAMETER, SOURCE
from morinclass.criteria import kernel_matrix, lambdas_for_frame
from morinclass.linalg import exact_row_reduce
from morinclass.lefschetz import LefschetzFamily, lefschetz_germ
from morinclass.parsing import parse_germ_document
from morinclass.rationals import rat

from conftest import (
    ainv_request_texts,
    cofactor_determinant,
    coordinate_field,
    fraction_normalized,
    frame_matrix_at,
    linear_source_change,
    linear_target_change,
    make_context,
    perfbench_module,
    polynomial_sum_apply,
)


@pytest.fixture
def xyz():
    ctx = make_context("x", "y", "z")
    return ctx, Polynomial.variable(ctx, "x"), Polynomial.variable(ctx, "y"), Polynomial.variable(ctx, "z")


def origin(ctx):
    return {n: Fraction(0) for n in ctx.names}


class TestValidate:
    def test_regular(self, xyz):
        ctx, x, y, z = xyz
        assert validate(MapGerm(ctx, (x, y))) == REGULAR

    def test_corank_one(self, xyz):
        ctx, x, y, z = xyz
        assert validate(MapGerm(ctx, (x, y**2 + z**2))) == CORANK1

    def test_lefschetz_at_zero_parameters_is_corank_two(self):
        assert validate(lefschetz_germ()) == CORANK_HIGH

    def test_not_vanishing_is_malformed(self, xyz):
        ctx, x, y, z = xyz
        with pytest.raises(MalformedGermError):
            validate(MapGerm(ctx, (x + 1, y**2)))

    def test_float_germ_not_vanishing_is_malformed(self, xyz):
        ctx, x, y, z = xyz
        with pytest.raises(MalformedGermError, match="component 1 .* origin: 0.5$"):
            MapGerm(ctx, (x + 0.5, y**2 + z**2)).check_wellformed()

    @pytest.mark.parametrize("entry", [validate, normalize, classify], ids=lambda f: f.__name__)
    def test_float_coefficients_are_refused(self, xyz, entry):
        # the second germ has no linear terms: its Jacobian at 0 is int zeros
        ctx, x, y, z = xyz
        for germ in (MapGerm(ctx, (x, y**2 + z**2)), MapGerm(ctx, (x**2 + y**2, z**2 + x * y))):
            with pytest.raises(ValueError, match="float coefficients.*numeric_classify"):
                entry(floated(germ))

    def test_too_few_source_vars(self):
        ctx = make_context("x", "y")
        x = Polynomial.variable(ctx, "x")
        y = Polynomial.variable(ctx, "y")
        with pytest.raises(MalformedGermError):
            validate(MapGerm(ctx, (x, y)))

    def test_free_parameters_rejected(self):
        fam = LefschetzFamily.symbolic()
        with pytest.raises(MalformedGermError):
            validate(fam.germ)
        with pytest.raises(MalformedGermError, match="free parameters"):
            normalize(fam.germ)


class TestNormalize:
    def test_already_normalized(self, xyz):
        ctx, x, y, z = xyz
        ng = normalize(MapGerm(ctx, (x, y**2 + z**2)))
        assert ng.germ.components == (x, y**2 + z**2)
        assert ng.target_change == ((1, 0), (0, 1))
        last = ng.germ.components[-1]
        assert all(last.derivative(v).constant_term() == 0 for v in ctx.source_names)

    def test_mixed_rows(self, xyz):
        # one elimination step must leave the last component critical, and
        # the label must match the clean form
        ctx, x, y, z = xyz
        g = MapGerm(ctx, (x + y**2 + z**2, y**2 + z**2))
        ng = normalize(g)
        last = ng.germ.components[-1]
        ctx0 = origin(ctx)
        assert all(last.derivative(v).evaluate(ctx0) == 0 for v in ctx.source_names)
        assert classify(g).label == classify(MapGerm(ctx, (x, y**2 + z**2))).label

    def test_family_critical_row_elimination(self):
        # at (a1,a2,b1,b2) = (1,0,1,0) both Jacobian rows at 0 equal (1,0,0,0)
        germ = LefschetzFamily.symbolic().at((1, 0, 1, 0))
        assert germ.linear_coefficients() == [
            [1, 0, 0, 0],
            [1, 0, 0, 0],
        ]
        ng = normalize(germ)
        last = ng.germ.components[-1]
        assert all(last.derivative(v).constant_term() == 0 for v in germ.context.source_names)
        assert ng.target_change == ((1, 0), (-1, 1))

    def test_matches_fraction_sum_oracle(self, battery_germs):
        # integer, rational and parameter germs, and components sharing a
        # factor, so that the content of a scaled row meets its lcm L
        rng = random.Random(404)
        germs = []
        for m, n, k, signs, germ in battery_germs[::3]:
            moved = linear_target_change(rng, linear_source_change(rng, germ))
            germs.append(moved)
            germs.append(MapGerm(moved.context, tuple(c.integer_scaled() for c in moved.components)))
            factors = [rng.choice([2, 3, 6, Fraction(4, 3)]) for _ in moved.components]
            germs.append(MapGerm(moved.context, tuple(
                f * c.integer_scaled() for f, c in zip(factors, moved.components))))
        for _ in range(6):
            a1, a2, r = (Fraction(rng.randint(-6, 6) or 1, rng.choice([1, 2, 3])) for _ in range(3))
            germs.append(LefschetzFamily.symbolic().at((a1, a2, r * a1, r * a2)))
            germs.append(germs[-1].truncated(3))
        shared = 0
        for germ in germs:
            t, pivot_rows, pivot_cols = exact_row_reduce(germ.linear_coefficients())
            assert len(pivot_rows) == germ.n - 1
            ng = normalize(germ)
            comps, t_rows = fraction_normalized(germ, t, pivot_rows)
            assert ng.target_change == t_rows
            assert [type(w) for row in ng.target_change for w in row] == [
                type(w) for row in t_rows for w in row]
            for got, want in zip(ng.germ.components, comps):
                # same terms, int coefficients and term order, and the same cap
                assert list(got.items()) == list(want.items())
                assert all(type(c) is int for c in got.coefficients())
                assert got.jet == want.jet
            critical = next(r for r in range(germ.n) if r not in pivot_rows)
            for r, row in zip(list(pivot_rows) + [critical], t_rows):
                # the factor taken falls below L only if the content shares a factor with L
                factor = next(v / w for v, w in zip(row, t[r]) if w)
                shared += factor < lcm(*(Fraction(w).denominator for w in t[r]))
        assert shared >= 10

    def test_regular_input_rejected(self, xyz):
        ctx, x, y, z = xyz
        with pytest.raises(MalformedGermError):
            normalize(MapGerm(ctx, (x, y)))


class TestBuildFrame:
    def test_coordinate_frame(self, xyz):
        ctx, x, y, z = xyz
        ng = normalize(MapGerm(ctx, (x, y**2 + z**3 + x * z)))
        frame = build_frame(ng)
        assert frame.pivot_names == ("x",)
        assert frame.nonpivot_names == ("y", "z")
        assert frame.eta[0].coefficients == coordinate_field(ctx, "y").coefficients
        assert frame.eta[1].coefficients == coordinate_field(ctx, "z").coefficients

    def test_lefschetz_chart_fields(self):
        fam = LefschetzFamily.symbolic()
        frame = cramer_frame(fam.germ, ("x1",))
        ctx = fam.germ.context
        x1, x2, y1, y2, a1, a2, b1, b2 = (Polynomial.variable(ctx, n) for n in ctx.names)
        zero = Polynomial.zero(ctx)
        # the y1-direction kernel field is y2 d/dx1 + (a1+x2) d/dy1
        assert frame.eta[1].coefficients == (y2, zero, a1 + x2, zero)
        # the y2-direction kernel field is y1 d/dx1 + (a1+x2) d/dy2
        assert frame.eta[2].coefficients == (y1, zero, zero, a1 + x2)
        # the x2-direction field is the Cramer field (a1+x2) d/dx2 - (a2+x1) d/dx1
        assert frame.eta[0].coefficients == (-(a2 + x1), a1 + x2, zero, zero)
        assert frame.pivot_minor == a1 + x2

    def test_kernel_fields_annihilate_upper_components(self, battery_germs):
        ctx0 = None
        for m, n, k, signs, germ in battery_germs[:10]:
            ng = normalize(germ)
            frame = build_frame(ng)
            for eta in frame.eta:
                for comp in ng.germ.components[:-1]:
                    assert eta.apply(comp).is_zero()

    def test_frame_spans_at_origin(self, battery_germs):
        for m, n, k, signs, germ in battery_germs[:10]:
            ng = normalize(germ)
            frame = build_frame(ng)
            mat = frame_matrix_at(frame, origin(germ.context))
            assert mat.rank() == m
            # the frame determinant is a sign times a power of the pivot minor
            det = cofactor_determinant(mat.to_rows())
            minor0 = frame.pivot_minor.evaluate(origin(germ.context))
            assert abs(det) == abs(minor0) ** (m - n + 1)


class TestDirectionalDerivative:
    def test_coordinate_direction(self, xyz):
        ctx, x, y, z = xyz
        dz = coordinate_field(ctx, "z")
        assert dz.apply(z**3 + x * z) == 3 * z**2 + x

    def test_rotational_field(self, xyz):
        ctx, x, y, z = xyz
        from morinclass import PolyVectorField

        rot = PolyVectorField(ctx, (y, -x, Polynomial.zero(ctx)))
        assert rot.apply(x**2 + y**2).is_zero()

    def test_lefschetz_kernel_annihilation(self):
        fam = LefschetzFamily.symbolic()
        frame = cramer_frame(fam.germ, ("x1",))
        first = fam.germ.components[0]
        for eta in frame.eta:
            assert eta.apply(first).is_zero()


def random_jet(rng, ctx, kind):
    """A seeded int, Fraction or float polynomial in the source variables, capped at 1-4 or not."""
    terms = {}
    for _ in range(rng.randint(1, 7)):
        exps = [0] * len(ctx)
        for _ in range(rng.randint(0, 3)):
            exps[rng.choice(ctx.source_indices)] += 1
        num = rng.choice((-3, -2, -1, 1, 2, 5))
        terms[tuple(exps)] = (num if kind == "int" else Fraction(num, rng.choice((1, 2, 3)))
                              if kind == "fraction" else num / rng.choice((1.0, 3.0, 7.0)))
    p = Polynomial(ctx, terms)
    cap = rng.choice((None, 1, 2, 3, 4))
    return p if cap is None else p.truncated(cap)


def random_field(rng, ctx, kind):
    """Coefficients drawn from jets, exact zeros and a capped zero."""
    return PolyVectorField(ctx, tuple(
        Polynomial.zero(ctx) if (pick := rng.random()) < 0.3
        else Polynomial.zero(ctx).truncated(2) if pick < 0.4
        else random_jet(rng, ctx, kind) for _ in ctx.source_indices))


FIELD_CONTEXTS = (
    make_context("x", "y"),
    make_context("x", "y", "z", "w"),
    VariableContext(("a", "x", "b", "y", "z"), (PARAMETER, SOURCE, PARAMETER, SOURCE, SOURCE)),
)


class TestFieldApplication:
    """`apply` sums c_i d_i p on term dicts, in one pass: the terms, the term
    order, the types, the float bits and the cap of the `Polynomial` sum."""

    def test_matches_the_polynomial_sum(self):
        rng = random.Random(51)
        for i in range(300):
            ctx, kind = FIELD_CONTEXTS[i % 3], ("int", "fraction", "float")[i // 3 % 3]
            field, p = random_field(rng, ctx, kind), random_jet(rng, ctx, kind)
            got, want = field.apply(p), polynomial_sum_apply(field, p)
            assert term_bits([got]) == term_bits([want]) and got.jet == want.jet

    def test_each_partial_is_taken_once(self, monkeypatch, battery_germs):
        # the lambdas and M apply every eta to one polynomial: each partial
        # of it is taken once, for all of them
        calls = []

        def diff_terms(a, idx, ctx):
            calls.append((id(a), idx))
            return diff(a, idx, ctx)

        diff = kernel.diff_terms
        monkeypatch.setattr(kernel, "diff_terms", diff_terms)
        rng = random.Random(53)
        for m, n, k, signs, germ in battery_germs[::3]:
            germ = linear_target_change(rng, linear_source_change(rng, germ))
            ng = normalize(germ.truncated(n + 1))
            frame = build_frame(ng)
            del calls[:]
            ls = lambdas_for_frame(ng.germ, frame)
            assert len(set(calls)) == len(calls) <= m
            del calls[:]
            rows = kernel_matrix(ls).to_rows()
            assert len(set(calls)) == len(calls) <= len(ls.lambdas) * m
            for lam, row in zip(ls.lambdas, rows):
                want = [polynomial_sum_apply(eta, lam) for eta in frame.eta]
                assert term_bits(row) == term_bits(want)

    def test_exact_zeros_pass_through(self):
        # an eta has n nonzero coefficients of m; scaling and sums are `*` and
        # `+` on each coefficient, and by the jet rule an uncapped zero comes
        # out of both an uncapped zero
        rng = random.Random(52)
        for i in range(60):
            ctx, kind = FIELD_CONTEXTS[i % 3], ("int", "fraction", "float")[i % 3]
            u, v = random_field(rng, ctx, kind), random_field(rng, ctx, kind)
            factor = random_jet(rng, ctx, kind)
            for got, want in ((u.scaled(factor), [factor * c for c in u.coefficients]),
                              (u + v, [a + b for a, b in zip(u.coefficients, v.coefficients)])):
                assert term_bits(got.coefficients) == term_bits(want)
                assert [c.jet for c in got.coefficients] == [c.jet for c in want]
            zero = Polynomial.zero(ctx)
            field = PolyVectorField(ctx, (zero,) + u.coefficients[1:])
            zeros = PolyVectorField(ctx, (zero,) * len(u.coefficients))
            for got in (field.scaled(factor), field + zeros):
                assert not got.coefficients[0].terms and got.coefficients[0].jet is None

    def test_a_zero_jet_has_no_derivative(self, xyz):
        ctx, x, y, z = xyz
        zero = Polynomial.zero(ctx)
        with pytest.raises(ValueError, match="0-jet"):
            PolyVectorField(ctx, (zero, y, zero)).apply((x + y).truncated(0))
        # no nonzero coefficient asks for a derivative
        assert PolyVectorField(ctx, (zero,) * 3).apply(x.truncated(0)) == zero


class TestTranslate:
    def test_translate_recenters(self, xyz):
        ctx, x, y, z = xyz
        g = MapGerm(ctx, (x, y**2 + z**2))
        moved = g.translate((1, 2, 3))
        moved.check_wellformed()
        # derivative data shifts with the point
        assert classify(moved).label.kind == "Regular"

    def test_translate_refuses_a_jet(self, xyz):
        # a jet at 0 fixes no coefficient at another point: translating one
        # would return exact-looking polynomials with wrong terms
        ctx, x, y, z = xyz
        germ = MapGerm(ctx, (x + y**3, y**2 + z**2 + x * z**3))
        for capped in (germ.truncated(2), MapGerm(ctx, (x + y**3, (y**2 + z**2).truncated(3)))):
            with pytest.raises(MalformedGermError, match="jet"):
                capped.translate((1, 2, 3))
        assert all(p.jet is None for p in germ.translate((1, 2, 3)).components)

    def test_translate_checks_the_point(self, xyz):
        ctx, x, y, z = xyz
        with pytest.raises(MalformedGermError, match="3 coordinates, got 2"):
            MapGerm(ctx, (x, y**2)).translate((1, 2))

    def test_label_invariant_under_target_change(self, rng, battery_germs):
        from conftest import labels_equivalent

        for m, n, k, signs, germ in battery_germs[:6]:
            base = classify(germ).label
            changed = linear_target_change(rng, germ)
            assert labels_equivalent(classify(changed).label, base)


def translated_by_substitution(germ, point):
    """The oracle: f(x + p) - f(p) composed through `substitute`, as terms."""
    ctx = germ.context
    point = [v if isinstance(v, float) else rat(v) for v in point]
    shift = {
        name: Polynomial.variable(ctx, name) + Polynomial.constant(ctx, v)
        for name, v in zip(ctx.source_names, point)
    }
    moved = [p.substitute(shift) for p in germ.components]
    return [q - Polynomial.constant(ctx, q.constant_term()) for q in moved]


def term_bits(polys):
    """Keys in order, with each coefficient's type and value (`float.hex` for floats)."""
    return [
        [(k, type(c), c.hex() if isinstance(c, float) else c) for k, c in p.terms.items()]
        for p in polys
    ]


def floated(germ):
    return MapGerm(germ.context, tuple(p.map_coefficients(float) for p in germ.components))


class TestTranslateOracle:
    """`translate` shifts terms directly; it must give the substitution's terms,
    in its order, of its types and to the bit."""

    @staticmethod
    def check(germ, point):
        moved = germ.translate(point)
        assert term_bits(moved.components) == term_bits(translated_by_substitution(germ, point))
        return moved

    @staticmethod
    def points(rng, m, count, values):
        # a zero coordinate in about every third place
        return [[rng.choice(values) for _ in range(m)] for _ in range(count)]

    def test_ainv_replay_germs(self):
        rng = random.Random(31)
        values = (0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 2))
        for text in ainv_request_texts(1):
            germ = parse_germ_document(text).to_germ()
            for point in self.points(rng, germ.m, 1, values):
                self.check(germ, point)

    @pytest.mark.parametrize("case", [(6, 2, 1), (5, 3, 3), (6, 3, 2)])
    def test_ladder_germs(self, case):
        rng = random.Random(32)
        germ = perfbench_module("inputs").ladder_case(random.Random(1), *case)["germ"]
        for point in self.points(rng, germ.m, 3, (0, 1, Fraction(-1, 2))):
            self.check(germ, point)
        for point in self.points(rng, germ.m, 3, (0.0, 1.5, -0.3, 2.0 / 3.0)):
            self.check(floated(germ), point)

    def test_symbolic_lefschetz_germ(self):
        # the parameters stay unbound and ride along unshifted
        rng = random.Random(33)
        germ = LefschetzFamily.symbolic().germ
        assert germ.uses_parameters()
        for point in self.points(rng, germ.m, 8, (0, 1, Fraction(-3, 2), Fraction(2, 7))):
            self.check(germ, point)

    def test_high_powers_with_mixed_coefficients(self):
        ctx = make_context("x", "y", "z", params=("a",))
        x, y, z, a = (Polynomial.variable(ctx, v) for v in "xyza")
        germ = MapGerm(ctx, (
            x**5 * y + Fraction(2, 3) * y**3 * z**2 - 7 * x**3 + a * z**4,
            x * y + Fraction(1, 2) * z**5 + 3 * y**4 - x**3 * z**3,
        ))
        assert {type(c) for p in germ.components for c in p.coefficients()} == {int, Fraction}
        rng = random.Random(34)
        for point in self.points(rng, 3, 12, (0, 1, -1, 2, Fraction(1, 3), Fraction(-7, 2))):
            self.check(germ, point)
        for point in self.points(rng, 3, 12, (0.0, -0.0, 0.5, -1.25, 3.0e5, 1.0e-7)):
            self.check(floated(germ), point)

    def test_overflow_keeps_the_nan(self, xyz):
        ctx, x, y, z = xyz
        germ = floated(MapGerm(ctx, (x**2 + y * z, x * y - z**3)))
        moved = self.check(germ, (1e200, 1e200, 0.0))
        # f(p) is infinite, so f(p) - f(p) is NaN and stays as the constant term
        assert all(math.isnan(p.constant_term()) for p in moved.components)

    def test_underflow_drops_the_product(self, xyz):
        ctx, x, y, z = xyz
        germ = floated(MapGerm(ctx, (x**2 + y * z, x * y * z + y**2)))
        moved = self.check(germ, (1e-200, -1e-170, 3.0))
        # p_x p_y underflows to zero, so x y z shifts to no z term at all
        assert moved.components[1].coefficient((0, 0, 1)) == 0
        assert moved.components[1].coefficient((1, 0, 0)) == -1e-170 * 3.0
        assert all(c for p in moved.components for c in p.coefficients())
