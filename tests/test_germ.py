"""Germ validation, normalization and adapted frames."""

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
    build_frame,
    classify,
    cramer_frame,
    normalize,
    validate,
)
from morinclass.linalg import first_nonzero_row, row_reduce
from morinclass.lefschetz import LefschetzFamily, lefschetz_germ

from conftest import (
    coordinate_field,
    fraction_normalized,
    frame_matrix_at,
    linear_source_change,
    linear_target_change,
    make_context,
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
            t, pivot_rows, pivot_cols = row_reduce(
                [[Fraction(e) for e in row] for row in germ.linear_coefficients()],
                first_nonzero_row)
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
            det = mat.determinant()
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


class TestTranslate:
    def test_translate_recenters(self, xyz):
        ctx, x, y, z = xyz
        g = MapGerm(ctx, (x, y**2 + z**2))
        moved = g.translate((1, 2, 3))
        moved.check_wellformed()
        # derivative data shifts with the point
        assert classify(moved).label.kind == "Regular"

    def test_label_invariant_under_target_change(self, rng, battery_germs):
        from conftest import labels_equivalent

        for m, n, k, signs, germ in battery_germs[:6]:
            base = classify(germ).label
            changed = linear_target_change(rng, germ)
            assert labels_equivalent(classify(changed).label, base)
