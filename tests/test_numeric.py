"""Gauss-Newton projection and threshold classification."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from morinclass import MapGerm, Polynomial, classify, cramer_frame
from morinclass.criteria import Label, lambdas_for_frame
from morinclass.germ import normalized
from morinclass.lefschetz import LefschetzFamily, circle_point
from morinclass import numeric
from morinclass.numeric import (
    CHART_TERM_BOUND,
    FloatRangeError,
    ProjectionError,
    Tolerances,
    numeric_classify,
    project_to_singular_locus,
    scan_region,
)

from conftest import (
    cofactor_determinant,
    eval_terms,
    labels_equivalent,
    lambda_matrix,
    linear_source_change,
    linear_target_change,
    make_context,
    normal_form,
    perfbench_module,
    unipotent_target_change,
)


@pytest.fixture
def fold_germ():
    ctx = make_context("x", "y", "z")
    x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
    return MapGerm(ctx, (x, y**2 + z**2))


@pytest.fixture
def cusp_germ():
    ctx = make_context("x", "y", "z")
    x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
    return MapGerm(ctx, (x, y**2 + z**3 + x * z))


class TestTolerances:
    @pytest.mark.parametrize("name", ["residual_tol", "rank_tol", "zero_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
    def test_tolerance_must_be_finite_and_positive(self, name, value):
        # residual_tol is a class constant, which no caller may set at all
        error = TypeError if name == "residual_tol" else ValueError
        with pytest.raises(error, match=name):
            Tolerances(**{name: value})

    @pytest.mark.parametrize("iters", [2.5, True, False, 0, -3, "50", 50.0])
    def test_newton_iterations_must_be_a_positive_int(self, iters):
        # a class constant, which no caller may set at all
        with pytest.raises(TypeError, match="max_newton_iters"):
            Tolerances(max_newton_iters=iters)

    def test_valid_values_are_kept(self):
        tol = Tolerances(rank_tol=1e-300, zero_tol=0.5)
        assert (tol.residual_tol, tol.rank_tol, tol.zero_tol, tol.max_newton_iters) == (
            1e-10, 1e-300, 0.5, 50)


class TestProjection:
    def test_fold_axis(self, fold_germ):
        p = project_to_singular_locus(fold_germ, (0.3, 0.1, 0.2))
        assert abs(p[1]) <= 1e-10 and abs(p[2]) <= 1e-10

    def test_cusp_residual(self, cusp_germ):
        p = project_to_singular_locus(cusp_germ, (0.05, 0.06, -0.04))
        assert abs(2 * p[1]) <= 1e-9
        assert abs(3 * p[2] ** 2 + p[0]) <= 1e-9

    def test_lefschetz_branch_reconvergence(self):
        params = (Fraction(1), Fraction(2), Fraction(1), Fraction(1))
        germ = LefschetzFamily.symbolic().at(params)
        exact = circle_point(params, Fraction(1))
        seed = [float(v) + 1e-3 for v in exact]
        p = project_to_singular_locus(germ, seed)
        assert max(abs(a - float(b)) for a, b in zip(p, exact)) < 1e-2
        # the converged point satisfies the system far better than the seed
        rep = numeric_classify(germ, p)
        assert rep.residual <= 1e-8

    def test_idempotent(self, fold_germ):
        p = project_to_singular_locus(fold_germ, (0.5, -0.3, 0.8))
        q = project_to_singular_locus(fold_germ, p)
        assert math.dist(p, q) < 1e-10

    def test_chart_with_a_large_pivot_block(self):
        # n = 5: the chart at 0 has a 4x4 pivot block of uncapped float
        # polynomials, which cofactor expansion takes without dividing
        rng = random.Random(5)
        germ = linear_target_change(rng, normal_form(6, 5, 5, (1,)))
        p = project_to_singular_locus(germ, [0.1] * 6)
        assert numeric_classify(germ, p).residual <= 1e-10

    def test_nonconvergence_raises(self, cusp_germ, monkeypatch):
        # the system is genuinely nonlinear, so one step cannot reach an
        # unattainable residual target
        monkeypatch.setattr(Tolerances, "max_newton_iters", 1)
        monkeypatch.setattr(Tolerances, "residual_tol", 1e-300)
        with pytest.raises(ProjectionError, match="no convergence"):
            project_to_singular_locus(cusp_germ, (0.3, 0.4, 0.5))


class TestFloatLambdas:
    @staticmethod
    def chart(germ, tol):
        """Float lambdas and frame of the chart the numeric path pivots at 0."""
        t, rows, cols = numeric._Thresholds(tol).reduce("corank", germ.linear_coefficients())
        n = germ.n
        ng = normalized(germ, t, rows[: n - 1], cols[: n - 1], exact=False)
        frame = cramer_frame(ng.germ, ng.pivot_names)
        return ng.germ, frame, lambdas_for_frame(ng.germ, frame).lambdas

    def test_identity_matches_float_determinant(self, fold_germ, cusp_germ):
        """lambda_i = det(B) eta_i f_n against det(xi_1 f, ..., xi_{n-1} f, eta_i f)."""
        rng = random.Random(31)
        lef = LefschetzFamily.symbolic().at((Fraction(3, 2), 1, 2, Fraction(1, 2)))
        # a 3-component germ whose first two components are not linear, so
        # det(B) is a genuine polynomial
        moved = unipotent_target_change(rng, linear_target_change(rng, normal_form(4, 3, 3, (1,))))
        tol = Tolerances()
        for germ in (fold_germ, cusp_germ, lef, moved):
            pipe = numeric._FloatPipeline(germ, tol)
            # the chart at 0, which the projection solves, is this one
            assert self.chart(pipe.germ, tol)[2] == pipe.lambdas
            # and the charts at points: the (n+1)-jets there that numeric_classify reads
            points = [tuple(rng.uniform(-1, 1) for _ in range(germ.m)) for _ in range(3)]
            jets = [pipe.germ.translate(pt).truncated(germ.n + 1) for pt in points]
            for chart_germ in [pipe.germ] + jets:
                comps, frame, lambdas = self.chart(chart_germ, tol)
                assert len(lambdas) == germ.m - germ.n + 1
                for eta, got in zip(frame.eta, lambdas):
                    want = cofactor_determinant(lambda_matrix(comps, frame, eta))
                    scale = max(abs(c) for c in want.coefficients())
                    for exps in set(got.exponents()) | set(want.exponents()):
                        assert abs(got.coefficient(exps) - want.coefficient(exps)) <= 1e-12 * scale


class TestRowOrder:
    """The pivot row is the second component: the chart must not permute it twice."""

    @pytest.fixture
    def swapped_fold(self):
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        return MapGerm(ctx, (y**2 + z**2, x))

    def test_fold_matches_classify(self, swapped_fold):
        verdict = numeric_classify(swapped_fold, [0.0] * 3)
        assert verdict.label == classify(swapped_fold).label == Label("Fold", k=1, signature=(2, 0))

    def test_projection_lands_on_the_fold_axis(self, swapped_fold):
        p = project_to_singular_locus(swapped_fold, (0.3, 0.1, 0.2))
        assert abs(p[1]) <= 1e-10 and abs(p[2]) <= 1e-10

    def test_scan_near_the_chart_boundary_has_no_regular_verdict(self):
        # pivots on b1 + y2 at 0; a1 = 0 puts the plane a1 + x2 = 0 in the box
        germ = LefschetzFamily.symbolic().at((0, Fraction(1, 2), 2, Fraction(3, 2)))
        verdicts = scan_region(germ, [(-1, 1)] * 4, 5)
        assert verdicts
        assert not [v.point for v in verdicts if v.label.kind == "Regular"]


class TestNumericClassify:
    def test_battery_agreement_at_origin(self, battery_germs):
        for m, n, k, signs, germ in battery_germs[::5]:
            exact = classify(germ).label
            verdict = numeric_classify(germ, [0.0] * m)
            assert verdict.label.kind == exact.kind
            assert verdict.label.k == exact.k

    def test_parity_with_classify_on_large_kernels(self):
        # s = m-n+1 = 4, 5 and 5: the s x s kernel Hessian and M go through
        # the pivoted float elimination, which the battery (s <= 3) skips
        rng = random.Random(4242)
        fold = normal_form(6, 2, 1, (1, -1, 1, -1, 1))
        germs = [normal_form(5, 2, 2, (1, -1, 1)), normal_form(6, 2, 2, (-1, 1, 1, -1)),
                 linear_target_change(rng, linear_source_change(rng, fold))]
        for germ in germs:
            exact = classify(germ).label
            verdict = numeric_classify(germ, [0.0] * germ.m)
            assert labels_equivalent(verdict.label, exact), (str(verdict.label), str(exact))
        assert [str(classify(g).label) for g in germs[:2]] == ["Morin{2}", "Morin{2}"]

    def test_fold_margin(self, fold_germ):
        verdict = numeric_classify(fold_germ, [0.0, 0.0, 0.0])
        assert verdict.label.kind == "Fold"
        assert verdict.label.signature == (2, 0)
        h_margin = next(m for m in verdict.margins if m.name == "h")
        assert abs(h_margin.value) == pytest.approx(4.0)
        assert abs(abs(h_margin.value) - h_margin.threshold) == pytest.approx(4.0, rel=1e-6)

    def test_near_threshold_is_inconclusive(self):
        # a fold whose h value sits inside the ten-times band of zero_tol
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        tiny = Fraction(1, 10**9)
        germ = MapGerm(ctx, (x, tiny * y**2 + tiny * z**2))
        verdict = numeric_classify(germ, [0.0, 0.0, 0.0])
        assert verdict.label.kind == "Inconclusive"

    def test_regular_point(self, fold_germ):
        verdict = numeric_classify(fold_germ, [0.2, 0.5, 0.0])
        assert verdict.label.kind == "Regular"

    def test_margin_monotone_under_tightening(self, fold_germ):
        # a fold decided with margin far outside the band stays a fold when
        # zero_tol is halved, and its margins move away from the threshold
        loose = numeric_classify(fold_germ, [0.0] * 3, Tolerances(zero_tol=1e-8))
        tight = numeric_classify(fold_germ, [0.0] * 3, Tolerances(zero_tol=5e-9))
        assert loose.label.kind == tight.label.kind == "Fold"
        h_loose = next(m for m in loose.margins if m.name == "h")
        h_tight = next(m for m in tight.margins if m.name == "h")
        assert abs(h_loose.value) > 10 * h_loose.threshold
        assert (abs(abs(h_tight.value) - h_tight.threshold)
                >= abs(abs(h_loose.value) - h_loose.threshold))
        assert not h_tight.inconclusive

    @pytest.mark.parametrize("point, what", [
        ((1e200, 1e200, 0.0), "jet"),  # y^2 = 1e400 at the point
        ((0.0, 1e154, 0.0), "residual"),  # the jet holds, |lambda|^2 = 4e308 does not
    ])
    def test_point_beyond_float_range_raises(self, fold_germ, point, what):
        with pytest.raises(ValueError, match=f"the {what} at the point is not finite"):
            numeric_classify(fold_germ, point)

    def test_decision_beyond_float_range_raises(self):
        # every coefficient is finite, but the scale of dlambda(0) and h(0)
        # are not: a definite verdict on inf or NaN would be no verdict
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        big = 10**200
        germ = MapGerm(ctx, (x, big * y**2 + big * z**2 + big * y * z))
        assert classify(germ).label.kind == "Fold"
        assert numeric._scale([[2e200, 1e200]]) == math.inf  # with no overflow warning
        with pytest.raises(FloatRangeError, match="decision is not finite"):
            numeric_classify(germ, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("value, threshold", [
        (math.nan, 1e-8), (math.inf, 1e-8), (1.0, math.inf), (-math.inf, 1e-8)])
    def test_non_finite_margin_is_refused(self, value, threshold):
        decide = numeric._Thresholds(Tolerances())
        with pytest.raises(FloatRangeError):
            decide.record("h", value, threshold)
        assert decide.margins == []


class TestChartBound:
    """The float chart is expanded only below CHART_TERM_BOUND monomials."""

    @staticmethod
    def ladder(*case):
        inputs = perfbench_module("inputs")
        return inputs.ladder_case(random.Random(1), *case)["germ"]

    @pytest.mark.parametrize("case", [(6, 2, 2), (6, 3, 2), (5, 3, 3), None])
    def test_estimates_bound_the_chart(self, case):
        # ladder germs are dense; the (6, 5, 5) normal form under a target
        # change alone is sparse, and only the sizes of its frame bound it
        if case is None:
            germ = linear_target_change(random.Random(5), normal_form(6, 5, 5, (1,)))
        else:
            germ = self.ladder(*case)
        tol = Tolerances()
        chart_germ, frame, lambdas = TestFloatLambdas.chart(
            numeric._FloatPipeline(germ, tol).germ, tol)
        names, comps = germ.context.source_names, chart_germ.components
        frame_terms = [frame.pivot_minor] + [c for eta in frame.eta for c in eta.coefficients]
        assert max(len(p.terms) for p in frame_terms) <= numeric._frame_size(comps[:-1], names)
        chart_size = numeric._chart_size(frame, comps[-1], names)
        assert max(len(lam.terms) for lam in lambdas) <= chart_size <= CHART_TERM_BOUND

    def test_germ_above_the_bound(self):
        # the (5, 4, 4) normal form under a dense linear change: the chart
        # estimate is 237336 monomials and its expansion ran for minutes
        germ = self.ladder(5, 4, 4)
        verdict = numeric_classify(germ, (0.0,) * germ.m)
        assert verdict.residual is None and verdict.margins
        with pytest.raises(ValueError, match="CHART_TERM_BOUND"):
            project_to_singular_locus(germ, (0.0,) * germ.m)
        with pytest.raises(ValueError, match="CHART_TERM_BOUND"):
            scan_region(germ, [(-1, 1)] * germ.m, 2)


class TestScan:
    def test_fold_region_scan(self, fold_germ):
        verdicts = scan_region(fold_germ, [(-1, 1)] * 3, 5)
        assert verdicts
        assert all(v.label.kind == "Fold" for v in verdicts)

    def test_empty_grid(self, fold_germ):
        assert scan_region(fold_germ, [(-1, 1)] * 3, 0) == []

    def test_scan_is_deterministic(self, fold_germ):
        a = scan_region(fold_germ, [(-1, 1)] * 3, 4)
        b = scan_region(fold_germ, [(-1, 1)] * 3, 4)
        assert [v.point for v in a] == [v.point for v in b]
        assert [str(v.label) for v in a] == [str(v.label) for v in b]

    def test_single_component_germ_numeric(self):
        # n = 1: the kernel frame is every coordinate field
        ctx = make_context("x", "y")
        x, y = (Polynomial.variable(ctx, n) for n in ("x", "y"))
        saddle = MapGerm(ctx, (x * y,))
        verdict = numeric_classify(saddle, [0.0, 0.0])
        assert verdict.label.kind == "Fold" and verdict.label.signature == (1, 1)
        exact = classify(saddle).label
        assert (verdict.label.kind, verdict.label.signature) == (exact.kind, exact.signature)

    def test_degenerate_parameters_show_noncusp_verdicts(self):
        # first complex coefficient pair zero: the whole singular circle is
        # beyond-cusp degenerate, which the scan must surface
        params = (Fraction(0), Fraction(2), Fraction(0), Fraction(3))
        germ = LefschetzFamily.symbolic().at(params)
        witness = circle_point(params, Fraction(1, 2))
        center = [float(v) for v in witness]
        box = [(c - 0.2, c + 0.2) for c in center]
        verdicts = scan_region(germ, box, 3)
        assert any(
            v.label.kind in ("Degenerate", "Inconclusive", "CorankHigh") for v in verdicts
        )


def _bits(verdict):
    return (
        [v.hex() for v in verdict.point],
        str(verdict.label),
        verdict.residual.hex(),
        [(m.name, float(m.value).hex(), m.threshold) for m in verdict.margins],
    )


class TestSharedPipeline:
    PARAMS = (Fraction(1), Fraction(2), Fraction(1), Fraction(1))

    def test_warm_classify_after_scan_matches_cold(self):
        germ = LefschetzFamily.symbolic().at(self.PARAMS)
        tol = Tolerances()
        center = [float(v) for v in circle_point(self.PARAMS, Fraction(1))]
        numeric._shared_pipeline.cache_clear()
        verdicts = scan_region(germ, [(c - 0.1, c + 0.1) for c in center], 2, tol)
        assert verdicts
        point = verdicts[0].point
        warm = numeric_classify(germ, point, tol)
        numeric._shared_pipeline.cache_clear()
        cold = numeric_classify(germ, point, tol)
        assert _bits(warm) == _bits(cold) == _bits(verdicts[0])

    def test_pipeline_keyed_by_tolerances_and_term_order(self):
        germ = LefschetzFamily.symbolic().at(self.PARAMS)
        first, second = Tolerances(), Tolerances(rank_tol=1e-7)
        pipe = numeric._pipeline(germ, first)
        assert numeric._pipeline(germ, Tolerances()) is pipe
        other = numeric._pipeline(germ, second)
        assert other is not pipe and other.tol == second
        # an equal germ whose terms come in another order sums floats in
        # another order, so it gets its own pipeline
        reordered = MapGerm(germ.context, tuple(
            Polynomial(germ.context, dict(reversed(list(p.items()))))
            for p in germ.components
        ))
        assert reordered == germ
        assert numeric._pipeline(reordered, first) is not pipe


def _pipeline_germs(fold_germ, cusp_germ):
    """The fold and cusp fixtures, a Lefschetz germ and an n = 5 chart."""
    lef = LefschetzFamily.symbolic().at((Fraction(1), Fraction(2), Fraction(1), Fraction(1)))
    large = linear_target_change(random.Random(5), normal_form(6, 5, 5, (1,)))
    return [fold_germ, cusp_germ, lef, large]


def _hex(point):
    return None if point is None else [v.hex() for v in point]


class TestBatchProjection:
    def test_batch_equals_single_seeds(self, fold_germ, cusp_germ):
        rng = random.Random(77)
        for germ in _pipeline_germs(fold_germ, cusp_germ):
            seeds = [[rng.uniform(-1, 1) for _ in range(germ.m)] for _ in range(12)]
            batch = project_to_singular_locus(germ, seeds)
            assert len(batch) == len(seeds)
            for seed, got in zip(seeds, batch):
                assert got is not None
                assert _hex(got) == _hex(project_to_singular_locus(germ, seed))

    @staticmethod
    def fails(germ, seed, tol):
        """The single-seed outcome: the point, or the ProjectionError message."""
        try:
            return _hex(project_to_singular_locus(germ, seed, tol))
        except ProjectionError as err:
            return str(err)

    def test_failed_seeds_are_none_beside_converged_ones(self, cusp_germ, monkeypatch):
        # (-0.75, 0, 0.5) lies on the cusp germ's fold curve x = -3 z^2 with
        # residual exactly 0, so it converges at once; the others cannot
        # reach 1e-300 in one step
        monkeypatch.setattr(Tolerances, "max_newton_iters", 1)
        monkeypatch.setattr(Tolerances, "residual_tol", 1e-300)
        tol = Tolerances()
        seeds = [(0.3, 0.4, 0.5), (-0.75, 0.0, 0.5), (-0.2, 0.7, 0.1)]
        batch = project_to_singular_locus(cusp_germ, seeds, tol)
        singles = [self.fails(cusp_germ, seed, tol) for seed in seeds]
        assert [_hex(p) for p in batch] == [None, singles[1], None]
        assert singles[0].startswith("no convergence") and singles[2].startswith("no convergence")

    def test_stalled_seed_is_none_beside_converged_ones(self):
        # lambda = (y^2 - 1, 2z): on y = 0 the step has no y part, so the
        # residual stops at 1 and every halving fails
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        germ = MapGerm(ctx, (x, Fraction(1, 3) * y**3 - y + z**2))
        tol = Tolerances()
        seeds = [(0.2, 0.0, 0.3), (0.2, 1.0, 0.0), (0.2, 0.5, 0.3)]
        batch = project_to_singular_locus(germ, seeds, tol)
        singles = [self.fails(germ, seed, tol) for seed in seeds]
        assert singles[0].startswith("stalled")
        assert [_hex(p) for p in batch] == [None] + singles[1:]

    def test_non_finite_seed_is_none(self, cusp_germ):
        # d(3z^2 + x)/dz = 6z is not finite there, so the seed takes no step
        # and stalls, and the stacked SVD of the others still runs
        seeds = [(0.1, 0.2, math.inf), (0.05, 0.06, -0.04), (0.0, 0.0, math.nan)]
        batch = project_to_singular_locus(cusp_germ, seeds)
        assert [_hex(p) for p in batch] == [
            None, _hex(project_to_singular_locus(cusp_germ, seeds[1])), None]
        with pytest.raises(ProjectionError, match="stalled"):
            project_to_singular_locus(cusp_germ, seeds[0])

    def test_seed_shapes(self, fold_germ):
        assert project_to_singular_locus(fold_germ, np.empty((0, 3))) == []
        with pytest.raises(ValueError):
            project_to_singular_locus(fold_germ, (0.1, 0.2))
        with pytest.raises(ValueError):
            project_to_singular_locus(fold_germ, [(0.1, 0.2)] * 3)


class TestWithoutChart:
    """A germ whose Jacobian at 0 has rank below n-1 has no chart at 0."""

    @pytest.fixture
    def germ(self):
        ctx = make_context("x1", "x2", "y1", "y2")
        x1, x2, y1, y2 = (Polynomial.variable(ctx, n) for n in ctx.names)
        return MapGerm(ctx, (x1**2 - y1**2 + x2 * x1, x1 * y1 + y2**2))

    def test_classifies_without_a_residual(self, germ):
        for point in [(Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)),
                      (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(0))]:
            verdict = numeric_classify(germ, [float(v) for v in point])
            assert verdict.residual is None
            assert verdict.label == classify(germ.translate(point)).label

    def test_projection_still_needs_the_chart(self, germ):
        with pytest.raises(ValueError, match="rank at least n-1"):
            project_to_singular_locus(germ, (0.1, 0.2, 0.3, 0.4))
        with pytest.raises(ValueError, match="rank at least n-1"):
            scan_region(germ, ((-1, 1),) * 4, 2)


class TestEvaluator:
    def test_matches_scalar_oracle(self, fold_germ, cusp_germ):
        rng = random.Random(1313)
        tol = Tolerances()
        for germ in _pipeline_germs(fold_germ, cusp_germ):
            pipe = numeric._FloatPipeline(germ, tol)
            ctx = pipe.germ.context
            src, names = ctx.source_indices, ctx.source_names

            def terms(poly):
                return {tuple(e[i] for i in src): c for e, c in poly.items()}

            rows = [[terms(lam)] + [terms(lam.derivative(v)) for v in names]
                    for lam in pipe.lambdas]
            points = np.array([[rng.uniform(-1.5, 1.5) for _ in src] for _ in range(20)])
            values, jacs = pipe.values(points), pipe.jacobians(points)
            for x, val, jac in zip(points.tolist(), values, jacs):
                got = [[v] + list(g) for v, g in zip(val, jac)]
                for got_row, want_row in zip(got, rows):
                    for g, d in zip(got_row, want_row):
                        scale = eval_terms({e: abs(c) for e, c in d.items()}, map(abs, x))
                        assert abs(g - eval_terms(d, x)) <= 1e-13 * scale

    def test_classify_residual_of_a_scanned_point(self, fold_germ):
        verdicts = scan_region(fold_germ, [(-1, 1)] * 3, 4)
        assert verdicts and all(v.residual <= Tolerances().residual_tol for v in verdicts)


class TestScanCounts:
    """Verdict counts and labels of two 5^4 Lefschetz scans, every seed converging."""

    @pytest.mark.parametrize("params, labels", [
        ((Fraction(3, 2), 1, -2, Fraction(-1, 2)),
         {"Fold(signature=(1, 2))": 377, "Morin{2}": 1}),
        ((0, Fraction(1, 2), 2, Fraction(3, 2)),
         {"Fold(signature=(2, 1))": 33, "Fold(signature=(1, 2))": 393}),
    ])
    def test_counts(self, params, labels):
        germ = LefschetzFamily.symbolic().at(params)
        seeds = list(product(*[np.linspace(-1.0, 1.0, 5)] * 4))
        assert None not in project_to_singular_locus(germ, seeds)
        verdicts = scan_region(germ, [(-1, 1)] * 4, 5)
        assert Counter(str(v.label) for v in verdicts) == labels


FAR_POINTS = {
    "far1": (Fraction(3, 2), Fraction(1), Fraction(2), Fraction(1, 2)),
    "far2": (Fraction(3, 2), Fraction(1), Fraction(2), Fraction(-1)),
}


class TestFloatBits:
    """`float.hex` of the residual and of every margin of `numeric_classify`, pinned.

    The values were recorded with exponent-tuple term keys.  Every float sum
    runs in term order, so a change of term order or of the term keys shows
    here first.  The seeds (None for the fold, taken at a fixed point near
    its axis) must project onto the pinned points.
    """

    CASES = [
        ("fold", None,
         ["0x1.3333333333333p-2", "0x1.0000000000000p-40", "-0x1.0000000000000p-41"],
         "Fold(signature=(2, 0))", "0x1.1e3779b97f4a8p-39",
         ["0x1.0000000000000p+0", "0x1.0000000000000p-39", "0x1.0000000000000p+1",
          "0x1.0000000000000p+1", "0x1.0000000000000p+2", "0x1.0000000000000p+1"]),
        ("cusp", (0.05, 0.06, -0.04),
         ["-0x1.2925174e23d5cp-9", "0x0.0p+0", "-0x1.c263c5627345ep-6"],
         "Fold(signature=(1, 1))", "0x1.8800000000000p-56",
         ["0x1.0000000000000p+0", "0x1.8800000000000p-56", "0x1.0000000000000p+0",
          "0x1.0000000000000p+1", "-0x1.51cad409d6746p-2", "0x1.51cad409d6746p-3"]),
        ("far1", (0.5, -0.5, 0.25, 0.5),
         ["-0x1.0a19d6cdd99e9p-1", "-0x1.d8a761e055bb6p-3", "0x1.3c13aa473b9c9p-2",
          "0x1.18b6045454ec9p-3"],
         "Fold(signature=(1, 2))", "0x1.f1c9c16a4a6b9p-53",
         ["0x1.118b6045454edp+1", "0x1.0000000000000p-53", "0x1.244a8f356d3f6p+2",
          "0x1.1c0e1b67a5755p+1", "0x1.8b6387aec14a1p+2", "0x1.4786df2f0579ap+10",
          "0x1.21040ac55596ep+2"]),
        ("far2", (-0.5, 0.5, 0.5, -0.25),
         ["-0x1.b6242c335bc92p-1", "0x1.a22a5d4fff095p-2", "0x1.1c712ebe8292ap+0",
          "-0x1.0f794a052374dp-1"],
         "Fold(signature=(2, 1))", "0x1.90f056f2488a5p-34",
         ["0x1.e88a9753ffc25p+0", "0x1.0bad780000000p-35", "0x1.d22855fbdf8c6p+1",
          "0x1.1af45d3c59ae3p+2", "0x1.7355a63e3d011p+2", "-0x1.8dee2198ae71dp+9",
          "0x1.25bc3ce433a07p+2"]),
    ]

    @pytest.mark.parametrize("name, seed, point, label, residual, margins", CASES)
    def test_bits(self, request, name, seed, point, label, residual, margins):
        if name in FAR_POINTS:
            germ = LefschetzFamily.symbolic().at(FAR_POINTS[name])
        else:
            germ = request.getfixturevalue(f"{name}_germ")
        point = tuple(float.fromhex(v) for v in point)
        if seed is not None:
            assert _hex(project_to_singular_locus(germ, seed)) == _hex(point)
        verdict = numeric_classify(germ, point)
        assert str(verdict.label) == label
        assert verdict.residual.hex() == residual
        assert [float(m.value).hex() for m in verdict.margins] == margins
