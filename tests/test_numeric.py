"""Gauss-Newton projection and threshold classification."""

import math
import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from morinclass import MapGerm, Polynomial, classify, cramer_frame
from morinclass.cli import verdict_to_dict
from morinclass.criteria import (Label, _classify_at_origin, kernel_hessian_at_origin,
                                 lambdas_for_frame)
from morinclass.germ import MalformedGermError, normalized
from morinclass.lefschetz import LefschetzFamily, circle_point
from morinclass.linalg import eliminate
from morinclass import numeric
from morinclass.numeric import (
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
    two_jet_coefficients,
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

    def test_coefficient_beyond_float_range_raises(self):
        # the float copy of the germ is the first thing built: it names the
        # component instead of passing on int-to-float's OverflowError
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        germ = MapGerm(ctx, (x, y**2 + 3**10000 * z**2))
        message = "^component 2 has a coefficient beyond the float range$"
        with pytest.raises(FloatRangeError, match=message):
            numeric_classify(germ, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("scale", [10**18, Fraction(1, 10**18)])
    def test_frame_beyond_float_range_raises(self, scale):
        # B is 4x4: the frame's elimination divides by a power of a jet
        # pivot's constant term, which overflows or underflows the floats
        germ = frame_range_germ(scale)
        assert classify(germ).label == Label("Morin", k=2)
        origin, huge = (0.0,) * 6, (0.0,) * 4 + (1e200, 0.0)
        error = "jet division in the frame or theta at the point is not finite"
        with pytest.raises(FloatRangeError, match=error):
            numeric_classify(germ, origin)
        # the first such point in order raises
        for batch, first in (([origin, huge], error), ([huge, origin], "jet at")):
            with pytest.raises(FloatRangeError, match=first):
                numeric._classify_batch(germ, batch, Tolerances())

    @pytest.mark.parametrize("value, threshold", [
        (math.nan, 1e-8), (math.inf, 1e-8), (1.0, math.inf), (-math.inf, 1e-8)])
    def test_non_finite_margin_is_refused(self, value, threshold):
        decide = numeric._Thresholds(Tolerances())
        with pytest.raises(FloatRangeError):
            decide.record("h", value, threshold)
        assert decide.margins == []


class TestChartBound:
    """The float chart is expanded within MAX_TERM_PAIRS term pairs."""

    @staticmethod
    def ladder(*case):
        inputs = perfbench_module("inputs")
        return inputs.ladder_case(random.Random(1), *case)["germ"]

    @pytest.mark.parametrize("case, charted", [
        ((6, 3, 3), True), ((5, 4, 3), False), ((6, 4, 4), False)])
    def test_ladder_charts(self, case, charted):
        # (6, 3, 3) takes about 415,000 pairs; (5, 4, 3) took 8-13 s to
        # chart under a bound predicted from term counts
        germ = self.ladder(*case)
        start = time.perf_counter()
        pipe = numeric._FloatPipeline(germ, Tolerances())
        assert time.perf_counter() - start < 1.0
        assert (pipe.lambdas is not None) == charted
        if not charted:
            assert pipe.no_chart == ("expanding the chart at 0 takes more than "
                                     "MAX_TERM_PAIRS = 1000000 term products")
            verdict = numeric_classify(germ, (0.0,) * germ.m)
            assert verdict.residual is None and verdict.margins

    def test_germ_above_the_bound(self):
        # the (5, 4, 4) normal form under a dense linear change: its chart
        # expansion ran for minutes
        germ = self.ladder(5, 4, 4)
        verdict = numeric_classify(germ, (0.0,) * germ.m)
        assert verdict.residual is None and verdict.margins
        with pytest.raises(ValueError, match="MAX_TERM_PAIRS"):
            project_to_singular_locus(germ, (0.0,) * germ.m)
        with pytest.raises(ValueError, match="MAX_TERM_PAIRS"):
            scan_region(germ, [(-1, 1)] * germ.m, 2)


class TestScan:
    def test_fold_region_scan(self, fold_germ):
        verdicts = scan_region(fold_germ, [(-1, 1)] * 3, 5)
        assert verdicts
        assert all(v.label.kind == "Fold" for v in verdicts)

    def test_empty_grid(self, fold_germ):
        assert scan_region(fold_germ, [(-1, 1)] * 3, 0) == []

    def test_box_is_checked_before_any_projection(self, fold_germ, monkeypatch):
        # a reversed box used to project every seed and return []
        monkeypatch.setattr(numeric, "project_to_singular_locus", None)
        for box, error in (([(-1, 1), (1, -1), (-1, 1)], "axis y needs lo < hi, got 1:-1"),
                           ([(-1, 1), (-1, 1), (0.5, 0.5)], "axis z needs lo < hi"),
                           ([(-1, 1), (math.nan, 1), (-1, 1)], "axis y needs lo < hi"),
                           ([(-1, 1)] * 2, "needs 3 axes, one per source variable, got 2"),
                           ([(-1, 1)] * 4, "needs 3 axes")):
            for grid in (0, 3):
                with pytest.raises(ValueError, match=re.escape(error)):
                    scan_region(fold_germ, box, grid)

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

    @pytest.mark.parametrize("germ_first", [False, True])
    def test_jet_is_refused_whatever_the_cache_holds(self, fold_germ, germ_first):
        # x ; y^2 + z^2 equals its 3-jet, but only the germ can be translated
        jet = fold_germ.truncated(3)
        assert jet == fold_germ
        numeric._shared_pipeline.cache_clear()
        if germ_first:
            assert numeric_classify(fold_germ, (0.1, 0, 0)).label.is_fold()
        with pytest.raises(MalformedGermError, match="cannot translate a jet"):
            numeric_classify(jet, (0.1, 0, 0))

    def test_batch_refuses_as_translate_does(self, fold_germ):
        # the batch checks every point's length before the jet, in the words
        # `translate` refuses that point with
        jet = fold_germ.truncated(3)
        for points, alone in (([(0.1, 0, 0), (0.1, 0)], (0.1, 0)), ([(0.1, 0, 0)], (0.1, 0, 0))):
            with pytest.raises(MalformedGermError) as batch:
                numeric._classify_batch(jet, points, Tolerances())
            with pytest.raises(MalformedGermError) as single:
                jet.translate(alone)
            assert str(batch.value) == str(single.value)
        assert str(batch.value).startswith("cannot translate a jet")


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


@pytest.mark.parametrize("n", [2, 1], ids=["x;x^2", "x^2"])
def test_float_entry_points_refuse_m_at_most_n(n):
    # classify refuses these germs; the float entry points once raised
    # IndexError on x ; x^2 and labelled x^2 a Fold
    ctx = make_context("x")
    x = Polynomial.variable(ctx, "x")
    germ = MapGerm(ctx, (x, x**2)[2 - n:])
    message = rf"need more source variables than components \(m=1, n={n}\)"
    with pytest.raises(MalformedGermError, match=message):
        classify(germ)
    with pytest.raises(MalformedGermError, match=message):
        numeric_classify(germ, (0.0,))
    with pytest.raises(MalformedGermError, match=message):
        project_to_singular_locus(germ, (0.1,))
    with pytest.raises(MalformedGermError, match=message):
        scan_region(germ, ((-1, 1),), 2)


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


# -- the scan's batch against the stages run one point at a time --------------------

def scalar_reduce(rows, rank_tol):
    """Row elimination on the largest entry above rank_tol times the scale, one matrix in Python.

    The rule `numeric._reduce` stacks, as plain floats: (T, pivot rows,
    pivot columns, margins as (suffix, value, threshold)).
    """
    rows = [[float(v) for v in row] for row in rows]
    with np.errstate(over="ignore"):
        thr = rank_tol * (max(float(np.linalg.norm(r)) for r in np.array(rows)) or 1e-300)
    n = len(rows)
    t = [[int(r == c) for c in range(n)] for r in range(n)]
    pivot_rows, pivot_cols = [], []
    for col in range(len(rows[0])):
        free = [r for r in range(n) if r not in pivot_rows]
        if not free:
            break
        best, piv = max((abs(rows[r][col]), r) for r in free)
        if not best > thr:
            continue
        pivot_rows.append(piv)
        pivot_cols.append(col)
        for r in free:
            if r != piv and rows[r][col] != 0:
                f = rows[r][col] / rows[piv][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[piv])]
                t[r] = [a - f * b for a, b in zip(t[r], t[piv])]
    margins = [(f"pivot {k}", abs(rows[r][c]), thr)
               for k, (r, c) in enumerate(zip(pivot_rows, pivot_cols), 1)]
    rest = [abs(v) for r, row in enumerate(rows) if r not in pivot_rows for v in row]
    if rest:
        margins.append(("largest rejected entry", max(rest), thr))
    return t, pivot_rows, pivot_cols, margins


class ScalarThresholds(numeric._Thresholds):
    """`_Thresholds` with its stacked `reduce` and `fold_test` done one matrix at a time."""

    def reduce(self, name, rows):
        t, pivot_rows, pivot_cols, margins = scalar_reduce(rows, self.tol.rank_tol)
        for suffix, value, thr in margins:
            self.record(f"{name} {suffix}", value, thr)
        return t, pivot_rows, pivot_cols

    def fold_test(self, det_b0, eta_hess, kern):
        # a float, also where K is all int 0 (n = 1 and no quadratic term)
        h0 = float(det_b0 ** len(kern) * eliminate(kern)[0])
        nd_rank = self.rank("nondegeneracy", [[det_b0 * e for e in row] for row in eta_hess])
        if not self.nonzero("h", h0):
            return h0, nd_rank, None
        k = np.array(kern, dtype=float)
        eigs = np.linalg.eigvalsh(0.5 * (k + k.T))
        zero_tol = self.tol.zero_tol
        self.record("hessian smallest |eig|", float(np.min(np.abs(eigs))), zero_tol)
        pos, neg = int(np.sum(eigs > zero_tol)), int(np.sum(eigs < -zero_tol))
        return h0, nd_rank, (pos, neg, len(kern) - pos - neg)


def per_point(germ, point, decide, tol=Tolerances()):
    """One point alone: `translate`, cut to the (n+1)-jet, then `_classify_at_origin`."""
    pipe = numeric._pipeline(germ, tol)
    x = tuple(float(v) for v in point)
    jet = pipe.germ.translate(x).truncated(germ.n + 1)
    if not all(math.isfinite(c) for p in jet.components for c in p.coefficients()):
        raise FloatRangeError("the jet at the point is not finite in floats")
    residual = None
    if pipe.lambdas is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            residual = float(numeric._norms(pipe.values(np.array([x])))[0])
        if not math.isfinite(residual):
            raise FloatRangeError("the residual at the point is not finite in floats")
    decision = decide(tol)
    label, _ = _classify_at_origin(jet, decision)
    if any(m.inconclusive for m in decision.margins):
        label = Label("Inconclusive")
    return numeric.NumericVerdict(point=x, label=label, margins=decision.margins, residual=residual)


def hex_dict(verdict):
    """`verdict_to_dict` with every float as `float.hex`."""
    def walk(obj):
        if isinstance(obj, float):
            return obj.hex()
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [walk(v) for v in obj]
        return obj
    return walk(verdict_to_dict(verdict))


def assert_batch_matches(germ, points, tol=Tolerances()):
    """The batch, `numeric_classify` and both per-point paths agree in every bit."""
    batch = [hex_dict(v) for v in numeric._classify_batch(germ, points, tol)]
    assert len(batch) == len(points)
    for got, point in zip(batch, points):
        for decide in (numeric._Thresholds, ScalarThresholds):
            assert got == hex_dict(per_point(germ, point, decide, tol)), point
        assert got == hex_dict(numeric_classify(germ, point, tol))
    return batch


def underflow_germs():
    """Germs whose stacked det B(0) underflows to 0 at the origin, built with 10^-200."""
    ctx = make_context("x", "y", "z", "w")
    x, y, z, w = (Polynomial.variable(ctx, n) for n in ("x", "y", "z", "w"))
    tiny = Fraction(1, 10**200)
    return [MapGerm(ctx, (tiny * x, tiny * y, z**2 + w**2)),
            MapGerm(ctx, (tiny * x + x * z, tiny * y + w**2, z**2 - w**2 + x * y))]


def larger_block_germs():
    """Normal forms at five (m, n), the last two with K or B above 3x3, and their points.

    Each germ is under a seeded target change, and a source change for
    n <= 3 only: one makes the n = 4 and 5 charts slow to expand.  Its
    points are the origin, seeds near it and the seeds' projections onto
    the singular locus.
    """
    rng = random.Random(3030)
    out = []
    for m, n, k, signs, count in ((5, 3, 1, (1, -1, 1), 12), (5, 4, 2, (1,), 12),
                                  (4, 3, 2, (1,), 12), (6, 3, 1, (1, 1, -1, 1), 2),
                                  (6, 5, 1, (1, -1), 2)):
        germ = normal_form(m, n, k, signs)
        if n <= 3:
            germ = linear_source_change(rng, germ)
        germ = linear_target_change(rng, germ)
        seeds = [[rng.uniform(-0.1, 0.1) for _ in range(m)] for _ in range(count)]
        points = [(0.0,) * m] + seeds
        points += [p for p in project_to_singular_locus(germ, seeds) if p is not None]
        out.append((germ, points))
    return out


def failing_germs():
    """Germs whose first decision at the origin that is not finite is h(0), or condition (b)'s."""
    ctx = make_context("x", "y", "z")
    x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
    big = 10**200
    return (MapGerm(ctx, (x, big * y**2 + big * z**2 + big * y * z)),
            MapGerm(ctx, (x, big * y**3 + x * y + z**2)))


def extreme_block_germs():
    """Germs whose B or K is 4x4, at 10^110 or 10^-110: a power of a pivot leaves the floats."""
    ctx = make_context(*(f"x{i}" for i in range(1, 7)))
    xs = [Polynomial.variable(ctx, name) for name in ctx.names]
    rest = xs[4]**2 + xs[5]**2
    for scale in (10**110, Fraction(1, 10**110)):
        yield MapGerm(ctx, tuple(scale * x for x in xs[:4]) + (rest,))
        yield MapGerm(ctx, (xs[0], xs[1], scale * sum(x * x for x in xs[2:])))


def frame_range_germ(scale):
    """A Morin{2} germ whose x1..x4 carry `scale`: its 4x4 B leaves the floats in the frame."""
    ctx = make_context(*(f"x{i}" for i in range(1, 7)))
    xs = [Polynomial.variable(ctx, name) for name in ctx.names]
    return MapGerm(ctx, tuple(scale * x for x in xs[:4]) + (xs[4]**2 + xs[5]**3 + xs[0] * xs[5],))


def far_germs(seed):
    """The far-point germs of the benchmark's `float_scan_export` at `seed`."""
    inputs = perfbench_module("inputs")
    params = inputs.scan_points(random.Random(seed), inputs.FAR_POINTS)
    return [LefschetzFamily.symbolic().at(p) for p in params]


class TestBatchOracle:
    """`_classify_batch` against each point classified alone, `float.hex` for `float.hex`."""

    @pytest.mark.parametrize("params", [
        (Fraction(3, 2), 1, -2, Fraction(-1, 2)),
        (0, Fraction(1, 2), 2, Fraction(3, 2)),
        (Fraction(1, 2), -1, 1, 1),  # near the chart's edge: Morin candidates take the tail
    ])
    def test_scan_representatives(self, params):
        germ = LefschetzFamily.symbolic().at(params)
        verdicts = scan_region(germ, [(-1, 1)] * 4, 5)
        assert_batch_matches(germ, [v.point for v in verdicts])

    def test_seeded_points_of_the_far_germs(self):
        rng = random.Random(2828)
        kinds = Counter()
        for germ in far_germs(1):
            points = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(200)]
            kinds.update(v["label"]["kind"] for v in assert_batch_matches(germ, points))
        assert kinds["Regular"] > 300

    def test_fixtures_at_points(self, fold_germ, cusp_germ):
        rng = random.Random(2929)
        for germ in (fold_germ, cusp_germ):
            points = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(40)]
            points += [(0.0, 0.0, 0.0), (0.2, 0.0, 0.0), (0.0, 0.0, 0.3), (-0.75, 0.0, 0.5)]
            assert_batch_matches(germ, points)

    def test_zero_tie_and_underflow_points(self):
        # every point stays in the stack; each kind below could part its
        # stacked stages from the scalar ones.  Points whose zeros the stack
        # could read apart from `normalized`: a zero coordinate drops terms
        # in `translate`; an exact zero entry in df
        germ = LefschetzFamily.symbolic().at((Fraction(3, 2), 1, -2, Fraction(-1, 2)))
        assert_batch_matches(germ, [(0.0, 0.5, -0.25, 0.0), (0.0, 0.0, 0.0, 0.0),
                                    (-1.0, -1.5, 0.0, 0.0), (0.5, -1.5, 2.0, 0.0)])
        # every corank column ties: max over (|entry|, row) takes the later row
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        tie = MapGerm(ctx, (x + y**2 + z**3, -x + z**2 + y * z))
        assert_batch_matches(tie, [(0.0, 0.0, 0.0), (0.0, 0.25, -0.5), (0.1, 0.0, 0.0)])
        # n = 1 and no quadratic term at 0: K holds int zeros, h(0) is 0.0
        cubic = MapGerm(ctx, (x**3 + y**3 - z**3,))
        verdicts = assert_batch_matches(cubic, [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)])
        assert [m["value"] for m in verdicts[0]["margins"] if m["name"] == "h"] == ["0x0.0p+0"]
        # det B(0) = 10^-400 underflows to 0, at the origin and, for the
        # first germ, in the x-y plane; these maps to 3-space take it from
        # `kernel_hessian_at_origin`, as every corank-one point of n != 2 does
        rng = random.Random(3434)
        for germ in underflow_germs():
            near = [(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3), 0.0, 0.0)
                    for _ in range(5)]
            near += [[rng.uniform(-1e-3, 1e-3) for _ in range(4)] for _ in range(3)]
            assert_batch_matches(germ, [(0.0,) * 4] + near)

    def test_larger_blocks(self):
        # n-1 = 2 and 3 run `eliminate` on B one point at a time, at folds on
        # the projected seeds; s = 4 runs it on K, and n-1 = 4 on B
        folds = Counter()
        for germ, points in larger_block_germs():
            verdicts = assert_batch_matches(germ, points)
            folds[germ.n] += sum(v["label"]["kind"] == "Fold" for v in verdicts)
        assert folds[3] >= 10 and folds[4] >= 2

    def test_first_failing_point_raises(self):
        germ, candidate = failing_germs()
        # the first point fails a decision, the second its jet: the first one raises
        points = [(0.0, 0.0, 0.0), (0.0, 1e200, 0.0)]
        for batch in (points, points[1:]):
            with pytest.raises(FloatRangeError) as alone:
                per_point(germ, batch[0], numeric._Thresholds)
            with pytest.raises(FloatRangeError, match=str(alone.value)):
                numeric._classify_batch(germ, batch, Tolerances())
        # a Morin candidate at 0 whose condition-(b) decision overflows, before
        # and after the point whose jet overflows: its tail runs in order
        for batch, error in ((points, "condition-b largest rejected entry"),
                             (points[::-1], "jet at the point")):
            with pytest.raises(FloatRangeError, match=error):
                per_point(candidate, batch[0], numeric._Thresholds)
            with pytest.raises(FloatRangeError, match=error):
                numeric._classify_batch(candidate, batch, Tolerances())

    def test_out_of_range_block_raises_in_order(self):
        # `eliminate` on these blocks used to raise OverflowError or
        # ZeroDivisionError, before the points ahead of it raised theirs
        for germ in extreme_block_germs():
            origin = (0.0,) * 6
            with pytest.raises(FloatRangeError) as alone:
                per_point(germ, origin, numeric._Thresholds)
            for batch in ([origin], [origin, (0.5,) * 6]):
                with pytest.raises(FloatRangeError, match=re.escape(str(alone.value))):
                    numeric._classify_batch(germ, batch, Tolerances())

    def test_reduce_matches_the_scalar_rule(self):
        rng = np.random.default_rng(3131)
        for shape in ((2, 4), (3, 4), (4, 3), (3, 3)):
            stack = rng.standard_normal((400,) + shape)
            stack[::5] = np.round(stack[::5])  # ties and zeros
            stack[1::7, 0] = stack[1::7, -1]  # a tie between the first and last rows
            stack[2::11, :, 1] = 0.0
            stack[3::13, 1, 2] = rng.choice([math.inf, -math.inf, math.nan], size=len(stack[3::13]))
            stack[4::17] *= 1e300
            stack[5::19] = np.where(stack[5::19] < -0.5, -0.0, stack[5::19])
            # a zero under the pivot leaves its row alone, the pivot row's NaN too
            stack[6::23] = 1.0
            stack[6::23, 0, 0], stack[6::23, -1, :2] = 0.0, (3.0, math.nan)
            red = numeric._reduce(stack, 1e-6)
            for i, rows in enumerate(stack.tolist()):
                t, pivot_rows, pivot_cols, margins = scalar_reduce(rows, 1e-6)
                assert red.pivot_rows[i, :red.rank[i]].tolist() == pivot_rows
                assert red.pivot_cols[i, :red.rank[i]].tolist() == pivot_cols
                assert [[float(v).hex() for v in row] for row in t] == [
                    [v.hex() for v in row] for row in red.t[i].tolist()]
                assert [(f"x {name}", float(v).hex(), thr.hex()) for name, v, thr in margins] == [
                    (name, v.hex(), thr.hex()) for name, v, thr in red.margins(i, "x")]


    def test_cofactor_matches_eliminate(self):
        rng = np.random.default_rng(3232)
        for size in (2, 3):
            a = rng.choice([0.0, -0.0, 1.5, -2.0, 3.25, 1e300, math.inf, math.nan],
                           size=(600, size, size), p=[.2, .1, .2, .2, .2, .04, .03, .03])
            with np.errstate(all="ignore"):
                det = numeric._cofactor(a)
            for i, rows in enumerate(a.tolist()):
                assert det[i].hex() == eliminate(rows)[0].hex()

    @pytest.mark.parametrize("m, n", [(4, 3), (5, 3), (5, 4), (6, 4)])
    def test_kernel_hessians_with_larger_b(self, m, n, monkeypatch):
        # n-1 = 2 and 3: no stack; the fold test gets det B(0), E(0)^T H and K
        # with the bits of `kernel_hessian_at_origin` on each corank-one
        # point's normalized germ.  f_n's linear part is a combination of the
        # others', so the corank reduction leaves it a row of rounding residue
        # or zeros
        ctx = make_context(*(f"x{i}" for i in range(1, m + 1)))
        rng = random.Random(3535 + 10 * m + n)
        pool = (0.0, -0.0, 1.5, -2.0, 0.75, 3.25, 1e-300)
        quadratic = [e for e in product(range(3), repeat=m) if sum(e) == 2]
        units = [tuple(int(j == i) for j in range(m)) for i in range(m)]
        germs = []
        for _ in range(150):
            rows = [[rng.choice(pool) for _ in range(m)] for _ in range(n - 1)]
            mix = [rng.choice((0.0, 1.0, -0.5)) for _ in rows]
            rows.append([sum(c * row[j] for c, row in zip(mix, rows)) for j in range(m)])
            germs.append(MapGerm(ctx, tuple(Polynomial(ctx, {
                **{u: c for u, c in zip(units, row) if c},
                **{e: rng.choice(pool[2:]) for e in quadratic if rng.random() < 0.5}})
                for row in rows)))
        coef = np.array([[c for p in g.components for c in two_jet_coefficients(p)]
                         for g in germs], dtype=float).reshape(len(germs), n, -1)
        tol = Tolerances()
        with np.errstate(all="ignore"):
            corank = numeric._reduce(coef[:, :, :m], tol.rank_tol)
        sub = np.flatnonzero(corank.rank == n - 1)
        seen, fold_test = [], numeric._fold_test

        def recorded(det_b, eta_hess, kern, tol):
            seen.append((det_b.copy(), eta_hess.copy(), kern.copy()))
            return fold_test(det_b, eta_hess, kern, tol)

        monkeypatch.setattr(numeric, "_fold_test", recorded)
        numeric._stacked_stages(coef, germs.__getitem__, n, m, tol)
        (det_b, eta_hess, kern), = seen
        assert len(sub) > 50 and len(det_b) == len(sub)
        for j, i in enumerate(sub):
            pivots = corank.pivot_rows[i, :n - 1].tolist(), corank.pivot_cols[i, :n - 1].tolist()
            ng = normalized(germs[i], corank.t[i].tolist(), *pivots, exact=False)
            want = kernel_hessian_at_origin(ng)
            got = (float(det_b[j]), eta_hess[j].tolist(), kern[j].tolist())
            assert [float(v).hex() for v in _flat(want)] == [v.hex() for v in _flat(got)]

    def test_rows_of_t_f_as_normalized_sums_them(self):
        # exact cancellations, absent terms and products that underflow to
        # -0.0: `normalized` drops a sum that cancels and keeps a zero
        # product, where the stacked sums add them up; every bit the stages
        # read must agree all the same.  The second component's linear part
        # is a multiple of the first's, so the corank reduction leaves most
        # germs at corank one, its T's pivot row a unit row
        ctx = make_context("x1", "x2", "y1", "y2")
        exps = [e for e in product(range(3), repeat=4) if 1 <= sum(e) <= 2]
        rng = random.Random(3333)
        pool, weights = (1.5, -1.5, 2.0, 1e-300, -1e-300), (0.0, 1.0, -1.0, 1e-300, 0.5)
        germs = []
        for _ in range(300):
            first = {e: rng.choice(pool) for e in exps if rng.random() < 0.6}
            w = rng.choice(weights)
            second = {e: (w * first.get(e, 0.0) if sum(e) == 1 else rng.choice(pool))
                      for e in exps if sum(e) == 1 or rng.random() < 0.6}
            germs.append(MapGerm(ctx, (Polynomial(ctx, first), Polynomial(ctx, second))))
        coef = np.array([[c for p in g.components for c in two_jet_coefficients(p)]
                         for g in germs], dtype=float).reshape(300, 2, -1)
        with np.errstate(all="ignore"):
            red = numeric._reduce(coef[:, :, :4], Tolerances().rank_tol)
            sub = np.flatnonzero(red.rank == 1)
            det_b, eta_hess, kern = numeric._kernel_hessians(coef[sub], red[sub], 4)
        assert len(sub) > 250
        for j, i in enumerate(sub):
            pivot = red.pivot_rows[i, 0]
            assert red.t[i, pivot].tolist() == [float(r == pivot) for r in range(2)]
            ng = normalized(germs[i], red.t[i].tolist(), [pivot], [red.pivot_cols[i, 0]],
                            exact=False)
            want = kernel_hessian_at_origin(ng)
            got = (float(det_b[j]), eta_hess[j].tolist(), kern[j].tolist())
            assert [float(v).hex() for v in _flat(want)] == [v.hex() for v in _flat(got)]


class TestTaylorShift:
    """`_TaylorShift` against `translate`, `float.hex` for `float.hex`, on every key it gives."""

    SPECIAL = (0.0, -0.0, 1e-170, -3e-200, 1e160, -1e160, math.inf, -math.inf, math.nan)

    def test_matches_translate(self):
        # the rows of a coordinate 0.0, -0.0 or 1e-170 hold zeros, which must
        # drop their paths before they meet an inf or a NaN; sums of three and
        # more paths fix their order; the tiny coefficients of the last germs
        # are 0.0 and -0.0 in floats
        ctx = make_context("x", "y", "z", "w")
        exps = [e for e in product(range(5), repeat=4) if 1 <= sum(e) <= 4]
        rng = random.Random(3636)
        pool = (1.5, -2.0, 0.1, -0.7, 1e-300, 1e300)
        germs = [MapGerm(ctx, tuple(Polynomial(ctx, {
            e: rng.choice(pool + (rng.uniform(-3, 3),))
            for e in rng.sample(exps, rng.randint(1, 12))}) for _ in range(n))) for n in (1, 2, 3) * 13]
        tiny = (Fraction(1, 10**400), Fraction(-1, 10**400), Fraction(3, 2), -2)
        germs += [MapGerm(ctx, tuple(Polynomial(ctx, {
            e: rng.choice(tiny) for e in rng.sample(exps, 10)}).map_coefficients(float)
            for _ in range(2))) for _ in range(6)]
        for germ in germs:
            n = germ.n
            shift = numeric._TaylorShift(germ, n + 1)
            points = [[rng.choice(self.SPECIAL) if rng.random() < 0.4 else rng.uniform(-2, 2)
                       for _ in range(4)] for _ in range(30)]
            for point, row in zip(points, shift(np.array(points))):
                comps = germ.translate(point).components
                want = [float(comps[c].terms.get(ctx.pack(low), 0)).hex() for c, low in shift.keys]
                assert [v.hex() for v in row.tolist()] == want, point
                # and no key of degree at most n+1 is left out
                kept = {(c, ctx.pack(low)) for c, low in shift.keys}
                assert kept >= {(c, key) for c, p in enumerate(comps) for key in p.terms
                                if key >> ctx.degree_shift <= n + 1}

    def test_a_value_beyond_the_floats_fails_the_jet(self):
        # f_2(p) = 10^330 overflows while every other coefficient of the 3-jet
        # is finite: the constant term f(p) - f(p), NaN, fails the point
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        germ = MapGerm(ctx, (x, y**2 + z**3))
        point = (0.0, 0.5, 1e110)
        assert math.isnan(germ.translate(point).components[1].terms[0])
        shift = numeric._pipeline(germ, Tolerances()).shift
        row = shift(np.array([point]))[0].tolist()
        assert [key for key, v in zip(shift.keys, row) if not math.isfinite(v)] == [(1, (0, 0, 0))]
        assert math.isnan(row[shift.constants[1]])
        with pytest.raises(FloatRangeError, match="the jet at the point is not finite"):
            numeric._classify_batch(germ, [(0.0, 0.5, 0.0), point], Tolerances())

    def test_a_jet_and_a_short_point_are_refused_as_translate_refuses_them(self, fold_germ):
        for germ, point in ((fold_germ.truncated(3), (0.1, 0.0, 0.0)), (fold_germ, (0.1, 0.0))):
            with pytest.raises(MalformedGermError) as want:
                germ.translate(point)
            with pytest.raises(MalformedGermError, match=re.escape(str(want.value))):
                numeric._classify_batch(germ, [(0.0, 0.0, 0.0), point], Tolerances())


def _flat(values):
    if isinstance(values, (list, tuple)):
        return [v for item in values for v in _flat(item)]
    return [values]


def counted_calls(monkeypatch):
    """The names `_Thresholds.reduce` and `.fold_test` are called with from here on, in order."""
    calls = []
    reduce, fold_test = numeric._Thresholds.reduce, numeric._Thresholds.fold_test
    monkeypatch.setattr(numeric._Thresholds, "reduce",
                        lambda self, name, rows: calls.append(name) or reduce(self, name, rows))
    monkeypatch.setattr(numeric._Thresholds, "fold_test",
                        lambda self, *args: calls.append("fold test") or fold_test(self, *args))
    return calls


class TestBatchCounts:
    """Counts, not times: every point's fold test runs once, in the stack."""

    @pytest.mark.parametrize("params, labels", [
        ((Fraction(3, 2), 1, -2, Fraction(-1, 2)),
         {"Fold(signature=(1, 2))": 377, "Morin{2}": 1}),
        ((0, Fraction(1, 2), 2, Fraction(3, 2)),
         {"Fold(signature=(2, 1))": 33, "Fold(signature=(1, 2))": 393}),
        ((Fraction(1, 2), -1, 1, 1),
         {"Regular": 282, "Fold(signature=(1, 2))": 102, "Fold(signature=(2, 1))": 42,
          "Inconclusive": 7, "Degenerate(AllDerivativesVanish)": 2}),
    ])
    def test_no_point_repeats_the_fold_test(self, params, labels, monkeypatch):
        # the Morin candidates take `criteria`'s tail on their stacked fold
        # test, where they ran the corank reduction and the fold test again
        calls = counted_calls(monkeypatch)
        numeric._shared_pipeline.cache_clear()  # so the pipeline reduces its own germ here
        germ = LefschetzFamily.symbolic().at(params)
        verdicts = scan_region(germ, [(-1, 1)] * 4, 5)
        assert Counter(str(v.label) for v in verdicts) == labels
        assert calls.count("corank") == 1 and "fold test" not in calls

    def test_no_batch_runs_the_scalar_fold_test(self, monkeypatch):
        # blocks above 3x3, a det B(0) that underflows in the stack and a
        # decision that is not finite take the stacked fold test too
        germs = [(germ, points) for germ, points in larger_block_germs()
                 if max(germ.n - 1, germ.m - germ.n + 1) > 3]
        germs += [(germ, [(0.0,) * 4]) for germ in underflow_germs()]
        calls = counted_calls(monkeypatch)
        for germ, points in germs:
            numeric._classify_batch(germ, points, Tolerances())
        for germ in failing_germs():
            with pytest.raises(FloatRangeError):
                numeric._classify_batch(germ, [(0.0, 0.0, 0.0)], Tolerances())
        assert len(germs) == 4 and "fold test" not in calls

    def test_only_maps_to_the_plane_stack_the_kernel_hessian(self, monkeypatch):
        # an n = 3 batch takes det B(0), E(0)^T H and K from
        # `kernel_hessian_at_origin`, once per corank-one point (each runs
        # the fold test, which records h); an n = 2 scan stacks every one
        # and takes none
        calls, stacked_points = [], []
        scalar, stacked = numeric.kernel_hessian_at_origin, numeric._kernel_hessians

        def counted(ng):
            calls.append(ng.germ.n)
            return scalar(ng)

        def recorded(*args):
            out = stacked(*args)
            stacked_points.append(len(out[0]))
            return out

        monkeypatch.setattr(numeric, "kernel_hessian_at_origin", counted)
        monkeypatch.setattr(numeric, "_kernel_hessians", recorded)
        for germ, points in larger_block_germs():
            if germ.n != 3:
                continue
            calls.clear()
            verdicts = numeric._classify_batch(germ, points, Tolerances())
            corank_one = sum(any(m.name == "h" for m in v.margins) for v in verdicts)
            assert corank_one > 0 and calls == [3] * corank_one
        assert not stacked_points
        calls.clear()
        germ = LefschetzFamily.symbolic().at((Fraction(3, 2), 1, -2, Fraction(-1, 2)))
        verdicts = scan_region(germ, [(-1, 1)] * 4, 5)
        assert sum(stacked_points) == sum(any(m.name == "h" for m in v.margins)
                                          for v in verdicts) > 300
        assert calls == []

    def test_a_scan_translates_only_the_points_whose_jet_it_reads(self, monkeypatch):
        # the two seed-1 scans of `float_scan_export`: 466 representatives
        # take their jets from one stacked shift each, and only the Morin
        # candidate, whose frame reads its normalized germ, runs `translate`
        calls, translate = [], MapGerm.translate
        monkeypatch.setattr(MapGerm, "translate",
                            lambda self, point: calls.append(point) or translate(self, point))
        verdicts = [v for germ in far_germs(1) for v in scan_region(germ, [(-1, 1)] * 4, 5)]
        assert len(verdicts) == 466
        assert calls == [v.point for v in verdicts if str(v.label) == "Morin{2}"]
        assert len(calls) == 1
