"""The classification pipeline: lambdas, kernel Hessian, theta, labels."""

import dataclasses
import random
import sys
from fractions import Fraction

import pytest

from morinclass import (
    MapGerm,
    Polynomial,
    RationalMatrix,
    build_frame,
    classify,
    hessian,
    normalize,
)
from morinclass.criteria import (
    ALL_DERIVATIVES_VANISH,
    NOT_2_NONDEGENERATE,
    NOT_NONDEGENERATE,
    RANK_CONDITION_FAILED,
    _EXACT,
    Label,
    build_theta,
    fold_fast_path,
    frame_jets,
    iterate_h,
    kernel_hessian_at_origin,
    kernel_hessian_of_last,
    lambdas_for_frame,
    rank_condition_b,
)
from morinclass.germ import linear_coefficients
from morinclass.lefschetz import lefschetz_lambdas

from conftest import (
    cofactor_determinant,
    cusp_fast_path,
    evaluate_rows,
    first_column_theta,
    labels_equivalent,
    lambda_matrix,
    linear_source_change,
    linear_target_change,
    make_context,
    nonzero_adjugate_columns,
    normal_form,
    perfbench_module,
    random_polynomial,
    unipotent_source_change,
    unipotent_target_change,
)


def origin(ctx):
    return {n: Fraction(0) for n in ctx.names}


def lambda_system(ng):
    return lambdas_for_frame(ng.germ, build_frame(ng))


def nondegeneracy_rank(ls):
    """Rank of the Jacobian of the lambdas at 0."""
    return RationalMatrix.from_rows(linear_coefficients(ls.lambdas, ls.germ.context)).rank()


@pytest.fixture
def cusp_data():
    ctx = make_context("x", "y", "z")
    x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
    germ = MapGerm(ctx, (x, y**2 + z**3 + x * z))
    ng = normalize(germ)
    return ctx, germ, ng


@pytest.fixture
def morin3_data():
    ctx = make_context("x1", "x2", "y", "z")
    x1, x2, y, z = (Polynomial.variable(ctx, n) for n in ctx.names)
    germ = MapGerm(ctx, (x1, x2, y**2 + z**4 + x1 * z + x2 * z**2))
    ng = normalize(germ)
    return ctx, germ, ng


class TestLambdas:
    def test_cusp_form(self, cusp_data):
        ctx, germ, ng = cusp_data
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        ls = lambda_system(ng)
        assert ls.lambdas == (2 * y, 3 * z**2 + x)

    def test_fold_form(self):
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        ng = normalize(MapGerm(ctx, (x, y**2 + z**2)))
        assert lambda_system(ng).lambdas == (2 * y, 2 * z)

    def test_lefschetz_normalized_lambda(self):
        data = lefschetz_lambdas()
        ctx = data["germ"].context
        x2, y2, a1, b1 = (Polynomial.variable(ctx, n) for n in ("x2", "y2", "a1", "b1"))
        assert data["normalized"][1] == x2**2 + y2**2 + a1 * x2 + b1 * y2

    @staticmethod
    def assert_lambdas_match_definition(germ, frame):
        lambdas = lambdas_for_frame(germ, frame).lambdas
        assert len(lambdas) == len(frame.eta) == germ.m - germ.n + 1
        for lam, eta in zip(lambdas, frame.eta):
            assert lam == cofactor_determinant(lambda_matrix(germ, frame, eta))

    def test_identity_matches_definition_on_changed_battery(self, battery_germs):
        # lambda_i = det(B) * eta_i f_n against the n x n determinant itself,
        # on the full germ and on the jet-capped germ that classify works with
        rng = random.Random(4242)
        for m, n, k, signs, germ in battery_germs:
            moved = unipotent_target_change(rng, linear_target_change(rng, germ))
            for work in (moved, moved.truncated(n + 1)):
                ng = normalize(work)
                self.assert_lambdas_match_definition(ng.germ, build_frame(ng))

    def test_identity_matches_definition_on_lefschetz_chart(self):
        data = lefschetz_lambdas()
        self.assert_lambdas_match_definition(data["germ"], data["frame"])


class TestJetBudgets:
    @staticmethod
    def uncapped_jets(germ, trace):
        """lambdas and h of the whole germ under the normalization classify chose.

        `normalize` picks the same pivots and eliminations for the whole germ,
        but its integer row scaling depends on every term it sees; the rows
        are therefore rebuilt with the target change printed in the trace.
        """
        rows = [[Fraction(e) for e in row] for row in trace["frame"]["target_change"]]
        ng = normalize(germ)
        assert list(ng.pivot_names) == trace["frame"]["pivots"]
        comps = []
        for row in rows:
            acc = Polynomial.zero(germ.context)
            for w, comp in zip(row, germ.components):
                acc = acc + w * comp
            comps.append(acc)
        ng = dataclasses.replace(ng, germ=MapGerm(germ.context, tuple(comps)))
        ls = lambdas_for_frame(ng.germ, build_frame(ng))
        return ls.lambdas, hessian(ls).h

    def test_trace_jets_match_uncapped_pipeline(self, battery_germs):
        # every degree printed in the trace is a true degree of the germ's
        # lambdas (order n) and h (order n-1), not a truncation artifact
        rng = random.Random(2024)
        for m, n, k, signs, germ in battery_germs:
            for change in (linear_target_change, unipotent_target_change):
                moved = change(rng, germ)
                # integer coefficients, so classify's own scaling is the identity
                moved = MapGerm(moved.context, tuple(c.integer_scaled() for c in moved.components))
                trace = classify(moved).trace
                lambdas, h = self.uncapped_jets(moved, trace)
                assert trace["lambdas"] == [lam.truncated(n).render() for lam in lambdas]
                assert trace["h"] == h.truncated(n - 1).render()

    def test_trace_cuts_h_where_the_rule_knows_more(self):
        # here M(0) = 0, so the jet rule knows det M to order n = 2 (it
        # holds 36*y*z there); the trace still prints h at order n-1, as the
        # uncapped pipeline gives it, and the lambdas at n
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, name) for name in ctx.names)
        germ = MapGerm(ctx, (x, y**3 + z**3))
        trace = classify(germ).trace
        lambdas, h = self.uncapped_jets(germ, trace)
        assert trace["lambdas"] == [lam.truncated(2).render() for lam in lambdas]
        assert trace["h"] == h.truncated(1).render() == "0"
        ng = frame_jets(normalize(germ.truncated(3)))
        hd = hessian(lambdas_for_frame(ng.germ, build_frame(ng)))
        assert hd.h_matrix.determinant().jet == 2 and hd.h.jet == 1

    def test_stage_budgets(self, battery_germs):
        # the exact path reads f_1..f_{n-1} to order n and f_n to n+1, so the
        # frame runs at n-1 and the jet rule still gives the lambdas at n
        rng = random.Random(31)
        for m, n, k, signs, germ in battery_germs:
            for g in (germ, linear_target_change(rng, linear_source_change(rng, germ))):
                ng = frame_jets(normalize(g.truncated(n + 1)))
                assert [c.jet for c in ng.germ.components] == [n] * (n - 1) + [n + 1]
                frame = build_frame(ng)
                assert frame.pivot_minor.jet == n - 1
                # every eta coefficient but the exact zeros of unused slots
                assert {
                    c.jet for eta in frame.eta for c in eta.coefficients
                    if not (c.jet is None and c.is_zero())
                } == {n - 1}
                ls = lambdas_for_frame(ng.germ, frame)
                hd = hessian(ls)
                assert all(lam.jet == n for lam in ls.lambdas)
                assert hd.h.jet == n - 1
                if hd.h.constant_term() == 0:
                    hd = iterate_h(first_column_theta(ls, hd), n - 1)
                    assert [p.jet for p in hd.h_derivs] == list(range(n - 1, -1, -1))

    def test_fold_value_from_kernel_hessian(self, battery_germs):
        # M(0) = det B(0) * K because eta_i f_n vanishes at 0, so
        # h(0) = det B(0)^s * det K with s = m-n+1, fold or not
        rng = random.Random(1729)
        for m, n, k, signs, germ in battery_germs:
            for moved in (
                linear_target_change(rng, linear_source_change(rng, germ)),
                unipotent_target_change(rng, unipotent_source_change(rng, germ)),
            ):
                ng = normalize(moved.truncated(n + 1))
                frame = build_frame(ng)
                h0 = hessian(lambdas_for_frame(ng.germ, frame)).h.constant_term()
                det_k = kernel_hessian_of_last(ng, frame).determinant()
                assert h0 == frame.pivot_minor.constant_term() ** (m - n + 1) * det_k
                assert (h0 != 0) == (k == 1)


class TestNondegeneracy:
    """The rank of dlambda(0) from the polynomial lambdas, and as `classify` records it."""

    def test_fails_without_linear_term(self):
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        germ = MapGerm(ctx, (x, y**2 + z**3))
        assert nondegeneracy_rank(lambda_system(normalize(germ))) == 1
        assert classify(germ).trace["nondegeneracy"] == {"rank": 1, "required": 2}

    def test_passes_with_unfolding_term(self, cusp_data):
        _, germ, ng = cusp_data
        assert nondegeneracy_rank(lambda_system(ng)) == 2
        assert classify(germ).trace["nondegeneracy"] == {"rank": 2, "required": 2}

    def test_fold_passes(self):
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        germ = MapGerm(ctx, (x, y**2 + z**2))
        assert nondegeneracy_rank(lambda_system(normalize(germ))) == 2
        assert classify(germ).trace["nondegeneracy"] == {"rank": 2, "required": 2}


class TestHessian:
    def test_cusp_form(self, cusp_data):
        ctx, _, ng = cusp_data
        z = Polynomial.variable(ctx, "z")
        hd = hessian(lambda_system(ng))
        rows = hd.h_matrix.to_rows()
        assert rows[0][0] == Polynomial.constant(ctx, 2)
        assert rows[0][1].is_zero() and rows[1][0].is_zero()
        assert rows[1][1] == 6 * z
        assert hd.h == 12 * z

    def test_fold_form_constant(self):
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        ng = normalize(MapGerm(ctx, (x, y**2 + z**2)))
        hd = hessian(lambda_system(ng))
        assert hd.h == Polynomial.constant(ctx, 4)

    def test_higher_morin_form(self, morin3_data):
        ctx, _, ng = morin3_data
        x2 = Polynomial.variable(ctx, "x2")
        z = Polynomial.variable(ctx, "z")
        hd = hessian(lambda_system(ng))
        assert hd.h == 24 * z**2 + 4 * x2


class TestTheta:
    def test_adjugate_column_choice(self, cusp_data):
        ctx, _, ng = cusp_data
        ls = lambda_system(ng)
        hd = first_column_theta(ls, hessian(ls))
        assert hd.theta_column == 1  # first column vanishes at 0
        values = [c.evaluate(origin(ctx)) for c in hd.theta.coefficients]
        assert values == [0, 0, 2]

    def test_theta_annihilates_lambdas_at_origin(self, cusp_data):
        ctx, _, ng = cusp_data
        ls = lambda_system(ng)
        hd = first_column_theta(ls, hessian(ls))
        for lam in ls.lambdas:
            assert hd.theta.apply(lam).evaluate(origin(ctx)) == 0

    def test_kernel_identity_is_polynomial(self, cusp_data):
        # the matrix times the theta coefficient vector equals h times the
        # chosen adjugate column, identically
        ctx, _, ng = cusp_data
        ls = lambda_system(ng)
        hd = first_column_theta(ls, hessian(ls))
        adj = hd.h_matrix.adjugate()
        size = hd.h_matrix.rows
        coeffs = [adj[i, hd.theta_column] for i in range(size)]
        for r in range(size):
            lhs = Polynomial.zero(ctx)
            for c in range(size):
                lhs = lhs + hd.h_matrix[r, c] * coeffs[c]
            assert lhs == (hd.h if r == hd.theta_column else Polynomial.zero(ctx))

    def test_lefschetz_theta_matches_published_cofactors(self):
        from morinclass.lefschetz import chart_hessian

        data = chart_hessian()
        mat = data["h_matrix"]
        etas = data["frame"].eta
        # the published field: 2x2 cofactors of the first two lambda-columns
        c1 = mat[0, 1] * mat[1, 2] - mat[1, 1] * mat[0, 2]
        c2 = mat[1, 0] * mat[0, 2] - mat[0, 0] * mat[1, 2]
        c3 = mat[0, 0] * mat[1, 1] - mat[1, 0] * mat[0, 1]
        published = None
        for coeff, eta in zip((c1, c2, c3), etas):
            scaled = eta.scaled(coeff)
            published = scaled if published is None else published + scaled
        assert data["theta"].coefficients == published.coefficients


class TestThetaRule:
    @staticmethod
    def linear_change(rng, germ):
        return linear_target_change(rng, linear_source_change(rng, germ))

    @staticmethod
    def unipotent_change(rng, germ):
        return unipotent_target_change(rng, unipotent_source_change(rng, germ))

    @staticmethod
    def changed_stages(battery_germs, rng, changes):
        """(n, k, lambdas, Hessian data, M(0)) of each battery germ under each change."""
        for m, n, k, signs, germ in battery_germs:
            for change in changes:
                ng = normalize(change(rng, germ).truncated(n + 1))
                ls = lambdas_for_frame(ng.germ, build_frame(ng))
                hd = hessian(ls)
                m0 = [[e.constant_term() for e in row] for row in hd.h_matrix.to_rows()]
                yield n, k, ls, hd, m0

    def test_exact_rule_matches_minor_rank_oracle(self, battery_germs):
        changes = (self.linear_change, self.unipotent_change)
        for *_, m0 in self.changed_stages(battery_germs, random.Random(31), changes):
            assert _EXACT.theta_column(m0) == (nonzero_adjugate_columns(m0) or [None])[0]

    def test_exact_rule_on_fraction_entries_of_size_four(self):
        a = [Fraction(1, 2), Fraction(1, 3), 0, Fraction(-2, 5)]
        b = [0, Fraction(1, 5), Fraction(1, 7), 0]
        c = [Fraction(1, 9), 0, Fraction(-4, 3), Fraction(3, 4)]
        d = [Fraction(5, 6), 0, 0, Fraction(1, 11)]
        mix = [x + Fraction(2, 3) * y for x, y in zip(a, b)]
        zero = [Fraction(0)] * 4
        cases = (
            ([a, b, c, d], 0),  # invertible: every column
            ([c, a, b, mix], 1),  # rows 1..3 span a plane, so column 0 vanishes
            ([a, b, c, zero], 3),  # only the zero row may be left out
            ([a, b, mix, zero], None),  # rank 2: adj(M(0)) = 0
        )
        for m0, expected in cases:
            assert (nonzero_adjugate_columns(m0) or [None])[0] == expected
            assert _EXACT.theta_column(m0) == expected

    def test_label_data_do_not_depend_on_the_column(self, battery_germs):
        # theta from any nonzero column of adj(M(0)) gives the same first
        # nonvanishing h^(j)(0) and the same condition-(b) rank, so the label
        # does not depend on the column the rule picks
        germs = choices = 0
        stages = self.changed_stages(battery_germs, random.Random(97), [self.linear_change])
        for n, k, ls, hd, m0 in stages:
            if k == 1:
                continue
            germs += 1
            columns = nonzero_adjugate_columns(m0)
            outcomes = set()
            for c in columns:
                chain = iterate_h(build_theta(ls, hd, c), n - 1)
                values = [p.constant_term() for p in chain.h_derivs]
                j = next((j for j in range(1, n) if values[j] != 0), None)
                rank = None if j is None else rank_condition_b(ls, chain, j + 1)["rank"]
                outcomes.add((j, rank))
            assert len(outcomes) == 1
            choices += len(columns) > 1
        # the changes leave no germ with a single usable column
        assert choices == germs == 18


class TestIterateH:
    def test_cusp_chain(self, cusp_data):
        ctx, _, ng = cusp_data
        ls = lambda_system(ng)
        hd = iterate_h(first_column_theta(ls, hessian(ls)), 1)
        assert hd.h_derivs[0] == 12 * Polynomial.variable(ctx, "z")
        assert hd.h_derivs[1] == Polynomial.constant(ctx, 24)

    def test_higher_morin_chain(self, morin3_data):
        ctx, _, ng = morin3_data
        x2 = Polynomial.variable(ctx, "x2")
        z = Polynomial.variable(ctx, "z")
        ls = lambda_system(ng)
        hd = iterate_h(first_column_theta(ls, hessian(ls)), 2)
        assert hd.h_derivs[0] == 24 * z**2 + 4 * x2
        assert hd.h_derivs[1] == 96 * z
        assert hd.h_derivs[2] == Polynomial.constant(ctx, 192)


class TestRankConditionB:
    def test_cusp(self, cusp_data):
        _, _, ng = cusp_data
        ls = lambda_system(ng)
        hd = iterate_h(first_column_theta(ls, hessian(ls)), 1)
        res = rank_condition_b(ls, hd, 2)
        assert res["rank"] == 3 and res["required"] == 3

    def test_higher_morin(self, morin3_data):
        _, _, ng = morin3_data
        ls = lambda_system(ng)
        hd = iterate_h(first_column_theta(ls, hessian(ls)), 2)
        res = rank_condition_b(ls, hd, 3)
        assert res["rank"] == 4 and res["required"] == 4

    def test_fold_is_lambda_rank(self):
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        ng = normalize(MapGerm(ctx, (x, y**2 + z**2)))
        ls = lambda_system(ng)
        res = rank_condition_b(ls, hessian(ls), 1)
        assert res["rank"] == res["required"] == 2


class TestClassify:
    def test_fold(self):
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        rep = classify(MapGerm(ctx, (x, y**2 + z**2)))
        assert rep.label.kind == "Fold" and rep.label.signature == (2, 0)

    def test_cusp(self, cusp_data):
        _, germ, _ = cusp_data
        assert classify(germ).label.is_morin(2)

    def test_higher_morin(self, morin3_data):
        _, germ, _ = morin3_data
        assert classify(germ).label.is_morin(3)

    def test_degenerate(self):
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        rep = classify(MapGerm(ctx, (x, y**2 + z**3)))
        assert rep.label.kind == "Degenerate"
        assert rep.label.reason == NOT_NONDEGENERATE

    def test_quartic_z_is_not_morin(self):
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        rep = classify(MapGerm(ctx, (x, y**2 + z**4)))
        assert rep.label.kind == "Degenerate"

    def test_all_derivatives_vanish_reason(self):
        # z^4 with the z^2 unfolding only: nondegenerate, 2-singular forever
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        rep = classify(MapGerm(ctx, (x, y**2 + z**4 + x * z)))
        assert rep.label == Label("Degenerate", reason=ALL_DERIVATIVES_VANISH)
        assert rep.trace["h_derivs_at_0"] == ["0", "0"]

    def test_not_2_nondegenerate_reason(self):
        # nondegenerate, but M(0) = 0: every column of adj(M(0)) is zero
        ctx = make_context("x1", "x2", "x3", "x4", "x5")
        x1, x2, x3, x4, x5 = (Polynomial.variable(ctx, n) for n in ctx.names)
        rep = classify(MapGerm(ctx, (x1, x2, x3**2 + x1 * x4 + x2 * x5)))
        assert rep.label == Label("Degenerate", reason=NOT_2_NONDEGENERATE)
        assert rep.trace["nondegeneracy"] == {"rank": 3, "required": 3}
        assert "theta_column" not in rep.trace

    def test_rank_condition_failed_reason(self):
        # z^4 without the x2 z^2 unfolding: h'' proposes Morin 3, and the
        # stacked Jacobian of (lambdas, h, h') misses one rank
        ctx = make_context("x1", "x2", "y", "z")
        x1, x2, y, z = (Polynomial.variable(ctx, n) for n in ctx.names)
        fn = y**2 + z**4 + x1 * z
        rep = classify(MapGerm(ctx, (x1, x2, fn)))
        assert rep.label == Label("Degenerate", reason=RANK_CONDITION_FAILED)
        assert rep.trace["h_derivs_at_0"] == ["0", "0", "192"]
        cond = rep.trace["condition_b"]
        assert (cond["k"], cond["rank"], cond["required"]) == (3, 3, 4)
        assert classify(MapGerm(ctx, (x1, x2, fn + x2 * z**2))).label == Label("Morin", k=3)

    def test_single_component_germs_are_morse_classification(self):
        # n = 1: the criteria reduce to the Morse dichotomy
        ctx = make_context("x", "y")
        x, y = (Polynomial.variable(ctx, n) for n in ("x", "y"))
        assert classify(MapGerm(ctx, (x * y,))).label == Label("Fold", k=1, signature=(1, 1))
        assert classify(MapGerm(ctx, (x**2 + y**2,))).label.signature == (2, 0)
        assert classify(MapGerm(ctx, (x**2 + y**3,))).label.kind == "Degenerate"


class TestFastPaths:
    def test_fold_fast_path_signature(self):
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        ng = normalize(MapGerm(ctx, (x, y**2 - z**2)))
        res = fold_fast_path(ng)
        assert res == {"is_fold": True, "signature": (1, 1)}

    def test_cusp_form_is_not_fold(self, cusp_data):
        _, _, ng = cusp_data
        assert fold_fast_path(ng)["is_fold"] is False

    def test_cusp_fast_path(self, cusp_data):
        _, _, ng = cusp_data
        res = cusp_fast_path(ng)
        assert res["applicable"] and res["is_cusp"]

    def test_fold_not_applicable_for_cusp_path(self):
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
        ng = normalize(MapGerm(ctx, (x, y**2 + z**2)))
        res = cusp_fast_path(ng)
        assert not res["applicable"] and res["kernel_dim"] == 0

    def test_higher_morin_not_cusp(self, morin3_data):
        _, _, ng = morin3_data
        res = cusp_fast_path(ng)
        assert res["applicable"] and not res["is_cusp"]

    def test_fast_paths_agree_with_classify_on_random_germs(self):
        rng = random.Random(515)
        ctx = make_context("x", "y", "z")
        x = Polynomial.variable(ctx, "x")
        checked_fold = 0
        checked_cusp = 0
        for _ in range(100):
            bulk = random_polynomial(rng, ctx, max_degree=3, n_terms=5)
            # force vanishing and criticality of the last component
            zeros = {n: Fraction(0) for n in ctx.names}
            bulk = bulk - Polynomial.constant(ctx, bulk.evaluate(zeros))
            for v in ctx.source_names:
                c = bulk.derivative(v).evaluate(zeros)
                if c:
                    bulk = bulk - c * Polynomial.variable(ctx, v)
            germ = MapGerm(ctx, (x, bulk))
            rep = classify(germ)
            if rep.label.kind in ("Regular", "CorankHigh"):
                continue
            ng = normalize(germ)
            fold_res = fold_fast_path(ng)
            assert fold_res["is_fold"] == rep.label.is_fold()
            if rep.label.is_fold():
                assert fold_res["signature"] == rep.label.signature
                checked_fold += 1
            cusp_res = cusp_fast_path(ng)
            if cusp_res["applicable"]:
                assert cusp_res["is_cusp"] == rep.label.is_morin(2)
                checked_cusp += 1
        assert checked_fold >= 20 and checked_cusp >= 10


class TestFoldOverQ:
    """The fold branch decided from the 2-jet at 0, against the polynomial frame."""

    LADDER = ((6, 2, 1, (1, -1, 1, -1, -1)), (7, 2, 1, (-1, 1, 1, -1, 1, 1)),
              (5, 3, 3, (1, -1)), (5, 4, 4, (-1,)))

    @staticmethod
    def pivot_block_germ():
        # B(0) = [[2, 1], [0, 5]] after normalize, so det B(0) = 10
        ctx = make_context("x", "y", "z", "w")
        x, y, z, w = (Polynomial.variable(ctx, n) for n in ctx.names)
        return MapGerm(ctx, (2 * x + y + z * w, x + 3 * y + z**2,
                             x * y + z**2 - w**2 + y * z + z**3))

    def germs(self, battery_germs):
        """Battery germs under both orders of the target changes, and the ladder."""
        rng = random.Random(3141)
        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ctx.names)
        out = [self.pivot_block_germ(), MapGerm(ctx, (x * y - 3 * z**2 + x**3,))]
        for m, n, k, signs, germ in battery_germs:
            out.append(germ)
            out.append(unipotent_target_change(rng, linear_target_change(rng, germ)))
            out.append(linear_target_change(rng, unipotent_target_change(rng, germ)))
        for m, n, k, signs in self.LADDER:
            base = normal_form(m, n, k, signs)
            out.append(linear_target_change(rng, linear_source_change(rng, base)))
        return out

    def test_untraced_report_drops_only_the_polynomials(self, battery_germs):
        folds = 0
        for germ in self.germs(battery_germs):
            full = classify(germ)
            bare = classify(germ, trace=False)
            assert bare.label == full.label
            assert "lambdas" in full.trace and "h" in full.trace
            # same keys in the same order, with the same values
            assert list(bare.trace.items()) == [
                (key, value) for key, value in full.trace.items() if key not in ("lambdas", "h")
            ]
            folds += full.label.is_fold()
        assert folds >= 40

    def test_helper_matches_polynomial_frame(self, battery_germs):
        folds = 0
        for germ in self.germs(battery_germs):
            ng = normalize(germ.truncated(germ.n + 1))
            det_b, eta_hess, kern = kernel_hessian_at_origin(ng)
            kern = RationalMatrix.from_rows(kern)
            frame = build_frame(ng)
            assert det_b == frame.pivot_minor.constant_term()
            assert kern == kernel_hessian_of_last(ng, frame)
            ls = lambdas_for_frame(ng.germ, frame)
            # dlambda(0) = det B(0) E(0)^T H, fold or not
            assert linear_coefficients(ls.lambdas, ng.germ.context) == [
                [det_b * e for e in row] for row in eta_hess
            ]
            if kern.determinant() != 0:
                assert RationalMatrix.from_rows(eta_hess).rank() == nondegeneracy_rank(ls)
                folds += 1
        assert folds >= 40

    def test_pivot_block_with_nonunit_determinant(self):
        germ = self.pivot_block_germ()
        det_b, _, kern = kernel_hessian_at_origin(normalize(germ))
        kern = RationalMatrix.from_rows(kern)
        assert det_b == 10
        report = classify(germ, trace=False)
        assert report.label.is_fold()
        assert report.trace["frame"]["pivot_minor_at_0"] == "10"
        assert Fraction(report.trace["h_at_0"]) == det_b**2 * kern.determinant()


class TestInvariance:
    def test_hessian_matrix_symmetric_on_singular_points(self):
        # sampled rational points of the singular locus of transformed germs
        rng = random.Random(99)
        count = 0
        for trial in range(6):
            germ = normal_form(3, 2, 2, (1,))
            changed = linear_source_change(rng, germ)
            ng = normalize(changed)
            frame = build_frame(ng)
            ls = lambdas_for_frame(ng.germ, frame)
            hd = hessian(ls)
            # points of the original singular set pushed through the change
            # are found by solving the lambda system directly instead: sample
            # source points and keep exact solutions of the original form
            base = normal_form(3, 2, 2, (1,))
            for t in (Fraction(1, 2), Fraction(-1), Fraction(2)):
                # original singular set: y = 0, 3z^2 + x = 0
                pt = {"x1": -3 * t * t, "y1": Fraction(0), "z": t}
                # map through nothing: check the plain form instead
                ls0 = lambda_system(normalize(base))
                assert all(l.evaluate(pt) == 0 for l in ls0.lambdas)
                hd0 = hessian(ls0)
                mat = evaluate_rows(hd0.h_matrix.to_rows(), pt)
                assert mat.is_symmetric()
                count += 1
        assert count >= 18

    def test_label_invariance_under_combined_changes(self, battery_germs):
        rng = random.Random(2718)
        for m, n, k, signs, germ in battery_germs[::7]:
            base = classify(germ).label
            g1 = linear_target_change(rng, linear_source_change(rng, germ))
            assert labels_equivalent(classify(g1).label, base)
            g2 = unipotent_target_change(rng, unipotent_source_change(rng, germ))
            assert labels_equivalent(classify(g2).label, base)

    def test_frame_independence_via_source_permutation(self, cusp_data):
        ctx, germ, _ = cusp_data
        permuted_ctx = make_context("z", "x", "y")
        bindings = {
            "x": Polynomial.variable(permuted_ctx, "x"),
            "y": Polynomial.variable(permuted_ctx, "y"),
            "z": Polynomial.variable(permuted_ctx, "z"),
        }
        comps = tuple(p.substitute(bindings, target_context=permuted_ctx) for p in germ.components)
        permuted = MapGerm(permuted_ctx, comps)
        rep_a = classify(germ)
        rep_b = classify(permuted)
        assert rep_a.label == rep_b.label
        # h vanishes to the same order along theta in both frames
        assert rep_a.trace["h_derivs_at_0"].index("24") == rep_b.trace[
            "h_derivs_at_0"
        ].index("24")

    def test_large_kernel_hessian_fold(self):
        # (10,2,1) under linear changes: a dense 9x9 kernel Hessian, whose
        # determinant and theta column go through elimination, not cofactors
        rng = random.Random(1009)
        signs = (1, -1, 1, 1, -1, 1, -1, -1, 1)
        germ = linear_target_change(rng, linear_source_change(rng, normal_form(10, 2, 1, signs)))
        report = classify(germ)
        assert report.label.is_fold()
        assert sorted(report.label.signature) == sorted((signs.count(1), signs.count(-1)))
        ng = normalize(germ.truncated(3))
        assert hessian(lambda_system(ng)).h_matrix.rows == 9

    def test_normal_form_completeness(self, battery_germs):
        for m, n, k, signs, germ in battery_germs:
            label = classify(germ).label
            if k == 1:
                assert label.kind == "Fold", (m, n, k, signs)
                assert label.signature == (signs.count(1), signs.count(-1))
            else:
                assert label.is_morin(k), (m, n, k, signs)


def test_bench_surface_resolves(monkeypatch):
    """Every function the benchmark wraps or imports is still where it looks.

    The tracer wraps `owner.__dict__[attr]` for each of its targets, and the
    workloads import their helpers by name, so deleting one would break the
    traced benchmark without failing any other test.
    """
    from morinclass import criteria
    from morinclass.lefschetz import chart_hessian

    monkeypatch.setitem(sys.modules, "inputs", perfbench_module("inputs"))
    tracer = perfbench_module("tracer")
    workloads = perfbench_module("workloads")
    for span, owner, attr, _ in tracer.TARGETS:
        assert attr in owner.__dict__, (span, attr)
    assert set(workloads.WORKLOADS) == {
        "ainv_replay", "dim_ladder", "lefschetz_witness", "float_scan_export"}
    assert workloads.fold_fast_path is criteria.fold_fast_path
    # the witness workload checks the chart's adjugate column
    assert workloads.LefschetzWitness._adjugate_column_ok(chart_hessian())
