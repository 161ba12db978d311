"""The classification pipeline: lambdas, kernel Hessian, theta, labels."""

import dataclasses
import functools
import json
import math
import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

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
    HessData,
    Label,
    build_theta,
    fold_fast_path,
    frame_jets,
    iterate_h,
    kernel_hessian_at_origin,
    kernel_hessian_of_last,
    kernel_matrix,
    lambdas_for_frame,
    rank_condition_b,
)
from morinclass.germ import normalized
from morinclass.lefschetz import LefschetzFamily, lefschetz_lambdas, witness_verify
from morinclass.linalg import PolyMatrix, _dot
from morinclass.parsing import parse_germ_document

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
    minor_rank,
    nonzero_adjugate_columns,
    normal_form,
    perfbench_module,
    polynomial_sum_apply,
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
    return RationalMatrix.from_rows([lam.linear_coefficients() for lam in ls.lambdas]).rank()


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
                det_k = cofactor_determinant(kernel_hessian_of_last(ng, frame).to_rows())
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
        # `_taylor_tail` takes the first column of adj(M(0)) that is not zero
        from morinclass.criteria import _taylor_tail

        rng = random.Random(31)
        for *_, germ in battery_germs:
            for change in (self.linear_change, self.unipotent_change):
                ls = classify_lambdas(change(rng, germ))
                m0 = [[e.constant_term() for e in row] for row in kernel_matrix(ls).to_rows()]
                column = (nonzero_adjugate_columns(m0) or [None])[0]
                assert _taylor_tail(ls).theta_column == column

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


    LADDER_CASES = ((6, 2, 2), (6, 3, 2), (5, 3, 3), (5, 4, 4))

    def test_stages_match_polynomial_sums_exact_and_float(self, battery_germs):
        # the lambdas, M and the h-chain apply their fields in one pass on
        # term dicts, each product at the cap of its sum: on exact jets and
        # on float ones (thirds and sevenths, so no sum is exact) they give
        # the terms, term order, caps and bits of the `Polynomial` sums
        from morinclass.numeric import Tolerances, _Thresholds

        inputs = perfbench_module("inputs")
        rng = random.Random(59)
        germs = [linear_target_change(rng, linear_source_change(rng, g))
                 for *_, g in battery_germs[::2]]
        germs += [inputs.ladder_case(random.Random(1), *case)["germ"]
                  for case in self.LADDER_CASES]

        def bits(polys):
            return [([(k, c.hex() if isinstance(c, float) else c) for k, c in p.terms.items()],
                     p.jet) for p in polys]

        chains = 0
        for germ in germs:
            n = germ.n
            scales = [Fraction(rng.choice((-2, 1, 5)), rng.choice((3, 7))) for _ in range(n)]
            comps = [c * p.truncated(n + 1) for c, p in zip(scales, germ.components)]
            for decide in (_EXACT, _Thresholds(Tolerances())):
                exact = decide is _EXACT
                work = MapGerm(germ.context, tuple(
                    p.integer_scaled() if exact else p.map_coefficients(float) for p in comps))
                t, pivot_rows, pivot_cols = decide.reduce("corank", work.linear_coefficients())
                ng = normalized(work, t, pivot_rows, pivot_cols, exact)
                ng = frame_jets(ng) if exact else ng
                frame = build_frame(ng)
                ls = lambdas_for_frame(ng.germ, frame)
                f_n = ng.germ.components[-1]
                assert bits(ls.lambdas) == bits(
                    [frame.pivot_minor * polynomial_sum_apply(eta, f_n) for eta in frame.eta])
                hd = HessData(kernel_matrix(ls))
                assert bits(hd.h_matrix.entries) == bits(
                    [polynomial_sum_apply(eta, lam) for lam in ls.lambdas for eta in frame.eta])
                m0 = [[e.constant_term() for e in row] for row in hd.h_matrix.to_rows()]
                column = (decide.theta_column(m0) if not exact
                          else (nonzero_adjugate_columns(m0) or [None])[0])
                if column is None:
                    continue
                hd = iterate_h(build_theta(ls, hd, column), n - 1)
                chain = [hd.h]
                for _ in range(n - 1):
                    chain.append(polynomial_sum_apply(hd.theta, chain[-1]))
                assert bits(hd.h_derivs) == bits(chain)
                chains += 1
        assert chains >= 30


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

    def test_exact_rank_matches_minor_rank_oracle(self):
        # int rows, as `classify` hands them over, and Fraction rows, with
        # rank-deficient ones from a repeated combination of two rows
        rng = random.Random(577)
        for trial in range(200):
            n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)]
            if n_rows > 2 and trial % 3 == 0:
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
            fractions = [[Fraction(v, rng.randint(1, 4)) for v in row] for row in rows]
            for case in (rows, fractions):
                assert _EXACT.rank("oracle", case) == minor_rank(case), case


def kernel_hessian_zero_germ(m, seed=0):
    """`x1 ; x2 ; f`, f a dense cubic in y1..y_{m-2} with seeded coefficients 1-3.

    K = 0, so every entry of M vanishes at 0: NotNondegenerate.
    """
    rng = random.Random(seed)
    names = ("x1", "x2") + tuple(f"y{i}" for i in range(1, m - 1))
    ctx = make_context(*names)
    x1, x2, *ys = (Polynomial.variable(ctx, n) for n in names)
    f = Polynomial.zero(ctx)
    for a, b, c in combinations_with_replacement(ys, 3):
        f = f + rng.randint(1, 3) * a * b * c
    return MapGerm(ctx, (x1, x2, f))


def cubic_forms_germ(r, seed=0):
    """`x1 ; ... ; x_r ; sum_i x_i y_i + sum_j (sum_i c_ji y_i)^3`, seeded c_ji in {-2, -1, 1, 2}.

    (m, n) = (2r, r+1).  K = 0 and E(0)^T H has rank r, so the germ passes
    non-degeneracy; M(0) = 0, so it is Not2Nondegenerate, and no entry of
    the r x r matrix M is a unit to pivot on.
    """
    rng = random.Random(seed)
    names = tuple(f"x{i}" for i in range(1, r + 1)) + tuple(f"y{i}" for i in range(1, r + 1))
    ctx = make_context(*names)
    gens = [Polynomial.variable(ctx, n) for n in names]
    xs, ys = gens[:r], gens[r:]
    f = Polynomial.zero(ctx)
    for x, y in zip(xs, ys):
        f = f + x * y
    for _ in range(r):
        form = Polynomial.zero(ctx)
        for y in ys:
            form = form + rng.choice((-2, -1, 1, 2)) * y
        f = f + form**3
    return MapGerm(ctx, (*xs, f))


class TestStageRouting:
    """Counts, not times: `classify` does its work in the named stages.

    The counts go through the module global `criteria.rank_condition_b` and
    the class attribute `RationalMatrix.rank`, the names a tracer wraps.
    """

    @staticmethod
    def germs():
        ctx = make_context("x", "y", "z", "w")
        x, y, z, w = (Polynomial.variable(ctx, n) for n in ctx.names)
        return [
            (normal_form(3, 2, 2, (1,)), Label("Morin", k=2)),
            (normal_form(4, 3, 3, (-1,)), Label("Morin", k=3)),
            (MapGerm(ctx, (x, y, z**2 + w**4 + x * w)),
             Label("Degenerate", reason=RANK_CONDITION_FAILED)),
        ]

    @pytest.fixture
    def counted(self, monkeypatch):
        """The decision objects `rank_condition_b` gets, `RationalMatrix.rank`
        calls and the rank forward passes (those run to a block of size 0)."""
        from morinclass import criteria, linalg

        calls = {"condition_b": [], "rank": [], "rank_pass": []}
        rank_condition_b, rank = criteria.rank_condition_b, RationalMatrix.rank
        forward = linalg._forward

        def counted_condition_b(ls, hd, k, decide=_EXACT):
            calls["condition_b"].append(decide)
            return rank_condition_b(ls, hd, k, decide)

        def counted_rank(matrix):
            calls["rank"].append(matrix.rows)
            return rank(matrix)

        def counted_forward(rows, ncols, stop):
            if stop == 0:
                calls["rank_pass"].append(len(rows))
            return forward(rows, ncols, stop)

        monkeypatch.setattr(criteria, "rank_condition_b", counted_condition_b)
        monkeypatch.setattr(RationalMatrix, "rank", counted_rank)
        for module in (linalg, criteria):
            monkeypatch.setattr(module, "_forward", counted_forward, raising=False)
        return calls

    def test_classify_ranks_through_the_named_stages(self, counted):
        for germ, label in self.germs():
            for calls in counted.values():
                calls.clear()
            assert classify(germ, trace=False).label == label
            assert counted["condition_b"] == [_EXACT]
            # the non-degeneracy rank and condition (b), each one RationalMatrix.rank
            assert counted["rank"] == counted["rank_pass"]
            assert len(counted["rank"]) == 2

    def test_numeric_classify_hands_condition_b_its_thresholds(self, counted):
        from morinclass.numeric import _Thresholds, numeric_classify

        for germ, label in self.germs():
            counted["condition_b"].clear()
            assert numeric_classify(germ, (0,) * germ.m).label == label
            (decide,) = counted["condition_b"]
            assert isinstance(decide, _Thresholds)

    def test_kernel_hessian_zero_is_labelled_without_the_frame(self, monkeypatch):
        # untraced, a germ that fails non-degeneracy needs no polynomial
        # frame: M(0) = 0 would leave its whole block to cofactor expansion
        from morinclass import criteria
        from morinclass.numeric import numeric_classify

        def refused(*args):
            raise AssertionError("the polynomial frame was built")

        for name in ("build_frame", "lambdas_for_frame", "hessian"):
            monkeypatch.setattr(criteria, name, refused)
        label = Label("Degenerate", reason=NOT_NONDEGENERATE)
        for m in range(5, 13):
            germ = kernel_hessian_zero_germ(m)
            assert classify(germ, trace=False).label == label, m
            assert numeric_classify(germ, (0,) * m).label == label, m

    def test_kernel_hessian_zero_traces_h_without_a_determinant(self, monkeypatch):
        # traced, M is built, but no entry has a constant term and M has more
        # rows than its jet order: h is the zero jet, without the cofactor
        # expansion of a block that holds no unit
        def refused(*args):
            raise AssertionError("det M was expanded")

        monkeypatch.setattr(PolyMatrix, "determinant", refused)
        label = Label("Degenerate", reason=NOT_NONDEGENERATE)
        for m in range(7, 15):
            report = classify(kernel_hessian_zero_germ(m), trace=True)
            assert report.label == label, m
            assert report.trace["h"] == "0", m

    @staticmethod
    def m_eliminations(monkeypatch, size):
        """A list that gets one entry per elimination of a `size`-square polynomial
        matrix, through `criteria`'s `eliminate` (theta) or `linalg`'s
        (`PolyMatrix.determinant`)."""
        from morinclass import criteria, linalg

        calls, eliminate = [], linalg.eliminate

        def counted(a, w=None):
            if len(a) == size and isinstance(a[0][0], Polynomial):
                calls.append(len(a))
            return eliminate(a, w)

        for module in (criteria, linalg):
            monkeypatch.setattr(module, "eliminate", counted)
        return calls

    def test_untraced_and_float_paths_eliminate_m_once(self, monkeypatch):
        # det M comes from the elimination that gives theta: untraced, once for
        # a Morin candidate and never for a germ labelled from M(0) alone;
        # traced, once for every germ whose h is printed, none where h is the
        # zero jet of its order.  An exact germ takes `_taylor_tail`: for a map
        # to the plane (n = 2) it eliminates nothing, while its float verdict
        # eliminates M; for n >= 3 its one elimination is that of the
        # s-square block M_<N, the part of M below degree N = n - 1
        from morinclass.numeric import numeric_classify

        ctx = make_context("x", "y", "z")
        x, y, z = (Polynomial.variable(ctx, n) for n in ctx.names)
        vanish = (MapGerm(ctx, (x, x * z + y**2 + z**4)),
                  Label("Degenerate", reason=ALL_DERIVATIVES_VANISH))
        fold = (MapGerm(ctx, (x, y**2 - z**2)), Label("Fold", k=1, signature=(1, 1)))
        ctx = make_context("x1", "x2", "y1", "y2")
        x1, x2, y1, y2 = (Polynomial.variable(ctx, n) for n in ctx.names)
        not2 = Label("Degenerate", reason=NOT_2_NONDEGENERATE)
        nondegenerate = Label("Degenerate", reason=NOT_NONDEGENERATE)
        cases = [(germ, label, 1, 1) for germ, label in self.germs() + [vanish]]
        cases.append((*fold, 0, 1))
        cases.append((MapGerm(ctx, (x1, x2, x1 * y1 + x2 * y2)), not2, 0, 1))
        cases.extend((cubic_forms_germ(r), not2, 0, 1) for r in (3, 4, 5))
        cases.extend((kernel_hessian_zero_germ(m), nondegenerate, 0, 0) for m in (7, 9))
        assert {germ.n for germ, *_ in cases} == {2, 3, 4, 5, 6}
        for germ, label, untraced, traced in cases:
            exact = int(germ.n > 2)
            calls = self.m_eliminations(monkeypatch, germ.m - germ.n + 1)
            assert classify(germ, trace=False).label == label
            assert len(calls) == exact * untraced, (label, calls)
            assert numeric_classify(germ, (0,) * germ.m).label == label
            assert len(calls) == (exact + 1) * untraced, (label, calls)
            calls.clear()
            assert classify(germ).label == label
            assert len(calls) == exact * traced, (label, calls)
            monkeypatch.undo()

    def test_chart_hessian_eliminates_m_for_theta_and_the_adjugate(self, monkeypatch):
        # one elimination of the chart's 3x3 M gives h and theta, one more
        # the full adjugate it reports
        from morinclass.lefschetz import chart_hessian

        calls = self.m_eliminations(monkeypatch, 3)
        chart_hessian()
        assert calls == [3, 3]

    def test_theta_elimination_gives_hessian_h(self, battery_germs, monkeypatch):
        # the h `build_theta` takes from [M | e_c] is `hessian`'s det M term
        # for term, in the same order and with the same float bits, on the
        # float jets the classifier hands it, and on the exact lambdas it
        # hands `_taylor_tail` with the tail's column
        from morinclass import criteria
        from morinclass.numeric import numeric_classify

        def bits(p):
            return p.jet, [(k, type(c), c.hex() if isinstance(c, float) else c)
                           for k, c in p.terms.items()]

        seen, build_theta_, taylor_tail = [], criteria.build_theta, criteria._taylor_tail

        def spied(ls, hd, column):
            seen.append((ls, column))
            return build_theta_(ls, hd, column)

        def spied_tail(ls, theta=True):
            hd = taylor_tail(ls, theta)
            if hd.theta_column is not None:
                seen.append((ls, hd.theta_column))
            return hd

        monkeypatch.setattr(criteria, "build_theta", spied)
        monkeypatch.setattr(criteria, "_taylor_tail", spied_tail)
        rng = random.Random(41)
        changes = (TestThetaRule.linear_change, TestThetaRule.unipotent_change)
        germs = [germ for *_, germ in battery_germs]
        germs += [normal_form(5, 4, k, (1, -1)) for k in (2, 4)]
        for germ in germs:
            for change in changes:
                moved = change(rng, germ)
                classify(moved, trace=False)
                numeric_classify(moved, (0,) * germ.m)
        floats = [isinstance(next(iter(ls.lambdas[0].terms.values())), float) for ls, _ in seen]
        assert any(floats) and not all(floats)
        monkeypatch.undo()  # `hessian` calls `build_theta`, which would grow `seen`
        for ls, column in seen:
            hd = hessian(ls)
            # without the h it is handed, as the untraced path calls it
            assert bits(build_theta_(ls, dataclasses.replace(hd, h=None), column).h) == bits(hd.h)
            assert bits(build_theta_(ls, hd, column).h) == bits(hd.h)

    def test_exact_germs_build_no_m(self, battery_germs, monkeypatch):
        # traced or not, no exact germ builds M or takes a determinant of it:
        # `_taylor_tail` reads h, theta and the h-chain from Taylor
        # coefficients and eliminates only the block M_<N
        from morinclass import criteria

        inputs = perfbench_module("inputs")
        calls = []
        for owner, name in ((criteria, "kernel_matrix"), (criteria, "build_theta"),
                            (criteria, "hessian"), (PolyMatrix, "determinant")):
            def counted(*args, _name=name, _run=getattr(owner, name)):
                calls.append(_name)
                return _run(*args)

            monkeypatch.setattr(owner, name, counted)
        germs = [germ for *_, germ in battery_germs]
        germs += [inputs.ladder_case(random.Random(1), *case)["germ"]
                  for case in ((5, 4, 4), (6, 5, 5))]
        labels = set()
        for germ in germs:
            for trace in (True, False):
                labels.add((germ.n, str(classify(germ, trace=trace).label)))
        assert calls == []
        assert {(4, "Morin{4}"), (5, "Morin{5}")} <= labels


def plane_germs(rng):
    """(kind, germ) for seeded exact maps to the plane, m = 3..7, int and Fraction coefficients.

    The kinds, over x, y1..y_(m-2), z with q = sum +-y_i^2: a fold (`normal_form(m, 2, 1)`),
    a cusp (`normal_form(m, 2, 2)`), "vanish" (x z + q + z^4: theta h(0) = 0),
    "flat" (q + z^3: K and M(0) of rank s-1, NotNondegenerate) and "flat2"
    (y2^2 + ... + z^3 + y1^3: M(0) of rank s-2).  Each comes plain, under a
    dense linear A-change, and under a unipotent one, whose Fraction terms
    also change the kernel fields at first order.

    No map to the plane ends at Not2Nondegenerate or RankConditionFailed.
    rank E(0)^T H <= rank K + n - 1, so non-degeneracy leaves M(0) of rank
    s - 1 at least: adj(M(0)) is not zero.  And theta(0) . dlambda_i(0) =
    (M(0) adj(M(0)))_ic = h(0) delta_ic = 0, so theta h(0) != 0 makes dh(0)
    independent of the dlambda_i(0): condition (b) holds.
    """
    for m in range(3, 8):
        signs = tuple(rng.choice((1, -1)) for _ in range(m - 1))
        fold, cusp = normal_form(m, 2, 1, signs), normal_form(m, 2, 2, signs[1:])
        ctx = cusp.context
        x, *ys, z = (Polynomial.variable(ctx, v) for v in ctx.names)
        q = sum((s * y**2 for s, y in zip(signs, ys)), Polynomial.zero(ctx))
        kinds = [("fold", fold), ("cusp", cusp),
                 ("vanish", MapGerm(ctx, (x, x * z + q + z**4))),
                 ("flat", MapGerm(ctx, (x, q + z**3))),
                 ("flat2", MapGerm(ctx, (x, q - signs[0] * ys[0]**2 + ys[0]**3 + z**3)))]
        for kind, germ in kinds:
            yield kind, germ
            yield kind, TestThetaRule.linear_change(rng, germ)
            yield kind, TestThetaRule.unipotent_change(rng, germ)


def classify_lambdas(germ):
    """The lambdas `classify` builds for an exact germ: on its integer-scaled (n+1)-jet,
    the frame at order n-1."""
    work = MapGerm(germ.context,
                   tuple(c.integer_scaled() for c in germ.truncated(germ.n + 1).components))
    ng = frame_jets(normalize(work))
    return lambdas_for_frame(ng.germ, build_frame(ng))


def tail_stages(germ):
    """The lambdas `classify` builds for an exact germ, and M, h, theta and the h-chain
    from `kernel_matrix`, `build_theta` and `iterate_h` on them."""
    ls = classify_lambdas(germ)
    return ls, eliminated_tail(ls)


def eliminated_tail(ls, theta=True):
    """What `_taylor_tail` gives, by eliminating M: h, and with a theta column theta and
    the h-chain; without `theta`, h alone."""
    hd = HessData(kernel_matrix(ls))
    m0 = [[e.constant_term() for e in row] for row in hd.h_matrix.to_rows()]
    column = (nonzero_adjugate_columns(m0) or [None])[0] if theta else None
    if column is None:
        return build_theta(ls, hd, None)
    return iterate_h(build_theta(ls, hd, column), ls.germ.n - 1)


def theta_terms(hd, order=None):
    """Each coefficient of `hd`'s theta, cut to `order` if one is given, with its cap."""
    cut = [c if order is None else c.truncated(order) for c in hd.theta.coefficients]
    return [(c, c.jet) for c in cut]


class TestPlaneRoute:
    """`criteria._taylor_tail` on maps to the plane, h by Jacobi's formula, against the
    elimination of M on the same lambdas, and `classify`'s records with either."""

    @pytest.fixture(scope="class")
    def germs(self):
        return list(plane_germs(random.Random(4242)))

    def test_matches_the_elimination_of_m(self, germs):
        from morinclass.criteria import _taylor_tail

        ranks = set()
        for kind, germ in germs:
            ls, old = tail_stages(germ)
            new, shown = _taylor_tail(ls), _taylor_tail(ls, False)
            s = germ.m - 1
            assert new.h_matrix is None and shown.theta is None
            assert (shown.h, shown.h.jet) == (old.h, old.h.jet) == (shown.h, 1), kind
            assert new.theta_column == old.theta_column, kind
            rank = minor_rank([[e.constant_term() for e in row] for row in old.h_matrix.to_rows()])
            ranks.add(max(rank, s - 2) - s)
            if old.theta is None:
                assert new.theta is None and new.h_derivs is None and rank <= s - 2, kind
                continue
            assert new.h == old.h and theta_terms(new) == theta_terms(old, 0), kind
            assert new.h_derivs[0] is new.h and [p.jet for p in new.h_derivs] == [1, 0]
            assert [p.constant_term() for p in new.h_derivs] == [
                p.constant_term() for p in old.h_derivs], kind
            assert rank_condition_b(ls, new, 2) == rank_condition_b(ls, old, 2), kind
        # M(0) of rank s, s - 1 and at most s - 2
        assert ranks == {0, -1, -2}

    def test_records_match_the_elimination_of_m(self, germs, monkeypatch):
        from morinclass import criteria

        def records():
            return [json.dumps(classify(germ, trace=trace).trace)
                    for _, germ in germs for trace in (True, False)]

        new = records()
        monkeypatch.setattr(criteria, "_taylor_tail", eliminated_tail)
        assert records() == new
        labels = {str(classify(germ).label).split("(signature")[0] for _, germ in germs}
        assert labels == {"Fold", "Morin{2}", f"Degenerate({ALL_DERIVATIVES_VANISH})",
                          f"Degenerate({NOT_NONDEGENERATE})"}

    def test_h_matches_sympy(self, germs):
        # det M by sympy, cut at order 1, on the changed germs with m <= 5
        import sympy
        from morinclass.criteria import _taylor_tail

        from conftest import to_sympy

        checked = 0
        for kind, germ in germs:
            if germ.m > 5 or kind not in ("cusp", "vanish"):
                continue
            ls, old = tail_stages(germ)
            symbols = sympy.symbols(germ.context.names)
            m = sympy.Matrix([[to_sympy(e, symbols) for e in row]
                              for row in old.h_matrix.to_rows()])
            det = sympy.Poly(sympy.expand(m.det(method="berkowitz")), *symbols)
            first = sum((c * sympy.Mul(*(v**e for v, e in zip(symbols, exps)))
                         for exps, c in det.terms() if sum(exps) <= 1), sympy.Integer(0))
            assert sympy.expand(first - to_sympy(_taylor_tail(ls).h, symbols)) == 0, kind
            checked += 1
        assert checked == 18

    def test_no_first_order_part(self):
        # a fold's normal form has constant kernel fields and quadratic
        # lambdas: M is constant and h is det M(0) alone, an int
        from morinclass.criteria import _taylor_tail

        for m in range(3, 8):
            ls, old = tail_stages(normal_form(m, 2, 1, tuple((-1) ** i for i in range(m - 1))))
            h = _taylor_tail(ls).h
            assert h.terms == {0: old.h.constant_term()} and type(h.constant_term()) is int

    def test_route_is_chosen_by_input(self, monkeypatch):
        # exact germs take `_taylor_tail` for every n, traced and untraced,
        # for the label and for the trace's h; floats do not
        from morinclass import criteria
        from morinclass.numeric import numeric_classify

        calls, taylor_tail = [], criteria._taylor_tail

        def counted(ls, theta=True):
            calls.append(ls.germ.m)
            return taylor_tail(ls, theta)

        monkeypatch.setattr(criteria, "_taylor_tail", counted)
        cases = ((4, 2, 1), (4, 2, 2), (6, 2, 2), (5, 3, 1), (5, 3, 3), (6, 3, 2), (5, 4, 1),
                 (5, 4, 4), (6, 5, 5))
        for m, n, k in cases:
            germ = normal_form(m, n, k, (1,) * (m - 1))
            for trace in (True, False):
                calls.clear()
                classify(germ, trace=trace)
                assert calls == ([m] if trace or k > 1 else []), (m, n, k, trace)
            calls.clear()
            numeric_classify(germ, (0,) * m)
            assert calls == []


def space_germs(rng, n=3, ms=range(4, 8)):
    """(kind, germ) for seeded exact maps to n-space, by default to 3-space with m = 4..7.

    The kinds, over x1..x_(n-1), y1..y_(m-n), z with q = sum +-y_i^2 and
    s = m - n + 1: a fold (`normal_form(m, n, 1)`), a cusp and a Morin n
    (`normal_form(m, n, k)`), "not2" (x1 y1 + x2 z + q - y1^2 + z^3: K of
    rank s - 2, so adj(M(0)) = 0), "vanish" (q + x1 z + x2 z^2 + z^(n+2):
    AllDerivativesVanish), "flat" (q + z^3: NotNondegenerate) and "rank"
    (q + z^4 + x1 z: condition (b) fails).  Each comes plain, under a dense
    linear A-change, and under a unipotent one, whose Fraction terms also
    change the kernel fields at first and second order.
    """
    for m in ms:
        signs = tuple(rng.choice((1, -1)) for _ in range(m - n + 1))
        cusp = normal_form(m, n, 2, signs[1:])
        ctx = cusp.context
        gens = [Polynomial.variable(ctx, v) for v in ctx.names]
        xs, ys, z = gens[:n - 1], gens[n - 1:-1], gens[-1]
        x1, x2 = xs[:2]
        q = sum((s * y**2 for s, y in zip(signs, ys)), Polynomial.zero(ctx))
        kinds = [("fold", normal_form(m, n, 1, signs)), ("cusp", cusp),
                 (f"morin{n}", normal_form(m, n, n, signs[1:])),
                 ("not2", MapGerm(ctx, (*xs, x1 * ys[0] + x2 * z + q - signs[0] * ys[0]**2
                                        + z**3))),
                 ("vanish", MapGerm(ctx, (*xs, q + x1 * z + x2 * z**2 + z**(n + 2)))),
                 ("flat", MapGerm(ctx, (*xs, q + z**3))),
                 ("rank", MapGerm(ctx, (*xs, q + z**4 + x1 * z)))]
        for kind, germ in kinds:
            yield kind, germ
            yield kind, TestThetaRule.linear_change(rng, germ)
            yield kind, TestThetaRule.unipotent_change(rng, germ)


class TestTaylorTail:
    """`criteria._taylor_tail` on maps to 3-space, h to order 2 by the second-order
    expansion of det M around M(0), and on maps to 4- and 5-space (N = n - 1 >= 3),
    against the elimination of M on the same lambdas, and `classify`'s records
    with either."""

    @pytest.fixture(scope="class")
    def germs(self):
        return list(space_germs(random.Random(4343)))

    @pytest.fixture(scope="class")
    def stages(self, germs):
        return [(kind, germ, *tail_stages(germ)) for kind, germ in germs]

    def test_matches_the_elimination_of_m(self, stages):
        from morinclass.criteria import _taylor_tail

        ranks = Counter()
        for kind, germ, ls, old in stages:
            new, shown = _taylor_tail(ls), _taylor_tail(ls, False)
            assert new.h_matrix is None and shown.theta is None
            s = germ.m - 2
            rank = minor_rank([[e.constant_term() for e in row] for row in old.h_matrix.to_rows()])
            ranks[max(rank, s - 2) - s] += 1
            assert (shown.h, shown.h.jet) == (old.h, old.h.jet) == (shown.h, 2), kind
            if old.theta is None:
                assert new.theta is None and new.h_derivs is None and rank <= s - 2, kind
                continue
            assert new.h == old.h and new.theta_column == old.theta_column, kind
            assert theta_terms(new) == theta_terms(old, 1), kind
            assert new.h_derivs[0] is new.h and [p.jet for p in new.h_derivs] == [2, 1, 0]
            assert [p.constant_term() for p in new.h_derivs] == [
                p.constant_term() for p in old.h_derivs], kind
            assert (new.h_derivs[1].linear_coefficients()
                    == old.h_derivs[1].linear_coefficients()), kind
            for k in (2, 3):
                assert rank_condition_b(ls, new, k) == rank_condition_b(ls, old, k), kind
        # M(0) of rank s, s - 1 and at most s - 2
        assert set(ranks) == {0, -1, -2}

    def test_records_match_the_elimination_of_m(self, germs, monkeypatch):
        from morinclass import criteria

        def records():
            return [json.dumps(classify(germ, trace=trace).trace)
                    for _, germ in germs for trace in (True, False)]

        new = records()
        monkeypatch.setattr(criteria, "_taylor_tail", eliminated_tail)
        assert records() == new
        labels = {str(classify(germ).label).split("(signature")[0] for _, germ in germs}
        assert labels == {"Fold", "Morin{2}", "Morin{3}"} | {
            f"Degenerate({reason})" for reason in (NOT_NONDEGENERATE, NOT_2_NONDEGENERATE,
                                                   ALL_DERIVATIVES_VANISH, RANK_CONDITION_FAILED)}

    def test_h_matches_sympy(self, stages):
        # det M by sympy's Berkowitz (the characteristic polynomial's constant
        # term, over QQ[x]), cut at order 2, on the germs with m <= 5
        import sympy
        from morinclass.criteria import _taylor_tail
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.rings import ring

        checked = 0
        for kind, germ, ls, old in stages:
            if germ.m > 5:
                continue
            qx, *_ = ring(germ.context.names, sympy.QQ)
            rows = [[qx.from_dict({e: sympy.QQ(c.numerator, c.denominator) for e, c in p.items()})
                     for p in row] for row in old.h_matrix.to_rows()]
            size = len(rows)
            det = DomainMatrix(rows, (size, size), qx.to_domain()).charpoly_berk()[-1] * (-1)**size
            second = {e: c for e, c in det.items() if sum(e) <= 2}
            assert second == dict(_taylor_tail(ls, False).h.items()), kind
            checked += 1
        assert checked == 42

    @pytest.fixture(scope="class")
    def high_germs(self):
        return [*space_germs(random.Random(4444), 4, (5, 6)),
                *space_germs(random.Random(4545), 5, (6,))]

    @pytest.fixture(scope="class")
    def high_stages(self, high_germs):
        return [(kind, germ, *tail_stages(germ)) for kind, germ in high_germs]

    def test_matches_the_elimination_of_m_for_n_4_and_5(self, high_stages):
        # M_<N eliminated whole, the trace at degree N and theta to order
        # N - 1 give M's h, theta cut at N - 1 and the h-chain, term for
        # term and cap for cap
        from morinclass.criteria import _taylor_tail

        ranks = Counter()
        for kind, germ, ls, old in high_stages:
            new, shown = _taylor_tail(ls), _taylor_tail(ls, False)
            assert new.h_matrix is None and shown.theta is None
            n = germ.n
            s = germ.m - n + 1
            rank = minor_rank([[e.constant_term() for e in row] for row in old.h_matrix.to_rows()])
            ranks[n, max(rank, s - 2) - s] += 1
            assert (shown.h, shown.h.jet) == (old.h, old.h.jet) == (shown.h, n - 1), kind
            if old.theta is None:
                assert new.theta is None and new.h_derivs is None and rank <= s - 2, kind
                continue
            assert new.h == old.h and new.theta_column == old.theta_column, kind
            assert theta_terms(new) == theta_terms(old, n - 2), kind
            assert new.h_derivs[0] is new.h
            assert [(p, p.jet) for p in new.h_derivs] == [(p, p.jet) for p in old.h_derivs], kind
            assert [p.jet for p in new.h_derivs] == list(range(n - 1, -1, -1))
            for k in range(2, n + 1):
                assert rank_condition_b(ls, new, k) == rank_condition_b(ls, old, k), kind
        # M(0) of rank s, s - 1 and at most s - 2, for each n
        assert set(ranks) == {(n, r) for n in (4, 5) for r in (0, -1, -2)}

    def test_records_match_the_elimination_of_m_for_n_4_and_5(self, high_germs, monkeypatch):
        from morinclass import criteria

        def records():
            return [json.dumps(classify(germ, trace=trace).trace)
                    for _, germ in high_germs for trace in (True, False)]

        new = records()
        monkeypatch.setattr(criteria, "_taylor_tail", eliminated_tail)
        assert records() == new
        labels = {str(classify(germ).label).split("(signature")[0] for _, germ in high_germs}
        assert labels == {"Fold", "Morin{2}", "Morin{4}", "Morin{5}"} | {
            f"Degenerate({reason})" for reason in (NOT_NONDEGENERATE, NOT_2_NONDEGENERATE,
                                                   ALL_DERIVATIVES_VANISH, RANK_CONDITION_FAILED)}

    def test_h_matches_sympy_for_n_4_and_5(self):
        # det M by sympy over QQ[x], cut at order N = n - 1, on the smallest
        # cusp of each n under a dense linear change, where M(0) is singular
        import sympy
        from morinclass.criteria import _taylor_tail
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.rings import ring

        for n in (4, 5):
            germ = TestThetaRule.linear_change(random.Random(n), normal_form(n + 1, n, 2, (1,)))
            ls = classify_lambdas(germ)
            qx, *_ = ring(germ.context.names, sympy.QQ)
            rows = [[qx.from_dict({e: sympy.QQ(c.numerator, c.denominator) for e, c in p.items()})
                     for p in row] for row in kernel_matrix(ls).to_rows()]
            det = DomainMatrix(rows, (2, 2), qx.to_domain()).det()
            low = {e: c for e, c in det.items() if sum(e) <= n - 1}
            assert max(map(sum, low)) == n - 1
            assert low == dict(_taylor_tail(ls, False).h.items()), n


class TestScaling:
    """Counts, not times: untraced `classify` and `numeric_classify` at the
    origin stay polynomial where M holds no unit.

    Each count, `_cofactor` expansions (`linalg`'s and the stacked one of
    `numeric`) and `mul_terms` term pairs, is at most its value at the smallest size times (size / smallest)^DEGREE.
    Measured, both grow about as size^3: on `cubic_forms_germ` in r, and on
    `kernel_hessian_zero_germ` in the m - 2 variables of its dense cubic,
    which has about (m - 2)^3 / 6 terms.  A cofactor expansion of M would
    grow as r!.  `expansions` counts residual blocks, one `_cofactor` call
    each, which expands the block's minors inside; `test_traced_minors`
    counts those minors, through `linalg._dot`, on the traced path.
    """

    DEGREE = 4

    @pytest.fixture
    def counts(self, monkeypatch):
        from morinclass import _termops_py, linalg, numeric

        counts = {"expansions": 0, "term_pairs": 0}
        cofactor, mul_terms = linalg._cofactor, _termops_py.mul_terms
        stacked = numeric._cofactor

        def counted_cofactor(a, w):
            counts["expansions"] += 1
            return cofactor(a, w)

        def counted_stacked(a):
            counts["expansions"] += 1
            return stacked(a)

        def counted_mul_terms(a, b, *args):
            counts["term_pairs"] += len(a) * len(b)
            return mul_terms(a, b, *args)

        monkeypatch.setattr(linalg, "_cofactor", counted_cofactor)
        # the float companion's batch expands K of at most 3x3 stacked
        monkeypatch.setattr(numeric, "_cofactor", counted_stacked)
        monkeypatch.setattr(_termops_py, "mul_terms", counted_mul_terms)
        return counts

    def assert_polynomial_growth(self, counts, sizes, germ_of):
        from morinclass.numeric import numeric_classify

        smallest = {}
        for size in sizes:
            germ = germ_of(size)
            runs = {"classify": lambda: classify(germ, trace=False),
                    "numeric": lambda: numeric_classify(germ, (0,) * germ.m)}
            for path, run in runs.items():
                counts.update(expansions=0, term_pairs=0)
                run()
                for key, value in counts.items():
                    first, base = smallest.setdefault((path, key), (size, max(value, 1)))
                    assert value <= base * (size / first) ** self.DEGREE, (path, key, size, value)

    def test_cubic_forms_family(self, counts):
        self.assert_polynomial_growth(counts, range(3, 11), cubic_forms_germ)

    def test_theta_decision_on_a_zero_block_stays_polynomial(self, monkeypatch):
        # the exact theta column decision, `_taylor_tail`'s adj(M(0)),
        # eliminates M(0) = 0, an r x r block of zeros with no pivot:
        # `_cofactor` expands each minor once, in at most r^3 `_dot` calls,
        # the bound of
        # `test_linalg.py::TestElimination::test_expanded_zero_block_stays_polynomial`
        from morinclass import criteria, linalg

        dots, deciding = [0], [False]
        dot, adjugate = linalg._dot, criteria.adjugate

        def counted_dot(xs, ys):
            dots[0] += deciding[0]
            return dot(xs, ys)

        def counted_adjugate(rows, one, zero):
            deciding[0] = True
            try:
                return adjugate(rows, one, zero)
            finally:
                deciding[0] = False

        monkeypatch.setattr(linalg, "_dot", counted_dot)
        monkeypatch.setattr(criteria, "adjugate", counted_adjugate)
        for r in range(3, 11):
            dots[0] = 0
            assert classify(cubic_forms_germ(r), trace=False).label.reason == NOT_2_NONDEGENERATE
            assert 0 < dots[0] <= r**3, (r, dots[0])

    def test_kernel_hessian_zero_family(self, counts):
        # m = 5..14
        self.assert_polynomial_growth(counts, range(3, 13), lambda k: kernel_hessian_zero_germ(k + 2))

    def test_traced_minors(self, monkeypatch):
        # traced, h is det M, and on `cubic_forms_germ` no entry of M is a
        # unit: `_cofactor` expands the whole r x r block.  One `_dot` call
        # per minor expanded (and per entry assembled after elimination)
        # at most doubles from r to r + 1 when each minor is expanded once;
        # expanding every minor anew, it grows as r!
        from morinclass import linalg

        calls, dot = [0], linalg._dot

        def counted(xs, ys):
            calls[0] += 1
            return dot(xs, ys)

        def traced(germ):
            calls[0] = 0
            classify(germ, trace=True)
            return max(calls[0], 1)

        monkeypatch.setattr(linalg, "_dot", counted)
        cubic = [traced(cubic_forms_germ(r)) for r in range(3, 8)]
        assert all(b <= 2 * a for a, b in zip(cubic, cubic[1:])), cubic
        # no exact germ forms M.  For n = 2 the count is the scalar adj(M(0))
        # of `_taylor_tail`, (m-1)-square, which for m = 3 is a 2x2 of 5
        # products.  For n >= 3 it is that adjugate and the elimination of
        # the block M_<N, and `kernel_hessian_zero_germ` takes its zero h
        # before any adjugate
        families = (
            (range(4, 11), lambda m: normal_form(m, 2, 1, (1,) * (m - 1))),
            (range(5, 11), lambda m: normal_form(m, 4, 4, (1,) * (m - 4))),
            (range(4, 11), lambda m: normal_form(m, 3, 3, (1,) * (m - 3))),
            (range(5, 15), kernel_hessian_zero_germ),
        )
        for sizes, germ_of in families:
            base = traced(germ_of(sizes[0]))
            for size in sizes[1:]:
                count = traced(germ_of(size))
                assert count <= base * (size / sizes[0]) ** self.DEGREE, (size, count)


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
            assert [lam.linear_coefficients() for lam in ls.lambdas] == [
                [det_b * e for e in row] for row in eta_hess
            ]
            if cofactor_determinant(kern.to_rows()) != 0:
                assert RationalMatrix.from_rows(eta_hess).rank() == nondegeneracy_rank(ls)
                folds += 1
        assert folds >= 40

    @staticmethod
    def witness_germs():
        """The germs, translated to each candidate, of the seed-1 `lefschetz_witness` points."""
        inputs = perfbench_module("inputs")
        rng = random.Random(1)
        points = [p for _, p in inputs.component_points(rng, 1)]
        points += inputs.off_locus_points(rng, 2) + inputs.degenerate_pairs(rng, 2)
        family = LefschetzFamily.symbolic()
        for params in points:
            germ = family.at(params)
            for _, pt, _ in witness_verify(params).candidates:
                yield germ.translate(pt)

    @staticmethod
    def changed_battery(battery_germs):
        """Each battery germ under a linear and under a unipotent A-change."""
        rng = random.Random(2718)
        for *_, germ in battery_germs:
            yield linear_target_change(rng, linear_source_change(rng, germ))
            yield unipotent_target_change(rng, unipotent_source_change(rng, germ))

    def test_fold_nondegeneracy_rank_is_the_minor_rank(self, battery_germs):
        # a fold records rank s without an elimination: nonsingular
        # K = (E(0)^T H) E(0) forces rank E(0)^T H = s
        folds = {}
        for source, germs in (("battery", self.changed_battery(battery_germs)),
                              ("witness", self.witness_germs())):
            folds[source] = 0
            for germ in germs:
                report = classify(germ, trace=False)
                if not report.label.is_fold():
                    continue
                det_b, eta_hess, _ = kernel_hessian_at_origin(normalize(germ.truncated(germ.n + 1)))
                dlambda = [[det_b * e for e in row] for row in eta_hess]
                nondegeneracy = report.trace["nondegeneracy"]
                assert nondegeneracy["rank"] == nondegeneracy["required"] == minor_rank(dlambda)
                folds[source] += 1
        assert folds == {"battery": 48, "witness": 200}

    def test_integer_m0_is_det_b_times_k(self, battery_germs, monkeypatch):
        # `_taylor_tail` takes adj(M(0)) of M(0) as it comes, for the theta
        # decision: on `classify`'s integer-scaled germs it is a matrix of ints,
        # det B(0) K (dlambda(0) = det B(0) E(0)^T H, so M(0) = det B(0) E(0)^T H E(0))
        from morinclass import criteria

        heads, read = [], []
        kernel_hessian, adjugate = criteria.kernel_hessian_at_origin, criteria.adjugate
        monkeypatch.setattr(criteria, "kernel_hessian_at_origin",
                            lambda ng: heads.append(kernel_hessian(ng)) or heads[-1])
        monkeypatch.setattr(criteria, "adjugate",
                            lambda rows, *units: read.append(rows) or adjugate(rows, *units))
        checked = Counter()
        for source, germs in (("battery", self.changed_battery(battery_germs)),
                              ("witness", self.witness_germs())):
            for germ in germs:
                heads.clear(), read.clear()
                classify(germ, trace=False)
                for m0 in read:
                    [(det_b, _, kern)] = heads
                    assert all(type(e) is int for row in m0 for e in row), source
                    assert m0 == [[det_b * e for e in row] for row in kern], source
                checked[source, germ.n] += bool(read)
        # the germs past non-degeneracy, whose M(0) is read
        assert checked == {("battery", 2): 12, ("battery", 3): 24, ("witness", 2): 52}

    def test_exact_fold_runs_one_elimination(self, battery_germs, monkeypatch):
        # counts, not times: the one `eliminate` is that of [B(0) | W(0)]
        # in `kernel_hessian_at_origin`, and no rank's forward pass runs
        from morinclass import criteria, germ as germ_module, linalg

        eliminations, rank_passes = [], []
        eliminate, forward = linalg.eliminate, linalg._forward

        def counted_eliminate(a, w=None):
            eliminations.append((len(a), w is not None and len(w)))
            return eliminate(a, w)

        def counted_forward(rows, ncols, stop):
            if stop == 0:
                rank_passes.append(ncols)
            return forward(rows, ncols, stop)

        for module in (linalg, criteria, germ_module):
            monkeypatch.setattr(module, "eliminate", counted_eliminate)
        for module in (linalg, criteria):
            monkeypatch.setattr(module, "_forward", counted_forward, raising=False)
        folds = 0
        for germ in self.changed_battery(battery_germs):
            eliminations.clear()
            rank_passes.clear()
            if not classify(germ, trace=False).label.is_fold():
                continue
            # the battery has n >= 2, so B(0) is never empty
            assert eliminations == [(germ.n - 1, germ.n - 1)]
            assert rank_passes == []
            folds += 1
        assert folds == 48

    def test_float_sums_run_in_order(self):
        # 1e16 + 1.0 - 1e16 is 0.0 added in order and 1.0 compensated, as
        # `math.fsum` adds, and CPython's `sum` from 3.12
        terms = [1e16, 1.0, -1e16]
        in_order = functools.reduce(operator.add, terms)
        assert (in_order, math.fsum(terms)) == (0.0, 1.0)
        assert _dot(terms, [1.0] * 3) == in_order
        # f_1 = x - z, f_2 = y - z: eta_z = (1, 1, 1, 0) and eta_w = (0, 0, 0, 1);
        # E(0)^T H at column z sums 1e16 + 1.0 - 1e16, and K sums its row
        ctx = make_context("x", "y", "z", "w")
        x, y, z, w = (Polynomial.variable(ctx, n) for n in ctx.names)
        last = 1e16 * x * z + 1.0 * y * z - 5e15 * z**2 + 1e16 * x**2 + 3.0 * w**2
        germ = MapGerm(ctx, (x - z, y - z, last))
        eye = [[float(r == c) for c in range(3)] for r in range(3)]
        _, eta_hess, kern = kernel_hessian_at_origin(normalized(germ, eye, [0, 1], [0, 1], False))
        etas = [[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        hess = [[2e16, 0.0, 1e16, 0.0], [0.0, 0.0, 1.0, 0.0],
                [1e16, 1.0, -1e16, 0.0], [0.0, 0.0, 0.0, 6.0]]

        def folds(add):
            want_eta_hess = [[add(e * h for e, h in zip(eta, column)) for column in zip(*hess)]
                             for eta in etas]
            want_kern = [[add(v * e for v, e in zip(row, eta)) for eta in etas]
                         for row in want_eta_hess]
            return want_eta_hess, want_kern

        assert (eta_hess, kern) == folds(lambda terms: functools.reduce(operator.add, terms, 0))
        assert (eta_hess, kern) != folds(math.fsum)
        assert eta_hess[0][2] == 0.0

    def test_pivot_block_with_nonunit_determinant(self):
        germ = self.pivot_block_germ()
        det_b, _, kern = kernel_hessian_at_origin(normalize(germ))
        assert det_b == 10
        report = classify(germ, trace=False)
        assert report.label.is_fold()
        assert report.trace["frame"]["pivot_minor_at_0"] == "10"
        assert Fraction(report.trace["h_at_0"]) == det_b**2 * cofactor_determinant(kern)


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


def traced_stage_germs():
    """(germ, label) for a fold, a Not2Nondegenerate germ with M(0) != 0 and a cusp,
    with n = 3 and with n = 4, and for n = 2, where M holds 1-jets and is 4x4, a fold
    and a cusp.

    On x1 ; x2 ; x1 y1 + x2 y2 + y3^2, E(0)^T H has rank 3 but K = diag(0, 0, 2):
    M(0) = det B(0) K is not zero, and its adjugate is; and so with x3 added.
    """
    ctx = make_context("x1", "x2", "y1", "y2", "y3")
    x1, x2, y1, y2, y3 = (Polynomial.variable(ctx, v) for v in ctx.names)
    fold = MapGerm(ctx, (x1, x2, y1**2 + y2**2 - y3**2 + x1 * y3))
    flat = MapGerm(ctx, (x1, x2, x1 * y1 + x2 * y2 + y3**2))
    cusp = MapGerm(ctx, (x1, x2, y1**2 + y2**2 + y3**3 + x1 * y3))
    space = make_context("x1", "x2", "x3", "y1", "y2", "y3")
    x1, x2, x3, y1, y2, y3 = (Polynomial.variable(space, v) for v in space.names)
    in_space = {"fold n=4": (MapGerm(space, (x1, x2, x3, y1**2 + y2**2 - y3**2 + x1 * y3)),
                             "Fold(signature=(2, 1))"),
                "not 2-nondegenerate n=4": (MapGerm(space, (x1, x2, x3, x1 * y1 + x2 * y2 + y3**2)),
                                            "Degenerate(Not2Nondegenerate)"),
                "cusp n=4": (MapGerm(space, (x1, x2, x3, y1**2 + y2**2 + y3**3 + x1 * y3)),
                             "Morin{2}")}
    plane = make_context("x", "y1", "y2", "y3", "y4")
    x, y1, y2, y3, y4 = (Polynomial.variable(plane, v) for v in plane.names)
    return {"fold": (fold, "Fold(signature=(2, 1))"),
            "not 2-nondegenerate": (flat, "Degenerate(Not2Nondegenerate)"),
            "cusp": (cusp, "Morin{2}"),
            **in_space,
            "fold n=2": (MapGerm(plane, (x, y1**2 + y2**2 + y3**2 - y4**2 + x * y4)),
                         "Fold(signature=(3, 1))"),
            "cusp n=2": (MapGerm(plane, (x, y1**2 + y2**2 + y3**2 + y4**3 + x * y4)),
                         "Morin{2}")}


@pytest.mark.parametrize("name, trace, hessians, determinants", [
    # an exact germ takes h from `_taylor_tail`, without M, for every n
    ("fold", True, 0, 0),
    ("fold", False, 0, 0),
    ("not 2-nondegenerate", True, 0, 0),
    ("cusp", True, 0, 0),
    ("fold n=4", True, 0, 0),
    ("fold n=4", False, 0, 0),
    ("not 2-nondegenerate n=4", True, 0, 0),
    ("cusp n=4", True, 0, 0),
    ("fold n=2", True, 0, 0),
    ("cusp n=2", True, 0, 0),
])
def test_traced_stages_run_through_the_wrapped_names(monkeypatch, name, trace, hessians,
                                                      determinants):
    """No exact germ, traced or not, calls `criteria.hessian` or `PolyMatrix.determinant`.

    The benchmark's `criteria.hessian` and `linalg.det` spans wrap those two
    names, which build M and take det M without a column.  An exact germ
    builds no M at any n: `_taylor_tail` takes h from Taylor coefficients,
    and the spans stay at 0 because that work is not done.
    """
    from morinclass import criteria

    tracer = perfbench_module("tracer")
    targets = {(span, owner, attr) for span, owner, attr, _ in tracer.TARGETS}
    assert ("criteria.hessian", criteria, "hessian") in targets
    assert ("linalg.det", PolyMatrix, "determinant") in targets
    calls = {"hessian": 0, "determinant": 0}
    hessian_, determinant = criteria.hessian, PolyMatrix.determinant

    def counted_hessian(ls):
        calls["hessian"] += 1
        return hessian_(ls)

    def counted_determinant(matrix):
        calls["determinant"] += 1
        return determinant(matrix)

    monkeypatch.setattr(criteria, "hessian", counted_hessian)
    monkeypatch.setattr(PolyMatrix, "determinant", counted_determinant)
    germ, label = traced_stage_germs()[name]
    report = classify(germ, trace=trace)
    assert str(report.label) == label
    assert ("h" in report.trace) == trace
    assert calls == {"hessian": hessians, "determinant": determinants}


# one germ per non-Morin label, as in the `degenerate` family of `tools/output_digest.py`
DEGENERATE_TEXTS = (
    "vars: x y z\nmap: x ; y^2 + z^3",  # NotNondegenerate
    "vars: x1 x2 y1 y2\nmap: x1 ; x2 ; x1*y1 + x2*y2",  # Not2Nondegenerate
    "vars: x y z\nmap: x ; x*z + y^2 + z^4",  # AllDerivativesVanish
    "vars: x y z w\nmap: x ; y ; z^2 + w^4 + x*w",  # RankConditionFailed
    "vars: x y z\nmap: x^2 ; y^2 + z^2",  # CorankHigh
)


def test_tracing_only_adds(battery_germs):
    """A traced record is the untraced one plus "lambdas" and "h", key for key and in order.

    `classify` decides first and builds the trace's polynomials after, so
    tracing changes neither the label nor any other key of the record.
    """
    rng = random.Random(39)
    germs = [change(rng, germ) for *_, germ in battery_germs
             for change in (TestThetaRule.linear_change, TestThetaRule.unipotent_change)]
    degenerate = [parse_germ_document(text).to_germ() for text in DEGENERATE_TEXTS]
    # the kernel-Hessian-zero germs, with the digest family's seeds
    degenerate += [kernel_hessian_zero_germ(m, seed=m) for m in (5, 6)]
    for germ in degenerate:
        germs += [germ, TestThetaRule.linear_change(rng, germ)]
    labels = set()
    for germ in germs:
        traced, untraced = classify(germ, trace=True), classify(germ, trace=False)
        assert traced.label == untraced.label
        labels.add(traced.label.kind if traced.label.is_fold() else str(traced.label))
        assert set(traced.trace) - set(untraced.trace) <= {"lambdas", "h"}
        kept = [(key, value) for key, value in traced.trace.items() if key not in ("lambdas", "h")]
        assert kept == list(untraced.trace.items()), traced.label
    assert labels == {"Fold", "Morin{2}", "Morin{3}", "CorankHigh"} | {
        f"Degenerate({reason})" for reason in (NOT_NONDEGENERATE, NOT_2_NONDEGENERATE,
                                               ALL_DERIVATIVES_VANISH, RANK_CONDITION_FAILED)}
