"""The Lefschetz family study: lambdas, locus data, witnesses, slices, chain."""

import hashlib
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from morinclass import Polynomial, classify, validate
from morinclass.lefschetz import (
    LefschetzFamily,
    PARAM_VARS,
    SOURCE_VARS,
    STANDARD_SLICE_VALUES,
    SliceGrid,
    _percent_17g,
    chart_hessian,
    circle_point,
    cusp_tau_polynomial,
    distinguished_points,
    emit_slice,
    lefschetz_germ,
    lefschetz_lambdas,
    noncusp_polynomials,
    rederive_noncusp_chain,
    slice_filename,
    witness_verify,
    wrinkling_germ,
    write_slice_csv,
)

from conftest import (
    cofactor_determinant,
    is_singular,
    lambda_matrix,
    random_rational,
    reference_write_slice_csv,
    rows_times_rows,
    to_sympy,
)

GOLDEN = Path(__file__).parent / "data" / "lefschetz_lambdas.txt"


class TestFamily:
    def test_zero_parameters_is_plain_lefschetz(self):
        germ = LefschetzFamily.symbolic().at((0, 0, 0, 0))
        assert germ.components == lefschetz_germ().components

    def test_plain_lefschetz_corank_two(self):
        assert validate(lefschetz_germ()) == "CorankHigh"

    def test_wrinkling_has_cusps_but_no_degenerate_points(self):
        germ = wrinkling_germ(1)
        labels = set()
        params = (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
        for name, pt in distinguished_points(params):
            if is_singular(germ, pt):
                labels.add(classify(germ.translate(pt)).label.kind)
        # the origin of the wrinkling carries one of its cusps
        origin_label = classify(germ).label
        assert origin_label.is_morin(2)
        assert "Degenerate" not in labels and "CorankHigh" not in labels


class TestLambdas:
    def test_golden_normalized_lambdas(self):
        data = lefschetz_lambdas()
        rendered = [lam.render() for lam in data["normalized"]]
        assert rendered == GOLDEN.read_text().splitlines()

    def test_units_are_the_pivot_minor(self):
        data = lefschetz_lambdas()
        for unit in data["units"]:
            assert unit == data["frame"].pivot_minor

    def test_adjugate_identity_for_chart_hessian(self):
        from morinclass.lefschetz import chart_hessian

        data = chart_hessian()
        mat = data["h_matrix"]
        prod = rows_times_rows(mat.adjugate().to_rows(), mat.to_rows())
        zero = Polynomial.zero(mat.context)
        assert all(
            prod[r][c] == (data["h"] if r == c else zero)
            for r in range(mat.rows) for c in range(mat.rows)
        )

    def test_division_leaves_no_remainder(self):
        data = lefschetz_lambdas()
        germ, frame = data["germ"], data["frame"]
        for raw, norm, unit, eta in zip(
            data["cramer"], data["normalized"], data["units"], frame.eta
        ):
            assert norm * unit == raw
            # the 2x2 Cramer determinant (xi f, eta f) the lambdas are defined by
            assert raw == cofactor_determinant(lambda_matrix(germ, frame, eta))

    def test_bound_parameters(self):
        data = lefschetz_lambdas()
        bound = {"a1": 1, "a2": 0, "b1": 0, "b2": 7}
        assert all(not lam.substitute(bound).is_zero() for lam in data["normalized"])


class TestNoncuspPolynomials:
    def test_membership_example(self):
        locus = noncusp_polynomials()
        values = locus.evaluate((1, 0, 0, 7))
        assert values[2] == 0  # a1a2 + b1b2

    def test_generic_point_value(self):
        locus = noncusp_polynomials()
        values = locus.evaluate((1, 1, 1, 1))
        assert values[0] == -2  # 1*(1-1) - 2*1*1*1

    def test_origin_on_every_component(self):
        locus = noncusp_polynomials()
        assert all(v == 0 for v in locus.evaluate((0, 0, 0, 0)))

    def test_canonical_renderings(self):
        locus = noncusp_polynomials()
        rendered = [c.render() for c in locus.components]
        assert rendered == [
            "a1*a2^2 - a1*b2^2 - 2*a2*b1*b2",
            "a1^2*a2 + a2*b1^2 - 2*a1*b2 - 2*b1*b2",
            "a1*a2 + b1*b2",
            "a1^2*a2 - 2*a1*b1*b2 - a2*b1^2",
            "a1*a2^2 + a1*b2^2 - 2*a2*b1 - 2*b1*b2",
        ]


class TestCuspStructure:
    def test_tau_quartic_matches_direct_evaluation(self):
        # the h-polynomial of the chart, restricted to the circle, carries the
        # quartic as a factor: its coefficients, then h at rational circle points
        params = (Fraction(1), Fraction(2), Fraction(1), Fraction(1))
        coeffs = cusp_tau_polynomial(params)
        # p and q assemble from the complex product (a1+ib1)(a2+ib2)
        p = Fraction(1) * 2 - 1 * 1
        q = Fraction(1) * 1 + 2 * 1
        assert coeffs == [0, p, 3 * q, -3 * p, -q]
        # on the circle the chart's h is -2 tau^2 (a1 tau - b1)^4 (1 + tau^2)^-5 Q(tau)
        h = chart_hessian()["h"]
        cases = [(params, Fraction(t)) for t in ("0", "1", "-1", "1/3", "-2", "2", "5/7")]
        cases += [((Fraction(3, 2), Fraction(1), Fraction(-2), Fraction(-1, 2)), Fraction(1, 3)),
                  ((Fraction(-1, 2), Fraction(3), Fraction(2), Fraction(-5, 4)), Fraction(-3, 2))]
        checked = set()
        for point_params, tau in cases:
            try:
                point = circle_point(point_params, tau)
            except ZeroDivisionError:
                continue  # the slope through the circle's origin has no branch point
            a1, _, b1, _ = point_params
            quartic = sum(c * tau**i for i, c in enumerate(cusp_tau_polynomial(point_params)))
            value = h.evaluate(dict(zip(SOURCE_VARS + PARAM_VARS, point + point_params)))
            assert value == -2 * tau**2 * (a1 * tau - b1) ** 4 / (1 + tau**2) ** 5 * quartic
            checked.add(point_params)
        assert len(checked) == 3

    def test_circle_points_are_singular(self):
        params = (Fraction(1), Fraction(2), Fraction(1), Fraction(1))
        germ = LefschetzFamily.symbolic().at(params)
        for tau in (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3)):
            assert is_singular(germ, circle_point(params, tau))
        # the slope pointing at the circle's origin has no branch point
        with pytest.raises(ZeroDivisionError):
            circle_point(params, Fraction(-2))

    def test_circle_point_matches_branch_formula(self, rng):
        # the branch closed form over (x1, y1) = (x1, tau x1) on the circle
        # x1 = -(a2 + b2 tau)/(1 + tau^2): (x2, y2) = -(x1, y1) s / d, with
        # s = a1 x1 + b1 y1 and d = x1^2 + y1^2, raising where d = 0
        def branch_point(params, tau):
            a1, a2, b1, b2 = params
            x1 = -(a2 + b2 * tau) / (1 + tau * tau)
            y1 = tau * x1
            d = x1 * x1 + y1 * y1
            if d == 0:
                raise ZeroDivisionError
            s = a1 * x1 + b1 * y1
            return (x1, -x1 * s / d, y1, -y1 * s / d)

        # the slope grid of `witness_verify`: 39 listings, 25 distinct slopes
        taus = dict.fromkeys(Fraction(n, d) for d in (1, 2, 3) for n in range(-3 * d, 3 * d + 1))
        assert len(taus) == 25
        raised = 0
        for _ in range(40):
            params = tuple(random_rational(rng) for _ in range(4))
            for tau in taus:
                try:
                    expected = branch_point(params, tau)
                except ZeroDivisionError:
                    raised += 1
                    with pytest.raises(ZeroDivisionError):
                        circle_point(params, tau)
                    continue
                got = circle_point(params, tau)
                assert got == expected and all(type(v) is Fraction for v in got)
        assert raised

    def test_distinguished_points_are_singular(self):
        params = (Fraction(2), Fraction(3), Fraction(5), Fraction(7))
        germ = LefschetzFamily.symbolic().at(params)
        for name, pt in distinguished_points(params):
            if name in ("closed-form", "closed-form-swap", "edge", "sheet", "sheet-swap", "x-axis"):
                assert is_singular(germ, pt), name


class TestWitnessVerify:
    def test_off_locus(self):
        report = witness_verify((2, 3, 5, 7))
        assert not report.on_locus
        assert not report.counterexample_candidate
        labels = {str(lab) for _, _, lab in report.candidates}
        assert labels <= {"Fold(signature=(2, 1))", "Fold(signature=(1, 2))", "Morin{2}"}

    def test_degenerate_pair_has_witness(self):
        # a1 = b1 = 0 lies on every component and carries genuine witnesses
        report = witness_verify((0, 2, 0, 3))
        assert report.on_locus
        assert report.witness is not None
        assert report.witness_label.kind in ("Degenerate", "CorankHigh")

    def test_second_degenerate_pair_uses_swap_chart(self):
        # a2 = b2 = 0: the witnesses live on the swap-chart circle
        report = witness_verify((1, 0, 0, 0))
        assert report.on_locus
        assert report.witness is not None
        assert report.witness_label.kind in ("Degenerate", "CorankHigh")

    def test_generic_component_point_reports_counterexample(self):
        # a generic point of the third component: the search must report the
        # witness failure rather than invent one
        report = witness_verify((6, 1, -2, 3))
        assert report.on_locus
        assert report.component_values[2] == 0
        assert report.counterexample_candidate
        labels = {lab.kind for _, _, lab in report.candidates}
        assert labels <= {"Fold", "Morin"}

    def test_untraced_classification_keeps_candidates(self, monkeypatch):
        # the search classifies without the trace polynomials; forcing them
        # back on must not change a candidate's label or the witness
        import morinclass.lefschetz as lefschetz_module

        points = [(2, 3, 5, 7), (0, 2, 0, 3), (1, 0, 0, 0), (6, 1, -2, 3)]
        bare = [witness_verify(p) for p in points]
        classify_full = lefschetz_module.classify
        asked = []

        def traced(germ, **kwargs):
            asked.append(kwargs.get("trace"))
            return classify_full(germ, **{**kwargs, "trace": True})

        monkeypatch.setattr(lefschetz_module, "classify", traced)
        for params, report in zip(points, bare):
            full = witness_verify(params)
            assert full.candidates == report.candidates
            assert full.witness_label == report.witness_label
        assert asked and set(asked) == {False}

    def test_component_membership_samples(self):
        # solving each component for one parameter lands on the locus
        from conftest import component_samples

        samples = component_samples(per_component=3, seed=97)
        for idx, points in samples.items():
            for pars in points:
                report = witness_verify(pars)
                assert report.on_locus
                assert report.component_values[idx] == 0


@pytest.fixture(scope="module")
def chain():
    return rederive_noncusp_chain()


class TestRederivationChain:

    def test_h_substitution_factors(self, chain):
        # the substituted determinant is divisible by (b1x1 - a1y1), and the
        # cofactor matches the published second factor verbatim
        assert chain["h_branch_factors"].get("b1x1-a1y1", 0) >= 1
        assert chain["g_matches"]

    def test_theta_h_reduction(self, chain):
        # on the branch, theta(h) factors into never-vanishing terms times
        # exactly (a2+x1)(a2+2x1)-powers
        assert chain["theta_h_reduction"]
        assert chain["theta_h_factors"].get("(a2+x1)", 0) == 1
        assert chain["theta_h_factors"].get("(a2+2x1)", 0) == 7

    def test_subbranch_display(self, chain):
        assert chain["subbranch_display_ok"]
        assert chain["subbranch_ok"]

    def test_branch_elimination_against_hardcoded_components(self, chain):
        # the honest eliminant of the a2+x1 branch: sign-twisted relative to
        # every hard-coded component, so no divisibility holds
        branch = next(e for e in chain["eliminations"] if e["branch"] == "a2+x1")
        assert branch["eliminant"].render() == "a1*a2^2 - a1*b2^2 + 2*a2*b1*b2"
        assert not any(c["divides"] for c in branch["per_component"])
        boundary = next(e for e in chain["eliminations"] if e["branch"] == "a2+2x1")
        assert boundary["boundary_collapse"]


def _sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestRenderPins:
    """sha256 of the rendered chart Hessian data and chain results, byte for byte."""

    def test_chart_hessian_renders(self):
        from morinclass.lefschetz import chart_hessian

        data = chart_hessian()
        lines = [data["h"].render()]
        lines += [c.render() for c in data["theta"].coefficients]
        lines.append(data["theta_h"].render())
        lines += [data["adjugate"][i, 2].render() for i in range(3)]
        assert _sha256_lines(lines) == (
            "07eeb6082e298b3626e773746ad352d03535928a976f3b23acc55e04c1989882"
        )

    def test_chain_renders(self, chain):
        lines = [chain["g_branch"].render(), chain["theta_h_residual"].render()]
        lines += [
            f"{key} {sorted(chain[key].items())}"
            for key in ("h_branch_factors", "theta_h_factors", "subbranch_factors")
        ]
        lines += [e["eliminant"].render() for e in chain["eliminations"]]
        assert _sha256_lines(lines) == (
            "e35ae7ff2becd404ff0ebd5104f45af8e97682384b2604791e9e0911f8cef9b4"
        )


def test_oracle_affine_reduction_and_eliminant():
    """sympy evidence for the actual non-cusp locus {a1=b1=0} u {a2=b2=0}.

    With z = x1 + i y1, w = x2 + i y2, alpha = a1 + i b1, beta = a2 + i b2 the
    family is F = zw + alpha Re z + beta Re w.  The translation
    z = u - beta/2, w = v - alpha/2 turns it into
    uv + (alpha/2) conj(u) + (beta/2) conj(v) + const, and when alpha beta != 0
    a real-linear change u = rU, v = sV (|s| = |alpha|/2, |r| = |beta|/2,
    arguments solving 2 arg r + arg s = arg alpha, arg r + 2 arg s = arg beta)
    and the target factor rs reduce that to UV + conj(U) + conj(V).  So every
    member with alpha beta != 0 has the same singularities, folds and cusps.
    """
    import sympy
    x1, x2, y1, y2, a1, a2, b1, b2 = sympy.symbols("x1 x2 y1 y2 a1 a2 b1 b2", real=True)
    u1, u2, v1, v2, r1, r2, s1, s2, t = sympy.symbols("u1 u2 v1 v2 r1 r2 s1 s2 t", real=True)
    i, conj = sympy.I, sympy.conjugate
    alpha, beta = a1 + i * b1, a2 + i * b2
    z, w = x1 + i * y1, x2 + i * y2
    f = z * w + alpha * x1 + beta * x2

    # the package's two components are Re F and Im F
    germ = LefschetzFamily.symbolic().germ
    p, q = (to_sympy(c, (x1, x2, y1, y2, a1, a2, b1, b2)) for c in germ.components)
    assert sympy.expand(f - (p + i * q)) == 0

    # the translation to uv + (alpha/2) conj(u) + (beta/2) conj(v) + const
    u, v = u1 + i * v1, u2 + i * v2
    shift = {x1: u1 - a2 / 2, y1: v1 - b2 / 2, x2: u2 - a1 / 2, y2: v2 - b1 / 2}
    const = -alpha * beta / 4 - (alpha * conj(beta) + conj(alpha) * beta) / 4
    reduced = u * v + alpha / 2 * conj(u) + beta / 2 * conj(v) + const
    assert sympy.expand(f.subs(shift, simultaneous=True) - reduced) == 0

    # the normalisation to UV + conj(U) + conj(V), written with alpha, beta
    # expressed through the rotation-and-scale factors r, s
    r, s = r1 + i * r2, s1 + i * s2
    al_rs, be_rs = 2 * r * s / conj(r), 2 * r * s / conj(s)
    lhs = (r * u) * (s * v) + al_rs / 2 * conj(r * u) + be_rs / 2 * conj(s * v)
    rhs = r * s * (u * v + conj(u) + conj(v))
    assert sympy.simplify(lhs - rhs) == 0

    # F_{alpha,beta}(tz, tw) = t^2 F_{alpha/t,beta/t}(z, w): the locus is a cone
    scaled = f.subs({x1: t * x1, x2: t * x2, y1: t * y1, y2: t * y2}, simultaneous=True)
    shrunk = f.subs({a1: a1 / t, a2: a2 / t, b1: b1 / t, b2: b2 / t}, simultaneous=True)
    assert sympy.expand(scaled - t**2 * shrunk) == 0
    params = (a1, a2, b1, b2)
    comps = [to_sympy(c, params) for c in noncusp_polynomials().components]
    homogeneous = [sympy.Poly(c, *params).is_homogeneous for c in comps]
    assert homogeneous == [True, False, True, True, False]
    for c in comps:
        assert c.subs({a1: 0, b1: 0}) == 0 and c.subs({a2: 0, b2: 0}) == 0

    # the published g at the a2 + x1 branch point (x1, y1) = (-a2, -b2)
    big_a = -3 * x1**2 + y1**2 - 2 * a2 * x1
    big_b = x1**3 - 3 * x1 * y1**2 + a2 * x1**2 - a2 * y1**2
    g = a1 * y1 * big_a + b1 * big_b
    g_branch = g.subs({x1: -a2, y1: -b2}, simultaneous=True)
    eliminant = a1 * a2**2 - a1 * b2**2 + 2 * a2 * b1 * b2
    assert sympy.expand(g_branch - b2 * eliminant) == 0
    assert sympy.expand(comps[0] - eliminant.subs(b1, -b1)) == 0
    assert sympy.expand(comps[0] - eliminant) != 0


CSV_CASES = [
    *[(b2, res, (-1, 1)) for b2 in STANDARD_SLICE_VALUES for res in (2, 3, 4, 21, 22)],
    (Fraction(1, 4), 47, (-1, 1)),
    (Fraction(0), 47, (-1, 1)),
    # the mirror blocks of an asymmetric range share almost no magnitude
    *[(Fraction(-1, 4), res, rng) for res in (21, 22)
      for rng in ((0, 1), (Fraction(-2, 3), Fraction(5, 4)))],
    # den^3 > 2^53: the one evaluation loop runs on Python ints, not int64
    *[(Fraction(1, 300007), res, (-1, 1)) for res in (3, 4, 21)],
]


class TestSliceExport:
    def test_small_grid_values(self):
        grid = emit_slice(0, 2, (-1, 1))
        assert grid.values.shape == (5, 8)
        # with b2 = 0 the third component reduces to a1*a2
        locus = noncusp_polynomials()
        idx = 0
        for a1 in grid.nodes:
            for a2 in grid.nodes:
                for b1 in grid.nodes:
                    expected = locus.components[2].evaluate(
                        {"a1": a1, "a2": a2, "b1": b1, "b2": 0}
                    )
                    assert grid.values[2, idx] == float(expected)
                    assert grid.values[2, idx] == float(a1 * a2)
                    idx += 1

    def test_grid_matches_exact_evaluate_bitwise(self):
        grid = emit_slice(Fraction(1, 4), 3, (-1, 1))
        locus = noncusp_polynomials()
        idx = 0
        for a1 in grid.nodes:
            for a2 in grid.nodes:
                for b1 in grid.nodes:
                    for c in range(5):
                        exact = locus.components[c].evaluate(
                            {"a1": a1, "a2": a2, "b1": b1, "b2": Fraction(1, 4)}
                        )
                        assert grid.values[c, idx] == float(exact)
                    idx += 1

    def test_wide_denominator_matches_exact_evaluate_bitwise(self):
        # den^3 = 300007^3 > 2^53, so the planes and blocks are Python ints
        b2 = Fraction(1, 300007)
        grid = emit_slice(b2, 3)
        locus = noncusp_polynomials()
        expected = [
            float(v).hex()
            for a1 in grid.nodes
            for a2 in grid.nodes
            for b1 in grid.nodes
            for v in locus.evaluate((a1, a2, b1, b2))
        ]
        assert len(expected) == 135
        assert [v.hex() for v in grid.values.T.reshape(-1).tolist()] == expected

    @pytest.mark.parametrize("b2", [Fraction(1, 300007), Fraction(1, 4)])
    def test_seeded_points_match_exact_evaluate_bitwise(self, b2):
        # the same loop on Python ints at 1/300007 and on int64 at 1/4
        res = 31
        grid = emit_slice(b2, res)
        locus = noncusp_polynomials()
        rng = random.Random(4141)
        for _ in range(200):
            i, j, k = (rng.randrange(res) for _ in range(3))
            exact = locus.evaluate((grid.nodes[i], grid.nodes[j], grid.nodes[k], b2))
            idx = (i * res + j) * res + k
            assert [float(v).hex() for v in exact] == [v.hex() for v in grid.values[:, idx].tolist()]

    def test_values_beyond_the_float_range_raise(self):
        # n1 reaches b2^2 at a1 = 1: 10^400, and 10^600 at the range's corners
        with pytest.raises(ValueError, match=r"^n1 at b2 = 10{200} on the range -1:1 has values beyond"):
            emit_slice(10**200, 3)
        with pytest.raises(ValueError, match=r"^n1 at b2 = 0 on the range -10{200}:10{200} "):
            emit_slice(0, 2, (-(10**200), 10**200))
        # past the digits `str` writes, the message gives the size only
        with pytest.raises(ValueError, match=r"^n1 at b2 = a rational of about 5000 digits on "):
            emit_slice(10**5000, 2)
        # n2 = a2 (a1^2 + b1^2) at b2 = 0 reaches 2^1021, which is a float
        big = 2**340
        grid = emit_slice(0, 2, (-big, big))
        assert grid.values.max() == 2.0**1021 and np.isfinite(grid.values).all()

    def test_underflow_is_correctly_rounded(self):
        # cubes of 10^-105 are about 10^-315: subnormal floats, and 0.0 below them
        tiny = Fraction(1, 10**105)
        grid = emit_slice(tiny, 3, (-tiny, tiny))
        locus = noncusp_polynomials()
        expected = [
            float(v).hex()
            for a1 in grid.nodes
            for a2 in grid.nodes
            for b1 in grid.nodes
            for v in locus.evaluate((a1, a2, b1, tiny))
        ]
        assert [v.hex() for v in grid.values.T.reshape(-1).tolist()] == expected
        assert any(0 < abs(v) < sys.float_info.min for v in grid.values.reshape(-1).tolist())

    def test_csv_deterministic(self, tmp_path):
        grid = emit_slice(Fraction(1, 4), 4, (-1, 1))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_slice_csv(grid, p1)
        write_slice_csv(emit_slice(Fraction(1, 4), 4, (-1, 1)), p2)
        assert p1.read_bytes() == p2.read_bytes()
        rows = p1.read_text().splitlines()
        assert rows[0] == "a1,a2,b1,n1,n2,n3,n4,n5"
        assert len(rows) == 1 + 4**3

    def test_csv_golden_digest(self, tmp_path):
        # sha256 of the bytes the row-at-a-time writer produced
        path = tmp_path / "slice.csv"
        write_slice_csv(emit_slice(Fraction(1, 4), 9), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4ae9fe728ef3d19ec1ca8559ba7824f72b4cb7bbdccd6937f0efbabffa18b3b8"
        )

    @pytest.mark.parametrize("b2, resolution, value_range", CSV_CASES, ids=[
        f"{b2}-{res}-{lo}:{hi}" for b2, res, (lo, hi) in CSV_CASES])
    def test_csv_matches_reference_writer(self, tmp_path, b2, resolution, value_range):
        grid = emit_slice(b2, resolution, value_range)
        path, expected = tmp_path / "slice.csv", tmp_path / "reference.csv"
        write_slice_csv(grid, path)
        reference_write_slice_csv(grid, expected)
        assert path.read_bytes() == expected.read_bytes()

    def test_csv_special_values_as_percent_g(self, tmp_path):
        nan = float("nan")
        neg_nan = -np.float64(nan)
        payload_nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(float)[0]
        assert np.signbit(neg_nan) and not np.signbit(nan)
        specials = [0.0, -0.0, np.inf, -np.inf, nan, neg_nan, payload_nan, -payload_nan,
                    5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.25]
        res = 3
        values = np.array([specials[k % len(specials)] for k in range(5 * res**3)])
        values = values[np.random.default_rng(7).permutation(values.size)].reshape(5, res**3)
        nodes = [Fraction(-1), Fraction(0), Fraction(1)]
        grid = SliceGrid(b2=Fraction(0), lo=nodes[0], hi=nodes[-1], resolution=res,
                         nodes=nodes, values=values)
        path = tmp_path / "special.csv"
        write_slice_csv(grid, path)
        rows = path.read_text().splitlines()[1:]
        cells = [row.split(",")[3:] for row in rows]
        assert cells == [["%.17g" % v for v in values[:, r].tolist()] for r in range(res**3)]
        written = {c for row in cells for c in row}
        assert {"-0", "-inf", "nan", "4.9406564584124654e-324"} <= written
        assert "-nan" not in written

    def test_csv_integer_values_as_percent_g(self, tmp_path):
        # a hand-built grid may hold ints: they are written as floats, not
        # read as float bit patterns
        nodes = [Fraction(-1), Fraction(1)]
        grid = SliceGrid(b2=Fraction(0), lo=nodes[0], hi=nodes[-1], resolution=2,
                         nodes=nodes, values=np.arange(-20, 20).reshape(5, 8))
        path, expected = tmp_path / "slice.csv", tmp_path / "reference.csv"
        write_slice_csv(grid, path)
        reference_write_slice_csv(grid, expected)
        assert path.read_bytes() == expected.read_bytes()

    def test_csv_memory_stays_below_a_third_of_its_size(self, tmp_path):
        # the writer holds one pair of a1 blocks at a time, so a faster writer
        # that holds the text of the whole grid fails here
        grid = emit_slice(Fraction(1, 4), 47)
        path = tmp_path / "slice.csv"
        tracemalloc.start()
        try:
            write_slice_csv(grid, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 3

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            emit_slice(0, 1, (-1, 1))

    def assert_percent_17g(self, values):
        values = np.asarray(values, dtype=np.float64)
        table = _percent_17g(values)
        expected = [b"%.17g" % v for v in values.tolist()]
        # equal row lengths and equal text, NULs dropped: every row is equal
        assert np.count_nonzero(table, axis=1).tolist() == [len(t) for t in expected]
        assert table[table != 0].tobytes() == b"".join(expected)

    def test_percent_17g_on_slice_magnitudes(self):
        for b2 in (*STANDARD_SLICE_VALUES, Fraction(3, 8), Fraction(-3, 8)):
            self.assert_percent_17g(np.unique(np.abs(emit_slice(b2, 47).values)))

    def test_percent_17g_on_seeded_doubles(self):
        rng = np.random.default_rng(1717)
        self.assert_percent_17g(10.0 ** rng.uniform(-6, 17, 10**6))

    def test_percent_17g_rounds_ties_to_even(self):
        # odd N / 2^(17-e) in the decade of 10^e is N 5^(16-e) / 2 times
        # 10^(e-16): an 18th significant digit of exactly 5
        rng = np.random.default_rng(1718)
        for e in range(-4, 15):
            lo, hi = (int(Fraction(10) ** d * 2 ** (17 - e)) for d in (e, e + 1))
            ties = 2 * rng.integers(lo // 2 + 1, hi // 2, 500) + 1
            values = ties / 2.0 ** (17 - e)
            assert all(Fraction(v) * 10 ** (16 - e) % 1 == Fraction(1, 2) for v in values[:5].tolist())
            self.assert_percent_17g(values)

    def test_percent_17g_at_powers_of_ten_and_decade_ends(self):
        powers = [float(f"1e{e}") for e in range(-5, 17)]
        self.assert_percent_17g([np.nextafter(p, d) for p in powers for d in (0, p, np.inf)])
        # the 100 largest doubles below each decade of the window: none rounds
        # up to the next power of ten, so the kernel needs no carry out of its
        # 17 digits; 10^-14, below the window, has one that does
        below = np.array(powers[2:21]).view(np.uint64)[:, None] - np.arange(1, 101, dtype=np.uint64)
        below = below.view(np.float64).ravel()
        assert [v for v in below.tolist() if (b"%.17g" % v).lstrip(b"0.").startswith(b"1")] == []
        carry = float.fromhex("0x1.6849b86a12b9bp-47")
        assert Fraction(carry) < Fraction(1, 10**14) and b"%.17g" % carry == b"1e-14"
        self.assert_percent_17g([*below, carry])

    def test_percent_17g_outside_the_window(self):
        subnormals = np.array([1, 2, 3, 2**51 + 7, 2**52 - 1], dtype=np.uint64).view(np.float64)
        self.assert_percent_17g([0.0, -0.0, *subnormals, 2.2250738585072014e-308, np.inf, -np.inf,
                                 np.nan, 1.7976931348623157e308, -0.25, -1234.5, 1e15, 3e16, 1e17])
        self.assert_percent_17g([])

    @pytest.mark.parametrize("value_range", [(0, 0), (1, -1)])
    def test_range_guard(self, value_range):
        with pytest.raises(ValueError, match="lo < hi"):
            emit_slice(Fraction(1, 4), 3, value_range)

    def test_filenames(self):
        assert slice_filename(Fraction(1, 4)) == "slice_b2_1_4.csv"
        assert slice_filename(Fraction(-1, 2)) == "slice_b2_-1_2.csv"
        assert slice_filename(0) == "slice_b2_0.csv"
        assert [slice_filename(v) for v in STANDARD_SLICE_VALUES] == [
            "slice_b2_-1_2.csv",
            "slice_b2_-1_4.csv",
            "slice_b2_0.csv",
            "slice_b2_1_4.csv",
            "slice_b2_1_2.csv",
        ]
