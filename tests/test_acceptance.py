"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Criteria 6 and 7 test the Lefschetz study against the actual non-cusp locus,
the two coefficient planes a1 = b1 = 0 and a2 = b2 = 0, which lie on all
five published displays but are none of them.  Criterion 6 checks the final
elimination against a sympy evaluation of the published g; criterion 7
requires witnesses on both planes and reports the published hypersurfaces'
generic points as counterexample candidates.  The sympy identities behind
both are in `tests/test_lefschetz.py::test_oracle_affine_reduction_and_eliminant`.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from morinclass import MapGerm, Polynomial, classify
from morinclass.lefschetz import (
    LefschetzFamily,
    circle_point,
    lefschetz_lambdas,
    noncusp_polynomials,
    rederive_noncusp_chain,
    witness_verify,
)
from morinclass.numeric import Tolerances, numeric_classify, scan_region
from morinclass.criteria import build_theta, hessian, iterate_h, lambdas_for_frame
from morinclass.germ import build_frame, normalize

from conftest import (
    battery,
    component_samples,
    evaluate_rows,
    labels_equivalent,
    linear_source_change,
    linear_target_change,
    make_context,
    normal_form,
    plane_samples,
    to_sympy,
    unipotent_source_change,
    unipotent_target_change,
)


def _report(criterion, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} ({name}): {status}{' - ' + extra if extra else ''}")
    return ok


def _battery_with_labels():
    out = []
    for m, n, k, signs, in battery():
        germ = normal_form(m, n, k, signs)
        out.append((m, n, k, signs, germ, classify(germ).label))
    return out


def test_criterion_1_normal_form_battery():
    start = time.monotonic()
    failures = []
    for m, n, k, signs in battery():
        germ = normal_form(m, n, k, signs)
        label = classify(germ).label
        if k == 1:
            ok = label.kind == "Fold" and label.signature == (
                signs.count(1), signs.count(-1)
            )
        else:
            ok = label.is_morin(k)
        if not ok:
            failures.append((m, n, k, signs, str(label)))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    assert _report(1, "normal-form battery", ok, f"{elapsed:.2f}s, {len(failures)} mismatches")
    assert elapsed < 10.0


def test_criterion_2_degeneracy_discrimination():
    ctx = make_context("x", "y", "z")
    x, y, z = (Polynomial.variable(ctx, n) for n in ("x", "y", "z"))
    rep_cubic = classify(MapGerm(ctx, (x, y**2 + z**3)))
    rep_quartic = classify(MapGerm(ctx, (x, y**2 + z**4)))
    ok = (
        rep_cubic.label.kind == "Degenerate"
        and rep_cubic.label.reason == "NotNondegenerate"
        and rep_quartic.label.kind != "Morin"
    )
    assert _report(2, "degeneracy discrimination", ok,
                   f"{rep_cubic.label}, {rep_quartic.label}")


def test_criterion_3_a_invariance():
    rng = random.Random(31415)
    start = time.monotonic()
    mismatches = []
    for m, n, k, signs in battery():
        germ = normal_form(m, n, k, signs)
        base = classify(germ).label
        for _ in range(20):
            changed = linear_target_change(rng, linear_source_change(rng, germ))
            label = classify(changed).label
            if not labels_equivalent(label, base):
                mismatches.append((m, n, k, signs, "linear", str(base), str(label)))
        for _ in range(20):
            changed = unipotent_target_change(rng, unipotent_source_change(rng, germ))
            label = classify(changed).label
            if not labels_equivalent(label, base):
                mismatches.append((m, n, k, signs, "unipotent", str(base), str(label)))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60.0
    assert _report(3, "A-invariance", ok, f"{elapsed:.2f}s, {len(mismatches)} mismatches")
    assert elapsed < 60.0


def _battery_singular_points(m, n, k, signs, count=4):
    """Exact rational points of the singular locus of a normal form."""
    points = []
    source = normal_form(m, n, k, signs).context.source_names
    for t in (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2))[:count]:
        pt = {v: Fraction(0) for v in source}
        if k >= 2:
            pt["z"] = t
            # last component derivative in z: (k+1) z^k + sum i x_i z^(i-1)
            if k == 2:
                pt["x1"] = -3 * t * t
            elif k == 3:
                pt["x2"] = Fraction(1)
                pt["x1"] = -4 * t**3 - 2 * t
        else:
            pt[source[0]] = t if n >= 2 else Fraction(0)
        points.append(tuple(pt[v] for v in source))
    return points


def test_criterion_4_hessian_symmetry_on_singular_locus():
    rng = random.Random(27182)
    checked = 0
    bad = 0
    for m, n, k, signs in battery():
        if k == 1:
            continue
        germ = normal_form(m, n, k, signs)
        variants = [germ, linear_target_change(rng, germ), unipotent_target_change(rng, germ)]
        for g in variants:
            ng = normalize(g)
            frame = build_frame(ng)
            ls = lambdas_for_frame(ng.germ, frame)
            hd = hessian(ls)
            for pt in _battery_singular_points(m, n, k, signs):
                assignment = dict(zip(g.context.source_names, pt))
                if any(lam.evaluate(assignment) != 0 for lam in ls.lambdas):
                    continue
                if frame.pivot_minor.evaluate(assignment) == 0:
                    continue
                mat = evaluate_rows(hd.h_matrix.to_rows(), assignment)
                checked += 1
                if not mat.is_symmetric():
                    bad += 1
    ok = checked >= 50 and bad == 0
    assert _report(4, "kernel Hessian symmetry", ok, f"{checked} points, {bad} asymmetric")


def test_criterion_5_lambda_reproduction():
    from pathlib import Path

    golden = (Path(__file__).parent / "data" / "lefschetz_lambdas.txt").read_text().splitlines()
    data = lefschetz_lambdas()
    rendered = [lam.render() for lam in data["normalized"]]
    division_exact = all(
        norm * unit == raw
        for raw, norm, unit in zip(data["cramer"], data["normalized"], data["units"])
    )
    ok = rendered == golden and division_exact
    assert _report(5, "lambda golden match", ok)


def test_criterion_6_noncusp_rederivation():
    import sympy

    chain = rederive_noncusp_chain()
    stage1 = chain["g_matches"]
    stage2 = chain["theta_h_reduction"]
    stage3 = chain["subbranch_display_ok"] and chain["subbranch_ok"]
    branch = next(e for e in chain["eliminations"] if e["branch"] == "a2+x1")

    # stage 4 oracle: the published g at (x1, y1) = (-a2, -b2), in sympy
    a1, a2, b1, b2, x1, y1 = sympy.symbols("a1 a2 b1 b2 x1 y1")
    big_a = -3 * x1**2 + y1**2 - 2 * a2 * x1
    big_b = x1**3 - 3 * x1 * y1**2 + a2 * x1**2 - a2 * y1**2
    g_at_branch = (a1 * y1 * big_a + b1 * big_b).subs({x1: -a2, y1: -b2}, simultaneous=True)
    expected, remainder = sympy.div(sympy.expand(g_at_branch), b2, a1, a2, b1, b2)
    assert remainder == 0
    params = (a1, a2, b1, b2)
    eliminant = to_sympy(branch["eliminant"], params)
    component1 = to_sympy(noncusp_polynomials().components[0], params)
    matches_g = sympy.expand(eliminant - expected) == 0
    on_planes = (
        eliminant.subs({a1: 0, b1: 0}) == 0 and eliminant.subs({a2: 0, b2: 0}) == 0
    )
    b1_twist = (
        sympy.expand(eliminant - component1) != 0
        and sympy.expand(eliminant - component1.subs(b1, -b1)) == 0
    )
    ok = stage1 and stage2 and stage3 and matches_g and on_planes and b1_twist
    _report(
        6,
        "non-cusp locus re-derivation",
        ok,
        f"g={stage1} thetaH={stage2} subbranch={stage3} eliminant={matches_g} "
        f"on planes={on_planes} component 1 is b1 -> -b1={b1_twist}",
    )
    assert stage1 and stage2 and stage3
    assert matches_g, (branch["eliminant"].render(), sympy.expand(expected))
    assert on_planes, branch["eliminant"].render()
    assert b1_twist, (branch["eliminant"].render(), component1)


def test_criterion_7_witness_soundness():
    # first half: witnesses at generic points of both planes of the locus
    found = {}
    for plane, points in plane_samples().items():
        found[plane] = 0
        for pars in points:
            report = witness_verify(pars)
            assert report.on_locus, pars
            if report.witness_label is not None and report.witness_label.kind in (
                "Degenerate", "CorankHigh"
            ):
                found[plane] += 1
    witness_half = all(count == 10 for count in found.values())

    # generic points of the published hypersurfaces lie off both planes:
    # their singular sets hold folds and cusps only
    candidates = {}
    for idx, points in component_samples().items():
        candidates[idx] = 0
        for pars in points:
            report = witness_verify(pars)
            assert report.on_locus
            if report.counterexample_candidate:
                candidates[idx] += 1
    published_half = all(count == 10 for count in candidates.values())

    # second half: far from the locus only folds and cusps appear
    locus = noncusp_polynomials()
    far_params = [
        (Fraction(3, 2), Fraction(1), Fraction(2), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(1), Fraction(2), Fraction(-1)),
        (Fraction(-3, 2), Fraction(1), Fraction(1), Fraction(2)),
        (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(1)),
        (Fraction(3, 2), Fraction(2), Fraction(1), Fraction(-1)),
        (Fraction(-2), Fraction(1), Fraction(-1), Fraction(1, 2)),
        (Fraction(5, 4), Fraction(2), Fraction(-1), Fraction(1)),
        (Fraction(2), Fraction(3, 2), Fraction(1), Fraction(2)),
        (Fraction(-5, 4), Fraction(1), Fraction(2), Fraction(-1)),
        (Fraction(7, 4), Fraction(1), Fraction(-2), Fraction(-1)),
    ]
    absence_half = True
    bad_labels = []
    for pars in far_params:
        a1, a2, b1, b2 = pars
        assert a1**2 + b1**2 > Fraction(1, 10) and a2**2 + b2**2 > Fraction(1, 10), pars
        values = locus.evaluate(pars)
        assert all(abs(v) > Fraction(1, 10) for v in values), pars
        germ = LefschetzFamily.symbolic().at(pars)
        verdicts = scan_region(germ, [(-1, 1)] * 4, 5, Tolerances())
        for v in verdicts:
            if v.label.kind == "Fold" or v.label.is_morin(2):
                continue
            absence_half = False
            bad_labels.append((pars, v.point, str(v.label)))
    ok = witness_half and published_half and absence_half
    _report(
        7,
        "witness soundness",
        ok,
        f"witnesses per plane {found} (10 needed each); "
        f"counterexample candidates per published component {candidates}; "
        f"absence side clean={absence_half} {bad_labels[:3]}",
    )
    assert absence_half, bad_labels[:5]
    assert witness_half, f"non-fold/non-cusp witnesses per plane: {found}"
    assert published_half, (
        "a generic point of a published hypersurface carried a witness: "
        f"counterexample candidates per component {candidates}"
    )


def test_criterion_8_numeric_exact_agreement():
    mismatches = []
    total = 0
    for m, n, k, signs in battery():
        germ = normal_form(m, n, k, signs)
        exact = classify(germ).label
        verdict = numeric_classify(germ, [0.0] * m)
        total += 1
        if (verdict.label.kind, verdict.label.k, verdict.label.signature) != (
            exact.kind, exact.k, exact.signature
        ):
            mismatches.append((m, n, k, signs, str(exact), str(verdict.label)))
        if k >= 2:
            for pt in _battery_singular_points(m, n, k, signs, count=2):
                exact_pt = classify(germ.translate(pt)).label
                verdict_pt = numeric_classify(germ, [float(v) for v in pt])
                total += 1
                if (verdict_pt.label.kind, verdict_pt.label.k) != (exact_pt.kind, exact_pt.k):
                    mismatches.append((m, n, k, signs, pt, str(exact_pt), str(verdict_pt.label)))
    ok = not mismatches
    assert _report(8, "numeric/exact agreement", ok, f"{total} points, {len(mismatches)} mismatches")


def _determinism_bundle():
    bundle = {"battery": [], "degenerate": [], "lambdas": [], "witness": [], "numeric": []}
    for m, n, k, signs in battery():
        germ = normal_form(m, n, k, signs)
        rep = classify(germ)
        bundle["battery"].append(
            {
                "dims": [m, n, k, list(signs)],
                "label": str(rep.label),
                "h_derivs": rep.trace.get("h_derivs_at_0"),
            }
        )
    ctx = make_context("x", "y", "z")
    x, y, z = (Polynomial.variable(ctx, v) for v in ("x", "y", "z"))
    for comps in ((x, y**2 + z**3), (x, y**2 + z**4)):
        bundle["degenerate"].append(str(classify(MapGerm(ctx, comps)).label))
    bundle["lambdas"] = [lam.render() for lam in lefschetz_lambdas()["normalized"]]
    report = witness_verify((6, 1, -2, 3))
    bundle["witness"] = {
        "on_locus": report.on_locus,
        "labels": [str(lab) for _, _, lab in report.candidates],
    }
    fold = MapGerm(ctx, (x, y**2 + z**2))
    for v in scan_region(fold, [(-1, 1)] * 3, 3):
        bundle["numeric"].append({"point": list(v.point), "label": str(v.label)})
    return json.dumps(bundle, indent=1)


def test_criterion_9_determinism():
    from morinclass.lefschetz import emit_slice, write_slice_csv
    import tempfile
    from pathlib import Path

    first = _determinism_bundle()
    second = _determinism_bundle()
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_slice_csv(emit_slice(Fraction(1, 4), 5, (-1, 1)), p1)
        write_slice_csv(emit_slice(Fraction(1, 4), 5, (-1, 1)), p2)
        csv_equal = p1.read_bytes() == p2.read_bytes()
    ok = first == second and csv_equal
    assert _report(9, "determinism", ok, f"reports={first == second} csv={csv_equal}")
