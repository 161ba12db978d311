"""Bifurcation study of the Lefschetz singularity.

The Lefschetz germ L(x1,x2,y1,y2) = (x1x2 - y1y2, x1y2 + x2y1) is zw in the
complex coordinates z = x1 + i y1, w = x2 + i y2.  Its four-parameter linear
deformation adds a1x1 + a2x2 to the first component and b1x1 + b2x2 to the
second.  This module reproduces the classical study of that family: the
singular-locus equations of the chart x-pivot frame, the kernel Hessian and
its determinant, the five published non-cusp locus displays with CSV slice
export, witness search over the singular set, and the full symbolic
substitution chain behind those displays.  The frame, the lambdas, the
kernel Hessian, h and theta come from the classifier's own stages
(`germ.cramer_frame`, `criteria.lambdas_for_frame`, `criteria.hessian`,
`criteria.build_theta`), and the chain from `Polynomial` arithmetic and
`substitute`.

The published displays are printed as published; they are not the non-cusp
locus.  With alpha = a1+ib1 and beta = a2+ib2 the family is
zw + alpha Re z + beta Re w, and whenever alpha*beta != 0 an affine change
of source and target takes it to UV + conj(U) + conj(V), whose singular set
holds folds and three cusps only.  The actual non-cusp locus is therefore the
pair of coefficient planes {a1 = b1 = 0} and {a2 = b2 = 0}, which lie on all
five displays but are none of them.

A structural fact this module computes along the way: in the chart
parametrization tau = y1/x1 of the singular circle, the cusp condition is
tau * (p + 3q tau - 3p tau^2 - q tau^3) with p + iq = (a1+ib1)(a2+ib2), whose
cubic factor has discriminant 108 (p^2+q^2)^2.  See `cusp_tau_polynomial`.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .context import VariableContext
from .criteria import Label, build_theta, classify, hessian, lambdas_for_frame
from .germ import MapGerm, cramer_frame
from .polynomial import Polynomial
from .rationals import rat

SOURCE_VARS = ("x1", "x2", "y1", "y2")
PARAM_VARS = ("a1", "a2", "b1", "b2")


def family_context() -> VariableContext:
    return VariableContext.make(SOURCE_VARS, PARAM_VARS)


def _vars(ctx):
    return [Polynomial.variable(ctx, n) for n in ctx.names]


@dataclass(frozen=True)
class LefschetzFamily:
    """The deformed Lefschetz germ; at zero parameters it is L itself."""

    germ: MapGerm

    @classmethod
    def symbolic(cls):
        ctx = family_context()
        x1, x2, y1, y2, a1, a2, b1, b2 = _vars(ctx)
        p = x1 * x2 - y1 * y2 + a1 * x1 + a2 * x2
        q = x1 * y2 + x2 * y1 + b1 * x1 + b2 * x2
        return cls(germ=MapGerm(ctx, (p, q)))

    def at(self, params) -> MapGerm:
        """Bind (a1, a2, b1, b2) to exact rationals."""
        return self.germ.bind_parameters(dict(zip(PARAM_VARS, _params(params))))


def lefschetz_germ() -> MapGerm:
    """The undeformed Lefschetz germ (all parameters zero)."""
    return LefschetzFamily.symbolic().at((0, 0, 0, 0))


def wrinkling_germ(s) -> MapGerm:
    """The stable wrinkling move: s(x1+x2) added to the first component."""
    s = rat(s)
    return LefschetzFamily.symbolic().at((s, s, 0, 0))


def _params(params):
    """(a1, a2, b1, b2) as exact rationals, from a sequence or a dict by name."""
    if isinstance(params, dict):
        missing = [k for k in PARAM_VARS if k not in params]
        if missing:
            raise ValueError(f"missing parameter values for {missing}")
        params = [params[k] for k in PARAM_VARS]
    vals = tuple(rat(v) for v in params)
    if len(vals) != 4:
        raise ValueError("expected four parameter values (a1, a2, b1, b2)")
    return vals


def lefschetz_lambdas(params=None):
    """Singular-locus equations of the family in the x1-pivot chart.

    Returns a dict with the Cramer lambdas (a1+x2) * eta_i f_2, the
    normalized lambdas eta_i f_2 (the Cramer lambdas divided by the pivot
    minor a1+x2), and that minor once per lambda as `units`.  With `params`
    the family is bound first; otherwise everything is symbolic.
    """
    fam = LefschetzFamily.symbolic()
    germ = fam.germ if params is None else fam.at(params)
    # the x1-pivot kernel frame of the first component, valid where a1+x2 != 0
    frame = cramer_frame(germ, ("x1",))
    ls = lambdas_for_frame(germ, frame)
    f_2 = germ.components[-1]
    return {
        "system": ls,
        "cramer": list(ls.lambdas),
        "normalized": [eta.apply(f_2) for eta in frame.eta],
        "units": [frame.pivot_minor] * len(frame.eta),
        "frame": frame,
        "germ": germ,
    }


def chart_hessian():
    """Kernel Hessian data of the chart: matrix (eta_j lam_i), h = det, theta, theta h.

    The classifier's own stages (`criteria.hessian`, `criteria.build_theta`)
    run on the normalized lambdas, so the substitution chain matches the
    published displays; theta is built from the last adjugate column (the
    published three-cofactor formula).  `adjugate` is adj(M) in full.
    """
    data = lefschetz_lambdas()
    ls = replace(data["system"], lambdas=tuple(data["normalized"]))
    hd = build_theta(ls, hessian(ls), column=2)
    data.update({
        "h_matrix": hd.h_matrix,
        "h": hd.h,
        "adjugate": hd.h_matrix.adjugate(),
        "theta": hd.theta,
        "theta_h": hd.theta.apply(hd.h),
    })
    return data


# -- the published non-cusp displays -------------------------------------------

def locus_context() -> VariableContext:
    """Parameters as coordinates of the locus."""
    return VariableContext.make(PARAM_VARS)


@dataclass(frozen=True)
class NoncuspLocus:
    """The five published displays of the non-cusp locus, as published.

    The actual non-cusp locus is the two coefficient planes {a1 = b1 = 0} and
    {a2 = b2 = 0}; they lie on all five hypersurfaces, whose generic points
    carry folds and cusps only.
    """

    components: tuple

    def evaluate(self, params):
        vals = dict(zip(PARAM_VARS, _params(params)))
        return [c.evaluate(vals) for c in self.components]


def noncusp_polynomials() -> NoncuspLocus:
    """The five published non-cusp displays n1..n5 in (a1, a2, b1, b2).

    These are the published polynomials, not the non-cusp locus: that is the
    pair of planes {a1 = b1 = 0} and {a2 = b2 = 0}, which lies on all five.
    """
    ctx = locus_context()
    a1, a2, b1, b2 = (Polynomial.variable(ctx, n) for n in PARAM_VARS)
    comps = (
        a1 * (a2**2 - b2**2) - 2 * a2 * b1 * b2,
        a2 * (a1**2 + b1**2) - 2 * b2 * (a1 + b1),
        a1 * a2 + b1 * b2,
        a2 * (a1**2 - b1**2) - 2 * a1 * b1 * b2,
        a1 * (a2**2 + b2**2) - 2 * b1 * (a2 + b2),
    )
    return NoncuspLocus(components=comps)


# -- singular-point census -----------------------------------------------------

def cusp_tau_polynomial(params):
    """Coefficients (ascending in tau) of the cusp condition on the singular circle.

    The circle is a2 x1 + b2 y1 + x1^2 + y1^2 = 0, parametrized by the slope
    tau = y1/x1; the returned quartic is tau*(p + 3q tau - 3p tau^2 - q tau^3)
    with p = a1a2 - b1b2 and q = a1b2 + a2b1.  Its tau = 0 root is the
    chart-edge point (-a2, -a1, 0, 0), and the cubic factor has discriminant
    108 (p^2 + q^2)^2.
    """
    a1, a2, b1, b2 = _params(params)
    p = a1 * a2 - b1 * b2
    q = a1 * b2 + a2 * b1
    return [Fraction(0), p, 3 * q, -3 * p, -q]


def circle_point(params, tau):
    """Rational singular point of the family from the slope parametrization."""
    a1, a2, b1, b2 = _params(params)
    tau = rat(tau)
    x1 = -(a2 + b2 * tau) / (1 + tau * tau)
    y1 = tau * x1
    return _branch_point(params, x1, y1)


def swap_circle_point(params, tau):
    """Singular point from the swap-symmetric chart (x1<->x2, y1<->y2, a<->b pairs)."""
    a1, a2, b1, b2 = _params(params)
    pt = circle_point((a2, a1, b2, b1), tau)
    return (pt[1], pt[0], pt[3], pt[2])


def _branch_point(params, x1, y1):
    """(x2, y2) closed forms over a circle point with (x1, y1) != 0."""
    a1, a2, b1, b2 = _params(params)
    d = x1 * x1 + y1 * y1
    if d == 0:
        raise ZeroDivisionError("branch point needs (x1, y1) != (0, 0)")
    s = a1 * x1 + b1 * y1
    return (x1, -x1 * s / d, y1, -y1 * s / d)


def distinguished_points(params):
    """Rational singular points of the family that exist in closed form.

    Yields (name, point) pairs: the chart-edge point, the x1=y1=0 closed-form
    point and its swap twin, the sheet points in the (a1,b1) and (a2,b2)
    directions, and the x1=x2=0 point.
    """
    a1, a2, b1, b2 = _params(params)
    out = [("edge", (-a2, -a1, Fraction(0), Fraction(0)))]
    d2 = a2 * a2 + b2 * b2
    if d2 != 0:
        out.append(
            ("closed-form", (Fraction(0), b2 * (a2 * b1 - a1 * b2) / d2, Fraction(0), a2 * (a1 * b2 - a2 * b1) / d2))
        )
    d1 = a1 * a1 + b1 * b1
    if d1 != 0:
        out.append(
            ("closed-form-swap", (b1 * (a1 * b2 - a2 * b1) / d1, Fraction(0), a1 * (a2 * b1 - a1 * b2) / d1, Fraction(0)))
        )
        t = -(a1 * a2 + b1 * b2) / d1
        out.append(("sheet", (t * a1, -a1, t * b1, -b1)))
    if d2 != 0:
        s = -(a1 * a2 + b1 * b2) / d2
        out.append(("sheet-swap", (-a2, s * a2, -b2, s * b2)))
    out.append(("x-axis", (Fraction(0), Fraction(0), -b2, -b1)))
    return out


@dataclass
class WitnessReport:
    params: tuple
    component_values: list
    on_locus: bool
    candidates: list          # (name, point, Label) for singular candidates
    witness: tuple = None     # first candidate that is neither Fold nor Morin{2}
    witness_label: Label = None

    @property
    def counterexample_candidate(self):
        """On the locus but no non-fold/non-cusp point found."""
        return self.on_locus and self.witness is None


def _is_noncusp_label(label: Label) -> bool:
    return label.kind in ("Degenerate", "CorankHigh") or (
        label.kind == "Morin" and label.k is not None and label.k >= 3
    )


def witness_verify(params) -> WitnessReport:
    """Search the family's singular set for a point that is neither fold nor cusp.

    Tries the closed-form branch points first (the circle slope grid plus
    every distinguished point), classifying each exactly after recentering.
    `on_locus` means on one of the five published displays; there, failure
    to find a witness is reported as a counterexample candidate rather than
    raised.  Witnesses exist exactly on the planes {a1 = b1 = 0} and
    {a2 = b2 = 0}.
    """
    params = _params(params)
    locus = noncusp_polynomials()
    values = locus.evaluate(params)
    on_locus = any(v == 0 for v in values)
    fam = LefschetzFamily.symbolic()
    germ = fam.at(params)

    candidates = []
    # the slopes n/d with |n/d| <= 3 and d <= 3, each once, in order of first listing
    taus = dict.fromkeys(Fraction(n, d) for d in (1, 2, 3) for n in range(-3 * d, 3 * d + 1))
    seen = set()
    points = distinguished_points(params)
    for tau in taus:
        for where, point in (("circle", circle_point), ("swap-circle", swap_circle_point)):
            try:
                points.append((f"{where} tau={tau}", point(params, tau)))
            except ZeroDivisionError:
                pass
    witness = None
    witness_label = None
    for name, pt in points:
        if pt in seen:
            continue
        seen.add(pt)
        label = classify(germ.translate(pt), trace=False).label
        if label.kind == "Regular":
            continue
        candidates.append((name, pt, label))
        if witness is None and _is_noncusp_label(label):
            witness = pt
            witness_label = label
    return WitnessReport(
        params=params,
        component_values=values,
        on_locus=on_locus,
        candidates=candidates,
        witness=witness,
        witness_label=witness_label,
    )


# -- symbolic substitution chain ------------------------------------------------

def _by_power(p, var):
    """{e: c_e} with p = sum of c_e var^e and no c_e involving var."""
    iv = p.context.index(var)
    parts = {}
    for exps, coeff in p.items():
        parts.setdefault(exps[iv], {})[exps[:iv] + (0,) + exps[iv + 1:]] = coeff
    return {e: Polynomial(p.context, terms) for e, terms in parts.items()}


def _substitute_cleared(p, var, numerator, denominator):
    """p with var -> numerator/denominator, multiplied by denominator^deg_var(p)."""
    # each power of the numerator and the denominator is multiplied in once
    parts = _by_power(p, var)
    deg = max(parts, default=0)
    out = Polynomial.zero(p.context)
    for e, term in parts.items():
        if e:
            term = term * numerator**e
        if deg - e:
            term = term * denominator ** (deg - e)
        out = out + term
    return out


def _drop_factors(p, named_factors):
    tally = {}
    for name, f in named_factors:
        while not p.is_zero():
            q, r = p.divide(f)
            if r.is_zero():
                p = q
                tally[name] = tally.get(name, 0) + 1
            else:
                break
    return p, tally


def rederive_noncusp_chain():
    """The symbolic substitution chain behind the published non-cusp displays.

    Returns a dict with each verified stage:

      * `g_branch`: the cofactor of (b1x1 - a1y1) after substituting the
        singular-branch closed forms into h (matches the published second
        factor exactly; `g_matches` is the verbatim comparison).
      * `theta_h_factors`: the complete factorization of theta(h) under the
        same substitutions with b1 eliminated along g = 0; the surviving
        linear factors are exactly (a2+x1) and (a2+2x1) (`theta_h_reduction`).
      * `subbranch`: the x1=y1=0, b1=-2y2 reduction of theta(h) for the
        published sub-branch display, and its further reduction to
        3 a2 (a1+x2)(a1+2x2).
      * `eliminations`: per-branch eliminant of (x1, y1) against each
        hard-coded component (exact divisibility results).  The a2+x1
        eliminant a1a2^2 - a1b2^2 + 2a2b1b2 is what the published g gives;
        it vanishes on both planes of the actual non-cusp locus
        {a1 = b1 = 0} u {a2 = b2 = 0} and differs from published display n1
        by b1 -> -b1, so no display divides it.
    """
    data = chart_hessian()
    ctx = data["germ"].context
    x1, x2, y1, y2, a1, a2, b1, b2 = _vars(ctx)
    h = data["h"]
    theta_h = data["theta_h"]
    d = x1**2 + y1**2
    s = a1 * x1 + b1 * y1
    big_a = -3 * x1**2 + y1**2 - 2 * a2 * x1
    big_b = x1**3 - 3 * x1 * y1**2 + a2 * x1**2 - a2 * y1**2
    g_published = a1 * y1 * big_a + b1 * big_b
    fac = b1 * x1 - a1 * y1

    def branch_substitute(p, eliminate_b1=False):
        w = _substitute_cleared(p, "b2", -(a2 * x1 + d), y1)
        w = _substitute_cleared(w, "x2", -x1 * s, d)
        w = _substitute_cleared(w, "y2", -y1 * s, d)
        if eliminate_b1:
            w = _substitute_cleared(w, "b1", -a1 * y1 * big_a, big_b)
        return w

    # stage 1: h under the branch closed forms
    h_sub = branch_substitute(h)
    h_red = h_sub.primitive_part()
    h_red, h_tally = _drop_factors(
        h_red, [("b1x1-a1y1", fac), ("x1^2+y1^2", d), ("y1", y1)]
    )
    g_matches = h_red == g_published

    # stage 2: theta(h) under the branch closed forms with g = 0 imposed
    th_sub = branch_substitute(theta_h, eliminate_b1=True)
    th_red = th_sub.primitive_part()
    th_red, th_tally = _drop_factors(
        th_red,
        [
            ("x1^2+y1^2", d),
            ("(a2+x1)", a2 + x1),
            ("(a2+2x1)", a2 + 2 * x1),
            ("(a2+x1)^2+y1^2", (a2 + x1) ** 2 + y1**2),
            ("y1", y1),
            ("a1", a1),
            ("A", big_a),
            ("B", big_b),
        ],
    )
    theta_h_reduction = (
        th_red.degree() == 0
        and th_tally.get("(a2+x1)", 0) >= 1
        and th_tally.get("(a2+2x1)", 0) >= 1
    )

    # stage 3: the published x1 = y1 = 0, b1 = -2y2 sub-branch.  There the
    # kernel combination is a2 eta_2 + (a1+x2) eta_3; modulo the remaining
    # singular equation y2^2 = a1x2 + x2^2 its derivative of h is a multiple
    # of a2 (3a1^2 + 7a1x2 + 4x2^2 + 2y2^2), which collapses further to
    # 3 a2 (a1+x2)(a1+2x2).  The cofactor (3a1+4x2) has no real points on the
    # branch (it would force y2^2 < 0).
    etas = data["frame"].eta
    theta_branch = etas[1].scaled(a2) + etas[2].scaled(a1 + x2)
    tb_h = theta_branch.apply(h)
    zero = Polynomial.zero(ctx)
    tb_h = tb_h.substitute({"x1": zero, "y1": zero, "b1": -2 * y2})

    def reduce_y2sq(p):
        # y2^e -> (a1x2 + x2^2)^(e//2) y2^(e%2)
        y2sq = a1 * x2 + x2**2
        out = zero
        for e, c in _by_power(p, "y2").items():
            out = out + c * y2sq ** (e // 2) * y2 ** (e % 2)
        return out

    reduced = reduce_y2sq(tb_h)
    sub_display = 3 * a1**2 + 7 * a1 * x2 + 4 * x2**2 + 2 * y2**2
    display_reduced = reduce_y2sq(sub_display)
    q_disp, r_disp = reduced.divide(a2 * display_reduced)
    subbranch_display_ok = r_disp.is_zero() and not reduced.is_zero()
    sub_red, sub_tally = _drop_factors(
        reduced,
        [
            ("a2", a2),
            ("(a1+x2)", a1 + x2),
            ("(a1+2x2)", a1 + 2 * x2),
            ("(3a1+4x2)", 3 * a1 + 4 * x2),
        ],
    )
    subbranch_ok = (
        sub_red.degree() == 0
        and sub_tally.get("a2", 0) == 1
        and sub_tally.get("(a1+x2)", 0) >= 1
        and sub_tally.get("(a1+2x2)", 0) == 1
    )

    # stage 4: branch eliminations against the hard-coded components
    locus = noncusp_polynomials()
    lctx = locus_context()
    eliminations = []

    # branch a2 + x1 = 0: x1 = -a2, then the circle equation forces y1 = -b2,
    # and g = 0 eliminates to a parameter relation
    locus_vars = {n: Polynomial.variable(lctx, n) for n in PARAM_VARS}
    g1 = g_published.substitute(
        {**locus_vars, "x1": -locus_vars["a2"], "y1": -locus_vars["b2"]}, target_context=lctx
    )
    g1, _ = _drop_factors(g1.primitive_part(), [("b2", locus_vars["b2"])])
    branch1 = {"branch": "a2+x1", "eliminant": g1, "per_component": []}
    for idx, comp in enumerate(locus.components):
        branch1["per_component"].append(
            {"component": idx + 1, "divides": _divisible(g1, comp)}
        )
    eliminations.append(branch1)

    # branch a2 + 2x1 = 0: g collapses onto the chart boundary
    g2 = g_published.substitute({"a2": -2 * x1})
    g2_expected = (x1**2 + y1**2) * (a1 * y1 - b1 * x1)
    eliminations.append(
        {"branch": "a2+2x1", "eliminant": g2, "boundary_collapse": g2 == g2_expected}
    )
    return {
        "h_branch_factors": h_tally,
        "g_branch": h_red,
        "g_published": g_published,
        "g_matches": g_matches,
        "theta_h_factors": th_tally,
        "theta_h_residual": th_red,
        "theta_h_reduction": theta_h_reduction,
        "subbranch_display_ok": subbranch_display_ok,
        "subbranch_factors": sub_tally,
        "subbranch_ok": subbranch_ok,
        "eliminations": eliminations,
    }


def _divisible(p, f):
    if p.is_zero():
        return False
    _, r = p.divide(f)
    return r.is_zero()


# -- slice export ----------------------------------------------------------------

@dataclass
class SliceGrid:
    b2: Fraction
    lo: Fraction
    hi: Fraction
    resolution: int
    nodes: list              # grid values, one list shared by the three axes
    values: np.ndarray       # shape (5, resolution^3), component-major, lex order


def emit_slice(b2, resolution: int, value_range=(-1, 1)) -> SliceGrid:
    """Evaluate the five published non-cusp displays on an (a1, a2, b1) grid at fixed b2.

    Evaluation is exact (integer arithmetic over a common denominator) and
    each value is the correctly rounded float of the exact one.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    b2 = rat(b2)
    lo, hi = rat(value_range[0]), rat(value_range[1])
    step = (hi - lo) / (resolution - 1)
    nodes = [lo + k * step for k in range(resolution)]
    den = math.lcm(*(v.denominator for v in nodes + [b2]))
    ints = [int(v * den) for v in nodes]
    b2_int = int(b2 * den)

    locus = noncusp_polynomials()
    values = np.empty((5, resolution**3), dtype=float)
    max_n = max((abs(v) for v in ints), default=0) or 1
    for ci, comp in enumerate(locus.components):
        deg = comp.degree()
        scale_den = den**deg
        terms = []
        bound = 0
        for exps, coeff in sorted(comp.items()):
            e1, e2, e3, e4 = exps  # context order a1, a2, b1, b2
            c_int = coeff * (b2_int**e4) * den ** (deg - e1 - e2 - e3 - e4)
            assert c_int.denominator == 1
            terms.append((int(c_int), e1, e2, e3))
            bound += abs(int(c_int)) * max_n ** (e1 + e2 + e3)
        # below 2^53 int64 sums are exact and so is their float division by
        # den^deg; above it Python ints are, and int / int rounds correctly
        exact64 = bound < 2**53 and scale_den < 2**53
        n_arr = np.array(ints, dtype=np.int64 if exact64 else object)
        pows = {0: np.ones_like(n_arr), 1: n_arr, 2: n_arr * n_arr, 3: n_arr**3}
        total = np.zeros((resolution, resolution, resolution), dtype=n_arr.dtype)
        for c_int, e1, e2, e3 in terms:
            total += c_int * (
                pows[e1][:, None, None] * pows[e2][None, :, None] * pows[e3][None, None, :]
            )
        values[ci] = total.reshape(-1) / scale_den
    return SliceGrid(b2=b2, lo=lo, hi=hi, resolution=resolution, nodes=nodes, values=values)


def write_slice_csv(grid: SliceGrid, path):
    """CSV per the plot-data contract: header a1,a2,b1,n1..n5, lex grid order."""
    res = grid.resolution
    block = res * res
    # the node columns take res values only: format each once, and the
    # a2,b1 prefix of each of the res^2 rows of a block once
    cells = ["%.17g" % float(v) for v in grid.nodes]
    inner = [f"{a2},{b1}," for a2 in cells for b1 in cells]
    tail = ",".join(["%.17g"] * 5) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write("a1,a2,b1,n1,n2,n3,n4,n5\n")
        # one write per a1 value; converting a block at a time keeps the
        # Python floats of only res^2 rows alive
        for i, a1 in enumerate(cells):
            values = grid.values[:, i * block:(i + 1) * block].T.tolist()
            head = a1 + ","
            fh.write("".join([head + pre + tail % tuple(v) for pre, v in zip(inner, values)]))


def slice_filename(b2) -> str:
    """`slice_b2_<value>.csv` with `/` replaced by `_` (path-safe)."""
    b2 = rat(b2)
    if b2.denominator == 1:
        tag = str(b2.numerator)
    else:
        tag = f"{b2.numerator}_{b2.denominator}"
    return f"slice_b2_{tag}.csv"


STANDARD_SLICE_VALUES = (
    Fraction(-1, 2),
    Fraction(-1, 4),
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
)
