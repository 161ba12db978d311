"""Map germs, linear normalization, and adapted frames of vector fields.

A germ here is a polynomial map f: (R^m, 0) -> (R^n, 0) with m > n, carried
by n polynomials over a shared variable context.  `normalize` applies an
invertible rational change on the target so the last component has zero
differential at the origin: one row elimination of the Jacobian at 0 gives
its rank, its pivots and that change, and `normalized` applies the change
(the float companion pivots on the largest entry instead and calls
`normalized` itself).  `build_frame` then constructs vector fields
(xi_1..xi_{n-1}, eta_1..eta_{m-n+1}) adapted to the germ: the xi are the
coordinate fields of the pivot variables and each eta is the Cramer-rule
kernel field of the Jacobian of the first n-1 components, so it annihilates
those components identically as polynomials.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import _termops_py as kernel
from .context import VariableContext, check_same_context
from .linalg import eliminate, exact_row_reduce
from .polynomial import Polynomial, _product_jet, cut_to_order
from .rationals import cleared, rat

REGULAR = "Regular"
CORANK1 = "Corank1"
CORANK_HIGH = "CorankHigh"


class MalformedGermError(ValueError):
    pass


def check_dimensions(m, n):
    """A germ needs more source variables (m) than components (n)."""
    if m <= n:
        raise MalformedGermError(
            f"need more source variables than components (m={m}, n={n})"
        )


@dataclass(frozen=True)
class MapGerm:
    """m source variables, n polynomial components vanishing at the origin."""

    context: VariableContext
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        for p in comps:
            if p.context != self.context:
                raise MalformedGermError("components must share the germ's context")
        if not comps:
            raise MalformedGermError("a germ needs at least one component")

    @property
    def m(self):
        return len(self.context.source_indices)

    @property
    def n(self):
        return len(self.components)

    def uses_parameters(self):
        pidx = self.context.parameter_indices
        return any(p.involves(pidx) for p in self.components)

    def check_wellformed(self):
        check_dimensions(self.m, self.n)
        src = self.context.source_indices
        for i, p in enumerate(self.components):
            at0 = p.at_zero(src)
            if not at0.is_zero():
                raise MalformedGermError(
                    f"component {i + 1} does not vanish at the origin: {at0.render()}"
                )

    def check_bound(self):
        if self.uses_parameters():
            raise MalformedGermError(
                "germ still has free parameters; bind them before classification"
            )

    def linear_coefficients(self):
        """The Jacobian at 0 as rows of coefficients, of whatever type the germ has."""
        return [p.linear_coefficients() for p in self.components]

    def bind_parameters(self, values) -> "MapGerm":
        """Substitute rational values for all parameter variables."""
        bindings = {}
        for name in self.context.parameter_names:
            if name not in values:
                raise MalformedGermError(f"no value given for parameter {name!r}")
            bindings[name] = Polynomial.constant(self.context, rat(values[name]))
        return MapGerm(self.context, tuple(p.substitute(bindings) for p in self.components))

    def translate(self, point) -> "MapGerm":
        """Recenter at a source point p: the germ x -> f(x + p) - f(p), so 0 maps to 0.

        Each component is Taylor-shifted on its terms (`kernel.shift_terms`):
        f(x + p) = sum_beta (sum_{alpha >= beta} c_alpha C(alpha, beta)
        p^(alpha - beta)) x^beta, expanded term by term in exponent-tuple
        order through the rows (x_i + p_i)^alpha_i of the nonzero p_i.  That
        is the order, and so the result, of the composition
        f.substitute({x_i: x_i + p_i}) - f(p): the same terms in the same
        order, of the same types, float coefficients to the bit.  Where f(p)
        overflows the floats the constant term is the NaN f(p) - f(p), which
        the float companion reads as a non-finite jet.

        Float coordinates are kept as floats, for a germ with float
        coefficients.  A jet is refused: a k-jet at 0 fixes no coefficient
        at another point.
        """
        ctx = self.context
        point = [v if isinstance(v, float) else rat(v) for v in point]
        self._check_translate([point])
        shifts = [(i, v) for i, v in zip(ctx.source_indices, point) if v]
        rows = {}  # the powers of the x_i + p_i, shared by the components
        return MapGerm(ctx, tuple(
            Polynomial._wrap(ctx, kernel.shift_terms(p.terms, shifts, ctx, rows))
            for p in self.components
        ))

    def _check_translate(self, points):
        """`translate`'s refusals at each of `points`: every point's length first, then a jet."""
        short = next((x for x in points if len(x) != self.m), None)
        if short is not None:
            raise MalformedGermError(f"base point needs {self.m} coordinates, got {len(short)}")
        if any(p.jet is not None for p in self.components):
            raise MalformedGermError("cannot translate a jet: a jet at the origin does not "
                                     "determine the germ at another point")

    def truncated(self, max_degree) -> "MapGerm":
        return MapGerm(self.context, tuple(p.truncated(max_degree) for p in self.components))


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field with one polynomial coefficient per source variable."""

    context: VariableContext
    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != len(self.context.source_indices):
            raise ValueError("one coefficient per source variable required")

    def apply(self, p: Polynomial) -> Polynomial:
        """Directional derivative of p along this field."""
        return _apply_fields((self,), p)[0]

    def scaled(self, factor):
        return PolyVectorField(self.context, tuple(factor * c for c in self.coefficients))

    def __add__(self, other):
        return PolyVectorField(self.context, tuple(
            a + b for a, b in zip(self.coefficients, other.coefficients)))


def _apply_fields(fields, p):
    """[v.apply(p) for v in fields], each partial of p taken once for all of them.

    One pass per field over its nonzero coefficients c_i, on term dicts: the
    partial d_i p, the product c_i d_i p, and its sum into one dict.  That is
    sum_i c_i * p.derivative(x_i) as `Polynomial`'s `*` and `+` build it,
    term for term and in term order, without a polynomial for any part.  The
    sum is known to the smallest cap `_product_jet` gives a product, and `+`
    would cut every term above it; so each capped product is formed at that
    cap alone, which leaves the order of the terms it keeps as it was.  An
    uncapped product is formed whole and cut with the sum.
    """
    ctx, jet = p.context, p.jet
    shift = ctx.degree_shift
    partials = {}  # source index -> the terms of d_i p, known to jet - 1
    out = []
    for field in fields:
        steps = []
        for coeff, idx in zip(field.coefficients, ctx.source_indices):
            if not coeff.terms:
                continue
            d = partials.get(idx)
            if d is None:
                if jet == 0:
                    raise ValueError("a 0-jet has no derivative")
                d = partials[idx] = kernel.diff_terms(p.terms, idx, ctx)
            check_same_context(coeff, p)
            own = _product_jet(coeff.terms, coeff.jet, d, None if jet is None else jet - 1, shift)
            steps.append((coeff.terms, d, own))
        if not steps:
            out.append(Polynomial.zero(field.context))
            continue
        caps = [own for _, _, own in steps if own is not None]
        cap = min(caps, default=None)
        terms = None
        for a, d, own in steps:
            product = kernel.mul_terms(a, d, ctx, -1 if own is None else cap)
            terms = product if terms is None else kernel.iadd_terms(terms, product)
        if cap is not None and len(caps) < len(steps):  # an uncapped product ran past the cap
            terms = kernel.truncate_terms(terms, cap, ctx)
        out.append(Polynomial._wrap(ctx, terms, cap))
    return out


@dataclass(frozen=True)
class AdaptedFrame:
    """Frame (xi_1..xi_{n-1}, eta_1..eta_{m-n+1}) adapted to a germ.

    The xi are the coordinate fields of the `pivot_names`, so only the eta
    are stored.  `pivot_minor` is the determinant of the pivot block of the
    Jacobian of the first n-1 components: the frame is a genuine kernel frame
    wherever it does not vanish, and it is nonzero at the origin by
    construction.
    """

    eta: tuple
    pivot_names: tuple
    nonpivot_names: tuple
    pivot_minor: Polynomial


@dataclass(frozen=True)
class NormalizedGerm:
    """The germ after the target change, whose rows make `target_change`."""

    germ: MapGerm
    target_change: tuple
    pivot_names: tuple
    nonpivot_names: tuple


def _reduce_at_origin(germ: MapGerm):
    """`exact_row_reduce` of the Jacobian at 0, pivoting on first nonzero entries."""
    germ.check_wellformed()
    germ.check_bound()
    cleared([c for p in germ.components for c in p.coefficients()])  # refuses floats
    return exact_row_reduce(germ.linear_coefficients())


def validate(germ: MapGerm) -> str:
    """Exact corank test at the origin: Regular, Corank1 or CorankHigh."""
    rank = len(_reduce_at_origin(germ)[1])
    if rank == germ.n:
        return REGULAR
    if rank == germ.n - 1:
        return CORANK1
    return CORANK_HIGH


def normalize(germ: MapGerm) -> NormalizedGerm:
    """Target row elimination making the last component critical at 0.

    Deterministic: pivots take the lexicographically first usable row and
    column of the Jacobian at the origin.  Also records the n-1 pivot source
    variables whose block is invertible at 0.  The number of pivots is the
    rank of that Jacobian, which must be n-1.
    """
    t, pivot_rows, pivot_cols = _reduce_at_origin(germ)
    if len(pivot_rows) != germ.n - 1:
        raise MalformedGermError("normalize expects a corank-one germ")
    return normalized(germ, t, pivot_rows, pivot_cols)


def normalized(germ: MapGerm, t, pivot_rows, pivot_cols, exact=True) -> NormalizedGerm:
    """The germ under the target change T of a row elimination of its Jacobian at 0.

    The n-1 pivot rows of T f come first and the one row left last; at rank
    n-1 that row has no linear part.  Over Q each row is the least positive
    multiple of the row of T f with integer coefficients, T's row scaled
    with it (`_integer_row`), and the last row is checked to be critical.  A
    float germ (`exact` false) keeps its rows as they are.
    """
    n = germ.n
    # each pivot column was cleared in the one row left as its pivot was
    # taken, so that row vanishes entirely when the rank is n-1
    critical = next(row for row in range(n) if row not in pivot_rows)
    comps = []
    t_rows = []
    for r in list(pivot_rows) + [critical]:
        if exact:
            comp, t_row = _integer_row(germ, t[r])
        else:
            comp, t_row = _row_sum(germ, t[r]), tuple(t[r])
        comps.append(comp)
        t_rows.append(t_row)
    new_germ = MapGerm(germ.context, tuple(comps))
    source_names = germ.context.source_names
    pivot_names = tuple(source_names[c] for c in pivot_cols)
    nonpivot_names = tuple(v for v in source_names if v not in pivot_names)
    # the construction guarantees this; fail loudly if it ever breaks
    if exact and any(comps[-1].linear_coefficients()):
        raise AssertionError("normalization failed to make the last component critical")
    return NormalizedGerm(
        germ=new_germ,
        target_change=tuple(t_rows),
        pivot_names=pivot_names,
        nonpivot_names=nonpivot_names,
    )


def _row_sum(germ: MapGerm, weights):
    """sum_c w_c f_c on term dicts, with the terms, order and cap of the `Polynomial` sum."""
    terms, caps = {}, set()
    for w, comp in zip(weights, germ.components):
        if w:
            caps.add(comp.jet)
            kernel.iadd_terms(terms, kernel.scale_terms(comp.terms, w))
    cap = min(caps - {None}, default=None)
    if len(caps) > 1:  # a summand may hold terms above the smallest cap
        terms = kernel.truncate_terms(terms, cap, germ.context)
    return Polynomial._wrap(germ.context, terms, cap)


def _integer_row(germ: MapGerm, weights):
    """The least positive multiple of sum_c w_c f_c with integer coefficients, and of T's row.

    The sum runs on the integer weights L w_c, L the lcm of the weights'
    denominators.  With E the lcm of its denominators (1 for an integral
    germ), that multiple is the sum times E / g, g = gcd(L E, content of the
    sum times E), and T's row is L E / g times the weights, each a Fraction.
    """
    scale, ints = cleared(weights)
    row = _row_sum(germ, ints)
    den, coeffs = cleared(row.terms.values())
    g = gcd(scale * den, *coeffs)
    t_row = tuple(Fraction(den * w, g) for w in ints)
    terms = {k: c // g for k, c in zip(row.terms, coeffs)}
    return Polynomial._wrap(germ.context, terms, row.jet), t_row


def kernel_fields(source_names, pivot_names, nonpivot_names, det_b, adj_w, zero):
    """The coefficients of each eta_v = det(B) d/dv - sum_j (adj(B) w_v)_j d/dp_j.

    One list per non-pivot v, one entry per source variable; `adj_w` holds
    the adj(B) w_v as its columns and `zero` fills the other entries.
    """
    col = {v: k for k, v in enumerate(source_names)}
    fields = []
    for c, v in enumerate(nonpivot_names):
        eta = [zero] * len(source_names)
        eta[col[v]] = det_b
        for j, p in enumerate(pivot_names):
            eta[col[p]] = -adj_w[j][c]
        fields.append(eta)
    return fields


def cramer_frame(germ: MapGerm, pivot_names) -> AdaptedFrame:
    """Kernel frame of the first n-1 components with an explicit pivot choice.

    For each non-pivot source variable v the field is

        eta_v = det(B) d/dv - sum_j (adj(B) w)_j d/dp_j

    with B the pivot block of the Jacobian of the first n-1 components and w
    their v-derivatives, so eta_v annihilates each of those components
    identically.  One elimination on [B | W], the columns of W being the w of
    every non-pivot v, gives det(B) and all the adj(B) w.  On jets they are
    carried to the order of B and W: one below the smallest cap of the
    components.
    """
    ctx = germ.context
    n = germ.n
    source_names = ctx.source_names
    pivot_names = tuple(pivot_names)
    nonpivot_names = tuple(v for v in source_names if v not in pivot_names)
    if len(pivot_names) != n - 1:
        raise ValueError(f"expected {n - 1} pivot variables, got {len(pivot_names)}")
    if n == 1:
        det_b, adj_w = Polynomial.constant(ctx, 1), []
    else:
        first = germ.components[: n - 1]
        b = [[f.derivative(v) for v in pivot_names] for f in first]
        det_b, adj_w = eliminate(b, [[f.derivative(v) for v in nonpivot_names] for f in first])
        # the frame is read to the order of B and W, which the jet rule may exceed
        entries = [e for row in b for e in row]
        det_b = cut_to_order(det_b, entries)
        adj_w = [[cut_to_order(e, entries) for e in row] for row in adj_w]
    fields = kernel_fields(source_names, pivot_names, nonpivot_names, det_b, adj_w,
                           Polynomial.zero(ctx))
    return AdaptedFrame(
        eta=tuple(PolyVectorField(ctx, coeffs) for coeffs in fields),
        pivot_names=pivot_names,
        nonpivot_names=nonpivot_names,
        pivot_minor=det_b,
    )


def build_frame(ng: NormalizedGerm) -> AdaptedFrame:
    frame = cramer_frame(ng.germ, ng.pivot_names)
    if frame.pivot_minor.constant_term() == 0:
        raise AssertionError("pivot minor vanishes at the origin after normalization")
    return frame
