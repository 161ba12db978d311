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
from math import gcd, lcm

from .context import VariableContext
from .linalg import eliminate, first_nonzero_row, row_reduce
from .polynomial import Polynomial, cut_to_order
from .rationals import rat

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


def linear_coefficients(polys, context):
    """The gradients at 0 of `polys`, one row each, one entry per source variable.

    d(p)/d(x_j) at 0 is the coefficient of the monomial x_j in p, so no
    derivative is built.  A 0-jet does not know that coefficient.
    """
    if any(p.jet == 0 for p in polys):
        raise ValueError("a 0-jet has no derivative")
    units = [tuple(int(k == j) for k in range(len(context))) for j in context.source_indices]
    return [[p.coefficient(u) for u in units] for p in polys]


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
        return linear_coefficients(self.components, self.context)

    def bind_parameters(self, values) -> "MapGerm":
        """Substitute rational values for all parameter variables."""
        bindings = {}
        for name in self.context.parameter_names:
            if name not in values:
                raise MalformedGermError(f"no value given for parameter {name!r}")
            bindings[name] = Polynomial.constant(self.context, rat(values[name]))
        return MapGerm(self.context, tuple(p.substitute(bindings) for p in self.components))

    def translate(self, point) -> "MapGerm":
        """Recenter at a source point p: x -> x + p, then drop f(p) so 0 maps to 0.

        Float coordinates are kept as floats, for a germ with float coefficients.
        """
        names = self.context.source_names
        point = [v if isinstance(v, float) else rat(v) for v in point]
        if len(point) != len(names):
            raise MalformedGermError(
                f"base point needs {len(names)} coordinates, got {len(point)}"
            )
        shift = {
            name: Polynomial.variable(self.context, name) + Polynomial.constant(self.context, v)
            for name, v in zip(names, point)
        }
        comps = []
        for p in self.components:
            moved = p.substitute(shift)
            comps.append(moved - Polynomial.constant(self.context, moved.constant_term()))
        return MapGerm(self.context, tuple(comps))

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
        acc = Polynomial.zero(self.context)
        for coeff, name in zip(self.coefficients, self.context.source_names):
            if coeff.is_zero():
                continue
            acc = acc + coeff * p.derivative(name)
        return acc

    def scaled(self, factor):
        return PolyVectorField(self.context, tuple(factor * c for c in self.coefficients))

    def __add__(self, other):
        return PolyVectorField(
            self.context,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )


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
    """`row_reduce` of the Jacobian at 0 over Q, pivoting on first nonzero entries."""
    germ.check_wellformed()
    germ.check_bound()
    rows = [[rat(e) for e in row] for row in germ.linear_coefficients()]
    return row_reduce(rows, first_nonzero_row)


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
    """The germ under the target change T of `row_reduce` on its Jacobian at 0.

    The n-1 pivot rows of T f come first and the one row left last; at rank
    n-1 that row has no linear part.  Over Q each row is scaled to integer
    coefficients, T with it, by the least positive factor that does so, and
    the last row is checked to be critical; the components are combined with
    integer weights, so an integral germ never meets a Fraction.  A float
    germ (`exact` false) keeps its rows as they are.
    """
    n = germ.n
    # each pivot column was cleared in the one row left as its pivot was
    # taken, so that row vanishes entirely when the rank is n-1
    critical = next(row for row in range(n) if row not in pivot_rows)
    comps = []
    t_rows = []
    for r in list(pivot_rows) + [critical]:
        weights, scale = t[r], 1
        if exact:
            # L times the row, L the lcm of its denominators: integer weights
            scale = lcm(*(w.denominator for w in weights))
            weights = [w.numerator * (scale // w.denominator) for w in weights]
        acc = Polynomial.zero(germ.context)
        for c, w in enumerate(weights):
            if w:
                acc = acc + w * germ.components[c]
        factor = 1
        if exact:
            # acc is L times the row of T f.  With E the lcm of its
            # denominators (1 for an integral germ), the least positive
            # multiple of that row with integer coefficients is acc E / g,
            # g = gcd(L E, content(acc E))
            den = lcm(*(c.denominator for c in acc.coefficients()))
            acc = acc.integer_scaled()
            g = gcd(scale * den, *acc.coefficients())
            factor = Fraction(scale * den // g)
            if g != 1:
                acc = acc.map_coefficients(lambda c: c // g)
        comps.append(acc)
        t_rows.append(tuple(factor * w for w in t[r]))
    new_germ = MapGerm(germ.context, tuple(comps))
    source_names = germ.context.source_names
    pivot_names = tuple(source_names[c] for c in pivot_cols)
    nonpivot_names = tuple(v for v in source_names if v not in pivot_names)
    # the construction guarantees this; fail loudly if it ever breaks
    if exact and any(linear_coefficients(comps[-1:], germ.context)[0]):
        raise AssertionError("normalization failed to make the last component critical")
    return NormalizedGerm(
        germ=new_germ,
        target_change=tuple(t_rows),
        pivot_names=pivot_names,
        nonpivot_names=nonpivot_names,
    )


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
