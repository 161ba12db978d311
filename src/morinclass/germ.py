"""Map germs, linear normalization, and adapted frames of vector fields.

A germ here is a polynomial map f: (R^m, 0) -> (R^n, 0) with m > n, carried
by n polynomials over a shared variable context.  `normalize` applies an
invertible rational change on the target so the last component has zero
differential at the origin; `build_frame` then constructs vector fields
(xi_1..xi_{n-1}, eta_1..eta_{m-n+1}) adapted to the germ: the xi are the
coordinate fields of the pivot variables and each eta is the Cramer-rule
kernel field of the Jacobian of the first n-1 components, so it annihilates
those components identically as polynomials.
"""

from dataclasses import dataclass
from fractions import Fraction

from .context import VariableContext
from .linalg import RationalMatrix, eliminate
from .polynomial import Polynomial
from .rationals import rat

REGULAR = "Regular"
CORANK1 = "Corank1"
CORANK_HIGH = "CorankHigh"


class MalformedGermError(ValueError):
    pass


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
        return any(
            any(exps[i] for i in pidx) for p in self.components for exps in p.terms
        )

    def check_wellformed(self):
        if self.m <= self.n:
            raise MalformedGermError(
                f"need more source variables than components (m={self.m}, n={self.n})"
            )
        src = self.context.source_indices
        for i, p in enumerate(self.components):
            at0 = Polynomial(
                self.context,
                {e: c for e, c in p.terms.items() if not any(e[j] for j in src)},
            )
            if not at0.is_zero():
                raise MalformedGermError(
                    f"component {i + 1} does not vanish at the origin: {at0.render()}"
                )

    def jacobian_at_origin(self) -> RationalMatrix:
        if self.uses_parameters():
            raise MalformedGermError(
                "germ still has free parameters; bind them before classification"
            )
        # d(f_i)/d(x_j) at 0 is the coefficient of the monomial x_j in f_i
        ctx = self.context
        units = [tuple(int(k == j) for k in range(len(ctx))) for j in ctx.source_indices]
        return RationalMatrix.from_rows(
            [[p.coefficient(u) for u in units] for p in self.components]
        )

    def bind_parameters(self, values) -> "MapGerm":
        """Substitute rational values for all parameter variables."""
        bindings = {}
        for name in self.context.parameter_names:
            if name not in values:
                raise MalformedGermError(f"no value given for parameter {name!r}")
            bindings[name] = Polynomial.constant(self.context, rat(values[name]))
        return MapGerm(self.context, tuple(p.substitute(bindings) for p in self.components))

    def translate(self, point) -> "MapGerm":
        """Recenter at a source point p: x -> x + p, then drop f(p) so 0 maps to 0."""
        names = self.context.source_names
        point = [rat(v) for v in point]
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

    def values_at(self, assignment):
        return [c.evaluate(assignment) for c in self.coefficients]

    def scaled(self, factor):
        return PolyVectorField(self.context, tuple(factor * c for c in self.coefficients))

    def __add__(self, other):
        return PolyVectorField(
            self.context,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )


def coordinate_field(context, name) -> PolyVectorField:
    coeffs = [Polynomial.zero(context) for _ in context.source_names]
    coeffs[context.source_names.index(name)] = Polynomial.constant(context, 1)
    return PolyVectorField(context, tuple(coeffs))


@dataclass(frozen=True)
class AdaptedFrame:
    """Frame (xi_1..xi_{n-1}, eta_1..eta_{m-n+1}) adapted to a germ.

    `pivot_minor` is the determinant of the pivot block of the Jacobian of the
    first n-1 components: the frame is a genuine kernel frame wherever it does
    not vanish, and it is nonzero at the origin by construction.
    """

    xi: tuple
    eta: tuple
    target_change: RationalMatrix
    pivot_names: tuple
    nonpivot_names: tuple
    pivot_minor: Polynomial

    def coefficient_matrix_at(self, assignment) -> RationalMatrix:
        fields = list(self.xi) + list(self.eta)
        return RationalMatrix.from_rows([f.values_at(assignment) for f in fields])


@dataclass(frozen=True)
class NormalizedGerm:
    germ: MapGerm
    original: MapGerm
    target_change: RationalMatrix
    pivot_names: tuple
    nonpivot_names: tuple
    last_component_critical: bool


def validate(germ: MapGerm) -> str:
    """Exact corank test at the origin: Regular, Corank1 or CorankHigh."""
    germ.check_wellformed()
    rank = germ.jacobian_at_origin().rank()
    if rank == germ.n:
        return REGULAR
    if rank == germ.n - 1:
        return CORANK1
    return CORANK_HIGH


def normalize(germ: MapGerm) -> NormalizedGerm:
    """Target row elimination making the last component critical at 0.

    Deterministic: pivots take the lexicographically first usable row and
    column of the Jacobian at the origin.  Also records the n-1 pivot source
    variables whose block is invertible at 0.
    """
    if validate(germ) != CORANK1:
        raise MalformedGermError("normalize expects a corank-one germ")
    n, m = germ.n, germ.m
    j0 = germ.jacobian_at_origin().to_rows()
    t = RationalMatrix.identity(n).to_rows()
    used = []
    pivot_cols = []
    for col in range(m):
        piv = None
        for row in range(n):
            if row not in used and j0[row][col] != 0:
                piv = row
                break
        if piv is None:
            continue
        used.append(piv)
        pivot_cols.append(col)
        for row in range(n):
            if row in used or j0[row][col] == 0:
                continue
            f = j0[row][col] / j0[piv][col]
            j0[row] = [a - f * b for a, b in zip(j0[row], j0[piv])]
            t[row] = [a - f * b for a, b in zip(t[row], t[piv])]
    # each pivot column was cleared in the one unused row as its pivot was
    # taken, so that row vanishes entirely (rank is n-1)
    critical = next(row for row in range(n) if row not in used)
    order = used + [critical]
    comps = []
    t_rows = []
    for r in order:
        acc = Polynomial.zero(germ.context)
        for c, w in enumerate(t[r]):
            if w:
                acc = acc + w * germ.components[c]
        scaled = acc.integer_scaled()
        if scaled.terms and acc.terms:
            exps = next(iter(acc.terms))
            factor = Fraction(scaled.terms[exps]) / Fraction(acc.terms[exps])
        else:
            factor = Fraction(1)
        comps.append(scaled)
        t_rows.append([factor * w for w in t[r]])
    target = RationalMatrix.from_rows(t_rows)
    new_germ = MapGerm(germ.context, tuple(comps))
    source_names = germ.context.source_names
    pivot_names = tuple(source_names[c] for c in pivot_cols)
    nonpivot_names = tuple(v for v in source_names if v not in pivot_names)
    # the construction guarantees this; fail loudly if it ever breaks
    last = new_germ.components[-1]
    for v in source_names:
        if last.derivative(v).constant_term() != 0:
            raise AssertionError("normalization failed to make the last component critical")
    return NormalizedGerm(
        germ=new_germ,
        original=germ,
        target_change=target,
        pivot_names=pivot_names,
        nonpivot_names=nonpivot_names,
        last_component_critical=True,
    )


def cramer_frame(germ: MapGerm, pivot_names) -> AdaptedFrame:
    """Kernel frame of the first n-1 components with an explicit pivot choice.

    For each non-pivot source variable v the field is

        eta_v = det(B) d/dv - sum_j (adj(B) w)_j d/dp_j

    with B the pivot block of the Jacobian of the first n-1 components and w
    their v-derivatives, so eta_v annihilates each of those components
    identically.  One elimination on [B | W], the columns of W being the w of
    every non-pivot v, gives det(B) and all the adj(B) w.
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
        det_b, adj_w = eliminate(
            [[f.derivative(v) for v in pivot_names] for f in first],
            [[f.derivative(v) for v in nonpivot_names] for f in first],
        )
    xi = tuple(coordinate_field(ctx, v) for v in pivot_names)
    eta = []
    for col, v in enumerate(nonpivot_names):
        coeffs = {name: Polynomial.zero(ctx) for name in source_names}
        coeffs[v] = det_b
        for j, pname in enumerate(pivot_names):
            coeffs[pname] = -adj_w[j][col]
        eta.append(PolyVectorField(ctx, tuple(coeffs[name] for name in source_names)))
    return AdaptedFrame(
        xi=xi,
        eta=tuple(eta),
        target_change=RationalMatrix.identity(n),
        pivot_names=pivot_names,
        nonpivot_names=nonpivot_names,
        pivot_minor=det_b,
    )


def build_frame(ng: NormalizedGerm) -> AdaptedFrame:
    frame = cramer_frame(ng.germ, ng.pivot_names)
    if frame.pivot_minor.constant_term() == 0:
        raise AssertionError("pivot minor vanishes at the origin after normalization")
    return AdaptedFrame(
        xi=frame.xi,
        eta=frame.eta,
        target_change=ng.target_change,
        pivot_names=frame.pivot_names,
        nonpivot_names=frame.nonpivot_names,
        pivot_minor=frame.pivot_minor,
    )
