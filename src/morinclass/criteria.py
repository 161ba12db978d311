"""Classification of corank-one map germs as fold, cusp or higher Morin type.

The decision pipeline, all in exact arithmetic:

  1. validate: rank of the Jacobian at the origin.
  2. normalize + adapted frame (xi pivots, eta kernel fields).
  3. lambda_i = det(xi_1 f, ..., xi_{n-1} f, eta_i f); the singular locus is
     the common zero set of the lambdas.  Each eta_i annihilates f_1, ...,
     f_{n-1}, so the last column is (0, ..., 0, eta_i f_n) and
     lambda_i = det(B) * eta_i f_n with B the pivot block of the frame.
  4. the (m-n+1)-square matrix M with M[i][j] = eta_j lambda_i, its
     determinant h, the kernel field theta (an adjugate column of M), and the
     iterated directional derivatives h' = theta h, h'' = theta h', ...
  5. label: fold iff h(0) != 0 (with the inertia of the kernel Hessian as its
     signature); otherwise the least k with h^{(k-1)}(0) != 0 gives a
     candidate Morin k, confirmed by the rank of the stacked Jacobian of
     (lambdas, h, h', ..., h^{(k-2)}) at 0 being m-n+k.

Every mathematical failure is a report label, never an exception.  The
tests read values and first derivatives at the base point only, so each
stage needs the jet of its input one order deeper than its output, and every
derivative spends one order: f is read to order n+1; eta f, the frame and the
lambdas to order n; M, h and theta to order n-1; and h^(j) to order n-1-j.
`classify` caps the germ at order n+1, and the jet rule of `Polynomial` then
carries each stage at its budget; every trace polynomial is exact in each
degree it prints.
"""

from dataclasses import dataclass, field

from .germ import (
    CORANK1,
    CORANK_HIGH,
    REGULAR,
    AdaptedFrame,
    MapGerm,
    NormalizedGerm,
    PolyVectorField,
    build_frame,
    normalize,
    validate,
)
from .linalg import PolyMatrix, RationalMatrix
from .polynomial import Polynomial
from .rationals import format_rational

NOT_NONDEGENERATE = "NotNondegenerate"
NOT_2_NONDEGENERATE = "Not2Nondegenerate"
RANK_CONDITION_FAILED = "RankConditionFailed"
ALL_DERIVATIVES_VANISH = "AllDerivativesVanish"


@dataclass(frozen=True)
class Label:
    """Classification outcome: Regular, Fold, Morin{k}, Degenerate or CorankHigh."""

    kind: str
    k: int = None
    signature: tuple = None
    reason: str = None

    def __str__(self):
        if self.kind == "Fold":
            return f"Fold(signature={self.signature})"
        if self.kind == "Morin":
            return f"Morin{{{self.k}}}"
        if self.kind == "Degenerate":
            return f"Degenerate({self.reason})"
        return self.kind

    def is_fold(self):
        return self.kind == "Fold"

    def is_morin(self, k=None):
        return self.kind == "Morin" and (k is None or self.k == k)


def regular_label():
    return Label("Regular")


def fold_label(signature):
    return Label("Fold", k=1, signature=tuple(signature))


def morin_label(k):
    return Label("Morin", k=k)


def degenerate_label(reason):
    return Label("Degenerate", reason=reason)


def corank_high_label():
    return Label("CorankHigh")


@dataclass(frozen=True)
class LambdaSystem:
    """The m-n+1 determinantal equations cutting out the singular locus."""

    lambdas: tuple
    frame: AdaptedFrame
    germ: MapGerm


@dataclass(frozen=True)
class HessData:
    h_matrix: PolyMatrix  # entry (i, j) is eta_j applied to lambda_i
    h: Polynomial
    theta: PolyVectorField = None
    theta_column: int = None
    h_derivs: tuple = None  # h, theta h, theta^2 h, ...


@dataclass
class CriteriaReport:
    label: Label
    trace: dict = field(default_factory=dict)


class ThetaUnavailableError(ValueError):
    """The adjugate of the kernel Hessian vanishes at the origin."""


def compute_lambdas(ng: NormalizedGerm, frame: AdaptedFrame = None) -> LambdaSystem:
    """Exact determinantal equations lambda_i = det(xi_1 f, ..., xi_{n-1} f, eta_i f)."""
    if frame is None:
        frame = build_frame(ng)
    return lambdas_for_frame(ng.germ, frame)


def lambdas_for_frame(germ: MapGerm, frame: AdaptedFrame) -> LambdaSystem:
    """lambda_i = det(B) * eta_i f_n, det(B) being `frame.pivot_minor` (step 3 above)."""
    f_n = germ.components[-1]
    lambdas = tuple(frame.pivot_minor * eta.apply(f_n) for eta in frame.eta)
    return LambdaSystem(lambdas=lambdas, frame=frame, germ=germ)


def jacobian_at_origin(polys, germ) -> RationalMatrix:
    names = germ.context.source_names
    return RationalMatrix.from_rows(
        [[p.derivative(v).constant_term() for v in names] for p in polys]
    )


def nondegeneracy(ls: LambdaSystem):
    """Rank of the Jacobian of the lambdas at 0; full rank m-n+1 passes."""
    rank = jacobian_at_origin(ls.lambdas, ls.germ).rank()
    required = ls.germ.m - ls.germ.n + 1
    return {"pass": rank == required, "rank": rank, "required": required}


def hessian(ls: LambdaSystem) -> HessData:
    """The kernel Hessian matrix M[i][j] = eta_j lambda_i and h = det M."""
    etas = ls.frame.eta
    rows = [[eta_j.apply(lam_i) for eta_j in etas] for lam_i in ls.lambdas]
    m = PolyMatrix.from_rows(rows)
    return HessData(h_matrix=m, h=m.determinant())


def build_theta(ls: LambdaSystem, hd: HessData, column="first") -> HessData:
    """Kernel field theta from an adjugate column of the Hessian matrix.

    Because adj(M) . M = det(M) . I holds identically, theta lies in the
    kernel of M at every point where h vanishes; 2-non-degeneracy makes the
    chosen column nonzero at the origin.  `column` picks the first or the
    last column whose entries do not all vanish at 0 (the label does not
    depend on the choice, which the test suite exercises).
    """
    adj = hd.h_matrix.adjugate()
    size = adj.rows
    usable = []
    for c in range(size):
        col = adj.column(c)
        if any(p.constant_term() != 0 for p in col):
            usable.append(c)
    if not usable:
        raise ThetaUnavailableError("adjugate of the kernel Hessian vanishes at 0")
    chosen = usable[0] if column == "first" else usable[-1]
    coeffs = None
    for i, eta in enumerate(ls.frame.eta):
        scaled = eta.scaled(adj[i, chosen])
        coeffs = scaled if coeffs is None else coeffs + scaled
    return HessData(
        h_matrix=hd.h_matrix,
        h=hd.h,
        theta=coeffs,
        theta_column=chosen,
        h_derivs=hd.h_derivs,
    )


def iterate_h(hd: HessData, up_to: int) -> HessData:
    """h, theta h, theta^2 h, ... up to the requested order."""
    derivs = [hd.h]
    for _ in range(up_to):
        derivs.append(hd.theta.apply(derivs[-1]))
    return HessData(
        h_matrix=hd.h_matrix,
        h=hd.h,
        theta=hd.theta,
        theta_column=hd.theta_column,
        h_derivs=tuple(derivs),
    )


def rank_condition_b(ls: LambdaSystem, hd: HessData, k: int):
    """Rank at 0 of the stacked Jacobian of (lambdas, h, ..., h^(k-2)).

    A Morin k point needs rank m-n+k; for k = 1 the stack is the lambdas
    alone and the condition is non-degeneracy.
    """
    stack = list(ls.lambdas)
    if k >= 2:
        stack.extend(hd.h_derivs[: k - 1])
    jac = jacobian_at_origin(stack, ls.germ)
    required = ls.germ.m - ls.germ.n + k
    return {"rank": jac.rank(), "required": required, "matrix": jac}


def kernel_hessian_of_last(ng: NormalizedGerm, frame: AdaptedFrame) -> RationalMatrix:
    """(eta_j eta_i f_n)(0): well-defined symmetric since d(f_n)_0 = 0."""
    fn = ng.germ.components[-1]
    first = [eta.apply(fn) for eta in frame.eta]
    rows = [
        [eta_j.apply(first_i).constant_term() for eta_j in frame.eta]
        for first_i in first
    ]
    return RationalMatrix.from_rows(rows)


def fold_fast_path(ng: NormalizedGerm, frame: AdaptedFrame = None):
    """Fold test straight from the kernel Hessian of the last component."""
    if frame is None:
        frame = build_frame(ng)
    hess = kernel_hessian_of_last(ng, frame)
    pos, neg, zero = hess.signature()
    full = ng.germ.m - ng.germ.n + 1
    return {"is_fold": zero == 0 and pos + neg == full, "signature": (pos, neg)}


def cusp_fast_path(ng: NormalizedGerm, frame: AdaptedFrame = None):
    """Cusp test via the kernel line of the Hessian of the last component.

    Applicable only when that Hessian has a one-dimensional kernel at 0; the
    cusp holds iff the third derivative of f_n along the kernel field is
    nonzero at 0 and d(theta f_n)_0 != 0.
    """
    if frame is None:
        frame = build_frame(ng)
    hess = kernel_hessian_of_last(ng, frame)
    kernel_dim = hess.rows - hess.rank()
    if kernel_dim != 1:
        return {"applicable": False, "is_cusp": False, "kernel_dim": kernel_dim}
    ls = lambdas_for_frame(ng.germ, frame)
    hd = hessian(ls)
    try:
        hd = build_theta(ls, hd)
    except ThetaUnavailableError:
        return {"applicable": False, "is_cusp": False, "kernel_dim": kernel_dim}
    fn = ng.germ.components[-1]
    t1 = hd.theta.apply(fn)
    t3 = hd.theta.apply(hd.theta.apply(t1))
    grad = jacobian_at_origin([t1], ng.germ)
    is_cusp = t3.constant_term() != 0 and any(e != 0 for e in grad.entries)
    return {"applicable": True, "is_cusp": is_cusp, "kernel_dim": kernel_dim}


def classify(germ: MapGerm, theta_column="first") -> CriteriaReport:
    """Full classification of a polynomial map germ at the origin."""
    germ.check_wellformed()
    m, n = germ.m, germ.n
    trace = {"m": m, "n": n}
    rank0 = germ.jacobian_at_origin().rank()
    trace["rank_df0"] = rank0
    if rank0 == n:
        return CriteriaReport(label=regular_label(), trace=trace)
    if rank0 < n - 1:
        return CriteriaReport(label=corank_high_label(), trace=trace)

    # jet-cap the pipeline and clear denominators (a positive diagonal target
    # scaling, so every criterion and the fold signature are unchanged)
    work = MapGerm(
        germ.context, tuple(c.integer_scaled() for c in germ.truncated(n + 1).components)
    )
    ng = normalize(work)
    frame = build_frame(ng)
    ls = lambdas_for_frame(ng.germ, frame)
    hd = hessian(ls)
    trace["frame"] = {
        "pivots": list(frame.pivot_names),
        "target_change": [
            [format_rational(e) for e in row] for row in frame.target_change.to_rows()
        ],
        "pivot_minor_at_0": format_rational(frame.pivot_minor.constant_term()),
    }
    trace["lambdas"] = [p.render() for p in ls.lambdas]
    trace["h"] = hd.h.render()
    nd = nondegeneracy(ls)
    trace["nondegeneracy"] = {"rank": nd["rank"], "required": nd["required"]}
    h0 = hd.h.constant_term()
    trace["h_at_0"] = format_rational(h0)

    if h0 != 0:
        hess = kernel_hessian_of_last(ng, frame)
        pos, neg, _ = hess.signature()
        trace["h_derivs_at_0"] = [format_rational(h0)]
        trace["signature"] = [pos, neg]
        return CriteriaReport(label=fold_label((pos, neg)), trace=trace)

    if not nd["pass"]:
        return CriteriaReport(label=degenerate_label(NOT_NONDEGENERATE), trace=trace)

    try:
        hd = build_theta(ls, hd, column=theta_column)
    except ThetaUnavailableError:
        return CriteriaReport(label=degenerate_label(NOT_2_NONDEGENERATE), trace=trace)
    trace["theta_column"] = hd.theta_column
    trace["theta_at_0"] = [
        format_rational(c.constant_term()) for c in hd.theta.coefficients
    ]
    hd = iterate_h(hd, n - 1)
    deriv_values = [p.constant_term() for p in hd.h_derivs]
    trace["h_derivs_at_0"] = [format_rational(v) for v in deriv_values]

    k = None
    for j in range(1, n):
        if deriv_values[j] != 0:
            k = j + 1
            break
    if k is None:
        return CriteriaReport(label=degenerate_label(ALL_DERIVATIVES_VANISH), trace=trace)

    cond_b = rank_condition_b(ls, hd, k)
    trace["condition_b"] = {
        "k": k,
        "rank": cond_b["rank"],
        "required": cond_b["required"],
        "matrix": [
            [format_rational(e) for e in row] for row in cond_b["matrix"].to_rows()
        ],
    }
    if cond_b["rank"] != cond_b["required"]:
        return CriteriaReport(label=degenerate_label(RANK_CONDITION_FAILED), trace=trace)
    return CriteriaReport(label=morin_label(k), trace=trace)
