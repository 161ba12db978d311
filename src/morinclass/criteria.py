"""Classification of corank-one map germs as fold, cusp or higher Morin type.

The decision pipeline, all in exact arithmetic:

  1. rank of the Jacobian at the origin: regular, corank one or higher.
  2. normalize + adapted frame (xi pivots, eta kernel fields).
  3. lambda_i = det(xi_1 f, ..., xi_{n-1} f, eta_i f); the singular locus is
     the common zero set of the lambdas.  Each eta_i annihilates f_1, ...,
     f_{n-1}, so the last column is (0, ..., 0, eta_i f_n) and
     lambda_i = det(B) * eta_i f_n with B the pivot block of the frame.
  4. the (m-n+1)-square matrix M with M[i][j] = eta_j lambda_i, its
     determinant h, the kernel field theta (an adjugate column of M), and the
     iterated directional derivatives h' = theta h, h'' = theta h', ...
  5. label: fold iff h(0) != 0.  As d(f_n)_0 = 0, with E(0) the eta
     coefficients at 0, H the Hessian of f_n at 0, K = E(0)^T H E(0) and
     s = m-n+1,

         h(0) = det B(0)^s det K   and   dlambda(0) = det B(0) E(0)^T H,

     so a fold is decided over Q from the 1-jet of f_1, ..., f_{n-1} and the
     2-jet of f_n, before any polynomial frame is built: its signature is
     the inertia of K and its non-degeneracy rank that of E(0)^T H.  The
     lambdas and h are then built only for the trace.  Otherwise the least
     k with h^{(k-1)}(0) != 0 gives a candidate Morin k, confirmed by the
     rank of the stacked Jacobian of (lambdas, h, h', ..., h^{(k-2)}) at 0
     being m-n+k.

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
    AdaptedFrame,
    MapGerm,
    NormalizedGerm,
    PolyVectorField,
    build_frame,
    normalize,
)
from .linalg import PolyMatrix, RationalMatrix, eliminate
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
    depend on the choice, which the test suite exercises).  The choice is
    made over the rationals and only that column is built, as adj(M) e_c.
    """
    rows = hd.h_matrix.to_rows()
    size = len(rows)
    m0 = [[e.constant_term() for e in row] for row in rows]
    # column c of adj(M)(0) = adj(M(0)) is nonzero iff M(0) less row c has rank size-1
    usable = [c for c in range(size)
              if RationalMatrix.from_rows(m0[:c] + m0[c + 1:]).rank() == size - 1]
    if not usable:
        raise ThetaUnavailableError("adjugate of the kernel Hessian vanishes at 0")
    chosen = usable[0] if column == "first" else usable[-1]
    unit = [[Polynomial.constant(hd.h_matrix.context, int(r == chosen))] for r in range(size)]
    coeffs = None
    for eta, (entry,) in zip(ls.frame.eta, eliminate(rows, unit)[1]):
        scaled = eta.scaled(entry)
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


def kernel_hessian_at_origin(ng: NormalizedGerm):
    """det B(0), E(0)^T H and K = E(0)^T H E(0), over Q from the jets at 0.

    B(0) and W(0) are the linear coefficients of f_1..f_{n-1} (ints, as
    `normalize` leaves them), E(0) holds the eta coefficients at 0 and H is
    the Hessian of f_n at 0.  Since d(f_n)_0 = 0, dlambda(0) is
    det B(0) E(0)^T H and h(0) is det B(0)^(m-n+1) det K (step 5 above).
    """
    germ = ng.germ
    ctx = germ.context
    src = ctx.source_indices
    col = {v: k for k, v in enumerate(ctx.source_names)}
    unit = {v: tuple(int(i == src[k]) for i in range(len(ctx))) for v, k in col.items()}
    first = germ.components[:-1]
    if first:
        det_b, adj_w = eliminate(
            [[f.terms.get(unit[v], 0) for v in ng.pivot_names] for f in first],
            [[f.terms.get(unit[v], 0) for v in ng.nonpivot_names] for f in first],
        )
    else:
        det_b, adj_w = 1, []
    etas = []
    for c, v in enumerate(ng.nonpivot_names):
        eta = [0] * len(src)
        eta[col[v]] = det_b
        for j, p in enumerate(ng.pivot_names):
            eta[col[p]] = -adj_w[j][c]
        etas.append(eta)
    hess = [[0] * len(src) for _ in src]
    for exps, coeff in germ.components[-1].terms.items():
        degrees = [exps[i] for i in src]
        if sum(degrees) == 2:
            a, b = (k for k, d in enumerate(degrees) for _ in range(d))
            hess[a][b] += coeff
            hess[b][a] += coeff  # so a square term counts twice
    # integer products: RationalMatrix products would go through Fractions
    eta_hess = [[sum(e * h for e, h in zip(eta, row)) for row in hess] for eta in etas]
    kern = [[sum(x * e for x, e in zip(row, eta)) for eta in etas] for row in eta_hess]
    return det_b, RationalMatrix.from_rows(eta_hess), RationalMatrix.from_rows(kern)


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


def classify(germ: MapGerm, theta_column="first", trace=True) -> CriteriaReport:
    """Full classification of a polynomial map germ at the origin.

    A fold is decided over Q from the 2-jet of f_n at 0
    (`kernel_hessian_at_origin`).  The polynomial lambdas and h are built
    for every other germ, and for a fold only when `trace` is set; `trace`
    also adds them to the report's trace as "lambdas" and "h".
    """
    germ.check_wellformed()
    m, n = germ.m, germ.n
    record = {"m": m, "n": n}
    rank0 = germ.jacobian_at_origin().rank()
    record["rank_df0"] = rank0
    if rank0 == n:
        return CriteriaReport(label=regular_label(), trace=record)
    if rank0 < n - 1:
        return CriteriaReport(label=corank_high_label(), trace=record)

    # jet-cap the pipeline and clear denominators (a positive diagonal target
    # scaling, so every criterion and the fold signature are unchanged)
    work = MapGerm(
        germ.context, tuple(c.integer_scaled() for c in germ.truncated(n + 1).components)
    )
    ng = normalize(work)
    det_b0, eta_hess, kern = kernel_hessian_at_origin(ng)
    det_k = kern.determinant()
    record["frame"] = {
        "pivots": list(ng.pivot_names),
        "target_change": [
            [format_rational(e) for e in row] for row in ng.target_change.to_rows()
        ],
        "pivot_minor_at_0": format_rational(det_b0),
    }
    if trace or det_k == 0:
        ls = lambdas_for_frame(ng.germ, build_frame(ng))
        hd = hessian(ls)
    if trace:
        record["lambdas"] = [p.render() for p in ls.lambdas]
        record["h"] = hd.h.render()

    if det_k != 0:
        h0 = det_b0 ** (m - n + 1) * det_k
        pos, neg, _ = kern.signature()
        record["nondegeneracy"] = {"rank": eta_hess.rank(), "required": m - n + 1}
        record["h_at_0"] = format_rational(h0)
        record["h_derivs_at_0"] = [format_rational(h0)]
        record["signature"] = [pos, neg]
        return CriteriaReport(label=fold_label((pos, neg)), trace=record)

    nd = nondegeneracy(ls)
    record["nondegeneracy"] = {"rank": nd["rank"], "required": nd["required"]}
    record["h_at_0"] = format_rational(hd.h.constant_term())
    if not nd["pass"]:
        return CriteriaReport(label=degenerate_label(NOT_NONDEGENERATE), trace=record)

    try:
        hd = build_theta(ls, hd, column=theta_column)
    except ThetaUnavailableError:
        return CriteriaReport(label=degenerate_label(NOT_2_NONDEGENERATE), trace=record)
    record["theta_column"] = hd.theta_column
    record["theta_at_0"] = [
        format_rational(c.constant_term()) for c in hd.theta.coefficients
    ]
    hd = iterate_h(hd, n - 1)
    deriv_values = [p.constant_term() for p in hd.h_derivs]
    record["h_derivs_at_0"] = [format_rational(v) for v in deriv_values]

    k = None
    for j in range(1, n):
        if deriv_values[j] != 0:
            k = j + 1
            break
    if k is None:
        return CriteriaReport(label=degenerate_label(ALL_DERIVATIVES_VANISH), trace=record)

    cond_b = rank_condition_b(ls, hd, k)
    record["condition_b"] = {
        "k": k,
        "rank": cond_b["rank"],
        "required": cond_b["required"],
        "matrix": [
            [format_rational(e) for e in row] for row in cond_b["matrix"].to_rows()
        ],
    }
    if cond_b["rank"] != cond_b["required"]:
        return CriteriaReport(label=degenerate_label(RANK_CONDITION_FAILED), trace=record)
    return CriteriaReport(label=morin_label(k), trace=record)
