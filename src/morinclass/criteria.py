"""Classification of corank-one map germs as fold, cusp or higher Morin type.

The decision pipeline:

  1. one row elimination of the Jacobian at the origin gives its rank
     (regular, corank one or higher), its pivots and the target change.
  2. normalize + adapted frame (xi pivots, eta kernel fields).
  3. lambda_i = det(xi_1 f, ..., xi_{n-1} f, eta_i f); the singular locus is
     the common zero set of the lambdas.  Each eta_i annihilates f_1, ...,
     f_{n-1}, so the last column is (0, ..., 0, eta_i f_n) and
     lambda_i = det(B) * eta_i f_n with B the pivot block of the frame.
  4. the (m-n+1)-square matrix M with M[i][j] = eta_j lambda_i, its
     determinant h, the kernel field theta from one column of adj(M) (the
     column is a decision, over Q the first column of adj(M(0)) that is not
     zero, and `build_theta` takes it), and the iterated directional
     derivatives h' = theta h, h'' = theta h', ...
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

`classify` makes each decision exactly over Q.  The float companion
(`numeric.numeric_classify`) runs the same stages, `_classify_at_origin`, on
the float (n+1)-jet at its point and makes each decision against a
threshold instead, recording a margin: the decision object handed to the
stages picks which.  There are six: the corank and pivots, the fold test,
the signature, the ranks of dlambda(0) and of condition (b), the theta
column, and the zero tests of the h-derivatives.  The Lefschetz study
(`lefschetz.chart_hessian`) runs `hessian` and `build_theta` too, on its
chart's lambdas and the published last column.

Every mathematical failure is a report label, never an exception.  The
tests read values and first derivatives at the base point only; a first
derivative at 0 is read as a linear coefficient (`germ.linear_coefficients`),
not built as a polynomial, and H as those of the first derivatives of the
2-jet of f_n.  So each stage needs the jet of its input one order deeper
than its output, and every derivative spends one order: the lambdas are
read to order n; M, h and theta to order n-1; and h^(j) to order n-1-j.  As d(f_n)_0 = 0, eta f_n vanishes at 0, so by the jet rule of
`Polynomial` (a product gains the order of vanishing of its factors) a
frame known to order n-1 still gives eta f_n and the lambdas to order n.
`classify` therefore reads f_n to order n+1 and f_1, ..., f_{n-1} to order
n (`frame_jets`): the frame (det B, the eta coefficients) runs at order
n-1.  The float path keeps every component at n+1 and the frame at n (see
`frame_jets`).  Where the rule knows a stage further than it is read, the
stage truncates to its budget, so every trace polynomial is exact in each
degree it prints and prints the same degrees on both paths.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .germ import (
    AdaptedFrame,
    MapGerm,
    NormalizedGerm,
    PolyVectorField,
    build_frame,
    kernel_fields,
    linear_coefficients,
    normalized,
)
from .linalg import PolyMatrix, RationalMatrix, eliminate, first_nonzero_row, row_reduce
from .polynomial import Polynomial, cut_to_order
from .rationals import format_rational

NOT_NONDEGENERATE = "NotNondegenerate"
NOT_2_NONDEGENERATE = "Not2Nondegenerate"
RANK_CONDITION_FAILED = "RankConditionFailed"
ALL_DERIVATIVES_VANISH = "AllDerivativesVanish"


@dataclass(frozen=True)
class Label:
    """Classification outcome: Regular, Fold, Morin{k}, Degenerate or CorankHigh.

    A thresholded float decision too close to call gives Inconclusive.
    """

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


def lambdas_for_frame(germ: MapGerm, frame: AdaptedFrame) -> LambdaSystem:
    """lambda_i = det(B) * eta_i f_n, det(B) being `frame.pivot_minor` (step 3 above)."""
    f_n = germ.components[-1]
    lambdas = tuple(frame.pivot_minor * eta.apply(f_n) for eta in frame.eta)
    return LambdaSystem(lambdas=lambdas, frame=frame, germ=germ)


def hessian(ls: LambdaSystem) -> HessData:
    """The kernel Hessian matrix M[i][j] = eta_j lambda_i and h = det M."""
    etas = ls.frame.eta
    rows = [[eta_j.apply(lam_i) for eta_j in etas] for lam_i in ls.lambdas]
    m = PolyMatrix.from_rows(rows)
    return HessData(h_matrix=m, h=cut_to_order(m.determinant(), m.entries))


def build_theta(ls: LambdaSystem, hd: HessData, column: int) -> HessData:
    """Kernel field theta from column `column` of adj(M), built as adj(M) e_c.

    Because adj(M) . M = det(M) . I holds identically, theta lies in the
    kernel of M at every point where h vanishes; 2-non-degeneracy makes some
    column nonzero at the origin.  `classify` takes the column its decision
    picks (`theta_column`: over Q the first column of adj(M(0)) that is not
    zero); the label does not depend on which nonzero column is taken, which
    the test suite exercises.
    """
    rows = hd.h_matrix.to_rows()
    unit = [[Polynomial.constant(hd.h_matrix.context, int(r == column))] for r in range(len(rows))]
    coeffs = None
    for eta, (entry,) in zip(ls.frame.eta, eliminate(rows, unit)[1]):
        scaled = eta.scaled(entry)
        coeffs = scaled if coeffs is None else coeffs + scaled
    theta = [cut_to_order(c, hd.h_matrix.entries) for c in coeffs.coefficients]
    return replace(hd, theta=PolyVectorField(coeffs.context, theta), theta_column=column)


def iterate_h(hd: HessData, up_to: int) -> HessData:
    """h, theta h, theta^2 h, ... up to the requested order."""
    derivs = [hd.h]
    for _ in range(up_to):
        derivs.append(hd.theta.apply(derivs[-1]))
    return replace(hd, h_derivs=tuple(derivs))


def _condition_b_rows(ls: LambdaSystem, hd: HessData, k: int):
    """Rows of the Jacobian at 0 of the stacked (lambdas, h, ..., h^(k-2)).

    For k = 1 the stack is the lambdas alone, and `hd` may lack `h_derivs`.
    """
    stack = list(ls.lambdas)
    if k >= 2:
        stack.extend(hd.h_derivs[: k - 1])
    return linear_coefficients(stack, ls.germ.context)


def rank_condition_b(ls: LambdaSystem, hd: HessData, k: int):
    """Rank at 0 of the stacked Jacobian of (lambdas, h, ..., h^(k-2)).

    A Morin k point needs rank m-n+k; for k = 1 the stack is the lambdas
    alone and the condition is non-degeneracy.
    """
    jac = RationalMatrix.from_rows(_condition_b_rows(ls, hd, k))
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
    `normalize` leaves them), E(0) holds the eta coefficients at 0
    (`germ.kernel_fields`) and H, the Hessian of f_n at 0, holds the linear
    coefficients of the first derivatives of its 2-jet.  Since d(f_n)_0 = 0,
    dlambda(0) is det B(0) E(0)^T H and h(0) is det B(0)^(m-n+1) det K (step
    5 above).  Both matrices come as rows of the germ's own coefficient type.
    """
    germ = ng.germ
    ctx = germ.context
    names = ctx.source_names
    col = {v: k for k, v in enumerate(names)}
    first = linear_coefficients(germ.components[:-1], ctx)
    if first:
        det_b, adj_w = eliminate(
            [[row[col[v]] for v in ng.pivot_names] for row in first],
            [[row[col[v]] for v in ng.nonpivot_names] for row in first],
        )
    else:
        det_b, adj_w = 1, []
    etas = kernel_fields(names, ng.pivot_names, ng.nonpivot_names, det_b, adj_w, 0)
    quadric = germ.components[-1].truncated(2)
    hess = linear_coefficients([quadric.derivative(v) for v in names], ctx)
    # plain products keep the germ's ints, where a RationalMatrix holds Fractions
    eta_hess = [[sum(e * h for e, h in zip(eta, row)) for row in hess] for eta in etas]
    kern = [[sum(x * e for x, e in zip(row, eta)) for eta in etas] for row in eta_hess]
    return det_b, eta_hess, kern


def fold_fast_path(ng: NormalizedGerm):
    """Fold test from the kernel Hessian of f_n on the polynomial frame, a check on `classify`."""
    hess = kernel_hessian_of_last(ng, build_frame(ng))
    pos, neg, zero = hess.signature()
    full = ng.germ.m - ng.germ.n + 1
    return {"is_fold": zero == 0 and pos + neg == full, "signature": (pos, neg)}


class _Exact:
    """The decisions of `classify`, made exactly over Q.

    `numeric._Thresholds` makes the same decisions on floats.  Each takes the
    name of its margin there, which the exact decisions ignore.
    """

    exact = True
    fmt = staticmethod(format_rational)

    def reduce(self, name, rows):
        """Row elimination on the first nonzero entries: (T, pivot rows, pivot columns)."""
        return row_reduce([[Fraction(e) for e in row] for row in rows], first_nonzero_row)

    def nonzero(self, name, value):
        return value != 0

    def rank(self, name, rows):
        return RationalMatrix.from_rows(rows).rank()

    def signature(self, rows):
        return RationalMatrix.from_rows(rows).signature()

    def theta_column(self, m0):
        """The first column of adj(M(0)) that is not zero, or None."""
        size = len(m0)
        # integer rows for `eliminate`: scaling row r by d_r scales column c
        # of the adjugate by the product of the other d's, keeping its zeros
        rows = RationalMatrix.from_rows(m0)._integer_rows()[0]
        adj = eliminate(rows, [[int(r == c) for c in range(size)] for r in range(size)])[1]
        return next((c for c in range(size) if any(row[c] for row in adj)), None)


_EXACT = _Exact()


def classify(germ: MapGerm, trace=True) -> CriteriaReport:
    """Full classification of a polynomial map germ at the origin.

    A fold is decided over Q from the 2-jet of f_n at 0
    (`kernel_hessian_at_origin`).  The polynomial lambdas and h are built
    for every other germ, and for a fold only when `trace` is set; `trace`
    also adds them to the report's trace as "lambdas" and "h".
    """
    germ.check_wellformed()
    germ.check_bound()
    # jet-cap the pipeline and clear denominators (a positive diagonal target
    # scaling, so every criterion and the fold signature are unchanged)
    work = MapGerm(
        germ.context,
        tuple(c.integer_scaled() for c in germ.truncated(germ.n + 1).components),
    )
    label, record = _classify_at_origin(work, _EXACT, trace)
    return CriteriaReport(label=label, trace=record)


def frame_jets(ng: NormalizedGerm) -> NormalizedGerm:
    """The normalized germ of `classify`, (n+1)-jets, with f_1..f_{n-1} cut to n-jets.

    As d(f_n)_0 = 0, eta f_n = sum_v eta^v d_v f_n vanishes at 0, so
    the frame at order n-1 still gives eta f_n, and with it the lambdas, at
    order n; the jet rule of `Polynomial` carries that through.  The float
    path keeps f_1..f_{n-1} at n+1: its f_n is critical only up to a
    threshold, so d f_n has order 0 there and eta f_n needs the frame at n.
    """
    comps = ng.germ.components
    n = len(comps)
    capped = tuple(c.truncated(n) for c in comps[:-1]) + comps[-1:]
    return replace(ng, germ=MapGerm(ng.germ.context, capped))


def _classify_at_origin(work: MapGerm, decide, trace=False):
    """The stages of `classify` on a germ capped at order n+1: (label, trace record).

    `decide` makes every decision: `_EXACT`, or the thresholded float
    decisions of `numeric`; `decide.fmt` writes numbers into the record.
    """
    m, n = work.m, work.n
    size = m - n + 1
    fmt = decide.fmt
    record = {"m": m, "n": n}
    t, pivot_rows, pivot_cols = decide.reduce("corank", work.linear_coefficients())
    record["rank_df0"] = rank = len(pivot_rows)
    if rank == n:
        return Label("Regular"), record
    if rank < n - 1:
        return Label("CorankHigh"), record

    ng = normalized(work, t, pivot_rows, pivot_cols, decide.exact)
    if decide.exact:
        ng = frame_jets(ng)
    det_b0, eta_hess, kern = kernel_hessian_at_origin(ng)
    h0 = det_b0**size * eliminate(kern)[0]
    record["frame"] = {
        "pivots": list(ng.pivot_names),
        "target_change": [[fmt(e) for e in row] for row in ng.target_change],
        "pivot_minor_at_0": fmt(det_b0),
    }
    # dlambda(0) = det B(0) E(0)^T H, fold or not
    nd_rank = decide.rank("nondegeneracy", [[det_b0 * e for e in row] for row in eta_hess])
    fold = decide.nonzero("h", h0)
    if trace or not fold:
        ls = lambdas_for_frame(ng.germ, build_frame(ng))
        hd = hessian(ls)
    if trace:
        record["lambdas"] = [p.render() for p in ls.lambdas]
        record["h"] = hd.h.render()
    record["nondegeneracy"] = {"rank": nd_rank, "required": size}
    record["h_at_0"] = fmt(h0)

    if fold:
        pos, neg, zero = decide.signature(kern)
        record["h_derivs_at_0"] = [fmt(h0)]
        record["signature"] = [pos, neg]
        # only a float decision can find h(0) nonzero and an eigenvalue zero
        label = Label("Inconclusive") if zero else Label("Fold", k=1, signature=(pos, neg))
        return label, record

    if nd_rank != size:
        return Label("Degenerate", reason=NOT_NONDEGENERATE), record
    m0 = [[e.constant_term() for e in row] for row in hd.h_matrix.to_rows()]
    column = decide.theta_column(m0)
    if column is None:
        return Label("Degenerate", reason=NOT_2_NONDEGENERATE), record
    hd = build_theta(ls, hd, column)
    record["theta_column"] = hd.theta_column
    record["theta_at_0"] = [fmt(c.constant_term()) for c in hd.theta.coefficients]
    hd = iterate_h(hd, n - 1)
    deriv_values = [p.constant_term() for p in hd.h_derivs]
    record["h_derivs_at_0"] = [fmt(v) for v in deriv_values]

    k = next((j + 1 for j in range(1, n) if decide.nonzero(f"h deriv {j}", deriv_values[j])),
             None)
    if k is None:
        return Label("Degenerate", reason=ALL_DERIVATIVES_VANISH), record

    # condition (b): the stacked Jacobian of (lambdas, h, ..., h^(k-2)) at 0
    jac = _condition_b_rows(ls, hd, k)
    rank_b = decide.rank("condition-b", jac)
    required = m - n + k
    record["condition_b"] = {
        "k": k,
        "rank": rank_b,
        "required": required,
        "matrix": [[fmt(e) for e in row] for row in jac],
    }
    if rank_b != required:
        return Label("Degenerate", reason=RANK_CONDITION_FAILED), record
    return Label("Morin", k=k), record
