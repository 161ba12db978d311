"""Classification of corank-one map germs as fold, cusp or higher Morin type.

The decision pipeline:

  1. one row elimination of the Jacobian at the origin gives its rank
     (regular, corank one or higher), its pivots and the target change.
  2. normalize + adapted frame (xi pivots, eta kernel fields).
  3. lambda_i = det(xi_1 f, ..., xi_{n-1} f, eta_i f); the singular locus is
     the common zero set of the lambdas.  Each eta_i annihilates f_1, ...,
     f_{n-1}, so the last column is (0, ..., 0, eta_i f_n) and
     lambda_i = det(B) * eta_i f_n with B the pivot block of the frame.
  4. the (m-n+1)-square matrix M with M[i][j] = eta_j lambda_i; the kernel
     field theta = sum_j adj(M)_jc eta_j from one column c of adj(M) (a
     decision: over Q the first column of adj(M(0)) that is not zero),
     h = det M and h' = theta h, ...  An exact germ builds no M:
     `_taylor_tail` reads M(0) from Taylor coefficients at 0, and h to
     order N = n-1 as det(M_<N) plus tr(adj M(0) M_N), M_<N the part of M
     below degree N (Magnus-Neudecker, "Matrix Differential Calculus",
     ch. 8), with theta to order N-1 from adj(M_<N).  To the plane (N = 1)
     M_<1 is M(0) and the trace is Jacobi's formula; for N >= 2 one
     elimination of [M_<N | e_c] gives det and theta.  The float path
     builds M (`kernel_matrix`) and takes h and theta from one elimination
     of [M | e_c] (`build_theta`).
  5. label: fold iff h(0) != 0.  As d(f_n)_0 = 0, with E(0) the eta
     coefficients at 0, H the Hessian of f_n at 0, K = E(0)^T H E(0) and
     s = m-n+1,

         h(0) = det B(0)^s det K   and   dlambda(0) = det B(0) E(0)^T H,

     so a fold is decided over Q from the 1-jet of f_1, ..., f_{n-1} and the
     2-jet of f_n, before any polynomial frame is built.  One congruence
     elimination of the integer matrix K (`linalg.congruence`) gives det K
     and the inertia of K, the fold's signature.  Its non-degeneracy rank,
     that of E(0)^T H, needs no elimination: a nonsingular
     K = (E(0)^T H) E(0) forces it to be s.  The lambdas and h are then
     built only for the trace, as they are when that rank is below s
     (NotNondegenerate).  Otherwise the least k with h^{(k-1)}(0) != 0
     gives a candidate Morin k, confirmed by condition (b),
     `rank_condition_b`: the stacked Jacobian of
     (lambdas, h, h', ..., h^{(k-2)}) at 0 has rank m-n+k.  Every exact
     rank, that one and the non-degeneracy rank, is `RationalMatrix.rank`.

`_after_fold_test` only decides: it labels a fold test's outcome and
returns what its stages built.  `_classify_at_origin` alone writes the
record, and with `trace` adds the lambdas and h, built after the label for a
germ labelled before theta.  `classify` decides exactly over Q; the float
companion (`numeric.numeric_classify`) runs the same stages on the float
(n+1)-jet, each decision against a threshold, recording a margin.  It runs
the stages up to the fold test stacked over its points and keeps the label
of `_after_fold_test`; the tests hold every bit to `_classify_at_origin` on
one point with `numeric._Thresholds`.  The decisions: corank and pivots,
the fold test (h(0), the rank of dlambda(0), the signature), the theta
column, the zero tests of the h-derivatives and condition (b)'s rank.
`lefschetz.chart_hessian` builds M too, on its chart's lambdas, and takes
det M, adj(M) and theta from one `linalg.adjugate` of it.

Every mathematical failure is a report label, never an exception.  The tests
read values and first derivatives at the base point only; a first derivative
at 0 is read as a linear coefficient (`Polynomial.linear_coefficients`), not
built as a polynomial, and H as those of the first derivatives of the 2-jet
of f_n.  So each stage needs the jet of its input one order deeper than its
output: every derivative spends one order.  The lambdas are read to order n,
M, h and theta to order n-1, and h^(j) to order n-1-j.  As d(f_n)_0 = 0, eta
f_n vanishes at 0, so by the jet rule of `Polynomial` (a product gains the
order of vanishing of its factors) a frame known to order n-1 still gives
eta f_n and the lambdas to order n.  `classify` therefore reads f_n to order
n+1 and f_1, ..., f_{n-1} to order n (`frame_jets`): the frame (det B, the
eta coefficients) runs at order n-1.  The float path keeps every component
at n+1 and the frame at n (see `frame_jets`).  Where the rule knows a stage
further than it is read, the stage truncates to its budget, so every trace
polynomial is exact in each degree it prints and prints the same degrees on
both paths.
"""

from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add

from .germ import (AdaptedFrame, MapGerm, NormalizedGerm, PolyVectorField, _apply_fields,
                   build_frame, kernel_fields, normalized)
from .linalg import PolyMatrix, RationalMatrix, adjugate, congruence, eliminate, exact_row_reduce
from .polynomial import Polynomial, cut_to_order, jet_order
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
    h_matrix: PolyMatrix = None  # entry (i, j) is eta_j lambda_i; None on the exact path
    h: Polynomial = None  # det M, once `build_theta` or `_taylor_tail` takes it
    theta: PolyVectorField = None
    theta_column: int = None
    h_derivs: tuple = None  # h, theta h, theta^2 h, ...


@dataclass
class CriteriaReport:
    label: Label
    trace: dict = field(default_factory=dict)


def lambdas_for_frame(germ: MapGerm, frame: AdaptedFrame) -> LambdaSystem:
    """lambda_i = det(B) * eta_i f_n, det(B) being `frame.pivot_minor` (step 3 above)."""
    lambdas = tuple(frame.pivot_minor * v for v in _apply_fields(frame.eta, germ.components[-1]))
    return LambdaSystem(lambdas=lambdas, frame=frame, germ=germ)


def kernel_matrix(ls: LambdaSystem) -> PolyMatrix:
    return PolyMatrix.from_rows([_apply_fields(ls.frame.eta, lam_i) for lam_i in ls.lambdas])


def hessian(ls: LambdaSystem) -> HessData:
    """The kernel Hessian M[i][j] = eta_j lambda_i and h = det M by `PolyMatrix.determinant`."""
    m = kernel_matrix(ls)
    return HessData(m, h=cut_to_order(m.determinant(), m.entries))


def build_theta(ls: LambdaSystem, hd: HessData, column: int) -> HessData:
    """h = det M and the kernel field theta = adj(M) e_c, from one elimination of [M | e_c].

    Its det M is `hessian`'s term for term (the elimination pivots only in
    M's columns).  `classify` runs it on floats; an exact germ takes
    `_taylor_tail`, which builds no M.

    Because adj(M) . M = det(M) . I holds identically, theta lies in the
    kernel of M at every point where h vanishes; 2-non-degeneracy makes some
    column nonzero at the origin.  `classify` takes the column its decision
    picks (over Q the first column of adj(M(0)) that is not zero); the label
    does not depend on which nonzero column is taken, which the test suite
    exercises.
    """
    m = hd.h_matrix
    unit = [[Polynomial.constant(m.context, int(r == column))] for r in range(m.rows)]
    det, adj_col = eliminate(m.to_rows(), unit)
    theta = _kernel_field(ls.frame.eta, adj_col, jet_order(m.entries))
    return replace(hd, h=cut_to_order(det, m.entries), theta=theta, theta_column=column)


def _kernel_field(etas, adj_col, order):
    """theta = sum_j adj(M)_jc eta_j from the column adj(M) e_c, cut to `order` (None: not cut)."""
    coeffs = reduce(add, [eta.scaled(entry) for eta, (entry,) in zip(etas, adj_col)])
    return PolyVectorField(coeffs.context, [c if order is None else c.truncated(order)
                                            for c in coeffs.coefficients])


def iterate_h(hd: HessData, up_to: int) -> HessData:
    """h, theta h, theta^2 h, ... up to the requested order."""
    derivs = [hd.h]
    for _ in range(up_to):
        derivs.append(hd.theta.apply(derivs[-1]))
    return replace(hd, h_derivs=tuple(derivs))


def _taylor_tail(ls: LambdaSystem, theta=True) -> HessData:
    """h, theta and the h-chain of an exact germ from Taylor coefficients, without M.

    M's entries are N-jets, N = n - 1 (the det B slot of each eta keeps them
    so): with E the eta coefficients, M(0)_ij = sum_w E_j^w(0) d_w lambda_i(0)
    and d_v M_ij(0) = sum_w d_v E_j^w(0) d_w lambda_i(0) + E_j^w(0) d_v d_w
    lambda_i(0), the linear part M_1.  One scalar adj(M(0)) gives the theta
    column: over Q the first column that is not zero.  With M_<N the part
    of M below degree N and M_N its degree-N part, both identities hold for
    a singular M(0) too:

        det M = det(M_<N) + tr(adj M(0) M_N)  modulo degree N + 1,
        adj M = adj(M_<N)                     modulo degree N.

    For N = 1 (maps to the plane) M_<1 is M(0), whose det and adjugate are
    in hand, and the trace is Jacobi's formula on M_1; a single function
    (N = 0) has M = M(0) and M_1 = 0 and takes the same lines.  For N >= 2
    one `eliminate` of [M_<N | e_c], entries capped at N, gives det(M_<N)
    and adj(M) e_c to order N - 1; the block is M(0) + M_1 for N = 2, and
    for N >= 3 the fields applied to the lambdas cut to order N, at cap N:
    each is capped at N - 1, as each eta's det B slot has order 0.  The
    trace is the degree-N part of sum_j eta_j mu_j,
    mu_j = sum_i adj(M(0))_ji lambda_i.  theta = sum_j adj(M)_jc eta_j is
    taken to order N - 1 (by `_kernel_field` for N >= 3), all that
    `iterate_h` reads of it: the chain comes out with the terms and jets it
    has on M.  Without `theta` only h is taken; with it, where adj(M(0)) = 0
    nothing is: no decision reads that h, and the trace asks for it without.
    """
    ctx, lambdas, keys = ls.germ.context, ls.lambdas, ls.germ.context.linear_keys
    fields = [[(w, c.constant_term(), c.linear_coefficients())
               for w, c in enumerate(eta.coefficients) if c.terms] for eta in ls.frame.eta]
    grads = [lam.linear_coefficients() for lam in lambdas]
    # M(0) = det B(0) K, ints: the head is integer-scaled and `normalized` keeps int rows
    m0 = [[sum(e * grad[w] for w, e, _ in field) for field in fields] for grad in grads]
    order = ls.germ.n - 1
    if len(m0) > order and not any(map(any, m0)):  # each product in det M has degree > N
        return HessData(h=Polynomial.zero(ctx).truncated(order))
    det0, adj = adjugate(m0, 1, 0)
    column = next((c for c, col in enumerate(zip(*adj)) if any(col)), None) if theta else None
    if theta and column is None:
        return HessData()
    m1 = []  # d_v M_ij(0); d_w d_v lambda_i(0) from the x_w x_v terms, as the fold test reads H
    for lam, grad in zip(lambdas, grads) if order <= 2 else ():  # N >= 3 builds M_<N whole
        get = lam.terms.get
        hess = [[get(a + b, 0) * (1 + (a == b)) for b in keys] for a in keys]
        row = []
        for field in fields:
            lin = [0] * len(keys)
            for w, e, de in field:
                lin = [x + d * grad[w] + e * y for x, d, y in zip(lin, de, hess[w])]
            row.append(lin)
        m1.append(row)
    if order <= 1:  # M_<1 = M(0), and tr(adj M(0) M_1) is Jacobi's formula; n = 1 reads M(0)
        det = Polynomial.constant(ctx, det0)
        adj_col = [[Polynomial.constant(ctx, row[column])] for row in adj] if theta else None
        dh = [0] * len(keys)
        for weights, lins in zip(adj, zip(*m1)):  # sum_ij adj(M(0))_ji d M_ij(0)
            for a, lin in zip(weights, lins):
                if a:
                    dh = [t + a * x for t, x in zip(dh, lin)]
        top = {key: t for key, t in zip(keys, dh) if t}
    else:
        if order == 2:
            block = [[Polynomial._wrap(ctx, {k: x for k, x in zip((0, *keys), (c, *lin)) if x}, 2)
                      for c, lin in zip(row0, row1)] for row0, row1 in zip(m0, m1)]
        else:
            block = [[Polynomial._wrap(ctx, e.terms, order)
                      for e in _apply_fields(ls.frame.eta, lam.truncated(order))]
                     for lam in lambdas]
        unit = None if column is None else [[Polynomial.constant(ctx, int(r == column))]
                                            for r in range(len(block))]
        det, adj_col = eliminate(block, unit)
        # the degree-N part of sum_j eta_j mu_j
        parts = [eta.apply(reduce(add, [lam * a for a, lam in zip(weights, lambdas) if a]))
                 for eta, weights in zip(ls.frame.eta, adj) if any(weights)]
        terms = reduce(add, parts).terms if parts else {}
        top = {k: c for k, c in terms.items() if k >> ctx.degree_shift == order}
    h = det.truncated(order) + Polynomial._wrap(ctx, top, order)
    if column is None:
        return HessData(h=h)
    if order > 2:
        cut = [[e.truncated(order - 1)] for (e,) in adj_col]  # so no product forms degree N
        field = _kernel_field(ls.frame.eta, cut, order - 1)
        return iterate_h(HessData(h=h, theta=field, theta_column=column), order)
    heads = (0, *keys)[:1 + len(keys) * (order - 1)]  # theta to order N - 1
    coeffs = [[0] * len(heads) for _ in keys]
    for (entry,), field in zip(adj_col, fields):
        a = [entry.terms.get(k, 0) for k in heads]
        for w, e, de in field:
            coeffs[w] = [t + x * e + a[0] * d for t, x, d in zip(coeffs[w], a, (0, *de))]
    coeffs = [Polynomial._wrap(ctx, {k: x for k, x in zip(heads, t) if x}, order - 1)
              for t in coeffs]
    return iterate_h(HessData(h=h, theta=PolyVectorField(ctx, coeffs), theta_column=column), order)


def kernel_hessian_of_last(ng: NormalizedGerm, frame: AdaptedFrame) -> RationalMatrix:
    """(eta_j eta_i f_n)(0): well-defined symmetric since d(f_n)_0 = 0."""
    first = _apply_fields(frame.eta, ng.germ.components[-1])
    rows = [[e.constant_term() for e in _apply_fields(frame.eta, first_i)] for first_i in first]
    return RationalMatrix.from_rows(rows)


def kernel_hessian_at_origin(ng: NormalizedGerm):
    """det B(0), E(0)^T H and K = E(0)^T H E(0), over Q from the jets at 0.

    B(0) and W(0) are the linear coefficients of f_1..f_{n-1} (ints, as
    `normalize` leaves them), E(0) holds the eta coefficients at 0
    (`germ.kernel_fields`) and H, the Hessian of f_n at 0, is read from the
    degree-2 terms of f_n: 2c for c x_i^2 on the diagonal, c for c x_i x_j
    off it (the linear coefficients of the first derivatives, doubling being
    exact in floats too).  Since d(f_n)_0 = 0, dlambda(0) is
    det B(0) E(0)^T H and h(0) is det B(0)^(m-n+1) det K (step 5 above).
    Both matrices come as rows of the germ's own coefficient type.
    """
    germ = ng.germ
    names = germ.context.source_names
    col = {v: k for k, v in enumerate(names)}
    first = [p.linear_coefficients() for p in germ.components[:-1]]
    if first:
        det_b, adj_w = eliminate(
            [[row[col[v]] for v in ng.pivot_names] for row in first],
            [[row[col[v]] for v in ng.nonpivot_names] for row in first],
        )
    else:
        det_b, adj_w = 1, []
    etas = kernel_fields(names, ng.pivot_names, ng.nonpivot_names, det_b, adj_w, 0)
    get, keys = germ.components[-1].terms.get, germ.context.linear_keys
    hess = [[get(a + b, 0) if a != b else get(a + a, 0) * 2 for b in keys] for a in keys]
    # plain products keep the germ's ints, where a RationalMatrix holds Fractions
    eta_hess = [[_sum_in_order(e * h for e, h in zip(eta, row)) for row in hess] for eta in etas]
    kern = [[_sum_in_order(x * e for x, e in zip(row, eta)) for eta in etas] for row in eta_hess]
    return det_b, eta_hess, kern


def _sum_in_order(terms):
    """0 + t_1 + t_2 + ... left to right, as `numeric._kernel_hessians` adds (not 3.12's `sum`)."""
    total = 0
    for term in terms:
        total = total + term
    return total


def fold_fast_path(ng: NormalizedGerm):
    """Fold test from the kernel Hessian of f_n on the polynomial frame, a check on `classify`."""
    hess = kernel_hessian_of_last(ng, build_frame(ng))
    pos, neg, zero = hess.signature()
    full = ng.germ.m - ng.germ.n + 1
    return {"is_fold": zero == 0 and pos + neg == full, "signature": (pos, neg)}


class _Exact:
    """The decisions of `classify`, made exactly over Q.

    `numeric._Thresholds` makes the same decisions on floats.  Those that
    record a margin there take its name, which the exact decisions ignore.
    """

    exact = True
    fmt = staticmethod(format_rational)

    def reduce(self, name, rows):
        """Row elimination on the first nonzero entries: (T, pivot rows, pivot columns)."""
        return exact_row_reduce(rows)

    def nonzero(self, name, value):
        return value != 0

    def rank(self, name, rows):
        return RationalMatrix.from_rows(rows).rank()

    def fold_test(self, det_b0, eta_hess, kern):
        """(h(0), the non-degeneracy rank, the inertia of K if h(0) != 0 else None).

        One `congruence` of K, and the rank of E(0)^T H only where K is
        singular (step 5 above).
        """
        inertia, det_k = congruence(kern)
        h0 = det_b0 ** len(kern) * det_k
        if h0:
            return h0, len(kern), inertia
        return h0, self.rank("nondegeneracy", eta_hess), None


_EXACT = _Exact()


def rank_condition_b(ls: LambdaSystem, hd: HessData, k: int, decide=_EXACT):
    """Rank at 0 of the stacked Jacobian of (lambdas, h, ..., h^(k-2)), by `decide`.

    A Morin k point needs rank m-n+k; for k = 1 the stack is the lambdas
    alone, the condition is non-degeneracy and `hd` may lack `h_derivs`.
    The Jacobian's rows come back as "matrix".
    """
    stack = list(ls.lambdas)
    if k >= 2:
        stack.extend(hd.h_derivs[: k - 1])
    rows = [p.linear_coefficients() for p in stack]
    required = ls.germ.m - ls.germ.n + k
    return {"rank": decide.rank("condition-b", rows), "required": required, "matrix": rows}


def classify(germ: MapGerm, trace=True) -> CriteriaReport:
    """Full classification of a polynomial map germ at the origin, by the stages above.

    The polynomial lambdas are built for every germ that passes the fold
    and non-degeneracy tests, and h for those with a theta column, by
    `_taylor_tail` without M; `trace` builds the lambdas and h for every
    corank-one germ and adds them to the report's trace as "lambdas" and "h".
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

    `decide` makes every decision (`_EXACT`, or `numeric._Thresholds` as the
    tests' reference for `numeric`'s stacked stages); `_after_fold_test`
    labels, and this function alone writes the record, with `decide.fmt`.
    With `trace`, which `classify` asks for on exact germs only, it builds
    the lambdas and h that a germ labelled before theta lacks, by
    `_taylor_tail` without theta.  A Not2Nondegenerate germ so runs the
    tail twice, by design: untraced, its label reads only M(0), and the
    tail stops there without taking h.
    """
    n = work.n
    record = {"m": work.m, "n": n}
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
    fmt = decide.fmt
    record["frame"] = {
        "pivots": list(ng.pivot_names),
        "target_change": [[fmt(e) for e in row] for row in ng.target_change],
        "pivot_minor_at_0": fmt(det_b0),
    }
    h0, nd_rank, inertia = decide.fold_test(det_b0, eta_hess, kern)
    size = work.m - n + 1
    label, ls, hd, cond_b = _after_fold_test(ng, decide, size, h0, nd_rank, inertia)
    if trace:
        if ls is None:
            ls = lambdas_for_frame(ng.germ, build_frame(ng))
        h = _taylor_tail(ls, theta=False).h if hd is None or hd.h is None else hd.h
        record["lambdas"] = [p.render() for p in ls.lambdas]
        record["h"] = h.render()
    record["nondegeneracy"] = {"rank": nd_rank, "required": size}
    record["h_at_0"] = fmt(h0)
    if inertia is not None:
        record["h_derivs_at_0"] = [fmt(h0)]
    elif hd is not None and hd.theta is not None:
        record["theta_column"] = hd.theta_column
        record["theta_at_0"] = [fmt(c.constant_term()) for c in hd.theta.coefficients]
        record["h_derivs_at_0"] = [fmt(p.constant_term()) for p in hd.h_derivs]
        if cond_b is not None:
            matrix = [[fmt(e) for e in row] for row in cond_b["matrix"]]
            record["condition_b"] = {**cond_b, "matrix": matrix}
    return label, record


def _after_fold_test(ng, decide, size, h0, nd_rank, inertia):
    """The stages after the fold test, in the paper's order: (label, ls, hd, cond_b).

    The one place a fold test's outcome becomes a label; it records and
    formats nothing.  `size` is m-n+1.  `ls` (the lambdas) and `hd` (what
    `_taylor_tail` takes for an exact germ, M for a float one, and past the
    theta column h, theta and the h-chain) are None for a germ labelled at
    the fold test; `cond_b` is condition (b)'s rank record with its k, or
    None.  Only a germ past non-degeneracy reads `ng`: the float batch
    passes None for the others.
    """
    if inertia is not None:
        pos, neg, zero = inertia
        # only a float decision can find h(0) nonzero and an eigenvalue zero
        fold = Label("Inconclusive") if zero else Label("Fold", k=1, signature=(pos, neg))
        return fold, None, None, None
    if nd_rank != size:
        return Label("Degenerate", reason=NOT_NONDEGENERATE), None, None, None
    ls = lambdas_for_frame(ng.germ, build_frame(ng))
    if decide.exact:
        hd = _taylor_tail(ls)
    else:
        hd = HessData(kernel_matrix(ls))
        column = decide.theta_column([[e.constant_term() for e in row]
                                      for row in hd.h_matrix.to_rows()])
        if column is not None:
            hd = iterate_h(build_theta(ls, hd, column), ng.germ.n - 1)
    if hd.theta is None:
        return Label("Degenerate", reason=NOT_2_NONDEGENERATE), ls, hd, None
    values = [p.constant_term() for p in hd.h_derivs]
    k = next((j + 1 for j in range(1, len(values))
              if decide.nonzero(f"h deriv {j}", values[j])), None)
    if k is None:
        return Label("Degenerate", reason=ALL_DERIVATIVES_VANISH), ls, hd, None
    # condition (b): the stacked Jacobian of (lambdas, h, ..., h^(k-2)) at 0
    cond_b = {"k": k, **rank_condition_b(ls, hd, k, decide)}
    if cond_b["rank"] != cond_b["required"]:
        return Label("Degenerate", reason=RANK_CONDITION_FAILED), ls, hd, cond_b
    return Label("Morin", k=k), ls, hd, cond_b
