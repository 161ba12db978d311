"""Floating-point companion to the exact classifier.

Projects seed points onto the singular locus by Gauss-Newton on the
determinantal equations of the chart at 0, one seed or a whole batch at once
(a batch gives `None` where a single seed would fail), and classifies a point
by running the exact classifier's stages (`criteria._classify_at_origin`) on
the float (n+1)-jet there.  Where `classify` decides exactly, `_Thresholds`
compares a value with its tolerance and records a `Margin`.  The exact
classifier remains the authority; any decision within a factor of ten of its
threshold makes the verdict Inconclusive.

`Tolerances` holds the two thresholds a caller may set, `rank_tol` and
`zero_tol`; the projection's residual target and iteration limit are class
constants.  The chart is expanded symbolically, so a germ whose frame or
chart may exceed `CHART_TERM_BOUND` terms gets none: it is classified, not
projected.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product, takewhile
from typing import ClassVar

import numpy as np

from .criteria import Label, _classify_at_origin, lambdas_for_frame
from .germ import MapGerm, cramer_frame, normalized
from .linalg import adjugate, eliminate, row_reduce

# the largest frame and chart `_frame_size` and `_chart_size` admit.  On
# dimension-ladder germs (one core of a 2-core host) charts bounded by 54264
# and 65780 terms expanded in 0.5 s and 8-13 s, one bounded by 170544 in
# 28 s, and the (5, 4, 4) germ's, bounded by 237336, ran for minutes
CHART_TERM_BOUND = 100_000


@dataclass(frozen=True)
class Tolerances:
    rank_tol: float = 1e-6        # pivot threshold for numeric rank
    zero_tol: float = 1e-8        # threshold for "value at the point is zero"
    residual_tol: ClassVar[float] = 1e-10   # |lambda| for membership in the singular locus
    max_newton_iters: ClassVar[int] = 50

    def __post_init__(self):
        for name in ("rank_tol", "zero_tol"):
            value = getattr(self, name)
            # NaN fails every comparison, so test for the good case
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class Margin:
    """One thresholded decision: |value| against its tolerance."""

    name: str
    value: float
    threshold: float

    @property
    def inconclusive(self):
        v = abs(self.value)
        return self.threshold / 10 <= v <= self.threshold * 10


@dataclass
class NumericVerdict:
    point: tuple
    label: Label
    margins: list
    residual: float  # None where the germ has no chart at 0


class ProjectionError(RuntimeError):
    """Gauss-Newton failed to reach the residual tolerance."""


class FloatRangeError(ValueError):
    """A value at the point is not finite in floats."""


def _norms(r):
    """The Euclidean norm of each row of r, by elementwise operations only."""
    total = r[:, 0] * r[:, 0]
    for j in range(1, r.shape[1]):
        total = total + r[:, j] * r[:, j]
    return np.sqrt(total)


def _min_norm_steps(jac, rhs):
    """The minimum-norm least-squares solution of each jac[i] @ step = rhs[i].

    One stacked SVD, with `lstsq`'s default cutoff: singular values at most
    eps * max(rows, cols) * sigma_max count as zero.
    """
    u, sig, vt = np.linalg.svd(jac, full_matrices=False)
    cutoff = np.finfo(float).eps * max(jac.shape[1:]) * sig[:, :1]
    coef = u[:, 0, :] * rhs[:, :1]
    for j in range(1, u.shape[1]):
        coef = coef + u[:, j, :] * rhs[:, j:j + 1]
    keep = sig > cutoff
    coef = np.where(keep, coef, 0.0) / np.where(keep, sig, 1.0)
    step = vt[:, 0, :] * coef[:, :1]
    for q in range(1, vt.shape[1]):
        step = step + vt[:, q, :] * coef[:, q:q + 1]
    return step


def _scale(a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 1e-300
    with np.errstate(over="ignore"):  # an overflow is inf, which `_Thresholds` refuses
        return max(float(np.linalg.norm(r)) for r in a) or 1e-300


class _Thresholds:
    """The decisions of `criteria`'s stages on floats, each recorded as a Margin."""

    exact = False
    fmt = float

    def __init__(self, tol: Tolerances):
        self.tol = tol
        self.margins = []

    def record(self, name, value, threshold):
        """Record a Margin; a value or threshold that is not finite raises FloatRangeError."""
        if not (math.isfinite(value) and math.isfinite(threshold)):
            raise FloatRangeError(f"the {name} decision is not finite in floats")
        self.margins.append(Margin(name, value, threshold))

    def reduce(self, name, rows):
        """Row elimination on the largest entry of each column above rank_tol times the scale."""
        rows = [[float(v) for v in row] for row in rows]
        thr = self.tol.rank_tol * _scale(rows)

        def largest(rows, col, free):
            best, r0 = max((abs(rows[r][col]), r) for r in free)
            return r0 if best > thr else None

        t, pivot_rows, pivot_cols = row_reduce(rows, largest)
        for k, (r, c) in enumerate(zip(pivot_rows, pivot_cols), 1):
            self.record(f"{name} pivot {k}", abs(rows[r][c]), thr)
        rest = [abs(v) for r, row in enumerate(rows) if r not in pivot_rows for v in row]
        if rest:
            self.record(f"{name} largest rejected entry", max(rest), thr)
        return t, pivot_rows, pivot_cols

    def rank(self, name, rows):
        return len(self.reduce(name, rows)[1])

    def nonzero(self, name, value):
        self.record(name, value, self.tol.zero_tol)
        return abs(value) > self.tol.zero_tol

    def fold_test(self, det_b0, eta_hess, kern):
        """(h(0), the rank of dlambda(0), the inertia of K if h(0) is above zero_tol else None)."""
        h0 = det_b0 ** len(kern) * eliminate(kern)[0]
        nd_rank = self.rank("nondegeneracy", [[det_b0 * e for e in row] for row in eta_hess])
        if not self.nonzero("h", h0):
            return h0, nd_rank, None
        k = np.array(kern, dtype=float)
        eigs = np.linalg.eigvalsh(0.5 * (k + k.T))
        zero_tol = self.tol.zero_tol
        self.record("hessian smallest |eig|", float(np.min(np.abs(eigs))), zero_tol)
        pos, neg = int(np.sum(eigs > zero_tol)), int(np.sum(eigs < -zero_tol))
        return h0, nd_rank, (pos, neg, len(kern) - pos - neg)

    def theta_column(self, m0):
        """The column of adj(M(0)) with the largest entry, if that is above zero_tol."""
        size = len(m0)
        adj = adjugate(m0, 1.0, 0.0)
        norms = [max(abs(adj[r][c]) for r in range(size)) for c in range(size)]
        best = max(range(size), key=norms.__getitem__)
        self.record("adjugate column", norms[best], self.tol.zero_tol)
        return best if norms[best] > self.tol.zero_tol else None


def _monomials(terms, degree, m):
    """A term count capped by C(degree+m, m), the monomials of that degree in m variables."""
    return min(terms, math.comb(degree + m, m))


def _frame_size(first, names):
    """A bound on the terms of det B and of each eta coefficient, before the frame is built.

    Each is a sum of products of one first derivative of each of f_1, ...,
    f_{n-1}, so its terms are at most the product over those components of
    their derivatives' term counts, summed, and its degree the sum of their
    largest degrees.
    """
    terms, degree = 1, 0
    for f in first:
        grads = [f.derivative(v) for v in names]
        terms *= sum(len(g.terms) for g in grads)
        degree += max(g.degree() for g in grads)
    return _monomials(terms, degree, len(names))


def _chart_size(frame, f_n, names):
    """A bound on the terms of each chart lambda = det B * eta f_n, before it is expanded."""
    m, det_b = len(names), frame.pivot_minor
    grads = [f_n.derivative(v) for v in names]
    size = 0
    for eta in frame.eta:
        pairs = [(c, g) for c, g in zip(eta.coefficients, grads) if not c.is_zero()]
        degree = max((c.degree() + g.degree() for c, g in pairs), default=0)
        eta_fn = _monomials(sum(len(c.terms) * len(g.terms) for c, g in pairs), degree, m)
        size = max(size, _monomials(len(det_b.terms) * eta_fn, det_b.degree() + degree, m))
    return size


class _FloatPipeline:
    """The float copy of a germ and the lambdas of its chart at 0, with their gradients.

    The chart is `normalize`'s with `_Thresholds` pivots, kept at rank n
    too: the projection solves its lambdas wherever the germ is regular at 0.
    Where the Jacobian at 0 has rank below n-1 there is no chart, and where
    `_frame_size` or `_chart_size` exceeds CHART_TERM_BOUND it is not built:
    `lambdas` is None and `no_chart` says why.  Such a germ can be
    classified but not projected.
    """

    def __init__(self, germ: MapGerm, tol: Tolerances):
        if germ.uses_parameters():
            raise ValueError("bind parameters before numeric work")
        self.tol = tol
        ctx = germ.context
        self.germ = MapGerm(ctx, tuple(
            p.map_coefficients(float) for p in germ.components
        ))
        n = germ.n
        t, pivot_rows, pivot_cols = _Thresholds(tol).reduce(
            "corank", self.germ.linear_coefficients())
        self.lambdas, self.no_chart = None, None
        if len(pivot_rows) < n - 1:
            self.no_chart = "the chart at 0 needs a Jacobian of rank at least n-1 there"
            return
        ng = normalized(self.germ, t, pivot_rows[: n - 1], pivot_cols[: n - 1], exact=False)
        names, comps = ctx.source_names, ng.germ.components
        if (size := _frame_size(comps[:-1], names)) <= CHART_TERM_BOUND:
            frame = cramer_frame(ng.germ, ng.pivot_names)
            size = _chart_size(frame, comps[-1], names)
        if size > CHART_TERM_BOUND:
            self.no_chart = (f"the chart at 0 may need polynomials of {size} terms, "
                             f"above CHART_TERM_BOUND = {CHART_TERM_BOUND}")
            return
        self.lambdas = lambdas_for_frame(ng.germ, frame).lambdas
        src = ctx.source_indices
        columns = list(self.lambdas) + [
            lam.derivative(v) for lam in self.lambdas for v in ctx.source_names]
        # the exponent table is read once per pipeline: unpack it here
        columns = [{tuple(e[i] for i in src): c for e, c in d.items()} for d in columns]
        exps = list(dict.fromkeys(e for d in columns for e in d))
        # one row per term: its exponents in E, and in C its coefficient in
        # each lambda, then in each d lambda_j / dx_i (j-major)
        self.exponents = np.array(exps, dtype=int).reshape(len(exps), len(src))
        self.coefficients = np.array(
            [[d.get(e, 0.0) for d in columns] for e in exps]).reshape(len(exps), len(columns))

    def _evaluate(self, x, cols):
        """The columns `cols` of the coefficient matrix, summed at each row of x.

        The sum accumulates term by term in the pipeline's term order, with
        elementwise numpy only, so the bits of a row do not depend on the
        other rows.
        """
        powers = [np.ones_like(x)]
        for _ in range(int(self.exponents.max(initial=0))):
            powers.append(powers[-1] * x)
        powers = np.stack(powers)
        monomials = powers[self.exponents[:, 0], :, 0]
        for i in range(1, x.shape[1]):
            monomials = monomials * powers[self.exponents[:, i], :, i]
        coef = self.coefficients[:, cols]
        terms = monomials[:, :, None] * coef[:, None, :]
        out = np.zeros(terms.shape[1:])
        for term in terms:
            out += term
        return out

    def values(self, x):
        """The lambdas at each row of x: a (k, s) array."""
        return self._evaluate(x, slice(len(self.lambdas)))

    def jacobians(self, x):
        """The Jacobian of the lambdas at each row of x: a (k, s, m) array."""
        s = len(self.lambdas)
        return self._evaluate(x, slice(s, None)).reshape(len(x), s, x.shape[1])

    def project(self, seeds):
        """Gauss-Newton from each row of `seeds`: its point tuple, or a ProjectionError.

        Every seed keeps its own state: it converges once its residual norm is
        within residual_tol at the start of an iteration, stalls after 40
        halvings of its step, and fails after max_newton_iters iterations.
        """
        tol = self.tol
        out = [None] * len(seeds)
        live, x = np.arange(len(seeds)), seeds
        r = self.values(x)
        for it in range(tol.max_newton_iters + 1):
            nrm = _norms(r)
            done = nrm <= tol.residual_tol
            for i, p in zip(live[done], x[done]):
                out[i] = tuple(p.tolist())
            if it == tol.max_newton_iters:
                for i, v in zip(live[~done], nrm[~done]):
                    out[i] = ProjectionError(f"no convergence: residual {v:.3e}")
                break
            live, x, r, nrm = live[~done], x[~done], r[~done], nrm[~done]
            if not len(live):
                break
            jac = self.jacobians(x)
            # a non-finite Jacobian gives no step, so its seed stalls
            jac[~np.isfinite(jac).all(axis=(1, 2))] = 0.0
            step = _min_norm_steps(jac, -r)
            alpha = np.ones(len(x))
            pending = np.arange(len(x))
            for _halving in range(40):
                trial = x[pending] + alpha[pending, None] * step[pending]
                rt = self.values(trial)
                better = _norms(rt) < nrm[pending]
                x[pending[better]], r[pending[better]] = trial[better], rt[better]
                pending = pending[~better]
                if not len(pending):
                    break
                alpha[pending] *= 0.5
            for i, v in zip(live[pending], nrm[pending]):
                out[i] = ProjectionError(f"stalled at residual {v:.3e}")
            if len(pending):
                live, x, r = (np.delete(a, pending, axis=0) for a in (live, x, r))
        return out


def _pipeline(germ: MapGerm, tol: Tolerances) -> _FloatPipeline:
    """The float pipeline of `germ`, shared by every call with equal germ and tolerances.

    The key also holds each component's term order, which fixes the order of
    every float sum, so a shared pipeline gives the bits a fresh one would.
    """
    return _shared_pipeline(germ, tol, tuple(tuple(p.exponents()) for p in germ.components))


@lru_cache(maxsize=16)
def _shared_pipeline(germ, tol, term_order):
    return _FloatPipeline(germ, tol)


# -- public operations ----------------------------------------------------------

def project_to_singular_locus(germ: MapGerm, seed, tol: Tolerances = None):
    """Gauss-Newton projection onto the zero set of the determinantal equations.

    The system is underdetermined, so each step is the minimum-norm
    least-squares solution, halved until the residual decreases.  `seed` is
    one point of m coordinates, or a (k, m) batch of them run together.  One
    seed gives its point as a tuple and raises ProjectionError when the
    residual tolerance is not met in time; a batch gives a list of k points,
    with `None` for each seed that would raise.
    """
    tol = tol or Tolerances()
    pipe = _pipeline(germ, tol)
    if pipe.lambdas is None:
        raise ValueError(pipe.no_chart)
    x = np.array(seed, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != germ.m:
        raise ValueError(f"seed needs {germ.m} coordinates")
    with np.errstate(over="ignore", invalid="ignore"):
        # a seed whose residual or Jacobian is not finite stalls
        points = pipe.project(x.reshape(-1, germ.m))
    if x.ndim == 2:
        return [None if isinstance(p, ProjectionError) else p for p in points]
    if isinstance(points[0], ProjectionError):
        raise points[0]
    return points[0]


def numeric_classify(germ: MapGerm, point, tol: Tolerances = None) -> NumericVerdict:
    """Thresholded classification at a float point: `classify`'s stages on the float jet there.

    The residual is the norm of the chart's lambdas at the point, None where
    the germ has no chart at 0.  A point where the jet, the residual or a
    decision overflows the float range raises FloatRangeError, a ValueError.
    """
    tol = tol or Tolerances()
    pipe = _pipeline(germ, tol)
    x = tuple(float(v) for v in point)
    jet = pipe.germ.translate(x).truncated(germ.n + 1)
    if not all(math.isfinite(c) for p in jet.components for c in p.coefficients()):
        raise FloatRangeError("the jet at the point is not finite in floats")
    residual = None
    if pipe.lambdas is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            residual = float(_norms(pipe.values(np.array([x])))[0])
        if not math.isfinite(residual):
            raise FloatRangeError("the residual at the point is not finite in floats")
    decide = _Thresholds(tol)
    label, _ = _classify_at_origin(jet, decide)
    if any(m.inconclusive for m in decide.margins):
        label = Label("Inconclusive")
    return NumericVerdict(point=x, label=label, margins=decide.margins, residual=residual)


def scan_region(germ: MapGerm, box, grid: int, tol: Tolerances = None):
    """Grid-seeded projection scan of the singular locus inside a box.

    Seeds a per-axis grid, projects every seed, drops converged points that
    left the box, deduplicates the rest (cluster radius 10x the residual
    tolerance), and classifies each representative.
    Results are ordered by point coordinates, so the scan is deterministic.
    A germ without a chart at 0 raises ValueError, as in the projection.
    """
    tol = tol or Tolerances()
    if grid <= 0:
        return []
    axes = [np.linspace(float(lo), float(hi), grid) for lo, hi in box]
    seeds = np.array(list(product(*axes)), dtype=float)
    pad = 1e-9
    converged = [
        p
        for p in project_to_singular_locus(germ, seeds, tol)
        if p is not None
        and all(float(lo) - pad <= v <= float(hi) + pad for v, (lo, hi) in zip(p, box))
    ]
    converged.sort()
    radius = 10 * tol.residual_tol
    reps = []
    for p in converged:
        # reps is sorted by its first coordinate: only a rep within radius of
        # p[0] can be within radius of p
        near = takewhile(lambda r: r[0] >= p[0] - radius, reversed(reps))
        if any(math.dist(p, r) <= radius for r in near):
            continue
        reps.append(p)
    return [numeric_classify(germ, p, tol) for p in reps]
