"""Floating-point companion to the exact classifier.

Projects seed points onto the singular locus by Gauss-Newton on the
determinantal equations of the chart at 0, and classifies a point by
running the exact classifier's stages (`criteria._classify_at_origin`) on the
float (n+1)-jet there.  Where `classify` decides exactly, `_Thresholds`
compares a value with its tolerance and records a `Margin`.  The exact
classifier remains the authority; any decision within a factor of ten of its
threshold makes the verdict Inconclusive.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _termops_py as fops  # term-dict ops are coefficient-generic; reused for floats
from .criteria import Label, _classify_at_origin, lambdas_for_frame
from .germ import MapGerm, cramer_frame, normalized
from .linalg import eliminate, row_reduce
from .polynomial import Polynomial


@dataclass(frozen=True)
class Tolerances:
    residual_tol: float = 1e-10   # |lambda| for membership in the singular locus
    rank_tol: float = 1e-6        # pivot threshold for numeric rank
    zero_tol: float = 1e-8        # threshold for "value at the point is zero"
    max_newton_iters: int = 50

    def __post_init__(self):
        if min(self.residual_tol, self.rank_tol, self.zero_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_newton_iters <= 0:
            raise ValueError("max_newton_iters must be positive")


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

    @property
    def distance(self):
        return abs(abs(self.value) - self.threshold)


@dataclass
class NumericVerdict:
    point: tuple
    label: Label
    margins: list = field(default_factory=list)
    residual: float = 0.0


class ProjectionError(RuntimeError):
    """Gauss-Newton failed to reach the residual tolerance."""


def _eval(d, point):
    total = 0.0
    for exps, coeff in d.items():
        t = coeff
        for e, v in zip(exps, point):
            if e:
                t *= v ** e
        total += t
    return total


def _scale(a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 1e-300
    return max(float(np.linalg.norm(r)) for r in a) or 1e-300


class _Thresholds:
    """The decisions of `criteria`'s stages on floats, each recorded as a Margin."""

    exact = False
    fmt = float

    def __init__(self, tol: Tolerances):
        self.tol = tol
        self.margins = []

    def reduce(self, name, rows):
        """Row elimination on the largest entry of each column above rank_tol times the scale."""
        rows = [[float(v) for v in row] for row in rows]
        thr = self.tol.rank_tol * _scale(rows)

        def largest(rows, col, free):
            best, r0 = max((abs(rows[r][col]), r) for r in free)
            return r0 if best > thr else None

        t, pivot_rows, pivot_cols = row_reduce(rows, largest)
        for k, (r, c) in enumerate(zip(pivot_rows, pivot_cols), 1):
            self.margins.append(Margin(f"{name} pivot {k}", abs(rows[r][c]), thr))
        rest = [abs(v) for r, row in enumerate(rows) if r not in pivot_rows for v in row]
        if rest:
            self.margins.append(Margin(f"{name} largest rejected entry", max(rest), thr))
        return t, pivot_rows, pivot_cols

    def rank(self, name, rows):
        return len(self.reduce(name, rows)[1])

    def nonzero(self, name, value):
        self.margins.append(Margin(name, value, self.tol.zero_tol))
        return abs(value) > self.tol.zero_tol

    def signature(self, rows):
        k = np.array(rows, dtype=float)
        eigs = np.linalg.eigvalsh(0.5 * (k + k.T))
        zero_tol = self.tol.zero_tol
        self.margins.append(Margin("hessian smallest |eig|", float(np.min(np.abs(eigs))), zero_tol))
        pos, neg = int(np.sum(eigs > zero_tol)), int(np.sum(eigs < -zero_tol))
        return pos, neg, len(rows) - pos - neg

    def theta_column(self, m0):
        """The column of adj(M(0)) with the largest entry, if that is above zero_tol."""
        size = len(m0)
        adj = eliminate(m0, [[float(r == c) for c in range(size)] for r in range(size)])[1]
        norms = [max(abs(adj[r][c]) for r in range(size)) for c in range(size)]
        best = max(range(size), key=norms.__getitem__)
        self.margins.append(Margin("adjugate column", norms[best], self.tol.zero_tol))
        return best if norms[best] > self.tol.zero_tol else None


class _FloatPipeline:
    """The float copy of a germ and the lambdas of its chart at 0, with their gradients.

    The chart is `normalize`'s with `_Thresholds` pivots, kept at rank n
    too: the projection solves its lambdas wherever the germ is regular at 0.
    """

    def __init__(self, germ: MapGerm, tol: Tolerances):
        if germ.uses_parameters():
            raise ValueError("bind parameters before numeric work")
        self.tol = tol
        ctx = germ.context
        self.germ = MapGerm(ctx, tuple(
            Polynomial(ctx, {e: float(c) for e, c in p.terms.items()}) for p in germ.components
        ))
        n = germ.n
        t, pivot_rows, pivot_cols = _Thresholds(tol).reduce(
            "corank", self.germ.linear_coefficients())
        if len(pivot_rows) < n - 1:
            raise ValueError("the chart at 0 needs a Jacobian of rank at least n-1 there")
        ng = normalized(self.germ, t, pivot_rows[: n - 1], pivot_cols[: n - 1], exact=False)
        self.lambdas = lambdas_for_frame(ng.germ, cramer_frame(ng.germ, ng.pivot_names)).lambdas
        src = ctx.source_indices
        self.terms = [{tuple(e[i] for i in src): c for e, c in lam.terms.items()}
                      for lam in self.lambdas]
        self.grads = [[fops.diff_terms(d, i) for i in range(len(src))] for d in self.terms]


def _pipeline(germ: MapGerm, tol: Tolerances) -> _FloatPipeline:
    """The float pipeline of `germ`, shared by every call with equal germ and tolerances.

    The key also holds each component's term order, which fixes the order of
    every float sum, so a shared pipeline gives the bits a fresh one would.
    """
    return _shared_pipeline(germ, tol, tuple(tuple(p.terms) for p in germ.components))


@lru_cache(maxsize=16)
def _shared_pipeline(germ, tol, term_order):
    return _FloatPipeline(germ, tol)


# -- public operations ----------------------------------------------------------

def project_to_singular_locus(germ: MapGerm, seed, tol: Tolerances = None):
    """Gauss-Newton projection onto the zero set of the determinantal equations.

    The system is underdetermined, so each step is the minimum-norm
    least-squares solution, halved until the residual decreases.  Raises
    ProjectionError when the residual tolerance is not met in time.
    """
    tol = tol or Tolerances()
    pipe = _pipeline(germ, tol)
    lam, grads = pipe.terms, pipe.grads
    x = np.array([float(v) for v in seed], dtype=float)
    if x.shape != (germ.m,):
        raise ValueError(f"seed needs {germ.m} coordinates")

    def resid(pt):
        pt = pt.tolist()
        return np.array([_eval(d, pt) for d in lam])

    r = resid(x)
    for _ in range(tol.max_newton_iters):
        nrm = float(np.linalg.norm(r))
        if nrm <= tol.residual_tol:
            return tuple(float(v) for v in x)
        xl = x.tolist()
        jac = np.array([[_eval(g, xl) for g in gr] for gr in grads])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        alpha = 1.0
        for _halving in range(40):
            xn = x + alpha * step
            rn = resid(xn)
            if float(np.linalg.norm(rn)) < nrm:
                break
            alpha *= 0.5
        else:
            raise ProjectionError(f"stalled at residual {nrm:.3e}")
        x, r = xn, rn
    if float(np.linalg.norm(r)) <= tol.residual_tol:
        return tuple(float(v) for v in x)
    raise ProjectionError(f"no convergence: residual {float(np.linalg.norm(r)):.3e}")


def numeric_classify(germ: MapGerm, point, tol: Tolerances = None) -> NumericVerdict:
    """Thresholded classification at a float point: `classify`'s stages on the float jet there."""
    tol = tol or Tolerances()
    pipe = _pipeline(germ, tol)
    x = tuple(float(v) for v in point)
    residual = float(np.linalg.norm([_eval(d, x) for d in pipe.terms]))
    decide = _Thresholds(tol)
    label, _ = _classify_at_origin(pipe.germ.translate(x).truncated(germ.n + 1), decide)
    if any(m.inconclusive for m in decide.margins):
        label = Label("Inconclusive")
    return NumericVerdict(point=x, label=label, margins=decide.margins, residual=residual)


def scan_region(germ: MapGerm, box, grid: int, tol: Tolerances = None):
    """Grid-seeded projection scan of the singular locus inside a box.

    Seeds a per-axis grid, projects every seed, drops converged points that
    left the box, deduplicates the rest (cluster radius 10x the residual
    tolerance), and classifies each representative.
    Results are ordered by point coordinates, so the scan is deterministic.
    """
    tol = tol or Tolerances()
    if grid <= 0:
        return []
    axes = [np.linspace(float(lo), float(hi), grid) for lo, hi in box]
    seeds = [()]
    for ax in axes:
        seeds = [s + (float(v),) for s in seeds for v in ax]
    converged = []
    for s in seeds:
        try:
            converged.append(project_to_singular_locus(germ, s, tol))
        except ProjectionError:
            continue
    pad = 1e-9
    converged = [
        p
        for p in converged
        if all(float(lo) - pad <= v <= float(hi) + pad for v, (lo, hi) in zip(p, box))
    ]
    converged.sort()
    radius = 10 * tol.residual_tol
    reps = []
    for p in converged:
        if any(math.dist(p, r) <= radius for r in reps):
            continue
        reps.append(p)
    return [numeric_classify(germ, p, tol) for p in reps]
