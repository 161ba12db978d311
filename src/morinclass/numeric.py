"""Floating-point companion to the exact classifier.

Projects seed points onto the singular locus by Gauss-Newton on the
determinantal equations and classifies with thresholds, mirroring the exact
pipeline on float coefficient dicts.  The exact classifier remains the
authority; any decision within a factor of ten of its threshold makes the
verdict Inconclusive.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _termops_py as fops  # term-dict ops are coefficient-generic; reused for floats
from .criteria import Label
from .germ import MapGerm


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

    @property
    def inconclusive(self):
        return self.label.kind == "Inconclusive"


class ProjectionError(RuntimeError):
    """Gauss-Newton failed to reach the residual tolerance."""


# -- float term-dict helpers --------------------------------------------------

def _eval(d, point):
    total = 0.0
    for exps, coeff in d.items():
        t = coeff
        for e, v in zip(exps, point):
            if e:
                t *= v ** e
        total += t
    return total


def _grad(d, m):
    return [fops.diff_terms(d, i) for i in range(m)]


def _apply_field(field_coeffs, d, m):
    acc = {}
    for c in range(m):
        fc = field_coeffs[c]
        if not fc:
            continue
        acc = fops.add_terms(acc, fops.mul_terms(fc, fops.diff_terms(d, c)))
    return acc


def _sum_dicts(dicts):
    acc = {}
    for d in dicts:
        acc = fops.add_terms(acc, d)
    return acc


def _det_dicts(rows):
    n = len(rows)
    if n == 1:
        return dict(rows[0][0])
    if n == 2:
        return fops.sub_terms(
            fops.mul_terms(rows[0][0], rows[1][1]),
            fops.mul_terms(rows[0][1], rows[1][0]),
        )
    acc = {}
    for c in range(n):
        minor = [[rows[r][cc] for cc in range(n) if cc != c] for r in range(1, n)]
        term = fops.mul_terms(rows[0][c], _det_dicts(minor))
        acc = fops.add_terms(acc, term if c % 2 == 0 else fops.neg_terms(term))
    return acc


def _adj_dicts(rows, m):
    n = len(rows)
    if n == 1:
        return [[{(0,) * m: 1.0}]]
    out = [[None] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            minor = [
                [rows[i][j] for j in range(n) if j != r]
                for i in range(n) if i != c
            ]
            cof = _det_dicts(minor)
            out[r][c] = cof if (r + c) % 2 == 0 else fops.neg_terms(cof)
    return out


def _scale(a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 1e-300
    return max(float(np.linalg.norm(r)) for r in a) or 1e-300


def _numeric_rank(a, rank_tol):
    """Scaled partial-pivot elimination rank; returns (rank, margin entries)."""
    a = np.array(a, dtype=float)
    if a.size == 0:
        return 0, []
    thr = rank_tol * _scale(a)
    rows, cols = a.shape
    used = []
    rank = 0
    margins = []
    for c in range(cols):
        cand = [(abs(a[r, c]), r) for r in range(rows) if r not in used]
        if not cand:
            break
        best, r0 = max(cand)
        if best <= thr:
            continue
        margins.append((best, f"pivot {rank + 1}"))
        rank += 1
        used.append(r0)
        for r in range(rows):
            if r in used:
                continue
            a[r] = a[r] - (a[r, c] / a[r0, c]) * a[r0]
    rest = [abs(a[r, c]) for r in range(rows) if r not in used for c in range(cols)]
    if rest:
        margins.append((max(rest), "largest rejected entry"))
    return rank, margins


# -- the float pipeline --------------------------------------------------------

class _FloatPipeline:
    """Frame, lambda and Hessian machinery on float term dicts."""

    def __init__(self, germ: MapGerm, tol: Tolerances):
        if germ.uses_parameters():
            raise ValueError("bind parameters before numeric work")
        self.germ = germ
        self.tol = tol
        self.m = germ.m
        self.n = germ.n
        src = germ.context.source_indices
        self.comps = []
        for p in germ.components:
            d = {}
            for exps, coeff in p.terms.items():
                key = tuple(exps[i] for i in src)
                d[key] = d.get(key, 0.0) + float(coeff)
            self.comps.append({k: v for k, v in d.items() if v != 0.0})
        self.grads = [_grad(c, self.m) for c in self.comps]
        self._base = None
        self._base_grads = None

    def jacobian_at(self, point):
        return np.array(
            [[_eval(g, point) for g in grads] for grads in self.grads], dtype=float
        )

    def local_data(self, point):
        """Rotated components, kernel frame and lambdas pivoted at `point`."""
        j = self.jacobian_at(point)
        t, order, piv_cols = _target_rotation(j, self.tol.rank_tol)
        comps = []
        for r in range(self.n):
            d = {}
            for c in range(self.n):
                w = t[r, c]
                if w != 0.0:
                    d = fops.add_terms(d, fops.scale_terms(self.comps[order[c]], w))
            comps.append(d)
        grads = [_grad(c, self.m) for c in comps]
        nonpiv = [c for c in range(self.m) if c not in piv_cols]
        if self.n == 1:
            det_b = {(0,) * self.m: 1.0}
            adj = None
        else:
            b = [[grads[i][c] for c in piv_cols] for i in range(self.n - 1)]
            det_b = _det_dicts(b)
            adj = _adj_dicts(b, self.m)
        etas = []
        for v in nonpiv:
            coeffs = [{} for _ in range(self.m)]
            coeffs[v] = det_b
            if self.n > 1:
                w = [grads[i][v] for i in range(self.n - 1)]
                for jdx, pc in enumerate(piv_cols):
                    acc = {}
                    for k in range(self.n - 1):
                        acc = fops.add_terms(acc, fops.mul_terms(adj[jdx][k], w[k]))
                    coeffs[pc] = fops.neg_terms(acc)
            etas.append(coeffs)
        # lambda_i = det(B) * eta_i f_n, as in criteria.lambdas_for_frame
        lambdas = [fops.mul_terms(det_b, _apply_field(eta, comps[-1], self.m)) for eta in etas]
        return {"comps": comps, "etas": etas, "lambdas": lambdas, "piv_cols": piv_cols}

    def base_lambdas(self):
        if self._base is None:
            self._base = self.local_data([0.0] * self.m)
        return self._base["lambdas"]

    def base_lambda_grads(self):
        if self._base_grads is None:
            self._base_grads = [_grad(d, self.m) for d in self.base_lambdas()]
        return self._base_grads


def _pipeline(germ: MapGerm, tol: Tolerances) -> _FloatPipeline:
    """The float pipeline of `germ`, shared by every call with equal germ and tolerances.

    The key also holds each component's term order, which fixes the order of
    every float sum, so a shared pipeline gives the bits a fresh one would.
    """
    return _shared_pipeline(germ, tol, tuple(tuple(p.terms) for p in germ.components))


@lru_cache(maxsize=16)
def _shared_pipeline(germ, tol, term_order):
    return _FloatPipeline(germ, tol)


def _target_rotation(j, rank_tol):
    """Invertible row mix of j putting the most dependent row last.

    Returns (T, row order, pivot columns): T applied to the components in
    `order` gives n-1 rows independent at the point plus one critical row.
    """
    n, m = j.shape
    a = j.copy().astype(float)
    t = np.eye(n)
    thr = rank_tol * _scale(j)
    used = []
    piv_cols = []
    for c in range(m):
        if len(used) == n - 1:
            break
        cand = [(abs(a[r, c]), r) for r in range(n) if r not in used]
        if not cand:
            break
        best, r0 = max(cand)
        if best <= thr:
            continue
        used.append(r0)
        piv_cols.append(c)
        for r in range(n):
            if r in used:
                continue
            f = a[r, c] / a[r0, c]
            a[r] = a[r] - f * a[r0]
            t[r] = t[r] - f * t[r0]
    rest = [r for r in range(n) if r not in used]
    order = used + rest
    tt = np.array([t[r] for r in order])
    return tt, order, piv_cols


# -- public operations ----------------------------------------------------------

def project_to_singular_locus(germ: MapGerm, seed, tol: Tolerances = None):
    """Gauss-Newton projection onto the zero set of the determinantal equations.

    The system is underdetermined, so each step is the minimum-norm
    least-squares solution, halved until the residual decreases.  Raises
    ProjectionError when the residual tolerance is not met in time.
    """
    tol = tol or Tolerances()
    pipe = _pipeline(germ, tol)
    lam = pipe.base_lambdas()
    grads = pipe.base_lambda_grads()
    x = np.array([float(v) for v in seed], dtype=float)
    if x.shape != (pipe.m,):
        raise ValueError(f"seed needs {pipe.m} coordinates")

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
    """Threshold classification at a float point, mirroring the exact pipeline."""
    tol = tol or Tolerances()
    pipe = _pipeline(germ, tol)
    x = tuple(float(v) for v in point)
    margins = []
    residual = float(np.linalg.norm([_eval(d, x) for d in pipe.base_lambdas()]))

    j = pipe.jacobian_at(x)
    rank, pm = _numeric_rank(j, tol.rank_tol)
    thr_j = tol.rank_tol * _scale(j)
    for v, nm in pm:
        margins.append(Margin("corank " + nm, v, thr_j))
    if rank == pipe.n:
        return _finish(x, Label("Regular"), margins, residual)
    if rank < pipe.n - 1:
        return _finish(x, Label("CorankHigh"), margins, residual)

    data = pipe.local_data(x)
    lambdas, etas, comps = data["lambdas"], data["etas"], data["comps"]
    size = pipe.m - pipe.n + 1

    dl = np.array([[_eval(g, x) for g in _grad(d, pipe.m)] for d in lambdas])
    nd_rank, nd_m = _numeric_rank(dl, tol.rank_tol)
    thr_dl = tol.rank_tol * _scale(dl)
    for v, nm in nd_m:
        margins.append(Margin("nondegeneracy " + nm, v, thr_dl))

    h_rows = [[_apply_field(eta, lam, pipe.m) for eta in etas] for lam in lambdas]
    h = _det_dicts(h_rows)
    h_at = _eval(h, x)
    margins.append(Margin("h", h_at, tol.zero_tol))

    if abs(h_at) > tol.zero_tol:
        first = [_apply_field(ei, comps[-1], pipe.m) for ei in etas]
        hess = np.array(
            [[_eval(_apply_field(ej, fi, pipe.m), x) for ej in etas] for fi in first]
        )
        hess = 0.5 * (hess + hess.T)
        eigs = np.linalg.eigvalsh(hess)
        pos = int(np.sum(eigs > tol.zero_tol))
        neg = int(np.sum(eigs < -tol.zero_tol))
        margins.append(Margin("hessian smallest |eig|", float(np.min(np.abs(eigs))), tol.zero_tol))
        if pos + neg == size:
            return _finish(x, Label("Fold", k=1, signature=(pos, neg)), margins, residual)
        return _finish(x, Label("Inconclusive"), margins, residual)

    if nd_rank < size:
        return _finish(x, Label("Degenerate", reason="NotNondegenerate"), margins, residual)

    adj = _adj_dicts(h_rows, pipe.m)
    col_norms = [
        max(abs(_eval(adj[r][c], x)) for r in range(size)) for c in range(size)
    ]
    best = max(range(size), key=lambda c: col_norms[c])
    margins.append(Margin("adjugate column", col_norms[best], tol.zero_tol))
    if col_norms[best] <= tol.zero_tol:
        return _finish(x, Label("Degenerate", reason="Not2Nondegenerate"), margins, residual)
    theta = [
        _sum_dicts(fops.mul_terms(adj[i][best], etas[i][c]) for i in range(size))
        for c in range(pipe.m)
    ]
    derivs = [h]
    for _ in range(pipe.n - 1):
        derivs.append(_apply_field(theta, derivs[-1], pipe.m))
    k = None
    for jdx in range(1, pipe.n):
        val = _eval(derivs[jdx], x)
        margins.append(Margin(f"h deriv {jdx}", val, tol.zero_tol))
        if abs(val) > tol.zero_tol:
            k = jdx + 1
            break
    if k is None:
        return _finish(x, Label("Degenerate", reason="AllDerivativesVanish"), margins, residual)
    stack = list(lambdas) + derivs[: k - 1]
    js = np.array([[_eval(g, x) for g in _grad(d, pipe.m)] for d in stack])
    rk, rm = _numeric_rank(js, tol.rank_tol)
    thr_js = tol.rank_tol * _scale(js)
    for v, nm in rm:
        margins.append(Margin("condition-b " + nm, v, thr_js))
    if rk != pipe.m - pipe.n + k:
        return _finish(x, Label("Degenerate", reason="RankConditionFailed"), margins, residual)
    return _finish(x, Label("Morin", k=k), margins, residual)


def _finish(x, label, margins, residual):
    if label.kind != "Inconclusive" and any(m.inconclusive for m in margins):
        label = Label("Inconclusive")
    return NumericVerdict(point=x, label=label, margins=margins, residual=residual)


def scan_region(germ: MapGerm, box, grid: int, tol: Tolerances = None, clip_to_box=True):
    """Grid-seeded projection scan of the singular locus inside a box.

    Seeds a per-axis grid, projects every seed, deduplicates converged points
    (cluster radius 10x the residual tolerance), drops representatives that
    left the box (when clip_to_box), and classifies each representative.
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
    if clip_to_box:
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
