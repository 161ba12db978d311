"""Floating-point companion to the exact classifier.

Projects seed points onto the singular locus by Gauss-Newton on the
determinantal equations of the chart at 0, one seed or a whole batch at once
(a batch gives `None` where a single seed would fail), and classifies a point
by running the exact classifier's stages on the float (n+1)-jet there.
Where `classify` decides exactly, `_Thresholds` compares a value with its
tolerance and records a `Margin`.  The exact classifier remains the
authority; any decision within a factor of ten of its threshold makes the
verdict Inconclusive.

A scan classifies its representatives as one batch, and `numeric_classify`
is the batch of one.  The batch's jets come from one Taylor shift of the
float germ to all its points (`_TaylorShift`), each coefficient with the
bits `translate` gives it; a point runs `translate` itself only where its
normalized germ is read.  The fold test reads only df and the Hessian of
f_n at the point (`criteria` step 5), so the stages up to it run as stacked
numpy operations over all points (`_stacked_stages`), with the float
operations of each scalar stage in its order: every margin has the bits the
point gets from `criteria._classify_at_origin` with `_Thresholds`, whose
`reduce` and `fold_test` are the batch of one of the stacked `_reduce` and
`_fold_test`.  Each point's margins then go, in order, through
`_Thresholds.record`, and its fold test outcome to
`criteria._after_fold_test`, which labels it and builds a Morin candidate's
frame; the batch keeps the label alone and writes no trace record.

`Tolerances` holds the two thresholds a caller may set, `rank_tol` and
`zero_tol`; the projection's residual target and iteration limit are class
constants.  The chart is expanded symbolically, within
`_termops_py.MAX_TERM_PAIRS` term pairs: a germ whose frame and lambdas
would take more gets none.  It is classified, not projected.
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import product, takewhile
from typing import ClassVar

import numpy as np

from . import _termops_py as kernel
from .context import WorkLimitError
from .criteria import Label, _after_fold_test, kernel_hessian_at_origin, lambdas_for_frame
from .germ import MapGerm, check_dimensions, cramer_frame, normalized
from .linalg import adjugate, eliminate, float_power


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


def _python_max(values, use, later_ties=False):
    """Python's `max` over the used entries of each row of `values`, taken in order.

    Returns the maximum, its column and whether any entry was used.  An entry
    replaces the maximum where it is larger, or, with `later_ties`, equal, as
    `max` over (value, index) pairs does; so a NaN replaces none and stays
    only where it comes first.
    """
    k = values.shape[0]
    best, at, seen = np.zeros(k), np.full(k, -1), np.zeros(k, dtype=bool)
    for j in range(values.shape[1]):
        v, used = values[:, j], use[:, j]
        take = used & (~seen | ((v >= best) if later_ties else (v > best)))
        best, at, seen = np.where(take, v, best), np.where(take, j, at), seen | used
    return best, at, seen


def _scale(a):
    """The largest Euclidean row norm of each matrix of a stack (its last two axes), 1e-300 for 0.

    Each norm is `np.linalg.norm`'s to the bit (one BLAS dot per row) and
    the largest is taken as Python's `max` takes it.  An overflow is inf,
    which `_Thresholds.record` refuses.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(a[..., None, :] @ a[..., :, None])[..., 0, 0]
    flat = norms.reshape(-1, norms.shape[-1])
    largest = _python_max(flat, np.ones(flat.shape, dtype=bool))[0].reshape(norms.shape[:-1])
    return np.where(largest == 0, 1e-300, largest)


@dataclass
class _Reduction:
    """`_reduce` of each matrix of a stack: T, the pivots taken and the values of the margins."""

    t: np.ndarray           # (k, r, r): T times each matrix is its reduced rows
    pivot_rows: np.ndarray  # (k, min(r, c)): the row and column of each step, -1 past the rank
    pivot_cols: np.ndarray
    rank: np.ndarray
    pivots: np.ndarray      # |pivot| of each step
    free: np.ndarray        # (k, r): the rows left without a pivot
    rejected: np.ndarray    # the largest |entry| of those rows, where `has_rest`
    has_rest: np.ndarray
    threshold: np.ndarray

    def __getitem__(self, points):
        return _Reduction(*(getattr(self, f.name)[points] for f in fields(self)))

    def margins(self, i, name):
        """The (name, value, threshold) of each margin of matrix i, in `reduce`'s order."""
        thr = float(self.threshold[i])
        out = [(f"{name} pivot {j}", v, thr)
               for j, v in enumerate(self.pivots[i, :self.rank[i]].tolist(), 1)]
        if self.has_rest[i]:
            out.append((f"{name} largest rejected entry", float(self.rejected[i]), thr))
        return out


def _reduce(rows, rank_tol):
    """Row elimination of each matrix of a (k, r, c) stack, on its largest entries.

    Column by column, the pivot is the free row of largest |entry|, the last
    of equal ones, if that is above rank_tol times the matrix's `_scale`.
    Every other free row with a nonzero entry there then loses its multiple
    of the pivot row, and so does its row of T.  Each entry meets the same
    float operations in the same order as in a matrix reduced alone, so the
    bits do not depend on the rest of the stack, non-finite entries included.
    """
    rows = np.array(rows, dtype=float)
    k, nr, nc = rows.shape
    thr = rank_tol * _scale(rows)
    t = np.broadcast_to(np.eye(nr), (k, nr, nr)).copy()
    free = np.ones((k, nr), dtype=bool)
    steps = min(nr, nc)
    pivot_rows, pivot_cols = np.full((k, steps), -1), np.full((k, steps), -1)
    pivots, rank = np.zeros((k, steps)), np.zeros(k, dtype=int)
    with np.errstate(all="ignore"):
        for col in range(nc):
            if not free.any():
                break
            best, piv, seen = _python_max(np.abs(rows[:, :, col]), free, later_ties=True)
            took = np.flatnonzero(seen & (best > thr))
            if not len(took):
                continue
            p = piv[took]
            prow, trow = rows[took, p], t[took, p]
            entries = rows[took, :, col]
            update = free[took] & (entries != 0)
            update[np.arange(len(took)), p] = False
            f = (entries / prow[:, col, None])[:, :, None]
            update = update[:, :, None]
            rows[took] = np.where(update, rows[took] - f * prow[:, None, :], rows[took])
            t[took] = np.where(update, t[took] - f * trow[:, None, :], t[took])
            step = rank[took]
            pivot_rows[took, step], pivot_cols[took, step] = p, col
            pivots[took, step] = best[took]
            free[took, p] = False
            rank[took] += 1
        rejected, has_rest = np.zeros(k), free.any(axis=1) & (nc > 0)
        if has_rest.any():
            rejected = _python_max(np.abs(rows).reshape(k, nr * nc), np.repeat(free, nc, 1))[0]
    return _Reduction(t, pivot_rows, pivot_cols, rank, pivots, free, rejected, has_rest, thr)


def _sum_kept(terms, kept):
    """`linalg._dot`'s sum, in order, of the terms whose column of `kept` is set.

    Where none is, the first term alone, as `_cofactor`'s `or [0]` keeps it.
    """
    kept = kept.copy()
    kept[:, 0] |= ~kept.any(axis=1)
    total, seen = terms[0], kept[:, 0]
    for term, keep in zip(terms[1:], kept.T[1:]):
        total = np.where(keep, np.where(seen, total + term, term), total)
        seen = seen | keep
    return total


def _cofactor(a):
    """`linalg._cofactor`'s det(A) on a (k, s, s) stack.

    The same products and sums in the same order, each entry of the first
    row that `_cofactor` skips as zero left out here too, so every bit is
    that of `linalg.eliminate` on a block of at most 3x3.
    """
    size = a.shape[1]
    if size == 1:
        return a[:, 0, 0]
    below = a[:, 1:]
    minors = [_cofactor(below[:, :, [j for j in range(size) if j != c]]) for c in range(size)]
    return _sum_kept([a[:, 0, c] * (-d if c % 2 else d) for c, d in enumerate(minors)],
                     a[:, 0, :] != 0)


def _fold_test(det_b, eta_hess, kern, tol):
    """The fold test of `criteria` step 5 at each point of a stack, by `_Thresholds`' rules.

    Gives each point's margins, in `_Thresholds`' order, and the (h(0), rank,
    inertia) of `_Thresholds.fold_test`.  det K is `_cofactor`'s for s <= 3
    (on a scan's points about 80 times faster than `eliminate` one matrix at
    a time) and `eliminate`'s above; the inertia of K is that of its
    eigenvalues beyond zero_tol.
    """
    s = kern.shape[1]
    with np.errstate(all="ignore"):
        if s <= 3:
            det_k = _cofactor(kern).tolist()
        else:
            det_k = [eliminate(rows)[0] for rows in kern.tolist()]
        h0 = [float_power(d, s) * dk for d, dk in zip(det_b.tolist(), det_k)]
        nondegeneracy = _reduce(det_b[:, None, None] * eta_hess, tol.rank_tol)
        h = np.array(h0)
        fold = np.isfinite(h) & (np.abs(h) > tol.zero_tol)
        eigs = np.zeros((len(h0), s))
        if fold.any():
            k = kern[fold]
            eigs[fold] = np.linalg.eigvalsh(0.5 * (k + k.transpose(0, 2, 1)))
        smallest = np.min(np.abs(eigs), axis=1)
    pos = (eigs > tol.zero_tol).sum(axis=1).tolist()
    neg = (eigs < -tol.zero_tol).sum(axis=1).tolist()
    out = []
    for j, h in enumerate(h0):
        margins = nondegeneracy.margins(j, "nondegeneracy") + [("h", h, tol.zero_tol)]
        inertia = None
        if fold[j]:
            margins.append(("hessian smallest |eig|", float(smallest[j]), tol.zero_tol))
            inertia = pos[j], neg[j], s - pos[j] - neg[j]
        out.append((margins, (h, int(nondegeneracy.rank[j]), inertia)))
    return out


class _Thresholds:
    """The decisions of `criteria`'s stages on floats, each recorded as a Margin.

    `reduce` and `fold_test` are the batch of one of `_reduce` and `_fold_test`.
    """

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
        red = _reduce(np.array([rows], dtype=float), self.tol.rank_tol)
        for margin in red.margins(0, name):
            self.record(*margin)
        rank = red.rank[0]
        pivot_rows, pivot_cols = red.pivot_rows[0, :rank], red.pivot_cols[0, :rank]
        return red.t[0].tolist(), pivot_rows.tolist(), pivot_cols.tolist()

    def rank(self, name, rows):
        return len(self.reduce(name, rows)[1])

    def nonzero(self, name, value):
        self.record(name, value, self.tol.zero_tol)
        return abs(value) > self.tol.zero_tol

    def fold_test(self, det_b0, eta_hess, kern):
        """(h(0), the rank of dlambda(0), the inertia of K if h(0) is above zero_tol else None)."""
        stack = [np.array([a], dtype=float) for a in (det_b0, eta_hess, kern)]
        [(margins, outcome)] = _fold_test(*stack, self.tol)
        for margin in margins:
            self.record(*margin)
        return outcome

    def theta_column(self, m0):
        """The column of adj(M(0)) with the largest entry, if that is above zero_tol."""
        size = len(m0)
        adj = adjugate(m0, 1.0, 0.0)[1]
        norms = [max(abs(adj[r][c]) for r in range(size)) for c in range(size)]
        best = max(range(size), key=norms.__getitem__)
        self.record("adjugate column", norms[best], self.tol.zero_tol)
        return best if norms[best] > self.tol.zero_tol else None


class _FloatPipeline:
    """The float copy of a germ and the lambdas of its chart at 0, with their gradients.

    The chart is `normalize`'s with `_Thresholds` pivots, kept at rank n
    too: the projection solves its lambdas wherever the germ is regular at 0.
    Where the Jacobian at 0 has rank below n-1 there is no chart, and where
    the frame and lambdas would take more than MAX_TERM_PAIRS term pairs it
    is not built: `lambdas` is None and `no_chart` says why.  Such a germ
    can be classified but not projected.
    """

    def __init__(self, germ: MapGerm, tol: Tolerances):
        if germ.uses_parameters():
            raise ValueError("bind parameters before numeric work")
        self.tol = tol
        ctx = germ.context
        comps = []
        for i, p in enumerate(germ.components, start=1):
            try:
                comps.append(p.map_coefficients(float))
            except OverflowError:
                raise FloatRangeError(
                    f"component {i} has a coefficient beyond the float range") from None
        self.germ = MapGerm(ctx, tuple(comps))
        n = germ.n
        t, pivot_rows, pivot_cols = _Thresholds(tol).reduce(
            "corank", self.germ.linear_coefficients())
        self.lambdas, self.no_chart = None, None
        if len(pivot_rows) < n - 1:
            self.no_chart = "the chart at 0 needs a Jacobian of rank at least n-1 there"
            return
        ng = normalized(self.germ, t, pivot_rows[: n - 1], pivot_cols[: n - 1], exact=False)
        try:
            with kernel.work_limit(kernel.MAX_TERM_PAIRS):
                frame = cramer_frame(ng.germ, ng.pivot_names)
                self.lambdas = lambdas_for_frame(ng.germ, frame).lambdas
        except WorkLimitError:
            self.no_chart = (f"expanding the chart at 0 takes more than "
                             f"MAX_TERM_PAIRS = {kernel.MAX_TERM_PAIRS} term products")
            return
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

    @cached_property
    def shift(self):
        """The Taylor shift of the float germ to the (n+1)-jets at a stack of points."""
        return _TaylorShift(self.germ, self.germ.n + 1)

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

    The key also holds each component's packed keys in order, which fix the
    order of every float sum, and its cap, which `==` ignores: so a shared
    pipeline gives the bits and the errors a fresh one would.  A germ with no
    more source variables than components raises MalformedGermError, as in
    `classify`.
    """
    check_dimensions(germ.m, germ.n)
    return _shared_pipeline(germ, tol, tuple((tuple(p.terms), p.jet) for p in germ.components))


@lru_cache(maxsize=16)
def _shared_pipeline(germ, tol, terms_and_caps):
    return _FloatPipeline(germ, tol)


class _TaylorShift:
    """`translate` of a float germ at a stack of points, to the keys of degree at most `degree`.

    `kernel.shift_terms` replayed with each coordinate p_i a column of
    points, so every coefficient has the bits `translate(p)` gives it.  The
    plan, built once, lists each path of a term c x^beta to a key K <= beta:
    the entries of the rows (x_i + p_i)^beta_i it takes, in context order,
    those with K_i < beta_i (the top entry is the int 1, which multiplies
    nothing).  A call then
    - builds the rows by `mul_terms`' recurrence: entry j of (x + v)^e is
      entry j-1 of (x + v)^(e-1) plus v times its entry j.  An entry is 0
      only where v is finite, so 0 * v makes no NaN where `mul_terms`
      skips an entry it dropped, and two addends add alike in either order;
    - multiplies each path's coefficient through its entries in order, and
      drops it at its first product that is 0, as `shift_terms` does, or at
      its first entry that is 0, which the row of `shift_terms` does not
      hold: 0 * inf never forms, and a coordinate 0.0 or -0.0, whose rows
      are 0 below the top, adds nothing;
    - sums each key's paths in term order, with a dropped path adding -0.0.
      A key that is a term of the germ starts from that term's coefficient,
      the first to reach it and never multiplied; any other from +0.0;
    - gives the constant term f(p) - f(p): 0.0, or NaN where f(p) is not
      finite.
    A two-jet key that no path reaches is 0.0, the coefficient of an
    absent term.  The caller refuses a jet, as `translate` does.
    """

    def __init__(self, germ, degree):
        ctx = germ.context
        m, self.degree = len(ctx.source_indices), degree
        paths, raw = {}, {}  # keyed by (component, K): the paths in term order, a term's coefficient
        self.top = 1
        for c, p in enumerate(germ.components):
            for exps, coefficient in sorted(p.items()):  # in exponent-tuple order
                beta = [exps[i] for i in ctx.source_indices]
                self.top = max(self.top, *beta)
                lows = product(*(range(min(b, degree) + 1) for b in beta))
                for low in (low for low in lows if sum(low) <= degree):
                    entries = [(i, b, j) for i, (b, j) in enumerate(zip(beta, low)) if j < b]
                    if entries:
                        paths.setdefault((c, low), []).append((entries, coefficient))
                    else:
                        raw[c, low] = coefficient
        units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
        two = units + [tuple(map(sum, zip(a, b))) for i, a in enumerate(units) for b in units[i:]]
        found = [*paths, *raw, *((c, low) for c in range(germ.n) for low in [(0,) * m] + two)]
        # the keys with the most paths first: the r-th paths of keys make a prefix
        self.keys = sorted(dict.fromkeys(found), key=lambda key: -len(paths.get(key, ())))
        row = {key: r for r, key in enumerate(self.keys)}
        self.two_jet = np.array([[row[c, low] for low in two] for c in range(germ.n)])
        self.constants = np.array([row[c, (0,) * m] for c in range(germ.n)])
        self.raw_rows = np.array([row[key] for key in raw], dtype=int)
        self.raw_coefficients = np.array(list(raw.values()), dtype=float)
        ranked, self.ranks = [], []  # the paths by rank, then key; (start, keys) of each rank
        counts = [len(paths.get(key, ())) for key in self.keys]
        for r in range(counts[0]):
            keys = sum(count > r for count in counts)
            self.ranks.append((len(ranked), keys))
            ranked += [paths[key][r] for key in self.keys[:keys]]
        # the products run on the paths by depth, the deepest first, so that
        # those taking a d-th entry make a prefix
        deep = sorted(range(len(ranked)), key=lambda q: -len(ranked[q][0]))
        self.ranked = np.argsort(deep)
        deep = [ranked[q] for q in deep]
        self.coefficients = np.array([c for _, c in deep], dtype=float)
        # the table of a call holds the rows e = 1, 2, ... in turn, each entry
        # j as m rows, one per source variable
        first = [m * sum(min(f, degree + 1) for f in range(1, e)) for e in range(self.top + 1)]
        self.levels = [np.array([first[b] + j * m + i for i, b, j in
                                 (entries[d] for entries, _ in deep if len(entries) > d)], dtype=int)
                       for d in range(max([1] + [len(entries) for entries, _ in deep]))]

    def __call__(self, xs):
        """The coefficient of each of `keys` in `translate(x)` at each row x of xs: a (k, keys) array."""
        v = np.asarray(xs, dtype=float).T  # a row of points per source variable
        with np.errstate(all="ignore"):
            # entry j of each (x_i + v_i)^e, for j < e and j <= degree: none for e = 0
            level, ones, rows = np.empty((0,) + v.shape), np.ones((1,) + v.shape), []
            for e in range(1, self.top + 1):
                full = np.concatenate([level, ones]) if e <= self.degree + 1 else level
                prod = full * v
                level = np.concatenate([prod[:1], full[:-1] + prod[1:]])
                rows.append(level)
            table = np.concatenate([r.reshape(-1, v.shape[1]) for r in rows])
            paths = self.coefficients[:, None] * table[self.levels[0]]
            for at in self.levels[1:]:
                head, entry = paths[:len(at)], table[at]
                np.multiply(head, entry, out=head, where=head != 0)
                np.copyto(head, 0.0, where=entry == 0)
            np.copyto(paths, -0.0, where=paths == 0)
            paths = paths[self.ranked]
            out = np.zeros((len(self.keys), v.shape[1]))
            out[self.raw_rows] = self.raw_coefficients[:, None]
            for start, keys in self.ranks:
                out[:keys] += paths[start:start + keys]
            const = out[self.constants]
            out[self.constants] = const - const
        return out.T


def _kernel_hessians(coef, red, m):
    """`normalized` and `kernel_hessian_at_origin` at each corank-one point of maps to the plane.

    `coef` holds each component's two-jet coefficients (of each x_j, then of
    each x_a x_b, a <= b, source variables in order) and `red` their
    corank reduction.  Returns det B(0), E(0)^T H and K, and where their bits
    are surely the scalar stages'.  B is 1x1: det B(0) is the pivot entry of
    the first row of T f and adj(B) W its other linear entries, as
    `eliminate` gives them.  The rows of T f are plain sums here, where
    `normalized` skips a zero weight, drops a sum that cancels and leaves an
    absent term an int 0.  Those differ only in the sign of a zero, which the
    stages would read only through a zero det B(0).  There is none: `_reduce`
    never updates the pivot row of T, so det B(0) is the pivot entry itself,
    and T's other row takes a multiplier of modulus at most 1, so on the
    finite jets the batch admits every weight is finite.
    """
    k, s = len(coef), m - 1
    at, ks = np.arange(k), np.arange(s)
    weights = red.t[at[:, None], np.stack([red.pivot_rows[:, 0], np.argmax(red.free, axis=1)], 1)]
    acc = coef[:, None, 0] * weights[:, :, 0, None] + coef[:, None, 1] * weights[:, :, 1, None]
    pivot = red.pivot_cols[:, 0]
    other_cols = ks + (ks >= pivot[:, None])  # the columns but the pivot, in order
    det_b = acc[at, 0, pivot]
    e = np.zeros((k, s, m))
    e[at[:, None], ks, pivot[:, None]] = -np.take_along_axis(acc[:, 0], other_cols, 1)
    e[at[:, None], ks, other_cols] = det_b[:, None]
    hess = np.zeros((k, m, m))
    pairs = [(a, b) for a in range(m) for b in range(a, m)]
    for q, (a, b) in zip(acc[:, 1, m:].T, pairs):
        # the derivative of c x_a^2 is 2 c x_a, that of c x_a x_b is c x_b
        hess[:, a, b] = hess[:, b, a] = q * 2 if a == b else q
    eta_hess = np.zeros((k, s, m))
    for v in range(m):
        eta_hess = eta_hess + e[:, :, v, None] * hess[:, None, :, v]
    kern = np.zeros((k, s, s))
    for v in range(m):
        kern = kern + eta_hess[:, :, v, None] * e[:, None, :, v]
    return det_b, eta_hess, kern


def _stacked_stages(coef, jet, n, m, tol):
    """`_classify_at_origin` up to the fold test at each point of a stack, run on all at once.

    `coef` holds each point's two-jet coefficients, a row per component,
    and `jet(i)` gives point i's jet, which is asked for only where its
    normalized germ is read.  The corank reduction, `normalized`,
    `kernel_hessian_at_origin` and the fold test, each with the float
    operations of the scalar stage in its order.  Only maps to the plane,
    whose scans run many points, stack det B(0), E(0)^T H and K
    (`_kernel_hessians`); every corank-one point of another n takes them
    from `kernel_hessian_at_origin` on its normalized germ, on which a Morin
    candidate's frame is built too.
    A point's state: its margins as (name, value, threshold); Regular or
    CorankHigh where the corank decides, else None; the fold test's (h(0),
    rank, inertia); and a Morin candidate's normalized germ.
    """
    if not len(coef):
        return []
    s = m - n + 1
    with np.errstate(all="ignore"):
        corank = _reduce(coef[:, :, :m], tol.rank_tol)
        out = [(corank.margins(i, "corank"), Label("Regular" if rank == n else "CorankHigh"),
                None, None) for i, rank in enumerate(corank.rank.tolist())]
        sub = np.flatnonzero(corank.rank == n - 1)
        if not len(sub):
            return out

        def normal(i):
            pivots = corank.pivot_rows[i, :n - 1].tolist(), corank.pivot_cols[i, :n - 1].tolist()
            return normalized(jet(i).truncated(n + 1), corank.t[i].tolist(), *pivots, exact=False)

        k = len(sub)
        det_b, eta_hess, kern = (
            _kernel_hessians(coef[sub], corank[sub], m) if n == 2 else
            (np.zeros(k), np.zeros((k, s, m)), np.zeros((k, s, s))))
        ngs = {} if n == 2 else {j: normal(i) for j, i in enumerate(sub)}
        for j, ng in ngs.items():
            det_b[j], eta_hess[j], kern[j] = kernel_hessian_at_origin(ng)
        tests = _fold_test(det_b, eta_hess, kern, tol)
    for j, (i, (margins, outcome)) in enumerate(zip(sub, tests)):
        _, nd_rank, inertia = outcome
        # a Morin candidate: the polynomial frame decides
        ng = (ngs.get(j) or normal(i)) if inertia is None and nd_rank == s else None
        out[i] = out[i][0] + margins, None, outcome, ng
    return out


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


def _classify_batch(germ: MapGerm, points, tol: Tolerances):
    """`numeric_classify` at each of `points`, their stages run as one batch.

    The (n+1)-jets at all points come from one stacked Taylor shift
    (`_TaylorShift`), whose coefficients are `translate`'s to the bit: its
    finiteness test and its two-jet coefficients feed `_stacked_stages`, and
    only a point whose normalized germ is read (a Morin candidate or a
    corank-one point of n != 2) runs its own `translate`.  The residuals
    come from one evaluation of the chart, whose rows do not depend on each
    other.  The margins go through `_Thresholds.record` and the fold test
    outcome to `criteria._after_fold_test`, which labels it.  Every bit is
    the one that point gets alone, and a point whose jet, residual or
    decision is not finite raises the FloatRangeError it raises alone, the
    first such point in order.
    """
    pipe = _pipeline(germ, tol)
    n, m = germ.n, germ.m
    xs = [tuple(float(v) for v in point) for point in points]
    if not xs:
        return []
    germ._check_translate(xs)  # before the shift
    at = np.array(xs)
    jets = pipe.shift(at)
    finite = np.flatnonzero(np.isfinite(jets).all(axis=1))
    residuals = [None] * len(xs)
    if pipe.lambdas is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = _norms(pipe.values(at)).tolist()
    stages = _stacked_stages(jets[finite[:, None, None], pipe.shift.two_jet],
                             lambda j: pipe.germ.translate(xs[finite[j]]), n, m, tol)
    stacked = dict(zip(finite.tolist(), stages))
    verdicts = []
    for i, (x, residual) in enumerate(zip(xs, residuals)):
        if i not in stacked:
            raise FloatRangeError("the jet at the point is not finite in floats")
        if residual is not None and not math.isfinite(residual):
            raise FloatRangeError("the residual at the point is not finite in floats")
        decide = _Thresholds(tol)
        margins, label, outcome, ng = stacked[i]
        for margin in margins:
            decide.record(*margin)
        if outcome is not None:
            try:
                label = _after_fold_test(ng, decide, m - n + 1, *outcome)[0]
            except (OverflowError, ZeroDivisionError):
                # `linalg._dividers` on float jets: a power of a pivot's
                # constant term that leaves the float range
                raise FloatRangeError(
                    "a jet division in the frame or theta at the point is not finite in floats"
                ) from None
        if any(margin.inconclusive for margin in decide.margins):
            label = Label("Inconclusive")
        verdicts.append(NumericVerdict(x, label, decide.margins, residual))
    return verdicts


def numeric_classify(germ: MapGerm, point, tol: Tolerances = None) -> NumericVerdict:
    """Thresholded classification at a float point: `classify`'s stages on the float jet there.

    The batch of one of the scan's classification.  The residual is the norm
    of the chart's lambdas at the point, None where the germ has no chart at
    0.  A point where the jet, the residual or a decision overflows the float
    range raises FloatRangeError, a ValueError, and so does a germ with a
    coefficient beyond that range, naming its component.
    """
    return _classify_batch(germ, [point], tol or Tolerances())[0]


def scan_region(germ: MapGerm, box, grid: int, tol: Tolerances = None):
    """Grid-seeded projection scan of the singular locus inside a box.

    Seeds a per-axis grid, projects every seed, drops converged points that
    left the box, deduplicates the rest (cluster radius 10x the residual
    tolerance), and classifies the representatives as one batch.
    Results are ordered by point coordinates, so the scan is deterministic.
    A box without one (lo, hi) axis per source variable, lo < hi, raises
    ValueError, and so does a germ without a chart at 0, as in the projection.
    """
    tol = tol or Tolerances()
    names = germ.context.source_names
    if len(box) != len(names):
        raise ValueError(f"the scan box needs {len(names)} axes, one per source variable, "
                         f"got {len(box)}")
    for name, (lo, hi) in zip(names, box):
        if not float(lo) < float(hi):  # NaN fails too
            raise ValueError(f"the scan box axis {name} needs lo < hi, got {lo}:{hi}")
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
    return _classify_batch(germ, reps, tol)
