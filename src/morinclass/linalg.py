"""Exact linear algebra over the rationals, the polynomial ring and its jets.

One fraction-free elimination, `eliminate`, gives det(A) and adj(A) W, and
its forward pass gives ranks.  Its entries are ints, floats, and polynomials
or jets; it has no case for a bare `Fraction`, so callers clear rational
rows to ints with `rationals.cleared` first, as `RationalMatrix` does.  With
extra columns W each step updates every other row; for det(A) alone or a
rank, only the rows below the pivot, which are all that is read.  It pivots
on usable entries (a nonzero int or uncapped polynomial, or a jet with a
nonzero constant term: a unit of Q[x]/m^{N+1}) and divides exactly by the
previous pivot.  Cofactor expansion finishes a block of at most 3x3, or one
left without a usable entry, exactly zero blocks included; it expands each
minor once, so det of an r x r block costs at most r 2^(r-1) products, and
adj(A) W adds one product per nonzero entry of W (one for a zero column) for
each row of adj(A).  The same code runs on floats and float jets for the
float companion: it then pivots on the largest constant term.  Every exact
division, by a pivot or by a power of the last one, goes through
`_dividers`: `//` for ints, `/` for floats, `div_exact` for polynomials, and
for a jet a product with its inverse series.  `adjugate` is `eliminate` with
W the identity.

Jets of every order take the same elimination.  For an exact germ the
classifier forms no M: `criteria._taylor_tail` reads M(0) from Taylor
coefficients and takes det M to order N = n-1 as
det(M_<N) + tr(adj M(0) M_N), M_<N the part of M below degree N.  For
n = 2 that is det M(0) and Jacobi's formula; for n >= 3 it is one
elimination of the block M_<N, its entries of degree below N capped at N,
and a trace term of degree N.

`exact_row_reduce` is the row elimination of a Jacobian at the base point
over Q, on first nonzero entries, run fraction-free on integers; it is not
`_forward`, because the reports print its target change T.  The float
companion's, on the largest entry above a threshold, is `numeric._reduce`.

`congruence` is the fraction-free symmetric elimination of a symmetric
integer matrix: the signs of its pivots give the inertia (Sylvester's law)
and its last pivot the determinant.  `RationalMatrix.signature` runs it on
the matrix times its common denominator.  Every integer form here comes
from `rationals.cleared`, and every exact quotient from `rationals.quotient`.
"""

import math
from fractions import Fraction
from functools import partial
from math import gcd

from .polynomial import Polynomial
from .rationals import cleared, quotient


class NonSquareMatrixError(ValueError):
    pass


class AsymmetricMatrixError(ValueError):
    pass


class _Matrix:
    """Row-major matrix: `rows` x `cols` entries in one flat list."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        return cls(rows, cols, [e for row in rows_of_entries for e in row])

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def to_rows(self):
        return [self.entries[r * self.cols:(r + 1) * self.cols] for r in range(self.rows)]

    def _check_square(self, what):
        if self.rows != self.cols:
            raise NonSquareMatrixError(f"{what} of a non-square matrix")


class PolyMatrix(_Matrix):
    """Row-major matrix of polynomials sharing one context."""

    __slots__ = ()

    def __init__(self, rows, cols, entries):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        super().__init__(rows, cols, entries)
        ctx = self.entries[0].context
        for p in self.entries:
            if p.context != ctx:
                raise ValueError("matrix entries must share one context")

    @property
    def context(self):
        return self.entries[0].context

    def determinant(self):
        self._check_square("determinant")
        return eliminate(self.to_rows())[0]

    def adjugate(self):
        """Exact adjugate: adj(M) * M = det(M) * I as a polynomial identity."""
        self._check_square("adjugate")
        ctx = self.context
        one, zero = Polynomial.constant(ctx, 1), Polynomial.zero(ctx)
        return PolyMatrix.from_rows(adjugate(self.to_rows(), one, zero)[1])


class RationalMatrix(_Matrix):
    """Row-major matrix of exact rationals, each an int or a Fraction as given.

    Ints stay ints: `rank` scales every row to integers anyway, and making
    each entry a Fraction first about doubles the time to rank a small int
    matrix.
    """

    __slots__ = ()

    def __init__(self, rows, cols, entries):
        super().__init__(rows, cols, entries)
        for e in self.entries:
            if not isinstance(e, (int, Fraction)):
                raise TypeError(f"cannot interpret {e!r} as an exact rational")

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"RationalMatrix({self.to_rows()})"

    def is_symmetric(self):
        return self.rows == self.cols and all(
            self[r, c] == self[c, r] for r in range(self.rows) for c in range(r)
        )

    def rank(self) -> int:
        """Exact rank: the number of steps of the forward pass on integer rows."""
        return _forward([cleared(row)[1] for row in self.to_rows()], self.cols, 0)[0]

    def signature(self):
        """Inertia (positives, negatives, zeros) of a symmetric matrix, by `congruence`."""
        if not self.is_symmetric():
            raise AsymmetricMatrixError("signature needs a symmetric matrix")
        return congruence(_Matrix(self.rows, self.cols, cleared(self.entries)[1]).to_rows())[0]


# -- the elimination engine -------------------------------------------------------

def _is_zero(e):
    return e == 0 if isinstance(e, (int, float)) else e.is_zero()


def _at0(e):
    return e if isinstance(e, (int, float)) else e.constant_term()


def _usable(e):
    if isinstance(e, (int, float)):
        return e != 0
    if e.jet is not None:
        return e.constant_term() != 0
    # an uncapped polynomial divides exactly only over Q
    return not e.is_zero() and not isinstance(next(iter(e.coefficients())), float)


def _dividers(p, *powers):
    """The maps x -> x / p^power, one per power, for p a usable pivot (or None)
    and x a multiple of p^power.

    An int divides with `//`, a float with `/` (never raising: p^power is
    inf where it overflows) and an uncapped polynomial with `div_exact`.  A
    jet p of order N divides through its inverse: with
    c = p(0) and t = c - p, t^(N+1) vanishes in the N-jet ring, so
    s = sum_k c^(N-k) t^k has p s = c^(N+1), an inverse scaled to keep
    integer coefficients integral, and x / p^power = x s^power / c^((N+1) power).
    The series s is built once for all the powers.
    """
    jet = isinstance(p, Polynomial) and p.jet is not None
    if jet:
        c = p.constant_term()
        t, s = c - p, Polynomial.constant(p.context, 1)
        for j in range(1, p.jet + 1):
            s = s * t + c**j

    def divider(power):
        if p is None or power == 0:
            return lambda x: x
        if isinstance(p, float):
            d = float_power(p, power)
            if not d:  # p^power underflowed: x / 0.0 as IEEE 754 gives it, where Python raises
                sign = math.copysign(1.0, d)
                return lambda x: math.copysign(math.inf, x) * sign if x == x and x else math.nan
            return lambda x: x / d
        if not jet:
            d = p**power
            if isinstance(p, int):
                return lambda x: x // d
            return lambda x: x.div_exact(d)
        s_power, scale = s**power, c ** ((p.jet + 1) * power)
        if isinstance(scale, float):
            s_power = s_power * (1 / scale)
            return lambda x: x * s_power
        back = partial(quotient, d=scale)
        return lambda x: (x * s_power).map_coefficients(back)

    return [divider(power) for power in powers]


def float_power(x, k):
    """x ** k in Python floats, and inf of its sign where that overflows, as a product would."""
    try:
        return x**k
    except OverflowError:
        return math.copysign(math.inf, x) if k % 2 else math.inf


def _forward(rows, ncols, stop):
    """Fraction-free Gauss-Jordan elimination on the leading `ncols` columns, in place.

    Step k swaps a usable entry of the trailing block to (k, k): the first
    one, or over the floats the one with the largest constant term.  It then
    sets a[i][j] = (a[k][k] a[i][j] - a[i][k] a[k][j]) / p for j > k and
    every row i but k, p being the previous pivot.  Without extra columns
    (the rows are `ncols` long) nothing reads the rows above a pivot after
    its step, so only the rows below it are updated.  Stops at a trailing
    block of at most `stop` rows or columns or without a usable entry.
    Returns the steps taken, the last pivot (None if none), the sign of the
    swaps, and the column order.
    """
    order = list(range(ncols))
    sign, pivot, k = 1, None, 0
    while min(len(rows), ncols) - k > stop:
        block = ((i, j) for j in range(k, ncols) for i in range(k, len(rows))
                 if _usable(rows[i][j]))
        found = next(block, None)
        if found is None:
            break
        if isinstance(_at0(rows[found[0]][found[1]]), float):
            found = max([found, *block], key=lambda ij: abs(_at0(rows[ij[0]][ij[1]])))
        i, j = found
        if i != k:
            rows[i], rows[k] = rows[k], rows[i]
            sign = -sign
        if j != k:
            for row in rows:
                row[j], row[k] = row[k], row[j]
            order[j], order[k] = order[k], order[j]
            sign = -sign
        (divide,) = _dividers(pivot, 1)
        pivot, top = rows[k][k], rows[k]
        for i in range(k + 1 if len(top) == ncols else 0, len(rows)):
            if i != k:
                row, f = rows[i], rows[i][k]
                for j in range(k + 1, len(row)):
                    row[j] = divide(pivot * row[j] - f * top[j])
        k += 1
    return k, pivot, sign, order


def congruence(a):
    """Inertia (positives, negatives, zeros) and determinant of a symmetric integer matrix.

    Fraction-free elimination with symmetric swaps, on a copy of the rows:
    pivot k is the leading principal minor d_k of a congruent matrix and adds
    a positive eigenvalue when d_k d_(k-1) > 0, a negative one otherwise.  A
    trailing block with a zero diagonal but an entry a_ij != 0 first gets row
    and column j added to row and column i, a congruence that makes
    a_ii = 2 a_ij.  Each congruence P A P^T taken has det P = +-1, so the
    last pivot d_n is det(A) when the elimination runs n steps, and det(A)
    is 0 when it stops at a zero trailing block.
    """
    a = [list(row) for row in a]
    n, prev, pos, neg = len(a), 1, 0, 0
    for k in range(n):
        rest = range(k, n)
        i = next((i for i in rest if a[i][i]), None)
        if i is None:
            pair = next(((i, j) for i in rest for j in rest if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            for row in a:
                row[i] += row[j]
            a[i] = [x + y for x, y in zip(a[i], a[j])]
        for row in a:
            row[i], row[k] = row[k], row[i]
        a[i], a[k] = a[k], a[i]
        pivot = a[k][k]
        if pivot * prev > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                a[r][c] = (pivot * a[r][c] - a[r][k] * a[k][c]) // prev
        prev = pivot
    det = prev if pos + neg == n else 0
    return (pos, neg, n - pos - neg), det


def exact_row_reduce(rows):
    """Row elimination of `rows` over Q, on the first nonzero entry of each column.

    Columns are taken in order: the pivot is the first free row with a
    nonzero entry in the column, and every other free row then loses its
    multiple of the pivot row.  Returns T, the product of those row
    operations (T times the input is the result), and the pivot rows and
    their columns in the order taken: the rank is their number.  T's rows
    hold Fractions, but for the rows no step changed, which are rows of the
    identity in ints.

    The work runs on integers, fraction-free: row r is held as an int row
    with its int row of T, both d_r times the rational ones.  Clearing with
    pivot row p sets row r to a_pc row_r - a_rc row_p, and T's row alike,
    and d_r to a_pc d_r; each changed row is divided by the gcd of its
    entries and d_r.  This is not `_forward`: the reports print T.
    """
    n = len(rows)
    a, t, scale = [], [], []
    for r, row in enumerate(rows):
        den, ints = cleared(row)
        a.append(ints)
        t.append([den if c == r else 0 for c in range(n)])
        scale.append(den)
    changed = [False] * n
    pivot_rows, pivot_cols = [], []
    for col in range(len(rows[0]) if rows else 0):
        free = [r for r in range(n) if r not in pivot_rows]
        piv = next((r for r in free if a[r][col]), None)
        if piv is None:
            continue
        pivot_rows.append(piv)
        pivot_cols.append(col)
        p, top, t_top = a[piv][col], a[piv], t[piv]
        for r in free:
            f = a[r][col]
            if r != piv and f:
                row = [p * x - f * y for x, y in zip(a[r], top)]
                t_row = [p * x - f * y for x, y in zip(t[r], t_top)]
                d = p * scale[r]
                g = gcd(d, *row, *t_row)
                a[r], t[r], scale[r] = ([x // g for x in row], [x // g for x in t_row], d // g)
                changed[r] = True
    t = [[Fraction(x, scale[r]) for x in t[r]] if changed[r] else [int(r == c) for c in range(n)]
         for r in range(n)]
    return t, pivot_rows, pivot_cols


def _dot(xs, ys):
    """The sum of x * y over the pairs of two equally long, nonempty sequences.

    Added left to right from the first product, as the stacked
    `numeric._cofactor` adds: CPython's `sum` compensates float sums from 3.12.
    """
    total = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        total = total + x * y
    return total


def _cofactor(a, w):
    """det(A) and adj(A) W by cofactor expansion: the base and residual case.

    Each minor, keyed by the rows and the columns of A it keeps, is expanded
    once along its first row: det(A) costs at most r 2^(r-1) products for
    r x r, expanding anew about e r!.  adj(A) W adds one product per nonzero
    entry of W for each row of adj(A), and the minors those read.
    """
    size = len(a)
    if size == 1:
        return a[0][0], [list(w[0])]

    minors = {}  # det(A) and the cofactors of adj(A) W share these

    def minor(rows, cols):
        if len(rows) == 1:
            return a[rows[0]][cols[0]]
        if (rows, cols) not in minors:
            # zero entries of the first row, as of each column of W below, add nothing
            js = [j for j, c in enumerate(cols) if not _is_zero(a[rows[0]][c])] or [0]
            cofs = [minor(rows[1:], cols[:j] + cols[j + 1:]) for j in js]
            minors[rows, cols] = _dot([a[rows[0]][cols[j]] for j in js],
                                      [-d if j % 2 else d for j, d in zip(js, cofs)])
        return minors[rows, cols]

    full = tuple(range(size))
    det, adj_w, adj = minor(full, full), [[] for _ in a], {}  # adj(A)[i][r], each signed once
    for j in range(len(w[0])):
        rs = [r for r in full if not _is_zero(w[r][j])] or [0]
        for i, row in enumerate(adj_w):
            for r in rs:
                if (i, r) not in adj:
                    d = minor(full[:r] + full[r + 1:], full[:i] + full[i + 1:])
                    adj[i, r] = -d if (r + i) % 2 else d
            row.append(_dot([adj[i, r] for r in rs], [w[r][j] for r in rs]))
    return det, adj_w


def eliminate(a, w=None):
    """det(A) and adj(A) W for a square A and extra columns W, both given as rows.

    Fraction-free Gauss-Jordan elimination on [A | W] leaves a trailing
    block S that is at most 3x3 or has no usable entry.  After k steps with
    last pivot p and r = n - k, the rows are [p I, X | Y] over [0, S | T]
    for A with its rows and columns swapped, so det(A) = det(S) / p^(r-1)
    and adj(A) W is (det(S) Y - X adj(S) T) / p^r over adj(S) T / p^(r-1),
    up to the sign and the column order of the swaps.
    """
    n = len(a)
    rows = [list(row) + list(extra) for row, extra in zip(a, w or [[]] * n)]
    k, pivot, sign, order = _forward(rows, n, 3)
    r = n - k
    block, extra = [row[k:n] for row in rows[k:]], [row[n:] for row in rows[k:]]
    det_s, adj_t = _cofactor(block, extra)
    if sign < 0:
        det_s, adj_t = -det_s, [[-v for v in row] for row in adj_t]
    down, down_top = _dividers(pivot, r - 1, r)
    adj_w = [None] * n
    for i in range(k):
        x, y = rows[i][k:n], rows[i][n:]
        adj_w[order[i]] = [
            down_top(det_s * yj - _dot(x, [t[j] for t in adj_t])) for j, yj in enumerate(y)
        ]
    for i in range(r):
        adj_w[order[k + i]] = [down(v) for v in adj_t[i]]
    return down(det_s), adj_w


def adjugate(rows, one, zero):
    """det(A) and adj(A) for a square A given as rows, `one` and `zero` being its ring's units."""
    size = len(rows)
    identity = [[one if r == c else zero for c in range(size)] for r in range(size)]
    return eliminate(rows, identity)
