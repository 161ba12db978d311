"""Exact linear algebra over the rationals, the polynomial ring and its jets.

One fraction-free elimination, `eliminate`, gives det(A) and adj(A) W for
every exact matrix, and its forward pass gives ranks.  It pivots on usable
entries (a nonzero int or uncapped polynomial, or a jet with a nonzero
constant term: a unit of Q[x]/m^{N+1}) and divides exactly by the previous
pivot.  Cofactor expansion finishes a block of at most 3x3, or one left
without a usable entry.  The same code runs on floats and float jets for
the float companion: it then pivots on the largest constant term and
divides with `/`.

`row_reduce` is the row elimination of a Jacobian at the base point, with
the pivot rule as a parameter: the first nonzero entry over Q, the largest
entry above a threshold over the floats.
"""

from fractions import Fraction
from math import lcm

from .polynomial import Polynomial
from .rationals import rat


class NonSquareMatrixError(ValueError):
    pass


class AsymmetricMatrixError(ValueError):
    pass


class PolyMatrix:
    """Row-major matrix of polynomials sharing one context."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        ctx = entries[0].context
        for p in entries:
            if p.context != ctx:
                raise ValueError("matrix entries must share one context")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0])
        flat = [p for row in rows_of_entries for p in row]
        return cls(rows, cols, flat)

    @property
    def context(self):
        return self.entries[0].context

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def to_rows(self):
        return [self.entries[r * self.cols:(r + 1) * self.cols] for r in range(self.rows)]

    def map(self, fn):
        return PolyMatrix(self.rows, self.cols, [fn(p) for p in self.entries])

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for r in range(self.rows):
            for c in range(other.cols):
                acc = Polynomial.zero(self.context)
                for k in range(self.cols):
                    acc = acc + self[r, k] * other[k, c]
                out.append(acc)
        return PolyMatrix(self.rows, other.cols, out)

    def determinant(self):
        if self.rows != self.cols:
            raise NonSquareMatrixError("determinant of a non-square matrix")
        return eliminate(self.to_rows())[0]

    def adjugate(self):
        """Exact adjugate: adj(M) * M = det(M) * I as a polynomial identity."""
        if self.rows != self.cols:
            raise NonSquareMatrixError("adjugate of a non-square matrix")
        identity = poly_identity(self.context, self.rows).to_rows()
        return PolyMatrix.from_rows(eliminate(self.to_rows(), identity)[1])

    def evaluate(self, assignment):
        return RationalMatrix(
            self.rows, self.cols, [p.evaluate(assignment) for p in self.entries]
        )


class RationalMatrix:
    """Row-major matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = [rat(e) for e in entries]
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

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for r in range(self.rows):
            for c in range(other.cols):
                out.append(sum((self[r, k] * other[k, c] for k in range(self.cols)), Fraction(0)))
        return RationalMatrix(self.rows, other.cols, out)

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

    def _integer_rows(self):
        """The rows times the lcm of their denominators, and the product of those lcms."""
        rows, scale = [], 1
        for row in self.to_rows():
            den = lcm(*(e.denominator for e in row))
            rows.append([e.numerator * (den // e.denominator) for e in row])
            scale *= den
        return rows, scale

    def rank(self) -> int:
        """Exact rank: the number of steps of the forward pass on integer rows."""
        return _forward(self._integer_rows()[0], self.cols, 0)[0]

    def determinant(self) -> Fraction:
        if self.rows != self.cols:
            raise NonSquareMatrixError("determinant of a non-square matrix")
        rows, scale = self._integer_rows()
        return Fraction(eliminate(rows)[0], scale)

    def signature(self):
        """Inertia (positives, negatives, zeros) of a symmetric matrix.

        Fraction-free elimination with symmetric swaps, on the matrix times
        its common denominator: pivot k is the leading principal minor d_k of
        a congruent matrix and adds a positive eigenvalue when d_k d_(k-1) > 0,
        a negative one otherwise.  A trailing block with a zero diagonal but an
        entry a_ij != 0 first gets row and column j added to row and column i,
        a congruence that makes a_ii = 2 a_ij.
        """
        if not self.is_symmetric():
            raise AsymmetricMatrixError("signature needs a symmetric matrix")
        den = lcm(*(e.denominator for e in self.entries))
        a = [[e.numerator * (den // e.denominator) for e in row] for row in self.to_rows()]
        n, prev, pos, neg = self.rows, 1, 0, 0
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
        return (pos, neg, n - pos - neg)


def poly_identity(context, n):
    one = Polynomial.constant(context, 1)
    zero = Polynomial.zero(context)
    return PolyMatrix(n, n, [one if r == c else zero for r in range(n) for c in range(n)])


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


def _divider(p, power=1):
    """x -> x / p^power for a usable p (or None) and a multiple x (in the jet ring, for a jet)."""
    if p is None or power == 0:
        return lambda x: x
    if isinstance(p, int):
        return lambda x, d=p**power: x // d
    if isinstance(p, float):
        return lambda x, d=p**power: x / d
    if p.jet is None:
        return lambda x, d=p**power: x.div_exact(d)
    # with c = p(0) and t = c - p, t^(N+1) vanishes in the N-jet ring, so
    # s = sum_k c^(N-k) t^k has p s = c^(N+1): an inverse scaled to keep
    # integer coefficients integral
    c = p.constant_term()
    t, s = c - p, Polynomial.constant(p.context, 1)
    for j in range(1, p.jet + 1):
        s = s * t + c**j
    s, scale = s**power, c ** ((p.jet + 1) * power)
    if isinstance(c, float):
        s = s * (1 / scale)
        return lambda x: x * s

    def exact_quotient(v):
        q, r = divmod(v, scale)
        return q if r == 0 else Fraction(v) / scale

    def divide(x):
        return (x * s).map_coefficients(exact_quotient)

    return divide


def _forward(rows, ncols, stop):
    """Fraction-free Gauss-Jordan elimination on the leading `ncols` columns, in place.

    Step k swaps a usable entry of the trailing block to (k, k): the first
    one, or over the floats the one with the largest constant term.  It then
    sets a[i][j] = (a[k][k] a[i][j] - a[i][k] a[k][j]) / p for j > k and
    every row i but k, p being the previous pivot.  Stops at a trailing
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
        divide = _divider(pivot)
        pivot, top = rows[k][k], rows[k]
        for i in range(len(rows)):
            if i != k:
                row, f = rows[i], rows[i][k]
                for j in range(k + 1, len(row)):
                    row[j] = divide(pivot * row[j] - f * top[j])
        k += 1
    return k, pivot, sign, order


def row_reduce(rows, pick):
    """Row elimination of `rows` in place, pivoting where `pick` says.

    Columns are taken in order.  `pick(rows, col, free)` returns the free
    row to pivot on in column `col`, or None to pass the column over; every
    other free row then loses its multiple of the pivot row.  Returns T, the
    product of those row operations (T times the input is the result), and
    the pivot rows and their columns in the order taken: the rank is their
    number.
    """
    n = len(rows)
    t = [[int(r == c) for c in range(n)] for r in range(n)]
    pivot_rows, pivot_cols = [], []
    for col in range(len(rows[0]) if rows else 0):
        free = [r for r in range(n) if r not in pivot_rows]
        if not free:
            break
        piv = pick(rows, col, free)
        if piv is None:
            continue
        pivot_rows.append(piv)
        pivot_cols.append(col)
        for r in free:
            if r != piv and rows[r][col] != 0:
                f = rows[r][col] / rows[piv][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[piv])]
                t[r] = [a - f * b for a, b in zip(t[r], t[piv])]
    return t, pivot_rows, pivot_cols


def first_nonzero_row(rows, col, free):
    """The pivot rule over Q: the first free row with a nonzero entry in `col`."""
    return next((r for r in free if rows[r][col] != 0), None)


def _dot(xs, ys):
    """The sum of x * y over the pairs of two equally long, nonempty sequences."""
    return sum((x * y for x, y in zip(xs[1:], ys[1:])), xs[0] * ys[0])


def _cofactor(a, w):
    """det(A) and adj(A) W by cofactor expansion: the base and residual case."""
    size = len(a)
    if size == 1:
        return a[0][0], [list(w[0])]

    def cofactor(r, c):
        minor = [row[:c] + row[c + 1:] for i, row in enumerate(a) if i != r]
        det = _cofactor(minor, [[]] * (size - 1))[0]
        return -det if (r + c) % 2 else det

    # zero entries of the first row, and zero rows of W, add nothing
    cols = [c for c, e in enumerate(a[0]) if not _is_zero(e)] or [0]
    det = _dot([a[0][c] for c in cols], [cofactor(0, c) for c in cols])
    if not w[0]:
        return det, [[] for _ in a]
    live = [r for r in range(size) if not all(_is_zero(e) for e in w[r])] or [0]
    adj_w = []
    for i in range(size):
        cofs = [cofactor(r, i) for r in live]  # adj(A)[i][r] is cofactor(r, i)
        adj_w.append([_dot(cofs, [w[r][j] for r in live]) for j in range(len(w[0]))])
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
    det_s, adj_t = _cofactor([row[k:n] for row in rows[k:]], [row[n:] for row in rows[k:]])
    if sign < 0:
        det_s, adj_t = -det_s, [[-v for v in row] for row in adj_t]
    down, down_top = _divider(pivot, r - 1), _divider(pivot, r)
    adj_w = [None] * n
    for i in range(k):
        x, y = rows[i][k:n], rows[i][n:]
        adj_w[order[i]] = [
            down_top(det_s * yj - _dot(x, [t[j] for t in adj_t])) for j, yj in enumerate(y)
        ]
    for i in range(r):
        adj_w[order[k + i]] = [down(v) for v in adj_t[i]]
    return down(det_s), adj_w
