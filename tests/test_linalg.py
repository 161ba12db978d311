"""Exact linear algebra: determinants, adjugates, rank, inertia."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from morinclass import Polynomial, PolyMatrix, RationalMatrix, linalg
from morinclass.polynomial import cut_to_order, jet_order
from morinclass.linalg import (
    AsymmetricMatrixError,
    NonSquareMatrixError,
    congruence,
    eliminate,
    exact_row_reduce,
    float_power,
)
from morinclass.rationals import cleared

from conftest import (
    cofactor_determinant,
    fraction_row_reduce,
    make_context,
    minor_rank,
    random_polynomial,
    random_rational,
    rows_times_rows,
    to_sympy,
    transpose,
)


@pytest.fixture
def ctx():
    return make_context("x", "y")


class TestPolyDeterminant:
    def test_triangular(self, ctx):
        x = Polynomial.variable(ctx, "x")
        y = Polynomial.variable(ctx, "y")
        one = Polynomial.constant(ctx, 1)
        zero = Polynomial.zero(ctx)
        m = PolyMatrix.from_rows([[x, one], [zero, y]])
        assert m.determinant() == x * y

    def test_identity(self, ctx):
        one, zero = Polynomial.constant(ctx, 1), Polynomial.zero(ctx)
        identity = [[one if r == c else zero for c in range(3)] for r in range(3)]
        assert PolyMatrix.from_rows(identity).determinant() == one

    def test_non_square(self, ctx):
        x = Polynomial.variable(ctx, "x")
        with pytest.raises(NonSquareMatrixError):
            PolyMatrix(1, 2, [x, x]).determinant()

    def test_matches_cofactor_oracle_4x4(self):
        ctx = make_context("x", "y", "z")
        rng = random.Random(7)
        for _ in range(12):
            rows = [
                [random_polynomial(rng, ctx, max_degree=1, n_terms=2) for _ in range(4)]
                for _ in range(4)
            ]
            assert PolyMatrix.from_rows(rows).determinant() == cofactor_determinant(rows)

    def test_bareiss_path_matches_oracle_5x5(self):
        # size 5 takes two fraction-free elimination steps, each dividing by
        # a non-constant previous pivot with div_exact, before the 3x3 base
        ctx = make_context("x")
        rng = random.Random(11)
        for _ in range(4):
            rows = [
                [random_polynomial(rng, ctx, max_degree=1, n_terms=2) for _ in range(5)]
                for _ in range(5)
            ]
            assert PolyMatrix.from_rows(rows).determinant() == cofactor_determinant(rows)


class TestAdjugate:
    def test_one_by_one(self, ctx):
        p = Polynomial.variable(ctx, "x") ** 3
        adj = PolyMatrix(1, 1, [p]).adjugate()
        assert adj[0, 0] == Polynomial.constant(ctx, 1)

    def test_diagonal_swap(self, ctx):
        a = Polynomial.variable(ctx, "x")
        b = Polynomial.variable(ctx, "y")
        zero = Polynomial.zero(ctx)
        adj = PolyMatrix.from_rows([[a, zero], [zero, b]]).adjugate()
        assert adj[0, 0] == b and adj[1, 1] == a
        assert adj[0, 1].is_zero() and adj[1, 0].is_zero()

    def test_adjugate_identity_random(self):
        ctx = make_context("x", "y")
        rng = random.Random(3)
        for size in (2, 3, 4):
            for _ in range(4):
                rows = [
                    [random_polynomial(rng, ctx, max_degree=2, n_terms=2) for _ in range(size)]
                    for _ in range(size)
                ]
                m = PolyMatrix.from_rows(rows)
                det = m.determinant()
                prod = rows_times_rows(m.adjugate().to_rows(), rows)
                zero = Polynomial.zero(ctx)
                assert all(
                    prod[r][c] == (det if r == c else zero)
                    for r in range(size) for c in range(size)
                )


def cofactor_adjugate(rows):
    """adj(A)[i][j] = (-1)^(i+j) det(A without row j and column i), by the oracle."""
    size = len(rows)
    return [
        [
            (-1) ** (i + j) * cofactor_determinant(
                [row[:i] + row[i + 1:] for r, row in enumerate(rows) if r != j]
            )
            for j in range(size)
        ]
        for i in range(size)
    ]


def exact_entries(rows, cap=None):
    """The entries as exact polynomials, the terms a jet holds, cut at `cap` if given."""
    exact = [[Polynomial(p.context, dict(p.items())) for p in row] for row in rows]
    return exact if cap is None else [[p.truncated(cap) for p in row] for row in exact]


def sparse_block(rng, size, entry, zero):
    """A size x size block of `entry()` values, about a third of them `zero`."""
    return [[zero if rng.random() < 0.35 else entry() for _ in range(size)]
            for _ in range(size)]


def plain_cofactor(a, w):
    """det(A) and adj(A) W expanding every minor anew along its first row: the
    recursion `linalg._cofactor` ran before it kept its minors, with its rule
    for W's zeros, as the reference for the bits of the kept ones."""
    size = len(a)
    if size == 1:
        return a[0][0], [list(w[0])]

    cofactors = {}

    def cofactor(r, c):
        if (r, c) not in cofactors:
            minor = [row[:c] + row[c + 1:] for i, row in enumerate(a) if i != r]
            det = plain_cofactor(minor, [[]] * (size - 1))[0]
            cofactors[r, c] = -det if (r + c) % 2 else det
        return cofactors[r, c]

    cols = [c for c, e in enumerate(a[0]) if not linalg._is_zero(e)] or [0]
    det = linalg._dot([a[0][c] for c in cols], [cofactor(0, c) for c in cols])
    adj_w = [[] for _ in a]
    for j in range(len(w[0])):
        rows = [r for r in range(size) if not linalg._is_zero(w[r][j])] or [0]
        for i, row in enumerate(adj_w):
            row.append(linalg._dot([cofactor(r, i) for r in rows], [w[r][j] for r in rows]))
    return det, adj_w


def jet_matrix(rng, ctx, size, rank, jet, den_max=1):
    """A random size x size N-jet matrix whose constant part has the given rank.

    The constant part is a product of random integer size x rank and
    rank x size factors (redrawn until its rank is exact); every entry gets
    random terms of degree 1..jet.
    """
    while True:
        left = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(size)]
        right = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(rank)]
        const = [
            [sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(size)]
            for i in range(size)
        ]
        if minor_rank(const) == rank:
            break
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            bulk = random_polynomial(rng, ctx, max_degree=jet, n_terms=3, den_max=den_max)
            bulk = bulk - bulk.constant_term()
            row.append((bulk + const[i][j]).truncated(jet))
        rows.append(row)
    return rows


class TestElimination:
    """`eliminate` against the cofactor oracles: det(A) and adj(A) W."""

    def check(self, rows, extra):
        # the oracles run on the same entries taken as exact polynomials, and
        # each result is compared in every degree its cap claims; the jet
        # rule may know a result further than the smallest cap of the entries
        # but never less far
        det, adj_w = eliminate(rows, extra)
        least = jet_order([p for row in rows + extra for p in row])
        # truncation to a cap is a ring homomorphism, so running the oracles
        # in the ring of C-jets, C the largest cap claimed, gives the exact
        # results cut at C
        caps = [p.jet for p in [det] + [e for row in adj_w for e in row] if p.jet is not None]
        top = max(caps, default=None)
        rows, extra = exact_entries(rows, top), exact_entries(extra, top)
        expected = rows_times_rows(cofactor_adjugate(rows), extra)
        results = [(det, cofactor_determinant(rows))] + [
            (adj_w[i][j], expected[i][j])
            for i in range(len(rows)) for j in range(len(extra[0]))
        ]
        for got, want in results:
            assert (got.jet is None) == (least is None)
            if least is not None:
                assert got.jet >= least
                want = want.truncated(got.jet)
            assert got == want

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("drop", [0, 1, 2])
    def test_jets_by_constant_rank(self, size, drop):
        # the constant part has rank size, size-1 or size-2: unit pivots
        # exist for every row, for all but one, or for all but two
        ctx = make_context("x", "y")
        rng = random.Random(100 * size + drop)
        for trial in range(2):
            rows = jet_matrix(rng, ctx, size, size - drop, jet=2, den_max=1 + trial)
            extra = [
                [random_polynomial(rng, ctx, 2, 3).truncated(2) for _ in range(2)]
                for _ in range(size)
            ]
            self.check(rows, extra)

    @pytest.mark.parametrize("size, rank", [(5, 1), (6, 2), (6, 0)])
    def test_jets_without_usable_pivot(self, size, rank):
        # after `rank` unit pivots a block larger than 3x3 is left with no
        # unit entry, and cofactor expansion finishes it
        ctx = make_context("x", "y")
        rng = random.Random(7 * size + rank)
        rows = jet_matrix(rng, ctx, size, rank, jet=3)
        extra = [[random_polynomial(rng, ctx, 2, 2).truncated(3)] for _ in range(size)]
        self.check(rows, extra)

    @pytest.mark.parametrize("size", [4, 6])
    def test_jets_column_swap(self, size):
        # no unit in the first column: the first pivot comes by a column swap
        ctx = make_context("x", "y")
        rng = random.Random(31 * size)
        rows = jet_matrix(rng, ctx, size, size, jet=2)
        for row in rows:
            row[0] = row[0] - row[0].constant_term()
        extra = [[random_polynomial(rng, ctx, 2, 2).truncated(2)] for _ in range(size)]
        self.check(rows, extra)

    def test_jets_keep_integer_coefficients(self):
        ctx = make_context("x", "y")
        rng = random.Random(5)
        rows = jet_matrix(rng, ctx, 6, 6, jet=3)
        det, adj_w = eliminate(rows, [[Polynomial.constant(ctx, 1)]] * 6)
        for p in [det] + [row[0] for row in adj_w]:
            assert all(isinstance(c, int) for c in p.coefficients())

    @pytest.mark.parametrize("size", [4, 5])
    def test_uncapped_non_constant_pivots(self, size):
        # no constant terms, and a zero first column, so every pivot is a
        # non-constant polynomial reached by a column swap
        ctx = make_context("x", "y")
        rng = random.Random(size)
        zero = Polynomial.zero(ctx)
        rows = []
        for i in range(size):
            row = [zero]
            for _ in range(size - 1):
                p = random_polynomial(rng, ctx, max_degree=2, n_terms=2)
                row.append(p - p.constant_term())
            rows.append(row)
        rows[-1][0] = Polynomial.variable(ctx, "x")
        extra = [[random_polynomial(rng, ctx, 1, 2)] for _ in range(size)]
        self.check(rows, extra)

    @pytest.mark.parametrize("size", [4, 5, 6])
    def test_jets_without_constant_terms(self, size):
        # no entry is a unit, so `_cofactor` expands the whole block, each
        # minor once; zero entries in first rows are skipped
        ctx = make_context("x", "y")
        rng = random.Random(41 * size)
        jet = size + 1

        def entry():
            p = random_polynomial(rng, ctx, max_degree=2, n_terms=2)
            return (p - p.constant_term()).truncated(jet)

        rows = sparse_block(rng, size, entry, Polynomial.zero(ctx).truncated(jet))
        extra = [[random_polynomial(rng, ctx, 1, 2).truncated(jet)] for _ in range(size)]
        assert not eliminate(rows)[0].is_zero()
        self.check(rows, extra)

    @pytest.mark.parametrize("size", [4, 5, 6, 7])
    def test_determinant_alone_updates_only_the_rows_below(self, size):
        # without extra columns each step updates the rows below its pivot
        # alone: det(A) is the cofactor expansion in every degree its cap
        # claims, term for term the det of an elimination with a column, and
        # the pivot rows are left as they were taken
        ctx = make_context("x", "y")
        rng = random.Random(61 * size)
        rows = jet_matrix(rng, ctx, size, size, jet=2)
        det = eliminate(rows)[0]
        with_column = eliminate(rows, [[Polynomial.constant(ctx, 1)]] * size)[0]
        assert list(det.terms.items()) == list(with_column.terms.items())
        assert det.jet == with_column.jet
        assert det == cofactor_determinant(exact_entries(rows, det.jet)).truncated(det.jet)
        # the first pivot is the first unit of column 0; no later step touches its row
        first = next(r for r, row in enumerate(rows) if row[0].constant_term())
        work = [list(row) for row in rows]
        steps, _, _, order = linalg._forward(work, size, 0)
        assert steps == size and work[0] == [rows[first][j] for j in order]

    def test_zero_blocks_take_one_cofactor_call(self, monkeypatch):
        # rows 2..5 are multiples of row 1, so one step leaves an exactly zero
        # 4x4 block, which `_cofactor` expands as any other: det 0 and adj 0.
        # A block of float zeros is expanded alike, as the bits of its signed
        # zeros need: one call of `_cofactor`, which expands its minors inside
        from morinclass import linalg

        calls, dots = [], []
        cofactor, dot = linalg._cofactor, linalg._dot

        def counted(a, w):
            calls.append(len(a))
            return cofactor(a, w)

        def counted_dot(xs, ys):
            dots.append(len(xs))
            return dot(xs, ys)

        monkeypatch.setattr(linalg, "_cofactor", counted)
        monkeypatch.setattr(linalg, "_dot", counted_dot)
        ctx = make_context("x", "y")
        rng = random.Random(23)
        top = [random_polynomial(rng, ctx, 1, 2) for _ in range(5)]
        top[0] = top[0] + 1
        factors = [random_polynomial(rng, ctx, 1, 2) for _ in range(4)]
        rows = [top] + [[q * e for e in top] for q in factors]
        extra = [[random_polynomial(rng, ctx, 1, 2)] for _ in range(5)]
        self.check(rows, extra)
        assert eliminate([[0] * 5 for _ in range(5)], [[1]] * 5) == (0, [[0]] * 5)
        calls.clear()
        dots.clear()
        eliminate([[0.0] * 4 for _ in range(4)])
        assert calls == [4] and dots

    def test_expanded_zero_block_stays_polynomial(self, monkeypatch):
        # an s x s exactly zero block has no pivot, and `_cofactor` expands it
        # whole: det 0 and adj 0 of the entries' types.  Each minor is expanded
        # once, along a first row whose zeros leave one cofactor, so det alone
        # takes s - 1 products and adj(A) W at most s^3
        calls, dot = [0], linalg._dot

        def counted(xs, ys):
            calls[0] += 1
            return dot(xs, ys)

        monkeypatch.setattr(linalg, "_dot", counted)
        ctx = make_context("x", "y")
        zero = Polynomial.zero(ctx)
        for s in range(2, 13):
            identity = [[int(r == c) for c in range(s)] for r in range(s)]
            e_c = [[Polynomial.constant(ctx, int(r == s // 2))] for r in range(s)]
            for entry, w, want in ((0, identity, [[0] * s] * s), (0, None, [[]] * s),
                                   (zero, e_c, [[zero]] * s)):
                calls[0] = 0
                det, adj_w = eliminate([[entry] * s for _ in range(s)], w)
                assert det == 0 and type(det) is type(entry) and adj_w == want
                assert all(type(v) is type(entry) for row in adj_w for v in row)
                if isinstance(entry, Polynomial):
                    assert det.jet is None and all(v.jet is None for (v,) in adj_w)
                assert calls[0] <= (s**3 if w else s - 1), (s, w is not None, calls[0])

    def test_adj_w_forms_one_product_per_nonzero_entry_of_w(self, monkeypatch):
        # each column of W sums its cofactor products over the rows where it
        # is nonzero: adj of a 2x2 forms 2 + 4 products and of a 3x3 9 + 12
        # + 9 (10 and 48 where every row of the identity was read whole); an
        # e_c column expands row c alone, as before
        terms, dot = [], linalg._dot

        def counted(xs, ys):
            terms.append(len(xs))
            return dot(xs, ys)

        monkeypatch.setattr(linalg, "_dot", counted)
        for size, adj, e_c in ((2, 6, [4, 4]), (3, 30, [12, 18, 18])):
            a = [[(2 * i + 3 * j) % 5 + 1 for j in range(size)] for i in range(size)]
            terms.clear()
            linalg.adjugate(a, 1, 0)
            assert sum(terms) == adj
            for c, want in enumerate(e_c):
                terms.clear()
                eliminate(a, [[int(r == c)] for r in range(size)])
                assert sum(terms) == want

    @pytest.mark.parametrize("kind", ["int", "fraction", "float", "jet", "uncapped"])
    def test_zero_entries_of_w(self, kind):
        # W's column 0 is zero in row 1 alone, column 1 in rows 0 and 2, and
        # column 2 in every row; a 3x3 goes to `_cofactor` whole.  The
        # skipped products are exact zeros: each entry is the oracle's in
        # value and type, and in cap for jets.  Rationals come as polynomial
        # coefficients: `eliminate` takes ints, floats and polynomials
        ctx = make_context("x", "y")
        x, y = Polynomial.variable(ctx, "x"), Polynomial.variable(ctx, "y")
        make = {
            "int": lambda v: v,
            "fraction": lambda v: Polynomial.constant(ctx, Fraction(v, 3)) + v * x,
            "float": float,
            "jet": lambda v: (v + (v % 3) * x + v * x * y).truncated(2),
            "uncapped": lambda v: v + (v % 2) * y - x * x,
        }[kind]
        zero = -0.0 if kind == "float" else make(0)
        a = [[make((2 * i + 3 * j) % 7 - 3) for j in range(3)] for i in range(3)]
        w = [[make(i + 1) if (i, j) in ((0, 0), (2, 0), (1, 1)) else zero for j in range(3)]
             for i in range(3)]
        det, adj_w = eliminate(a, w)
        want = rows_times_rows(cofactor_adjugate(a), w)
        entries = [e for row in a + w for e in row]
        for got, expected in [(det, cofactor_determinant(a))] + [
                (adj_w[i][j], want[i][j]) for i in range(3) for j in range(3)]:
            assert got == expected and type(got) is type(expected)
            if isinstance(got, Polynomial):
                # a skipped zero jet is zero to its cap at least: the caps
                # agree as `cut_to_order` leaves them for the stage reading them
                assert (got.jet is None) == (expected.jet is None)
                got, expected = cut_to_order(got, entries), cut_to_order(expected, entries)
                assert got == expected and got.jet == expected.jet

    def test_singular_uncapped(self):
        ctx = make_context("x", "y")
        rng = random.Random(17)
        rows = [
            [random_polynomial(rng, ctx, max_degree=1, n_terms=2) for _ in range(5)]
            for _ in range(4)
        ]
        rows.append([a + 2 * b for a, b in zip(rows[0], rows[1])])
        extra = [[random_polynomial(rng, ctx, 1, 2)] for _ in range(5)]
        self.check(rows, extra)
        assert eliminate(rows)[0].is_zero()

    def test_matches_sympy_det(self):
        import sympy
        ctx = make_context("x", "y")
        symbols = sympy.symbols("x y")
        rng = random.Random(23)
        rows = [
            [random_polynomial(rng, ctx, max_degree=2, n_terms=3) for _ in range(4)]
            for _ in range(4)
        ]
        expected = sympy.Matrix([[to_sympy(p, symbols) for p in row] for row in rows]).det()
        got = PolyMatrix.from_rows(rows).determinant()
        assert sympy.expand(to_sympy(got, symbols) - expected) == 0


def first_order_matrix(rng, ctx, size, rank, den_max=1, linear=True):
    """A size x size matrix of exact 1-jets whose constant part has the given rank.

    The constant part is a product of seeded size x rank and rank x size
    factors, over `den_max` (redrawn until its rank is exact); with
    `linear`, every entry gets up to three seeded linear terms.
    """
    while True:
        left = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(size)]
        right = [[Fraction(rng.randint(-2, 2), rng.randint(1, den_max)) for _ in range(size)]
                 for _ in range(rank)]
        const = [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
                  for j in range(size)] for i in range(size)]
        if minor_rank(const) == rank:
            break
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            terms = {(0,) * len(ctx): const[i][j]} if const[i][j] else {}
            for _ in range(3 if linear else 0):
                exps = [0] * len(ctx)
                exps[rng.randrange(len(ctx))] = 1
                terms[tuple(exps)] = Fraction(rng.randint(-3, 3), rng.randint(1, den_max))
            row.append(Polynomial(ctx, {e: c for e, c in terms.items() if c}).truncated(1))
        rows.append(row)
    return rows


class TestFirstOrder:
    """det and adj(A) W of exact 1-jets by the elimination, against the cofactor oracle.

    The oracle runs in the ring of 1-jets, where truncation is a ring
    homomorphism: det(A) and adj(A) W there, cut at order 1, are the exact
    results cut at order 1.  Where adj A(0) is not zero (rank s or s-1) the
    degree-2 terms of det(A) depend on terms the entries do not know, so the
    elimination's det has cap 1; at rank at most s-2 its jet rule may know
    more.  `determinant` gives the elimination's jet, cap included.  The
    classifier's Jacobi's formula on scalar matrices, for maps to the plane,
    is `criteria._taylor_tail`, which `test_criteria.TestPlaneRoute` checks.
    """

    def check(self, rows, extra):
        size = len(rows)
        det, adj_w = eliminate(rows, extra)
        expected = cofactor_determinant(rows).truncated(1)
        got = PolyMatrix.from_rows(rows).determinant()
        assert got == det and got.jet == det.jet and det.truncated(1) == expected
        # the columns of adj(A) that the nonzero rows of W read, each cofactor
        # the oracle's det of a minor
        live = [r for r in range(size) if any(not p.is_zero() for p in extra[r])]
        for i in range(size):
            cofactors = {r: (-1) ** (i + r) * cofactor_determinant(
                [row[:i] + row[i + 1:] for k, row in enumerate(rows) if k != r])
                for r in live} if size > 1 else {0: 1}
            for j, entry in enumerate(adj_w[i]):
                oracle = sum((cofactors[r] * extra[r][j] for r in live),
                             Polynomial.zero(det.context))
                assert entry.truncated(1) == oracle.truncated(1)
        return det

    @pytest.mark.parametrize("size, rank", [
        (size, size - drop) for size in range(1, 8) for drop in (0, 1, 2) if drop <= size
    ] + [(3, 0), (4, 1), (4, 0)])
    def test_unit_columns_by_constant_rank(self, size, rank):
        # M(0) of rank s, s-1 and at most s-2; W a unit column, as
        # `build_theta` reads one column of adj(M).  The oracle expands in
        # the jet ring, where the jet rule keeps the higher terms of
        # products of entries vanishing at 0: it is slow at rank 0 or at
        # 7x7, where only Fraction entries run
        ctx = make_context("x", "y")
        rng = random.Random(1000 + 10 * size + rank)
        for den_max in (1, 3) if size < 7 else (3,):
            rows = first_order_matrix(rng, ctx, size, rank, den_max)
            column = rng.randrange(size)
            unit = [[Polynomial.constant(ctx, int(r == column))] for r in range(size)]
            det = self.check(rows, unit)
            if rank >= size - 1:
                assert det.jet == 1

    def test_elimination_keeps_what_the_rule_knows(self):
        # A(0) = 0: adj A(0) = 0, and the jet rule knows the 4x4 det to
        # order 4, where Jacobi's formula reads only order 1
        ctx = make_context("x", "y")
        rng = random.Random(1500)
        rows = first_order_matrix(rng, ctx, 4, 0)
        det = PolyMatrix.from_rows(rows).determinant()
        assert det.jet == 4 and det == cofactor_determinant(rows).truncated(4)
        assert not det.is_zero()

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("drop", [0, 1, 2])
    def test_general_columns(self, size, drop):
        # W of 1-jets, constants and uncapped polynomials, one row of W zero
        ctx = make_context("x", "y")
        rng = random.Random(2000 + 10 * size + drop)
        rows = first_order_matrix(rng, ctx, size, max(size - drop, 0), den_max=2)
        extra = [[random_polynomial(rng, ctx, 2, 3).truncated(1),
                  Polynomial.constant(ctx, random_rational(rng)),
                  random_polynomial(rng, ctx, 2, 3)] for _ in range(size)]
        extra[rng.randrange(size)] = [Polynomial.zero(ctx)] * 3
        self.check(rows, extra)

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_zero_linear_parts(self, size):
        # constant 1-jets: det is det A(0), and 0 below rank s
        ctx = make_context("x", "y")
        rng = random.Random(3000 + size)
        for rank in (size, size - 1, 0):
            rows = first_order_matrix(rng, ctx, size, rank, linear=False)
            extra = [[Polynomial.constant(ctx, int(r == 0)),
                      random_polynomial(rng, ctx, 1, 2, den_max=1).truncated(1)]
                     for r in range(size)]
            det = self.check(rows, extra)
            consts = [[p.constant_term() for p in row] for row in rows]
            if rank < size:
                assert det.is_zero()
            else:
                assert det.terms == {0: cofactor_determinant(consts)}


class TestExactRowReduce:
    """The fraction-free `exact_row_reduce` against the Fraction Gauss-Jordan oracle.

    Same T values and entry types (ints for rows no step changed, Fractions
    otherwise), the same pivot rows and the same pivot columns.
    """

    @staticmethod
    def matrix(rng, n, cols, rank, fractions):
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(n)]
        right = [[rng.choice((0, 0, -2, -1, 1, 3)) for _ in range(cols)] for _ in range(rank)]
        rows = [[sum((l[k] * right[k][j] for k in range(rank)), 0) for j in range(cols)]
                for l in left]
        if fractions:
            rows = [[Fraction(e, rng.choice((1, 2, 3, 7))) if e else Fraction(0) for e in row]
                    for row in rows]
        return rows

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_fraction_oracle(self, n):
        rng = random.Random(500 + n)
        seen_ranks = set()
        for trial in range(60):
            cols = rng.randint(1, 9)
            rank = rng.randint(0, min(n, cols))
            rows = self.matrix(rng, n, cols, rank, fractions=trial % 2 == 1)
            if trial % 5 == 2 and n > 1:
                rows[-1] = list(rows[0])  # a repeated row
            if trial % 7 == 3:
                for row in rows:
                    row[0] = 0 * row[0]  # a zero first column
            if trial % 3 == 0:
                rows = [[-e for e in row] for row in rows]  # negative pivots
            got, want = exact_row_reduce(rows), fraction_row_reduce(rows)
            assert got == want
            assert [[type(e) for e in row] for row in got[0]] == [
                [type(e) for e in row] for row in want[0]]
            seen_ranks.add(len(got[1]))
        assert seen_ranks == set(range(n + 1))

    def test_leaves_input_alone(self):
        rows = [[2, Fraction(1, 3)], [4, Fraction(2, 3)]]
        copy = [list(row) for row in rows]
        assert exact_row_reduce(rows) == ([[1, 0], [Fraction(-2), Fraction(1)]], [0], [0])
        assert rows == copy


class TestRank:
    def test_dependent_rows(self):
        assert RationalMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1

    def test_zero_matrix(self):
        assert RationalMatrix.from_rows([[0, 0], [0, 0], [0, 0]]).rank() == 0

    def test_rank_equals_max_nonzero_minor_exhaustive_2x3(self):
        for entries in product((-1, 0, 1), repeat=6):
            rows = [list(entries[:3]), list(entries[3:])]
            assert RationalMatrix.from_rows(rows).rank() == minor_rank(rows)

    def test_rank_equals_max_nonzero_minor_sampled_3x4(self):
        # stratified sample of the 3^12 sign matrices
        for idx in range(0, 3**12, 4931):
            digits = []
            v = idx
            for _ in range(12):
                digits.append(v % 3 - 1)
                v //= 3
            rows = [digits[0:4], digits[4:8], digits[8:12]]
            assert RationalMatrix.from_rows(rows).rank() == minor_rank(rows)

    def test_transpose_and_row_ops_invariance(self, rng):
        for _ in range(20):
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(3)
            ]
            m = RationalMatrix.from_rows(rows)
            r = m.rank()
            assert transpose(m).rank() == r
            swapped = [rows[1], rows[0], rows[2]]
            assert RationalMatrix.from_rows(swapped).rank() == r
            scaled = [[Fraction(5, 3) * e for e in rows[0]], rows[1], rows[2]]
            assert RationalMatrix.from_rows(scaled).rank() == r

    @staticmethod
    def determinant(rows):
        """det of rational rows, each `cleared` to ints first, as `eliminate` asks of rationals."""
        dens, ints = zip(*map(cleared, rows))
        return Fraction(eliminate(list(ints))[0], math.prod(dens))

    def test_determinant_multiplicative(self, rng):
        for _ in range(10):
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            b = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            ab = rows_times_rows(a, b)
            assert self.determinant(ab) == self.determinant(a) * self.determinant(b)

    def test_determinant_matches_cofactor_oracle(self, rng):
        # sizes above 3 take integer elimination steps after clearing denominators
        for size in (2, 4, 5):
            for _ in range(6):
                rows = [
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]
                    for _ in range(size)
                ]
                if rng.random() < 0.3:
                    rows[-1] = [a - b for a, b in zip(rows[0], rows[1])]
                assert self.determinant(rows) == cofactor_determinant(rows)


class TestSignature:
    def test_positive_diagonal(self):
        assert RationalMatrix.from_rows([[2, 0], [0, 2]]).signature() == (2, 0, 0)

    def test_mixed_diagonal(self):
        assert RationalMatrix.from_rows([[2, 0], [0, -6]]).signature() == (1, 1, 0)

    def test_hyperbolic_block(self):
        # forces the 2x2 off-diagonal pivot path; eigenvalues are +-1
        assert RationalMatrix.from_rows([[0, 1], [1, 0]]).signature() == (1, 1, 0)

    def test_zero_block(self):
        assert RationalMatrix.from_rows([[0, 0], [0, 0]]).signature() == (0, 0, 2)

    def test_larger_hyperbolic(self):
        m = RationalMatrix.from_rows(
            [[0, 0, 1], [0, 3, 0], [1, 0, 0]]
        )
        assert m.signature() == (2, 1, 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricMatrixError):
            RationalMatrix.from_rows([[0, 1], [2, 0]]).signature()

    def test_sylvester_congruence(self, rng):
        from conftest import random_invertible_matrix

        for _ in range(12):
            size = rng.choice([2, 3])
            sym = [[Fraction(0)] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    v = Fraction(rng.randint(-3, 3))
                    sym[i][j] = sym[j][i] = v
            m = RationalMatrix.from_rows(sym)
            a = random_invertible_matrix(rng, size)
            congruent = RationalMatrix.from_rows(
                rows_times_rows(rows_times_rows(transpose(a).to_rows(), sym), a.to_rows()))
            assert congruent.signature() == m.signature()

    def test_matches_float_eigenvalues(self):
        # sparse integer matrices, many with a zero diagonal, so the
        # congruence step for a zero trailing diagonal runs often
        import numpy as np
        rng = random.Random(41)
        checked = 0
        for _ in range(300):
            size = rng.randint(1, 6)
            sym = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    if i != j or rng.random() < 0.3:
                        sym[i][j] = sym[j][i] = rng.choice((0, 0, 1, -1, 2, -3))
            eig = np.linalg.eigvalsh(np.array(sym, dtype=float))
            if np.min(np.abs(eig[np.abs(eig) > 1e-9]), initial=1.0) < 1e-6:
                continue
            m = RationalMatrix.from_rows([[Fraction(v, 3) for v in row] for row in sym])
            expected = (int(np.sum(eig > 1e-9)), int(np.sum(eig < -1e-9)), size - m.rank())
            assert m.signature() == expected, sym
            checked += 1
        assert checked > 250

    def test_signature_consistent_with_rank(self, rng):
        for _ in range(10):
            size = 3
            sym = [[Fraction(0)] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    v = Fraction(rng.randint(-2, 2))
                    sym[i][j] = sym[j][i] = v
            m = RationalMatrix.from_rows(sym)
            pos, neg, zero = m.signature()
            assert pos + neg == m.rank()
            assert pos + neg + zero == size


class TestCongruence:
    """`congruence` against sympy: det(A), and the inertia from the real roots of det(x I - A)."""

    @staticmethod
    def random_symmetric(rng, size, kind):
        if kind == "low-rank":
            # B^T D B with B of fewer rows than columns, possibly none
            k = rng.randint(0, size - 1)
            b = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(k)]
            d = [rng.choice((1, -1, 2)) for _ in range(k)]
            return [[sum(b[r][i] * d[r] * b[r][j] for r in range(k)) for j in range(size)]
                    for i in range(size)]
        sym = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                if i != j or kind == "dense":
                    sym[i][j] = sym[j][i] = rng.choice((0, 1, -1, 2, -3))
        return sym

    def test_inertia_and_determinant_match_sympy(self):
        import sympy

        x = sympy.Symbol("x")
        rng = random.Random(6173)
        singular = 0
        for trial in range(150):
            kind = ("dense", "zero-diagonal", "low-rank")[trial % 3]
            size = rng.randint(1, 6)
            sym = self.random_symmetric(rng, size, kind)
            copy = [list(row) for row in sym]
            inertia, det = congruence(sym)
            assert sym == copy
            matrix = sympy.Matrix(sym)
            assert det == matrix.det(), sym
            roots = matrix.charpoly(x).real_roots()
            assert len(roots) == size  # a symmetric matrix has real eigenvalues
            pos, neg = sum(1 for r in roots if r > 0), sum(1 for r in roots if r < 0)
            assert inertia == (pos, neg, size - pos - neg), sym
            singular += det == 0
        assert singular >= 50


class TestFloatEliminationBits:
    """`float.hex` of `eliminate`'s det(A) and adj(A) W on floats and float jets, pinned.

    A 5x5 float matrix takes two forward steps before the 3x3 cofactor
    base, so the back-assembly divides by p^2 and p^3, p the last pivot: by
    `/` for floats and through the scaled inverse series for float jets.
    The values were recorded before the division helpers were merged into
    one; any change in the order of a float product or sum shows here.
    Blocks without a pivot, which `_cofactor` expands whole, are checked
    against `plain_cofactor`, which expands every minor anew.
    """

    @staticmethod
    def matrix():
        return [[((3 * i + 5 * j * j + 2 * i * j) % 11 - 5) / 7 + (2.5 if i == j else 0.0)
                 for j in range(5)] for i in range(5)]

    @staticmethod
    def digest(det, adj_w):
        def hexes(p):
            if isinstance(p, float):
                return [p.hex()]
            return [f"{e}:{c.hex()}" for e, c in sorted(p.items())]

        lines = hexes(det) + [h for row in adj_w for e in row for h in hexes(e)]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def test_floats(self):
        rows = self.matrix()
        extra = [[(i - 2 * j + 1) / 3 for j in range(2)] for i in range(5)]
        det, adj_w = eliminate(rows, extra)
        assert det.hex() == "0x1.e0827a9d9671ap+5"
        assert det == pytest.approx(np.linalg.det(np.array(rows)), rel=1e-12)
        assert self.digest(det, adj_w) == (
            "6d4c58977ec4fdf4838cf2a22d3a56eeb0b85d3bb627923d632d0881e105f1d4")

    def test_float_jets(self):
        ctx = make_context("x", "y")
        rows = [
            [Polynomial(ctx, {(0, 0): a, (1, 0): ((i + 2 * j) % 5 - 2) / 9,
                              (0, 1): ((2 * i + j) % 7 - 3) / 5,
                              (1, 1): ((i * j) % 3 - 1) / 11}).truncated(2)
             for j, a in enumerate(row)]
            for i, row in enumerate(self.matrix())
        ]
        extra = [[Polynomial(ctx, {(0, 0): (i + 1) / 3, (0, 1): (2 - i) / 7}).truncated(2)]
                 for i in range(5)]
        det, adj_w = eliminate(rows, extra)
        assert det.jet == 2 and all(row[0].jet == 2 for row in adj_w)
        assert det.constant_term() == pytest.approx(np.linalg.det(np.array(self.matrix())))
        assert self.digest(det, adj_w) == (
            "fadd2329297f464b80a02e307be99e761463b624638fa43411797f693e80196d")

    def test_pivot_powers_out_of_range_do_not_raise(self):
        # p^3 overflows for p = 1e110 and underflows to 0.0 for p = 1e-110,
        # where Python's `**` and `/` raise: the quotients are IEEE 754's
        for scale in (1e110, 1e-110):
            rows = [[scale * (i == j) for j in range(4)] for i in range(4)]
            det, adj_w = eliminate(rows, [[1.0] for _ in range(4)])
            assert math.isnan(adj_w[0][0])
        over, under = linalg._dividers(-1e110, 3)[0], linalg._dividers(-1e-110, 3)[0]
        assert over(1e300).hex() == "-0x0.0p+0" and math.isnan(over(math.inf))
        assert [under(v) for v in (2.0, -math.inf)] == [-math.inf, math.inf]
        assert math.isnan(under(0.0)) and math.isnan(under(math.nan))
        assert float_power(-1e200, 3) == -math.inf and float_power(-1e200, 2) == math.inf
        assert float_power(1.5, 2) == 2.25

    @pytest.mark.parametrize("size", [4, 5, 6])
    def test_blocks_without_a_pivot_match_plain_expansion(self, size):
        # float jets without constant terms, and signed float zeros, leave
        # the whole block to `_cofactor`: its kept minors give the bits of
        # expanding every minor anew
        ctx = make_context("x", "y")
        rng = random.Random(43 * size)

        def entry():
            terms = {(1, 0): rng.uniform(-1, 1), (0, 1): rng.uniform(-1, 1),
                     (1, 1): rng.uniform(-1, 1)}
            return Polynomial(ctx, terms).truncated(size)

        jets = sparse_block(rng, size, entry, Polynomial(ctx, {}).truncated(size))
        jet_extra = [[Polynomial(ctx, {(0, 0): rng.uniform(-1, 1)}).truncated(size)]
                     for _ in range(size)]
        zeros = [[rng.choice((0.0, -0.0)) for _ in range(size)] for _ in range(size)]
        extra = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(size)]
        for a, w in ((jets, jet_extra), (zeros, extra)):
            assert self.digest(*eliminate(a, w)) == self.digest(*plain_cofactor(a, w))
