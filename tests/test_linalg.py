"""Exact linear algebra: determinants, adjugates, rank, inertia."""

import random
from fractions import Fraction
from itertools import product

import pytest

from morinclass import Polynomial, PolyMatrix, RationalMatrix
from morinclass.linalg import (
    AsymmetricMatrixError,
    NonSquareMatrixError,
    eliminate,
    poly_identity,
)

from conftest import (
    cofactor_determinant,
    make_context,
    minor_rank,
    random_polynomial,
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
        assert poly_identity(ctx, 3).determinant() == Polynomial.constant(ctx, 1)

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
                prod = m.adjugate() * m
                expected = poly_identity(ctx, size).map(lambda e: e * det)
                assert all(
                    prod[r, c] == expected[r, c] for r in range(size) for c in range(size)
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


def times(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(1, len(b))), a[i][0] * b[0][j])
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


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
        det, adj_w = eliminate(rows, extra)
        assert det == cofactor_determinant(rows)
        expected = times(cofactor_adjugate(rows), extra)
        assert all(
            adj_w[i][j] == expected[i][j]
            for i in range(len(rows)) for j in range(len(extra[0]))
        )

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
        sympy = pytest.importorskip("sympy")
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

    def test_determinant_multiplicative(self, rng):
        for _ in range(10):
            a = RationalMatrix.from_rows(
                [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            )
            b = RationalMatrix.from_rows(
                [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            )
            assert (a * b).determinant() == a.determinant() * b.determinant()

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
                assert RationalMatrix.from_rows(rows).determinant() == cofactor_determinant(rows)


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
            congruent = transpose(a) * m * a
            assert congruent.signature() == m.signature()

    def test_matches_float_eigenvalues(self):
        # sparse integer matrices, many with a zero diagonal, so the
        # congruence step for a zero trailing diagonal runs often
        np = pytest.importorskip("numpy")
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
