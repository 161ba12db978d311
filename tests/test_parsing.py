"""Expression grammar and germ-file documents."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morinclass import MalformedGermError, Polynomial, VariableContext
from morinclass.context import MAX_DEGREE
from morinclass.parsing import (
    MAX_POWER_BITS,
    ParseError,
    _tokenize,
    parse_expression,
    parse_germ_document,
)

from conftest import make_context, random_polynomial


@pytest.fixture
def family_ctx():
    return VariableContext.make(("x1", "x2", "y1", "y2"), ("a1", "a2", "b1", "b2"))


class TestExpressions:
    def test_family_first_component(self, family_ctx):
        p = parse_expression("x1*x2 - y1*y2 + a1*x1 + a2*x2", family_ctx)
        x1, x2, y1, y2, a1, a2, *_ = (
            Polynomial.variable(family_ctx, n) for n in family_ctx.names
        )
        assert p == x1 * x2 - y1 * y2 + a1 * x1 + a2 * x2

    def test_zero(self):
        ctx = make_context("x")
        assert parse_expression("0", ctx).is_zero()

    def test_square_of_sum(self):
        ctx = make_context("x", "y")
        x, y = Polynomial.variable(ctx, "x"), Polynomial.variable(ctx, "y")
        assert parse_expression("(x+y)^2", ctx) == x**2 + 2 * x * y + y**2

    def test_rational_literal(self):
        ctx = make_context("x")
        x = Polynomial.variable(ctx, "x")
        assert parse_expression("3/2*x - 1/2", ctx) == Fraction(3, 2) * x - Fraction(1, 2)

    def test_unary_minus_binds_conventionally(self):
        ctx = make_context("x")
        x = Polynomial.variable(ctx, "x")
        assert parse_expression("-x^2", ctx) == -(x**2)
        assert parse_expression("(-x)^2", ctx) == x**2

    def test_whitespace_insensitive(self, family_ctx):
        a = parse_expression("x1 * x2-y1  *y2", family_ctx)
        b = parse_expression("x1*x2 - y1*y2", family_ctx)
        assert a == b

    def test_unknown_identifier_with_position(self):
        ctx = make_context("x")
        with pytest.raises(ParseError) as err:
            parse_expression("x + w", ctx)
        assert err.value.line == 1 and err.value.column == 5

    def test_negative_exponent_rejected(self):
        ctx = make_context("x")
        with pytest.raises(ParseError):
            parse_expression("x^-2", ctx)

    def test_non_integer_exponent_rejected(self):
        ctx = make_context("x")
        with pytest.raises(ParseError):
            parse_expression("x^x", ctx)

    def test_division_outside_literals_rejected(self):
        ctx = make_context("x")
        with pytest.raises(ParseError):
            parse_expression("x/2", ctx)

    def test_syntax_error_position(self):
        ctx = make_context("x")
        with pytest.raises(ParseError) as err:
            parse_expression("x + + ", ctx)
        assert err.value.line == 1


def _character_tokens(text, line_offset=1):
    """The tokens of `text` by a scan one character at a time (ASCII classes)."""
    tokens = []
    line, col, i = line_offset, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch.isspace():
            col, i = col + 1, i + 1
            continue
        j = i + 1
        if ch in "0123456789":
            kind = "int"
            while j < len(text) and text[j] in "0123456789":
                j += 1
        elif ch.isascii() and (ch.isalpha() or ch == "_"):
            kind = "ident"
            while j < len(text) and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif ch in "+-*^()/":
            kind = "op"
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append((kind, text[i:j], line, col))
        col, i = col + j - i, j
    tokens.append(("end", "", line, col))
    return tokens


def _outcome(tokenize, text):
    try:
        return tokenize(text, 3)
    except ParseError as err:
        return (str(err), err.line, err.column)


class TestTokenizer:
    def test_tokens_match_a_character_scan(self):
        rng = random.Random(4242)
        # with blanks that str.isspace() and re's \s must both know, and a
        # zero-width space, which is none
        alphabet = "xyz_AZ0129+-*^()/ \t\r\n\u00a0\x1c\u2028\u200b$."
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
            assert _outcome(_tokenize, text) == _outcome(_character_tokens, text), text

    def test_token_tuples(self):
        assert _tokenize("x2 +\n 13*_a^2", 4) == [
            ("ident", "x2", 4, 1), ("op", "+", 4, 4), ("int", "13", 5, 2), ("op", "*", 5, 4),
            ("ident", "_a", 5, 5), ("op", "^", 5, 7), ("int", "2", 5, 8), ("end", "", 5, 9),
        ]

    @pytest.mark.parametrize("text, column", [
        ("y^\u00b2 + z^2", 3),  # superscript two: str.isdigit() holds, int() fails
        ("x + \u0663", 5),      # Arabic-Indic three: int() would read it as 3
        ("x\u00b2", 2),
        ("\u03b1 + x", 1),      # non-ASCII letters are not identifiers
    ])
    def test_non_ascii_digits_and_letters_are_positioned_errors(self, text, column):
        ctx = make_context("x", "y", "z")
        with pytest.raises(ParseError) as err:
            parse_expression(text, ctx)
        assert err.value.line == 1 and err.value.column == column
        assert "unexpected character" in err.value.message


class TestPowerBound:
    def test_huge_exponent_fails_at_its_token(self):
        ctx = make_context("x", "y")
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_expression("y +\n  x^99999999", ctx, line_offset=7)
        assert time.perf_counter() - start < 0.1
        assert (err.value.line, err.value.column) == (8, 5)
        assert str(MAX_DEGREE) in err.value.message
        with pytest.raises(ParseError) as err:
            parse_expression("x^" + "9" * 5000, ctx)
        assert err.value.column == 3 and err.value.message == "exponent is too large"

    @pytest.mark.parametrize("base", ["3", "(1/2)", "0", "(2-2)", "(x-x+5)"])
    def test_constant_base_fails_at_its_exponent(self, base):
        ctx = make_context("x", "y")
        text = f"y +\n  {base}^99999999*x"
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_expression(text, ctx, line_offset=7)
        assert time.perf_counter() - start < 1.0
        assert (err.value.line, err.value.column) == (8, 3 + len(base) + 1)
        assert err.value.message == (
            f"exponent 99999999 exceeds the largest supported degree {MAX_DEGREE}")
        # the largest exponent allowed still parses
        with pytest.raises(ParseError):
            parse_expression(f"2^{MAX_DEGREE + 1}", ctx)
        assert parse_expression(f"1^{MAX_DEGREE}*x", ctx) == parse_expression("x", ctx)

    def test_constant_base_below_the_bound_keeps_its_value(self):
        ctx = make_context("x", "y")
        assert parse_expression("3^40000*x", ctx) == 3**40000 * Polynomial.variable(ctx, "x")
        assert parse_expression("(1/2)^7*y", ctx) == Fraction(1, 128) * Polynomial.variable(ctx, "y")

    @pytest.mark.parametrize(
        "base", ["(3^65535)", "(2*3^65535*x)", "9" * 4000, "(1/" + "7" * 4000 + ")", "(4/3)"])
    def test_big_coefficient_fails_at_its_exponent(self, base):
        # each of these has degree at most MAX_DEGREE, but coefficients of
        # far more bits than MAX_POWER_BITS
        ctx = make_context("x", "y")
        text = f"y +\n  {base}^65535*x"
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_expression(text, ctx, line_offset=7)
        assert time.perf_counter() - start < 1.0
        assert (err.value.line, err.value.column) == (8, 3 + len(base) + 1)
        assert err.value.message.endswith(
            f"exceeds the largest supported coefficient size of {MAX_POWER_BITS} bits")

    def test_coefficient_below_the_bound_keeps_its_value(self):
        ctx = make_context("x", "y")
        x = Polynomial.variable(ctx, "x")
        assert parse_expression("(3^65535)^1*x", ctx) == 3**65535 * x
        assert parse_expression("(3*x)^65535", ctx) == 3**65535 * x**65535
        assert parse_expression("(2^65535)^2", ctx) == 2**131070
        with pytest.raises(ParseError):
            parse_expression("(2^65535)^3", ctx)

    def test_huge_literal_fails_at_its_token(self):
        ctx = make_context("x", "y")
        for text, column in [("x + 1" + "0" * 5000, 5), ("x + 1/" + "3" * 5000, 7)]:
            with pytest.raises(ParseError) as err:
                parse_expression(text, ctx)
            assert err.value.column == column
            assert err.value.message == "integer literal is too large"

    def test_bound_counts_the_base_degree(self):
        ctx = make_context("x", "y")
        k = MAX_DEGREE // 2 + 1
        with pytest.raises(ParseError) as err:
            parse_expression(f"(x*y)^{k}", ctx)
        assert err.value.column == 7
        # a constant base has degree 0, and the largest degree itself fits
        assert parse_expression("2^3", ctx) == 8
        assert parse_expression(f"x^{MAX_DEGREE}", ctx).degree() == MAX_DEGREE

    def test_product_beyond_the_bound_fails_at_its_operator(self):
        ctx = make_context("x")
        half = MAX_DEGREE // 2 + 1
        with pytest.raises(ParseError) as err:
            parse_expression(f"x^{half} * x^{half}", ctx)
        assert err.value.column == len(f"x^{half} ") + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_parse_render_roundtrip(seed):
    ctx = VariableContext.make(("x1", "x2"), ("a1",))
    p = random_polynomial(random.Random(seed), ctx, max_degree=4, n_terms=5)
    assert parse_expression(p.render(), ctx) == p


CUSP_DOC = """
# cusp normal form
vars: x y z
map: x ; y^2 + z^3 + x*z
"""

FAMILY_DOC = """
vars: x1 x2 y1 y2
params: a1 a2 b1 b2
map: x1*x2 - y1*y2 + a1*x1 + a2*x2 ; x1*y2 + x2*y1 + b1*x1 + b2*x2
bind: a1 = 1, a2 = 0, b1 = 0, b2 = 7
point: 0 -1 0 0
"""


class TestGermDocuments:
    def test_basic_document(self):
        doc = parse_germ_document(CUSP_DOC)
        assert doc.source_vars == ("x", "y", "z")
        germ = doc.to_germ()
        assert germ.n == 2 and germ.m == 3

    def test_family_document(self):
        doc = parse_germ_document(FAMILY_DOC)
        assert doc.param_vars == ("a1", "a2", "b1", "b2")
        assert doc.bindings["b2"] == 7
        assert doc.base_point == (0, -1, 0, 0)
        germ = doc.to_germ()
        assert not germ.uses_parameters()

    def test_unbound_parameters_rejected(self):
        doc = parse_germ_document(
            "vars: x1 x2 y1 y2\nparams: a1 a2 b1 b2\nmap: x1 ; x2"
        )
        with pytest.raises(ParseError):
            doc.to_germ()

    def test_missing_map(self):
        with pytest.raises(ParseError):
            parse_germ_document("vars: x y z\n")

    def test_unknown_section(self):
        with pytest.raises(ParseError) as err:
            parse_germ_document("vars: x y\nfrobnicate: 1\nmap: x ; y")
        assert err.value.line == 2

    def test_point_arity_checked(self):
        with pytest.raises(ParseError):
            parse_germ_document("vars: x y z\nmap: x ; y\npoint: 1 2")

    @pytest.mark.parametrize("text, line", [
        ("vars: x y z\nparams: a = \u0663\nmap: x ; y^2 + a*z^2", 2),
        ("vars: x y z\nparams: a\nmap: x ; y^2 + a*z^2\nbind: a = 1/\u0662", 4),
        ("vars: x y z\nmap: x ; y^2 + z^2\npoint: \u0661 0 0", 3),
    ])
    def test_non_ascii_digits_in_values_rejected(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_germ_document(text)
        assert err.value.line == line and "not a rational number" in err.value.message

    def test_bind_requires_declared_parameter(self):
        with pytest.raises(ParseError):
            parse_germ_document("vars: x y z\nmap: x ; y\nbind: q = 1")

    def test_inline_parameter_values(self):
        doc = parse_germ_document(
            "vars: x y z\nparams: a = 1/2, b\nmap: x ; y^2 + a*z^2\nbind: b = 3"
        )
        assert doc.param_vars == ("a", "b")
        assert doc.bindings == {"a": Fraction(1, 2), "b": 3}
        germ = doc.to_germ()
        assert not germ.uses_parameters()

    def test_too_few_variables_rejected_before_expanding(self):
        # four 60th powers of a four-term sum: expanding them takes seconds
        big = " ; ".join(["(x+y+z+w)^60"] * 4)
        doc = parse_germ_document(f"vars: x y z w\nmap: {big}\n")
        start = time.perf_counter()
        with pytest.raises(MalformedGermError) as err:
            doc.to_germ()
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == "need more source variables than components (m=4, n=4)"

    def test_expression_errors_carry_file_line(self):
        doc = parse_germ_document("vars: x y z\n\nmap: x ; y^2 + w")
        with pytest.raises(ParseError) as err:
            doc.to_germ()
        assert err.value.line == 3
