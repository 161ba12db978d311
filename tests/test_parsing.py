"""Expression grammar and germ-file documents."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morinclass import MalformedGermError, MapGerm, Polynomial, VariableContext
from morinclass import _termops_py
from morinclass._termops_py import MAX_TERM_PAIRS
from morinclass.context import MAX_DEGREE
from morinclass.parsing import (
    MAX_NESTING,
    MAX_POWER_BITS,
    ParseError,
    _token_place,
    _tokenize,
    parse_expression,
    parse_germ_document,
    parse_rational,
)

from conftest import (
    ainv_request_texts,
    character_tokens,
    make_context,
    polynomial_parse,
    random_polynomial,
    to_sympy,
)


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


def _token_tuples(text, line_offset=1):
    """`_tokenize`'s strings as (kind, text, line, column), each place from `_token_place`."""
    kinds = {"": "end", **dict.fromkeys("+-*^()/", "op")}
    return [(kinds.get(tok) or ("int" if tok[0].isdigit() else "ident"), tok,
             *_token_place(text, i, line_offset))
            for i, tok in enumerate(_tokenize(text, line_offset))]


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
            assert _outcome(_token_tuples, text) == _outcome(character_tokens, text), text

    def test_token_tuples(self):
        assert _tokenize("x2 +\n 13*_a^2", 4) == ["x2", "+", "13", "*", "_a", "^", "2", ""]
        assert _token_tuples("x2 +\n 13*_a^2", 4) == [
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


class TestDeepInput:
    """Nesting and sign runs: a bound and a loop, not Python's recursion limit."""

    def test_nesting_up_to_the_bound_parses(self):
        ctx = make_context("x")
        text = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_expression(text, ctx) == Polynomial.variable(ctx, "x")
        # the bound counts the parentheses open at once, not all of them
        assert parse_expression(" - ".join([text] * 3), ctx) == -Polynomial.variable(ctx, "x")

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 200, 300, 5000])
    def test_deeper_nesting_fails_at_the_parenthesis_too_deep(self, depth):
        ctx = make_context("x")
        with pytest.raises(ParseError) as err:
            parse_expression("(" * depth + "x" + ")" * depth, ctx)
        assert err.value.message == f"more than {MAX_NESTING} nested parentheses"
        assert (err.value.line, err.value.column) == (1, MAX_NESTING + 1)

    def test_nesting_error_on_a_later_line(self):
        ctx = make_context("x", "y")
        text = "x +\n  " + "(-y*" * MAX_NESTING + "(x" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError) as err:
            parse_expression(text, ctx, line_offset=4)
        assert (err.value.line, err.value.column) == (5, 3 + 4 * MAX_NESTING)

    @pytest.mark.parametrize("count", [1, 2, 3, 40, 1199, 1200, 5001])
    def test_sign_runs_read_by_their_parity(self, count):
        ctx = make_context("x", "y")
        text = "-" * count + "3/2*x^2 + " + "+-" * count + "y - " + "-+" * count + "2"
        p = parse_expression(text, ctx)
        sign = -1 if count % 2 else 1
        x, y = Polynomial.variable(ctx, "x"), Polynomial.variable(ctx, "y")
        assert p == sign * (Fraction(3, 2) * x**2 + y) - sign * 2
        if count <= 40:  # the oracle recurses once per sign
            assert _parsed(parse_expression, text, ctx) == _parsed(polynomial_parse, text, ctx)


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

    @pytest.mark.parametrize("base, k", [
        ("(x+y)", 65535), ("(x + y + z)", 5000), ("(x+y+z+w)", 60)])
    def test_many_term_base_fails_at_its_exponent(self, base, k):
        # each passes the degree and the coefficient bound, but expanding it
        # would take hours
        ctx = make_context("x", "y", "z", "w")
        text = f"y +\n  {base}^{k}*x"
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_expression(text, ctx, line_offset=7)
        assert time.perf_counter() - start < 1.0
        assert (err.value.line, err.value.column) == (8, 3 + len(base) + 1)
        assert err.value.message == (
            f"expanding this power would take more than {MAX_TERM_PAIRS} term products")

    def test_many_term_base_below_the_bound_keeps_its_value(self):
        ctx = make_context("x", "y", "z")
        assert parse_expression("(x+y)^200", ctx) == polynomial_parse("(x+y)^200", ctx)
        assert parse_expression("(x-x+y)^65535", ctx) == polynomial_parse("y^65535", ctx)
        # 515,097 term pairs: the count admits it, where a bound predicted
        # from the monomials of each degree refused it
        assert parse_expression("(x+y+z)^100", ctx) == polynomial_parse("(x+y+z)^100", ctx)

    def test_refusal_follows_the_pair_count(self, monkeypatch):
        # the first power refused is the first whose products, len(a) * len(b)
        # each, counted outside any limit, pass MAX_TERM_PAIRS
        ctx = make_context("x", "y", "z")
        calls = []
        mul_terms = _termops_py.mul_terms

        def counting(a, b, *args):
            assert _termops_py._pairs_left is None
            calls.append(len(a) * len(b))
            return mul_terms(a, b, *args)

        monkeypatch.setattr(_termops_py, "mul_terms", counting)
        parse_expression("x+y+z", ctx) ** 126  # the products of (x+y+z)^k are its first k - 1
        monkeypatch.undo()
        total, k = 0, 1
        while total <= MAX_TERM_PAIRS:
            total += calls[k - 1]
            k += 1
        assert k == 125
        assert parse_expression(f"(x+y+z)^{k - 1}", ctx).degree() == k - 1
        with pytest.raises(ParseError, match="expanding this power"):
            parse_expression(f"(x+y+z)^{k}", ctx)

    def test_product_of_two_sums_fails_at_its_operator(self):
        # each factor fits, but their product takes 2556^2 = 6.5M term pairs
        ctx = make_context("x", "y", "z")
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_expression("(x+y+z)^70 * (x+y+z)^70", ctx)
        assert time.perf_counter() - start < 1.0
        assert err.value.column == len("(x+y+z)^70 ") + 1
        assert err.value.message == (
            f"expanding this product would take more than {MAX_TERM_PAIRS} term products")
        # 861^2 = 741,321 pairs fit
        text = "(x+y+z)^40 * (x+y+z)^40"
        assert parse_expression(text, ctx) == polynomial_parse(text, ctx)

    def test_fraction_base_matches_its_unscaled_expansion(self):
        # the parser's `^` is `pow_terms` on the parsed base: its terms in
        # order and of its types; the xy term of the first square cancels
        ctx = make_context("x", "y", "z")
        rng = random.Random(87)
        monomials = ["1", "x", "y", "z", "x*y", "y*z", "x^2", "z^2"]
        bases = [("1/2 + 1/1*x - 1/1*y + 2/1*x*y", 2), ("1/2*x+2/3*y-3/7*z", 9)]
        for _ in range(30):
            terms = [f"{rng.choice('+-')}{rng.randint(1, 7)}/{rng.randint(1, 6)}*{mono}"
                     for mono in rng.sample(monomials, rng.randint(2, 5))]
            bases.append((" ".join(terms), rng.randint(2, 6)))
        for base, k in bases:
            unscaled = _termops_py.pow_terms(parse_expression(base, ctx).terms, k, ctx)
            assert _parsed(parse_expression, f"({base})^{k}", ctx) == [
                (key, coeff, type(coeff)) for key, coeff in unscaled.items()], base

    @pytest.mark.parametrize("base", ["(x+2/3*y-3/7*z)", "(1/1*x+2/3*y-3/7*z)", "(1/2+x)"])
    def test_fraction_base_expands_on_ints(self, base, monkeypatch):
        # the power adds no Fraction sum or product to those of its base
        ctx = make_context("x", "y", "z")
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            op = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda a, b, op=op: calls.append(1) or op(a, b))

        def fraction_ops(text):
            calls.clear()
            parse_expression(text, ctx)
            return len(calls)

        assert fraction_ops(f"{base}^20") == fraction_ops(base)
        # and so does `Polynomial.__pow__`, through the same `pow_terms`
        power = parse_expression(base, ctx)
        calls.clear()
        power**20
        assert not calls


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


class TestDecimalExponents:
    """A decimal exponent is refused beyond 4300 in magnitude, the digit limit
    int() puts on integer text, before Fraction would build 10^e: that took
    10.8 s for 1e10000000 alone."""

    def test_the_limit_parses_and_one_past_fails_fast(self):
        start = time.perf_counter()
        assert parse_rational("1e4300") == 10**4300
        assert parse_rational("-2.5E-4_300") == Fraction(-25, 10**4301)
        assert parse_rational("1e0000004300") == 10**4300
        for text in ("1e4301", "1e-4301", "3.5E+0004301", "1e10000000", "1e" + "9" * 5000):
            with pytest.raises(ParseError) as err:
                parse_rational(text, 7)
            assert err.value.line == 7
            assert err.value.message.startswith("decimal exponent beyond 4300 in ")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("line", [
        "bind: a = 1e1000000",
        "params: a = 1e-1000000",
        "point: 0, 1e1000000, 0",
    ])
    def test_germ_files_fail_at_the_line(self, line):
        text = f"vars: x y z\nparams: a\nmap: x ; y^2 + a*z^2\n{line}"
        if line.startswith("params"):
            text = text.replace("params: a\n", "") + "\n"
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_germ_document(text)
        assert time.perf_counter() - start < 1
        assert "decimal exponent beyond 4300" in err.value.message
        assert err.value.line == text.splitlines().index(line) + 1


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

    def test_documents_share_one_context_per_variable_list(self):
        # one `VariableContext` per (names, roles): documents with the same
        # `vars:` line, and two `to_germ` calls on one document, share it
        first, second = parse_germ_document(CUSP_DOC), parse_germ_document(CUSP_DOC)
        assert first.context is second.context
        germs = [first.to_germ(), first.to_germ(), second.to_germ()]
        assert all(g.context is first.context for g in germs)
        assert first.context is VariableContext.make(("x", "y", "z"))
        family = parse_germ_document(FAMILY_DOC)
        # the same names with other roles, or in another order, are other contexts
        assert VariableContext.make(family.source_vars, family.param_vars) is family.context
        assert VariableContext.make(family.source_vars + family.param_vars) != family.context
        assert VariableContext.make(("y", "x", "z")) != first.context

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

    @pytest.mark.parametrize("entry, message", [
        ("point: 1 2", "point: needs 3 coordinates, got 2"),
        ("bind: q = 1", "bind: references undeclared parameter 'q'"),
    ])
    def test_entries_checked_after_reading_report_their_line(self, entry, message):
        text = f"vars: x y z\nparams: a\n\nmap: x ; y^2 + a*z^2\n{entry}\nbind: a = 1\n"
        with pytest.raises(ParseError) as err:
            parse_germ_document(text)
        assert (err.value.message, err.value.line) == (message, 5)

    @pytest.mark.parametrize("text, line, message", [
        ("vars: x x y\nmap: x ; y", 1, "'x' is declared twice"),
        ("vars: x y z\nparams: x\nmap: x ; y", 2, "'x' is declared twice"),
        ("params: a\nvars: x a z\nmap: x ; z", 2, "'a' is declared twice"),
        ("vars: x y z\nparams: a, a = 1\nmap: x ; y", 2, "'a' is declared twice"),
        ("vars: x 2y z\nmap: x ; z", 1, "not a variable name: '2y'"),
        ("vars: x y\u00b2 z\nmap: x ; z", 1, "not a variable name: 'y\u00b2'"),
        ("vars: x y z\nparams: = 3\nmap: x ; y", 2, "not a variable name: ''"),
        ("vars: x y z\nparams: a b = 2\nmap: x ; y", 2, "not a variable name: 'a b'"),
        ("vars: x y z\nparams: a\nmap: x ; y\nbind: 1a = 2", 4, "not a variable name: '1a'"),
    ])
    def test_declared_names_are_distinct_identifiers(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_germ_document(text)
        assert (err.value.message, err.value.line) == (message, line)

    @pytest.mark.parametrize("text, line, message", [
        ("vars: x y z\nmap: x ; y^2 + z^2\nmap: y ; x^2 + z^3", 3, "map: repeats the one at line 2"),
        ("vars: x y z\n\nvars: x y\nmap: x ; y", 3, "vars: repeats the one at line 1"),
        ("vars: x y z\nparams: a\nparams: b\nmap: x ; y", 3, "params: repeats the one at line 2"),
        ("vars: x y z\nmap: x ; y\npoint: 0 0 0\npoint: 1 0 0", 4,
         "point: repeats the one at line 3"),
        ("vars: x y z\nparams: a = 1\nmap: x ; y\nbind: a = 0", 4, "parameter 'a' is bound twice"),
        ("vars: x y z\nparams: a\nmap: x ; y\nbind: a = 1, a = 0", 4,
         "parameter 'a' is bound twice"),
        ("vars: x y z\nparams: a\nbind: a = 1\nmap: x ; y\nbind: a = 0", 5,
         "parameter 'a' is bound twice"),
    ])
    def test_repeated_section_or_binding_is_an_error_at_the_later_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_germ_document(text)
        assert (err.value.message, err.value.line) == (message, line)

    def test_bind_may_repeat_for_distinct_parameters(self):
        doc = parse_germ_document("vars: x y z\nparams: a, b\nbind: a = 1\nmap: x ; y\nbind: b = 2")
        assert doc.bindings == {"a": 1, "b": 2}

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


def random_expression(rng, names, depth=3):
    """A random expression: sums, products, powers, parentheses, unary minus and p/q literals.

    A sum sometimes repeats one of its terms with the other sign, so terms
    cancel in the middle of a sum.
    """

    def atom(d):
        r = rng.random()
        if d == 0 or r < 0.4:
            return rng.choice(names)
        if r < 0.6:
            num = rng.randint(0, 6)
            return str(num) if rng.random() < 0.5 else f"{num}/{rng.randint(1, 4)}"
        return "(" + expr(d - 1) + ")"

    def factor(d):
        text = atom(d)
        if rng.random() < 0.25:
            text += f"^{rng.randint(0, 3 if d == 0 else 2)}"
        if rng.random() < 0.15:
            text = rng.choice("-+") + text
        return text

    def term(d):
        return rng.choice(("*", " * ")).join(factor(d) for _ in range(rng.randint(1, 3)))

    def expr(d):
        terms = [term(d) for _ in range(rng.randint(1, 3))]
        text = terms[0]
        for t in terms[1:]:
            text += rng.choice((" + ", " - ", "+", "-")) + t
        if rng.random() < 0.3:
            text += " - (" + rng.choice(terms) + ") + " + rng.choice(terms)
        return text

    return expr(depth)


def _parsed(parse, text, ctx, line_offset=1):
    """The terms, in order and with their coefficient types, or the error and its place."""
    try:
        p = parse(text, ctx, line_offset)
    except ParseError as err:
        return (err.message, err.line, err.column)
    return [(key, coeff, type(coeff)) for key, coeff in p.terms.items()]


class TestAgainstPolynomialParser:
    """The parser on term dicts against `conftest.polynomial_parse`, today's on polynomials."""

    CTX = VariableContext.make(("x", "y", "z"), ("a", "b"))

    def test_random_expressions(self):
        ctx = self.CTX
        rng = random.Random(1729)
        for _ in range(300):
            text = random_expression(rng, ctx.names)
            assert parse_expression(text, ctx) == polynomial_parse(text, ctx), text
            assert _parsed(parse_expression, text, ctx) == _parsed(polynomial_parse, text, ctx)

    def test_values_match_sympy(self):
        import sympy

        ctx = self.CTX
        symbols = sympy.symbols(ctx.names)
        local = dict(zip(ctx.names, symbols))
        rng = random.Random(1730)
        for _ in range(300):
            text = random_expression(rng, ctx.names, depth=2)
            # p/q is one literal here, also before a ^
            python = re.sub(r"([0-9]+/[0-9]+)", r"(\1)", text).replace("^", "**")
            expected = sympy.expand(sympy.parse_expr(python, local_dict=local))
            assert sympy.expand(to_sympy(parse_expression(text, ctx), symbols) - expected) == 0, text

    def test_errors_on_mangled_expressions(self):
        # one character dropped, doubled or replaced: same value or same
        # error message, line and column
        ctx = self.CTX
        rng = random.Random(31)
        alphabet = "xyzab0123/+-*^() \n"
        errors = 0
        for _ in range(300):
            text = random_expression(rng, ctx.names, depth=2)
            i = rng.randrange(len(text))
            text = rng.choice((
                text[:i] + text[i + 1:],
                text[:i] + text[i] + text[i:],
                text[:i] + rng.choice(alphabet) + text[i + 1:],
            ))
            new = _parsed(parse_expression, text, ctx, 4)
            assert new == _parsed(polynomial_parse, text, ctx, 4), text
            errors += isinstance(new, tuple)
        assert errors >= 50

    def test_request_texts(self):
        # every component the benchmark's A-invariance replay sends, seeds 1 and 2
        for seed in (1, 2):
            for text in ainv_request_texts(seed):
                doc = parse_germ_document(text)
                ctx = doc.context
                for comp, line in doc.component_texts:
                    assert _parsed(parse_expression, comp, ctx, line) == _parsed(
                        polynomial_parse, comp, ctx, line), comp
                doc.to_germ()

    def test_mixed_base_powers(self):
        # a base of int and Fraction terms keeps the coefficient types of
        # `pow_terms`: an int exactly where a term is integral.  In the first
        # four, a term of a partial product cancels and comes back
        ctx = self.CTX
        bases = [("1/1*y - 2*x*y - 2*x - 2", 2), ("-x + x*y - 1/1*y - 2", 3),
                 ("1/2*y + 2*x + 2 - x*y", 4), ("x^2 + z - 1/2 - x", 4), ("x+2/3*y-3/7*z", 9)]
        rng = random.Random(88)
        monomials = ["1", "x", "y", "z", "a", "x*y", "x^2", "y^2"]
        for _ in range(80):
            terms = [f"{rng.choice('+-')}{rng.choice(['1', '2', '1/2', '3/2', '1/1'])}*{mono}"
                     for mono in rng.sample(monomials, rng.randint(2, 5))]
            bases.append((" ".join(terms), rng.randint(1, 5)))
        for base, k in bases:
            text = f"({base})^{k}"
            assert _parsed(parse_expression, text, ctx) == _parsed(
                polynomial_parse, text, ctx), text

    def test_battery_texts(self, battery_germs):
        for *_, germ in battery_germs:
            ctx = germ.context
            for p in germ.components:
                text = p.render()
                assert _parsed(parse_expression, text, ctx) == _parsed(polynomial_parse, text, ctx)
                assert parse_expression(text, ctx) == p

    def test_bound_parameters(self):
        rng = random.Random(577)
        ctx = self.CTX
        for _ in range(40):
            comps = [random_expression(rng, ctx.names, depth=2) for _ in range(2)]
            bindings = {"a": Fraction(rng.randint(-3, 3), rng.randint(1, 3)), "b": rng.randint(-2, 2)}
            doc = parse_germ_document(
                f"vars: x y z\nparams: a, b = {bindings['b']}\nmap: {' ; '.join(comps)}\n"
                f"bind: a = {bindings['a']}\n")
            expected = MapGerm(ctx, tuple(polynomial_parse(c, ctx) for c in comps))
            got = doc.to_germ()
            want = expected.bind_parameters(bindings)
            for p, q in zip(got.components, want.components):
                assert p == q
                assert list(p.terms.items()) == list(q.terms.items())


class TestErrorPlaces:
    """Lines and columns found from a token's offset, on texts of several lines."""

    def test_mangled_multiline_expressions(self):
        # pieces joined across lines, then one character dropped, doubled or
        # replaced, or the text cut short: same value or same error message,
        # line and column as `conftest.polynomial_parse`
        ctx = TestAgainstPolynomialParser.CTX
        rng = random.Random(32)
        alphabet = "xyzab0123/+-*^() \n\t$"
        joins = (" +\n", "\n- ", " *\n  ", "\n\n+ ", "\r\n+")
        errors = later = at_end = 0
        for _ in range(400):
            text = random_expression(rng, ctx.names, depth=2)
            for _ in range(rng.randint(1, 3)):
                text += rng.choice(joins) + random_expression(rng, ctx.names, depth=1)
            i = rng.randrange(len(text))
            text = rng.choice((
                text[:i] + text[i + 1:],
                text[:i] + text[i] + text[i:],
                text[:i] + rng.choice(alphabet) + text[i + 1:],
                text[:i],
            ))
            new = _parsed(parse_expression, text, ctx, 4)
            assert new == _parsed(polynomial_parse, text, ctx, 4), text
            if isinstance(new, tuple):
                errors += 1
                later += new[1] > 4
                at_end += new[1:] == (4 + text.count("\n"), len(text) - text.rfind("\n"))
        assert errors >= 200 and later >= 100 and at_end >= 50, (errors, later, at_end)
