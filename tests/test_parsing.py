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
from morinclass.context import MAX_DEGREE
from morinclass.parsing import (
    MAX_POWER_BITS,
    MAX_POWER_TERMS,
    ParseError,
    _power_products,
    _tokenize,
    parse_expression,
    parse_germ_document,
)

from conftest import (
    ainv_request_texts,
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

    @pytest.mark.parametrize("base, k", [("(x+y)", 65535), ("(x + y + z)", 5000)])
    def test_many_term_base_fails_at_its_exponent(self, base, k):
        # each passes the degree and the coefficient bound, but expanding it
        # would take hours
        ctx = make_context("x", "y", "z")
        text = f"y +\n  {base}^{k}*x"
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_expression(text, ctx, line_offset=7)
        assert time.perf_counter() - start < 1.0
        assert (err.value.line, err.value.column) == (8, 3 + len(base) + 1)
        assert err.value.message == (
            f"expanding this power would take more than {MAX_POWER_TERMS} term products")

    def test_many_term_base_below_the_bound_keeps_its_value(self):
        ctx = make_context("x", "y", "z")
        assert parse_expression("(x+y)^200", ctx) == polynomial_parse("(x+y)^200", ctx)
        assert parse_expression("(x-x+y)^65535", ctx) == polynomial_parse("y^65535", ctx)

    def test_product_count_bounds_the_expansion(self, monkeypatch):
        # (x_1 + ... + x_t)^k has as many terms as any t-term base can give
        ctx = make_context("x", "y", "z", "w")
        calls = []
        mul_terms = _termops_py.mul_terms

        def counting(a, b, *args):
            calls.append(len(a) * len(b))
            return mul_terms(a, b, *args)

        monkeypatch.setattr(_termops_py, "mul_terms", counting)
        for t in range(1, 5):
            base = "(" + " + ".join(f"{i + 1}*{v}" for i, v in enumerate(ctx.names[:t])) + ")"
            for k in range(1, 9):
                calls.clear()
                parse_expression(f"{base}^{k}", ctx)
                assert sum(calls) <= _power_products(t, k), (t, k)
                if t > 1 and k > 1:
                    # the last product meets every term of degree k - 1
                    assert calls[-1] * (k - 1) == _power_products(t, k)


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

    @pytest.mark.parametrize("entry, message", [
        ("point: 1 2", "point: needs 3 coordinates, got 2"),
        ("bind: q = 1", "bind: references undeclared parameter 'q'"),
    ])
    def test_entries_checked_after_reading_report_their_line(self, entry, message):
        text = f"vars: x y z\nparams: a\n\nmap: x ; y^2 + a*z^2\n{entry}\nbind: a = 1\n"
        with pytest.raises(ParseError) as err:
            parse_germ_document(text)
        assert (err.value.message, err.value.line) == (message, 5)

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
