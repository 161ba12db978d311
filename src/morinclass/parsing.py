"""Expression and germ-file parsing.

The expression grammar is deliberately small: identifiers, integer and
rational literals `p/q`, `+ - * ^` with parentheses, `^` taking a
non-negative integer literal.  Germ files are line-oriented:

    vars: x y z
    params: a = 1, b = -3/2   # optional; bare names also allowed
    map: x ; y^2 + z^3 + x*z
    point: 0, 0, 1/2          # optional base point

`#` starts a comment; separators may be commas or whitespace; parameter
values may also arrive on a separate `bind: a = 1, b = -3/2` line.  Only
`bind:` may repeat, and no parameter is bound twice.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import _termops_py as kernel
from .context import MAX_DEGREE, DegreeOverflowError, VariableContext, check_degree
from .germ import MapGerm, check_dimensions
from .polynomial import Polynomial

# The largest coefficient a `^` may build, in bits (about 39,000 digits):
# 3^65535 fits.  A power of a big coefficient, such as (3^65535)^65535, has
# a small degree but would run k - 1 products of ever larger integers.
MAX_POWER_BITS = 1 << 17

# The most term products a `^` may run, by the count of `_power_products`.
# (x+y)^700 fits and expands in about 0.2 s; `pow_terms` expands a base
# with a Fraction coefficient on ints too, so its products cost about as
# much.  A power of a many-term base, such as (x+y)^65535, passes both the
# degree and the coefficient bound but would expand for hours.
MAX_POWER_TERMS = 10**6


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


# Blanks, then one token or one character that starts none.  Digits and
# identifiers are ASCII only: str.isdigit() also holds for '²' and '٣', which
# int() then rejects or reads as another digit.
_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = re.compile(rf"([^\S\n]*)(?:(\n)|([0-9]+)|({_NAME})|([-+*^()/])|(\S))")


def _tokenize(text, line_offset=1):
    """(kind, text, line, column) tuples, ending with an "end" token."""
    tokens = []
    append = tokens.append
    line = line_offset
    pos = 0
    line_start = -1  # the column of pos is pos - line_start
    for blank, newline, number, ident, op, bad in _TOKEN.findall(text):
        pos += len(blank)
        if number:
            append(("int", number, line, pos - line_start))
            pos += len(number)
        elif ident:
            append(("ident", ident, line, pos - line_start))
            pos += len(ident)
        elif op:
            append(("op", op, line, pos - line_start))
            pos += 1
        elif newline:
            line += 1
            line_start = pos
            pos += 1
        else:
            raise ParseError(f"unexpected character {bad!r}", line, pos - line_start)
    append(("end", "", line, len(text) - line_start))
    return tokens


def _power_products(t, k):
    """The term products `pow_terms` runs at most for a t-term base to the k.

    Each of its k - 1 products multiplies the running power, which holds at
    most C(k+t-2, t-1) terms (the monomials of degree k - 1 in t symbols),
    by the t terms of the base.  The binomial grows one factor at a time, and
    the count is returned as soon as it passes MAX_POWER_TERMS, so a huge
    base or exponent costs few steps.
    """
    bound = (k - 1) * t
    n = k + t - 2
    for i in range(1, min(t, k)):  # C(n, i) from C(n, i - 1), by factors >= 1
        bound = bound * (n - i + 1) // i
        if bound > MAX_POWER_TERMS:
            break
    return bound


class _ExpressionParser:
    """Recursive descent on packed term dicts (`morinclass._termops_py`).

    Every value is a fresh dict the parser owns, wrapped as one `Polynomial`
    at the end.  A sum accumulates in place in the dict of its first term,
    through `iadd_terms` and `isub_terms`, so its terms keep the order that
    `+` and `-` on polynomials give them; that order fixes the order of every
    float sum downstream.  A product of two monomials is one key sum and one
    coefficient product; other products, powers and negation go through the
    kernel.
    """

    def __init__(self, tokens, context):
        self.tokens = tokens
        self.pos = 0
        self.context = context
        self.shift = context.degree_shift
        unit = context.degree_unit
        self.keys = {name: unit + u for name, u in zip(context.names, context.units)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def parse(self):
        value = self.expr()
        kind, text, line, colno = self.peek()
        if kind != "end":
            self.error(f"unexpected {text!r} after expression")
        return value

    # An operator token's text is its one character, and no other token's
    # text is one of "+-*^()/": the loops below test the text alone.

    def expr(self):
        acc = self.term()
        tokens = self.tokens
        while (op := tokens[self.pos][1]) == "+" or op == "-":
            self.pos += 1
            if op == "+":
                kernel.iadd_terms(acc, self.term())
            else:
                kernel.isub_terms(acc, self.term())
        return acc

    def term(self):
        value = self.factor()
        tokens, shift = self.tokens, self.shift
        while (op := tokens[self.pos])[1] == "*":
            self.pos += 1
            rhs = self.factor()
            try:
                if len(value) == 1 == len(rhs):
                    ((ka, ca),) = value.items()
                    ((kb, cb),) = rhs.items()
                    check_degree((ka >> shift) + (kb >> shift))
                    value = {ka + kb: ca * cb}
                else:
                    value = kernel.mul_terms(value, rhs, self.context)
            except DegreeOverflowError as exc:
                self.error(str(exc), op)
        if op[1] == "/":
            self.error("'/' is only allowed inside rational literals like 3/2")
        return value

    def factor(self):
        sign = self.tokens[self.pos][1]
        if sign == "+" or sign == "-":
            self.pos += 1
            inner = self.factor()
            return inner if sign == "+" else kernel.neg_terms(inner)
        return self.power()

    def power(self):
        base = self.atom()
        if self.tokens[self.pos][1] == "^":
            self.pos += 1
            etok = self.peek()
            if etok[0] != "int":
                self.error("exponent must be a non-negative integer literal", etok)
            self.advance()
            try:
                k = int(etok[1])
            except ValueError:  # more digits than int() converts
                self.error("exponent is too large", etok)
            if k > MAX_DEGREE:
                # whatever the base: a constant one has degree 0 and would
                # pass the degree bound, then take k - 1 growing products
                self.error(f"exponent {k} exceeds the largest supported degree {MAX_DEGREE}", etok)
            # each coefficient of base^k has about k times the bits of the base's
            bits = k * max(
                (max(abs(c.numerator), c.denominator).bit_length() for c in base.values()),
                default=0,
            )
            if bits > MAX_POWER_BITS:
                self.error(
                    f"power of about {bits} bits exceeds the largest supported"
                    f" coefficient size of {MAX_POWER_BITS} bits",
                    etok,
                )
            try:
                # before any product: x^99999999 would run 10^8 of them
                if base:
                    check_degree((max(base) >> self.shift) * k)
            except DegreeOverflowError as exc:
                self.error(str(exc), etok)
            if _power_products(len(base), k) > MAX_POWER_TERMS:
                self.error(
                    f"expanding this power would take more than {MAX_POWER_TERMS} term products",
                    etok,
                )
            return kernel.pow_terms(base, k, self.context)
        return base

    def literal(self, tok):
        try:
            return int(tok[1])
        except ValueError:  # more digits than int() converts
            self.error("integer literal is too large", tok)

    def atom(self):
        tok = self.advance()
        kind, text, line, colno = tok
        if kind == "int":
            value = self.literal(tok)
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "/":
                save = self.pos
                self.advance()
                dtok = self.peek()
                if dtok[0] == "int":
                    self.advance()
                    den = self.literal(dtok)
                    if den == 0:
                        raise ParseError("zero denominator", dtok[2], dtok[3])
                    value = Fraction(value, den)
                else:
                    self.pos = save
            return {0: value} if value else {}
        if kind == "ident":
            key = self.keys.get(text)
            if key is None:
                raise ParseError(f"unknown identifier {text!r}", line, colno)
            return {key: 1}
        if kind == "op" and text == "(":
            value = self.expr()
            close = self.advance()
            if close[0] != "op" or close[1] != ")":
                raise ParseError("expected ')'", close[2], close[3])
            return value
        raise ParseError(f"unexpected {text or 'end of input'!r}", line, colno)


def parse_expression(text, context, line_offset=1) -> Polynomial:
    """Parse one polynomial expression over the given variable context."""
    terms = _ExpressionParser(_tokenize(text, line_offset), context).parse()
    return Polynomial._wrap(context, terms)


@dataclass
class GermDocument:
    source_vars: tuple
    param_vars: tuple = ()
    component_texts: tuple = ()
    bindings: dict = field(default_factory=dict)
    base_point: tuple = None

    @property
    def context(self):
        return VariableContext.make(self.source_vars, self.param_vars)

    def to_germ(self) -> MapGerm:
        # before any component is expanded, which may take long
        check_dimensions(len(self.source_vars), len(self.component_texts))
        ctx = self.context
        comps = []
        for text, line in self.component_texts:
            comps.append(parse_expression(text, ctx, line_offset=line))
        germ = MapGerm(ctx, tuple(comps))
        if self.param_vars:
            if self.bindings:
                germ = germ.bind_parameters(self.bindings)
            else:
                missing = ", ".join(self.param_vars)
                raise ParseError(f"parameters {missing} need a bind: line for classification")
        return germ


def _split_values(text):
    return [piece for piece in text.replace(",", " ").split() if piece]


def parse_rational(text, line=None):
    """An ASCII rational such as `-3/2`, `0.5` or `1e3`, else ParseError.

    Fraction() alone would read non-ASCII digits such as '٣' as ASCII ones.
    """
    if text.isascii():
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"not a rational number: {text!r}", line)


def _names(names, lineno):
    """The names declared at line `lineno` as a tuple, if each is an identifier and new."""
    for k, name in enumerate(names):
        if not re.fullmatch(_NAME, name):
            raise ParseError(f"not a variable name: {name!r}", lineno)
        if name in names[:k]:
            raise ParseError(f"{name!r} is declared twice", lineno)
    return tuple(names)


def parse_germ_document(text) -> GermDocument:
    source_vars = None
    param_vars = ()
    component_texts = None
    bindings = {}
    bound_at = {}  # the line of each binding, for errors found after the loop
    base_point = None
    section_at = {}  # the line of each section but bind:, which may repeat

    def bind(piece, lineno):
        """Read one `name = value` entry into `bindings`; return the name."""
        name, _, value = piece.partition("=")
        (name,) = _names([name.strip()], lineno)
        if name in bindings:
            raise ParseError(f"parameter {name!r} is bound twice", lineno)
        bindings[name] = parse_rational(value.strip(), lineno)
        bound_at[name] = lineno
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", lineno)
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        if key != "bind" and section_at.setdefault(key, lineno) != lineno:
            raise ParseError(f"{key}: repeats the one at line {section_at[key]}", lineno)
        if key == "vars":
            source_vars = _names(_split_values(rest), lineno)
            if not source_vars:
                raise ParseError("vars: needs at least one variable", lineno)
        elif key == "params":
            # entries are names, optionally with inline values: a1 or a1 = 1/2
            names = []
            for piece in rest.split(","):
                if "=" in piece:
                    names.append(bind(piece, lineno))
                else:
                    names.extend(_split_values(piece))
            param_vars = _names(names, lineno)
        elif key == "map":
            parts = [p.strip() for p in rest.split(";")]
            if not all(parts):
                raise ParseError("map: has an empty component", lineno)
            component_texts = tuple((p, lineno) for p in parts)
        elif key == "bind":
            for piece in rest.split(","):
                piece = piece.strip()
                if not piece:
                    continue
                if "=" not in piece:
                    raise ParseError(f"bind: entries look like name = value, got {piece!r}", lineno)
                bind(piece, lineno)
        elif key == "point":
            base_point = tuple(parse_rational(v, lineno) for v in _split_values(rest))
        else:
            raise ParseError(f"unknown section {key!r}", lineno)
    if source_vars is None:
        raise ParseError("missing vars: line", 1)
    if component_texts is None:
        raise ParseError("missing map: line", 1)
    # a name in both vars: and params: is an error at the later of the two
    _names(source_vars + param_vars, max(section_at["vars"], section_at.get("params", 0)))
    for name in bindings:
        if name not in param_vars:
            raise ParseError(f"bind: references undeclared parameter {name!r}", bound_at[name])
    if base_point is not None and len(base_point) != len(source_vars):
        raise ParseError(f"point: needs {len(source_vars)} coordinates, got {len(base_point)}",
                         section_at["point"])
    return GermDocument(source_vars, param_vars, component_texts, bindings, base_point)
