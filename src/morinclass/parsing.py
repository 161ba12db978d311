"""Expression and germ-file parsing.

The expression grammar is deliberately small: identifiers, integer and
rational literals `p/q`, `+ - * ^` with parentheses, `^` taking a
non-negative integer literal.  Germ files are line-oriented:

    vars: x y z
    params: a = 1, b = -3/2   # optional; bare names also allowed
    map: x ; y^2 + z^3 + x*z
    point: 0, 0, 1/2          # optional base point

`#` starts a comment; separators may be commas or whitespace; parameter
values may also arrive on a separate `bind: a = 1, b = -3/2` line.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .context import MAX_DEGREE, DegreeOverflowError, VariableContext
from .germ import MapGerm, check_dimensions
from .polynomial import Polynomial

# The largest coefficient a `^` may build, in bits (about 39,000 digits):
# 3^65535 fits.  A power of a big coefficient, such as (3^65535)^65535, has
# a small degree but would run k - 1 products of ever larger integers.
MAX_POWER_BITS = 1 << 17


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
_TOKEN = re.compile(r"([^\S\n]*)(?:(\n)|([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()/])|(\S))")


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


class _ExpressionParser:
    def __init__(self, tokens, context):
        self.tokens = tokens
        self.pos = 0
        self.context = context

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

    def expr(self):
        value = self.term()
        while True:
            kind, text, *_ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, text, *_ = self.peek()
            if kind == "op" and text == "*":
                op = self.advance()
                rhs = self.factor()
                try:
                    value = value * rhs
                except DegreeOverflowError as exc:
                    self.error(str(exc), op)
            elif kind == "op" and text == "/":
                self.error("'/' is only allowed inside rational literals like 3/2")
            else:
                return value

    def factor(self):
        kind, text, *_ = self.peek()
        if kind == "op" and text in "+-":
            self.advance()
            inner = self.factor()
            return inner if text == "+" else -inner
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, *_ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            etok = self.peek()
            if etok[0] == "op" and etok[1] == "-":
                self.error("exponent must be a non-negative integer literal", etok)
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
                (max(abs(c.numerator), c.denominator).bit_length() for c in base.coefficients()),
                default=0,
            )
            if bits > MAX_POWER_BITS:
                self.error(
                    f"power of about {bits} bits exceeds the largest supported"
                    f" coefficient size of {MAX_POWER_BITS} bits",
                    etok,
                )
            try:
                # raised before the first product: x^99999999 would run 10^8
                return base**k
            except DegreeOverflowError as exc:
                self.error(str(exc), etok)
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
            num = self.literal(tok)
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
                    return Polynomial.constant(self.context, Fraction(num, den))
                self.pos = save
            return Polynomial.constant(self.context, num)
        if kind == "ident":
            try:
                return Polynomial.variable(self.context, text)
            except KeyError:
                raise ParseError(f"unknown identifier {text!r}", line, colno) from None
        if kind == "op" and text == "(":
            value = self.expr()
            close = self.advance()
            if close[0] != "op" or close[1] != ")":
                raise ParseError("expected ')'", close[2], close[3])
            return value
        raise ParseError(f"unexpected {text or 'end of input'!r}", line, colno)


def parse_expression(text, context, line_offset=1) -> Polynomial:
    """Parse one polynomial expression over the given variable context."""
    return _ExpressionParser(_tokenize(text, line_offset), context).parse()


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


def _parse_rational_token(text, line):
    # Fraction() would read non-ASCII digits such as '٣' as ASCII ones
    if text.isascii():
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"not a rational number: {text!r}", line)


def parse_germ_document(text) -> GermDocument:
    source_vars = None
    param_vars = ()
    component_texts = None
    bindings = {}
    base_point = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", lineno)
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        if key == "vars":
            source_vars = tuple(_split_values(rest))
            if not source_vars:
                raise ParseError("vars: needs at least one variable", lineno)
        elif key == "params":
            # entries are names, optionally with inline values: a1 or a1 = 1/2
            names = []
            for piece in rest.split(","):
                piece = piece.strip()
                if not piece:
                    continue
                if "=" in piece:
                    name, _, val = piece.partition("=")
                    name = name.strip()
                    names.append(name)
                    bindings[name] = _parse_rational_token(val.strip(), lineno)
                else:
                    names.extend(_split_values(piece))
            param_vars = tuple(names)
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
                name, _, val = piece.partition("=")
                bindings[name.strip()] = _parse_rational_token(val.strip(), lineno)
        elif key == "point":
            base_point = tuple(_parse_rational_token(v, lineno) for v in _split_values(rest))
        else:
            raise ParseError(f"unknown section {key!r}", lineno)
    if source_vars is None:
        raise ParseError("missing vars: line", 1)
    if component_texts is None:
        raise ParseError("missing map: line", 1)
    for name in bindings:
        if name not in param_vars:
            raise ParseError(f"bind: references undeclared parameter {name!r}", 1)
    if base_point is not None and len(base_point) != len(source_vars):
        raise ParseError(
            f"point: needs {len(source_vars)} coordinates, got {len(base_point)}", 1
        )
    return GermDocument(
        source_vars=source_vars,
        param_vars=param_vars,
        component_texts=component_texts,
        bindings=bindings,
        base_point=base_point,
    )
