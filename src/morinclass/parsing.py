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

from dataclasses import dataclass, field
from fractions import Fraction

from .context import VariableContext
from .germ import MapGerm, check_dimensions
from .polynomial import Polynomial


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


_OPS = set("+-*^()/")


def _tokenize(text, line_offset=1):
    tokens = []
    line = line_offset
    col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(("op", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
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
                self.advance()
                value = value * self.factor()
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
            return base ** int(etok[1])
        return base

    def atom(self):
        kind, text, line, colno = self.advance()
        if kind == "int":
            num = int(text)
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "/":
                save = self.pos
                self.advance()
                dtok = self.peek()
                if dtok[0] == "int":
                    self.advance()
                    den = int(dtok[1])
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
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {text!r}", line) from None


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
