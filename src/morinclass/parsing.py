"""Expression and germ-file parsing.

The expression grammar is deliberately small: identifiers, integer and
rational literals `p/q`, `+ - * ^` with parentheses, `^` taking a
non-negative integer literal.  Its tokens are plain strings; a token's line
and column are worked out only for an error.  Germ files are line-oriented:

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
from .context import (MAX_DEGREE, DegreeOverflowError, VariableContext, WorkLimitError,
                      check_degree)
from .germ import MapGerm, check_dimensions
from .polynomial import Polynomial

# The largest coefficient a `^` may build, in bits (about 39,000 digits):
# 3^65535 fits.  A power of a big coefficient, such as (3^65535)^65535, has
# a small degree, and a one-term base makes no term products for the work
# limit to count, but its coeff**k would hold about 7 * 10^9 bits.  The
# term products of a `^`, or of a product of two sums, are counted by
# `_termops_py.work_limit`, up to `_termops_py.MAX_TERM_PAIRS`.
MAX_POWER_BITS = 1 << 17

# The most parentheses open at once; about 190 would exhaust Python's recursion limit.
MAX_NESTING = 100

# The largest decimal exponent, in magnitude, that a rational such as `1e3`
# may carry: the digit limit int() puts on integer text.  Fraction would
# build 10^e first, which takes seconds from about e = 10^6.
_MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


# A token is a run of digits, an identifier or one operator character;
# blanks (re's \s) separate them.  Digits and identifiers are ASCII only:
# str.isdigit() also holds for '²' and '٣', which int() then rejects or
# reads as another digit.
_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = re.compile(rf"[0-9]+|{_NAME}|[-+*^()/]")
_BAD = re.compile(r"[^\s0-9A-Za-z_+\-*^()/]")  # a character that starts no token


def _place(text, offset, line_offset):
    """The line and column of the character at `offset` in `text`."""
    return line_offset + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset)


def _tokenize(text, line_offset=1):
    """The token strings of `text`, then "" for its end; a character starting none is an error."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}",
                         *_place(text, bad.start(), line_offset))
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def _token_place(text, index, line_offset=1):
    """The line and column of token `index` of `_tokenize(text)`, found again by its offset."""
    starts = [match.start() for match in _TOKEN.finditer(text)] + [len(text)]
    return _place(text, starts[index], line_offset)


class _ExpressionParser:
    """Recursive descent on packed term dicts (`morinclass._termops_py`).

    The tokens are the strings of `_tokenize`; a token's line and column are
    found from its offset only for an error.  Every value is a fresh dict the
    parser owns, wrapped as one `Polynomial` at the end.  A sum accumulates in
    place in the dict of its first term, through `iadd_terms` and
    `isub_terms`, so its terms keep the order that `+` and `-` on polynomials
    give them; that order fixes the order of every float sum downstream.  A
    product by a variable (to a power) adds its key (times k) to each key, a
    product of two monomials is one key sum and one coefficient product, and
    a power of a monomial with coefficient 1 is its key times k: the terms
    `mul_terms` and `pow_terms` give, which run every other product and power.
    """

    def __init__(self, text, context, line_offset):
        self.text = text
        self.line_offset = line_offset
        self.tokens = _tokenize(text, line_offset)
        self.pos = 0
        self.depth = 0  # parentheses open at pos
        self.context = context
        self.shift = context.degree_shift
        unit = context.degree_unit
        # only names a token can spell: the loops look tokens up here first
        self.keys = {name: unit + u for name, u in zip(context.names, context.units)
                     if re.fullmatch(_NAME, name)}

    def error(self, message, index=None):
        place = _token_place(self.text, self.pos if index is None else index, self.line_offset)
        raise ParseError(message, *place)

    def degree_bound(self, degree, index):
        try:
            check_degree(degree)
        except DegreeOverflowError as exc:
            self.error(str(exc), index)

    def parse(self):
        value = self.expr()
        if tok := self.tokens[self.pos]:
            self.error(f"unexpected {tok!r} after expression")
        return value

    # An operator token is its one character, and no other token is one of
    # "+-*^()/": the loops below test the token alone.

    def expr(self):
        acc = self.term()
        tokens = self.tokens
        while (op := tokens[self.pos]) == "+" or op == "-":
            self.pos += 1
            if op == "+":
                kernel.iadd_terms(acc, self.term())
            else:
                kernel.isub_terms(acc, self.term())
        return acc

    def term(self):
        value = self.factor()
        tokens, shift, keys = self.tokens, self.shift, self.keys
        while tokens[at := self.pos] == "*":
            key = keys.get(tokens[at + 1])
            try:
                if key is not None:
                    # a variable, maybe to a power: `mul_terms` would add its key to each
                    self.pos = at + 2
                    if tokens[at + 2] == "^":
                        (key,) = self.power({key: 1})
                    if value:
                        check_degree((max(value) >> shift) + (key >> shift))
                    value = {k + key: c for k, c in value.items()}
                    continue
                self.pos = at + 1
                rhs = self.factor()
                if len(value) == 1 == len(rhs):
                    ((ka, ca),) = value.items()
                    ((kb, cb),) = rhs.items()
                    check_degree((ka >> shift) + (kb >> shift))
                    value = {ka + kb: ca * cb}
                else:
                    value = self.expand(kernel.mul_terms, at, "product", value, rhs)
            except DegreeOverflowError as exc:
                self.error(str(exc), at)
        if tokens[at] == "/":
            self.error("'/' is only allowed inside rational literals like 3/2")
        return value

    def factor(self):
        # a run of signs in a loop: negation is exact, so the parity of the minus signs decides
        tokens = self.tokens
        negate = False
        while (sign := tokens[self.pos]) == "-" or sign == "+":
            self.pos += 1
            negate ^= sign == "-"
        value = self.atom()
        if tokens[self.pos] == "^":
            value = self.power(value)
        return kernel.neg_terms(value) if negate else value

    def exponent(self):
        """The exponent after the `^` at pos, and the index of its token."""
        at = self.pos + 1
        tok = self.tokens[at]
        if not tok.isdigit():
            self.error("exponent must be a non-negative integer literal", at)
        self.pos = at + 1
        try:
            k = int(tok)
        except ValueError:  # more digits than int() converts
            self.error("exponent is too large", at)
        if k > MAX_DEGREE:
            # whatever the base: a constant one has degree 0 and would
            # pass the degree bound, then take k - 1 growing products
            self.error(f"exponent {k} exceeds the largest supported degree {MAX_DEGREE}", at)
        return k, at

    def power(self, base):
        """`base` to the exponent after the `^` at pos, within the bounds."""
        k, at = self.exponent()
        if len(base) == 1:
            ((key, c),) = base.items()
            if c.__class__ is int and c == 1:
                # `pow_terms`' monomial case: k bits and k - 1 products, so of
                # the bounds below only the degree's can fail
                self.degree_bound((key >> self.shift) * k, at)
                return {key * k: 1}
        # each coefficient of base^k has about k times the bits of the base's
        bits = k * max(
            (max(abs(c.numerator), c.denominator).bit_length() for c in base.values()),
            default=0,
        )
        if bits > MAX_POWER_BITS:
            self.error(
                f"power of about {bits} bits exceeds the largest supported"
                f" coefficient size of {MAX_POWER_BITS} bits",
                at,
            )
        if base:  # before any product: x^99999999 would run 10^8 of them
            self.degree_bound((max(base) >> self.shift) * k, at)
        return self.expand(kernel.pow_terms, at, "power", base, k)

    def expand(self, op, index, what, *args):
        """`op(*args, context)` within MAX_TERM_PAIRS term pairs, else an error at token `index`."""
        try:
            with kernel.work_limit(kernel.MAX_TERM_PAIRS):
                return op(*args, self.context)
        except WorkLimitError:
            self.error(f"expanding this {what} would take more than"
                       f" {kernel.MAX_TERM_PAIRS} term products", index)

    def literal(self, index):
        try:
            return int(self.tokens[index])
        except ValueError:  # more digits than int() converts
            self.error("integer literal is too large", index)

    def atom(self):
        tokens = self.tokens
        at = self.pos
        tok = tokens[at]
        self.pos = at + 1
        key = self.keys.get(tok)
        if key is not None:
            return {key: 1}
        if tok.isdigit():
            value = self.literal(at)
            if tokens[at + 1] == "/" and tokens[at + 2].isdigit():
                self.pos = at + 3
                den = self.literal(at + 2)
                if den == 0:
                    self.error("zero denominator", at + 2)
                value = Fraction(value, den)
            return {0: value} if value else {}
        if tok == "(":
            if self.depth == MAX_NESTING:
                self.error(f"more than {MAX_NESTING} nested parentheses", at)
            self.depth += 1
            value = self.expr()
            if tokens[self.pos] != ")":
                self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return value
        if tok[:1].isalpha() or tok[:1] == "_":
            self.error(f"unknown identifier {tok!r}", at)
        self.error(f"unexpected {tok or 'end of input'!r}", at)


def parse_expression(text, context, line_offset=1) -> Polynomial:
    """Parse one polynomial expression over the given variable context."""
    terms = _ExpressionParser(text, context, line_offset).parse()
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
    A decimal exponent beyond 4300 in magnitude is refused before the
    number is built.
    """
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or 0) > _MAX_DECIMAL_EXPONENT:
            raise ParseError(f"decimal exponent beyond {_MAX_DECIMAL_EXPONENT} in {text!r}", line)
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
