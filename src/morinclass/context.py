"""Variable contexts: the ordered, role-tagged variable lists polynomials live over.

A context also fixes how a monomial over it is stored: as one packed int.
Below the top field, which holds the total degree, come FIELD_BITS-wide
fields, one per variable, the first variable highest:

    key = deg << S | e_0 << (S - FIELD_BITS) | ... | e_{n-1},    S = FIELD_BITS * n

So the product of two monomials is the sum of their keys, the total degree
is `key >> S`, and keys order by total degree first.  A field never carries
into its neighbour as long as the total degree is at most MAX_DEGREE: every
exponent is then at most MAX_DEGREE too.  Whatever would make a larger degree
raises DegreeOverflowError instead.
"""

import struct
from dataclasses import dataclass, field
from functools import lru_cache

SOURCE = "source"
PARAMETER = "parameter"

FIELD_BITS = 16  # the width of struct's "H", which packs and unpacks the fields
MAX_DEGREE = (1 << FIELD_BITS) - 1  # the largest total degree a packed monomial holds


class ContextMismatchError(ValueError):
    """Raised when operands do not share a variable context."""


class DegreeOverflowError(ValueError):
    """A monomial of total degree above MAX_DEGREE, which no packed key holds."""


class WorkLimitError(ValueError):
    """A product that would take a `_termops_py.work_limit` block past its term pairs."""


def check_degree(degree):
    if degree > MAX_DEGREE:
        raise DegreeOverflowError(
            f"total degree {degree} exceeds the largest supported degree {MAX_DEGREE}"
        )


@dataclass(frozen=True)
class VariableContext:
    """Ordered list of distinct variable names with source/parameter roles.

    The declaration order is the exponent-vector order for every polynomial
    over this context, so it is part of the value: two contexts are equal only
    if names, order and roles all agree.
    """

    names: tuple
    roles: tuple
    _index: dict = field(init=False, repr=False, compare=False, hash=False)
    # derived from names and roles once: the hot loops read them on every term
    source_indices: tuple = field(init=False, repr=False, compare=False, hash=False)
    parameter_indices: tuple = field(init=False, repr=False, compare=False, hash=False)
    source_names: tuple = field(init=False, repr=False, compare=False, hash=False)
    parameter_names: tuple = field(init=False, repr=False, compare=False, hash=False)
    # the packed-monomial layout: the degree shift S, the degree field's unit,
    # the shift and unit of each variable's field, and the key of each
    # source variable's monomial x_j
    degree_shift: int = field(init=False, repr=False, compare=False, hash=False)
    degree_unit: int = field(init=False, repr=False, compare=False, hash=False)
    field_shifts: tuple = field(init=False, repr=False, compare=False, hash=False)
    units: tuple = field(init=False, repr=False, compare=False, hash=False)
    linear_keys: tuple = field(init=False, repr=False, compare=False, hash=False)
    _fields: struct.Struct = field(init=False, repr=False, compare=False, hash=False)
    _exponents: struct.Struct = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise ValueError(f"duplicate variable names in {self.names}")
        if len(self.roles) != len(self.names):
            raise ValueError("one role per variable required")
        for role in self.roles:
            if role not in (SOURCE, PARAMETER):
                raise ValueError(f"unknown role {role!r}")
        src = tuple(i for i, r in enumerate(self.roles) if r == SOURCE)
        par = tuple(i for i, r in enumerate(self.roles) if r == PARAMETER)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})
        object.__setattr__(self, "source_indices", src)
        object.__setattr__(self, "parameter_indices", par)
        object.__setattr__(self, "source_names", tuple(self.names[i] for i in src))
        object.__setattr__(self, "parameter_names", tuple(self.names[i] for i in par))
        n = len(self.names)
        shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        object.__setattr__(self, "degree_shift", FIELD_BITS * n)
        degree_unit, units = 1 << (FIELD_BITS * n), tuple(1 << s for s in shifts)
        object.__setattr__(self, "degree_unit", degree_unit)
        object.__setattr__(self, "field_shifts", shifts)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "linear_keys", tuple(degree_unit + units[i] for i in src))
        # a key as big-endian bytes: the degree field, then one field per variable
        object.__setattr__(self, "_fields", struct.Struct(">" + "H" * (n + 1)))
        object.__setattr__(self, "_exponents", struct.Struct(">2x" + "H" * n))

    @classmethod
    def make(cls, source_vars, parameter_vars=()):
        """Context with the given source variables followed by parameters.

        Equal variable lists give one shared context (`_shared`), so
        polynomials parsed from different documents over the same `vars:`
        line pass `check_same_context` by identity.
        """
        source, params = tuple(source_vars), tuple(parameter_vars)
        return _shared(cls, source + params, (SOURCE,) * len(source) + (PARAMETER,) * len(params))

    def __len__(self):
        return len(self.names)

    def index(self, name) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def pack(self, exps) -> int:
        """The packed key of an exponent vector, one non-negative int per variable."""
        degree = sum(exps)
        check_degree(degree)
        try:
            return int.from_bytes(self._fields.pack(degree, *exps), "big")
        except struct.error:
            # a wrong length, or a negative or non-integer exponent
            raise ValueError(f"bad exponent vector {tuple(exps)} for {self.names}") from None

    def unpack(self, key) -> tuple:
        """The exponent vector of a packed key."""
        return self._exponents.unpack(key.to_bytes(self._exponents.size, "big"))

    def field_mask(self, indices) -> int:
        """The bits of the fields of the variables at `indices`."""
        return sum(MAX_DEGREE << self.field_shifts[i] for i in indices)


@lru_cache(maxsize=256)
def _shared(cls, names, roles):
    """The context of `names` and `roles`, one object per pair: contexts are immutable."""
    return cls(names, roles)


def check_same_context(a, b):
    if a.context is not b.context and a.context != b.context:
        raise ContextMismatchError(
            f"operands use different variable contexts: {a.context.names} vs {b.context.names}"
        )
