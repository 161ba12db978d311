"""Variable contexts: the ordered, role-tagged variable lists polynomials live over."""

from dataclasses import dataclass, field

SOURCE = "source"
PARAMETER = "parameter"


class ContextMismatchError(ValueError):
    """Raised when operands do not share a variable context."""


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

    @classmethod
    def make(cls, source_vars, parameter_vars=()):
        """Context with the given source variables followed by parameters."""
        names = tuple(source_vars) + tuple(parameter_vars)
        roles = (SOURCE,) * len(tuple(source_vars)) + (PARAMETER,) * len(tuple(parameter_vars))
        return cls(names, roles)

    def __len__(self):
        return len(self.names)

    def index(self, name) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None


def check_same_context(a, b):
    if a.context is not b.context and a.context != b.context:
        raise ContextMismatchError(
            f"operands use different variable contexts: {a.context.names} vs {b.context.names}"
        )
