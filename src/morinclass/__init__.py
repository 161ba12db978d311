"""morinclass: exact classification of corank-one Morin singularities.

Decides whether a polynomial map germ f: (R^m, 0) -> (R^n, 0) with m > n is a
fold, cusp or higher Morin singularity using coordinate-free determinantal
criteria in exact rational arithmetic, with a floating-point companion for
region scans and a study of the bifurcation of the Lefschetz singularity
(non-cusp locus and plot-data export).
"""

from .context import (
    PARAMETER,
    SOURCE,
    ContextMismatchError,
    DegreeOverflowError,
    VariableContext,
)
from .criteria import (
    CriteriaReport,
    Label,
    classify,
    hessian,
)
from .germ import (
    CORANK1,
    CORANK_HIGH,
    REGULAR,
    AdaptedFrame,
    MalformedGermError,
    MapGerm,
    NormalizedGerm,
    PolyVectorField,
    build_frame,
    cramer_frame,
    normalize,
    validate,
)
from .linalg import PolyMatrix, RationalMatrix
from .polynomial import Polynomial
from .rationals import format_rational, rat

__version__ = "0.1.0"

KERNEL = "python"  # the term kernel `Polynomial` runs on: `_termops_py`

__all__ = [
    "AdaptedFrame",
    "ContextMismatchError",
    "CORANK1",
    "CORANK_HIGH",
    "CriteriaReport",
    "DegreeOverflowError",
    "KERNEL",
    "Label",
    "MalformedGermError",
    "MapGerm",
    "NormalizedGerm",
    "PARAMETER",
    "PolyMatrix",
    "PolyVectorField",
    "Polynomial",
    "RationalMatrix",
    "REGULAR",
    "SOURCE",
    "VariableContext",
    "build_frame",
    "classify",
    "cramer_frame",
    "format_rational",
    "hessian",
    "normalize",
    "rat",
    "validate",
]
