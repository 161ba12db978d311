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
    compute_lambdas,
    cusp_fast_path,
    fold_fast_path,
    hessian,
    nondegeneracy,
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
from .rationals import Rational, format_rational, rat

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
    "Rational",
    "RationalMatrix",
    "REGULAR",
    "SOURCE",
    "VariableContext",
    "build_frame",
    "classify",
    "compute_lambdas",
    "cramer_frame",
    "cusp_fast_path",
    "fold_fast_path",
    "format_rational",
    "hessian",
    "nondegeneracy",
    "normalize",
    "rat",
    "validate",
]
