"""Determinants, inverses and linear solvers for cyclic heptadiagonal matrices.

The exact lane factors the matrix with bordered LU recurrences over
arbitrary-precision rationals.  Quantities that would be exactly zero are
substituted so the computation never breaks down.  ``factorize`` replaces a
zero pivot by a symbolic indeterminate ``t``, as the paper does, while the
determinant, solve and inverse evaluate H + s*G (G the structurally zero
pivots) at concrete points s and interpolate to s = 0.  The inverse takes a
column whose C band entry, its divisor, is zero by one substitution through
the factors instead.  A float64 lane covers large
orders where exactness is not required: it runs the same factor sweep and
substitution over float64 bands, refusing near-singular pivots instead of
substituting, and its inverse updates all columns at once as numpy row
vectors.
"""

from .errors import (
    DegreeCapError,
    HeptaError,
    InternalContractError,
    NearSingularPivotError,
    PoleAtZeroError,
    SingularMatrixError,
)
from .factor import (
    DetResult,
    FactorData,
    determinant,
    factorize,
    lu_substitute,
    materialize_LU,
)
from .inverse import InverseResult, back_columns, invert, inverse_float, seed_columns
from .matrix import (
    BAND_NAMES,
    CyclicHeptaMatrix,
    DenseMatrix,
    FloatHeptaMatrix,
    dense_from_csv,
    dense_to_csv,
    from_dense,
    matrix_from_json,
    matrix_to_json,
    random_instance,
    to_dense,
)
from .oracle import CompareReport, OracleReport, compare, dense_det, dense_inverse, oracle_report
from .scalars import (
    Poly,
    RatFun,
    T,
    eval_at_zero,
    format_scalar,
    parse_scalar,
    poly_gcd,
    set_degree_cap,
)
from .solve import (
    SolveReport,
    solve_many,
    solve_via_lu,
)

__version__ = "0.1.0"

__all__ = [
    "BAND_NAMES",
    "CompareReport",
    "CyclicHeptaMatrix",
    "DegreeCapError",
    "DenseMatrix",
    "DetResult",
    "FactorData",
    "FloatHeptaMatrix",
    "HeptaError",
    "InternalContractError",
    "InverseResult",
    "NearSingularPivotError",
    "OracleReport",
    "Poly",
    "PoleAtZeroError",
    "RatFun",
    "SingularMatrixError",
    "SolveReport",
    "T",
    "back_columns",
    "compare",
    "dense_det",
    "dense_from_csv",
    "dense_inverse",
    "dense_to_csv",
    "determinant",
    "eval_at_zero",
    "factorize",
    "format_scalar",
    "from_dense",
    "invert",
    "inverse_float",
    "lu_substitute",
    "materialize_LU",
    "matrix_from_json",
    "matrix_to_json",
    "oracle_report",
    "parse_scalar",
    "poly_gcd",
    "random_instance",
    "seed_columns",
    "set_degree_cap",
    "solve_many",
    "solve_via_lu",
    "to_dense",
]
