"""
klimm: exact-arithmetic Kazhdan-Lusztig immanants, Bruhat interval graph
combinatorics, and k-positivity checks, with brute-force oracles at desk
scale.
"""

from .errors import (
    PatternPreconditionError,
    PreconditionError,
    ShapeError,
    SizeGuardError,
    SizeMismatchError,
)
from .exactmat import (
    Matrix,
    det,
    gen_k_positive_not_higher,
    gen_totally_positive,
    is_k_positive,
    lewis_carroll_residual,
    minor,
    positivity_order,
    repeat_submatrix,
    restrict,
)
from .grid import (
    BoundingBox,
    Grid,
    block_antidiagonal_split,
    bounding_boxes,
    delete_rows_cols,
    graph_of_interval_bruteforce,
    graph_of_upper_interval,
    is_admissible,
    largest_square,
)
from .immanant import (
    ImmanantResult,
    SignProbeReport,
    dual_canonical_eval,
    imm_definition,
    imm_determinantal,
    lewis_carroll_sign_probe,
)
from .klpoly import IntPolynomial, KLCache, kl_polynomial
from .perm import (
    bruhat_leq,
    compose,
    delete_entry,
    inverse,
    is_in_maximal_parabolic,
    length,
    longest_element,
    pattern_occurs,
)
from .suites import Config, SuiteReport, run_search, run_suite

__version__ = "0.1.0"
