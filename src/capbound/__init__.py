"""Exact bounds for progression-free subsets of F_q^n.

Five layers: exact q-nomial coefficient rows, the bound family built on
them, an F_3 polynomial verifier that replays the rank argument
at small n, an exhaustive search oracle, and high-precision asymptotics
(characteristic root, growth-constant table, leading constant).  The
`capbound` CLI exposes all of it with JSON reports.
"""
from .asymptotics import (
    RecurrenceCheck,
    SaddleResult,
    alpha,
    characteristic_root,
    first_correction_estimate,
    growth_constant,
    growth_constant_ratio,
    leading_constant,
    leading_constant_empirical,
    normalized_sharp_bound,
    saddle_point,
    trinomial_middle,
    verify_recurrence,
)
from .bounds import (
    BoundReport,
    bound_for_d,
    optimal_bound,
    sharp_bound,
    theorem_bound,
)
from .capsearch import (
    PointSet,
    SearchResult,
    complete_triple,
    decode_point,
    encode_point,
    is_progression_free,
    max_capset,
)
from .fixedpoint import BigFixed, icbrt_newton, isqrt_newton, pi
from .qnomial import (
    QNomialRow,
    mspace_size,
    qnomial_row,
    row_prefix,
    series_coeff_bound,
)
from .verifier import (
    FieldPoly,
    Monomial,
    VerifierReport,
    clp_split,
    eval_poly,
    expand_neg_sum,
    format_pointset,
    make_poly,
    monomials_up_to,
    parse_pointset,
    product_matrix,
    rank_mod_p,
    reconstruct_split,
    support_size,
    vanishing_space_basis,
    verify_support_bound,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
