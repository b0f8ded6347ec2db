"""Exact bounds for progression-free subsets of F_q^n.

Five layers: exact q-nomial coefficient rows, the bound family built on
them, an F_3 polynomial verifier that replays the rank argument
at small n, an exhaustive search oracle, and high-precision asymptotics
(characteristic root, growth-constant table, leading constant).  The
`capbound` CLI exposes all of it with JSON reports.

`import capbound` loads no layer.  Each exported name, and each layer
as `capbound.<layer>`, is imported from its layer the first time it is
read (PEP 562), so `capbound.optimal_bound` compiles the rows and the
bound family but not the search, the verifier or the asymptotics.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": (
        "RecurrenceCheck", "SaddleResult", "alpha", "characteristic_root",
        "first_correction_estimate", "growth_constant",
        "growth_constant_ratio", "leading_constant",
        "leading_constant_empirical", "normalized_sharp_bound",
        "saddle_point", "trinomial_middle", "verify_recurrence"),
    "bounds": ("BoundReport", "bound_for_d", "optimal_bound", "sharp_bound",
               "theorem_bound"),
    "capsearch": ("PointSet", "SearchResult", "complete_triple",
                  "decode_point", "encode_point", "is_progression_free",
                  "max_capset"),
    "fixedpoint": ("BigFixed", "icbrt_newton"),
    "qnomial": ("QNomialRow", "mspace_size", "qnomial_row", "row_prefix",
                "series_coeff_bound"),
    "verifier": ("FieldPoly", "Monomial", "VerifierReport", "clp_split",
                 "eval_poly", "expand_neg_sum", "format_pointset",
                 "make_poly", "monomials_up_to", "parse_pointset",
                 "reconstruct_split", "vanishing_space_basis",
                 "verify_support_bound"),
}
# the layers themselves, the exporting ones and those they import
_LAYERS = (*_EXPORTS, "affine", "golden", "stages")
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items()
             for name in names}

__all__ = sorted([*_LAYER_OF, *_LAYERS])


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*__all__, *(name for name in globals()
                               if name.startswith("__"))}
                  - {"__getattr__", "__dir__"})
