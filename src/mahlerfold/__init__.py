"""Exact arithmetic for Mahler series and folded continued fractions.

The public names below load their submodule on first access (PEP 562), so
importing one submodule, such as ``mahlerfold.series``, loads only what it
imports itself.
"""

import importlib

_EXPORTS = {
    "poly": "Polynomial RationalFunction parse_poly parse_rational",
    "quadfield": "PHI SQRT5 GaussianRational QuadNum",
    "series": "MahlerEquation MahlerSolveError TruncatedSeries baum_sweet expand_named "
    "fibbinary membership solve_mahler truncated_partial",
    "identities": "IdentityReport identity_ids verify_series_identity",
    "contfrac": "ContinuantMatrix DivisionByZero IrregularCF Word continuants euclid_cf "
    "eval_irregular eval_regular fold lambda_word limit_classify product_to_H "
    "rho_at_root_of_unity rho_cf rho_value",
    "folding": "FoldEngine FoldSpec FoldSyntaxError cohn_congruence_test fold_continuants "
    "ij_system_check iterate_fold named_spec parse_fold_spec sign_generating_functions "
    "special_recursion_polys specializable_iterated specialize",
    "curve": "LatticePath export_svg path_from_signs self_crossing",
    "hadamard": "KernelReport becker_homogenize hadamard_mahler_probe hadamard_product "
    "is_complete_hadamard_rational k_kernel",
    "fiblucas": "binet_residual cf_identity_table fib lucas run_identity "
    "telescope_product_sum telescope_sum",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
