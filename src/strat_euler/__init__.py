"""Exact calculators for Euler-characteristic invariants of stratified spaces.

The package has three layers.  A simplicial layer provides a brute-force,
fully combinatorial model of constructible functions and their pushforwards,
used as the oracle for randomized testing.  A census layer works from finite
summaries of stratified spaces (strata, frontier order, link data) and
solves for local and global Euler obstructions, fiberwise Brasselet numbers
and their corrections at infinity, all in exact integer arithmetic.  A
verification harness cross-checks the identities tying these invariants
together, on shipped catalog censuses and on user-supplied ones.

The public names below are re-exported flat, and each is imported from its
module on first access, so ``import strat_euler`` (and a command that needs
only the census layer) compiles no module it does not use.
"""

__version__ = "0.1.0"

# module -> the public names it contributes
_EXPORTS = {
    "catalog": (
        "CatalogReport",
        "EntryReport",
        "ExpectedResult",
        "evaluate_expected_key",
        "list_entries",
        "load_entry",
        "run_all",
        "run_entry",
        "standard_check_lines",
        "validate_entry",
    ),
    "census_io": ("CensusBundle", "apply_field_to_raw", "load_document", "load_file"),
    "errors": (
        "AmbientObstructionMismatch",
        "CensusError",
        "FaceClosureViolation",
        "HostMismatch",
        "IdentityArgumentError",
        "InsufficientData",
        "InvalidMap",
        "MemberNotInHost",
        "MissingLinkEntry",
        "MissingPolarData",
        "NotAPointStratum",
        "NotASubcomplex",
        "NotEquidimensional",
        "NotSolvable",
        "PointNotInClosure",
        "SchemaError",
        "UnknownCriticalPoint",
        "UnknownEntry",
        "UnknownStratum",
        "UnknownValueLabel",
    ),
    "euler_calculus": (
        "SimplicialConstructibleFunction",
        "SimplicialMap",
        "check_fubini",
        "integrate",
        "integrate_all",
        "pushforward",
        "random_weighted_map",
    ),
    "fibered": (
        "GENERIC",
        "IDENTITIES",
        "IDENTITY_NAMES",
        "STRUCTURAL_IDENTITIES",
        "CriticalPoint",
        "FiberedCensus",
        "FieldPath",
        "SolveResult",
        "brasselet",
        "brasselet_infinity",
        "check_identity",
        "detect_irregular_values",
        "eu_of_f_at",
        "eu_of_function_local",
        "eu_weight",
        "lambda_infinity",
        "local_fiber_defect",
        "resolve_value_label",
        "restrict_fibered",
        "solve_unknown",
        "total_brasselet_infinity",
        "total_lambda_infinity",
    ),
    "obstruction": (
        "check_bdk_point_formula",
        "eu_function_of_space",
        "global_euler_obstruction",
        "invert_unitriangular",
        "solve_bdk",
    ),
    "polar": (
        "PolarData",
        "brasselet_from_polar",
        "hyperplane_step",
        "infinity_from_polar",
        "stv_global_eu",
    ),
    "reports": ("CheckLine",),
    "simplicial": (
        "DIMENSION_CAP",
        "Simplex",
        "SimplicialComplex",
        "SimplexSubset",
        "chi",
        "chi_c",
        "chi_rel",
        "complex_from_json",
        "complex_to_json",
        "ordered_product",
        "whole",
    ),
    "strata": (
        "LabeledMatrix",
        "LinkTable",
        "StratifiedCensus",
        "Stratum",
        "StratumConstructibleFunction",
        "StratumPoset",
        "chi_global",
        "closure_coefficients",
        "eta",
        "eta_closure_matrix",
        "function_from_closure_coefficients",
        "indicator_of_space",
        "restrict_to_closure",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
