"""Exact calculators for Euler-characteristic invariants of stratified spaces.

The package has three layers.  A simplicial layer provides a brute-force,
fully combinatorial model of constructible functions and their pushforwards,
used as the oracle for randomized testing.  A census layer works from finite
summaries of stratified spaces (strata, frontier order, link data) and
solves for local and global Euler obstructions, fiberwise Brasselet numbers
and their corrections at infinity, all in exact integer arithmetic.  A
verification harness cross-checks the identities tying these invariants
together, on shipped catalog censuses and on user-supplied ones.

The public names below are re-exported flat from the module that defines
each, imported on first access: ``import strat_euler`` compiles no submodule,
and each subcommand of the command line imports only the layers it runs.
"""

__version__ = "0.1.0"

# module -> the public names it contributes
_EXPORTS = {
    "catalog": (
        "ExpectedResult",
        "evaluate_expected_key",
        "load_entry",
        "run_all",
        "run_entry",
        "standard_check_lines",
        "validate_entry",
    ),
    "census_io": ("CensusBundle", "apply_field_to_raw", "load_document", "load_file"),
    "documents": ("list_entries",),
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
        "DIMENSION_CAP",
        "Simplex",
        "SimplicialComplex",
        "SimplicialConstructibleFunction",
        "SimplicialMap",
        "SimplexSubset",
        "check_fubini",
        "chi",
        "chi_c",
        "complex_from_json",
        "integrate",
        "integrate_all",
        "pushforward",
        "whole",
    ),
    "fibered": (
        "CheckLine",
        "IDENTITIES",
        "IDENTITY_NAMES",
        "STRUCTURAL_IDENTITIES",
        "FieldPath",
        "SolveResult",
        "check_identity",
        "solve_unknown",
    ),
    "fibration": (
        "GENERIC",
        "CriticalPoint",
        "FiberedCensus",
        "brasselet",
        "brasselet_infinity",
        "detect_irregular_values",
        "eu_of_f_at",
        "eu_of_function_local",
        "eu_weight",
        "lambda_infinity",
        "local_fiber_defect",
        "resolve_value_label",
        "total_brasselet_infinity",
        "total_lambda_infinity",
    ),
    "obstruction": (
        "check_bdk_point_formula",
        "eu_function_of_space",
        "global_euler_obstruction",
        "solve_bdk",
    ),
    "polar": (
        "PolarData",
        "brasselet_from_polar",
        "hyperplane_step",
        "infinity_from_polar",
        "stv_global_eu",
    ),
    "strata": (
        "LabeledMatrix",
        "LinkTable",
        "StratifiedCensus",
        "Stratum",
        "StratumConstructibleFunction",
        "StratumPoset",
        "chi_global",
        "eta",
        "indicator_of_space",
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
