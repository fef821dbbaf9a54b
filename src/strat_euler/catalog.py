"""The battery of checks, the ``check`` subcommand, and the catalog entries.

Each catalog entry is a census file shipped with the package whose expected
invariants were derived independently (by hand or by an elementary oracle
noted next to each number) and frozen.  :func:`load_entry` loads one, and
:func:`evaluate_expected_key` recomputes the invariant an expected key
names; ``catalog_run`` re-verifies the whole catalog with them.

The battery of checks, :func:`standard_check_lines`, makes every row of
``check``.  It derives its identity rows from the registry in ``fibered``
(which values, which weights, which counts).  Every verifier returns its
two sides (lhs, rhs); ``fibered.check_identity`` alone wraps them in a row,
which the battery reads back through ``CheckLine.sides``.  The battery
names each row once and builds it, identity, point formula, polar
cross-check or slicing step alike, through :func:`checked_row`: compare the
two sides, or SKIP when the census lacks the data.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from itertools import product

from .census_io import CensusBundle, load_document, load_file
from .documents import _fixture_dir, read_json
from .errors import (
    AmbientObstructionMismatch,
    CensusError,
    InsufficientData,
    MissingLinkEntry,
    MissingPolarData,
    NotEquidimensional,
    PointNotInClosure,
    UnknownEntry,
    formatting,
)
from .fibered import (
    IDENTITIES,
    CheckLine,
    check_identity,
    eu_of_f_at,
    local_fiber_defect,
    row_detail,
    total_brasselet_infinity,
)
from .fibration import GENERIC, brasselet, brasselet_infinity, eu_weight, lambda_infinity
from .obstruction import check_bdk_point_formula, global_euler_obstruction
from .polar import brasselet_from_polar, hyperplane_step, infinity_from_polar, stv_global_eu
from .strata import chi_global, indicator_of_space


def load_entry(name: str) -> CensusBundle:
    """The shipped census ``name``; any other name, a path too, is an UnknownEntry."""
    path = _fixture_dir() / f"{name}.json"
    if path.name != f"{name}.json" or not path.is_file():
        from .entries import list_entries

        raise UnknownEntry(f"no catalog entry {name!r}; available: {', '.join(list_entries())}")
    return load_document(read_json(path))


# --- expected-value evaluation -----------------------------------------


def evaluate_expected_key(bundle: CensusBundle, key: str):
    """Recompute the invariant an expected key names.

    Key grammar: eu_global, chi_global, stv_sum, lambda_total, binf_total,
    irregular_values, eu_x_at_<stratum>, B_at_<value>, B_generic,
    eu_f_at_<value>, eu_f_at_generic, lambda_at_<value>, binf_at_<value>,
    defect_at_<point>, B_polar_at_<value>, B_polar_generic.
    """
    # the invariants only these keys read live with the runs that read them
    from .catalog_run import _eu_of_space_at, _polar
    from .compute import detect_irregular_values

    census = bundle.census
    base = census.base
    if key == "eu_global":
        return global_euler_obstruction(base)
    if key == "chi_global":
        return chi_global(base, indicator_of_space(base))
    if key == "lambda_total":
        return total_brasselet_infinity(census)
    if key == "binf_total":
        return total_brasselet_infinity(census, eu_weight(census))
    if key == "irregular_values":
        return detect_irregular_values(census)
    if key == "stv_sum":
        return stv_global_eu(census, _polar(bundle))[0]
    key = {"B_generic": "B_at_generic", "B_polar_generic": "B_polar_at_generic"}.get(key, key)
    for prefix, run in (
        ("eu_x_at_", lambda arg: _eu_of_space_at(base, arg)),
        ("B_at_", lambda arg: brasselet(census, arg, eu_weight(census))),
        ("B_polar_at_", lambda arg: brasselet_from_polar(census, _polar(bundle), arg)),
        ("eu_f_at_", lambda arg: eu_of_f_at(census, arg)),
        ("lambda_at_", lambda arg: lambda_infinity(census, arg)),
        ("binf_at_", lambda arg: brasselet_infinity(census, arg, eu_weight(census))),
        ("defect_at_", lambda arg: local_fiber_defect(census, arg)),
    ):
        if key.startswith(prefix) and len(key) > len(prefix):
            return run(key[len(prefix):])
    raise ValueError(f"expected key {key!r} does not name an implemented invariant")


# --- the standard battery of identity checks ---------------------------

# data deficiencies that demote a check to SKIP instead of failing the run
SKIPPABLE_ERRORS = (
    InsufficientData,
    NotEquidimensional,
    MissingLinkEntry,
    MissingPolarData,
    PointNotInClosure,
)


def checked_row(
    name: str, detail: str, compute: Callable[[], tuple[int, int]]
) -> CheckLine:
    """One row of the battery: the two sides ``compute`` returns, compared,
    or a SKIP row when the census lacks the data they need."""
    try:
        lhs, rhs = compute()
    except SKIPPABLE_ERRORS as exc:
        return CheckLine.skip(name, detail, str(exc))
    except AmbientObstructionMismatch as exc:
        # a declared slot contradicts the census: a failed row naming the
        # slot, declared value against implied value
        return CheckLine(
            name=name,
            status="FAIL",
            detail=f"{detail}, critical_points.{exc.point}.eu_space_at_q",
            lhs=exc.declared,
            rhs=exc.implied,
        )
    return CheckLine.compare(name, lhs, rhs, detail)


def standard_check_lines(
    bundle: CensusBundle, slice_bundle: CensusBundle | None = None
) -> list[CheckLine]:
    """Every applicable check on one bundle, in a fixed deterministic order.

    The identity rows follow the registry (``fibered.IDENTITIES``): each
    identity runs at each value it is stated at, with the constant weight 1
    and, on equidimensional censuses, the obstruction weight where it takes
    the caller's weight, and once more with Milnor counts where it takes
    counts at weight 1 and the function is declared general.  Identities
    whose data is absent produce SKIP rows rather than failures.  Polar
    data, when declared, is cross-checked against the census route to the
    same numbers.  Given the census of a generic hyperplane slice, the
    slicing step is checked last, at each special value.
    """
    census = bundle.census
    base = census.base
    lines: list[CheckLine] = []

    for sid in base.poset.linear_extension():
        if base.poset.stratum(sid).dim == 0:
            lines.append(
                checked_row(
                    "bdk_point_formula", f"at={sid}", lambda: check_bdk_point_formula(base, sid)
                )
            )

    alphas: list[tuple[str, object]] = [("1", None)]
    if base.equidimensional:
        try:
            alphas.append(("Eu", eu_weight(census)))
        except SKIPPABLE_ERRORS:
            pass
    values = list(census.special_values)
    swept = {None: [None], "special": values, "special+generic": values + [GENERIC]}

    for name, entry in IDENTITIES.items():
        weights = alphas if entry.weight == "alpha" else [("", None)]
        milnor = entry.counts and entry.weight == "1" and census.f_general
        counts = (False, True) if milnor else (False,)
        for a, (label, alpha), use_milnor in product(swept[entry.values], weights, counts):
            detail = row_detail(a, label, use_milnor)
            fiber = bundle.fiber_censuses.get(a)
            if entry.fiber and fiber is None:
                lines.append(CheckLine.skip(name, detail, f"missing: fiber_census.{a}"))
                continue
            lines.append(
                checked_row(
                    name,
                    detail,
                    lambda: check_identity(
                        census, name, at=a, alpha=alpha, fiber_census=fiber, use_milnor=use_milnor
                    ).sides,
                )
            )

    polar = bundle.polar
    if polar is not None:
        if polar.alpha is not None:
            lines.append(checked_row("stv_global_eu", "", lambda: stv_global_eu(census, polar)))
        for a in values + [GENERIC]:
            lines.append(
                checked_row(
                    "polar_vs_fiber",
                    f"a={a}",
                    lambda: (
                        brasselet_from_polar(census, polar, a),
                        brasselet(census, a, eu_weight(census)),
                    ),
                )
            )
        for a in values:
            lines.append(
                checked_row(
                    "polar_vs_infinity",
                    f"a={a}",
                    lambda: (
                        infinity_from_polar(census, polar, a),
                        brasselet_infinity(census, a, eu_weight(census)),
                    ),
                )
            )

    if slice_bundle is not None:
        for a in values:
            if polar is None:
                lines.append(CheckLine.skip("hyperplane_step", f"a={a}", "missing: polar"))
                continue
            lines.append(
                checked_row(
                    "hyperplane_step",
                    f"a={a}",
                    lambda: hyperplane_step(census, polar, slice_bundle.census, a),
                )
            )
    return lines


# --- the rows as printed, and the check subcommand ---------------------

_COLORS = {"OK": "\x1b[32m", "FAIL": "\x1b[31m", "SKIP": "\x1b[33m"}


def rows_text(rows) -> str:
    """The lines of rows of ``check`` or of a catalog entry, colored on a
    terminal unless STRAT_EULER_COLOR=0."""
    color = os.environ.get("STRAT_EULER_COLOR", "") != "0" and sys.stdout.isatty()
    lines = []
    with formatting():
        for row in rows:
            text = row.line()
            if color:
                text = _COLORS.get(row.status, "") + text + "\x1b[0m"
            lines.append(text + "\n")
    return "".join(lines)


def cmd_check(args) -> int:
    """The ``check`` subcommand: every row of the battery, then a count."""
    bundle = load_file(args.census)
    slice_bundle = None
    if args.hyperplane is not None:
        # a refused slice must not read as a refused census
        try:
            slice_bundle = load_file(args.hyperplane)
        except (CensusError, ValueError) as exc:
            raise CensusError(f"--hyperplane: {exc}") from exc
    rows = standard_check_lines(bundle, slice_bundle)
    failed = sum(1 for row in rows if row.status == "FAIL")
    skipped = sum(1 for row in rows if row.status == "SKIP")
    text = rows_text(rows)
    sys.stdout.write(f"{text}{len(rows)} checks, {failed} failed, {skipped} skipped\n")
    return 1 if failed else 0
