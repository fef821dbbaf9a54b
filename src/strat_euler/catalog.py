"""Curated census library and the harness that re-verifies all of it.

Each catalog entry is a census file shipped with the package whose expected
invariants were derived independently (by hand or by an elementary oracle
noted next to each number) and frozen.  ``run_all`` recomputes every
expected value and every applicable identity on every entry; the catalog
passing is the package's end-to-end self-test.

The battery of checks, :func:`standard_check_lines`, derives its identity
rows from the registry in ``fibered`` (which values, which weights, which
counts), and builds every row, identity, point formula or polar
cross-check alike, through :func:`checked_row`: compare the two sides, or
SKIP when the census lacks the data.
"""

from __future__ import annotations

from itertools import product
from typing import Callable

from .census_io import CensusBundle, load_document
from .documents import _fixture_dir, list_entries, read_json
from .errors import (
    AmbientObstructionMismatch,
    InsufficientData,
    MissingLinkEntry,
    MissingPolarData,
    NotEquidimensional,
    SchemaError,
    UnknownEntry,
    UnknownStratum,
)
from .fibered import IDENTITIES, check_identity
from .fibration import (
    GENERIC,
    brasselet,
    brasselet_infinity,
    detect_irregular_values,
    eu_of_f_at,
    eu_weight,
    lambda_infinity,
    local_fiber_defect,
    total_brasselet_infinity,
    total_lambda_infinity,
)
from .obstruction import check_bdk_point_formula, global_euler_obstruction
from .polar import brasselet_from_polar, infinity_from_polar, stv_global_eu
from .records import record
from .reports import CheckLine, row_detail
from .strata import StratifiedCensus, chi_global, indicator_of_space


def load_entry(name: str) -> CensusBundle:
    try:
        doc = read_json(_fixture_dir().joinpath(f"{name}.json"))
    except SchemaError as exc:
        if not isinstance(exc.__cause__, OSError):
            raise
        raise UnknownEntry(
            f"no catalog entry {name!r}; available: {', '.join(list_entries())}"
        ) from None
    return load_document(doc)


# --- expected-value evaluation -----------------------------------------


def _eu_of_space_at(census: StratifiedCensus, stratum_id: str) -> int:
    # the column of the last closure in (dim, id) order, zero off its
    # down-set; an absent link anywhere raises ahead of an unknown id
    solved = census.solved
    solved.require_links()
    column = solved.eu_function(solved.order[-1])
    if stratum_id not in solved.index:
        raise UnknownStratum(f"no stratum {stratum_id!r} in the table")
    return column.value(stratum_id)


def evaluate_expected_key(bundle: CensusBundle, key: str):
    """Recompute the invariant an expected key names.

    Key grammar: eu_global, chi_global, stv_sum, lambda_total, binf_total,
    irregular_values, eu_x_at_<stratum>, B_at_<value>, B_generic,
    eu_f_at_<value>, eu_f_at_generic, lambda_at_<value>, binf_at_<value>,
    defect_at_<point>, B_polar_at_<value>, B_polar_generic.
    """
    census = bundle.census
    base = census.base
    if key == "eu_global":
        return global_euler_obstruction(base)
    if key == "chi_global":
        return chi_global(base, indicator_of_space(base))
    if key == "lambda_total":
        return total_lambda_infinity(census)
    if key == "binf_total":
        return total_brasselet_infinity(census, eu_weight(census))
    if key == "irregular_values":
        return detect_irregular_values(census)
    if key == "stv_sum":
        if bundle.polar is None:
            raise InsufficientData(["polar"])
        return stv_global_eu(census, bundle.polar).lhs
    if key == "B_generic":
        return brasselet(census, GENERIC, eu_weight(census))
    if key == "B_polar_generic":
        if bundle.polar is None:
            raise InsufficientData(["polar"])
        return brasselet_from_polar(census, bundle.polar, GENERIC)
    if key == "eu_f_at_generic":
        return eu_of_f_at(census, GENERIC)
    if key.startswith("B_polar_at_") and len(key) > len("B_polar_at_"):
        if bundle.polar is None:
            raise InsufficientData(["polar"])
        return brasselet_from_polar(census, bundle.polar, key[len("B_polar_at_"):])
    for prefix, run in (
        ("eu_x_at_", lambda arg: _eu_of_space_at(base, arg)),
        ("B_at_", lambda arg: brasselet(census, arg, eu_weight(census))),
        ("eu_f_at_", lambda arg: eu_of_f_at(census, arg)),
        ("lambda_at_", lambda arg: lambda_infinity(census, arg)),
        ("binf_at_", lambda arg: brasselet_infinity(census, arg, eu_weight(census))),
        ("defect_at_", lambda arg: local_fiber_defect(census, arg)),
    ):
        if key.startswith(prefix) and len(key) > len(prefix):
            return run(key[len(prefix):])
    raise ValueError(f"expected key {key!r} does not name an implemented invariant")


def validate_entry(bundle: CensusBundle) -> None:
    """Catalog hygiene: every expected number parses to an operation and
    carries a nonempty derivation note."""
    if not bundle.expected:
        raise ValueError(f"catalog entry {bundle.name!r} declares no expected values")
    for key in bundle.expected:
        if key not in bundle.derivation_notes or not bundle.derivation_notes[key].strip():
            raise ValueError(
                f"catalog entry {bundle.name!r}: expected key {key!r} has no "
                "derivation note"
            )


# --- the standard battery of identity checks ---------------------------

# data deficiencies that demote a check to SKIP instead of failing the run
SKIPPABLE_ERRORS = (
    InsufficientData,
    NotEquidimensional,
    MissingLinkEntry,
    MissingPolarData,
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


def standard_check_lines(bundle: CensusBundle) -> list[CheckLine]:
    """Every applicable check on one bundle, in a fixed deterministic order.

    The identity rows follow the registry (``fibered.IDENTITIES``): each
    identity runs at each value it is stated at, with the constant weight 1
    and, on equidimensional censuses, the obstruction weight where it takes
    the caller's weight, and once more with Milnor counts where it takes
    counts at weight 1 and the function is declared general.  Identities
    whose data is absent produce SKIP rows rather than failures.  Polar
    data, when declared, is cross-checked against the census route to the
    same numbers.
    """
    census = bundle.census
    base = census.base
    lines: list[CheckLine] = []

    for sid in base.poset.linear_extension():
        if base.poset.stratum(sid).dim == 0:
            lines.append(
                checked_row(
                    "bdk_point_formula",
                    f"at={sid}",
                    lambda: check_bdk_point_formula(base, sid).sides,
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

    if bundle.polar is not None:
        polar = bundle.polar
        if polar.alpha is not None:
            lines.append(
                checked_row(
                    "stv_global_eu", "", lambda: stv_global_eu(census, polar).sides
                )
            )
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
    return lines


# --- whole-catalog runs ------------------------------------------------


@record
class ExpectedResult:
    key: str
    want: object
    got: object

    @property
    def ok(self) -> bool:
        return self.want == self.got

    @property
    def status(self) -> str:
        return "OK" if self.ok else "FAIL"

    def line(self) -> str:
        return f"expected {self.key}: want={self.want!r} got={self.got!r} {self.status}"


@record
class EntryReport:
    name: str
    expected: tuple[ExpectedResult, ...]
    checks: tuple[CheckLine, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.expected) and all(
            c.status != "FAIL" for c in self.checks
        )


@record
class CatalogReport:
    entries: tuple[EntryReport, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def summary(self) -> str:
        good = sum(1 for e in self.entries if e.ok)
        return f"{good}/{len(self.entries)} catalog entries verified"


def run_entry(bundle: CensusBundle) -> EntryReport:
    validate_entry(bundle)
    results = []
    for key in sorted(bundle.expected):
        want = bundle.expected[key]
        got = evaluate_expected_key(bundle, key)
        results.append(ExpectedResult(key=key, want=want, got=got))
    return EntryReport(
        name=bundle.name,
        expected=tuple(results),
        checks=tuple(standard_check_lines(bundle)),
    )


def run_all(names: list[str] | None = None) -> CatalogReport:
    if names is None:
        names = list_entries()
    return CatalogReport(entries=tuple(run_entry(load_entry(n)) for n in names))
