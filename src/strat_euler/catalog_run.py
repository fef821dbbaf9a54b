"""Whole-catalog runs: the ``catalog run`` subcommand.

:func:`run_all` recomputes every expected value and every applicable
identity on every shipped entry and returns each entry's rows, an
:class:`ExpectedResult` per expected value and then the battery's
``CheckLine`` rows; the catalog passing is the package's end-to-end
self-test.  The invariants and helpers only expected keys read live here
too: ``catalog.evaluate_expected_key`` imports them when it is called, so
``check`` compiles none of this module.
"""

from __future__ import annotations

import sys

from .catalog import evaluate_expected_key, load_entry, rows_text, standard_check_lines
from .census_io import CensusBundle
from .entries import list_entries
from .errors import InsufficientData, UnknownStratum
from .fibered import CheckLine
from .obstruction import eu_function_of_space
from .records import record
from .strata import StratifiedCensus


# --- what only expected keys read ------------------------------------------


def _eu_of_space_at(census: StratifiedCensus, stratum_id: str) -> int:
    # the column ``eu_global`` reads; an absent link anywhere, then an
    # undeclared equidimensionality, raises ahead of an unknown id
    column = eu_function_of_space(census)
    if stratum_id not in census.solved.index:
        raise UnknownStratum(f"no stratum {stratum_id!r} in the table")
    return column.value(stratum_id)


def _polar(bundle: CensusBundle):
    if bundle.polar is None:
        raise InsufficientData(["polar"])
    return bundle.polar


# --- whole-catalog runs ------------------------------------------------


def validate_entry(bundle: CensusBundle) -> None:
    """Catalog hygiene: the entry declares expected values, and each one
    carries a nonempty derivation note."""
    if not bundle.expected:
        raise ValueError(f"catalog entry {bundle.name!r} declares no expected values")
    for key in bundle.expected:
        if key not in bundle.derivation_notes or not bundle.derivation_notes[key].strip():
            raise ValueError(
                f"catalog entry {bundle.name!r}: expected key {key!r} has no "
                "derivation note"
            )


@record
class ExpectedResult:
    """One expected-value row of a catalog run."""

    key: str
    want: object
    got: object

    @property
    def status(self) -> str:
        return "OK" if self.want == self.got else "FAIL"

    def line(self) -> str:
        return f"expected {self.key}: want={self.want!r} got={self.got!r} {self.status}"


def run_entry(bundle: CensusBundle) -> list[ExpectedResult | CheckLine]:
    """The rows of one entry: its expected values in key order, then the
    battery."""
    validate_entry(bundle)
    expected = [
        ExpectedResult(key=key, want=bundle.expected[key], got=evaluate_expected_key(bundle, key))
        for key in sorted(bundle.expected)
    ]
    return expected + standard_check_lines(bundle)


def run_all(names: list[str] | None = None) -> list[tuple[str, list]]:
    """(census name, rows) of each named entry, in the order given; all of
    them when no names are given."""
    if names is None:
        names = list_entries()
    return [(bundle.name, run_entry(bundle)) for bundle in map(load_entry, names)]


def run_catalog(names: list[str]) -> int:
    """``catalog run``: the rows of each named entry, all of them when none
    is named, then how many verified."""
    entries = run_all(names or None)
    parts = []
    verified = 0
    for name, rows in entries:
        parts += [f"== {name} ==\n", rows_text(rows)]
        verified += not any(row.status == "FAIL" for row in rows)
    parts.append(f"{verified}/{len(entries)} catalog entries verified\n")
    sys.stdout.write("".join(parts))
    return 0 if verified == len(entries) else 1
