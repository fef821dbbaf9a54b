"""The ``compute`` subcommand: one invariant of a census file.

It reads the invariants where they live, in ``obstruction`` and
``fibration``; only ``--what eu-table`` compiles the whole table, in
``table``.  The irregular-value detector lives here, read only by
``compute`` and by the catalog's expected keys.
"""

from __future__ import annotations

import sys

from .census_io import load_file
from .errors import CensusError, formatting
from .fibration import (
    FiberedCensus,
    brasselet,
    brasselet_infinity,
    eu_weight,
    lambda_infinity,
    resolve_value_label,
)
from .obstruction import global_euler_obstruction, solve_bdk


def detect_irregular_values(census: FiberedCensus) -> list[str]:
    """Special values whose behaviour at infinity is nontrivial.

    A value is flagged as soon as one stratum declares a nonzero correction
    at infinity there.  The detector is one-sided by design: a census cannot
    certify regularity, only exhibit irregularity.
    """
    flagged = [
        a
        for a in census.special_values
        if any(column.get(a, 0) != 0 for column in census.infinity_chi.values())
    ]
    return sorted(flagged)


def cmd_compute(args) -> int:
    """The ``compute`` subcommand: the invariant ``--what`` names, at the
    value ``--at`` names where it takes one."""
    bundle = load_file(args.census)
    census = bundle.census
    what = args.what
    takes_at = what not in ("eu-table", "eu-global", "detect-irregular")
    if (args.at is None) == takes_at:
        raise CensusError(f"--what {what} {'needs' if takes_at else 'takes no'} --at")
    if what == "eu-table":
        table = solve_bdk(census.base)
        with formatting():
            text = "local obstruction values (rows: strata, columns: stratum closures)\n"
            text += table.pretty() + "\n"
    elif what == "detect-irregular":
        text = "".join(f"{label}\n" for label in detect_irregular_values(census))
    else:
        if what == "eu-global":
            name, value = "Eu(X)", global_euler_obstruction(census.base)
        else:
            at = resolve_value_label(census, args.at)
            if at != args.at:
                print(
                    f"note: {args.at!r} is not a declared special value; using the generic column",
                    file=sys.stderr,
                )
            if what == "brasselet":
                name, value = f"B({at})", brasselet(census, at, eu_weight(census))
            elif what == "lambda":
                name, value = f"lambda({at})", lambda_infinity(census, at)
            else:
                name, value = f"Binf({at})", brasselet_infinity(census, at, eu_weight(census))
        with formatting():
            text = f"{name} = {value}\n"
    sys.stdout.write(text)
    return 0
