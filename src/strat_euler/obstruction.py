"""Local Euler obstructions from link data, and the global obstruction.

The local obstruction table is pinned down by one triangular linear system:
for each closed stratum closure, pairing its obstruction function against
the closure indicators under eta gives a delta.  Dimensions strictly
increase along the frontier order, so in any (dim, id) linear extension the
system is upper unitriangular over the integers and back-substitution solves
it exactly, with no rational arithmetic and no growth surprises.

The system is solved once per census, row by row: ``census.solved`` (see
:class:`strata.SolvedCensus`) back-substitutes every coefficient row over
its stratum's up-set and sums those rows into value rows.  Restricted to
the closure of one stratum the system is a principal block, so each
closure's column is read from the same rows, and the full table is those
rows laid out densely, built on first request and then shared by every
caller.

The same mechanism proves the point formula used as a cross-check: writing
the constant function 1 in the obstruction basis and pairing with eta gives
1 at every stratum, so the check holds for any census and any stratum; a
failure can only mean a bug, never interesting geometry.
"""

from __future__ import annotations

from functools import cached_property

from .errors import NotAPointStratum, NotEquidimensional, UnknownStratum
from .records import record
from .reports import CheckLine
from .strata import (
    LabeledMatrix,
    StratifiedCensus,
    StratumConstructibleFunction,
    chi_global,
    indicator_of_space,
)


def invert_unitriangular(rows: list[list[int]]) -> list[list[int]]:
    """Exact inverse of an upper unitriangular integer matrix.

    Plain back-substitution; division never occurs because the diagonal is
    all ones, so the inverse is again integral and unitriangular.
    """
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("matrix is not square")
        if row[i] != 1:
            raise ValueError(f"diagonal entry at {i} is {row[i]}, not 1")
        if any(row[j] != 0 for j in range(i)):
            raise ValueError(f"row {i} has a nonzero entry below the diagonal")
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        # solve M x = e_j from the bottom up
        for i in range(j - 1, -1, -1):
            s = sum(rows[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = -s
    return inv


@record
class EulerObstructionTable:
    """Solved obstruction data for one census.

    ``order`` is the (dim, id) linear extension.  ``coefficients`` expresses
    each closure's obstruction function in the closure-indicator basis:
    column j holds the coefficients of the function attached to the closure
    of ``order[j]``.  ``values`` tabulates those functions on open strata:
    ``values[k][j]`` is the obstruction of the closure of ``order[j]``
    evaluated at points of ``order[k]``, zero off the closure.
    """

    order: tuple[str, ...]
    coefficients: tuple[tuple[int, ...], ...]
    values: tuple[tuple[int, ...], ...]

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.order)}

    def _idx(self, stratum_id: str) -> int:
        try:
            return self._positions[stratum_id]
        except KeyError:
            raise UnknownStratum(f"no stratum {stratum_id!r} in the table") from None

    def eu_closure(self, at: str, closure_of: str) -> int:
        """Obstruction of one closed stratum closure at points of a stratum."""
        return self.values[self._idx(at)][self._idx(closure_of)]

    def eu_at(self, at: str) -> int:
        """Obstruction of the whole space at points of a stratum (top column)."""
        return self.values[self._idx(at)][len(self.order) - 1]

    def eu_function(self, closure_of: str) -> StratumConstructibleFunction:
        j = self._idx(closure_of)
        return StratumConstructibleFunction(
            {s: self.values[k][j] for k, s in enumerate(self.order) if self.values[k][j]}
        )

    def coefficient_matrix(self) -> LabeledMatrix:
        return LabeledMatrix(self.order, self.coefficients)

    def value_matrix(self) -> LabeledMatrix:
        return LabeledMatrix(self.order, self.values)


def solve_bdk(census: StratifiedCensus) -> EulerObstructionTable:
    """Solve the defining triangular system for all closures at once.

    Inverts the eta-against-closures matrix over the integers; column j of
    the inverse gives the obstruction function of closure j in the closure
    basis.  Values on open strata follow by summing coefficients over the
    up-set, since a closure indicator is 1 on its whole down-set.  The
    table is solved once per census and shared; any absent link of the
    matrix raises MissingLinkEntry, the first one in row-major order.
    """
    solved = census.solved
    if solved.table is None:
        solved.require_links()
        coeffs, values = solved.rows
        n = len(solved.order)
        solved.table = EulerObstructionTable(
            order=solved.order,
            coefficients=_dense(coeffs, n),
            values=_dense(values, n),
        )
    return solved.table


def _dense(rows: list[dict[int, int]], n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for sparse in rows:
        row = [0] * n
        for j, v in sparse.items():
            row[j] = v
        out.append(tuple(row))
    return tuple(out)


def eu_function_of_space(
    census: StratifiedCensus, table: EulerObstructionTable
) -> StratumConstructibleFunction:
    """The obstruction of the whole space as a constructible function.

    Needs the census declared equidimensional: only then is the space the
    closure of its regular part, which is the top column of the table.
    """
    if not census.equidimensional:
        raise NotEquidimensional(
            f"census {census.name!r} is not declared equidimensional"
        )
    return table.eu_function(census.regular_part().id)


def global_euler_obstruction(census: StratifiedCensus, table: EulerObstructionTable) -> int:
    """Euler characteristic of the space weighted by its obstruction."""
    return chi_global(census, eu_function_of_space(census, table))


def check_bdk_point_formula(
    census: StratifiedCensus, table: EulerObstructionTable, point_stratum: str
) -> CheckLine:
    """At a point stratum: the obstructions of all incident closures, paired
    against eta of the constant function 1, must sum to 1.

    This is an algebraic identity of the solved table (see the module
    docstring), kept as a tripwire for solver regressions.
    """
    s = census.poset.stratum(point_stratum)
    if s.dim != 0:
        raise NotAPointStratum(f"{point_stratum!r} has dimension {s.dim}")
    solved = census.solved
    one = solved.weight(indicator_of_space(census))
    # only the closures containing the point, itself and its up-set, are
    # nonzero there
    i = solved.index[point_stratum]
    row = table.values[i]
    rhs = sum(row[k] * one.eta(solved.order[k]) for k in (i, *solved.above[i]))
    return CheckLine.compare("bdk_point_formula", 1, rhs, f"at={point_stratum}")
