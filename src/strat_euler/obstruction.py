"""Local Euler obstructions from link data, and the global obstruction.

The local obstruction table is pinned down by one triangular linear system:
for each closed stratum closure, pairing its obstruction function against
the closure indicators under eta gives a delta.  Dimensions strictly
increase along the frontier order, so in any (dim, id) linear extension the
system is upper unitriangular over the integers and back-substitution solves
it exactly, with no rational arithmetic and no growth surprises.

Every invariant here reads the solved view ``census.solved`` (see
:class:`strata.SolvedCensus`).  Restricted to the closure of one stratum
the system is a principal block, so one closure's column is solved alone
over its down-set: the obstruction of the space, and with it the global
obstruction, costs the relations of the census, not the whole table.  The
point formula reads one vector solve, the constant weight read back
through the solver.  Only :func:`solve_bdk` reads the whole table: the
``table`` module solves it in the same back-substitution, each unit
right-hand side packed into one integer, and lays it out as a dense
:class:`table.LabeledMatrix`, built afresh on each call and not cached.
It serves only the printed ``eu-table`` and the tests.

The same mechanism proves the point formula used as a cross-check: writing
the constant function 1 in the obstruction basis and pairing with eta gives
1 at every stratum, so the check holds for any census and any stratum; a
failure can only mean a bug, never interesting geometry.
"""

from __future__ import annotations

from .errors import NotAPointStratum, NotEquidimensional
from .strata import StratifiedCensus, StratumConstructibleFunction, chi_global


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


def solve_bdk(census: StratifiedCensus) -> LabeledMatrix:
    """The value rows of ``census.solved`` laid out as one dense matrix.

    Column j holds the obstruction of closure j on open strata, solved by
    :func:`table.solve_rows` in one packed ``_solve``.  Any absent link of
    the matrix raises MissingLinkEntry, the first one in row-major order.
    The matrix is not cached: only the printed ``eu-table`` asks for it.
    """
    from .table import LabeledMatrix, solve_rows

    solved = census.solved
    return LabeledMatrix(solved.order, solve_rows(solved))


def eu_function_of_space(census: StratifiedCensus) -> StratumConstructibleFunction:
    """The obstruction of the whole space as a constructible function.

    Needs every link of the census, then the census declared
    equidimensional: only then is the space the closure of its regular part.
    It is one column, the regular part's: the whole table is never solved
    for it.
    """
    solved = census.solved
    solved.require_links()
    if not census.equidimensional:
        raise NotEquidimensional(
            f"census {census.name!r} is not declared equidimensional"
        )
    return solved.eu_function(census.regular_part().id)


def global_euler_obstruction(census: StratifiedCensus) -> int:
    """Euler characteristic of the space weighted by its obstruction."""
    return chi_global(census, eu_function_of_space(census))


def check_bdk_point_formula(census: StratifiedCensus, point_stratum: str) -> tuple[int, int]:
    """At a point stratum: the obstructions of all incident closures, paired
    against eta of the constant function 1, must sum to 1.  Returns the two
    sides, 1 and that sum.

    The sum is the constant weight read back through the solver, at the
    point: an algebraic identity of the solved system (see the module
    docstring), kept as a tripwire for solver regressions.
    """
    solved = census.solved
    solved.require_links()
    s = census.poset.stratum(point_stratum)
    if s.dim != 0:
        raise NotAPointStratum(f"{point_stratum!r} has dimension {s.dim}")
    return 1, solved.resolved(solved.one).value(point_stratum)
