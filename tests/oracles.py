"""Test-only routes to the closure basis and the eta matrix.

No command runs these, so they live with the tests rather than in the
package, where every command-line call would compile them.  Each is written
out from its definition with ``StratumPoset.lt`` and the link table,
independently of ``census.solved``.
"""

from typing import Mapping

from strat_euler import LabeledMatrix, StratifiedCensus, StratumConstructibleFunction


def eta_entry(census: StratifiedCensus, at: str, closure_of: str) -> int:
    """eta of the closure indicator 1_{cl(V_j)} evaluated at the stratum ``at``."""
    if at == closure_of:
        return 1
    if census.poset.lt(at, closure_of):
        return 1 - census.links.get(at, closure_of)
    return 0


def eta_closure_matrix(census: StratifiedCensus) -> LabeledMatrix:
    """The matrix of eta values against closure indicators.

    Rows are strata, columns are closures, both in (dim, id) order.  The
    matrix is upper triangular with unit diagonal because eta against a
    closure vanishes off the closure and is 1 on the open top stratum.
    """
    order = census.poset.linear_extension()
    rows = tuple(tuple(eta_entry(census, at, cl) for cl in order) for at in order)
    return LabeledMatrix(tuple(order), rows)


def closure_coefficients(
    census: StratifiedCensus, alpha: StratumConstructibleFunction
) -> dict[str, int]:
    """Coefficients of alpha in the basis of closure indicators.

    Inverts ``1_{cl(V_k)} = sum of 1_{V_j} over j <= k`` by running through
    strata in decreasing (dim, id) order, a Moebius inversion on the poset.
    """
    poset = census.poset
    coeffs: dict[str, int] = {}
    for j in reversed(poset.linear_extension()):
        coeffs[j] = alpha.value(j) - sum(c for k, c in coeffs.items() if poset.lt(j, k))
    return coeffs


def function_from_closure_coefficients(
    census: StratifiedCensus, coeffs: Mapping[str, int]
) -> StratumConstructibleFunction:
    """Expand a closure-basis combination back into per-stratum values."""
    poset = census.poset
    for k in coeffs:
        poset.stratum(k)
    out = {}
    for j in poset.ids():
        out[j] = sum(v for k, v in coeffs.items() if k == j or poset.lt(j, k))
    return StratumConstructibleFunction(out)
