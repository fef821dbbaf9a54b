"""Test-only routes to the closure basis and the eta matrix, products, and
the simplicial oracles.

No command runs these, so they live with the tests rather than in the
package, where every command-line call would compile them.  Each is written
out from its definition with ``StratumPoset.lt`` and the link table,
independently of ``census.solved``, except :func:`closure_sums`, which
adds up the solved closure columns one closure at a time.
:func:`census_product` builds a census whose invariants are known in closed
form from its factors'.  :func:`chi_c` and :func:`fiber` count open
simplices one by one, independently of ``euler_calculus.integrate_all``
and ``pushforward``.
"""

from typing import Callable, Iterable, Mapping

from strat_euler.errors import MissingLinkEntry
from strat_euler.euler_calculus import Simplex, SimplicialComplex, SimplicialMap
from strat_euler.fibration import GENERIC, FiberedCensus
from strat_euler.strata import (
    StratifiedCensus,
    Stratum,
    StratumConstructibleFunction,
    StratumPoset,
    eta,
)
from strat_euler.table import LabeledMatrix


def closed(generators: Iterable[Simplex]) -> SimplicialComplex:
    """The smallest complex containing the given simplices."""
    out: set[Simplex] = set()
    for g in generators:
        out.update(g.faces())
    return SimplicialComplex(frozenset(out))


def chi_c(simplices: Iterable[Simplex]) -> int:
    """Compactly-supported Euler characteristic of a union of open
    simplices: the sum of (-1)^dim over them.  Exact on constructible sets
    and additive over disjoint unions."""
    return sum(-1 if s.dim % 2 else 1 for s in simplices)


def fiber(f: SimplicialMap, t: Simplex) -> frozenset[Simplex]:
    """The open simplices of the source that map onto exactly the open
    simplex t."""
    return frozenset(s for s in f.source.simplices if f.image(s) == t)


def down_set(poset: StratumPoset, stratum_id: str) -> list[str]:
    """Ids of strata in the closure of the given one, itself included."""
    return [i for i in poset.ids() if i == stratum_id or poset.lt(i, stratum_id)]


def link(census: StratifiedCensus, lower: str, upper: str) -> int:
    """The chi of the link of ``lower`` inside the closure of ``upper``."""
    try:
        return census.links[lower, upper]
    except KeyError:
        raise MissingLinkEntry(lower, upper) from None


def eta_entry(census: StratifiedCensus, at: str, closure_of: str) -> int:
    """eta of the closure indicator 1_{cl(V_j)} evaluated at the stratum ``at``."""
    if at == closure_of:
        return 1
    if census.poset.lt(at, closure_of):
        return 1 - link(census, at, closure_of)
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


def eu_of_space(census: StratifiedCensus) -> StratumConstructibleFunction:
    """The obstruction of an equidimensional space from its definition:
    the closure-basis combination x with eta of it equal to 1 on the
    regular part and 0 elsewhere, solved by back-substitution through the
    eta matrix entry by entry, then expanded into per-stratum values."""
    order = census.poset.linear_extension()
    top = census.regular_part().id
    x: dict[str, int] = {}
    for i in reversed(range(len(order))):
        at = order[i]
        x[at] = int(at == top) - sum(eta_entry(census, at, k) * x[k] for k in order[i + 1 :])
    return function_from_closure_coefficients(census, x)


def consistent_fiber_chi(census: FiberedCensus) -> dict[str, dict[str, int]]:
    """Fiber columns that make every non-structural identity hold at every
    weight, from the census's chi, infinity columns and Morse counts.

    Each of those identities is linear in the weight w, and its count side
    enters through eta(w) = K w, with K(S, T) eta of the indicator of T at
    S.  With N_S the total Morse count on S, and N^{!=a}_S the count
    without the points over a, each stratum T gets
      fiber_chi[T][generic] = chi(T) + sum_c infinity_chi[T][c]
                              - sum_S (-1)^dim S N_S K(S, T),
      fiber_chi[T][a] = chi(T) + sum_{c != a} infinity_chi[T][c]
                        - sum_S (-1)^dim S N^{!=a}_S K(S, T).
    K is computed from :func:`closure_coefficients` and :func:`eta_entry`
    alone, and only at the strata that carry counts.
    """
    base = census.base
    poset = base.poset
    counted = sorted({s for q in census.critical_points for s, n in q.morse_counts.items() if n})
    K = {}
    for t in poset.ids():
        coeffs = closure_coefficients(base, StratumConstructibleFunction({t: 1}))
        for s in counted:
            K[s, t] = sum(c * eta_entry(base, s, k) for k, c in coeffs.items() if c)

    def balance(t: str, without: str | None) -> int:
        return sum(
            (-1) ** poset.stratum(s).dim * n * K[s, t]
            for q in census.critical_points
            if q.value != without
            for s, n in q.morse_counts.items()
            if n
        )

    columns = {}
    for t in poset.ids():
        infinity = census.infinity_chi.get(t, {})
        chi = base.chi[t]
        columns[t] = {GENERIC: chi + sum(infinity.values()) - balance(t, None)}
        for a in census.special_values:
            rest = sum(v for c, v in infinity.items() if c != a)
            columns[t][a] = chi + rest - balance(t, a)
    return columns


def closure_sums(
    integral: Callable[..., int],
    census: FiberedCensus,
    a: str,
    w: StratumConstructibleFunction,
) -> tuple[int, int]:
    """Both sides of a bdk_global identity, the right side summed closure by
    closure: the integral of each closure's own obstruction column, weighted
    by eta of w, in ``poset.ids()`` order.  Its first error is the one the
    package's row must raise."""
    base = census.base
    lhs = integral(census, a, w)
    rhs = sum(
        integral(census, a, base.solved.eu_function(sid)) * eta(base, sid, w)
        for sid in base.poset.ids()
    )
    return lhs, rhs


def census_product(a: StratifiedCensus, b: StratifiedCensus) -> StratifiedCensus:
    """The census of the product space X x Y from the censuses of X and Y.

    Strata are the pairs of strata (ids ``"S*T"``): dimensions add, Euler
    characteristics multiply, and the regular part is the pair of regular
    parts.  (S, T) lies below (S', T') when S <= S' and T <= T' and the
    pairs differ.  The normal Morse data multiply, 1 - chi(link) of a pair
    being the product of the factors' 1 - chi(link), where an equal
    coordinate contributes 1.  So the local obstruction multiplies too:
    Eu(X x Y) at (x, y) is Eu(X) at x times Eu(Y) at y.
    """

    def normal(census, low, up):
        return 1 if low == up else 1 - link(census, low, up)

    pairs = [(s, t) for s in a.poset.strata for t in b.poset.strata]
    strata = tuple(
        Stratum(
            f"{s.id}*{t.id}",
            s.dim + t.dim,
            is_regular_part=s.is_regular_part and t.is_regular_part,
        )
        for s, t in pairs
    )
    chi = {}
    for s, t in pairs:
        x, y = a.chi.get(s.id), b.chi.get(t.id)
        chi[f"{s.id}*{t.id}"] = None if x is None or y is None else x * y
    links = {}
    for s, t in pairs:
        for u, v in pairs:
            if (s, t) != (u, v) and a.poset.leq(s.id, u.id) and b.poset.leq(t.id, v.id):
                product = normal(a, s.id, u.id) * normal(b, t.id, v.id)
                links[(f"{s.id}*{t.id}", f"{u.id}*{v.id}")] = 1 - product
    return StratifiedCensus(
        f"{a.name} x {b.name}",
        StratumPoset(strata, frozenset(links)),
        links,
        equidimensional=a.equidimensional and b.equidimensional,
        chi=chi,
    )


def pulled_back(g: FiberedCensus, y: StratifiedCensus) -> FiberedCensus:
    """The census of f = g o pr_1 on X x Y, from the census of g on X and
    the census of Y.

    The fiber of f over c is g^-1(c) x Y, so its piece in the stratum S*T
    is the piece of g's fiber in S times T: fiber_chi[S*T][c] is
    fiber_chi[S][c] * chi(T), and likewise at infinity.  Over a critical
    point of g lies a whole copy of Y, so f declares no critical points.
    """

    def columns(table):
        return {
            f"{sid}*{t.id}": {c: v * y.chi[t.id] for c, v in col.items()}
            for sid, col in table.items()
            for t in y.poset.strata
        }

    return FiberedCensus(
        census_product(g.base, y),
        special_values=g.special_values,
        fiber_chi=columns(g.fiber_chi),
        infinity_chi=columns(g.infinity_chi),
    )
