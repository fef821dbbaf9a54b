"""Stratified censuses: the combinatorial skeleton of a singular space.

A census records what an exact stratified computation actually consumes:
the poset of strata with their complex dimensions, the Euler
characteristic of each stratum, and the Euler characteristics of complex
links of one stratum inside the closure of another.  No equations, no
embeddings.  Two spaces with the same census are indistinguishable to every
operation in this package, which is exactly the point: the identities being
verified are census-level facts.  The poset holds only the order; the
census holds the Euler characteristics and the links as plain maps, which
the identities read separately.

Conventions
-----------
* The order is the frontier order: ``a < b`` means the stratum ``a`` lies in
  the closure of ``b``.  It is stored transitively closed.
* ``eta(V', alpha)`` is the normal Morse datum pairing.  On a closure
  indicator it evaluates to 1 on the stratum itself, to
  ``1 - chi(link of V' inside the closure of V_j)`` strictly below, and to 0
  on strata not contained in the closure.  The vanishing case follows from
  supports (the normal slice misses the closure) and is applied uniformly,
  including to incomparable strata.
* Linear extensions are chosen by (dim, id) lexicographic order everywhere a
  matrix needs its rows and columns ordered.  Dimensions strictly increase
  along the frontier order, so this is always a valid linear extension.

Each census is solved once, into one object: ``census.solved`` is a
:class:`SolvedCensus`, and every invariant reads from it.  The
eta-against-closures matrix is upper unitriangular, and its restriction to
the closure of a stratum is a principal block.  The solved census reads
the links from rows built once (:attr:`SolvedCensus.rows`) and keeps, for
each weight, its closure-basis coefficients, its eta values
(:meth:`SolvedCensus.eta`) and the weight read back through the solver
(:meth:`SolvedCensus.resolved`), which is what the structural rows of
``check`` compare against.  One back-substitution serves every vector
solve: the obstruction column of one closure, over that closure's
down-set, and a resolved weight, over the whole census.  Only the printed
``eu-table`` reads the whole table, which the ``table`` module solves and
lays out.  :func:`restrict_to_closure` builds the sub-census of a closure
explicitly and stays as the independent route the tests compare against.

Code that only some calls run lives with them: the diagnosis of a refused
order in ``order_errors`` and the whole table in ``table``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from functools import cached_property

from .errors import (
    InsufficientData,
    MissingLinkEntry,
    UnknownStratum,
)
from .records import field, record, replace


@record
class Stratum:
    """One connected stratum, or the possibly-disconnected regular part.

    ``dim`` is the complex dimension.  Its Euler characteristic is data of
    the census (``StratifiedCensus.chi``), not of the order.
    """

    id: str
    dim: int
    is_regular_part: bool = False


@record
class StratumPoset:
    """Strata plus the strict frontier order, closed under transitivity.

    The constructor accepts any generating set of order pairs and closes it.
    Cycles and order pairs that do not strictly increase dimension are
    rejected, as are duplicate or unknown ids.  Each error names the first
    offender in (dim, id) order, so its text never depends on set order.
    """

    strata: tuple[Stratum, ...]
    relations: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "strata", tuple(self.strata))
        by_id = {s.id: s for s in self.strata}
        if len(by_id) != len(self.strata):
            raise ValueError("duplicate stratum ids")
        unknown = {x for pair in self.relations for x in pair} - by_id.keys()
        if unknown:
            raise UnknownStratum(f"order pair mentions unknown stratum {min(unknown)!r}")
        # the (dim, id) linear extension, and strict down-sets and up-sets as
        # ascending index tuples into it
        order = tuple(s.id for s in sorted(self.strata, key=lambda s: (s.dim, s.id)))
        index = {sid: i for i, sid in enumerate(order)}
        dims = [by_id[sid].dim for sid in order]
        down: list[set[int]] = [set() for _ in order]
        for a, b in self.relations:
            down[index[b]].add(index[a])
        if any(dims[i] >= dims[k] for k, gen in enumerate(down) for i in gen):
            from .order_errors import order_error

            raise order_error(order, dims, self.relations)
        # every generating pair raises dimension, hence so does every pair of
        # the closure, and each down-set is closed before any stratum above
        # it reads it: one ascending pass closes them all
        for gen in down:
            for i in tuple(gen):
                gen |= down[i]
        below = tuple(tuple(sorted(gen)) for gen in down)
        above: list[list[int]] = [[] for _ in order]
        for k, lower in enumerate(below):
            for i in lower:
                above[i].append(k)
        closure = [(order[i], b) for b, lower in zip(order, below) for i in lower]
        object.__setattr__(self, "relations", frozenset(closure))
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_below", below)
        object.__setattr__(self, "_above", tuple(tuple(x) for x in above))

    def ids(self) -> list[str]:
        return [s.id for s in self.strata]

    def stratum(self, stratum_id: str) -> Stratum:
        try:
            return self._by_id[stratum_id]
        except KeyError:
            raise UnknownStratum(f"no stratum {stratum_id!r}") from None

    def lt(self, a: str, b: str) -> bool:
        self.stratum(a), self.stratum(b)
        return (a, b) in self.relations

    def leq(self, a: str, b: str) -> bool:
        self.stratum(a), self.stratum(b)
        return a == b or (a, b) in self.relations

    def linear_extension(self) -> list[str]:
        return list(self._order)


@record
class StratifiedCensus:
    """A named stratified space: poset, link data, equidimensionality flag
    and Euler characteristics.

    ``links`` maps a strict order pair (lower, upper) to the chi of the
    complex link of ``lower`` inside the closure of ``upper``.  An entry
    depends only on its pair, which is what makes restriction to a closed
    union a sub-table and nothing more.  ``chi`` maps a stratum id to the
    topological Euler characteristic of the open stratum (equal to its
    compactly supported one; the strata are complex).  A stratum it leaves
    out or maps to None has a value the census does not know yet;
    operations that need it say so instead of guessing.
    """

    name: str
    poset: StratumPoset
    links: Mapping[tuple[str, str], int]
    equidimensional: bool = False
    chi: Mapping[str, int | None] = field(default_factory=dict)

    def validate(self) -> None:
        """Reject structurally inconsistent censuses.

        Checks, beyond what the poset constructor already enforced: chi
        keys are strata; link keys are genuine strict order pairs; exactly
        one stratum carries the regular-part flag and it is maximal; under
        the equidimensionality flag every other stratum lies below the
        regular part, which therefore has the top dimension: the poset
        refuses a pair that does not raise dimension.
        """
        poset = self.poset
        for sid in self.chi:
            if sid not in poset._by_id:
                raise UnknownStratum(f"chi given for unknown stratum {sid!r}")
        relations = poset.relations
        for (a, b) in self.links:
            # lt names an unknown stratum before the pair is refused
            if (a, b) not in relations and not poset.lt(a, b):
                raise ValueError(f"link entry at ({a!r}, {b!r}) is not a strict order pair")
        flagged = [s for s in poset.strata if s.is_regular_part]
        if len(flagged) != 1:
            raise ValueError(f"expected exactly one regular-part stratum, found {len(flagged)}")
        top = flagged[0]
        if any(poset.lt(top.id, j) for j in poset.ids()):
            raise ValueError("the regular part must be a maximal stratum")
        if self.equidimensional:
            others = [i for i in poset.ids() if i != top.id]
            not_below = [i for i in others if not poset.lt(i, top.id)]
            if not_below:
                raise ValueError(
                    "equidimensional census must have every stratum in the closure "
                    f"of the regular part; violated by {not_below}"
                )

    def regular_part(self) -> Stratum:
        for s in self.poset.strata:
            if s.is_regular_part:
                return s
        raise ValueError("census has no regular-part stratum")

    def top_dim(self) -> int:
        return max(s.dim for s in self.poset.strata)

    @cached_property
    def solved(self) -> "SolvedCensus":
        """This census solved once.  A census changed with ``replace`` is a
        new object and gets a new view, so nothing solved survives a change
        other than :meth:`with_chi`."""
        return SolvedCensus(self)

    def with_chi(self, stratum_id: str, chi: int | None) -> "StratifiedCensus":
        """The census with one stratum's Euler characteristic replaced.  The
        solved view reads only the poset and the links, so the new census
        keeps this one's."""
        new = replace(self, chi={**self.chi, stratum_id: chi})
        new.__dict__["solved"] = self.solved
        return new

@record
class StratumConstructibleFunction:
    """Integer coefficients on open strata; missing ids count as zero."""

    coeffs: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", dict(self.coeffs))

    def value(self, stratum_id: str) -> int:
        return self.coeffs.get(stratum_id, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StratumConstructibleFunction):
            return NotImplemented
        mine = {k: v for k, v in self.coeffs.items() if v}
        its = {k: v for k, v in other.coeffs.items() if v}
        return mine == its

    def __hash__(self):
        return hash(frozenset((k, v) for k, v in self.coeffs.items() if v))


def indicator_of_space(census: StratifiedCensus) -> StratumConstructibleFunction:
    """The constant function 1 on the whole space, one object per census."""
    return census.solved.one


def weighted_sum(
    census: StratifiedCensus, alpha: StratumConstructibleFunction, entry: Callable, slot: Callable
) -> int:
    """The Euler integral of alpha against one per-stratum column: over the
    support of alpha, each coefficient times ``entry`` of its stratum, None
    where the census lacks it.  One InsufficientData names every such entry
    by ``slot`` of its stratum, in the order the census declares its strata."""
    total = 0
    missing = set()
    for sid, a in alpha.coeffs.items():
        v = entry(sid) if a else 0
        if v is None:
            missing.add(sid)
        else:
            total += a * v
    if missing:
        raise InsufficientData([slot(sid) for sid in census.poset.ids() if sid in missing])
    return total


def chi_global(census: StratifiedCensus, alpha: StratumConstructibleFunction) -> int:
    """Euler characteristic of the space weighted by alpha.

    Additivity of chi_c over the strata makes this a plain weighted sum of
    the per-stratum Euler characteristics.
    """
    census.solved.require_known(alpha)
    return weighted_sum(census, alpha, census.chi.get, lambda sid: f"chi.{sid}")


class SolvedCensus:
    """A census solved once, read through ``StratifiedCensus.solved``: the
    one object every invariant of the census reads.

    Rows and columns follow the (dim, id) linear extension ``order``.  The
    obstruction system M C = I, with M the eta-against-closures matrix,
    gives entry (i, j) of C as delta_ij plus a times entry (k, j) for each
    step (k, a) of row i of :attr:`rows`, a = link(i, k) - 1.  The closure
    column of stratum j, the obstruction of the closure of j, is column j
    of C on the down-set of j; the block is a principal one, so it is what
    re-solving the census of that closure would give.

    Each weight alpha gets one entry, keyed by ``id(alpha)``: its
    closure-basis coefficients, the values of :meth:`eta` computed so far,
    and :meth:`resolved`.  The weights the package passes around
    (:attr:`one`, the columns of :meth:`eu_function`) are one object each
    per census.  The entry keeps alpha, so its id is not reused; an equal
    but distinct function gets its own, equal, entry.

    :meth:`_solve` is the one back-substitution for one right-hand side:
    :meth:`column` solves a unit vector over one down-set, and
    :meth:`resolved` eta of a weight over the whole census.
    ``table.solve_rows`` solves all of C row by row for the printed table,
    each row packed into one integer.  Everything is computed on first
    use, after :meth:`require_links` has checked the links it reads: a
    column checks its block and raises the MissingLinkEntry that solving
    the restricted census would raise, and the readers of the whole space
    ask for every link.  It holds the census's links and not the census,
    which holds it.
    """

    def __init__(self, census: StratifiedCensus):
        poset = census.poset
        self.links: Mapping[tuple[str, str], int] = census.links
        self._ids = poset.ids()
        self.order: tuple[str, ...] = poset._order
        self.index: dict[str, int] = poset._index
        self.below: tuple[tuple[int, ...], ...] = poset._below
        self.above: tuple[tuple[int, ...], ...] = poset._above
        # id(alpha) -> [alpha, coefficients, eta by index, resolved or None]
        self._weights: dict[int, list] = {}
        self._eu_functions: dict[int, StratumConstructibleFunction] = {}

    @cached_property
    def one(self) -> StratumConstructibleFunction:
        """The constant function 1 on the whole space."""
        return StratumConstructibleFunction({i: 1 for i in self._ids})

    @cached_property
    def rows(self) -> list[tuple[list[tuple[int, int]], list[int]]]:
        """Row i: the steps (k, link(i, k) - 1) for each k above i with a
        link other than 1 (which puts 0 into the eta matrix), and the k
        above i without a link entry, both ascending in k."""
        order, links = self.order, self.links
        rows = []
        for at, up in zip(order, self.above):
            steps, absent = [], []
            for k in up:
                chi = links.get((at, order[k]))
                if chi is None:
                    absent.append(k)
                elif chi != 1:
                    steps.append((k, chi - 1))
            rows.append((steps, absent))
        return rows

    @cached_property
    def _absent(self) -> list[tuple[int, int]]:
        """Every absent link (i, k) of :attr:`rows`, in row-major order."""
        return [(i, k) for i, (_, absent) in enumerate(self.rows) for k in absent]

    def require_links(self, block: set[int] | None = None) -> None:
        """Raise for the first absent link, in row-major (dim, id) order,
        of the given closure block (a down-set of indices), or of the whole
        matrix."""
        for i, k in self._absent:
            if block is None or k in block:
                raise MissingLinkEntry(self.order[i], self.order[k])

    def require_known(self, alpha: StratumConstructibleFunction) -> None:
        """Raise for the first coefficient of alpha on a stratum the census
        does not have."""
        for k in alpha.coeffs:
            if k not in self.index:
                raise UnknownStratum(f"coefficient on unknown stratum {k!r}")

    def _weight(self, alpha: StratumConstructibleFunction) -> list:
        """Alpha's entry, made on first use once its strata are checked:
        the Moebius inversion of alpha, from the top of the (dim, id) order
        down, gives its closure-basis coefficients by index."""
        entry = self._weights.get(id(alpha))
        if entry is None:
            self.require_known(alpha)
            order, above = self.order, self.above
            coeffs = [0] * len(order)
            for j in reversed(range(len(order))):
                coeffs[j] = alpha.value(order[j]) - sum(coeffs[k] for k in above[j])
            entry = self._weights[id(alpha)] = [alpha, coeffs, {}, None]
        return entry

    def eta(self, alpha: StratumConstructibleFunction, at: str) -> int:
        """eta of alpha at a stratum, from the link row of ``at``.  It
        raises MissingLinkEntry for the highest absent link from ``at`` to
        a closure with a nonzero coefficient, the same one whenever it is
        needed; only values are remembered."""
        _, coeffs, values, _ = self._weight(alpha)
        i = self.index[at]
        value = values.get(i)
        if value is None:
            steps, absent = self.rows[i]
            for k in reversed(absent):
                if coeffs[k]:
                    raise MissingLinkEntry(at, self.order[k])
            value = values[i] = coeffs[i] - sum(a * coeffs[k] for k, a in steps)
        return value

    def _function(self, values: Mapping[int, int]) -> StratumConstructibleFunction:
        """The function with the given values by index, zero elsewhere."""
        return StratumConstructibleFunction({self.order[m]: v for m, v in values.items() if v})

    def _solve(self, b: Mapping[int, int], over: Sequence[int]) -> dict[int, int]:
        """Solve M x = b over ``over``, an ascending down-set of indices,
        from the top down: x_i is b_i plus a times x_k for each step (k, a)
        of row i.  Returns x summed over each stratum of ``over`` and its
        up-set, by index.  The caller has checked the block's links."""
        rows, above = self.rows, self.above
        x: dict[int, int] = {}
        for i in reversed(over):
            c = b.get(i, 0)
            for k, a in rows[i][0]:
                xk = x.get(k)
                if xk:
                    c += a * xk
            if c:
                x[i] = c
        return {m: x.get(m, 0) + sum(x.get(k, 0) for k in above[m]) for m in over}

    def column(self, j: int) -> dict[int, int]:
        """Values on open strata of the obstruction of the closure of
        ``order[j]``, keyed by index over its down-set in ascending order;
        zero off it.  It is solved alone over that down-set, so it costs
        the relations of the block, not the whole table."""
        down = self.below[j] + (j,)
        self.require_links(set(down))
        return self._solve({j: 1}, down)

    def resolved(self, alpha: StratumConstructibleFunction) -> StratumConstructibleFunction:
        """The sum over closures of eta of alpha times each closure's
        obstruction: eta back-substituted through the system.  Obstructions
        and eta are dual bases, so this is alpha again, computed through
        the links and so a check of the solver."""
        entry = self._weight(alpha)
        if entry[3] is None:
            self.require_links()
            order = self.order
            b = {i: self.eta(alpha, at) for i, at in enumerate(order)}
            entry[3] = self._function(self._solve(b, range(len(order))))
        return entry[3]

    def eu_function(self, closure_of: str) -> StratumConstructibleFunction:
        """The obstruction of the closure of one stratum, as a function,
        built once and shared (the obstruction of the space is a weight,
        keyed by this object); a column that raises is not stored."""
        j = self.index[closure_of]
        f = self._eu_functions.get(j)
        if f is None:
            f = self._eu_functions[j] = self._function(self.column(j))
        return f


def eta(census: StratifiedCensus, at: str, alpha: StratumConstructibleFunction) -> int:
    """Normal Morse datum pairing of alpha at a stratum.

    Computed by expanding alpha in the closure basis and contracting with the
    closure columns; linear in alpha by construction.
    """
    census.poset.stratum(at)
    return census.solved.eta(alpha, at)


def restrict_to_closure(census: StratifiedCensus, stratum_id: str) -> StratifiedCensus:
    """The census of the closure of one stratum.

    Keeps the down-set of the stratum, moves the regular-part flag onto it,
    and restricts chi and the link table, whose entries depend only on their
    strata.  The closure of a connected stratum is irreducible and the
    closure of the regular part has pure top dimension, so the result is
    declared equidimensional.  The package reads closures from
    ``census.solved`` instead; this explicit sub-census is the independent
    route the tests hold it against.
    """
    poset = census.poset
    poset.stratum(stratum_id)  # an unknown id raises here
    keep = [i for i in poset.ids() if i == stratum_id or (i, stratum_id) in poset.relations]
    keep_set = set(keep)
    strata = tuple(
        replace(poset.stratum(i), is_regular_part=(i == stratum_id)) for i in keep
    )
    relations = frozenset(p for p in poset.relations if keep_set.issuperset(p))
    return StratifiedCensus(
        name=f"{census.name}|closure({stratum_id})",
        poset=StratumPoset(strata, relations),
        links={p: v for p, v in census.links.items() if keep_set.issuperset(p)},
        equidimensional=True,
        chi={i: v for i, v in census.chi.items() if i in keep_set},
    )
