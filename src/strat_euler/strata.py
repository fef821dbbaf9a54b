"""Stratified censuses: the combinatorial skeleton of a singular space.

A census records what an exact stratified computation actually consumes:
the poset of strata with complex dimensions and Euler characteristics, and
the Euler characteristics of complex links of one stratum inside the closure
of another.  No equations, no embeddings.  Two spaces with the same census
are indistinguishable to every operation in this package, which is exactly
the point: the identities being verified are census-level facts.

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

Each census is solved once.  ``census.solved`` is a :class:`SolvedCensus`:
the eta-against-closures matrix is upper unitriangular, and its restriction
to the closure of a stratum is a principal block.  One back-substitution
serves every vector solve: the obstruction column of one closure, over
that closure's down-set, and a weight read back through the solver
(:attr:`SolvedWeight.resolved`), over the whole census, which is what the
structural rows of ``check`` compare against.  Only the printed
``eu-table`` reads the whole table, which the ``table`` module solves and
lays out.  :func:`restrict_to_closure` builds the sub-census of a closure
explicitly and stays as the independent route the tests compare against.

Code that only some calls run lives with them: the diagnosis of a refused
order in ``order_errors``, the whole table in ``table``, and the chi edit
of the slot solver in ``slots``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
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

    ``dim`` is the complex dimension.  ``chi`` is the topological Euler
    characteristic of the open stratum (equal to its compactly supported one;
    the strata are complex).  ``chi=None`` marks a value the census does not
    know yet; operations that need it say so instead of guessing.
    """

    id: str
    dim: int
    chi: int | None
    is_regular_part: bool = False


@record
class StratumPoset:
    """Strata plus the strict frontier order, closed under transitivity.

    The constructor accepts any generating set of order pairs and closes it.
    Cycles and order pairs that do not strictly increase dimension are
    rejected, as are duplicate or unknown ids.  Each error names the first
    offender in (dim, id) order, so its text never depends on set order.

    ``slots.with_chi`` copies a poset with one stratum's chi changed: it
    rewrites ``strata`` and ``_by_id`` and shares the other fields, which
    chi does not enter.  A field added here that reads chi has to be
    rewritten there too.
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
class LinkTable:
    """Euler characteristics of complex links: (lower, upper) -> chi.

    The entry at ``(i, j)`` is the chi of the link of the stratum ``i``
    inside the closure of ``j``.  It depends only on that pair, which is what
    makes restriction to a closed union a sub-table and nothing more.
    """

    entries: Mapping[tuple[str, str], int]

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))

    def get(self, lower: str, upper: str) -> int:
        try:
            return self.entries[(lower, upper)]
        except KeyError:
            raise MissingLinkEntry(lower, upper) from None


@record
class StratifiedCensus:
    """A named stratified space: poset, link data, equidimensionality flag."""

    name: str
    poset: StratumPoset
    links: LinkTable
    equidimensional: bool = False

    def validate(self) -> None:
        """Reject structurally inconsistent censuses.

        Checks, beyond what the poset constructor already enforced: link keys
        are genuine strict order pairs; exactly one stratum carries the
        regular-part flag and it is maximal; under the equidimensionality
        flag the regular part is the unique maximal stratum of top dimension.
        """
        poset = self.poset
        relations = poset.relations
        for (a, b) in self.links.entries:
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
            if top.dim != max(s.dim for s in poset.strata):
                raise ValueError("the regular part must have top dimension")

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
        other than ``slots.with_chi``."""
        return SolvedCensus(self)

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


def chi_global(census: StratifiedCensus, alpha: StratumConstructibleFunction) -> int:
    """Euler characteristic of the space weighted by alpha.

    Additivity of chi_c over the strata makes this a plain weighted sum of
    the per-stratum Euler characteristics.
    """
    census.solved.require_known(alpha)
    missing = []
    total = 0
    for s in census.poset.strata:
        a = alpha.value(s.id)
        if a == 0:
            continue
        if s.chi is None:
            missing.append(f"chi.{s.id}")
            continue
        total += a * s.chi
    if missing:
        raise InsufficientData(missing)
    return total


class SolvedWeight:
    """One weight alpha on a solved census: its closure-basis coefficients,
    eta of alpha at each stratum, and alpha read back through the solver,
    each computed on first use."""

    def __init__(self, solved: "SolvedCensus", alpha: StratumConstructibleFunction):
        self._solved = solved
        order, above = solved.order, solved.above
        coeffs = [0] * len(order)
        # Moebius inversion, from the top of the (dim, id) order down
        for j in reversed(range(len(order))):
            coeffs[j] = alpha.value(order[j]) - sum(coeffs[k] for k in above[j])
        self._coeffs = coeffs
        self._eta: dict[int, int] = {}

    def eta(self, at: str) -> int:
        """eta of alpha at a stratum.  Reads the links from ``at`` to the
        closures with a nonzero coefficient, in decreasing (dim, id) order,
        so an absent link raises the same MissingLinkEntry whenever it is
        needed; only values are remembered."""
        solved = self._solved
        i = solved.index[at]
        value = self._eta.get(i)
        if value is None:
            order, links, coeffs = solved.order, solved.census.links, self._coeffs
            value = coeffs[i]
            for k in reversed(solved.above[i]):
                if coeffs[k]:
                    value += coeffs[k] * (1 - links.get(at, order[k]))
            self._eta[i] = value
        return value

    @cached_property
    def resolved(self) -> StratumConstructibleFunction:
        """The sum over closures of eta of alpha times each closure's
        obstruction: eta back-substituted through the system.  Obstructions
        and eta are dual bases, so this is alpha again, computed through
        the links and so a check of the solver."""
        solved = self._solved
        solved.require_links()
        order = solved.order
        values = solved._solve(
            {i: self.eta(at) for i, at in enumerate(order)}, range(len(order))
        )
        return StratumConstructibleFunction({order[m]: v for m, v in values.items() if v})


class SolvedCensus:
    """A census solved once, read through ``StratifiedCensus.solved``.

    Rows and columns follow the (dim, id) linear extension ``order``.  The
    obstruction system M C = I, with M the eta-against-closures matrix,
    gives entry (i, j) of C as delta_ij plus (link(i, k) - 1) times entry
    (k, j) for each k strictly above i.  The closure column of stratum j,
    the obstruction of the closure of j, is column j of C on the down-set
    of j; the block is a principal one, so it is what re-solving the census
    of that closure would give.

    :meth:`_solve` is the one back-substitution for one right-hand side:
    :meth:`column` solves a unit vector over one down-set, and
    :attr:`SolvedWeight.resolved` eta of a weight over the whole census.
    ``table.solve_rows`` solves all of C row by row for the printed table,
    each row packed into one integer.
    Everything is computed on first use, after the links it reads are
    checked: a column scans its block in row-major order and raises the
    MissingLinkEntry that solving the restricted census would raise, and
    the readers of the whole space ask for every link through
    :meth:`require_links`.
    """

    def __init__(self, census: StratifiedCensus):
        poset = census.poset
        self.census = census
        self.order: tuple[str, ...] = poset._order
        self.index: dict[str, int] = poset._index
        self.below: tuple[tuple[int, ...], ...] = poset._below
        self.above: tuple[tuple[int, ...], ...] = poset._above
        self._weights: dict[int, tuple[StratumConstructibleFunction, SolvedWeight]] = {}
        self._eu_functions: dict[int, StratumConstructibleFunction] = {}

    @cached_property
    def one(self) -> StratumConstructibleFunction:
        """The constant function 1 on the whole space."""
        return StratumConstructibleFunction({i: 1 for i in self.census.poset.ids()})

    @cached_property
    def _missing(self) -> tuple[tuple[int, int], ...]:
        # strict order pairs (i, k) without a link entry, in row-major order
        order, links = self.order, self.census.links.entries
        return tuple(
            (i, k)
            for i in range(len(order))
            for k in self.above[i]
            if (order[i], order[k]) not in links
        )

    def require_links(self, block: set[int] | None = None) -> None:
        """Raise for the first absent link, in row-major (dim, id) order, of
        the given closure block (a down-set of indices), or of the whole
        matrix."""
        for i, k in self._missing:
            if block is None or k in block:
                raise MissingLinkEntry(self.order[i], self.order[k])

    def require_known(self, alpha: StratumConstructibleFunction) -> None:
        """Raise for the first coefficient of alpha on a stratum the census
        does not have."""
        for k in alpha.coeffs:
            if k not in self.index:
                raise UnknownStratum(f"coefficient on unknown stratum {k!r}")

    def weight(self, alpha: StratumConstructibleFunction) -> SolvedWeight:
        """The solved weight of alpha, keyed by ``id(alpha)``: the weights
        the package passes around (:attr:`one`, the columns of
        :meth:`eu_function`) are one object each per census.  The entry
        keeps alpha, so its id is not reused; an equal but distinct function
        gets its own, equal, weight.  Alpha's strata are checked once."""
        hit = self._weights.get(id(alpha))
        if hit is None:
            self.require_known(alpha)
            hit = self._weights[id(alpha)] = (alpha, SolvedWeight(self, alpha))
        return hit[1]

    def _solve(self, b: Mapping[int, int], over: Sequence[int]) -> dict[int, int]:
        """Solve M x = b over ``over``, an ascending down-set of indices,
        from the top down: x_i is b_i plus (link(i, k) - 1) times x_k for
        each k above i.  Returns x summed over each stratum of ``over`` and
        its up-set, by index.  The caller has checked the block's links."""
        order, above = self.order, self.above
        links = self.census.links.entries
        x: dict[int, int] = {}
        for i in reversed(over):
            at = order[i]
            c = b.get(i, 0)
            for k in above[i]:
                xk = x.get(k)
                if xk:
                    c += (links[at, order[k]] - 1) * xk
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

    def eu_function(self, closure_of: str) -> StratumConstructibleFunction:
        """The obstruction of the closure of one stratum, as a function,
        built once and shared (the obstruction of the space is a weight,
        keyed by this object); a column that raises is not stored."""
        j = self.index[closure_of]
        f = self._eu_functions.get(j)
        if f is None:
            values = self.column(j)
            f = self._eu_functions[j] = StratumConstructibleFunction(
                {self.order[m]: v for m, v in values.items() if v}
            )
        return f


def eta(census: StratifiedCensus, at: str, alpha: StratumConstructibleFunction) -> int:
    """Normal Morse datum pairing of alpha at a stratum.

    Computed by expanding alpha in the closure basis and contracting with the
    closure columns; linear in alpha by construction.
    """
    census.poset.stratum(at)
    return census.solved.weight(alpha).eta(at)


def restrict_to_closure(census: StratifiedCensus, stratum_id: str) -> StratifiedCensus:
    """The census of the closure of one stratum.

    Keeps the down-set of the stratum, moves the regular-part flag onto it,
    and restricts the link table, whose entries depend only on their pair of
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
        links=LinkTable({p: v for p, v in census.links.entries.items() if keep_set.issuperset(p)}),
        equidimensional=True,
    )
