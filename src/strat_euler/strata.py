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
the eta-against-closures matrix is upper unitriangular, so one row-wise
back-substitution from the top of the order solves it whole, each row
sparse over its stratum's up-set.  Its restriction to the closure of a
stratum is a principal block, so the obstruction column of every closure
is read from those rows, never from a re-solved sub-census.
:func:`restrict_to_closure` builds the sub-census explicitly and stays as
the independent route the tests compare against.
"""

from __future__ import annotations

import copy
from functools import cached_property
from typing import Iterable, Mapping

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


def _transitive_closure(ids: list[str], pairs: set[tuple[str, str]]) -> dict[str, set[str]]:
    # each id -> the ids strictly below it, through any chain of pairs
    below: dict[str, set[str]] = {i: set() for i in ids}
    position = {sid: k for k, sid in enumerate(ids)}
    forward = True
    for a, b in pairs:
        below[b].add(a)
        if position[a] >= position[b]:
            forward = False
    if forward:
        # as every valid order does in (dim, id) order: each down-set is
        # closed before any stratum above it reads it, so one pass closes all
        for b in ids:
            extra = set()
            for a in below[b]:
                extra |= below[a]
            below[b] |= extra
        return below
    # otherwise iterate to a fixpoint, so cycle and dimension errors name
    # what the full closure holds
    changed = True
    while changed:
        changed = False
        for b in ids:
            extra = set()
            for a in below[b]:
                extra |= below[a]
            if not extra <= below[b]:
                below[b] |= extra
                changed = True
    return below


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
        closed = _transitive_closure(list(order), set(self.relations))
        for sid in order:
            if sid in closed[sid]:
                raise ValueError(f"order relation has a cycle through {sid!r}")
        below = tuple(tuple(sorted(index[a] for a in closed[b])) for b in order)
        above: list[list[int]] = [[] for _ in order]
        for k, down in enumerate(below):
            for i in down:
                above[i].append(k)
        dims = [by_id[sid].dim for sid in order]
        for i, up in enumerate(above):
            for k in up:
                if dims[i] >= dims[k]:
                    a, b = order[i], order[k]
                    raise ValueError(
                        f"frontier order must raise dimension: {a!r} (dim {dims[i]}) "
                        f"< {b!r} (dim {dims[k]})"
                    )
        object.__setattr__(
            self, "relations", frozenset((a, b) for b in order for a in closed[b])
        )
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_below", below)
        object.__setattr__(self, "_above", tuple(tuple(x) for x in above))

    def with_chi(self, stratum_id: str, chi: int | None) -> "StratumPoset":
        """The same poset with one stratum's Euler characteristic replaced.

        chi enters neither the order nor its checks, so the closure and the
        index data are shared instead of rebuilt."""
        s = replace(self.stratum(stratum_id), chi=chi)
        new = copy.copy(self)
        object.__setattr__(
            new, "strata", tuple(s if t.id == stratum_id else t for t in self.strata)
        )
        object.__setattr__(new, "_by_id", {**self._by_id, stratum_id: s})
        return new

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

    def down_set(self, stratum_id: str) -> list[str]:
        """Ids of strata in the closure of the given one, itself included."""
        return [i for i in self.ids() if i == stratum_id or self.lt(i, stratum_id)]

    def maximal_ids(self) -> list[str]:
        return [i for i in self.ids() if not self._above[self._index[i]]]

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

    def has(self, lower: str, upper: str) -> bool:
        return (lower, upper) in self.entries

    def get(self, lower: str, upper: str) -> int:
        try:
            return self.entries[(lower, upper)]
        except KeyError:
            raise MissingLinkEntry(lower, upper) from None

    def restricted(self, keep: Iterable[str]) -> "LinkTable":
        keep = set(keep)
        return LinkTable({p: v for p, v in self.entries.items() if p[0] in keep and p[1] in keep})


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
        for (a, b) in self.links.entries:
            if not poset.lt(a, b):
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
        new object and gets a new view, so nothing solved survives a change."""
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
    """The constant function 1 on the whole space."""
    return StratumConstructibleFunction({i: 1 for i in census.poset.ids()})


def _check_alpha(census: StratifiedCensus, alpha: StratumConstructibleFunction) -> None:
    known = set(census.poset.ids())
    for k in alpha.coeffs:
        if k not in known:
            raise UnknownStratum(f"coefficient on unknown stratum {k!r}")


def chi_global(census: StratifiedCensus, alpha: StratumConstructibleFunction) -> int:
    """Euler characteristic of the space weighted by alpha.

    Additivity of chi_c over the strata makes this a plain weighted sum of
    the per-stratum Euler characteristics.
    """
    _check_alpha(census, alpha)
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


def _eta_entry(census: StratifiedCensus, at: str, closure_of: str) -> int:
    # eta of the closure indicator 1_{cl(V_j)} evaluated at the stratum `at`
    if at == closure_of:
        return 1
    if census.poset.lt(at, closure_of):
        return 1 - census.links.get(at, closure_of)
    return 0


class SolvedWeight:
    """One weight alpha on a solved census: its closure-basis coefficients,
    and eta of alpha at each stratum, each computed on first use."""

    def __init__(self, solved: "SolvedCensus", alpha: StratumConstructibleFunction):
        self._solved = solved
        order, above = solved.order, solved.above
        coeffs = [0] * len(order)
        # Moebius inversion, from the top of the (dim, id) order down
        for j in reversed(range(len(order))):
            coeffs[j] = alpha.value(order[j]) - sum(coeffs[k] for k in above[j])
        self._coeffs = coeffs
        self._eta: dict[int, int] = {}

    def closure_coefficients(self) -> dict[str, int]:
        order = self._solved.order
        return {order[j]: self._coeffs[j] for j in reversed(range(len(order)))}

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


class SolvedCensus:
    """A census solved once, read through ``StratifiedCensus.solved``.

    Rows and columns follow the (dim, id) linear extension ``order``.  The
    obstruction system M C = I, with M the eta-against-closures matrix, is
    back-substituted row by row from the top of the order: row i of C is
    e_i plus (link - 1) times row k for each k strictly above i, so it is
    sparse over the up-set of i.  An absent link is skipped, not raised:
    the term it would contribute reaches only the columns whose closure
    block contains that pair, and those columns are exactly the ones
    :meth:`column` refuses.  The closure column of stratum j, the
    obstruction of the closure of j, is column j of C on the down-set of j;
    the block is a principal one, so it is what re-solving the census of
    that closure would give.  Everything is computed on first use: a column
    first scans its block in row-major order and raises the MissingLinkEntry
    that solving the restricted census would raise, and the full table
    needs every block.
    """

    def __init__(self, census: StratifiedCensus):
        poset = census.poset
        self.census = census
        self.order: tuple[str, ...] = poset._order
        self.index: dict[str, int] = poset._index
        self.below: tuple[tuple[int, ...], ...] = poset._below
        self.above: tuple[tuple[int, ...], ...] = poset._above
        self._weights: dict[frozenset, SolvedWeight] = {}
        self._last_weight: tuple[object, SolvedWeight | None] = (None, None)
        self._eu_functions: dict[int, StratumConstructibleFunction] = {}
        # the EulerObstructionTable, filled in by obstruction.solve_bdk
        self.table = None

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

    @cached_property
    def rows(self) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
        """Coefficient rows and value rows of the whole table, row m keyed
        by index over m and its up-set.  Coefficient entry [i][j] is the
        closure-basis coefficient of closure i in the obstruction of the
        closure of j; value entry [m][j] is that obstruction at points of m,
        the sum of the coefficient rows of m and of every stratum above m.
        Only columns whose closure block has every link are meaningful."""
        order, above = self.order, self.above
        links = self.census.links.entries
        coeffs: list[dict[int, int]] = [{}] * len(order)
        for i in reversed(range(len(order))):
            row = dict.fromkeys(above[i], 0)
            row[i] = 1
            at = order[i]
            for k in above[i]:
                chi = links.get((at, order[k]))
                # absent links are skipped (see the class docstring), and a
                # link of chi 1 puts 0 into the eta matrix
                if chi is None or chi == 1:
                    continue
                a = chi - 1
                for j, c in coeffs[k].items():
                    row[j] += a * c
            coeffs[i] = row
        values = []
        for m in range(len(order)):
            row = dict(coeffs[m])
            for i in above[m]:
                for j, c in coeffs[i].items():
                    row[j] += c
            values.append(row)
        return coeffs, values

    def require_links(self, block: set[int] | None = None) -> None:
        """Raise for the first absent link, in row-major (dim, id) order, of
        the given closure block (a down-set of indices), or of the whole
        matrix."""
        for i, k in self._missing:
            if block is None or k in block:
                raise MissingLinkEntry(self.order[i], self.order[k])

    def weight(self, alpha: StratumConstructibleFunction) -> SolvedWeight:
        """The solved weight of alpha, shared by every equal function."""
        # an identity row passes one weight object once per stratum
        last, w = self._last_weight
        if alpha is last:
            return w
        for k in alpha.coeffs:
            if k not in self.index:
                raise UnknownStratum(f"coefficient on unknown stratum {k!r}")
        key = frozenset((k, v) for k, v in alpha.coeffs.items() if v)
        w = self._weights.get(key)
        if w is None:
            w = self._weights[key] = SolvedWeight(self, alpha)
        self._last_weight = (alpha, w)
        return w

    def column(self, j: int) -> dict[int, int]:
        """Values on open strata of the obstruction of the closure of
        ``order[j]``, keyed by index over its down-set in ascending order;
        zero off it."""
        down = self.below[j] + (j,)
        self.require_links(set(down))
        values = self.rows[1]
        return {m: values[m][j] for m in down}

    def eu_function(self, closure_of: str) -> StratumConstructibleFunction:
        """The obstruction of the closure of one stratum, as a function.
        Identity rows ask for every closure once per row, so each function
        is built once and shared; a column that raises is not stored."""
        j = self.index[closure_of]
        f = self._eu_functions.get(j)
        if f is None:
            values = self.column(j)
            f = self._eu_functions[j] = StratumConstructibleFunction(
                {self.order[m]: v for m, v in values.items() if v}
            )
        return f


@record
class LabeledMatrix:
    """A square integer matrix with stratum ids labeling rows and columns."""

    labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def entry(self, row_label: str, col_label: str) -> int:
        i = self.labels.index(row_label)
        j = self.labels.index(col_label)
        return self.rows[i][j]

    def pretty(self) -> str:
        width = max(
            [len(l) for l in self.labels] + [len(str(v)) for r in self.rows for v in r]
        )
        head = " " * (width + 2) + " ".join(l.rjust(width) for l in self.labels)
        lines = [head]
        for label, row in zip(self.labels, self.rows):
            lines.append(label.rjust(width) + "  " + " ".join(str(v).rjust(width) for v in row))
        return "\n".join(lines)


def eta_closure_matrix(census: StratifiedCensus) -> LabeledMatrix:
    """The matrix of eta values against closure indicators.

    Rows are strata, columns are closures, both in (dim, id) order.  The
    matrix is upper triangular with unit diagonal because eta against a
    closure vanishes off the closure and is 1 on the open top stratum.
    """
    order = census.poset.linear_extension()
    rows = tuple(
        tuple(_eta_entry(census, at, cl) for cl in order) for at in order
    )
    return LabeledMatrix(tuple(order), rows)


def closure_coefficients(
    census: StratifiedCensus, alpha: StratumConstructibleFunction
) -> dict[str, int]:
    """Coefficients of alpha in the basis of closure indicators.

    Inverts ``1_{cl(V_k)} = sum of 1_{V_j} over j <= k`` by running through
    strata in decreasing (dim, id) order, a Moebius inversion on the poset.
    """
    return census.solved.weight(alpha).closure_coefficients()


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
    keep = poset.down_set(stratum_id)
    keep_set = set(keep)
    strata = tuple(
        replace(poset.stratum(i), is_regular_part=(i == stratum_id)) for i in keep
    )
    relations = frozenset(
        (a, b) for (a, b) in poset.relations if a in keep_set and b in keep_set
    )
    return StratifiedCensus(
        name=f"{census.name}|closure({stratum_id})",
        poset=StratumPoset(strata, relations),
        links=census.links.restricted(keep_set),
        equidimensional=True,
    )
