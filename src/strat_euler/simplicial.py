"""Finite simplicial complexes with compactly-supported Euler characteristics.

This layer exists to provide a brute-force oracle for the sheaf-free Euler
calculus in :mod:`strat_euler.euler_calculus`.  Everything is finite and
combinatorial: a complex is a face-closed set of simplices, a locally closed
union of open simplices is just a subset of them, and chi_c counts open cells
with the sign (-1)^dim.  No geometry is stored; vertices are opaque labels
that only need a consistent total order.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Iterable, Iterator

from .errors import FaceClosureViolation, MemberNotInHost, SchemaError
from .records import record

# Parse-time cap on simplex dimension; keeps adversarial JSON from blowing up
# the powerset walk in faces().
DIMENSION_CAP = 8


@record
class Simplex:
    """An abstract simplex: a strictly increasing tuple of vertex labels."""

    vertices: tuple[Any, ...]

    def __post_init__(self):
        vs = tuple(self.vertices)
        object.__setattr__(self, "vertices", vs)
        if not vs:
            raise ValueError("a simplex needs at least one vertex")
        for a, b in zip(vs, vs[1:]):
            try:
                ok = a < b
            except TypeError as exc:
                raise ValueError(f"vertex labels are not comparable: {a!r}, {b!r}") from exc
            if not ok:
                raise ValueError(f"vertices must be strictly increasing, got {vs!r}")

    @classmethod
    def of(cls, *vertices: Any) -> "Simplex":
        """Build a simplex from vertices in any order (duplicates are an error)."""
        return cls(tuple(sorted(vertices)))

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def faces(self) -> Iterator["Simplex"]:
        """All nonempty faces, the simplex itself included."""
        for k in range(1, len(self.vertices) + 1):
            for sub in combinations(self.vertices, k):
                yield Simplex(sub)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return "<" + ",".join(map(repr, self.vertices)) + ">"


@record
class SimplicialComplex:
    """A finite set of simplices, expected to be closed under taking faces.

    The constructor stores exactly what it is given; :func:`validate` checks
    face closure and raises :class:`FaceClosureViolation` when it fails.  Use
    :meth:`closed` to face-close a generating set.
    """

    simplices: frozenset[Simplex]

    def __post_init__(self):
        object.__setattr__(self, "simplices", frozenset(self.simplices))

    @classmethod
    def closed(cls, generators: Iterable[Simplex]) -> "SimplicialComplex":
        """The smallest complex containing the given simplices."""
        out: set[Simplex] = set()
        for g in generators:
            out.update(g.faces())
        return cls(frozenset(out))

    @property
    def vertices(self) -> frozenset:
        return frozenset(v for s in self.simplices for v in s)

    def __contains__(self, s: Simplex) -> bool:
        return s in self.simplices

    def __len__(self) -> int:
        return len(self.simplices)


def validate(complex_: SimplicialComplex) -> None:
    """Check face closure; every face of a member must be a member."""
    have = complex_.simplices
    for s in have:
        for f in s.faces():
            if f not in have:
                raise FaceClosureViolation(f"{s!r} is present but its face {f!r} is not")


@record
class SimplexSubset:
    """A set of open simplices of a host complex, not required to be face-closed.

    Models a locally closed (or merely constructible) union of open cells.
    Membership in the host is enforced here, at construction.
    """

    host: SimplicialComplex
    members: frozenset[Simplex]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for m in self.members:
            if m not in self.host:
                raise MemberNotInHost(f"{m!r} is not a simplex of the host complex")

    def __contains__(self, s: Simplex) -> bool:
        return s in self.members

    def __len__(self) -> int:
        return len(self.members)


def whole(complex_: SimplicialComplex) -> SimplexSubset:
    """The subset consisting of every open simplex of the complex."""
    return SimplexSubset(complex_, complex_.simplices)


def chi_c(subset: SimplexSubset) -> int:
    """Compactly-supported Euler characteristic: sum of (-1)^dim over members.

    Exact on constructible sets and additive over disjoint unions, which is
    the property every oracle in this package leans on.
    """
    return sum(-1 if s.dim % 2 else 1 for s in subset.members)


def chi(complex_: SimplicialComplex) -> int:
    """Euler characteristic of a finite complex (chi = chi_c here)."""
    return chi_c(whole(complex_))


# JSON input.  A complex is {"simplices": [[v, ...], ...]} with each
# vertex list strictly increasing; out-of-order input is an error, not
# something we quietly repair.

def complex_from_json(obj: Any, path: str = "$") -> SimplicialComplex:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if "simplices" not in obj:
        raise SchemaError(path, "missing key 'simplices'")
    raw = obj["simplices"]
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.simplices", "expected a list")
    simplices = []
    for i, item in enumerate(raw):
        where = f"{path}.simplices[{i}]"
        if not isinstance(item, list) or not item:
            raise SchemaError(where, "expected a nonempty list of vertices")
        for v in item:
            if not isinstance(v, (int, str)) or isinstance(v, bool):
                raise SchemaError(where, f"vertex {v!r} is not an integer or string")
        if len(item) - 1 > DIMENSION_CAP:
            raise SchemaError(where, f"dimension {len(item) - 1} exceeds cap {DIMENSION_CAP}")
        try:
            simplices.append(Simplex(tuple(item)))
        except ValueError as exc:
            raise SchemaError(where, str(exc)) from exc
    return SimplicialComplex(frozenset(simplices))

