"""Euler calculus on finite simplicial complexes: weights, their integral,
pushforward.

A complex is a face-closed set of simplices whose vertices are opaque labels
in a total order.  A constructible function is an integer weight per open
simplex, and its integral against chi_c is the finite sum of each weight
times (-1)^dim.  The pushforward along a simplicial map is defined fiberwise
per open target simplex, and the projection formula (Fubini) then holds
exactly.  The randomized tests treat that as ground truth.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Mapping
from itertools import combinations

from .documents import read_json
from .errors import (
    CensusError,
    FaceClosureViolation,
    HostMismatch,
    InvalidMap,
    MemberNotInHost,
    SchemaError,
    formatting,
)
from .records import record

# Parse-time cap on simplex dimension; keeps adversarial JSON from blowing up
# the powerset walk in faces().
DIMENSION_CAP = 8


@record
class Simplex:
    """An abstract simplex: a strictly increasing tuple of vertex labels."""

    vertices: tuple[object, ...]

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
    def of(cls, *vertices: object) -> "Simplex":
        """Build a simplex from vertices in any order (duplicates are an error)."""
        try:
            return cls(tuple(sorted(vertices)))
        except TypeError:
            labels = ", ".join(sorted(map(repr, vertices)))
            raise ValueError(f"vertex labels are not comparable: {labels}") from None

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def faces(self) -> Iterator["Simplex"]:
        """All nonempty faces, the simplex itself included."""
        for k in range(1, len(self.vertices) + 1):
            for sub in combinations(self.vertices, k):
                yield Simplex(sub)

    def __iter__(self) -> Iterator[object]:
        return iter(self.vertices)

    def __repr__(self) -> str:
        return "<" + ",".join(map(repr, self.vertices)) + ">"


@record
class SimplicialComplex:
    """A finite set of simplices, expected to be closed under taking faces.

    The constructor stores exactly what it is given; :func:`validate` checks
    face closure and raises :class:`FaceClosureViolation` when it fails.
    """

    simplices: frozenset[Simplex]

    def __post_init__(self):
        object.__setattr__(self, "simplices", frozenset(self.simplices))

    @property
    def vertices(self) -> frozenset:
        return frozenset(v for s in self.simplices for v in s)

    def __contains__(self, s: Simplex) -> bool:
        return s in self.simplices


def _label_key(v: object) -> tuple:
    # integer and string labels may share a complex: integers come first
    return (isinstance(v, str), v)


def _in_order(simplices: Iterable[Simplex]) -> list[Simplex]:
    """Simplices by dimension, then by label: a total order free of the hash
    seed, so an error names the same simplex on every run."""
    return sorted(simplices, key=lambda s: (s.dim, [_label_key(v) for v in s.vertices]))


def validate(complex_: SimplicialComplex) -> None:
    """Check face closure; every face of a member must be a member."""
    have = complex_.simplices
    for s in _in_order(have):
        for f in s.faces():
            if f not in have:
                raise FaceClosureViolation(f"{s!r} is present but its face {f!r} is not")


class SimplicialConstructibleFunction:
    """Integer weights on the open simplices of a host complex.

    Missing simplices carry weight zero.
    """

    def __init__(self, host: SimplicialComplex, weights: Mapping[Simplex, int] | None = None):
        self.host = host
        w: dict[Simplex, int] = {}
        for s, v in (weights or {}).items():
            if s not in host:
                raise MemberNotInHost(f"{s!r} carries a weight but is not in the host")
            if v != 0:
                w[s] = int(v)
        self._weights = w

    def __call__(self, s: Simplex) -> int:
        return self._weights.get(s, 0)

    def items(self):
        return self._weights.items()


def integrate_all(f: SimplicialConstructibleFunction) -> int:
    """Integral of f against chi_c over its whole host: each weight counts
    with the sign (-1)^dim of its simplex."""
    return sum(-v if s.dim % 2 else v for s, v in f.items())


class SimplicialMap:
    """A simplicial map, stored as a total map on vertices.

    The vertex map must send every simplex of the source onto a simplex of
    the target (after collapsing repeated images and sorting).
    """

    def __init__(
        self,
        source: SimplicialComplex,
        target: SimplicialComplex,
        vertex_map: Mapping[object, object],
    ):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        for v in sorted(source.vertices, key=_label_key):
            if v not in self.vertex_map:
                raise InvalidMap(f"vertex {v!r} has no image")
        for s in _in_order(source.simplices):
            try:
                t = self.image(s)
            except ValueError as exc:
                raise InvalidMap(f"image of {s!r} is not a simplex: {exc}") from None
            if t not in target:
                raise InvalidMap(f"image {t!r} of {s!r} is not a simplex of the target")

    def image(self, s: Simplex) -> Simplex:
        return Simplex.of(*set(self.vertex_map[v] for v in s))


def pushforward(
    f: SimplicialMap, alpha: SimplicialConstructibleFunction
) -> SimplicialConstructibleFunction:
    """Fiberwise integration of alpha along f.

    The value on an open target simplex t is the chi_c-weighted sum of alpha
    over the open source simplices sitting exactly over t; the relative sign
    (-1)^(dim s - dim t) makes the fiber count the chi_c of the open fiber.
    """
    if alpha.host != f.source:
        raise HostMismatch("alpha does not live on the source of the map")
    acc: dict[Simplex, int] = {}
    for s in f.source.simplices:
        v = alpha(s)
        if not v:
            continue
        t = f.image(s)
        acc[t] = acc.get(t, 0) + v * (-1 if (s.dim - t.dim) % 2 else 1)
    return SimplicialConstructibleFunction(f.target, acc)


def check_fubini(f: SimplicialMap, alpha: SimplicialConstructibleFunction) -> tuple[int, int]:
    """Both sides of the projection formula: (integral of alpha,
    integral of its pushforward).  They agree exactly in this model."""
    lhs = integrate_all(alpha)
    rhs = integrate_all(pushforward(f, alpha))
    return lhs, rhs


# JSON input.  A complex is {"simplices": [[v, ...], ...]} with each
# vertex list strictly increasing; out-of-order input is an error, not
# something we quietly repair.

def _simplex_from_json(item: object, where: str) -> Simplex:
    if not isinstance(item, list) or not item:
        raise SchemaError(where, "expected a nonempty list of vertices")
    for v in item:
        if not isinstance(v, (int, str)) or isinstance(v, bool):
            raise SchemaError(where, f"vertex {v!r} is not an integer or string")
    if len(item) - 1 > DIMENSION_CAP:
        raise SchemaError(where, f"dimension {len(item) - 1} exceeds cap {DIMENSION_CAP}")
    try:
        return Simplex(tuple(item))
    except ValueError as exc:
        raise SchemaError(where, str(exc)) from exc


def complex_from_json(obj: object, path: str = "$") -> SimplicialComplex:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if "simplices" not in obj:
        raise SchemaError(path, "missing key 'simplices'")
    raw = obj["simplices"]
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.simplices", "expected a list")
    return SimplicialComplex(
        frozenset(_simplex_from_json(item, f"{path}.simplices[{i}]") for i, item in enumerate(raw))
    )


def load_bundle(path) -> tuple[SimplicialMap, SimplicialConstructibleFunction]:
    """The map and the weight of a JSON map bundle (``complex_src``,
    ``complex_dst``, ``vertex_map``, ``weights``), with every schema or
    structural error reported as a SchemaError carrying its JSON path."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise SchemaError("$", "expected an object")
    for key in ("complex_src", "complex_dst", "vertex_map", "weights"):
        if key not in obj:
            raise SchemaError(f"$.{key}", "missing")
    src = complex_from_json(obj["complex_src"], "$.complex_src")
    dst = complex_from_json(obj["complex_dst"], "$.complex_dst")
    for c, where in ((src, "$.complex_src"), (dst, "$.complex_dst")):
        try:
            validate(c)
        except CensusError as exc:
            raise SchemaError(where, str(exc)) from exc

    raw_map = obj["vertex_map"]
    if not isinstance(raw_map, dict):
        raise SchemaError("$.vertex_map", "expected an object")
    # a key is a source vertex's own spelling; a string vertex wins over the
    # integer it spells
    vertex_of = {str(v): v for v in src.vertices if isinstance(v, int)}
    vertex_of.update((v, v) for v in src.vertices if isinstance(v, str))
    vmap = {}
    for k, tgt in raw_map.items():
        if k not in vertex_of:
            raise SchemaError(f"$.vertex_map.{k}", "not a vertex of the source")
        if not isinstance(tgt, (int, str)) or isinstance(tgt, bool):
            raise SchemaError(f"$.vertex_map.{k}", f"image {tgt!r} is not an integer or string")
        vmap[vertex_of[k]] = tgt

    raw_weights = obj["weights"]
    if not isinstance(raw_weights, list):
        raise SchemaError("$.weights", "expected a list of [simplex, weight] pairs")
    weights = {}
    for i, pair in enumerate(raw_weights):
        where = f"$.weights[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(where, "expected [simplex, weight]")
        simplex = _simplex_from_json(pair[0], f"{where}[0]")
        if not isinstance(pair[1], int) or isinstance(pair[1], bool):
            raise SchemaError(f"{where}[1]", "weight must be an integer")
        if simplex not in src:
            raise SchemaError(f"{where}[0]", f"{simplex!r} carries a weight but is not in the host")
        weights[simplex] = pair[1]

    try:
        fmap = SimplicialMap(src, dst, vmap)
    except CensusError as exc:
        raise SchemaError("$", str(exc)) from exc
    return fmap, SimplicialConstructibleFunction(src, weights)


def cmd_fubini(args) -> int:
    """The ``fubini`` subcommand: both sides of the projection formula on a
    map bundle, and whether they agree."""
    lhs, rhs = check_fubini(*load_bundle(args.bundle))
    ok = lhs == rhs
    with formatting():
        text = f"lhs = {lhs}\nrhs = {rhs}\n"
    sys.stdout.write(text + ("OK\n" if ok else "FAIL\n"))
    return 0 if ok else 1
