"""Euler calculus on simplicial complexes: weights, integration, pushforward.

A constructible function here is an integer weight per open simplex.  Its
integral against chi_c is a finite signed sum, so every identity in this
module is exact arithmetic. The pushforward along a simplicial map is defined
fiberwise per open target simplex, and the projection formula (Fubini) then
holds on the nose, not just up to homotopy.  The randomized test suite treats
that as the ground truth the stratified layer must reproduce.
"""

from __future__ import annotations

from typing import Any, Mapping

from .documents import read_json
from .errors import CensusError, HostMismatch, InvalidMap, MemberNotInHost, SchemaError
from .simplicial import (
    Simplex, SimplicialComplex, SimplexSubset, complex_from_json, validate, whole
)


class SimplicialConstructibleFunction:
    """Integer weights on the open simplices of a host complex.

    Missing simplices carry weight zero.  Instances compare equal when their
    hosts agree and their nonzero weights agree.
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialConstructibleFunction):
            return NotImplemented
        return self.host == other.host and self._weights == other._weights

    def __hash__(self):
        return hash((self.host, frozenset(self._weights.items())))

    def __repr__(self) -> str:
        return f"SimplicialConstructibleFunction({len(self._weights)} nonzero weights)"


def integrate(f: SimplicialConstructibleFunction, region: SimplexSubset) -> int:
    """Integral of f against chi_c over a constructible region of its host."""
    if region.host != f.host:
        raise HostMismatch("region lives on a different host complex")
    total = 0
    for s in region.members:
        v = f(s)
        if v:
            total += v * (-1 if s.dim % 2 else 1)
    return total


def integrate_all(f: SimplicialConstructibleFunction) -> int:
    return integrate(f, whole(f.host))


class SimplicialMap:
    """A simplicial map, stored as a total map on vertices.

    The vertex map must send every simplex of the source onto a simplex of
    the target (after collapsing repeated images and sorting).
    """

    def __init__(
        self,
        source: SimplicialComplex,
        target: SimplicialComplex,
        vertex_map: Mapping[Any, Any],
    ):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        for v in source.vertices:
            if v not in self.vertex_map:
                raise InvalidMap(f"vertex {v!r} has no image")
        for s in source.simplices:
            t = self.image(s)
            if t not in target:
                raise InvalidMap(f"image {t!r} of {s!r} is not a simplex of the target")

    def image(self, s: Simplex) -> Simplex:
        return Simplex.of(*set(self.vertex_map[v] for v in s))

    def fiber(self, t: Simplex) -> SimplexSubset:
        """Open simplices of the source mapping onto exactly the open simplex t."""
        members = frozenset(s for s in self.source.simplices if self.image(s) == t)
        return SimplexSubset(self.source, members)


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


def random_weighted_map(rng) -> tuple[SimplicialMap, SimplicialConstructibleFunction]:
    """A random simplicial map with random integer weights on its source,
    drawn from ``rng`` (a ``random.Random``) for randomized Fubini sweeps.

    The source is the closure of one to four simplices on two to eight
    vertices, kept to at most 30 simplices; vertices map into four target
    vertices and the target is the image; weights lie in -5..5.
    """
    n_vertices = rng.randint(2, 8)
    generators = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, min(4, n_vertices))
        generators.append(Simplex.of(*rng.sample(range(n_vertices), size)))
    src = SimplicialComplex.closed(generators)
    # keep sources small; drop generators until under the size cap
    while len(src.simplices) > 30:
        generators.pop()
        src = SimplicialComplex.closed(generators)
    mapping = {v: rng.randint(0, 3) for v in sorted(src.vertices)}
    dst = SimplicialComplex.closed(
        Simplex.of(*{mapping[v] for v in s}) for s in src.simplices
    )
    weights = SimplicialConstructibleFunction(
        src, {s: rng.randint(-5, 5) for s in src.simplices}
    )
    return SimplicialMap(src, dst, mapping), weights


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
    vertices = src.vertices
    vmap = {}
    for k, tgt in raw_map.items():
        if k in vertices:
            v = k
        else:
            try:
                v = int(k)
            except ValueError:
                raise SchemaError(f"$.vertex_map.{k}", "not a vertex of the source") from None
            if v not in vertices:
                raise SchemaError(f"$.vertex_map.{k}", "not a vertex of the source")
        vmap[v] = tgt

    raw_weights = obj["weights"]
    if not isinstance(raw_weights, list):
        raise SchemaError("$.weights", "expected a list of [simplex, weight] pairs")
    weights = {}
    for i, pair in enumerate(raw_weights):
        where = f"$.weights[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(where, "expected [simplex, weight]")
        simplex_obj = complex_from_json({"simplices": [pair[0]]}, where)
        (simplex,) = simplex_obj.simplices
        if not isinstance(pair[1], int) or isinstance(pair[1], bool):
            raise SchemaError(f"{where}[1]", "weight must be an integer")
        weights[simplex] = pair[1]

    try:
        return SimplicialMap(src, dst, vmap), SimplicialConstructibleFunction(src, weights)
    except CensusError as exc:
        raise SchemaError("$", str(exc)) from exc
