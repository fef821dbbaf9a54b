"""JSON (de)serialization of census documents.

One file describes one space: strata, frontier order, link data, and
optionally the fibration block of one function on it, polar intersection
data, censuses of special fibers, and expected invariants with their
derivation notes (used by the catalog).  Schema violations raise
:class:`SchemaError` carrying a JSON-path-like location.  The polar block
is read by ``polar.polar_from_json``, imported only for a document that
has one.
"""

from __future__ import annotations

from pathlib import Path

from .documents import read_json
from .errors import CensusError, NotSolvable, SchemaError
from .fibration import CriticalPoint, FiberedCensus
from .records import field, record
from .strata import StratifiedCensus, Stratum, StratumPoset


def _refuse(message: str, path: str, *keys: object) -> SchemaError:
    # the error at the value the keys and indexes lead to below ``path``:
    # its `$...` path is formatted only here, for a refusal
    return SchemaError(
        path + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys), message
    )


def _expect(obj: object, kind: type, what: str, path: str, *keys: object) -> object:
    if isinstance(obj, kind) and not (kind is int and isinstance(obj, bool)):
        return obj
    got = "a boolean" if kind is int and isinstance(obj, bool) else type(obj).__name__
    raise _refuse(f"expected {what}, got {got}", path, *keys)


def _ident(obj: object, what: str, path: str, *keys: object) -> str:
    # a nonempty string without dots: dots are reserved by the dotted field
    # paths of solve_unknown
    if isinstance(obj, str) and obj and "." not in obj:
        return obj
    _expect(obj, str, what, path, *keys)
    rule = "must not contain '.'" if obj else "must be nonempty"
    raise _refuse(f"{what} {rule}", path, *keys)


def _int_map(obj: object, what: str, path: str, *keys: object) -> dict[str, int]:
    # a map of ids, which ``what`` names, to integers; it runs once per
    # column entry, so like the relation loops it tests inline and refuses
    # through the helpers
    _expect(obj, dict, "an object", path, *keys)
    for k, v in obj.items():
        if not (isinstance(k, str) and k and "." not in k):
            _ident(k, what, path, *keys, k)
        if not isinstance(v, int) or isinstance(v, bool):
            _expect(v, int, "an integer", path, *keys, k)
    return dict(obj)


def _census_from_json(obj: object, path: str, default_name: str) -> StratifiedCensus:
    _expect(obj, dict, "an object", path)
    name = _expect(obj.get("name", default_name), str, "a string", path, "name")

    strata, chis = [], {}
    for i, s in enumerate(_expect(obj.get("strata"), list, "a list", path, "strata")):
        at = (path, "strata", i)
        _expect(s, dict, "an object", *at)
        sid = _ident(s.get("id"), "a stratum id", *at, "id")
        dim = _expect(s.get("dim"), int, "an integer", *at, "dim")
        if dim < 0:
            raise _refuse("dimension must be nonnegative", *at, "dim")
        chi = s.get("chi")
        if chi is not None:
            _expect(chi, int, "an integer", *at, "chi")
        flag = _expect(s.get("regular_part", False), bool, "a boolean", *at, "regular_part")
        strata.append(Stratum(sid, dim, flag))
        chis[sid] = chi

    # the order pairs and the links, the loops that run once per relation,
    # test inline and refuse through the helpers
    pairs = set()
    for i, pair in enumerate(_expect(obj.get("order", []), list, "a list", path, "order")):
        if not isinstance(pair, list):
            _expect(pair, list, "a two-element list", path, "order", i)
        if len(pair) != 2:
            raise _refuse("expected exactly two stratum ids", path, "order", i)
        a, b = pair
        if not (isinstance(a, str) and a and "." not in a):
            _ident(a, "a stratum id", path, "order", i, 0)
        if not (isinstance(b, str) and b and "." not in b):
            _ident(b, "a stratum id", path, "order", i, 1)
        pairs.add((a, b))

    entries = {}
    for i, entry in enumerate(_expect(obj.get("links", []), list, "a list", path, "links")):
        if not isinstance(entry, dict):
            _expect(entry, dict, "an object", path, "links", i)
        low, up, chi = entry.get("at"), entry.get("in_closure"), entry.get("chi")
        if not (isinstance(low, str) and low and "." not in low):
            _ident(low, "a stratum id", path, "links", i, "at")
        if not (isinstance(up, str) and up and "." not in up):
            _ident(up, "a stratum id", path, "links", i, "in_closure")
        if not isinstance(chi, int) or isinstance(chi, bool):
            _expect(chi, int, "an integer", path, "links", i, "chi")
        key = (low, up)
        if key in entries:
            raise _refuse(f"duplicate link entry for ({low!r}, {up!r})", path, "links", i)
        entries[key] = chi

    flag = _expect(obj.get("equidimensional", False), bool, "a boolean", path, "equidimensional")

    try:
        poset = StratumPoset(tuple(strata), frozenset(pairs))
        census = StratifiedCensus(
            name=name, poset=poset, links=entries, equidimensional=flag, chi=chis
        )
        census.validate()
    except (CensusError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from exc
    return census


def _fibration_from_json(
    obj: object, path: str, base: StratifiedCensus
) -> FiberedCensus:
    _expect(obj, dict, "an object", path)
    raw_values = _expect(obj.get("special_values", []), list, "a list", path, "special_values")
    values = tuple(
        _ident(v, "a value label", path, "special_values", i) for i, v in enumerate(raw_values)
    )

    def columns(key: str) -> dict[str, dict[str, int]]:
        raw = _expect(obj.get(key, {}), dict, "an object", path, key)
        return {
            _ident(sid, "a stratum id", path, key, sid):
                _int_map(col, "a value label", path, key, sid)
            for sid, col in raw.items()
        }

    points = []
    raw_points = _expect(obj.get("critical_points", []), list, "a list", path, "critical_points")
    for i, p in enumerate(raw_points):
        at = (path, "critical_points", i)
        _expect(p, dict, "an object", *at)
        fiber_eu, space_eu = p.get("eu_fiber_at_q"), p.get("eu_space_at_q")
        milnor = p.get("milnor_numbers")
        points.append(
            CriticalPoint(
                id=_ident(p.get("id"), "a critical point id", *at, "id"),
                stratum=_ident(p.get("stratum"), "a stratum id", *at, "stratum"),
                value=_ident(p.get("value"), "a value label", *at, "value"),
                morse_counts=_int_map(
                    p.get("morse_counts", {}), "a stratum id", *at, "morse_counts"
                ),
                eu_fiber_at_q=(
                    None if fiber_eu is None
                    else _expect(fiber_eu, int, "an integer", *at, "eu_fiber_at_q")
                ),
                eu_space_at_q=(
                    None if space_eu is None
                    else _expect(space_eu, int, "an integer", *at, "eu_space_at_q")
                ),
                milnor_numbers=(
                    None if milnor is None
                    else _int_map(milnor, "a stratum id", *at, "milnor_numbers")
                ),
            )
        )

    f_general = _expect(obj.get("f_general", False), bool, "a boolean", path, "f_general")

    try:
        census = FiberedCensus(
            base=base,
            special_values=values,
            fiber_chi=columns("fiber_chi"),
            infinity_chi=columns("infinity_chi"),
            critical_points=tuple(points),
            f_general=f_general,
        )
        # the base was validated by _census_from_json
        census.validate_fibration()
    except SchemaError:
        # a column's own error, already at its path
        raise
    except (CensusError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from exc
    return census


@record
class CensusBundle:
    """Everything one census file declares; ``polar`` is a
    ``polar.PolarData``."""

    name: str
    census: FiberedCensus
    polar: PolarData | None = None
    fiber_censuses: dict[str, StratifiedCensus] = field(default_factory=dict)
    expected: dict[str, object] = field(default_factory=dict)
    derivation_notes: dict[str, str] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def load_document(obj: object, path: str = "$") -> CensusBundle:
    _expect(obj, dict, "an object", path)
    base = _census_from_json(obj, path, default_name="census")
    if "fibration" in obj:
        census = _fibration_from_json(obj["fibration"], f"{path}.fibration", base)
    else:
        census = FiberedCensus(base=base)

    polar = None
    if "polar" in obj:
        # imported here: `compute` and `solve` on a census without a polar
        # block never compile the polar layer
        from .polar import polar_from_json

        polar = polar_from_json(obj["polar"], f"{path}.polar", base.top_dim())

    fibers = {}
    raw_fibers = _expect(obj.get("fiber_censuses", {}), dict, "an object", path, "fiber_censuses")
    for label, sub in raw_fibers.items():
        key = _ident(label, "a value label", path, "fiber_censuses", label)
        if key not in census.special_values:
            raise _refuse("not a declared special value", path, "fiber_censuses", label)
        fibers[key] = _census_from_json(
            sub, f"{path}.fiber_censuses.{label}", default_name=f"fiber at {label}"
        )

    expected = _expect(obj.get("expected", {}), dict, "an object", path, "expected")
    for k, v in expected.items():
        _expect(k, str, "a string key", path, "expected", k)
        if isinstance(v, list):
            for i, item in enumerate(v):
                _expect(item, str, "a string", path, "expected", k, i)
        else:
            _expect(v, int, "an integer or list of strings", path, "expected", k)

    notes = _expect(obj.get("derivation_notes", {}), dict, "an object", path, "derivation_notes")
    for k, v in notes.items():
        if not _expect(v, str, "a string", path, "derivation_notes", k).strip():
            raise _refuse("note must be nonempty", path, "derivation_notes", k)

    return CensusBundle(
        name=base.name,
        census=census,
        polar=polar,
        fiber_censuses=fibers,
        expected=dict(expected),
        derivation_notes=dict(notes),
        raw=obj,
    )


def load_file(path: str | Path) -> CensusBundle:
    return load_document(read_json(Path(path)))


def apply_field_to_raw(raw: dict, fieldpath: str, value: int) -> dict:
    """Write one solved slot back into a raw census document.

    Returns a deep-copied document with only that slot changed, so emitting
    a completed census never disturbs unrelated formatting or data.
    """
    from .slots import FieldPath

    try:
        path = FieldPath.parse(fieldpath)
    except NotSolvable:
        raise SchemaError("$", f"cannot write field path {fieldpath!r} back to JSON") from None
    return path.set_raw(raw, value)
