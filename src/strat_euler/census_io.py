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


def _mistyped(obj: object, kind: type, path: str, what: str) -> SchemaError:
    got = "a boolean" if kind is int and isinstance(obj, bool) else type(obj).__name__
    return SchemaError(path, f"expected {what}, got {got}")


def _bad_ident(obj: object, path: str, what: str) -> SchemaError:
    # the error for a value that is not a nonempty, dot-free string
    if not isinstance(obj, str):
        return _mistyped(obj, str, path, what)
    if not obj:
        return SchemaError(path, f"{what} must be nonempty")
    # dots are reserved by the dotted field paths of solve_unknown
    return SchemaError(path, f"{what} must not contain '.'")


def _expect(obj: object, kind: type, path: str, what: str) -> object:
    if isinstance(obj, kind) and not (kind is int and isinstance(obj, bool)):
        return obj
    raise _mistyped(obj, kind, path, what)


def _ident(obj: object, path: str, what: str) -> str:
    if isinstance(obj, str) and obj and "." not in obj:
        return obj
    raise _bad_ident(obj, path, what)


def _int_map(obj: object, path: str, what: str) -> dict[str, int]:
    # per entry, the path is formatted only when the entry is refused
    _expect(obj, dict, path, "an object")
    for k, v in obj.items():
        if not (isinstance(k, str) and k and "." not in k):
            raise _bad_ident(k, f"{path}.{k}", what)
        if not isinstance(v, int) or isinstance(v, bool):
            raise _mistyped(v, int, f"{path}.{k}", "an integer")
    return dict(obj)


def _census_from_json(obj: object, path: str, default_name: str) -> StratifiedCensus:
    _expect(obj, dict, path, "an object")
    name = obj.get("name", default_name)
    _expect(name, str, f"{path}.name", "a string")

    # the per-entry loops check inline and format a path only to raise
    raw_strata = _expect(obj.get("strata"), list, f"{path}.strata", "a list")
    strata, chis = [], {}
    for i, s in enumerate(raw_strata):
        if not isinstance(s, dict):
            raise _mistyped(s, dict, f"{path}.strata[{i}]", "an object")
        sid, dim, chi = s.get("id"), s.get("dim"), s.get("chi")
        if not (isinstance(sid, str) and sid and "." not in sid):
            raise _bad_ident(sid, f"{path}.strata[{i}].id", "a stratum id")
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise _mistyped(dim, int, f"{path}.strata[{i}].dim", "an integer")
        if dim < 0:
            raise SchemaError(f"{path}.strata[{i}].dim", "dimension must be nonnegative")
        if chi is not None and (not isinstance(chi, int) or isinstance(chi, bool)):
            raise _mistyped(chi, int, f"{path}.strata[{i}].chi", "an integer")
        flag = s.get("regular_part", False)
        if not isinstance(flag, bool):
            raise _mistyped(flag, bool, f"{path}.strata[{i}].regular_part", "a boolean")
        strata.append(Stratum(sid, dim, flag))
        chis[sid] = chi

    raw_order = obj.get("order", [])
    _expect(raw_order, list, f"{path}.order", "a list")
    pairs = set()
    for i, pair in enumerate(raw_order):
        if not isinstance(pair, list):
            raise _mistyped(pair, list, f"{path}.order[{i}]", "a two-element list")
        if len(pair) != 2:
            raise SchemaError(f"{path}.order[{i}]", "expected exactly two stratum ids")
        a, b = pair
        if not (isinstance(a, str) and a and "." not in a):
            raise _bad_ident(a, f"{path}.order[{i}][0]", "a stratum id")
        if not (isinstance(b, str) and b and "." not in b):
            raise _bad_ident(b, f"{path}.order[{i}][1]", "a stratum id")
        pairs.add((a, b))

    raw_links = obj.get("links", [])
    _expect(raw_links, list, f"{path}.links", "a list")
    entries = {}
    for i, entry in enumerate(raw_links):
        if not isinstance(entry, dict):
            raise _mistyped(entry, dict, f"{path}.links[{i}]", "an object")
        low, up, chi = entry.get("at"), entry.get("in_closure"), entry.get("chi")
        if not (isinstance(low, str) and low and "." not in low):
            raise _bad_ident(low, f"{path}.links[{i}].at", "a stratum id")
        if not (isinstance(up, str) and up and "." not in up):
            raise _bad_ident(up, f"{path}.links[{i}].in_closure", "a stratum id")
        if not isinstance(chi, int) or isinstance(chi, bool):
            raise _mistyped(chi, int, f"{path}.links[{i}].chi", "an integer")
        key = (low, up)
        if key in entries:
            raise SchemaError(f"{path}.links[{i}]", f"duplicate link entry for ({low!r}, {up!r})")
        entries[key] = chi

    flag = obj.get("equidimensional", False)
    _expect(flag, bool, f"{path}.equidimensional", "a boolean")

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
    _expect(obj, dict, path, "an object")
    raw_values = obj.get("special_values", [])
    _expect(raw_values, list, f"{path}.special_values", "a list")
    values = tuple(
        _ident(v, f"{path}.special_values[{i}]", "a value label")
        for i, v in enumerate(raw_values)
    )

    def columns(key: str) -> dict[str, dict[str, int]]:
        raw = obj.get(key, {})
        _expect(raw, dict, f"{path}.{key}", "an object")
        out = {}
        for sid, col in raw.items():
            out[_ident(sid, f"{path}.{key}.{sid}", "a stratum id")] = _int_map(
                col, f"{path}.{key}.{sid}", "a value label"
            )
        return out

    raw_points = obj.get("critical_points", [])
    _expect(raw_points, list, f"{path}.critical_points", "a list")
    points = []
    for i, p in enumerate(raw_points):
        where = f"{path}.critical_points[{i}]"
        _expect(p, dict, where, "an object")
        milnor = p.get("milnor_numbers")
        points.append(
            CriticalPoint(
                id=_ident(p.get("id"), f"{where}.id", "a critical point id"),
                stratum=_ident(p.get("stratum"), f"{where}.stratum", "a stratum id"),
                value=_ident(p.get("value"), f"{where}.value", "a value label"),
                morse_counts=_int_map(
                    p.get("morse_counts", {}), f"{where}.morse_counts", "a stratum id"
                ),
                eu_fiber_at_q=(
                    None
                    if p.get("eu_fiber_at_q") is None
                    else _expect(p["eu_fiber_at_q"], int, f"{where}.eu_fiber_at_q", "an integer")
                ),
                eu_space_at_q=(
                    None
                    if p.get("eu_space_at_q") is None
                    else _expect(p["eu_space_at_q"], int, f"{where}.eu_space_at_q", "an integer")
                ),
                milnor_numbers=(
                    None
                    if milnor is None
                    else _int_map(milnor, f"{where}.milnor_numbers", "a stratum id")
                ),
            )
        )

    f_general = obj.get("f_general", False)
    _expect(f_general, bool, f"{path}.f_general", "a boolean")

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
    _expect(obj, dict, path, "an object")
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
    raw_fibers = obj.get("fiber_censuses", {})
    _expect(raw_fibers, dict, f"{path}.fiber_censuses", "an object")
    for label, sub in raw_fibers.items():
        key = _ident(label, f"{path}.fiber_censuses.{label}", "a value label")
        if key not in census.special_values:
            raise SchemaError(
                f"{path}.fiber_censuses.{label}", "not a declared special value"
            )
        fibers[key] = _census_from_json(
            sub, f"{path}.fiber_censuses.{label}", default_name=f"fiber at {label}"
        )

    expected = obj.get("expected", {})
    _expect(expected, dict, f"{path}.expected", "an object")
    for k, v in expected.items():
        _expect(k, str, f"{path}.expected.{k}", "a string key")
        if isinstance(v, list):
            for i, item in enumerate(v):
                _expect(item, str, f"{path}.expected.{k}[{i}]", "a string")
        else:
            _expect(v, int, f"{path}.expected.{k}", "an integer or list of strings")

    notes = obj.get("derivation_notes", {})
    _expect(notes, dict, f"{path}.derivation_notes", "an object")
    for k, v in notes.items():
        note = _expect(v, str, f"{path}.derivation_notes.{k}", "a string")
        if not note.strip():
            raise SchemaError(f"{path}.derivation_notes.{k}", "note must be nonempty")

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
