"""Census slots, and the ``solve`` subcommand that recovers one.

A census slot is named by a dotted :class:`FieldPath`.
``fibered.solve_unknown`` solves a slot from one identity, and
``census_io.apply_field_to_raw`` writes the solved value back into a
document; each imports this module when it is called, so only ``solve``
compiles it.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from pathlib import Path

from .census_io import apply_field_to_raw, load_file
from .errors import CensusError, NotSolvable, PointNotInClosure, SchemaError, UnknownValueLabel, formatting
from .fibered import solve_unknown
from .fibration import FiberedCensus, eu_weight
from .records import record, replace


# the number of dotted parts after the slot kind
_SLOT_ARITY = {"chi": 1, "fiber_chi": 2, "infinity_chi": 2, "morse_counts": 2}


def _updated(entries: Mapping[str, int], key: str, x: int | None) -> dict[str, int]:
    out = dict(entries)
    if x is None:
        out.pop(key, None)
    else:
        out[key] = x
    return out


@record
class FieldPath:
    """One census slot, named by a dotted path: ``chi.<stratum>``,
    ``fiber_chi.<stratum>.<value>``, ``infinity_chi.<stratum>.<value>`` or
    ``morse_counts.<point>.<stratum>``.

    Ids and labels never contain dots, so a path splits unambiguously.  The
    same path reads and writes the census model, and writes the raw JSON
    document a census was loaded from.
    """

    kind: str
    key: str
    sub: str | None = None

    @classmethod
    def parse(cls, text: str) -> "FieldPath":
        kind, *rest = text.split(".")
        if len(rest) != _SLOT_ARITY.get(kind):
            raise NotSolvable(
                f"unsupported field path {text!r}; solvable slots are chi.<stratum>, "
                "fiber_chi.<stratum>.<value>, infinity_chi.<stratum>.<value>, "
                "morse_counts.<point>.<stratum>"
            )
        return cls(kind, *rest)

    def get(self, census: FiberedCensus) -> int | None:
        """The slot's value, or None where the census leaves it absent.
        Unknown ids and labels raise, whether or not the slot is set, and
        so does a Morse count on a stratum whose closure does not contain
        the point, which no census may hold."""
        if self.kind == "morse_counts":
            point = census.point(self.key)
            poset = census.base.poset
            poset.stratum(self.sub)
            if not poset.leq(point.stratum, self.sub):
                raise PointNotInClosure(
                    f"critical point {self.key!r} carries a count on {self.sub!r} "
                    "whose closure does not contain it"
                )
            return point.morse_counts.get(self.sub)
        census.base.poset.stratum(self.key)
        if self.kind == "chi":
            return census.base.chi.get(self.key)
        if self.kind == "fiber_chi":
            census.require_label(self.sub)
        elif self.sub not in census.special_values:
            raise UnknownValueLabel(
                f"infinity data only exists at special values, not {self.sub!r}"
            )
        return getattr(census, self.kind).get(self.key, {}).get(self.sub)

    def set(self, census: FiberedCensus, x: int | None) -> FiberedCensus:
        """The census with the slot set to x; None blanks it."""
        self.get(census)
        if self.kind == "chi":
            return replace(census, base=census.base.with_chi(self.key, x))
        if self.kind == "morse_counts":
            points = tuple(
                replace(q, morse_counts=_updated(q.morse_counts, self.sub, x))
                if q.id == self.key
                else q
                for q in census.critical_points
            )
            return replace(census, critical_points=points)
        columns = dict(getattr(census, self.kind))
        columns[self.key] = _updated(columns.get(self.key, {}), self.sub, x)
        return replace(census, **{self.kind: columns})

    def set_raw(self, raw: dict, x: int) -> dict:
        """A deep copy of a raw census document with only the slot set to x."""
        out = json.loads(json.dumps(raw))
        if self.kind == "chi":
            for s in out.get("strata", []):
                if isinstance(s, dict) and s.get("id") == self.key:
                    s["chi"] = x
                    return out
            raise SchemaError("$.strata", f"no stratum {self.key!r} to complete")
        if self.kind == "morse_counts":
            for p in out.get("fibration", {}).get("critical_points", []):
                if isinstance(p, dict) and p.get("id") == self.key:
                    p.setdefault("morse_counts", {})[self.sub] = x
                    return out
            raise SchemaError(
                "$.fibration.critical_points", f"no critical point {self.key!r} to complete"
            )
        fib = out.setdefault("fibration", {})
        fib.setdefault(self.kind, {}).setdefault(self.key, {})[self.sub] = x
        return out


@record
class SolveResult:
    field: str
    value: int
    completed: FiberedCensus


def cmd_solve(args) -> int:
    """The ``solve`` subcommand: print the solved slot, and with
    ``--emit-completed`` write the census with it filled in."""
    bundle = load_file(args.census)
    alpha = None
    if args.alpha == "eu":
        alpha = eu_weight(bundle.census)
    fiber = None
    if args.at is not None and args.at in bundle.fiber_censuses:
        fiber = bundle.fiber_censuses[args.at]
    result = solve_unknown(
        bundle.census,
        args.identity,
        args.unknown,
        at=args.at,
        alpha=alpha,
        fiber_census=fiber,
        use_milnor=args.use_milnor,
    )
    with formatting():
        line = f"{result.field} = {result.value}\n"
    if args.emit_completed is None:
        sys.stdout.write(line)
        return 0
    completed = apply_field_to_raw(bundle.raw, result.field, result.value)
    with formatting():
        text = json.dumps(completed, indent=2) + "\n"
    sys.stdout.write(line)
    try:
        Path(args.emit_completed).write_text(text)
    except OSError as exc:
        raise CensusError(f"cannot write {args.emit_completed}: {exc}") from exc
    print(f"wrote completed census to {args.emit_completed}")
    return 0
