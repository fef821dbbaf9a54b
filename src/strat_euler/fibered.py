"""Census of a polynomial function on a stratified space, and its identities.

On top of a stratified census this layer records what a global function
contributes: a finite list of special target values, Euler characteristics
of fiber pieces per stratum (one generic column plus one column per special
value), corrections at infinity per stratum and special value, and isolated
stratified critical points with their local Morse counts.

Target values are opaque labels.  ``GENERIC`` names the generic column; by
the constancy of fiber topology off the special set, any unlisted value
behaves exactly like the generic one, and :func:`resolve_value_label` makes
that defaulting explicit for callers that need it (cross-census work, the
command line).  The computational operations themselves insist on declared
labels so that typos fail loudly.

Each identity is defined once, as an entry of :data:`IDENTITIES`: the
function giving its two sides and the arguments it takes (a target value,
a weight, counts, the census of a special fiber).  :func:`check_identity`,
the check battery and the slot solver all read that table.  A census slot
is named by a dotted :class:`FieldPath`, the one parser of that grammar.

Everything here is exact integer arithmetic.  :func:`check_identity`
returns both sides of an identity as a ``CheckLine``; nothing is ever
compared with a tolerance.
"""

from __future__ import annotations

import json
from typing import Callable, Mapping

from .errors import (
    AmbientObstructionMismatch,
    IdentityArgumentError,
    InsufficientData,
    NotSolvable,
    PointNotInClosure,
    SchemaError,
    UnknownCriticalPoint,
    UnknownStratum,
    UnknownValueLabel,
)
from .obstruction import (
    EulerObstructionTable,
    eu_function_of_space,
    global_euler_obstruction,
    solve_bdk,
)
from .records import field, record, replace
from .reports import CheckLine, row_detail
from .strata import (
    StratifiedCensus,
    StratumConstructibleFunction,
    chi_global,
    eta,
    indicator_of_space,
    restrict_to_closure,
)

GENERIC = "generic"


@record
class CriticalPoint:
    """An isolated stratified critical point of the function.

    ``morse_counts`` maps a stratum id to the number of Morse points landing
    on that stratum when the function is perturbed near this point; entries
    can only sit on strata whose closure contains the point.  A point lying
    on a zero-dimensional stratum counts itself with multiplicity one there.
    ``milnor_numbers`` are the per-stratum Milnor numbers of the restriction,
    usable in place of Morse counts when the function is declared general.
    ``eu_fiber_at_q`` is the local Euler obstruction of the special fiber
    through the point, evaluated at the point.  ``eu_space_at_q`` may record
    the obstruction of the ambient space at the point; it is redundant given
    the census and is cross-checked when present.
    """

    id: str
    stratum: str
    value: str
    morse_counts: Mapping[str, int] = field(default_factory=dict)
    eu_fiber_at_q: int | None = None
    eu_space_at_q: int | None = None
    milnor_numbers: Mapping[str, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "morse_counts", dict(self.morse_counts))
        if self.milnor_numbers is not None:
            object.__setattr__(self, "milnor_numbers", dict(self.milnor_numbers))


@record
class FiberedCensus:
    """A stratified census together with the data of one function on it."""

    base: StratifiedCensus
    special_values: tuple[str, ...] = ()
    fiber_chi: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    infinity_chi: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    critical_points: tuple[CriticalPoint, ...] = ()
    f_general: bool = False

    def __post_init__(self):
        object.__setattr__(self, "special_values", tuple(self.special_values))
        object.__setattr__(
            self, "fiber_chi", {k: dict(v) for k, v in self.fiber_chi.items()}
        )
        object.__setattr__(
            self, "infinity_chi", {k: dict(v) for k, v in self.infinity_chi.items()}
        )
        object.__setattr__(self, "critical_points", tuple(self.critical_points))

    # --- validation -----------------------------------------------------

    def validate(self) -> None:
        """Structural checks of the base census and of the function data."""
        self.base.validate()
        self.validate_fibration()

    def validate_fibration(self) -> None:
        """Structural checks beyond what the base census enforces, for a
        base that has been validated already."""
        poset = self.base.poset
        values = self.special_values
        if len(set(values)) != len(values):
            raise ValueError("duplicate special value labels")
        if GENERIC in values:
            raise ValueError(f"{GENERIC!r} cannot be declared as a special value")
        for sid, col in self.fiber_chi.items():
            poset.stratum(sid)
            for label in col:
                if label != GENERIC and label not in values:
                    raise UnknownValueLabel(
                        f"fiber data for {sid!r} at undeclared value {label!r}"
                    )
        for sid, col in self.infinity_chi.items():
            poset.stratum(sid)
            for label in col:
                if label not in values:
                    raise UnknownValueLabel(
                        f"infinity data for {sid!r} at undeclared value {label!r}"
                    )
        seen = set()
        for q in self.critical_points:
            if q.id in seen:
                raise ValueError(f"duplicate critical point id {q.id!r}")
            seen.add(q.id)
            poset.stratum(q.stratum)
            if q.value not in values:
                raise UnknownValueLabel(
                    f"critical point {q.id!r} sits over undeclared value {q.value!r}"
                )
            for counts in (q.morse_counts, q.milnor_numbers or {}):
                for sid, n in counts.items():
                    poset.stratum(sid)
                    if n and not poset.leq(q.stratum, sid):
                        raise PointNotInClosure(
                            f"critical point {q.id!r} carries a count on {sid!r} "
                            "whose closure does not contain it"
                        )

    # --- accessors ------------------------------------------------------

    def require_label(self, label: str) -> None:
        if label != GENERIC and label not in self.special_values:
            raise UnknownValueLabel(
                f"value label {label!r} is not declared (special values: "
                f"{list(self.special_values)!r})"
            )

    def point(self, point_id: str) -> CriticalPoint:
        for q in self.critical_points:
            if q.id == point_id:
                return q
        raise UnknownCriticalPoint(f"no critical point {point_id!r}")

    def points_at(self, label: str) -> list[CriticalPoint]:
        return [q for q in self.critical_points if q.value == label]

    def morse_total(self, sid: str, excluding_value: str | None = None) -> int:
        """Total Morse count on one stratum, optionally dropping the points
        sitting over one special value."""
        self.base.poset.stratum(sid)
        total = 0
        for q in self.critical_points:
            if excluding_value is not None and q.value == excluding_value:
                continue
            total += q.morse_counts.get(sid, 0)
        return total


def resolve_value_label(census: FiberedCensus, label: str) -> str:
    """Map a value label onto the census's column set.

    Labels that are not declared special denote generic values, whose fiber
    data is the generic column and whose infinity correction vanishes.
    """
    return label if label == GENERIC or label in census.special_values else GENERIC


# --- the computed invariants -------------------------------------------


def brasselet(
    census: FiberedCensus, at: str, alpha: StratumConstructibleFunction | None = None
) -> int:
    """Euler characteristic of one fiber, weighted by alpha.

    This is the fiber integral of alpha: the sum over strata of the alpha
    coefficient times the chi of the fiber piece in that stratum.  With the
    obstruction weight it is the global Brasselet number at the value.
    """
    census.require_label(at)
    if alpha is None:
        alpha = indicator_of_space(census.base)
    known = census.base.solved.index
    for k in alpha.coeffs:
        if k not in known:
            raise UnknownStratum(f"coefficient on unknown stratum {k!r}")
    # only the support of alpha contributes
    total = 0
    missing = set()
    for sid, a in alpha.coeffs.items():
        if a == 0:
            continue
        v = census.fiber_chi.get(sid, {}).get(at)
        if v is None:
            missing.add(sid)
            continue
        total += a * v
    if missing:
        # named in the order the census declares its strata
        raise InsufficientData(
            [f"fiber_chi.{sid}.{at}" for sid in census.base.poset.ids() if sid in missing]
        )
    return total


def eu_weight(census: FiberedCensus, table: EulerObstructionTable) -> StratumConstructibleFunction:
    """The obstruction of the space as an integration weight."""
    return eu_function_of_space(census.base, table)


def eu_of_f_at(census: FiberedCensus, table: EulerObstructionTable, at: str) -> int:
    """Global obstruction of the function at a value: the defect between the
    obstruction of the space and the Brasselet number of the fiber."""
    w = eu_weight(census, table)
    return chi_global(census.base, w) - brasselet(census, at, w)


def brasselet_infinity(
    census: FiberedCensus, at: str, alpha: StratumConstructibleFunction | None = None
) -> int:
    """Weighted correction at infinity for one value; zero off the special
    set and zero whenever no entry was declared."""
    census.require_label(at)
    if alpha is None:
        alpha = indicator_of_space(census.base)
    if at == GENERIC:
        return 0
    # absent entries are zero (the one documented default), so only the
    # support of alpha contributes, and a coefficient on an unknown stratum
    # meets no entry
    infinity = census.infinity_chi
    return sum(
        a * infinity[sid].get(at, 0) for sid, a in alpha.coeffs.items() if sid in infinity
    )


def total_brasselet_infinity(
    census: FiberedCensus, alpha: StratumConstructibleFunction | None = None
) -> int:
    return sum(brasselet_infinity(census, a, alpha) for a in census.special_values)


def lambda_infinity(census: FiberedCensus, at: str) -> int:
    """Unweighted (constant weight 1) correction at infinity at one value."""
    return brasselet_infinity(census, at, None)


def total_lambda_infinity(census: FiberedCensus) -> int:
    return sum(lambda_infinity(census, a) for a in census.special_values)


def detect_irregular_values(census: FiberedCensus) -> list[str]:
    """Special values whose behaviour at infinity is nontrivial.

    A value is flagged as soon as one stratum declares a nonzero correction
    at infinity there.  The detector is one-sided by design: a census cannot
    certify regularity, only exhibit irregularity.
    """
    flagged = [
        a
        for a in census.special_values
        if any(column.get(a, 0) != 0 for column in census.infinity_chi.values())
    ]
    return sorted(flagged)


def local_fiber_defect(census: FiberedCensus, point_id: str) -> int:
    """Drop of the local fiber's chi at a critical point.

    Morse counts weighted by the sign of the stratum dimension and by eta of
    the constant function 1; equals 1 minus the chi of the local fiber of
    the function at the point.
    """
    q = census.point(point_id)
    one = indicator_of_space(census.base)
    total = 0
    for sid, n in q.morse_counts.items():
        if n == 0:
            continue
        d = census.base.poset.stratum(sid).dim
        total += (-1 if d % 2 else 1) * n * eta(census.base, sid, one)
    return total


def eu_of_function_local(census: FiberedCensus, point_id: str, closure_of: str) -> int:
    """Local obstruction of the function on one closed closure at a point:
    the signed Morse count on the open top stratum of that closure."""
    q = census.point(point_id)
    poset = census.base.poset
    if not poset.leq(q.stratum, closure_of):
        raise PointNotInClosure(
            f"critical point {q.id!r} does not lie in the closure of {closure_of!r}"
        )
    d = poset.stratum(closure_of).dim
    return (-1 if d % 2 else 1) * q.morse_counts.get(closure_of, 0)


def restrict_fibered(census: FiberedCensus, stratum_id: str) -> FiberedCensus:
    """The induced fibered census on the closure of one stratum.

    Link entries, fiber pieces, infinity corrections and Morse counts are
    all local to their stratum, so restriction is plain filtering.
    """
    base = restrict_to_closure(census.base, stratum_id)
    keep = set(base.poset.ids())
    points = tuple(
        replace(
            q,
            morse_counts={s: n for s, n in q.morse_counts.items() if s in keep},
            milnor_numbers=(
                None
                if q.milnor_numbers is None
                else {s: n for s, n in q.milnor_numbers.items() if s in keep}
            ),
        )
        for q in census.critical_points
        if q.stratum in keep
    )
    return FiberedCensus(
        base=base,
        special_values=census.special_values,
        fiber_chi={s: col for s, col in census.fiber_chi.items() if s in keep},
        infinity_chi={s: col for s, col in census.infinity_chi.items() if s in keep},
        critical_points=points,
        f_general=census.f_general,
    )


# --- identity verifiers ------------------------------------------------


def _signed_count_balance(
    census: FiberedCensus,
    alpha: StratumConstructibleFunction,
    counts: Mapping[str, int],
) -> int:
    total = 0
    for sid in census.base.poset.ids():
        n = counts.get(sid, 0)
        if n == 0:
            continue
        d = census.base.poset.stratum(sid).dim
        total += (-1 if d % 2 else 1) * n * eta(census.base, sid, alpha)
    return total


def _morse_totals(census: FiberedCensus, excluding_value: str | None = None) -> dict[str, int]:
    return {
        sid: census.morse_total(sid, excluding_value)
        for sid in census.base.poset.ids()
    }


def _milnor_totals(census: FiberedCensus) -> dict[str, int]:
    if not census.f_general:
        raise InsufficientData(["f_general"])
    missing = [
        f"critical_points.{q.id}.milnor_numbers"
        for q in census.critical_points
        if q.milnor_numbers is None
    ]
    if missing:
        raise InsufficientData(missing)
    out: dict[str, int] = {}
    for q in census.critical_points:
        for sid, n in (q.milnor_numbers or {}).items():
            out[sid] = out.get(sid, 0) + n
    return out


def _closure_sums(integral: Callable[..., int]) -> Callable[..., tuple[int, int]]:
    """The verifier of a bdk_global identity, for a fiber integral called as
    integral(census, a, weight): the integral of w against the integrals of
    each closure's own obstruction column weighted by eta of w.  Fiber and
    infinity data are local to their stratum, so a closure's integral is the
    number the census of that closure alone gives."""

    def sides(census, a, w, counts, fiber) -> tuple[int, int]:
        base = census.base
        lhs = integral(census, a, w)
        rhs = sum(
            integral(census, a, base.solved.eu_function(sid)) * eta(base, sid, w)
            for sid in base.poset.ids()
        )
        return lhs, rhs

    return sides


# Each verifier takes (census, a, w, counts, fiber census) as check_identity
# resolves them from the registry entry, and returns (lhs, rhs).


def _prop_brasselet_vs_fiber_eu(census, a, w, counts, fiber) -> tuple[int, int]:
    lhs = brasselet(census, a, w)
    missing = [
        f"critical_points.{q.id}.eu_fiber_at_q"
        for q in census.points_at(a)
        if q.eu_fiber_at_q is None
    ]
    if missing:
        raise InsufficientData(missing)
    rhs = global_euler_obstruction(fiber, solve_bdk(fiber))
    for q in census.points_at(a):
        # w is the obstruction of the space
        ambient = w.value(q.stratum)
        if q.eu_space_at_q is not None and q.eu_space_at_q != ambient:
            raise AmbientObstructionMismatch(q.id, q.eu_space_at_q, ambient)
        rhs += ambient - q.eu_fiber_at_q
    return lhs, rhs


def _generic_fiber(census, a, w, counts, fiber) -> tuple[int, int]:
    lhs = chi_global(census.base, w) - brasselet(census, GENERIC, w)
    rhs = _signed_count_balance(census, w, counts) - total_brasselet_infinity(census, w)
    return lhs, rhs


def _cor_equi(census, a, w, counts, fiber) -> tuple[int, int]:
    base = census.base
    lhs = chi_global(base, w) - brasselet(census, GENERIC, w)
    d = base.top_dim()
    n_top = census.morse_total(base.regular_part().id)
    rhs = (-1 if d % 2 else 1) * n_top - total_brasselet_infinity(census, w)
    return lhs, rhs


def _prop_any_value(census, a, w, counts, fiber) -> tuple[int, int]:
    counts = _morse_totals(census, excluding_value=a)
    lhs = chi_global(census.base, w) - brasselet(census, a, w)
    rhs = (
        _signed_count_balance(census, w, counts)
        - total_brasselet_infinity(census, w)
        + brasselet_infinity(census, a, w)
    )
    return lhs, rhs


def _cor_generic_vs_any(census, a, w, counts, fiber) -> tuple[int, int]:
    base = census.base
    lhs = brasselet(census, a, w) - brasselet(census, GENERIC, w)
    d = base.top_dim()
    top = base.regular_part().id
    dropped = census.morse_total(top) - census.morse_total(top, excluding_value=a)
    rhs = (-1 if d % 2 else 1) * dropped - brasselet_infinity(census, a, w)
    return lhs, rhs


def _value_consistency(census, a, w, counts, fiber) -> tuple[int, int]:
    lhs = brasselet(census, GENERIC, w)
    rhs = (
        brasselet(census, a, w)
        - sum(local_fiber_defect(census, q.id) for q in census.points_at(a))
        + lambda_infinity(census, a)
    )
    return lhs, rhs


@record
class Identity:
    """How to evaluate one identity, and what it takes.

    ``values`` is None for an identity without a target value, "special"
    for one stated at a special value, and "special+generic" for one also
    checked at the generic value.  ``weight`` is "1" (the constant
    function), "alpha" (the caller's weight, 1 by default) or "Eu" (the
    obstruction of the space).  ``counts`` marks the identities that take
    Morse counts, or Milnor counts on a general function; ``fiber`` the one
    that needs the census of the special fiber.  ``structural`` identities
    are theorems of the census algebra itself: they hold for arbitrary
    fiber and infinity data once the obstruction table is solved, so no
    single census slot can be recovered from them.
    """

    sides: Callable[..., tuple[int, int]]
    values: str | None = None
    weight: str = "alpha"
    counts: bool = False
    fiber: bool = False
    structural: bool = False


# the registry, in the order the check battery runs it
IDENTITIES: dict[str, Identity] = {
    "prop_brasselet_vs_fiber_eu": Identity(
        _prop_brasselet_vs_fiber_eu, values="special", weight="Eu", fiber=True
    ),
    "bdk_global_1": Identity(_closure_sums(brasselet), values="special+generic", structural=True),
    "thm_generic_fiber": Identity(_generic_fiber, weight="1", counts=True),
    "cor_constructible": Identity(_generic_fiber, counts=True),
    "cor_equi": Identity(_cor_equi, weight="Eu"),
    "bdk_global_2": Identity(
        _closure_sums(lambda census, _a, w: total_brasselet_infinity(census, w)), structural=True
    ),
    "bdk_global_3": Identity(_closure_sums(brasselet_infinity), values="special", structural=True),
    "prop_any_value": Identity(_prop_any_value, values="special"),
    "cor_generic_vs_any": Identity(_cor_generic_vs_any, values="special", weight="Eu"),
    "value_consistency": Identity(_value_consistency, values="special", weight="1"),
}

IDENTITY_NAMES = tuple(IDENTITIES)

STRUCTURAL_IDENTITIES = frozenset(name for name, e in IDENTITIES.items() if e.structural)


def check_identity(
    census: FiberedCensus,
    identity: str,
    *,
    at: str | None = None,
    alpha: StratumConstructibleFunction | None = None,
    fiber_census: StratifiedCensus | None = None,
    use_milnor: bool = False,
) -> CheckLine:
    """Evaluate both sides of one named identity, exactly.

    ``at`` names a target value where the identity is per-value.  ``alpha``
    defaults to the constant function 1 where a weight is allowed.  The
    fiber-obstruction comparison additionally needs the census of the fiber
    itself via ``fiber_census``.  ``use_milnor`` switches the generic-fiber
    balance to Milnor numbers, which requires the function to be declared
    general.  The arguments are checked in that order: value, fiber census,
    counts, weight.  Data deficiencies raise InsufficientData; a row with
    differing sides is an honest verification failure, not an error.
    """
    entry = IDENTITIES.get(identity)
    if entry is None:
        raise IdentityArgumentError(f"unknown identity {identity!r}")
    if entry.values is not None:
        if at is None:
            raise IdentityArgumentError(f"identity {identity!r} needs a target value")
        census.require_label(at)
    if entry.fiber:
        # the fiber's own obstruction takes the place of any counts
        if use_milnor:
            raise IdentityArgumentError("milnor counts do not apply to this identity")
        if fiber_census is None:
            raise InsufficientData([f"fiber_census.{at}"])
    counts = None
    if entry.counts:
        counts = _milnor_totals(census) if use_milnor else _morse_totals(census)
    if entry.weight == "Eu":
        w = eu_weight(census, solve_bdk(census.base))
    elif entry.weight == "alpha" and alpha is not None:
        w = alpha
    else:
        w = indicator_of_space(census.base)
    lhs, rhs = entry.sides(census, at, w, counts, fiber_census)
    return CheckLine.compare(identity, lhs, rhs, row_detail(at, use_milnor=use_milnor))


# --- census slots and solving one unknown slot -------------------------

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
        Unknown ids and labels raise, whether or not the slot is set."""
        if self.kind == "morse_counts":
            counts = census.point(self.key).morse_counts
            census.base.poset.stratum(self.sub)
            return counts.get(self.sub)
        stratum = census.base.poset.stratum(self.key)
        if self.kind == "chi":
            return stratum.chi
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
            new_base = replace(census.base, poset=census.base.poset.with_chi(self.key, x))
            return replace(census, base=new_base)
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


def solve_unknown(
    census: FiberedCensus,
    identity: str,
    fieldpath: str,
    *,
    at: str | None = None,
    alpha: StratumConstructibleFunction | None = None,
    fiber_census: StratifiedCensus | None = None,
    use_milnor: bool = False,
) -> SolveResult:
    """Recover one absent census slot from one identity.

    Every solvable slot enters each identity affinely (it is multiplied only
    by other census data, never by itself), so two evaluations determine the
    coefficient and a third guards the affineness assumption.  The solved
    value must be a unique integer; anything else raises NotSolvable: a zero
    coefficient (in particular, identities that hold for arbitrary data
    cannot determine anything), a non-integer ratio, or a slot that is
    already present.
    """
    path = FieldPath.parse(fieldpath)
    # reading the slot checks its ids and label, so typos surface as their
    # own errors
    if path.get(census) is not None:
        raise NotSolvable(f"field {fieldpath!r} is already present in the census")

    def residual(x: int) -> int:
        filled = path.set(census, x)
        try:
            r = check_identity(
                filled,
                identity,
                at=at,
                alpha=alpha,
                fiber_census=fiber_census,
                use_milnor=use_milnor,
            )
        except InsufficientData as exc:
            raise NotSolvable(
                f"identity {identity!r} cannot be evaluated, further data is "
                "missing: " + ", ".join(exc.fields)
            ) from exc
        return r.lhs - r.rhs

    g0, g1, g2 = residual(0), residual(1), residual(2)
    if g2 - 2 * g1 + g0 != 0:
        raise NotSolvable(
            f"identity {identity!r} is not affine in {fieldpath!r}"
        )
    slope = g1 - g0
    if slope == 0:
        if identity in STRUCTURAL_IDENTITIES:
            raise NotSolvable(
                f"identity {identity!r} holds for arbitrary census data; "
                f"it does not constrain {fieldpath!r}"
            )
        raise NotSolvable(
            f"identity {identity!r} does not constrain {fieldpath!r} "
            "(zero coefficient)"
        )
    quo, rem = divmod(-g0, slope)
    if rem != 0:
        raise NotSolvable(
            f"no integer value of {fieldpath!r} satisfies {identity!r}: "
            f"{-g0} is not divisible by {slope}"
        )
    return SolveResult(field=fieldpath, value=quo, completed=path.set(census, quo))
