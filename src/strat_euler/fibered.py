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

Everything here is exact integer arithmetic.  The check_* verifiers return
both sides of an identity; nothing is ever compared with a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from .errors import (
    AmbientObstructionMismatch,
    InsufficientData,
    NotSolvable,
    PointNotInClosure,
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
from .reports import IdentityReport
from .strata import (
    StratifiedCensus,
    StratumConstructibleFunction,
    chi_global,
    eta,
    indicator_of_space,
    restrict_to_closure,
)

GENERIC = "generic"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def fiber_entry(self, sid: str, label: str) -> int | None:
        self.base.poset.stratum(sid)
        return self.fiber_chi.get(sid, {}).get(label)

    def infinity_entry(self, sid: str, label: str) -> int:
        # absent entries default to zero; this is the one documented default
        self.base.poset.stratum(sid)
        if label == GENERIC:
            return 0
        return self.infinity_chi.get(sid, {}).get(label, 0)

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
    known = set(census.base.poset.ids())
    for k in alpha.coeffs:
        if k not in known:
            raise UnknownStratum(f"coefficient on unknown stratum {k!r}")
    total = 0
    missing = []
    for sid in census.base.poset.ids():
        a = alpha.value(sid)
        if a == 0:
            continue
        v = census.fiber_entry(sid, at)
        if v is None:
            missing.append(f"fiber_chi.{sid}.{at}")
            continue
        total += a * v
    if missing:
        raise InsufficientData(missing)
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
    return sum(
        alpha.value(sid) * census.infinity_entry(sid, at)
        for sid in census.base.poset.ids()
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
        if any(census.infinity_entry(sid, a) != 0 for sid in census.base.poset.ids())
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

IDENTITY_NAMES = (
    "prop_brasselet_vs_fiber_eu",
    "bdk_global_1",
    "thm_generic_fiber",
    "cor_constructible",
    "cor_equi",
    "bdk_global_2",
    "bdk_global_3",
    "prop_any_value",
    "cor_generic_vs_any",
    "value_consistency",
)

# identities that are theorems of the census algebra itself: they hold for
# arbitrary fiber and infinity data once the obstruction table is solved,
# so no single census slot can be recovered from them
STRUCTURAL_IDENTITIES = frozenset({"bdk_global_1", "bdk_global_2", "bdk_global_3"})


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


def _closure_brasselet(census: FiberedCensus, sid: str, at: str) -> int:
    # Brasselet number of the closure of sid: its own obstruction column
    # integrated over the fiber.  Fiber data is local to its stratum, so this
    # is the number the census of the closure alone gives.
    return brasselet(census, at, census.base.solved.eu_function(sid))


def _closure_infinity(census: FiberedCensus, sid: str, at: str | None) -> int:
    w = census.base.solved.eu_function(sid)
    if at is None:
        return total_brasselet_infinity(census, w)
    return brasselet_infinity(census, at, w)


def check_identity(
    census: FiberedCensus,
    identity: str,
    *,
    at: str | None = None,
    alpha: StratumConstructibleFunction | None = None,
    fiber_census: StratifiedCensus | None = None,
    use_milnor: bool = False,
) -> IdentityReport:
    """Evaluate both sides of one named identity, exactly.

    ``at`` names a target value where the identity is per-value.  ``alpha``
    defaults to the constant function 1 where a weight is allowed.  The
    fiber-obstruction comparison additionally needs the census of the fiber
    itself via ``fiber_census``.  ``use_milnor`` switches the generic-fiber
    balance to Milnor numbers, which requires the function to be declared
    general.  Data deficiencies raise InsufficientData; a report with
    differing sides is an honest verification failure, not an error.
    """
    base = census.base
    one = indicator_of_space(base)
    detail_parts = []
    if at is not None:
        detail_parts.append(f"a={at}")
    if use_milnor:
        detail_parts.append("counts=milnor")
    detail = ", ".join(detail_parts)

    def report(lhs: int, rhs: int) -> IdentityReport:
        return IdentityReport(name=identity, lhs=lhs, rhs=rhs, detail=detail)

    def need_at() -> str:
        if at is None:
            raise ValueError(f"identity {identity!r} needs a target value")
        census.require_label(at)
        return at

    if identity == "prop_brasselet_vs_fiber_eu":
        a = need_at()
        if use_milnor:
            raise ValueError("milnor counts do not apply to this identity")
        if fiber_census is None:
            raise InsufficientData([f"fiber_census.{a}"])
        table = solve_bdk(base)
        w = eu_weight(census, table)
        lhs = brasselet(census, a, w)
        missing = [
            f"critical_points.{q.id}.eu_fiber_at_q"
            for q in census.points_at(a)
            if q.eu_fiber_at_q is None
        ]
        if missing:
            raise InsufficientData(missing)
        fiber_table = solve_bdk(fiber_census)
        rhs = global_euler_obstruction(fiber_census, fiber_table)
        for q in census.points_at(a):
            ambient = table.eu_at(q.stratum)
            if q.eu_space_at_q is not None and q.eu_space_at_q != ambient:
                raise AmbientObstructionMismatch(q.id, q.eu_space_at_q, ambient)
            rhs += ambient - q.eu_fiber_at_q
        return report(lhs, rhs)

    if identity == "bdk_global_1":
        a = need_at()
        w = alpha if alpha is not None else one
        lhs = brasselet(census, a, w)
        rhs = sum(
            _closure_brasselet(census, sid, a) * eta(base, sid, w)
            for sid in base.poset.ids()
        )
        return report(lhs, rhs)

    if identity in ("thm_generic_fiber", "cor_constructible"):
        if identity == "thm_generic_fiber":
            w = one
        else:
            w = alpha if alpha is not None else one
        counts = _milnor_totals(census) if use_milnor else _morse_totals(census)
        lhs = chi_global(base, w) - brasselet(census, GENERIC, w)
        rhs = _signed_count_balance(census, w, counts) - total_brasselet_infinity(census, w)
        return report(lhs, rhs)

    if identity == "cor_equi":
        table = solve_bdk(base)
        w = eu_weight(census, table)
        lhs = chi_global(base, w) - brasselet(census, GENERIC, w)
        d = base.top_dim()
        n_top = census.morse_total(base.regular_part().id)
        rhs = (-1 if d % 2 else 1) * n_top - total_brasselet_infinity(census, w)
        return report(lhs, rhs)

    if identity == "bdk_global_2":
        w = alpha if alpha is not None else one
        lhs = total_brasselet_infinity(census, w)
        rhs = sum(
            _closure_infinity(census, sid, None) * eta(base, sid, w)
            for sid in base.poset.ids()
        )
        return report(lhs, rhs)

    if identity == "bdk_global_3":
        a = need_at()
        w = alpha if alpha is not None else one
        lhs = brasselet_infinity(census, a, w)
        rhs = sum(
            _closure_infinity(census, sid, a) * eta(base, sid, w)
            for sid in base.poset.ids()
        )
        return report(lhs, rhs)

    if identity == "prop_any_value":
        a = need_at()
        w = alpha if alpha is not None else one
        counts = _morse_totals(census, excluding_value=a)
        lhs = chi_global(base, w) - brasselet(census, a, w)
        rhs = (
            _signed_count_balance(census, w, counts)
            - total_brasselet_infinity(census, w)
            + brasselet_infinity(census, a, w)
        )
        return report(lhs, rhs)

    if identity == "cor_generic_vs_any":
        a = need_at()
        table = solve_bdk(base)
        w = eu_weight(census, table)
        lhs = brasselet(census, a, w) - brasselet(census, GENERIC, w)
        d = base.top_dim()
        top = base.regular_part().id
        dropped = census.morse_total(top) - census.morse_total(top, excluding_value=a)
        rhs = (-1 if d % 2 else 1) * dropped - brasselet_infinity(census, a, w)
        return report(lhs, rhs)

    if identity == "value_consistency":
        a = need_at()
        lhs = brasselet(census, GENERIC, one)
        rhs = (
            brasselet(census, a, one)
            - sum(local_fiber_defect(census, q.id) for q in census.points_at(a))
            + lambda_infinity(census, a)
        )
        return report(lhs, rhs)

    raise ValueError(f"unknown identity {identity!r}")


# --- solving one unknown census slot -----------------------------------


@dataclass(frozen=True)
class SolveResult:
    field: str
    value: int
    completed: FiberedCensus


def _with_field(census: FiberedCensus, fieldpath: str, x: int) -> FiberedCensus:
    parts = fieldpath.split(".")
    kind = parts[0]
    if kind == "chi" and len(parts) == 2:
        new_base = replace(census.base, poset=census.base.poset.with_chi(parts[1], x))
        return replace(census, base=new_base)
    if kind == "fiber_chi" and len(parts) == 3:
        sid, label = parts[1], parts[2]
        census.base.poset.stratum(sid)
        census.require_label(label)
        col = {k: dict(v) for k, v in census.fiber_chi.items()}
        col.setdefault(sid, {})[label] = x
        return replace(census, fiber_chi=col)
    if kind == "infinity_chi" and len(parts) == 3:
        sid, label = parts[1], parts[2]
        census.base.poset.stratum(sid)
        if label not in census.special_values:
            raise UnknownValueLabel(
                f"infinity data only exists at special values, not {label!r}"
            )
        col = {k: dict(v) for k, v in census.infinity_chi.items()}
        col.setdefault(sid, {})[label] = x
        return replace(census, infinity_chi=col)
    if kind == "morse_counts" and len(parts) == 3:
        qid, sid = parts[1], parts[2]
        census.point(qid)
        census.base.poset.stratum(sid)
        points = tuple(
            replace(q, morse_counts={**q.morse_counts, sid: x}) if q.id == qid else q
            for q in census.critical_points
        )
        return replace(census, critical_points=points)
    raise NotSolvable(
        f"unsupported field path {fieldpath!r}; solvable slots are chi.<stratum>, "
        "fiber_chi.<stratum>.<value>, infinity_chi.<stratum>.<value>, "
        "morse_counts.<point>.<stratum>"
    )


def _field_is_present(census: FiberedCensus, fieldpath: str) -> bool:
    parts = fieldpath.split(".")
    kind = parts[0]
    if kind == "chi" and len(parts) == 2:
        return census.base.poset.stratum(parts[1]).chi is not None
    if kind == "fiber_chi" and len(parts) == 3:
        return census.fiber_entry(parts[1], parts[2]) is not None
    if kind == "infinity_chi" and len(parts) == 3:
        census.base.poset.stratum(parts[1])
        return parts[2] in census.infinity_chi.get(parts[1], {})
    if kind == "morse_counts" and len(parts) == 3:
        return parts[2] in census.point(parts[1]).morse_counts
    return False


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
    # validate the field path first so typos surface as their own errors
    _with_field(census, fieldpath, 0)
    if _field_is_present(census, fieldpath):
        raise NotSolvable(f"field {fieldpath!r} is already present in the census")

    def residual(x: int) -> int:
        filled = _with_field(census, fieldpath, x)
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
    completed = _with_field(census, fieldpath, quo)
    return SolveResult(field=fieldpath, value=quo, completed=completed)
