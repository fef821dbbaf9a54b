"""Census of a polynomial function on a stratified space, and its invariants.

On top of a stratified census this layer records what a global function
contributes: a finite list of special target values, Euler characteristics
of fiber pieces per stratum (one generic column plus one column per special
value), corrections at infinity per stratum and special value, and isolated
stratified critical points with their local Morse counts.  The invariants
``compute`` prints, which the identities read too, are here.  The
identities live in ``fibered`` with the terms only they read, and the
invariants only one other call reads live with it (``compute``, ``polar``,
``catalog_run``).

Target values are opaque labels.  ``GENERIC`` names the generic column; by
the constancy of fiber topology off the special set, any unlisted value
behaves exactly like the generic one, and :func:`resolve_value_label` makes
that defaulting explicit for callers that need it (cross-census work, the
command line).  The computational operations themselves insist on declared
labels so that typos fail loudly.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import PointNotInClosure, UnknownCriticalPoint, UnknownValueLabel
from .obstruction import eu_function_of_space
from .records import field, record
from .strata import StratifiedCensus, StratumConstructibleFunction, indicator_of_space, weighted_sum

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

    def require_in_closure(self, base: StratifiedCensus, sid: str) -> None:
        """Refuse a count on a stratum the base lacks or whose closure does
        not contain the point."""
        if not base.poset.leq(self.stratum, sid):
            raise PointNotInClosure(
                f"critical point {self.id!r} carries a count on {sid!r} "
                "whose closure does not contain it"
            )


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
                    if n:
                        q.require_in_closure(self.base, sid)

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
    census.base.solved.require_known(alpha)
    fiber = census.fiber_chi
    return weighted_sum(
        census.base, alpha, lambda sid: fiber.get(sid, {}).get(at), lambda sid: f"fiber_chi.{sid}.{at}"
    )


def eu_weight(census: FiberedCensus) -> StratumConstructibleFunction:
    """The obstruction of the space as an integration weight."""
    return eu_function_of_space(census.base)


def brasselet_infinity(
    census: FiberedCensus, at: str, alpha: StratumConstructibleFunction | None = None
) -> int:
    """Weighted correction at infinity for one value, unweighted (constant
    weight 1) by default; zero off the special set and zero wherever no
    entry was declared, so no entry is ever missing."""
    census.require_label(at)
    if alpha is None:
        alpha = indicator_of_space(census.base)
    if at == GENERIC:
        return 0
    infinity = census.infinity_chi
    return sum(a * infinity.get(sid, {}).get(at, 0) for sid, a in alpha.coeffs.items())
