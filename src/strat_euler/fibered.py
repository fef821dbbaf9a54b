"""The identities of a function on a stratified space, and the slot solver.

Each identity is defined once, as an entry of :data:`IDENTITIES`: the
function giving its two sides and the arguments it takes (a target value,
a weight, counts, the census of a special fiber).  :func:`check_identity`,
the check battery and the slot solver all read that table.  A census slot
is named by a dotted :class:`FieldPath`, the one parser of that grammar.
The function data and its invariants live in ``fibration``.

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
    MissingLinkEntry,
    NotSolvable,
    SchemaError,
    UnknownValueLabel,
)
from .fibration import (
    GENERIC,
    FiberedCensus,
    brasselet,
    brasselet_infinity,
    eu_weight,
    lambda_infinity,
    local_fiber_defect,
    total_brasselet_infinity,
)
from .obstruction import global_euler_obstruction
from .records import record, replace
from .reports import CheckLine, row_detail
from .strata import (
    StratifiedCensus,
    StratumConstructibleFunction,
    chi_global,
    eta,
    indicator_of_space,
    restrict_to_closure,
)


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
    integral(census, a, weight): the integral of w against the sum over
    closures of each closure's own integral weighted by eta of w.  The
    integral is linear in its weight, so that sum is the integral of w read
    back through the solver (``SolvedWeight.resolved``).  Fiber and
    infinity data are local to their stratum, so a closure's integral is
    the number the census of that closure alone gives."""

    def sides(census, a, w, counts, fiber) -> tuple[int, int]:
        base = census.base
        lhs = integral(census, a, w)
        solved = base.solved
        try:
            solved.require_links()
            integral(census, a, solved.one)
        except (MissingLinkEntry, InsufficientData):
            # an absent link (i, k) breaks closure k's own term, an absent
            # fiber slot at m closure m's: raise what the sum raises first
            for sid in base.poset.ids():
                integral(census, a, solved.eu_function(sid))
                eta(base, sid, w)
            raise
        return lhs, integral(census, a, solved.weight(w).resolved)

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
    rhs = global_euler_obstruction(fiber)
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
    fiber and infinity data once the obstruction system is solved, so no
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
        w = eu_weight(census)
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
