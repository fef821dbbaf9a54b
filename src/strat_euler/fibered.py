"""The identities of a function on a stratified space, and the slot solver.

Each identity is defined once, as an entry of :data:`IDENTITIES`: the
function giving its two sides and the arguments it takes (a target value,
a weight, counts, the census of a special fiber).  :func:`check_identity`,
the check battery and the slot solver all read that table.  The function
data and its invariants live in ``fibration``.  :func:`solve_unknown`
names a census slot by a dotted ``slots.FieldPath``; the ``slots`` module,
which only ``solve`` runs, is imported when it is called.

Everything here is exact integer arithmetic.  :func:`check_identity`
returns both sides of an identity as a :class:`CheckLine`, the one row
record: ``check_identity`` and the check battery make every row, and the
command line prints them.  Nothing is ever compared with a tolerance.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from .errors import (
    AmbientObstructionMismatch,
    IdentityArgumentError,
    InsufficientData,
    MissingLinkEntry,
    NotSolvable,
)
from .fibration import (
    GENERIC,
    FiberedCensus,
    brasselet,
    brasselet_infinity,
    eu_weight,
    lambda_infinity,
)
from .obstruction import global_euler_obstruction
from .records import record, replace
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


# --- terms only the identities read --------------------------------------


def total_brasselet_infinity(
    census: FiberedCensus, alpha: StratumConstructibleFunction | None = None
) -> int:
    return sum(brasselet_infinity(census, a, alpha) for a in census.special_values)


def eu_of_f_at(
    census: FiberedCensus, at: str, w: StratumConstructibleFunction | None = None
) -> int:
    """chi of the space minus chi of the fiber over a value, both weighted
    by w; with the obstruction weight (the default) it is the global
    obstruction of the function at the value."""
    if w is None:
        w = eu_weight(census)
    return chi_global(census.base, w) - brasselet(census, at, w)


def signed_count_balance(
    census: FiberedCensus, alpha: StratumConstructibleFunction, counts: Mapping[str, int]
) -> int:
    """The sum over strata of (-1)^dim times the count times eta of alpha,
    taken in the order of ``counts``, which decides the absent link raised
    first."""
    total = 0
    for sid, n in counts.items():
        if n == 0:
            continue
        d = census.base.poset.stratum(sid).dim
        total += (-1 if d % 2 else 1) * n * eta(census.base, sid, alpha)
    return total


def local_fiber_defect(census: FiberedCensus, point_id: str) -> int:
    """Drop of the local fiber's chi at a critical point.

    Morse counts weighted by the sign of the stratum dimension and by eta of
    the constant function 1; equals 1 minus the chi of the local fiber of
    the function at the point.
    """
    counts = census.point(point_id).morse_counts
    return signed_count_balance(census, indicator_of_space(census.base), counts)


# --- identity verifiers ------------------------------------------------


def count_totals(
    census: FiberedCensus, kind: str = "morse_counts", excluding_value: str | None = None
) -> dict[str, int]:
    """Per-stratum totals of the critical points' ``morse_counts`` or
    ``milnor_numbers``, optionally without the points over one value, on
    every declared stratum in declaration order; others' counts are left out."""
    totals = dict.fromkeys(census.base.poset.ids(), 0)
    for q in census.critical_points:
        if q.value != excluding_value:
            for sid, n in getattr(q, kind).items():
                if sid in totals:
                    totals[sid] += n
    return totals


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
    return count_totals(census, "milnor_numbers")


def _closure_sums(integral: Callable[..., int]) -> Callable[..., tuple[int, int]]:
    """The verifier of a bdk_global identity, for a fiber integral called as
    integral(census, a, weight): the integral of w against the sum over
    closures of each closure's own integral weighted by eta of w.  The
    integral is linear in its weight, so that sum is the integral of w read
    back through the solver (``SolvedCensus.resolved``).  Fiber and
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
        return lhs, integral(census, a, solved.resolved(w))

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
    lhs = eu_of_f_at(census, GENERIC, w)
    rhs = signed_count_balance(census, w, counts) - total_brasselet_infinity(census, w)
    return lhs, rhs


def _cor_equi(census, a, w, counts, fiber) -> tuple[int, int]:
    base = census.base
    lhs = eu_of_f_at(census, GENERIC, w)
    d = base.top_dim()
    n_top = count_totals(census)[base.regular_part().id]
    rhs = (-1 if d % 2 else 1) * n_top - total_brasselet_infinity(census, w)
    return lhs, rhs


def _prop_any_value(census, a, w, counts, fiber) -> tuple[int, int]:
    counts = count_totals(census, excluding_value=a)
    lhs = eu_of_f_at(census, a, w)
    rhs = (
        signed_count_balance(census, w, counts)
        - total_brasselet_infinity(census, w)
        + brasselet_infinity(census, a, w)
    )
    return lhs, rhs


def _cor_generic_vs_any(census, a, w, counts, fiber) -> tuple[int, int]:
    base = census.base
    lhs = brasselet(census, a, w) - brasselet(census, GENERIC, w)
    d = base.top_dim()
    top = base.regular_part().id
    dropped = count_totals(census)[top] - count_totals(census, excluding_value=a)[top]
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


# --- the rows of a verification run ---------------------------------


@record
class CheckLine:
    """One row of a verification run: a checked identity or a skipped one.

    ``status`` is OK, FAIL or SKIP.  Skipped rows carry the reason in
    ``note`` and do not count as failures; a census is allowed not to
    declare the data some identity needs.
    """

    name: str
    status: str
    detail: str = ""
    lhs: int | None = None
    rhs: int | None = None
    note: str = ""

    @classmethod
    def compare(cls, name: str, lhs: int, rhs: int, detail: str = "") -> "CheckLine":
        """Both sides of one identity, compared exactly."""
        return cls(
            name=name,
            status="OK" if lhs == rhs else "FAIL",
            detail=detail,
            lhs=lhs,
            rhs=rhs,
        )

    @classmethod
    def skip(cls, name: str, detail: str, note: str) -> "CheckLine":
        return cls(name=name, status="SKIP", detail=detail, note=note)

    @property
    def ok(self) -> bool:
        return self.status == "OK"

    @property
    def sides(self) -> tuple[int | None, int | None]:
        return self.lhs, self.rhs

    def line(self) -> str:
        extra = f" [{self.detail}]" if self.detail else ""
        if self.status == "SKIP":
            return f"{self.name}{extra}: SKIP ({self.note})"
        return f"{self.name}{extra}: LHS={self.lhs} RHS={self.rhs} {self.status}"


def row_detail(at: str | None = None, alpha: str = "", use_milnor: bool = False) -> str:
    """The bracketed part of an identity row: the value, the weight and the
    kind of counts it was checked with, where given."""
    parts = [f"a={at}"] if at is not None else []
    if alpha:
        parts.append(f"alpha={alpha}")
    if use_milnor:
        parts.append("counts=milnor")
    return ", ".join(parts)


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
    general, and applies only to the identities that take counts.  An
    argument the identity does not take (a value, counts, a weight) is
    refused.  The arguments are checked in that order: value, whether counts
    apply, whether a weight applies, fiber census, counts, weight.  Data
    deficiencies raise InsufficientData; a row with differing sides is an
    honest verification failure, not an error.
    """
    entry = IDENTITIES.get(identity)
    if entry is None:
        raise IdentityArgumentError(f"unknown identity {identity!r}")
    if entry.values is not None:
        if at is None:
            raise IdentityArgumentError(f"identity {identity!r} needs a target value")
        census.require_label(at)
    elif at is not None:
        raise IdentityArgumentError(f"identity {identity!r} takes no target value")
    if use_milnor and not entry.counts:
        raise IdentityArgumentError("milnor counts do not apply to this identity")
    if alpha is not None and entry.weight != "alpha":
        raise IdentityArgumentError(
            f"identity {identity!r} takes no weight; its weight is {entry.weight}"
        )
    if entry.fiber and fiber_census is None:
        raise InsufficientData([f"fiber_census.{at}"])
    counts = None
    if entry.counts:
        counts = _milnor_totals(census) if use_milnor else count_totals(census)
    if entry.weight == "Eu":
        w = eu_weight(census)
    elif entry.weight == "alpha" and alpha is not None:
        w = alpha
    else:
        w = indicator_of_space(census.base)
    lhs, rhs = entry.sides(census, at, w, counts, fiber_census)
    return CheckLine.compare(identity, lhs, rhs, row_detail(at, use_milnor=use_milnor))


# --- solving one unknown census slot -------------------------------------


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
    from .slots import FieldPath, SolveResult

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
        if IDENTITIES[identity].structural:
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
