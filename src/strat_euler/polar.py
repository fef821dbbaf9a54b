"""Polar intersection data and the identities tying it to fiber invariants.

The census-side Brasselet numbers are fiber integrals; the polar route
computes the same numbers from intersection multiplicities of polar curves
with fibers, sliced down by generic hyperplanes.  Both routes are kept and
compared, since agreeing on every catalog space is a strong cross-check of
the whole pipeline.

Data layout: for a space of complex dimension d, each value label carries a
list of d intersection numbers, ordered from the ambient polar curve down to
the curve section ``[g(d-1), ..., g(0)]`` where ``g(d-i)`` lives on the
space cut by i-1 generic hyperplanes.  The optional ``alpha`` list holds the
d+1 generic-linear polar counts ``[a(0), ..., a(d)]`` of the space itself,
whose alternating sum recovers the global obstruction.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import MissingPolarData
from .fibered import (
    FiberedCensus,
    GENERIC,
    brasselet,
    eu_of_function_local,
    eu_weight,
    resolve_value_label,
)
from .obstruction import global_euler_obstruction
from .records import record
from .reports import CheckLine


@record
class PolarData:
    """Polar intersection numbers attached to one fibered census."""

    gamma: Mapping[str, tuple[int, ...]]
    alpha: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "gamma", {k: tuple(v) for k, v in self.gamma.items()}
        )
        if self.alpha is not None:
            object.__setattr__(self, "alpha", tuple(self.alpha))

    def validate(self, top_dim: int) -> None:
        for label, seq in self.gamma.items():
            if len(seq) != top_dim:
                raise ValueError(
                    f"gamma list for {label!r} has length {len(seq)}, expected "
                    f"the complex dimension {top_dim}"
                )
        if self.alpha is not None and len(self.alpha) != top_dim + 1:
            raise ValueError(
                f"alpha list has length {len(self.alpha)}, expected {top_dim + 1}"
            )

    def gamma_at(self, label: str) -> tuple[int, ...]:
        try:
            return self.gamma[label]
        except KeyError:
            raise MissingPolarData(f"no polar data at value {label!r}") from None


def _alternating_gamma(seq: Sequence[int], top_dim: int) -> int:
    # sum over i=1..d of (-1)^(d-i) times the entry on the (i-1)-fold slice
    return sum((-1) ** (top_dim - i) * seq[i - 1] for i in range(1, top_dim + 1))


def _local_terms(census: FiberedCensus, at: str) -> int:
    # the local obstructions of the function at the critical points over a value
    top = census.base.regular_part().id
    return sum(eu_of_function_local(census, q.id, top) for q in census.points_at(at))


def brasselet_from_polar(census: FiberedCensus, polar: PolarData, at: str) -> int:
    """Brasselet number of one fiber computed from polar intersections.

    Alternating sum of the intersection numbers at the value, plus the local
    obstructions of the function at the critical points sitting over it.
    The local terms vanish at a generic value, where no critical points sit.
    """
    census.require_label(at)
    d = census.base.top_dim()
    polar.validate(d)
    return _alternating_gamma(polar.gamma_at(at), d) + _local_terms(census, at)


def infinity_from_polar(census: FiberedCensus, polar: PolarData, at: str) -> int:
    """Correction at infinity as a deficiency of polar intersections.

    Each slice contributes the drop of its intersection number from the
    generic value to the given one; a value with full polar contact at every
    slice level has no correction."""
    census.require_label(at)
    d = census.base.top_dim()
    polar.validate(d)
    generic = _alternating_gamma(polar.gamma_at(GENERIC), d)
    return generic - _alternating_gamma(polar.gamma_at(at), d)


def stv_global_eu(census: FiberedCensus, polar: PolarData) -> CheckLine:
    """Alternating sum of generic-linear polar counts against the global
    obstruction of the space.  Every link of the census is needed first,
    ahead of the polar data."""
    census.base.solved.require_links()
    d = census.base.top_dim()
    polar.validate(d)
    if polar.alpha is None:
        raise MissingPolarData("no generic-linear polar counts (alpha) declared")
    lhs = sum((-1 if i % 2 else 1) * polar.alpha[i] for i in range(d + 1))
    rhs = global_euler_obstruction(census.base)
    return CheckLine.compare("stv_global_eu", lhs, rhs)


def hyperplane_step(
    census: FiberedCensus,
    polar: PolarData,
    slice_census: FiberedCensus,
    at: str,
) -> CheckLine:
    """One slicing step: the drop of the Brasselet number to a generic
    hyperplane slice equals the signed ambient polar intersection plus the
    local obstructions of the function over the value.

    The slice census is a census of the space cut by one generic hyperplane.
    A value special for the space need not be special for the slice, so the
    slice lookup goes through :func:`resolve_value_label`.
    """
    census.require_label(at)
    d = census.base.top_dim()
    polar.validate(d)
    lhs = brasselet(census, at, eu_weight(census))
    lhs -= brasselet(
        slice_census, resolve_value_label(slice_census, at), eu_weight(slice_census)
    )
    gamma = polar.gamma_at(at)
    if not gamma:
        raise MissingPolarData(f"no ambient polar entry at {at!r} (dimension 0)")
    sign = -1 if (d - 1) % 2 else 1
    rhs = sign * gamma[0] + _local_terms(census, at)
    return CheckLine.compare("hyperplane_step", lhs, rhs, f"a={at}")
