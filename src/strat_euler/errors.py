"""Exception hierarchy shared across the package.

Every error raised on bad input data derives from :class:`CensusError` so the
command line tool can map "your data is malformed or insufficient" to a single
exit code.  Verification *failures* (an identity that does not hold) are not
errors; they are reported as ordinary results.
"""

from __future__ import annotations


class CensusError(Exception):
    """Base class for all input-data errors raised by this package."""


class SchemaError(CensusError):
    """A JSON document does not match the expected schema.

    ``path`` is a JSON-path-like string locating the offending value,
    e.g. ``$.strata[0].dim``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# simplicial layer

class FaceClosureViolation(CensusError):
    """A simplex is present whose face is missing from the complex."""


class MemberNotInHost(CensusError):
    """A subset names a simplex that its host complex does not contain."""


class NotASubcomplex(CensusError):
    """The claimed subcomplex is not contained in the ambient complex."""


class HostMismatch(CensusError):
    """Two objects that must share a host complex do not."""


class InvalidMap(CensusError):
    """A vertex map does not define a simplicial map."""


# stratified census layer

class MissingLinkEntry(CensusError):
    """A complex-link Euler characteristic needed for a computation is absent."""

    def __init__(self, lower: str, upper: str):
        self.pair = (lower, upper)
        super().__init__(f"no link entry for {lower} inside closure of {upper}")


class UnknownStratum(CensusError):
    """A stratum id is referenced that the census does not declare."""


class NotEquidimensional(CensusError):
    """An operation requiring the equidimensionality flag was refused."""


class NotAPointStratum(CensusError):
    """A point-stratum operation was applied to a positive-dimensional stratum."""


# fibered census layer

class UnknownValueLabel(CensusError):
    """A target-value label outside the declared special values (plus GENERIC)."""


class UnknownCriticalPoint(CensusError):
    """A critical point id is referenced that the census does not declare."""


class PointNotInClosure(CensusError):
    """A critical point does not lie in the named closed stratum closure."""


class InsufficientData(CensusError):
    """A computation needs census fields that were not provided.

    ``fields`` lists the missing slots in dotted-path form, such as
    ``fiber_chi.V2.generic``.
    """

    def __init__(self, fields: list[str] | tuple[str, ...]):
        self.fields = tuple(fields)
        super().__init__("missing census data: " + ", ".join(self.fields))


class AmbientObstructionMismatch(CensusError, ValueError):
    """A critical point declares an ambient obstruction ``eu_space_at_q``
    that differs from the one the census implies at its stratum."""

    def __init__(self, point: str, declared: int, implied: int):
        self.point = point
        self.declared = declared
        self.implied = implied
        super().__init__(
            f"critical point {point!r} declares ambient obstruction "
            f"{declared}, census implies {implied}"
        )


class IdentityArgumentError(CensusError, ValueError):
    """An identity name that does not exist, or a call that omits an
    argument the identity needs or passes one it refuses."""


class NotSolvable(CensusError):
    """solve_unknown cannot determine the requested field from the identity."""


# polar layer

class MissingPolarData(CensusError):
    """Polar intersection data needed for a computation is absent."""


# catalog layer

class UnknownEntry(CensusError):
    """A catalog entry name that does not exist."""
