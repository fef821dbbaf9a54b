"""The one result record: a row of a verification run.

Identity verifiers, the check battery and the command line all produce
:class:`CheckLine` rows; a compared row carries both sides of its identity,
a skipped one the reason it was skipped.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
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
