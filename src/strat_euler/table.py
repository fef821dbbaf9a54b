"""The whole obstruction table, which only ``compute --what eu-table`` prints.

Every other reader of a census solves one closure column or one weight of
``census.solved`` (see :class:`strata.SolvedCensus`).
:func:`obstruction.solve_bdk` imports this module when it is asked for the
whole table: :func:`solve_rows` solves it row by row from the top of the
(dim, id) order, and :class:`LabeledMatrix` lays it out.
"""

from __future__ import annotations

from .errors import UnknownStratum
from .records import record
from .strata import SolvedCensus


def solve_rows(solved: SolvedCensus) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Coefficient rows and value rows of the whole table, row m keyed by
    index over m and its up-set.  Coefficient entry [i][j] is the
    closure-basis coefficient of closure i in the obstruction of the
    closure of j; value entry [m][j] is that obstruction at points of m,
    the sum of the coefficient rows of m and of every stratum above m.
    Needs every link."""
    solved.require_links()
    order, above = solved.order, solved.above
    links = solved.census.links.entries
    coeffs: list[dict[int, int]] = [{}] * len(order)
    for i in reversed(range(len(order))):
        row = dict.fromkeys(above[i], 0)
        row[i] = 1
        at = order[i]
        for k in above[i]:
            # a link of chi 1 puts 0 into the eta matrix
            a = links[at, order[k]] - 1
            if a:
                for j, c in coeffs[k].items():
                    row[j] += a * c
        coeffs[i] = row
    values = []
    for m in range(len(order)):
        row = dict(coeffs[m])
        for i in above[m]:
            for j, c in coeffs[i].items():
                row[j] += c
        values.append(row)
    return coeffs, values


@record
class LabeledMatrix:
    """A square integer matrix with stratum ids labeling rows and columns."""

    labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def entry(self, row_label: str, col_label: str) -> int:
        return self.rows[self._position(row_label)][self._position(col_label)]

    def _position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownStratum(f"no stratum {label!r} in the table") from None

    def pretty(self) -> str:
        width = max(
            [len(l) for l in self.labels] + [len(str(v)) for r in self.rows for v in r]
        )
        head = " " * (width + 2) + " ".join(l.rjust(width) for l in self.labels)
        lines = [head]
        for label, row in zip(self.labels, self.rows):
            lines.append(label.rjust(width) + "  " + " ".join(str(v).rjust(width) for v in row))
        return "\n".join(lines)
