"""The whole obstruction table, which only ``compute --what eu-table`` prints.

Every other reader of a census solves one closure column or one weight of
``census.solved`` (see :class:`strata.SolvedCensus`).
:func:`obstruction.solve_bdk` imports this module when it is asked for the
whole table: :func:`solve_rows` solves it from the top of the (dim, id)
order over the link rows ``census.solved.rows``, each row packed into one
integer, and :class:`LabeledMatrix` lays it out.
"""

from __future__ import annotations

from .errors import UnknownStratum
from .records import record
from .strata import SolvedCensus


def solve_rows(solved: SolvedCensus) -> tuple[tuple[int, ...], ...]:
    """The value rows of the whole table, in (dim, id) order: entry [m][j]
    is the obstruction of the closure of j at points of m.  Needs every
    link.

    Coefficient entry [i][j], the closure-basis coefficient of closure i in
    the obstruction of the closure of j, is delta_ij plus a_ik times entry
    [k][j] for each step (k, a_ik = link(i, k) - 1) of ``solved.rows[i]``;
    value row m is the sum of the coefficient rows of m and of every stratum
    above m, and is zero off m and its up-set.  Each row is one int, entry j
    in a field of w bits at bit w*j, so each step is one big-int multiply-add.
    Python ints are exact, so the packed sums lose nothing, and the fields
    only have to hold the final entries: B_i = 1 + sum |a_ik| B_k bounds
    row i, and a value row the bounds of the rows it sums.
    """
    solved.require_links()
    link_rows, above = solved.rows, solved.above
    n = len(above)
    bounds = [0] * n
    for i in reversed(range(n)):
        bounds[i] = 1 + sum(abs(a) * bounds[k] for k, a in link_rows[i][0])
    top = max(bounds[m] + sum(map(bounds.__getitem__, above[m])) for m in range(n))
    # whole bytes, two bits to spare: every entry lies strictly within half a field
    size = (top.bit_length() + 9) // 8
    width = 8 * size
    rows = [0] * n
    for i in reversed(range(n)):
        row = 1 << (width * i)
        for k, a in link_rows[i][0]:
            row += a * rows[k]
        rows[i] = row
    # half a field added to each makes every field nonnegative
    half = 1 << (width - 1)
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    values = []
    for m in range(n):
        packed = rows[m] + offset
        for i in above[m]:
            packed += rows[i]
        view = memoryview(packed.to_bytes(size * n, "little"))
        row = [0] * n
        for j in (m, *above[m]):
            row[j] = int.from_bytes(view[size * j : size * (j + 1)], "little") - half
        values.append(tuple(row))
    return tuple(values)


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
        # the text of an integer is longest at the largest or the smallest one
        extremes = (min(map(min, self.rows)), max(map(max, self.rows)))
        width = max(*map(len, self.labels), *(len(str(v)) for v in extremes))
        cells = " ".join([f"%{width}s"] * len(self.labels))
        lines = [" " * (width + 2) + cells % tuple(self.labels)]
        for label, row in zip(self.labels, self.rows):
            lines.append(label.rjust(width) + "  " + cells % tuple(row))
        return "\n".join(lines)
