import random

import pytest
from hypothesis import given, strategies as st

from strat_euler.catalog import load_entry
from strat_euler.entries import list_entries
from strat_euler.errors import NotAPointStratum, NotEquidimensional, UnknownStratum
from strat_euler.obstruction import (
    check_bdk_point_formula,
    eu_function_of_space,
    global_euler_obstruction,
    invert_unitriangular,
    solve_bdk,
)
from strat_euler.strata import (
    StratifiedCensus,
    StratumConstructibleFunction,
    chi_global,
    eta,
    restrict_to_closure,
)
from strat_euler.table import LabeledMatrix

from conftest import censuses


@st.composite
def unitriangular_matrices(draw, max_size=8):
    n = draw(st.integers(1, max_size))
    rows = [
        [0] * i + [1] + [draw(st.integers(-4, 4)) for _ in range(n - i - 1)]
        for i in range(n)
    ]
    return rows


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@given(unitriangular_matrices())
def test_unitriangular_inverse_is_exact(rows):
    inv = invert_unitriangular(rows)
    n = len(rows)
    identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert matmul(rows, inv) == identity
    assert matmul(inv, rows) == identity


def test_invert_rejects_non_unitriangular_input():
    with pytest.raises(ValueError):
        invert_unitriangular([[2]])
    with pytest.raises(ValueError):
        invert_unitriangular([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        invert_unitriangular([[1, 0], [0]])


def census_of(name):
    return load_entry(name).census.base


def test_curve_singularity_golden_values():
    # multiplicity of the singular point of a plane curve: 2, 2, 3
    for name, expected in (
        ("node-linear", 2),
        ("cusp-linear", 2),
        ("triple-point-linear", 3),
    ):
        census = census_of(name)
        table = solve_bdk(census)
        assert table.entry("V1", table.labels[-1]) == expected, name
        assert table.entry("V2", table.labels[-1]) == 1, name
        assert table.entry("V2", "V2") == 1
        assert table.entry("V2", "V1") == 0


def test_a_table_entry_names_an_unknown_label():
    table = solve_bdk(census_of("cusp-linear"))
    with pytest.raises(UnknownStratum) as exc:
        table.entry("V1", "nope")
    assert str(exc.value) == "no stratum 'nope' in the table"


def test_global_obstruction_golden_values():
    for name, expected in (
        ("node-linear", 2),
        ("cusp-linear", 2),
        ("triple-point-linear", 3),
        ("broughton", 1),
        ("smooth-quadric-slice", 0),
    ):
        census = census_of(name)
        assert global_euler_obstruction(census) == expected, name


def test_smooth_census_obstruction_equals_chi():
    for name in ("zk-2", "broughton", "broughton-slice", "smooth-quadric-slice"):
        census = census_of(name)
        one = {i: 1 for i in census.poset.ids()}
        assert eu_function_of_space(census) == StratumConstructibleFunction(one)
        assert global_euler_obstruction(census) == chi_global(
            census, StratumConstructibleFunction(one)
        )


@given(censuses())
def test_delta_identity_defines_the_table(census):
    table = solve_bdk(census)
    for j in census.poset.ids():
        col = StratumConstructibleFunction({k: table.entry(k, j) for k in table.labels})
        for at in census.poset.ids():
            want = 1 if at == j else 0
            assert eta(census, at, col) == want


@given(censuses())
def test_point_formula_holds_on_any_census(census):
    for sid in census.poset.ids():
        if census.poset.stratum(sid).dim == 0:
            lhs, rhs = check_bdk_point_formula(census, sid)
            assert lhs == rhs


def test_point_formula_requires_a_point_stratum():
    census = census_of("node-linear")
    with pytest.raises(NotAPointStratum):
        check_bdk_point_formula(census, "V2")


def test_eu_of_space_needs_the_equidimensional_flag():
    base = census_of("node-linear")
    loose = StratifiedCensus(base.name, base.poset, base.links, equidimensional=False)
    with pytest.raises(NotEquidimensional):
        eu_function_of_space(loose)


def assert_locality(census):
    table = solve_bdk(census)
    for sid in census.poset.ids():
        small = restrict_to_closure(census, sid)
        small_table = solve_bdk(small)
        for at in small.poset.ids():
            for j in small.poset.ids():
                assert small_table.entry(at, j) == table.entry(at, j)


def test_solve_respects_closure_restriction_on_catalog():
    for name in list_entries():
        assert_locality(census_of(name))


@given(censuses())
def test_solve_respects_closure_restriction_randomized(census):
    assert_locality(census)


def test_table_matrices_are_labeled():
    census = census_of("cusp-linear")
    table = solve_bdk(census)
    assert table.entry("V1", "V2") == 2
    assert table.entry("V1", "V1") == table.entry("V2", "V2") == 1
    assert table.entry("V2", "V1") == 0
    assert "V2" in table.pretty()


def pretty_before(matrix):
    """``LabeledMatrix.pretty`` as it was: the width from every cell's text."""
    width = max([len(l) for l in matrix.labels] + [len(str(v)) for r in matrix.rows for v in r])
    head = " " * (width + 2) + " ".join(l.rjust(width) for l in matrix.labels)
    lines = [head]
    for label, row in zip(matrix.labels, matrix.rows):
        lines.append(label.rjust(width) + "  " + " ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines)


@pytest.mark.parametrize(
    "labels, rows, width",
    [
        (("a-long-label", "V2"), ((1, -20), (0, 1)), 12),
        (("V1", "V2", "V3"), ((1, -12345, 678), (0, 1, 9), (0, 0, 1)), 6),
        (("V1", "V2", "V3"), ((1, -12, 6789012), (0, 1, -9), (0, 0, 1)), 7),
        (("V1",), ((1,),), 2),
    ],
    ids=["label", "negative entry", "positive entry", "one stratum"],
)
def test_pretty_width_is_the_widest_cell(labels, rows, width):
    matrix = LabeledMatrix(labels, rows)
    text = matrix.pretty()
    assert text == pretty_before(matrix)
    assert len(text.splitlines()[0]) == (width + 1) * (len(labels) + 1)


def test_seeded_random_unitriangular_sweep():
    rng = random.Random(20260822)
    for _ in range(50):
        n = rng.randint(1, 12)
        rows = [
            [0] * i + [1] + [rng.randint(-9, 9) for _ in range(n - i - 1)]
            for i in range(n)
        ]
        inv = invert_unitriangular(rows)
        identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert matmul(rows, inv) == identity
