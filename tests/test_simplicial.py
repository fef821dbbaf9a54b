import pytest
from hypothesis import given

from strat_euler.errors import FaceClosureViolation, MemberNotInHost, SchemaError
from strat_euler.euler_calculus import (
    DIMENSION_CAP,
    Simplex,
    SimplicialComplex,
    SimplicialConstructibleFunction,
    complex_from_json,
    validate,
)

from conftest import closed_complexes
from oracles import chi_c, closed


def edge_complex():
    return closed([Simplex.of(0, 1)])


def circle_complex():
    return closed([Simplex.of(0, 1), Simplex.of(1, 2), Simplex.of(0, 2)])


def test_simplex_rejects_bad_vertex_tuples():
    with pytest.raises(ValueError):
        Simplex((1, 0))
    with pytest.raises(ValueError):
        Simplex((0, 0))
    with pytest.raises(ValueError):
        Simplex(())
    with pytest.raises(ValueError):
        Simplex((1, "a"))
    assert Simplex.of(2, 0, 1).vertices == (0, 1, 2)


def test_faces_of_triangle():
    faces = set(Simplex.of(0, 1, 2).faces())
    assert len(faces) == 7
    assert Simplex.of(0, 1, 2) in faces
    assert Simplex.of(1) in faces


def test_validate_catches_missing_face():
    cx = SimplicialComplex(frozenset({Simplex.of(0, 1)}))
    with pytest.raises(FaceClosureViolation):
        validate(cx)


def test_closed_interval_chi():
    assert chi_c(edge_complex().simplices) == 1


def test_circle_chi_c_vanishes():
    assert chi_c(circle_complex().simplices) == 0


def test_open_edge_versus_closure():
    assert chi_c([Simplex.of(0, 1)]) == -1


def test_weight_must_live_in_host():
    cx = edge_complex()
    with pytest.raises(MemberNotInHost):
        SimplicialConstructibleFunction(cx, {Simplex.of(5): 1})


@given(closed_complexes())
def test_closed_generators_validate(cx):
    validate(cx)


@given(closed_complexes())
def test_chi_c_is_additive_over_a_partition(cx):
    cells = sorted(cx.simplices, key=lambda s: (s.dim, s.vertices))
    half = cells[: len(cells) // 2]
    rest = cells[len(cells) // 2 :]
    assert chi_c(half) + chi_c(rest) == chi_c(cx.simplices)


def test_json_rejects_unsorted_vertices():
    with pytest.raises(SchemaError):
        complex_from_json({"simplices": [[1, 0]]})


def test_json_enforces_dimension_cap():
    top = complex_from_json({"simplices": [list(range(DIMENSION_CAP + 1))]})
    assert [s.dim for s in top.simplices] == [DIMENSION_CAP]
    with pytest.raises(SchemaError) as exc:
        complex_from_json({"simplices": [[0], list(range(DIMENSION_CAP + 2))]})
    assert str(exc.value) == "$.simplices[1]: dimension 9 exceeds cap 8"
