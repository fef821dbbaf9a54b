import pytest
from hypothesis import given

from strat_euler.errors import FaceClosureViolation, MemberNotInHost, SchemaError
from strat_euler.euler_calculus import (
    DIMENSION_CAP,
    Simplex,
    SimplexSubset,
    SimplicialComplex,
    chi,
    chi_c,
    complex_from_json,
    validate,
    whole,
)

from conftest import closed_complexes


def edge_complex():
    return SimplicialComplex.closed([Simplex.of(0, 1)])


def circle_complex():
    return SimplicialComplex.closed(
        [Simplex.of(0, 1), Simplex.of(1, 2), Simplex.of(0, 2)]
    )


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
    cx = edge_complex()
    assert chi_c(whole(cx)) == 1
    assert chi(cx) == 1


def test_circle_chi_c_vanishes():
    assert chi(circle_complex()) == 0


def test_open_edge_versus_closure():
    cx = edge_complex()
    interior = SimplexSubset(cx, frozenset({Simplex.of(0, 1)}))
    assert chi_c(interior) == -1


def test_subset_member_must_live_in_host():
    cx = edge_complex()
    with pytest.raises(MemberNotInHost):
        SimplexSubset(cx, frozenset({Simplex.of(5)}))


@given(closed_complexes())
def test_closed_generators_validate(cx):
    validate(cx)


@given(closed_complexes())
def test_chi_c_is_additive_over_a_partition(cx):
    cells = sorted(cx.simplices, key=lambda s: (s.dim, s.vertices))
    half = frozenset(cells[: len(cells) // 2])
    rest = frozenset(cells) - half
    assert chi_c(SimplexSubset(cx, half)) + chi_c(SimplexSubset(cx, rest)) == chi(cx)


def test_json_rejects_unsorted_vertices():
    with pytest.raises(SchemaError):
        complex_from_json({"simplices": [[1, 0]]})


def test_json_enforces_dimension_cap():
    with pytest.raises(SchemaError):
        complex_from_json({"simplices": [list(range(DIMENSION_CAP + 2))]})
