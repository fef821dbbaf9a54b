import pytest
from hypothesis import given

from strat_euler.errors import HostMismatch, InvalidMap
from strat_euler.euler_calculus import (
    Simplex,
    SimplexSubset,
    SimplicialComplex,
    SimplicialConstructibleFunction,
    SimplicialMap,
    check_fubini,
    chi_c,
    integrate,
    integrate_all,
    pushforward,
    whole,
)

from conftest import weighted_maps


def square_to_edge():
    # unit square on vertices 0..3 (0 ~ (0,0), 1 ~ (0,1), 2 ~ (1,0), 3 ~ (1,1)),
    # staircase-triangulated, projected onto the first coordinate
    src = SimplicialComplex.closed([Simplex.of(0, 1, 3), Simplex.of(0, 2, 3)])
    dst = SimplicialComplex.closed([Simplex.of(0, 1)])
    return SimplicialMap(src, dst, {0: 0, 1: 0, 2: 1, 3: 1})


def test_indicator_integrates_to_chi_c():
    cx = SimplicialComplex.closed([Simplex.of(0, 1), Simplex.of(1, 2)])
    one = SimplicialConstructibleFunction(cx, {s: 1 for s in cx.simplices})
    assert integrate_all(one) == 1
    edge = SimplexSubset(cx, frozenset({Simplex.of(0, 1)}))
    assert integrate(one, edge) == -1


def test_integrate_rejects_foreign_region():
    cx = SimplicialComplex.closed([Simplex.of(0, 1)])
    other = SimplicialComplex.closed([Simplex.of(0, 1, 2)])
    f = SimplicialConstructibleFunction(cx, {s: 1 for s in cx.simplices})
    with pytest.raises(HostMismatch):
        integrate(f, whole(other))


def test_integration_is_linear():
    cx = SimplicialComplex.closed([Simplex.of(0, 1)])
    f = SimplicialConstructibleFunction(cx, {Simplex.of(0): 2, Simplex.of(0, 1): -1})
    g = SimplicialConstructibleFunction(cx, {s: 3 * v for s, v in f.items()})
    sum_fg = SimplicialConstructibleFunction(cx, {s: f(s) + g(s) for s in cx.simplices})
    assert integrate_all(sum_fg) == integrate_all(f) + integrate_all(g) == 4 * integrate_all(f)


def test_map_must_cover_every_vertex():
    cx = SimplicialComplex.closed([Simplex.of(0, 1)])
    dst = SimplicialComplex.closed([Simplex.of(0)])
    with pytest.raises(InvalidMap):
        SimplicialMap(cx, dst, {0: 0})


def test_map_image_must_land_in_target():
    cx = SimplicialComplex.closed([Simplex.of(0, 1)])
    dst = SimplicialComplex.closed([Simplex.of(0), Simplex.of(1)])
    with pytest.raises(InvalidMap):
        SimplicialMap(cx, dst, {0: 0, 1: 1})


def test_projection_pushforward_counts_fiber_chi():
    proj = square_to_edge()
    one = SimplicialConstructibleFunction(proj.source, {s: 1 for s in proj.source.simplices})
    push = pushforward(proj, one)
    # the preimage of a vertex is a closed interval, chi_c = 1
    assert push(Simplex.of(0)) == chi_c(proj.fiber(Simplex.of(0))) == 1
    assert push(Simplex.of(1)) == chi_c(proj.fiber(Simplex.of(1))) == 1
    # over the open edge the value is per point; the whole strip multiplies
    # it by chi_c of the open edge
    strip = proj.fiber(Simplex.of(0, 1))
    assert chi_c(strip) == push(Simplex.of(0, 1)) * -1
    assert push(Simplex.of(0, 1)) == 1
    assert integrate_all(push) == 1


def test_fiber_of_projection_is_the_preimage_strip():
    proj = square_to_edge()
    strip = proj.fiber(Simplex.of(0, 1))
    assert chi_c(strip) == -1


@given(weighted_maps())
def test_fubini_holds_for_random_maps(setup):
    m, alpha = setup
    lhs, rhs = check_fubini(m, alpha)
    assert lhs == rhs
