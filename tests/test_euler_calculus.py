import pytest
from hypothesis import given

from strat_euler.errors import HostMismatch, InvalidMap
from strat_euler.euler_calculus import (
    Simplex,
    SimplicialConstructibleFunction,
    SimplicialMap,
    check_fubini,
    integrate_all,
    pushforward,
)

from conftest import weighted_maps
from oracles import chi_c, closed, fiber


def square_to_edge():
    # unit square on vertices 0..3 (0 ~ (0,0), 1 ~ (0,1), 2 ~ (1,0), 3 ~ (1,1)),
    # staircase-triangulated, projected onto the first coordinate
    src = closed([Simplex.of(0, 1, 3), Simplex.of(0, 2, 3)])
    dst = closed([Simplex.of(0, 1)])
    return SimplicialMap(src, dst, {0: 0, 1: 0, 2: 1, 3: 1})


def test_indicator_integrates_to_chi_c():
    cx = closed([Simplex.of(0, 1), Simplex.of(1, 2)])
    one = SimplicialConstructibleFunction(cx, {s: 1 for s in cx.simplices})
    assert integrate_all(one) == chi_c(cx.simplices) == 1
    edge = SimplicialConstructibleFunction(cx, {Simplex.of(0, 1): 1})
    assert integrate_all(edge) == chi_c([Simplex.of(0, 1)]) == -1


def test_pushforward_rejects_a_weight_on_another_complex():
    proj = square_to_edge()
    other = closed([Simplex.of(0, 1, 2)])
    f = SimplicialConstructibleFunction(other, {s: 1 for s in other.simplices})
    with pytest.raises(HostMismatch):
        pushforward(proj, f)


def test_integration_is_linear():
    cx = closed([Simplex.of(0, 1)])
    f = SimplicialConstructibleFunction(cx, {Simplex.of(0): 2, Simplex.of(0, 1): -1})
    g = SimplicialConstructibleFunction(cx, {s: 3 * v for s, v in f.items()})
    sum_fg = SimplicialConstructibleFunction(cx, {s: f(s) + g(s) for s in cx.simplices})
    assert integrate_all(sum_fg) == integrate_all(f) + integrate_all(g) == 4 * integrate_all(f)


def test_map_must_cover_every_vertex():
    cx = closed([Simplex.of(0, 1)])
    dst = closed([Simplex.of(0)])
    with pytest.raises(InvalidMap):
        SimplicialMap(cx, dst, {0: 0})


def test_map_image_must_land_in_target():
    cx = closed([Simplex.of(0, 1)])
    dst = closed([Simplex.of(0), Simplex.of(1)])
    with pytest.raises(InvalidMap):
        SimplicialMap(cx, dst, {0: 0, 1: 1})


def test_projection_pushforward_counts_fiber_chi():
    proj = square_to_edge()
    one = SimplicialConstructibleFunction(proj.source, {s: 1 for s in proj.source.simplices})
    push = pushforward(proj, one)
    # the preimage of a vertex is a closed interval, chi_c = 1
    assert push(Simplex.of(0)) == chi_c(fiber(proj, Simplex.of(0))) == 1
    assert push(Simplex.of(1)) == chi_c(fiber(proj, Simplex.of(1))) == 1
    # over the open edge the value is per point; the whole strip multiplies
    # it by chi_c of the open edge
    strip = fiber(proj, Simplex.of(0, 1))
    assert chi_c(strip) == push(Simplex.of(0, 1)) * -1
    assert push(Simplex.of(0, 1)) == 1
    assert integrate_all(push) == 1


def test_fiber_of_projection_is_the_preimage_strip():
    proj = square_to_edge()
    strip = fiber(proj, Simplex.of(0, 1))
    assert chi_c(strip) == -1


@given(weighted_maps())
def test_integral_is_the_walk_over_every_host_simplex(setup):
    """The integral of a weight, and of its pushforward, against the signed
    count of every open simplex of the host, zero weights included; and the
    pushforward on each open target simplex against its fiber."""
    m, alpha = setup
    push = pushforward(m, alpha)
    for f in (alpha, push):
        assert integrate_all(f) == sum(f(s) * chi_c([s]) for s in f.host.simplices)
    for t in m.target.simplices:
        over_t = sum(alpha(s) * chi_c([s]) for s in fiber(m, t))
        assert push(t) * chi_c([t]) == over_t


@given(weighted_maps())
def test_fubini_holds_for_random_maps(setup):
    m, alpha = setup
    lhs, rhs = check_fubini(m, alpha)
    assert lhs == rhs
