import pytest

from strat_euler import (
    GENERIC,
    MissingPolarData,
    PolarData,
    brasselet,
    brasselet_from_polar,
    brasselet_infinity,
    eu_weight,
    hyperplane_step,
    infinity_from_polar,
    list_entries,
    load_entry,
    stv_global_eu,
    global_euler_obstruction,
)


def test_polar_data_validates_lengths():
    polar = PolarData(gamma={GENERIC: (3, 3)}, alpha=(1, 0, 0))
    polar.validate(2)
    with pytest.raises(ValueError):
        polar.validate(1)
    with pytest.raises(ValueError):
        PolarData(gamma={GENERIC: (3,)}, alpha=(1, 0, 0)).validate(1)
    with pytest.raises(MissingPolarData):
        polar.gamma_at("0")


def test_every_polar_route_checks_the_list_lengths():
    # library callers build PolarData by hand, without the loader's check
    ambient = load_entry("broughton")
    census, polar = ambient.census, ambient.polar
    slice_census = load_entry("broughton-slice").census
    d = census.base.top_dim()
    long_gamma = PolarData(
        gamma={k: v + (0,) for k, v in polar.gamma.items()}, alpha=polar.alpha
    )
    short_alpha = PolarData(gamma=polar.gamma, alpha=polar.alpha[:-1])
    gamma_text = f"gamma list for {GENERIC!r} has length {d + 1}, expected the complex dimension {d}"
    alpha_text = f"alpha list has length {d}, expected {d + 1}"
    routes = (
        lambda bad: brasselet_from_polar(census, bad, "0"),
        lambda bad: infinity_from_polar(census, bad, "0"),
        lambda bad: stv_global_eu(census, bad),
        lambda bad: hyperplane_step(census, bad, slice_census, "0"),
    )
    for route in routes:
        for bad, text in ((long_gamma, gamma_text), (short_alpha, alpha_text)):
            with pytest.raises(ValueError) as exc:
                route(bad)
            assert str(exc.value) == text


def test_polar_brasselet_matches_fiber_brasselet_everywhere():
    for name in list_entries():
        bundle = load_entry(name)
        if bundle.polar is None:
            continue
        census = bundle.census
        w = eu_weight(census)
        for label in census.special_values + (GENERIC,):
            if label not in bundle.polar.gamma:
                continue
            assert brasselet_from_polar(census, bundle.polar, label) == brasselet(
                census, label, w
            ), (name, label)


def test_polar_infinity_matches_census_infinity():
    for name in list_entries():
        bundle = load_entry(name)
        if bundle.polar is None:
            continue
        census = bundle.census
        w = eu_weight(census)
        for label in census.special_values:
            if label not in bundle.polar.gamma:
                continue
            assert infinity_from_polar(census, bundle.polar, label) == (
                brasselet_infinity(census, label, w)
            ), (name, label)


def test_generic_slice_counts_recover_the_global_obstruction():
    for name in ("node-linear", "cusp-linear", "triple-point-linear"):
        bundle = load_entry(name)
        census = bundle.census
        report = stv_global_eu(census, bundle.polar)
        assert report.ok
        assert report.rhs == global_euler_obstruction(census.base)


def test_stv_needs_generic_linear_counts():
    bundle = load_entry("node-linear")
    census = bundle.census
    stripped = PolarData(gamma=bundle.polar.gamma, alpha=None)
    with pytest.raises(MissingPolarData):
        stv_global_eu(census, stripped)


def test_wrong_polar_count_is_detected():
    bundle = load_entry("zk-3")
    census = bundle.census
    bad = PolarData(gamma={**bundle.polar.gamma, "0": (1,)}, alpha=bundle.polar.alpha)
    w = eu_weight(census)
    assert brasselet_from_polar(census, bad, "0") != brasselet(census, "0", w)
    assert infinity_from_polar(census, bad, "0") != brasselet_infinity(census, "0", w)


def test_hyperplane_step_on_the_plane_family():
    ambient = load_entry("broughton")
    slice_bundle = load_entry("broughton-slice")
    report = hyperplane_step(
        ambient.census, ambient.polar, slice_bundle.census, "0"
    )
    assert report.ok
    assert report.lhs == -2
    assert report.rhs == -2


def test_hyperplane_step_needs_positive_dimension():
    # a zero-dimensional space has no further hyperplane to cut with
    empty_polar = PolarData(gamma={"0": (), GENERIC: ()})
    slice_census = load_entry("zk-2").census
    with pytest.raises(MissingPolarData):
        hyperplane_step(_dim_zero_census(), empty_polar, slice_census, "0")


def _dim_zero_census():
    from strat_euler import FiberedCensus, LinkTable, StratifiedCensus, Stratum, StratumPoset

    base = StratifiedCensus(
        "pt",
        StratumPoset((Stratum("P", 0, 1, True),), frozenset()),
        LinkTable({}),
        equidimensional=True,
    )
    return FiberedCensus(
        base, special_values=("0",), fiber_chi={"P": {"0": 1, GENERIC: 0}}
    )
