import json
from pathlib import Path

import pytest
from hypothesis import given

from strat_euler import (
    GENERIC,
    IDENTITIES,
    FieldPath,
    IDENTITY_NAMES,
    STRUCTURAL_IDENTITIES,
    InsufficientData,
    NotSolvable,
    PointNotInClosure,
    StratumConstructibleFunction,
    UnknownCriticalPoint,
    UnknownStratum,
    UnknownValueLabel,
    brasselet,
    check_identity,
    detect_irregular_values,
    eu_of_f_at,
    eu_of_function_local,
    eu_weight,
    lambda_infinity,
    load_document,
    load_entry,
    local_fiber_defect,
    resolve_value_label,
    restrict_fibered,
    solve_unknown,
    total_brasselet_infinity,
    total_lambda_infinity,
)
from strat_euler.records import replace

from conftest import blank_field, fibered_censuses

DATA = Path(__file__).parent / "data"


def fibered(name):
    return load_entry(name).census


def test_value_labels_are_strict():
    census = fibered("zk-3")
    census.require_label("0")
    census.require_label(GENERIC)
    with pytest.raises(UnknownValueLabel):
        census.require_label("7")
    with pytest.raises(UnknownValueLabel):
        brasselet(census, "7")


def test_resolve_value_label_falls_back_to_generic():
    census = fibered("zk-3")
    assert resolve_value_label(census, "0") == "0"
    assert resolve_value_label(census, "anything else") == GENERIC
    assert resolve_value_label(census, GENERIC) == GENERIC


def test_brasselet_golden_values():
    node = fibered("node-linear")
    w = eu_weight(node)
    assert brasselet(node, "0", w) == 2
    assert brasselet(node, GENERIC, w) == 2
    assert brasselet(node, "0") == 1
    assert brasselet(node, GENERIC) == 2


def test_brasselet_reports_missing_fiber_entries():
    census = blank_field(fibered("node-linear"), "fiber_chi.V2.0")
    with pytest.raises(InsufficientData) as exc:
        brasselet(census, "0")
    assert exc.value.fields == ("fiber_chi.V2.0",)
    # zero weight on the gap keeps the sum computable
    assert brasselet(census, "0", StratumConstructibleFunction({"V1": 1})) == 1


def test_eu_of_f_at_golden_values():
    cusp = fibered("cusp-linear")
    assert eu_of_f_at(cusp, GENERIC) == -1
    assert eu_of_f_at(cusp, "0") == -1
    assert eu_of_f_at(cusp, "v1") == 0


def test_infinity_corrections_on_the_plane_family():
    census = fibered("broughton")
    assert lambda_infinity(census, "0") == -1
    assert total_lambda_infinity(census) == -1
    assert total_brasselet_infinity(census, eu_weight(census)) == -1


def test_detect_irregular_values():
    assert detect_irregular_values(fibered("broughton")) == ["0"]
    assert detect_irregular_values(fibered("zk-4")) == []
    assert detect_irregular_values(fibered("smooth-quadric-slice")) == []


def test_local_fiber_defect_golden_values():
    for k in range(2, 7):
        census = fibered(f"zk-{k}")
        assert local_fiber_defect(census, "q1") == 1 - k
    assert local_fiber_defect(fibered("node-linear"), "q1") == -1
    assert local_fiber_defect(fibered("triple-point-linear"), "q1") == -2
    with pytest.raises(UnknownCriticalPoint):
        local_fiber_defect(fibered("node-linear"), "missing")


def test_local_function_obstruction():
    cusp = fibered("cusp-linear")
    assert eu_of_function_local(cusp, "q2", "V2") == -1
    assert eu_of_function_local(cusp, "q1", "V2") == 0
    with pytest.raises(PointNotInClosure):
        eu_of_function_local(cusp, "q2", "V1")


def test_check_identity_rejects_unknown_names_and_missing_targets():
    census = fibered("zk-2")
    with pytest.raises(ValueError):
        check_identity(census, "no_such_identity")
    with pytest.raises(ValueError):
        check_identity(census, "prop_any_value")
    with pytest.raises(UnknownValueLabel):
        check_identity(census, "prop_any_value", at="77")


def test_all_identities_verify_on_the_cusp():
    census = fibered("cusp-linear")
    bundle = load_entry("cusp-linear")
    for name in IDENTITY_NAMES:
        kwargs = {}
        if IDENTITIES[name].values is not None:
            kwargs["at"] = "0"
        if IDENTITIES[name].fiber:
            kwargs["fiber_census"] = bundle.fiber_censuses["0"]
        report = check_identity(census, name, **kwargs)
        assert report.ok, report.line()


def test_missing_fiber_slots_are_named_in_declared_order():
    census = load_document(json.loads((DATA / "wide-n21.json").read_text())).census
    w = eu_weight(census)
    with pytest.raises(InsufficientData) as exc:
        brasselet(replace(census, fiber_chi={}), "0", w)
    # the order the census declares its strata in (P2 before P10), not the
    # (dim, id) order the weight lists its support in
    declared = [f"fiber_chi.{sid}.0" for sid in census.base.poset.ids() if w.value(sid)]
    assert list(exc.value.fields) == declared
    assert declared != [f"fiber_chi.{sid}.0" for sid in w.coeffs]


def test_milnor_variant_needs_a_general_function():
    census = replace(fibered("cusp-linear"), f_general=False)
    with pytest.raises(InsufficientData) as exc:
        check_identity(census, "thm_generic_fiber", use_milnor=True)
    assert exc.value.fields == ("f_general",)


def test_declared_ambient_obstruction_is_cross_checked():
    bundle = load_entry("node-linear")
    census = bundle.census
    bad_points = tuple(
        replace(q, eu_space_at_q=5) for q in census.critical_points
    )
    bad = replace(census, critical_points=bad_points)
    with pytest.raises(ValueError):
        check_identity(
            bad,
            "prop_brasselet_vs_fiber_eu",
            at="0",
            fiber_census=bundle.fiber_censuses["0"],
        )
    good_points = tuple(
        replace(q, eu_space_at_q=2) for q in census.critical_points
    )
    good = replace(census, critical_points=good_points)
    report = check_identity(
        good,
        "prop_brasselet_vs_fiber_eu",
        at="0",
        fiber_census=bundle.fiber_censuses["0"],
    )
    assert report.ok


@given(fibered_censuses())
def test_structural_identities_hold_for_arbitrary_data(census):
    for name in sorted(STRUCTURAL_IDENTITIES):
        if name in ("bdk_global_1", "bdk_global_3"):
            for at in census.special_values + (GENERIC,):
                assert check_identity(census, name, at=at).ok
        else:
            assert check_identity(census, name).ok


def test_solver_recovers_blanked_slots():
    for name, identity, path, kwargs, want in (
        ("zk-3", "thm_generic_fiber", "fiber_chi.V1.generic", {}, 3),
        ("zk-3", "value_consistency", "morse_counts.q1.V1", {"at": "0"}, 2),
        ("node-linear", "thm_generic_fiber", "chi.V1", {}, 1),
        ("broughton", "cor_generic_vs_any", "infinity_chi.V1.0", {"at": "0"}, -1),
        ("cusp-linear", "prop_any_value", "fiber_chi.V2.v1", {"at": "v1"}, 2),
    ):
        census = blank_field(fibered(name), path)
        result = solve_unknown(census, identity, path, **kwargs)
        assert result.value == want, (name, identity, path)
        final = check_identity(result.completed, identity, **kwargs)
        assert final.ok


def test_solver_refuses_present_fields_and_structural_identities():
    census = fibered("zk-2")
    with pytest.raises(NotSolvable):
        solve_unknown(census, "thm_generic_fiber", "fiber_chi.V1.generic")
    blanked = blank_field(census, "fiber_chi.V1.generic")
    for name in sorted(STRUCTURAL_IDENTITIES):
        with pytest.raises(NotSolvable) as exc:
            solve_unknown(
                blanked, name, "fiber_chi.V1.generic", at="0"
            )
        assert "arbitrary census data" in str(exc.value)


def test_solver_rejects_non_integer_solutions():
    bundle = load_entry("node-linear")
    census = blank_field(bundle.census, "fiber_chi.V1.0")
    # an off-by-one fiber census makes the required value a half-integer
    wrong_fiber = load_entry("cusp-linear").fiber_censuses["0"]
    with pytest.raises(NotSolvable) as exc:
        solve_unknown(
            census,
            "prop_brasselet_vs_fiber_eu",
            "fiber_chi.V1.0",
            at="0",
            fiber_census=wrong_fiber,
        )
    assert "divisible" in str(exc.value)


def test_solver_validates_the_field_path_first():
    census = fibered("zk-2")
    with pytest.raises(Exception):
        solve_unknown(census, "thm_generic_fiber", "fiber_chi.nope.generic")
    with pytest.raises(NotSolvable) as exc:
        solve_unknown(census, "thm_generic_fiber", "bogus.path")
    assert "solvable slots" in str(exc.value)


def test_restrict_fibered_filters_points_and_columns():
    cusp = fibered("cusp-linear")
    small = restrict_fibered(cusp, "V1")
    assert small.base.poset.ids() == ["V1"]
    assert [q.id for q in small.critical_points] == ["q1"]
    assert small.fiber_chi["V1"]["0"] == 1
    assert small.special_values == cusp.special_values
    full = restrict_fibered(cusp, "V2")
    assert {q.id for q in full.critical_points} == {"q1", "q2"}


@pytest.mark.parametrize(
    "path, error",
    [
        ("chi.nope", UnknownStratum),
        ("fiber_chi.nope.0", UnknownStratum),
        ("fiber_chi.V2.nope", UnknownValueLabel),
        ("infinity_chi.nope.0", UnknownStratum),
        ("infinity_chi.V2.generic", UnknownValueLabel),
        # the point is looked up before the stratum
        ("morse_counts.nope.nope", UnknownCriticalPoint),
        ("morse_counts.q1.nope", UnknownStratum),
        ("weird.path", NotSolvable),
        ("chi", NotSolvable),
        ("chi.V1.0", NotSolvable),
        ("fiber_chi.V2", NotSolvable),
    ],
)
def test_field_paths_reject_unknown_slots(path, error):
    census = fibered("cusp-linear")
    with pytest.raises(error):
        FieldPath.parse(path).get(census)
    with pytest.raises(error):
        FieldPath.parse(path).set(census, 1)
