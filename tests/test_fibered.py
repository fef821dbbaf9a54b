import json
from pathlib import Path

import pytest
from hypothesis import given

from strat_euler.catalog import load_entry
from strat_euler.census_io import load_document
from strat_euler.compute import detect_irregular_values
from strat_euler.errors import (
    InsufficientData,
    NotSolvable,
    PointNotInClosure,
    UnknownCriticalPoint,
    UnknownStratum,
    UnknownValueLabel,
)
from strat_euler.fibered import (
    IDENTITIES,
    check_identity,
    eu_of_f_at,
    local_fiber_defect,
    restrict_fibered,
    solve_unknown,
    total_brasselet_infinity,
)
from strat_euler.fibration import (
    GENERIC,
    FiberedCensus,
    brasselet,
    brasselet_infinity,
    eu_weight,
    resolve_value_label,
)
from strat_euler.polar import eu_of_function_local
from strat_euler.records import replace
from strat_euler.slots import FieldPath
from strat_euler.strata import (
    StratifiedCensus,
    Stratum,
    StratumConstructibleFunction,
    StratumPoset,
    chi_global,
)

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
    assert brasselet_infinity(census, "0") == -1
    assert total_brasselet_infinity(census) == -1
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
    for name in IDENTITIES:
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


def test_every_absent_entry_is_named_once_in_declared_order():
    """Two absent chi values and two absent fiber slots, under a weight
    that lists its coefficients in reverse declaration order: one error
    names both, in the order the census declares its strata, which is
    neither the sorted nor the (dim, id) order.  At infinity an absent
    entry is 0, and a coefficient on an unknown stratum meets none."""
    top = Stratum("T", 2, is_regular_part=True)
    strata = (Stratum("q", 0), Stratum("p", 1), Stratum("c", 0), top)
    poset = StratumPoset(strata, frozenset({("q", "p"), ("c", "p"), ("p", "T")}))
    links = {pair: 2 for pair in poset.relations}
    base = StratifiedCensus("holes", poset, links, chi={"q": None, "p": 1, "T": 1})
    census = FiberedCensus(
        base,
        special_values=("0",),
        fiber_chi={"q": {GENERIC: 1}, "p": {}, "T": {GENERIC: 1}},
        infinity_chi={"p": {"0": 5}},
    )
    census.validate()
    w = StratumConstructibleFunction({"T": 1, "c": 2, "p": -1, "q": 3})
    with pytest.raises(InsufficientData) as exc:
        chi_global(base, w)
    assert exc.value.fields == ("chi.q", "chi.c")
    with pytest.raises(InsufficientData) as exc:
        brasselet(census, GENERIC, w)
    assert exc.value.fields == ("fiber_chi.p.generic", "fiber_chi.c.generic")
    unknown = StratumConstructibleFunction({"zz": 4, **w.coeffs})
    assert brasselet_infinity(census, "0", unknown) == -5
    assert brasselet_infinity(census, GENERIC, unknown) == 0


def test_milnor_variant_needs_a_general_function():
    census = replace(fibered("cusp-linear"), f_general=False)
    with pytest.raises(InsufficientData) as exc:
        check_identity(census, "thm_generic_fiber", use_milnor=True)
    assert exc.value.fields == ("f_general",)


def test_counts_on_an_undeclared_stratum_are_left_out_of_the_totals():
    """A count on a stratum the census does not declare, which nothing
    validates here, changes no side of a row that reads the totals."""
    census = fibered("cusp-linear")
    first, *rest = census.critical_points
    stray = replace(
        first,
        morse_counts={**first.morse_counts, "ZZ": 5},
        milnor_numbers={**first.milnor_numbers, "ZZ": 7},
    )
    strayed = replace(census, critical_points=(stray, *rest))
    for name, kwargs in (
        ("thm_generic_fiber", {}),
        ("thm_generic_fiber", {"use_milnor": True}),
        ("cor_equi", {}),
        ("prop_any_value", {"at": "0"}),
        ("cor_generic_vs_any", {"at": "0"}),
    ):
        want = check_identity(census, name, **kwargs)
        assert check_identity(strayed, name, **kwargs).sides == want.sides, (name, kwargs)


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
    for name in sorted(n for n, e in IDENTITIES.items() if e.structural):
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
    for name in sorted(n for n, e in IDENTITIES.items() if e.structural):
        at = None if IDENTITIES[name].values is None else "0"
        with pytest.raises(NotSolvable) as exc:
            solve_unknown(blanked, name, "fiber_chi.V1.generic", at=at)
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
        # q2 lies on V2, which the closure of V1 does not contain
        ("morse_counts.q2.V1", PointNotInClosure),
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
