import copy
import json

import pytest

from strat_euler import (
    FiberedCensus,
    LinkTable,
    SchemaError,
    StratifiedCensus,
    Stratum,
    StratumPoset,
    apply_field_to_raw,
    list_entries,
    load_document,
    load_entry,
    load_file,
)
from strat_euler.catalog import _fixture_dir


def minimal_doc(**over):
    doc = {
        "name": "tiny",
        "equidimensional": True,
        "strata": [{"id": "V1", "dim": 1, "chi": 1, "regular_part": True}],
        "order": [],
        "links": [],
    }
    doc.update(over)
    return doc


def test_every_shipped_fixture_loads():
    for name in list_entries():
        bundle = load_file(_fixture_dir() / f"{name}.json")
        assert bundle.name == name
        bundle.census.validate()
        for sub in bundle.fiber_censuses.values():
            sub.validate()


def test_load_document_minimal():
    bundle = load_document(minimal_doc())
    assert bundle.name == "tiny"
    assert bundle.census.special_values == ()
    assert bundle.polar is None


def test_schema_errors_carry_paths():
    with pytest.raises(SchemaError) as exc:
        load_document(minimal_doc(strata=[{"id": "V1", "dim": -1, "chi": 0}]))
    assert ".dim" in str(exc.value)
    with pytest.raises(SchemaError):
        load_document(minimal_doc(order=[["V1"]]))
    with pytest.raises(SchemaError) as exc:
        load_document(
            minimal_doc(
                strata=[
                    {"id": "a", "dim": 0, "chi": 1},
                    {"id": "b", "dim": 1, "chi": 0, "regular_part": True},
                ],
                order=[["a", "b"]],
                links=[
                    {"at": "a", "in_closure": "b", "chi": 2},
                    {"at": "a", "in_closure": "b", "chi": 3},
                ],
            )
        )
    assert "duplicate link" in str(exc.value)


def test_stratum_ids_may_not_contain_dots():
    with pytest.raises(SchemaError):
        load_document(
            minimal_doc(strata=[{"id": "V.1", "dim": 1, "chi": 1, "regular_part": True}])
        )


def test_fiber_census_labels_must_be_declared():
    doc = minimal_doc(
        fibration={"special_values": ["0"], "fiber_chi": {"V1": {"0": 1, "generic": 2}}},
        fiber_censuses={"1": minimal_doc()},
    )
    with pytest.raises(SchemaError) as exc:
        load_document(doc)
    assert "not a declared special value" in str(exc.value)


def test_expected_values_are_ints_or_string_lists():
    with pytest.raises(SchemaError):
        load_document(minimal_doc(expected={"eu_global": 1.5}))
    with pytest.raises(SchemaError):
        load_document(minimal_doc(expected={"irregular_values": [0]}))
    bundle = load_document(
        minimal_doc(expected={"eu_global": 1, "irregular_values": []})
    )
    assert bundle.expected == {"eu_global": 1, "irregular_values": []}


def test_derivation_notes_must_be_nonempty():
    with pytest.raises(SchemaError):
        load_document(minimal_doc(derivation_notes={"eu_global": "  "}))


def test_load_file_reports_unreadable_and_invalid_input(tmp_path):
    with pytest.raises(SchemaError):
        load_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_file(bad)


def test_apply_field_to_raw_patches_each_slot_kind():
    raw = load_entry("cusp-linear").raw
    snapshot = copy.deepcopy(raw)

    patched = apply_field_to_raw(raw, "chi.V1", 7)
    assert patched["strata"][0]["chi"] == 7

    patched = apply_field_to_raw(raw, "fiber_chi.V2.v1", 9)
    assert patched["fibration"]["fiber_chi"]["V2"]["v1"] == 9

    patched = apply_field_to_raw(raw, "infinity_chi.V2.v1", -3)
    assert patched["fibration"]["infinity_chi"]["V2"]["v1"] == -3

    patched = apply_field_to_raw(raw, "morse_counts.q2.V2", 4)
    points = {p["id"]: p for p in patched["fibration"]["critical_points"]}
    assert points["q2"]["morse_counts"]["V2"] == 4

    # the source document is never mutated
    assert raw == snapshot
    assert json.loads(json.dumps(raw)) == snapshot


def test_apply_field_to_raw_rejects_unknown_targets():
    raw = load_entry("zk-2").raw
    with pytest.raises(SchemaError):
        apply_field_to_raw(raw, "chi.nope", 1)
    with pytest.raises(SchemaError):
        apply_field_to_raw(raw, "morse_counts.zz.V1", 1)
    with pytest.raises(SchemaError):
        apply_field_to_raw(raw, "weird.path", 1)


def test_the_base_census_is_validated_once_per_load(monkeypatch):
    checked = []
    validate = StratifiedCensus.validate

    def counting(self):
        checked.append(self.name)
        validate(self)

    monkeypatch.setattr(StratifiedCensus, "validate", counting)
    bundle = load_entry("broughton")
    assert checked.count(bundle.census.base.name) == 1

    # an invalid base is still reported at the root of the document
    doc = copy.deepcopy(bundle.raw)
    extra = {"id": "extra", "dim": 0, "chi": 1, "regular_part": True}
    doc["strata"].append(extra)
    with pytest.raises(SchemaError) as exc:
        load_document(doc)
    assert exc.value.path == "$"
    assert "regular-part" in str(exc.value)

    # and FiberedCensus.validate on its own still checks the base
    poset = bundle.census.base.poset
    strata = poset.strata + (Stratum("extra", 0, 1, is_regular_part=True),)
    two_tops = StratifiedCensus("two tops", StratumPoset(strata, poset.relations), LinkTable({}))
    with pytest.raises(ValueError, match="regular-part"):
        FiberedCensus(base=two_tops).validate()
