import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

from strat_euler.catalog import load_entry
from strat_euler.census_io import apply_field_to_raw, load_document, load_file
from strat_euler.cli import main
from strat_euler.documents import _fixture_dir
from strat_euler.entries import list_entries
from strat_euler.errors import SchemaError
from strat_euler.fibration import GENERIC, FiberedCensus
from strat_euler.slots import FieldPath
from strat_euler.strata import StratifiedCensus, Stratum, StratumPoset

from conftest import document_text

DATA = Path(__file__).parent / "data"


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


def test_polar_labels_must_be_declared(tmp_path, capsys):
    """A polar list at a typo of a special value is refused, not left
    unread while the rows that need the value SKIP."""
    doc = copy.deepcopy(load_entry("node-linear").raw)
    gamma = doc["polar"]["gamma"]
    gamma["O"] = gamma.pop("0")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $.polar.gamma.O: not a declared special value\n"


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


def every_slot(census):
    """The field path of every slot a census can hold."""
    poset = census.base.poset
    for sid in poset.ids():
        yield f"chi.{sid}"
        for label in census.special_values + (GENERIC,):
            yield f"fiber_chi.{sid}.{label}"
        for label in census.special_values:
            yield f"infinity_chi.{sid}.{label}"
    for q in census.critical_points:
        for sid in poset.ids():
            if poset.leq(q.stratum, sid):
                yield f"morse_counts.{q.id}.{sid}"


def blank_raw(raw, path):
    """The raw document with one slot deleted, written out by hand as an
    oracle for the model writer."""
    doc = copy.deepcopy(raw)
    kind, key, *sub = path.split(".")
    if kind == "chi":
        for s in doc["strata"]:
            if s["id"] == key:
                s.pop("chi", None)
    elif kind == "morse_counts":
        for q in doc["fibration"]["critical_points"]:
            if q["id"] == key:
                q.get("morse_counts", {}).pop(sub[0], None)
    else:
        doc.setdefault("fibration", {}).setdefault(kind, {}).setdefault(key, {}).pop(sub[0], None)
    return doc


@pytest.mark.parametrize("name", list_entries() + ["wide-n21.json"])
def test_raw_and_model_writers_agree_on_every_slot(name):
    """Writing a slot into the raw document and loading it gives the census
    that writing the same slot into the loaded model gives; so does
    blanking it."""
    if name.endswith(".json"):
        raw = json.loads((DATA / name).read_text())
    else:
        raw = load_entry(name).raw
    census = load_document(raw).census
    paths = list(every_slot(census))
    assert paths
    for path in paths:
        slot = FieldPath.parse(path)
        for value in (0, 7, -3):
            written = slot.set(census, value)
            assert load_document(apply_field_to_raw(raw, path, value)).census == written, path
            assert slot.get(written) == value
        blanked = slot.set(census, None)
        assert slot.get(blanked) is None
        assert load_document(blank_raw(raw, path)).census == blanked, path


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
    strata = poset.strata + (Stratum("extra", 0, is_regular_part=True),)
    two_tops = StratifiedCensus("two tops", StratumPoset(strata, poset.relations), {})
    with pytest.raises(ValueError, match="regular-part"):
        FiberedCensus(base=two_tops).validate()


# --- the loader's error text, recorded before the loader was rewritten ---


def loader_error_cases():
    return json.loads((DATA / "loader_errors.json").read_text())


def loader_case_id(case):
    edits = ";".join(
        ".".join(map(str, path)) + (f"={value[0]!r}" if value else " deleted")
        for path, *value in case["edits"]
    )
    return f"{case['base']}:{edits}"


def test_every_recorded_loader_error_names_its_location():
    """An unknown stratum, value label or closure is reported at the path of
    the block that declares it, like every other loader error."""
    for case in loader_error_cases():
        for line in case["stderr"]:
            assert line.startswith("error: $"), loader_case_id(case)


def check_case(case, tmp_path):
    """Stdout and stderr lines and the exit code of ``check`` on the
    document of a recorded case."""
    path = tmp_path / "census.json"
    path.write_text(document_text(case))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    return out.getvalue().splitlines(), err.getvalue().splitlines(), code


@pytest.mark.parametrize("case", loader_error_cases(), ids=loader_case_id)
def test_malformed_documents_report_the_recorded_error(case, tmp_path):
    """``check`` on a document with one or two malformed fields: every type,
    boolean-for-integer, empty-id, dotted-id and missing-key site of the
    census and fibration blocks, duplicate links, links on non-order pairs
    or unknown strata, and the first of two offenders.  Stdout, stderr and
    the exit code, line for line."""
    out, err, code = check_case(case, tmp_path)
    assert out == case["stdout"]
    assert err == case["stderr"]
    assert code == case["exit"]


MUTANT_CASES = json.loads((DATA / "loader_mutants.json").read_text())


@pytest.mark.parametrize(
    "case", MUTANT_CASES, ids=[f"{i}-{case['base']}" for i, case in enumerate(MUTANT_CASES)]
)
def test_mutated_documents_report_the_recorded_error(case, tmp_path):
    """``check`` on seeded mutants of the shipped censuses and of
    ``layered-5x4.json``, each with two to four edits of
    ``test_fuzz.mutate`` (values retyped, keys and items dropped, entries
    duplicated, lists reversed), recorded before the loader's checks were
    folded into shared helpers.  Stderr and the exit code, line for line:
    of several faults, the same one is reported first."""
    _out, err, code = check_case(case, tmp_path)
    assert err == case["stderr"]
    assert code == case["exit"]
