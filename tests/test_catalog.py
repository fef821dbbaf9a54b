import pytest

from strat_euler import catalog, entries
from strat_euler.catalog import evaluate_expected_key, load_entry, standard_check_lines
from strat_euler.catalog_run import _polar, run_all, run_entry, validate_entry
from strat_euler.records import replace
from strat_euler.documents import _fixture_dir
from strat_euler.entries import list_entries
from strat_euler.errors import InsufficientData, SchemaError, UnknownEntry


def test_listing_is_sorted_and_complete():
    names = list_entries()
    assert names == sorted(names)
    assert "node-linear" in names
    assert len(names) >= 10


def test_unknown_entry_reports_the_available_names():
    with pytest.raises(UnknownEntry) as exc:
        load_entry("no-such-census")
    assert str(exc.value) == (
        f"no catalog entry 'no-such-census'; available: {', '.join(list_entries())}"
    )


def test_an_unreadable_entry_is_a_schema_error_at_the_root(tmp_path, monkeypatch):
    monkeypatch.setattr(catalog, "_fixture_dir", lambda: tmp_path)
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "latin1.json").write_bytes(b"\xff{}")
    with pytest.raises(SchemaError) as exc:
        load_entry("broken")
    assert str(exc.value).startswith("$: not valid JSON: ")
    with pytest.raises(SchemaError) as exc:
        load_entry("latin1")
    assert str(exc.value) == (
        f"$: cannot read {tmp_path / 'latin1.json'}: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    )
    with pytest.raises(UnknownEntry):
        load_entry("absent")


def test_a_name_that_is_a_path_is_unknown_even_where_the_file_exists(tmp_path, monkeypatch):
    """Only the census files in the catalog directory are entries: a
    relative or absolute path to a census elsewhere is refused, while a
    malformed file in the catalog still reports its own schema error."""
    catalog_dir = tmp_path / "catalog"
    catalog_dir.mkdir()
    zk2 = (_fixture_dir() / "zk-2.json").read_bytes()
    monkeypatch.setattr(catalog, "_fixture_dir", lambda: catalog_dir)
    monkeypatch.setattr(entries, "_fixture_dir", lambda: catalog_dir)
    (tmp_path / "outside.json").write_bytes(zk2)
    (catalog_dir / "inside.json").write_bytes(zk2)
    (catalog_dir / "malformed.json").write_text("{}")
    assert load_entry("inside").name == "zk-2"
    for name in ("../outside", str(tmp_path / "outside")):
        with pytest.raises(UnknownEntry) as exc:
            load_entry(name)
        assert str(exc.value) == f"no catalog entry {name!r}; available: inside, malformed"
    with pytest.raises(SchemaError) as exc:
        load_entry("malformed")
    assert str(exc.value) == "$.strata: expected a list, got NoneType"


def test_every_entry_validates_with_notes():
    for name in list_entries():
        bundle = load_entry(name)
        validate_entry(bundle)
        assert bundle.expected
        for key in bundle.expected:
            assert key in bundle.derivation_notes, (name, key)


def test_an_entry_without_expected_values_or_a_note_is_refused():
    bundle = load_entry("cusp-linear")
    with pytest.raises(ValueError) as exc:
        validate_entry(replace(bundle, expected={}))
    assert str(exc.value) == "catalog entry 'cusp-linear' declares no expected values"
    for notes in ({}, {"eu_global": " "}):
        with pytest.raises(ValueError) as exc:
            validate_entry(replace(bundle, expected={"eu_global": 2}, derivation_notes=notes))
        assert str(exc.value) == (
            "catalog entry 'cusp-linear': expected key 'eu_global' has no derivation note"
        )


def test_a_polar_key_on_an_entry_without_polar_data_is_missing_data():
    bundle = replace(load_entry("cusp-linear"), polar=None)
    with pytest.raises(InsufficientData) as exc:
        _polar(bundle)
    assert exc.value.fields == ("polar",)
    with pytest.raises(InsufficientData, match="^missing census data: polar$"):
        evaluate_expected_key(bundle, "B_polar_at_0")


def test_every_entry_verifies():
    entries = run_all()
    assert entries
    failed = [name for name, rows in entries if any(r.status == "FAIL" for r in rows)]
    assert failed == []
    assert [name for name, _ in entries] == list_entries()


def test_run_entry_produces_expected_and_identity_lines():
    bundle = load_entry("cusp-linear")
    rows = run_entry(bundle)
    expected, checks = rows[:len(bundle.expected)], rows[len(bundle.expected):]
    assert all(r.status != "FAIL" for r in rows)
    assert {e.key for e in expected} == set(bundle.expected)
    names = [c.name for c in checks]
    assert any(n == "bdk_point_formula" for n in names)
    assert any(n == "thm_generic_fiber" for n in names)
    assert any(n == "stv_global_eu" for n in names)
    assert all(c.status == "OK" for c in checks)


def test_check_lines_are_deterministic():
    bundle = load_entry("broughton")
    first = [l.line() for l in standard_check_lines(bundle)]
    second = [l.line() for l in standard_check_lines(bundle)]
    assert first == second


def test_expected_key_evaluation():
    bundle = load_entry("node-linear")
    assert evaluate_expected_key(bundle, "eu_global") == 2
    assert evaluate_expected_key(bundle, "chi_global") == 1
    assert evaluate_expected_key(bundle, "eu_x_at_V1") == 2
    assert evaluate_expected_key(bundle, "B_at_0") == 2
    assert evaluate_expected_key(bundle, "B_generic") == 2
    assert evaluate_expected_key(bundle, "B_polar_at_0") == 2
    assert evaluate_expected_key(bundle, "defect_at_q1") == -1
    assert evaluate_expected_key(bundle, "irregular_values") == []
    with pytest.raises(ValueError):
        evaluate_expected_key(bundle, "definitely_not_a_key")


def test_expected_key_with_negative_label():
    bundle = load_entry("smooth-quadric-slice")
    assert evaluate_expected_key(bundle, "B_at_-2") == 1


def test_infinity_keys_on_the_plane_family():
    bundle = load_entry("broughton")
    assert evaluate_expected_key(bundle, "lambda_total") == -1
    assert evaluate_expected_key(bundle, "lambda_at_0") == -1
    assert evaluate_expected_key(bundle, "binf_at_0") == -1
    assert evaluate_expected_key(bundle, "binf_total") == -1
    assert evaluate_expected_key(bundle, "irregular_values") == ["0"]
