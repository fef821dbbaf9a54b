import pytest

from strat_euler import (
    SchemaError,
    UnknownEntry,
    evaluate_expected_key,
    list_entries,
    load_entry,
    run_all,
    run_entry,
    standard_check_lines,
    validate_entry,
)
from strat_euler import catalog


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


def test_every_entry_validates_with_notes():
    for name in list_entries():
        bundle = load_entry(name)
        validate_entry(bundle)
        assert bundle.expected
        for key in bundle.expected:
            assert key in bundle.derivation_notes, (name, key)


def test_every_entry_verifies():
    report = run_all()
    assert report.entries
    failed = [e.name for e in report.entries if not e.ok]
    assert failed == []
    assert "catalog entries verified" in report.summary()


def test_run_entry_produces_expected_and_identity_lines():
    entry = run_entry(load_entry("cusp-linear"))
    assert entry.ok
    assert {e.key for e in entry.expected} == set(load_entry("cusp-linear").expected)
    names = [c.name for c in entry.checks]
    assert any(n == "bdk_point_formula" for n in names)
    assert any(n == "thm_generic_fiber" for n in names)
    assert any(n == "stv_global_eu" for n in names)
    assert all(c.status == "OK" for c in entry.checks)


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
