import json
import os
import subprocess
import sys

from pathlib import Path

import pytest

from strat_euler import CensusError, load_entry
from strat_euler.catalog import _fixture_dir
from strat_euler.cli import build_parser, main

DATA = Path(__file__).parent / "data"


def fixture_path(name):
    return str(_fixture_dir() / f"{name}.json")


def run_cli(*args, **kw):
    env = dict(os.environ, STRAT_EULER_COLOR="0")
    return subprocess.run(
        [sys.executable, "-m", "strat_euler", *args],
        capture_output=True,
        text=True,
        env=env,
        **kw,
    )


def test_check_passes_on_a_shipped_census(capsys):
    code = main(["check", fixture_path("node-linear")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out


def test_check_fails_on_an_inconsistent_census(tmp_path, capsys):
    doc = load_entry("node-linear").raw
    doc = json.loads(json.dumps(doc))
    doc["fibration"]["fiber_chi"]["V2"]["generic"] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["check", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_schema_problems_exit_2(capsys):
    code = main(["check", "/nonexistent/file.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_check_with_hyperplane_slice(capsys):
    code = main(
        [
            "check",
            fixture_path("broughton"),
            "--hyperplane",
            fixture_path("broughton-slice"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "hyperplane_step [a=0]: LHS=-2 RHS=-2 OK" in out


def test_compute_subcommands(capsys):
    assert main(["compute", fixture_path("node-linear"), "--what", "eu-global"]) == 0
    assert "Eu(X) = 2" in capsys.readouterr().out

    assert main(["compute", fixture_path("cusp-linear"), "--what", "eu-table"]) == 0
    out = capsys.readouterr().out
    assert "V1" in out and "V2" in out

    assert (
        main(["compute", fixture_path("cusp-linear"), "--what", "brasselet", "--at", "v1"])
        == 0
    )
    assert "B(v1) = 2" in capsys.readouterr().out

    assert main(["compute", fixture_path("broughton"), "--what", "lambda", "--at", "0"]) == 0
    assert "lambda(0) = -1" in capsys.readouterr().out

    assert main(["compute", fixture_path("broughton"), "--what", "binf", "--at", "0"]) == 0
    assert "Binf(0) = -1" in capsys.readouterr().out

    assert main(["compute", fixture_path("broughton"), "--what", "detect-irregular"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_compute_falls_back_to_generic_with_a_note(capsys):
    code = main(
        ["compute", fixture_path("zk-4"), "--what", "brasselet", "--at", "17"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "B(generic) = 4" in captured.out
    assert "generic" in captured.err


def test_solve_round_trip_through_files(tmp_path, capsys):
    doc = json.loads(json.dumps(load_entry("node-linear").raw))
    del doc["fibration"]["fiber_chi"]["V2"]["generic"]
    hole = tmp_path / "hole.json"
    hole.write_text(json.dumps(doc))
    out_file = tmp_path / "filled.json"

    code = main(
        [
            "solve",
            str(hole),
            "--identity",
            "thm_generic_fiber",
            "--unknown",
            "fiber_chi.V2.generic",
            "--emit-completed",
            str(out_file),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "fiber_chi.V2.generic = 2" in captured.out

    filled = json.loads(out_file.read_text())
    assert filled["fibration"]["fiber_chi"]["V2"]["generic"] == 2
    assert main(["check", str(out_file)]) == 0
    assert "0 failed" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["no-such-dir/x.json", "."])
def test_solve_reports_an_unwritable_completed_file(tmp_path, target):
    doc = json.loads(json.dumps(load_entry("zk-3").raw))
    del doc["fibration"]["fiber_chi"]["V1"]["generic"]
    hole = tmp_path / "hole.json"
    hole.write_text(json.dumps(doc))
    out = tmp_path / target
    proc = run_cli(
        "solve", str(hole), "--identity", "thm_generic_fiber",
        "--unknown", "fiber_chi.V1.generic", "--emit-completed", str(out),
    )
    assert proc.returncode == 2
    assert proc.stdout == "fiber_chi.V1.generic = 3\n"
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_solve_structural_identity_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(load_entry("zk-2").raw))
    del doc["fibration"]["fiber_chi"]["V1"]["generic"]
    hole = tmp_path / "hole.json"
    hole.write_text(json.dumps(doc))
    code = main(
        [
            "solve",
            str(hole),
            "--identity",
            "bdk_global_1",
            "--unknown",
            "fiber_chi.V1.generic",
            "--at",
            "0",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "arbitrary census data" in captured.err


def test_fubini_bundle(tmp_path, capsys):
    bundle = {
        "complex_src": {"simplices": [[0], [1], [2], [0, 1], [1, 2], [0, 2]]},
        "complex_dst": {"simplices": [[0], [1], [0, 1]]},
        "vertex_map": {"0": 0, "1": 1, "2": 0},
        "weights": [[[0, 1], 2], [[1, 2], -1], [[2], 5]],
    }
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps(bundle))
    assert main(["fubini", str(f)]) == 0
    out = capsys.readouterr().out
    assert "lhs = 4" in out and "rhs = 4" in out and "OK" in out

    bundle["complex_src"]["simplices"].remove([1])
    f.write_text(json.dumps(bundle))
    assert main(["fubini", str(f)]) == 2


def test_catalog_subcommand(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "zk-2" in out

    assert main(["catalog", "run", "zk-2", "zk-3"]) == 0
    out = capsys.readouterr().out
    assert "2/2 catalog entries verified" in out

    assert main(["catalog", "run", "missing-name"]) == 2
    assert "error:" in capsys.readouterr().err


def test_console_process_has_no_color_when_disabled():
    proc = run_cli("check", fixture_path("zk-2"))
    assert proc.returncode == 0
    assert "\x1b[" not in proc.stdout
    assert proc.stdout.endswith("0 skipped\n")


def test_module_invocation_reports_usage_errors():
    proc = run_cli("compute", fixture_path("zk-2"))
    assert proc.returncode != 0


@pytest.mark.parametrize("command", ["check", "fubini"])
def test_deeply_nested_json_is_bad_input(tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    proc = run_cli(command, str(deep))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: $: not valid JSON: nested too deeply\n"


# the C locale with neither locale coercion nor UTF-8 mode: the locale's
# preferred encoding is ASCII
C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.mark.parametrize("locale", [{}, C_LOCALE], ids=["default", "C"])
def test_json_files_are_read_as_utf8_under_any_locale(tmp_path, locale):
    doc = json.loads(json.dumps(load_entry("node-linear").raw))
    doc["derivation_notes"]["eu_global"] = "Lê–Teissier, by hand"
    census = tmp_path / "census.json"
    census.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    bundle = tmp_path / "bundle.json"
    bundle.write_text(
        json.dumps(
            {
                "complex_src": {"simplices": [["a"], ["é"], ["a", "é"]]},
                "complex_dst": {"simplices": [["x"]]},
                "vertex_map": {"a": "x", "é": "x"},
                "weights": [[["a", "é"], 1]],
            },
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    env = dict(os.environ, STRAT_EULER_COLOR="0", **locale)
    undecodable = (
        f"error: $: cannot read {bad}: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )
    want = {
        ("check", str(census)): (0, run_cli("check", fixture_path("node-linear")).stdout, ""),
        ("fubini", str(bundle)): (0, "lhs = -1\nrhs = -1\nOK\n", ""),
        ("check", str(bad)): (2, "", undecodable),
        ("fubini", str(bad)): (2, "", undecodable),
    }
    for argv, expected in want.items():
        proc = subprocess.run(
            [sys.executable, "-m", "strat_euler", *argv], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv


# --- identity argument errors are input errors ---------------------------


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--identity", "nope"], "unknown identity 'nope'"),
        (["--identity", "prop_any_value"], "identity 'prop_any_value' needs a target value"),
        (
            ["--identity", "prop_brasselet_vs_fiber_eu", "--at", "0", "--use-milnor"],
            "milnor counts do not apply to this identity",
        ),
    ],
)
def test_identity_argument_errors_are_census_errors(tmp_path, capsys, extra, message):
    doc = json.loads(json.dumps(load_entry("cusp-linear").raw))
    del doc["fibration"]["fiber_chi"]["V2"]["generic"]
    path = tmp_path / "blanked.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--unknown", "fiber_chi.V2.generic", *extra]
    # raised as a CensusError by the subcommand itself, not only mapped to
    # exit 2 by main's catch-all for ValueError
    args = build_parser().parse_args(argv)
    with pytest.raises(CensusError) as exc:
        args.run(args)
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == message
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# --- the full check output, pinned ---------------------------------------


def census_path(name):
    return str(DATA / name) if name.endswith(".json") else fixture_path(name)


def pinned_case_id(case):
    return case["census"] + (f"+{case['hyperplane']}" if case["hyperplane"] else "")


@pytest.mark.parametrize(
    "case", json.loads((DATA / "check_outputs.json").read_text()), ids=pinned_case_id
)
def test_check_output_matches_the_recorded_lines(case, capsys):
    """Every row (name, detail, sides, status), the order of the rows, the
    summary and the exit code of ``check``, as recorded for each shipped
    census, the n=21 wide census and one hyperplane slicing run."""
    argv = ["check", census_path(case["census"])]
    if case["hyperplane"]:
        argv += ["--hyperplane", census_path(case["hyperplane"])]
    code = main(argv)
    assert capsys.readouterr().out.splitlines() == case["lines"]
    assert code == case["exit"]
