import contextlib
import gc
import io
import json
import os
import subprocess
import sys

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strat_euler import catalog, cli, entries
from strat_euler.arguments import build_parser
from strat_euler.catalog import load_entry
from strat_euler.census_io import apply_field_to_raw
from strat_euler.cli import main, read_plain
from strat_euler.documents import _fixture_dir
from strat_euler.errors import CensusError, IdentityArgumentError
from strat_euler.fibered import IDENTITIES, check_identity
from strat_euler.fibration import eu_weight

from conftest import apply_edit, document_text, edited, faulted_doc
from conftest import C_LOCALE, the_same_under_each_environment
from test_imports import sweep_calls

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


@pytest.mark.parametrize("what", ["eu-table", "eu-global", "detect-irregular"])
def test_compute_refuses_an_at_its_invariant_does_not_take(tmp_path, capsys, what):
    """A value given to an invariant of the whole space is refused, not
    ignored; a malformed census still reports its own error first."""
    for at in ("0", "nonsense"):
        argv = ["compute", fixture_path("cusp-linear"), "--what", what, "--at", at]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: --what {what} takes no --at\n")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["compute", str(bad), "--what", what, "--at", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: $: not valid JSON: ")


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


def test_solve_refuses_a_morse_count_off_the_points_closure(tmp_path, capsys):
    """No census can hold a count of q0 (on P2) on P0, whose closure does
    not contain P2: the slot is refused, and no completed census written."""
    out = tmp_path / "completed.json"
    argv = ["solve", str(DATA / "wide-n21.json"), "--identity", "thm_generic_fiber",
            "--unknown", "morse_counts.q0.P0", "--emit-completed", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: critical point 'q0' carries a count on 'P0' whose closure does not contain it\n"
    )
    assert not out.exists()


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


def test_solve_without_the_fiber_census_an_identity_reads_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(load_entry("cusp-linear").raw))
    del doc["fiber_censuses"]
    del doc["fibration"]["fiber_chi"]["V1"]["0"]
    hole = tmp_path / "hole.json"
    hole.write_text(json.dumps(doc))
    code = main(
        ["solve", str(hole), "--identity", "prop_brasselet_vs_fiber_eu", "--at", "0",
         "--unknown", "fiber_chi.V1.0"]
    )
    assert code == 2
    assert capsys.readouterr() == (
        "",
        "error: identity 'prop_brasselet_vs_fiber_eu' cannot be evaluated, further data "
        "is missing: fiber_census.0\n",
    )


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


@pytest.mark.parametrize(
    "weights, message",
    [
        ([[[1, 0], 2]], "vertices must be strictly increasing, got (1, 0)"),
        ([[[7], 2]], "<7> carries a weight but is not in the host"),
    ],
    ids=["unsorted", "foreign"],
)
def test_fubini_weight_errors_name_the_simplex_in_the_document(tmp_path, capsys, weights, message):
    bundle = {
        "complex_src": {"simplices": [[0], [1], [0, 1]]},
        "complex_dst": {"simplices": [[0]]},
        "vertex_map": {"0": 0, "1": 0},
        "weights": weights,
    }
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps(bundle))
    assert main(["fubini", str(f)]) == 2
    assert capsys.readouterr() == ("", f"error: $.weights[0][0]: {message}\n")


def fubini_on(tmp_path, bundle):
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps(bundle))
    return main(["fubini", str(f)])


@pytest.mark.parametrize(
    "image",
    [[], {}, None, True, 1.0],
    ids=["list", "object", "null", "true", "float"],
)
def test_fubini_refuses_an_image_that_is_not_an_integer_or_string(tmp_path, capsys, image):
    bundle = json.loads((DATA / "bundle.json").read_text())
    bundle["vertex_map"]["0"] = image
    assert fubini_on(tmp_path, bundle) == 2
    assert capsys.readouterr() == (
        "", f"error: $.vertex_map.0: image {image!r} is not an integer or string\n"
    )


def test_fubini_refuses_an_image_mixing_labels_that_do_not_compare(tmp_path, capsys):
    bundle = json.loads((DATA / "bundle.json").read_text())
    bundle["complex_dst"]["simplices"].append(["a"])
    bundle["vertex_map"]["0"] = "a"
    assert fubini_on(tmp_path, bundle) == 2
    assert capsys.readouterr() == (
        "",
        "error: $: image of <0,1> is not a simplex: vertex labels are not comparable: 'a', 1\n",
    )


@pytest.mark.parametrize("alias", ["02", "+2", " 2", "2_0"])
def test_fubini_refuses_a_key_that_only_parses_to_a_source_vertex(tmp_path, capsys, alias):
    bundle = json.loads((DATA / "bundle.json").read_text())
    bundle["vertex_map"][alias] = 1
    assert fubini_on(tmp_path, bundle) == 2
    assert capsys.readouterr() == ("", f"error: $.vertex_map.{alias}: not a vertex of the source\n")


def test_fubini_reads_a_key_as_a_string_vertex_first(tmp_path, capsys):
    bundle = {
        "complex_src": {"simplices": [["2"], [2]]},
        "complex_dst": {"simplices": [[0]]},
        "vertex_map": {"2": 0},
        "weights": [[["2"], 1]],
    }
    assert fubini_on(tmp_path, bundle) == 2
    assert capsys.readouterr() == ("", "error: $: vertex 2 has no image\n")
    bundle["complex_src"]["simplices"] = [["2"], ["a"]]
    bundle["vertex_map"]["a"] = 0
    assert fubini_on(tmp_path, bundle) == 0
    assert capsys.readouterr().out == "lhs = 1\nrhs = 1\nOK\n"


# sources whose bad vertices and simplices hash differently under each seed:
# the error names the first in label order, integers before strings
SEEDED_BUNDLES = [
    (
        [["e"], ["d"], ["c"], ["b"], ["a"]], [["x"]], {},
        "error: $: vertex 'a' has no image",
    ),
    (
        [["d"], ["c"], ["b"], ["a"]], [["x"]], dict.fromkeys("abcd", "y"),
        "error: $: image <'y'> of <'a'> is not a simplex of the target",
    ),
    (
        [["g", "h"], ["e", "f"], ["c", "d"], ["a", "b"]], [["x"]], {},
        "error: $.complex_src: <'a','b'> is present but its face <'a'> is not",
    ),
    (
        [["b"], [3], ["a"], [1]], [["x"]], {},
        "error: $: vertex 1 has no image",
    ),
]


def map_bundle(src, dst, vertex_map, weights=()):
    """The text of a map bundle for ``fubini``."""
    bundle = {"complex_src": {"simplices": src}, "complex_dst": {"simplices": dst}}
    return json.dumps({**bundle, "vertex_map": vertex_map, "weights": list(weights)}, ensure_ascii=False)


def test_fubini_errors_are_the_same_under_every_hash_seed(tmp_path):
    calls = []
    for i, (src, dst, vertex_map, _error) in enumerate(SEEDED_BUNDLES):
        path = tmp_path / f"{i}.json"
        path.write_text(map_bundle(src, dst, vertex_map))
        calls.append(["fubini", str(path)])
    want = tuple((2, "", f"{error}\n") for *_, error in SEEDED_BUNDLES)
    assert the_same_under_each_environment(calls) == want


def test_catalog_run_refuses_a_path_out_of_the_catalog(tmp_path, capsys):
    (tmp_path / "evil.json").write_bytes((_fixture_dir() / "zk-2.json").read_bytes())
    name = os.path.relpath(tmp_path / "evil", _fixture_dir())
    assert main(["catalog", "run", name]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: no catalog entry {name!r}; available: ")


def into_a_closed_pipe(args, env):
    """``python -m strat_euler ARGS`` with the read end of its stdout closed
    before it starts, so no pipe buffer can absorb the output."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "strat_euler", *args],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write)


def assert_reported_closed_stdout(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to standard output: ")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args",
    [("catalog", "run"), ("check", "zk-2"), ("compute", "zk-2", "--what", "eu-global"), ("-h",),
     ("check", "-h"), ("check", "wide-n21.json"), ("compute", "layered-5x4.json", "--what", "eu-table")],
    ids=" ".join,
)
def test_a_closed_stdout_exits_2_without_a_traceback(args, unbuffered):
    """The reader of stdout is gone before the first write: bad output, not
    a failed identity (``check`` on wide-n21 exits 1 otherwise), and no
    traceback from the write or the exit flush, for the largest output too.
    Help is reported like any command's output: buffered, not left to the
    interpreter's exit flush (status 120); unbuffered, not dropped by
    argparse's own write (status 0)."""
    args = [census_path(a) if a in ("zk-2", "wide-n21.json", "layered-5x4.json") else a for a in args]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    assert_reported_closed_stdout(into_a_closed_pipe(args, env))


def test_catalog_subcommand(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "zk-2" in out

    assert main(["catalog", "run", "zk-2", "zk-3"]) == 0
    out = capsys.readouterr().out
    assert "2/2 catalog entries verified" in out

    assert main(["catalog", "run", "missing-name"]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["catalog", "list", "extra"]) == 2
    assert capsys.readouterr() == ("", "error: catalog list takes no entry names\n")


def test_console_process_has_no_color_when_disabled():
    proc = run_cli("check", fixture_path("zk-2"))
    assert proc.returncode == 0
    assert "\x1b[" not in proc.stdout
    assert proc.stdout.endswith("0 skipped\n")


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("nope",),
        ("check",),
        ("compute", "zk-2"),
        ("compute", "zk-2", "--what", "nope"),
        ("check", "zk-2", "--nope"),
        ("check", "zk-2", "--hyperplane"),
    ],
    ids=["no-command", "unknown-command", "missing-positional", "missing-what", "bad-choice",
         "unknown-option", "missing-value"],
)
def test_module_invocation_reports_usage_errors(args):
    """argparse's usage line and one error line on stderr, nothing on
    stdout, exit 2."""
    proc = run_cli(*(fixture_path(arg) if arg == "zk-2" else arg for arg in args))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: strat-euler")
    assert proc.stderr.endswith("\n")
    assert ": error: " in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [("-h",), ("check", "-h")], ids=" ".join)
def test_help_is_printed_on_stdout(args):
    proc = run_cli(*args)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: strat-euler")


def test_an_abbreviated_option_reads_as_the_option(capsys):
    census, hyperplane = fixture_path("broughton"), fixture_path("broughton-slice")
    assert main(["check", census, "--hyperplane", hyperplane]) == 0
    spelled = capsys.readouterr()
    assert main(["check", census, "--hyper", hyperplane]) == 0
    assert capsys.readouterr() == spelled


@pytest.mark.parametrize("command", ["check", "fubini"])
def test_deeply_nested_json_is_bad_input(tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    proc = run_cli(command, str(deep))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: $: not valid JSON: nested too deeply\n"


def test_json_files_are_read_as_utf8_under_any_locale(tmp_path):
    doc = json.loads(json.dumps(load_entry("node-linear").raw))
    doc["derivation_notes"]["eu_global"] = "Lê–Teissier, by hand"
    census = tmp_path / "census.json"
    census.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    bundle = tmp_path / "bundle.json"
    text = map_bundle([["a"], ["é"], ["a", "é"]], [["x"]], {"a": "x", "é": "x"}, [[["a", "é"], 1]])
    bundle.write_text(text, encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    undecodable = (
        f"error: $: cannot read {bad}: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )
    calls = [
        ["check", fixture_path("node-linear")],
        ["check", str(census)],
        ["fubini", str(bundle)],
        ["check", str(bad)],
        ["fubini", str(bad)],
    ]
    plain, *got = the_same_under_each_environment(calls)
    assert plain[0] == 0
    assert got == [
        plain,
        (0, "lhs = -1\nrhs = -1\nOK\n", ""),
        (2, "", undecodable),
        (2, "", undecodable),
    ]


# --- integers longer than Python converts to text --------------------------


def long_link_census(fibration=False):
    """P < C < S with every link's chi 3,000 sevens: the literals load, but
    the obstructions, and the rows weighted by them, have more digits than
    Python converts to text."""
    doc = {
        "name": "long links",
        "equidimensional": True,
        "strata": [
            {"id": "P", "dim": 0, "chi": 1},
            {"id": "C", "dim": 1, "chi": 0},
            {"id": "S", "dim": 2, "chi": 1, "regular_part": True},
        ],
        "order": [["P", "C"], ["C", "S"]],
        "links": [
            {"at": a, "in_closure": b, "chi": "@"} for a, b in (("P", "C"), ("P", "S"), ("C", "S"))
        ],
    }
    if fibration:
        doc["fibration"] = {"fiber_chi": {"P": {"generic": 0}, "C": {"generic": 1}, "S": {"generic": 1}}}
        doc["expected"] = {"chi_global": 2}
        doc["derivation_notes"] = {"chi_global": "1 + 0 + 1"}
    return json.dumps(doc).replace('"@"', "7" * 3000)


def test_catalog_run_with_a_result_too_long_to_print_prints_nothing(tmp_path, monkeypatch, capsys):
    (tmp_path / "long.json").write_text(long_link_census(fibration=True))
    (tmp_path / "zk-2.json").write_text(json.dumps(load_entry("zk-2").raw))
    monkeypatch.setattr(catalog, "_fixture_dir", lambda: tmp_path)
    monkeypatch.setattr(entries, "_fixture_dir", lambda: tmp_path)
    assert main(["catalog", "run"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: a result has more than {sys.get_int_max_str_digits()} digits, too many to print\n"


# --- the same output under every hash seed and under the C locale ---------

# node-linear with a critical point on an isolated point stratum, off the
# closure of the regular part
OFF_CLOSURE = {"base": "node-linear", "edits": [
    [["equidimensional"], False],
    [["strata", 2], {"id": "W", "dim": 0, "chi": 1}, "insert"],
    [["fibration", "fiber_chi", "W"], {"0": 1, "generic": 0}],
    [
        ["fibration", "critical_points", 1],
        {"id": "qw", "stratum": "W", "value": "0", "morse_counts": {"W": 1}},
        "insert",
    ],
]}


def edge_inputs(tmp_path):
    """The files the calls below name as ``{name}``, written to ``tmp_path``:
    each name mapped to its path."""
    layered = [s["id"] for s in edited({"base": "layered-5x4.json", "edits": []})["strata"]]
    fiber = ["fibration", "fiber_chi"]
    cases = {
        "gap": ("layered-5x4.json", [[fiber + ["T", "generic"]]]),
        # two absent chi values and two absent generic fiber slots: each
        # error names both, in the order the census declares its strata
        "holes": ("layered-5x4.json", [
            [path]
            for sid in ("T", "L0_2")
            for path in (["strata", layered.index(sid), "chi"], fiber + [sid, "generic"])
        ]),
        "unlinked": ("layered-5x4.json", [[["links", 0]]]),
        "polarless": ("cusp-linear", [[["polar"]]]),
        "offpoint": (OFF_CLOSURE["base"], OFF_CLOSURE["edits"]),
        "listimage": ("bundle.json", [[["vertex_map", "0"], []]]),
        "aliased": ("bundle.json", [[["vertex_map", "02"], 1]]),
        # 5,000-digit integer literals, past Python's int to text limit
        "longliteral": ("cusp-linear", [[["strata", 0, "chi"], {"integer_digits": 5000}]]),
        "longweight": ("bundle.json", [[["weights", 0, 1], {"integer_digits": 5000}]]),
        "badslice": ("broughton-slice", [[["strata", 0, "dim"], "x"]]),
    }
    texts = {name: document_text({"base": base, "edits": edits}) for name, (base, edits) in cases.items()}
    texts["unmapped"] = map_bundle([[v] for v in "abcde"], [["x"]], {})
    # links of 3,000 digits, whose obstructions have more
    texts["longresult"] = long_link_census()
    texts["longrows"] = long_link_census(fibration=True)
    # links of -10^25 and 10^30: obstructions past 2^64 either way
    wide = json.loads(long_link_census())
    for i, chi in enumerate((-(10**25), 10**30, -7)):
        apply_edit(wide, [["links", i, "chi"], chi])
    texts["widelinks"] = json.dumps(wide)
    paths = {"tmp": str(tmp_path), "fixtures": str(_fixture_dir()), "data": str(DATA)}
    for name, text in texts.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(text)
    return paths


# each call, ``{name}`` naming a file of ``edge_inputs``, and its exit code
EVERYWHERE = {
    "catalog run": 0,
    "catalog list": 0,
    "catalog run zk-2 zk-2": 0,
    "catalog list cusp-linear": 2,
    "catalog list zk-2": 2,
    "check {data}/wide-n21.json": 1,
    "check {fixtures}/broughton.json --hyperplane {fixtures}/broughton-slice.json": 0,
    "check {fixtures}/broughton.json --hyperplane {badslice}": 2,
    "check {data}/wide-n21.json --hyper {fixtures}/broughton-slice.json": 1,
    "check {polarless} --hyperplane {fixtures}/broughton-slice.json": 0,
    "check {offpoint}": 0,
    "check {longliteral}": 2,
    "check {longrows}": 2,
    "check {data}/layered-5x4.json": 1,
    "check {gap}": 1,
    "check {unlinked}": 1,
    "check {holes}": 0,
    "fubini {data}/bundle.json": 0,
    "fubini {listimage}": 2,
    "fubini {aliased}": 2,
    "fubini {unmapped}": 2,
    "fubini {longweight}": 2,
    "compute {data}/wide-n21.json --what eu-table": 0,
    "compute {data}/wide-n21.json --what eu-global": 0,
    "compute {data}/wide-n21.json --what eu-global --at 0": 2,
    "compute {data}/wide-n21.json --what binf --at generic": 0,
    "compute {data}/layered-5x4.json --what eu-global": 0,
    "compute {data}/layered-5x4.json --what eu-table": 0,
    "compute {data}/layered-5x4.json --what eu-table --at 0": 2,
    "compute {holes} --what eu-global": 2,
    "compute {holes} --what brasselet --at generic": 2,
    "compute {unlinked} --what eu-table": 2,
    "compute {unlinked} --what eu-global": 2,
    "compute {longresult} --what eu-table": 2,
    "compute {longresult} --what eu-global": 2,
    "compute {longliteral} --what eu-global": 2,
    "compute {widelinks} --what eu-table": 0,
    "solve {gap} --identity cor_equi --unknown fiber_chi.T.generic": 0,
    "solve {gap} --identity cor_equi --unknown fiber_chi.T.generic --emit-completed {tmp}": 2,
    "-h": 0,
    "check": 2,
}


def test_every_call_prints_the_same_under_every_hash_seed_and_the_c_locale(tmp_path):
    """Stdout, stderr and the exit code of each call do not depend on how
    sets iterate or on an ASCII locale.  No call ends in a traceback, and
    bad input but a usage error is one error line.  An integer literal past
    the limit is bad input at ``$``.  A result too long to print is
    formatted whole before any of it is written, so stdout stays empty (it
    used to get the table's header, or the rows before the long one).  A
    refused slice says it is the slice."""
    paths = edge_inputs(tmp_path)
    argvs = [[arg.format(**paths) for arg in call.split()] for call in EVERYWHERE]
    runs = dict(zip(EVERYWHERE, the_same_under_each_environment(argvs)))
    digits = sys.get_int_max_str_digits()
    for call, (code, out, err) in runs.items():
        assert code == EVERYWHERE[call] and "Traceback" not in out + err, call
        if code == 2 and call != "check":
            assert (err.count("\n"), err[-1:]) == (1, "\n"), call
        if "{longliteral}" in call or "{longweight}" in call:
            assert (out, err) == ("", f"error: $: an integer has more than {digits} digits\n"), call
        elif "{longresult}" in call or "{longrows}" in call:
            assert (out, err) == ("", f"error: a result has more than {digits} digits, too many to print\n"), call
    assert runs["check {fixtures}/broughton.json --hyperplane {badslice}"] == (
        2, "", "error: --hyperplane: $.strata[0].dim: expected an integer, got str\n"
    )


def test_a_non_ascii_stratum_id_prints_as_utf8_under_every_locale(tmp_path):
    """cusp-linear with a stratum named ``é1`` checks as cusp-linear does,
    and its rows are written as UTF-8 under every environment, the ASCII C
    locale included, both through ``cli.main`` and as ``python -m
    strat_euler``: the same exit code and the same stdout bytes."""
    path = tmp_path / "accented.json"
    text = json.dumps(edited({"base": "cusp-linear", "edits": []}), ensure_ascii=False)
    path.write_text(text.replace("V1", "é1"), encoding="utf-8")
    plain, accented = the_same_under_each_environment(
        [["check", fixture_path("cusp-linear")], ["check", str(path)]]
    )
    assert plain[0] == 0
    assert accented == (0, plain[1].replace("V1", "é1"), "")
    run = subprocess.run(
        [sys.executable, "-m", "strat_euler", "check", str(path)],
        capture_output=True,
        env={**os.environ, **C_LOCALE},
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, accented[1].encode("utf-8"), b"")


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
    args = build_parser(cli._COMMANDS).parse_args(argv)
    with pytest.raises(CensusError) as exc:
        cli.handler(args.command)(args)
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == message
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def refused_arguments():
    """Every identity with each argument it does not take."""
    for name, entry in IDENTITIES.items():
        if entry.values is None:
            yield name, "at"
        if not entry.counts:
            yield name, "milnor"
        if entry.weight != "alpha":
            yield name, "alpha"


@pytest.mark.parametrize("identity, argument", list(refused_arguments()))
def test_an_argument_the_identity_does_not_take_is_refused(tmp_path, capsys, identity, argument):
    """A value, Milnor counts or a weight is refused by every identity that
    does not take it, instead of being ignored: no row is labelled with a
    value it never read, and no answer is computed with the Morse counts or
    the fixed weight in place of what was asked for."""
    entry = IDENTITIES[identity]
    message = {
        "at": f"identity {identity!r} takes no target value",
        "milnor": "milnor counts do not apply to this identity",
        "alpha": f"identity {identity!r} takes no weight; its weight is {entry.weight}",
    }[argument]
    bundle = load_entry("cusp-linear")
    at = "nonsense" if argument == "at" else None if entry.values is None else "0"
    with pytest.raises(IdentityArgumentError) as exc:
        check_identity(
            bundle.census,
            identity,
            at=at,
            alpha=eu_weight(bundle.census) if argument == "alpha" else None,
            fiber_census=bundle.fiber_censuses.get(at),
            use_milnor=argument == "milnor",
        )
    assert str(exc.value) == message
    doc = json.loads(json.dumps(bundle.raw))
    del doc["fibration"]["fiber_chi"]["V2"]["generic"]
    path = tmp_path / "blanked.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--identity", identity, "--unknown", "fiber_chi.V2.generic"]
    argv += [] if at is None else ["--at", at]
    argv += {"at": [], "milnor": ["--use-milnor"], "alpha": ["--alpha", "eu"]}[argument]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


# --- a critical point off the closure of the regular part ----------------


def test_a_point_off_the_regular_closure_skips_its_local_terms(tmp_path, capsys):
    """A critical point on an isolated point stratum has no local term on
    the regular part's closure: the rows that need one SKIP, naming the
    point, and every other row is still checked."""
    path = tmp_path / "off-closure.json"
    path.write_text(json.dumps(edited(OFF_CLOSURE)))
    loose = "SKIP (census 'node-linear' is not declared equidimensional)"
    off = "SKIP (critical point 'qw' does not lie in the closure of 'V2')"
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr() == (
        "\n".join(
            [
                "bdk_point_formula [at=V1]: LHS=1 RHS=1 OK",
                "bdk_point_formula [at=W]: LHS=1 RHS=1 OK",
                f"prop_brasselet_vs_fiber_eu [a=0]: {loose}",
                "bdk_global_1 [a=0, alpha=1]: LHS=2 RHS=2 OK",
                "bdk_global_1 [a=generic, alpha=1]: LHS=2 RHS=2 OK",
                "thm_generic_fiber: LHS=0 RHS=0 OK",
                "thm_generic_fiber [counts=milnor]: SKIP (missing census data: "
                "critical_points.qw.milnor_numbers)",
                "cor_constructible [alpha=1]: LHS=0 RHS=0 OK",
                f"cor_equi: {loose}",
                "bdk_global_2 [alpha=1]: LHS=0 RHS=0 OK",
                "bdk_global_3 [a=0, alpha=1]: LHS=0 RHS=0 OK",
                "prop_any_value [a=0, alpha=1]: LHS=0 RHS=0 OK",
                f"cor_generic_vs_any [a=0]: {loose}",
                "value_consistency [a=0]: LHS=2 RHS=2 OK",
                f"stv_global_eu: {loose}",
                f"polar_vs_fiber [a=0]: {off}",
                f"polar_vs_fiber [a=generic]: {loose}",
                f"polar_vs_infinity [a=0]: {loose}",
                "18 checks, 0 failed, 8 skipped",
                "",
            ]
        ),
        "",
    )
    # with a slice, its row comes last: the slicing step reads the weight Eu
    assert main(["check", str(path), "--hyperplane", fixture_path("node-linear")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [f"hyperplane_step [a=0]: {loose}", "19 checks, 0 failed, 9 skipped"]


# --- catalog run and the colored rows, pinned ----------------------------

CATALOG_PINS = json.loads((DATA / "catalog_outputs.json").read_text())


class Terminal(io.StringIO):
    def isatty(self):
        return True


def run_pinned(call, catalog_dir, monkeypatch):
    """stdout, stderr and exit code of one pinned call through ``main``.

    The pinned catalog is written to ``catalog_dir``, which ``{catalog}`` in
    the argv names and which ``catalog run`` reads its entries from where
    the call says so; ``{data}`` names ``tests/data``.  The stdout is a
    terminal where the call says so, with STRAT_EULER_COLOR unset or set
    as the call gives it."""
    for name, case in CATALOG_PINS["catalog"].items():
        (catalog_dir / f"{name}.json").write_text(json.dumps(edited(case)))
    if call["catalog"]:
        monkeypatch.setattr(catalog, "_fixture_dir", lambda: catalog_dir)
    if call["color"] is None:
        monkeypatch.delenv("STRAT_EULER_COLOR", raising=False)
    else:
        monkeypatch.setenv("STRAT_EULER_COLOR", call["color"])
    out, err = (Terminal() if call["tty"] else io.StringIO()), io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    argv = [
        arg.replace("{catalog}", str(catalog_dir)).replace("{data}", str(DATA))
        for arg in call["argv"]
    ]
    code = main(argv)
    return out.getvalue().split("\n"), err.getvalue(), code


def pinned_call_id(call):
    argv = " ".join(call["argv"]).replace("{data}/", "").replace("{catalog}/", "")
    tty = "" if not call["tty"] else "-tty" if call["color"] is None else "-tty-color0"
    return argv + ("-catalog" if call["catalog"] else "") + tty


@pytest.mark.parametrize("call", CATALOG_PINS["calls"], ids=pinned_call_id)
def test_catalog_run_and_colored_rows_match_the_recording(call, tmp_path, monkeypatch):
    """``catalog run`` on every fixture, on a repeated name, on an unknown
    name after a known one, and on a catalog holding a wrong expected value
    and an entry whose census name is not its file name; and the rows of
    ``check`` and ``catalog run`` on a terminal, colored unless
    STRAT_EULER_COLOR=0: stdout, stderr and exit code, byte for byte."""
    got = run_pinned(call, tmp_path, monkeypatch)
    assert got == (call["stdout"], call["stderr"], call["exit"])


# --- the process entry ---------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("check", "zk-2"),
        ("check", "/nonexistent/census.json"),
        ("compute", "zk-2", "--what", "eu-table"),
        ("solve", "{gap}", "--identity", "thm_generic_fiber", "--unknown", "chi.V1",
         "--emit-completed", "{out}"),
        ("fubini", str(DATA / "bundle.json")),
        ("catalog", "list"),
        ("catalog", "run", "zk-2"),
        ("-h",),
        ("check",),
    ],
    ids=lambda args: " ".join(Path(a).name for a in args[:2]),
)
def test_a_process_without_stdout_exits_2_with_one_error_line(args, tmp_path):
    """Started with file descriptor 1 closed, so that ``sys.stdout`` is
    None, every subcommand, help and a usage error are refused before
    anything runs: one error line, exit 2, and no completed file written."""
    doc = json.loads(Path(fixture_path("cusp-linear")).read_text())
    del doc["strata"][0]["chi"]
    gap, out = tmp_path / "gap.json", tmp_path / "completed.json"
    gap.write_text(json.dumps(doc))
    paths = {"zk-2": fixture_path("zk-2"), "{gap}": str(gap), "{out}": str(out)}
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" 1>&-', "sh", sys.executable, "-m", "strat_euler",
         *(paths.get(arg, arg) for arg in args)],
        stderr=subprocess.PIPE,
        text=True,
    )
    assert_reported_closed_stdout(proc)
    assert proc.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gap.json"]


def test_main_leaves_the_gc_as_it_finds_it(capsys):
    """Only the process entry freezes and turns the GC off: tests, the
    benchmark's in-process rounds and library callers keep their GC state
    through ``main``."""
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(["check", fixture_path("node-linear")]) == 0
    assert main(["fubini", str(DATA / "bundle.json")]) == 0
    assert main(["check", "/nonexistent/file.json"]) == 2
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.fixture
def entry_steps(monkeypatch):
    """What ``cli.run`` does, in order, with the GC, ``main``, the atexit
    handlers and the process exit recorded instead of done; no tracer or
    profiler is installed."""
    steps = []
    monkeypatch.setattr(gc, "freeze", lambda: steps.append("freeze"))
    monkeypatch.setattr(gc, "disable", lambda: steps.append("disable"))
    monkeypatch.setattr(cli, "main", lambda: steps.append("main") or 7)
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: steps.append("atexit"))
    monkeypatch.setattr(cli.os, "_exit", lambda code: steps.append(("exit", code)))
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    return steps


@pytest.mark.parametrize("closed", [False, True], ids=["stdout", "no-stdout"])
def test_run_ends_the_process_when_main_returns(closed, entry_steps, monkeypatch):
    """Also when ``sys.stdout`` is None, as in a process started with file
    descriptor 1 closed, where ``main`` refuses every call with exit 2."""
    if closed:
        monkeypatch.setattr(sys, "stdout", None)
    cli.run()
    assert entry_steps == ["freeze", "disable", "main", "atexit", ("exit", 7)]


def test_a_profiled_run_returns_its_code(entry_steps, monkeypatch):
    """A profiler reports after the entry returns, so the entry returns."""
    monkeypatch.setattr(sys, "getprofile", lambda: print)
    assert cli.run() == 7
    assert entry_steps == ["freeze", "disable", "main"]


def test_a_run_whose_output_cannot_be_flushed_returns_its_code(entry_steps, monkeypatch):
    """The normal exit then reports the failed flush, as it always has."""

    class Gone(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Gone())
    assert cli.run() == 7
    assert entry_steps == ["freeze", "disable", "main", "atexit"]


# registers an atexit handler, then runs the process entry on argv[1:]
ATEXIT_THEN_RUN = """
import atexit, sys
atexit.register(lambda: print("the atexit handler ran", file=sys.stderr))
from strat_euler.cli import run
sys.exit(run())
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", fixture_path("zk-2")], 0),
        (["check", str(DATA / "wide-n21.json")], 1),
        (["check", "/nonexistent/census.json"], 2),
    ],
    ids=["0", "1", "2"],
)
def test_the_entry_runs_the_atexit_handlers_before_it_ends(argv, code):
    """The entry ends the process itself when ``main`` returns: a handler
    registered before it still runs, and stdout and the exit code are those
    of ``python -m strat_euler``."""
    plain = run_cli(*argv)
    proc = subprocess.run(
        [sys.executable, "-c", ATEXIT_THEN_RUN, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, STRAT_EULER_COLOR="0"),
    )
    assert plain.returncode == code
    assert (proc.stdout, proc.stderr, proc.returncode) == (
        plain.stdout,
        plain.stderr + "the atexit handler ran\n",
        code,
    )


def test_cprofile_still_prints_its_table():
    """``python -m cProfile`` prints its table once the module has run; an
    entry that ended the process under it would leave the table out."""
    plain = run_cli("check", fixture_path("zk-2"))
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "strat_euler", "check", fixture_path("zk-2")],
        capture_output=True,
        text=True,
        env=dict(os.environ, STRAT_EULER_COLOR="0"),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(plain.stdout)
    assert "function calls" in proc.stdout[len(plain.stdout):]


def test_python_i_still_reaches_its_prompt():
    """``python -i`` reads its prompt's input once the module has run."""
    proc = subprocess.run(
        [sys.executable, "-i", "-m", "strat_euler", "check", fixture_path("zk-2")],
        input="print('at the prompt')\n",
        capture_output=True,
        text=True,
    )
    assert "at the prompt" in proc.stdout


def test_a_process_writes_the_whole_completed_census(tmp_path):
    """``solve --emit-completed`` writes its file before the process ends:
    the file is the input with the solved slot written back.  The census is
    small, so a write left in a file buffer would be lost."""
    doc = json.loads(json.dumps(load_entry("zk-3").raw))
    del doc["fibration"]["fiber_chi"]["V1"]["generic"]
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps(doc))
    out = tmp_path / "completed.json"
    proc = run_cli(
        "solve", str(gap), "--identity", "thm_generic_fiber", "--unknown", "fiber_chi.V1.generic",
        "--emit-completed", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    solved, written = proc.stdout.splitlines()
    name, value = solved.split(" = ")
    assert name == "fiber_chi.V1.generic"
    assert written == f"wrote completed census to {out}"
    completed = apply_field_to_raw(doc, name, int(value))
    assert out.read_text() == json.dumps(completed, indent=2) + "\n"


def process_calls():
    """(argv, files to write, stdout lines, stderr lines, exit code) of the
    recorded calls a process of its own can replay: every pinned ``check``,
    every pinned ``catalog`` call on the shipped catalog with stdout not a
    terminal, and the first missing-link call of each kind and exit code."""
    calls = []
    for case in json.loads((DATA / "check_outputs.json").read_text()):
        argv = ["check", census_path(case["census"])]
        if case["hyperplane"]:
            argv += ["--hyperplane", census_path(case["hyperplane"])]
        calls.append((argv, {}, case["lines"], [], case["exit"]))
    for call in CATALOG_PINS["calls"]:
        if not (call["catalog"] or call["tty"]):
            stdout = "\n".join(call["stdout"]).splitlines()
            calls.append((call["argv"], {}, stdout, call["stderr"].splitlines(), call["exit"]))
    kinds = set()
    for case in json.loads((DATA / "missing_link_calls.json").read_text()):
        kind = (tuple(a for a in case["argv"] if a.startswith("-")), case["argv"][0], case["exit"])
        if kind not in kinds:
            kinds.add(kind)
            files = {arg: case[arg[1:-1]] for arg in ("{census}", "{hyperplane}") if arg in case["argv"]}
            calls.append((case["argv"], files, case["stdout"], case["stderr"], case["exit"]))
    return calls


def process_call_id(call):
    argv, _files, _out, _err, code = call
    return " ".join(Path(arg).name for arg in argv) + f" -> {code}"


@pytest.mark.parametrize("call", process_calls(), ids=process_call_id)
def test_a_process_replays_the_recorded_calls(call, tmp_path):
    """``python -m strat_euler`` runs through the freezing entry: stdout,
    stderr and the exit code, line for line, as recorded in-process."""
    argv, files, stdout, stderr, code = call
    for arg, spec in files.items():
        path = tmp_path / f"{arg[1:-1]}.json"
        path.write_text(json.dumps(faulted_doc(spec)))
        argv = [str(path) if a == arg else a for a in argv]
    proc = run_cli(*argv)
    assert (proc.stdout.splitlines(), proc.stderr.splitlines(), proc.returncode) == (
        stdout,
        stderr,
        code,
    )


# --- the plain reader agrees with argparse -------------------------------

# subcommands and near misses; every option string, abbreviated and with
# =value; help and the tokens argparse reads specially; choice values and
# others
WORDS = [
    "check", "compute", "solve", "fubini", "catalog", "chec", "checks", "Check", "catalogs",
    "--hyperplane", "--what", "--at", "--identity", "--unknown", "--alpha", "--use-milnor",
    "--emit-completed", "--hyper", "--h", "--wh", "--a", "--al", "--id", "--unk", "--use",
    "--emit", "--what=eu-table", "--what=nope", "--at=0", "--alpha=eu", "--hyperplane=s.json",
    "--use-milnor=1", "--emit-completed=out.json",
    "-h", "--help", "--", "-", "-1", "", "-x y",
    "eu-table", "eu-global", "brasselet", "lambda", "binf", "detect-irregular", "1", "eu",
    "run", "list", "nope", "2", "0", "generic", "c.json", "zk-2",
]

# one command line of each shape the reader accepts, to edit
PLAIN = [
    ["check", "c.json"],
    ["check", "c.json", "--hyperplane", "s.json"],
    ["compute", "c.json", "--what", "binf", "--at", "0"],
    ["compute", "--what", "eu-table", "c.json"],
    ["solve", "c.json", "--identity", "cor_equi", "--unknown", "chi.V1", "--at", "0",
     "--alpha", "eu", "--use-milnor", "--emit-completed", "out.json"],
    ["fubini", "b.json"],
    ["catalog", "run", "zk-2", "zk-2"],
    ["catalog", "list"],
]


@st.composite
def command_lines(draw):
    """A list of words, or a plain command line with up to three words
    inserted, deleted or replaced."""
    word = st.sampled_from(WORDS)
    if draw(st.booleans()):
        return draw(st.lists(word, max_size=8))
    argv = list(draw(st.sampled_from(PLAIN)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            argv.insert(i, draw(word))
        elif i < len(argv):
            argv[i : i + 1] = [] if edit == "delete" else [draw(word)]
    return argv


def argparse_reading(argv):
    """``vars`` of what argparse makes of ARGV, None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser(cli._COMMANDS).parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=600)
@given(command_lines())
def test_the_plain_reader_agrees_with_argparse(argv):
    """The reader declines, or reads every attribute as argparse does; it
    declines every command line argparse refuses or answers with help."""
    plain = read_plain(argv)
    if plain is not None:
        assert vars(plain) == argparse_reading(argv)


def test_the_plain_reader_accepts_the_traffic(tmp_path):
    """A reader that declined the calls the tests and the benchmark make
    would pass every other test and save nothing: it reads the sweep of
    tests/test_imports.py, the recorded missing-link calls and each shape of
    call the benchmark makes, as argparse does."""
    calls = sweep_calls(tmp_path)
    calls += [case["argv"] for case in json.loads((DATA / "missing_link_calls.json").read_text())]
    calls += [
        ["catalog", "run"],
        ["catalog", "list"],
        ["check", "zk-2.json"],
        ["check", "broughton.json", "--hyperplane", "broughton-slice.json"],
        ["compute", "zk-2.json", "--what", "eu-table"],
        ["compute", "zk-2.json", "--what", "eu-global"],
        ["compute", "zk-2.json", "--what", "detect-irregular"],
        ["compute", "cusp-linear.json", "--what", "brasselet", "--at", "v1"],
        ["compute", "zk-2.json", "--what", "lambda", "--at", "0"],
        ["compute", "zk-2.json", "--what", "binf", "--at", "generic"],
        ["solve", "zk-2-without-chi.V1.json", "--identity", "thm_generic_fiber",
         "--unknown", "chi.V1"],
        ["solve", "layered-10x9-without-fiber_chi.T.generic.json", "--identity", "cor_equi",
         "--unknown", "fiber_chi.T.generic"],
        ["fubini", "bundle-0.json"],
    ]
    for argv in calls:
        plain = read_plain(argv)
        assert plain is not None, argv
        assert vars(plain) == argparse_reading(argv), argv
