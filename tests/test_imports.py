"""Importing the package imports none of its modules, each call only the
modules it runs, and each function of a module a call loads is run by that
call or kept for a stated reason."""

import ast
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strat_euler
from strat_euler.catalog import load_entry
from strat_euler.documents import _fixture_dir
from strat_euler.entries import list_entries
from strat_euler.fibered import IDENTITIES

from conftest import document_text, faulted_doc, imported_by

DATA = Path(__file__).with_name("data")

def fixture(name):
    return str(_fixture_dir() / f"{name}.json")


def test_importing_the_package_imports_no_module():
    run = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, strat_euler; "
            "print(*sorted(m for m in sys.modules if m.startswith('strat_euler')))",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.split() == ["strat_euler"]


def test_importing_the_main_module_runs_nothing():
    """``strat_euler.__main__`` runs the command line only as ``python -m
    strat_euler``: imported, it reads no arguments, prints nothing, and
    leaves the importer's collector on."""
    run = subprocess.run(
        [
            sys.executable,
            "-c",
            "import gc, sys, strat_euler.__main__; sys.exit(0 if gc.isenabled() else 3)",
        ],
        capture_output=True,
        text=True,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


def test_importing_the_command_line_imports_only_it_and_the_errors():
    run = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, strat_euler.cli; "
            "print(*sorted(m for m in sys.modules if m.startswith('strat_euler.')))",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.split() == ["strat_euler.cli", "strat_euler.errors"]


# the modules of the census model, the identity registry, the polar layer
# and the catalog
CENSUS_LAYERS = {"strata", "obstruction", "fibration", "census_io", "fibered", "polar", "catalog"}

# the modules every call loads, and those of every census call
EVERY_CALL = {"strat_euler", "cli", "errors"}
CENSUS = EVERY_CALL | {"documents", "census_io", "strata", "obstruction", "fibration", "records"}
# the twelve modules check has always loaded
CHECK = CENSUS | {"fibered", "polar", "catalog"}

# each call and exactly the modules it loads: {layered} has no polar block,
# {polar} has one, and {gap} and {polar_gap} are the two without a fiber slot
LOADS = [
    (["catalog", "list"], EVERY_CALL | {"entries", "documents"}),
    (["catalog", "run"], CHECK | {"entries", "catalog_run", "compute"}),
    (["fubini", str(DATA / "bundle.json")], EVERY_CALL | {"documents", "euler_calculus", "records"}),
    (["check", "{layered}"], CHECK),
    (["check", "{polar}", "--hyperplane", fixture("broughton-slice")], CHECK),
    (["solve", "{gap}", "--identity", "cor_equi", "--unknown", "fiber_chi.T.generic"],
     CENSUS | {"fibered", "slots"}),
    (["solve", "{polar_gap}", "--identity", "thm_generic_fiber", "--unknown",
      "fiber_chi.V1.generic"], CENSUS | {"fibered", "slots", "polar"}),
    (["check"], EVERY_CALL | {"arguments"}),
    (["-h"], EVERY_CALL | {"arguments"}),
    (["check", "{layered}", "--hyper", fixture("broughton-slice")], CHECK | {"arguments"}),
] + [
    (["compute", census, "--what", *what], CENSUS | {"compute"} | table | polar)
    for census, polar in (("{layered}", set()), ("{polar}", {"polar"}))
    for what, table in (
        (["eu-table"], {"table"}),
        (["eu-global"], set()),
        (["detect-irregular"], set()),
        (["brasselet", "--at", "generic"], set()),
        (["lambda", "--at", "generic"], set()),
        (["binf", "--at", "generic"], set()),
    )
]


@pytest.mark.parametrize(
    "argv, modules", LOADS, ids=lambda v: " ".join(Path(a).name for a in v) if isinstance(v, list) else ""
)
def test_each_call_loads_exactly_its_modules(argv, modules, tmp_path):
    """Each subcommand loads the modules it runs and no other: the census
    layers only for a census, the identities only for check and solve, the
    polar layer only for a census with a polar block, the whole table only
    for eu-table, argparse's module only for a command line the plain
    reader declines."""
    gap = json.loads((DATA / "layered-5x4.json").read_text())
    del gap["fibration"]["fiber_chi"]["T"]["generic"]
    polar_gap = load_entry("zk-3").raw
    del polar_gap["fibration"]["fiber_chi"]["V1"]["generic"]
    paths = {"layered": str(DATA / "layered-5x4.json"), "polar": fixture("broughton")}
    for name, doc in (("gap", gap), ("polar_gap", polar_gap)):
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    code, loaded = imported_by(*(paths.get(a[1:-1], a) if a.startswith("{") else a for a in argv))
    assert code in (0, 1, 2)
    assert loaded == modules


@pytest.mark.parametrize(
    "args", [("catalog", "list"), ("fubini", str(DATA / "bundle.json"))], ids=lambda a: a[0]
)
def test_listing_and_fubini_load_no_census_layer(args):
    code, modules = imported_by(*args)
    assert code == 0
    assert not modules & CENSUS_LAYERS


@pytest.mark.parametrize(
    "what",
    [
        ("eu-table",),
        ("eu-global",),
        ("detect-irregular",),
        ("brasselet", "--at", "0"),
        ("lambda", "--at", "0"),
        ("binf", "--at", "0"),
    ],
    ids=lambda what: what[0],
)
def test_compute_loads_neither_the_identities_nor_the_catalog(what):
    code, modules = imported_by("compute", fixture("broughton"), "--what", *what)
    assert code == 0
    assert "fibration" in modules
    assert not modules & {"fibered", "catalog", "euler_calculus"}


def test_compute_and_solve_leave_the_catalog_and_simplicial_layers_out(tmp_path):
    doc = load_entry("zk-3").raw
    del doc["fibration"]["fiber_chi"]["V1"]["generic"]
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps(doc))
    for args in (
        ("compute", fixture("cusp-linear"), "--what", "eu-table"),
        ("compute", fixture("broughton"), "--what", "binf", "--at", "0"),
        ("solve", str(gap), "--identity", "thm_generic_fiber",
         "--unknown", "fiber_chi.V1.generic"),
    ):
        code, modules = imported_by(*args)
        assert code == 0, args
        assert not modules & {"catalog", "euler_calculus"}, args


def test_polar_is_loaded_only_for_a_census_with_a_polar_block(tmp_path):
    """census_io imports the polar layer for a document's polar block:
    compute and solve on the layered census (none) leave it out, compute on
    broughton (one) loads it, and check always runs the polar rows."""
    layered = str(DATA / "layered-5x4.json")
    doc = json.loads((DATA / "layered-5x4.json").read_text())
    del doc["fibration"]["fiber_chi"]["T"]["generic"]
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps(doc))
    for args, loaded in (
        (("compute", layered, "--what", "eu-table"), False),
        (("compute", layered, "--what", "eu-global"), False),
        (("solve", str(gap), "--identity", "cor_equi", "--unknown", "fiber_chi.T.generic"), False),
        (("compute", fixture("broughton"), "--what", "eu-global"), True),
        (("check", layered), True),
    ):
        code, modules = imported_by(*args)
        assert code in (0, 1), args
        assert ("polar" in modules) == loaded, args


def test_check_leaves_the_simplicial_layer_out():
    code, modules = imported_by("check", fixture("node-linear"))
    assert code == 0
    assert "catalog" in modules
    assert "euler_calculus" not in modules


# the standard modules no well-formed call needs: dataclasses and the
# inspect module it loads; argparse, and the gettext and locale it loads;
# typing, which only annotations name
UNNEEDED = ("argparse", "dataclasses", "gettext", "inspect", "locale", "typing")

# imports the command line, then runs each argv of argv[1] through
# cli.main, printing after each step which of argv[2] have been loaded since
# start-up; it runs without the site hooks (-S), which may load them first
LOADS_AFTER_EACH = """
import contextlib, io, json, sys
at_start = set(sys.modules)
import strat_euler.cli

def loaded():
    return sorted(m for m in json.loads(sys.argv[2]) if m in set(sys.modules) - at_start)

print(json.dumps(["import", 0, loaded()]))
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = strat_euler.cli.main(args)
    print(json.dumps([args[0], code, loaded()]))
"""

def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path):
    """Importing dataclasses (and the inspect module it loads) would cost
    every call start-up time for nothing the package needs; so would
    argparse (and gettext and locale) on a command line the plain reader
    reads, and typing anywhere.  An abbreviated option still goes to
    argparse."""
    doc = load_entry("zk-3").raw
    del doc["fibration"]["fiber_chi"]["V1"]["generic"]
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps(doc))
    calls = [
        ["check", fixture("cusp-linear")],
        ["compute", fixture("broughton"), "--what", "eu-table"],
        ["solve", str(gap), "--identity", "thm_generic_fiber", "--unknown", "fiber_chi.V1.generic"],
        ["catalog", "run"],
        ["catalog", "list"],
        ["fubini", str(DATA / "bundle.json")],
        ["check", fixture("broughton"), "--hyperplane", fixture("broughton-slice")],
        ["compute", fixture("broughton"), "--what", "binf", "--at", "0"],
        ["check", fixture("broughton"), "--hyper", fixture("broughton-slice")],
    ]
    run = subprocess.run(
        [sys.executable, "-S", "-c", LOADS_AFTER_EACH, json.dumps(calls), json.dumps(UNNEEDED)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(strat_euler.__file__).parent.parent)},
    )
    steps = [json.loads(line) for line in run.stdout.splitlines()]
    *plain, abbreviated = steps
    assert plain == [
        ["import", 0, []],
        ["check", 0, []],
        ["compute", 0, []],
        ["solve", 0, []],
        ["catalog", 0, []],
        ["catalog", 0, []],
        ["fubini", 0, []],
        ["check", 0, []],
        ["compute", 0, []],
    ]
    assert abbreviated[:2] == ["check", 0]
    assert "argparse" in abbreviated[2]


# --- every function in src/ is run by some command, or kept for a reason ---

SRC = Path(strat_euler.__file__).parent

# the functions no call of the sweep reaches, each with the reason it stays
UNREACHED = {
    "table.LabeledMatrix.entry": "library API, the README's example reads the table with it",
    "table.LabeledMatrix._position": "the label lookup of LabeledMatrix.entry",
    "fibered.CheckLine.ok": "library API, named in the README; perfbench/run.py reads it",
    "fibration.FiberedCensus.validate": "library API: checks a census built in code",
    "strata.restrict_to_closure": "oracle for the solved closure columns; the benchmark traces it",
    "fibered.restrict_fibered": "oracle for the solved closure columns; the benchmark traces it",
    "obstruction.invert_unitriangular": "oracle: the dense inverse; the benchmark traces it",
}

# what perfbench/tracing.py wraps or calls by module and name, and what
# perfbench/run.py reads, where a call that loads it need not run it; the
# names stay where they are, so each module keeps them
TRACED = {
    "catalog.evaluate_expected_key",
    "catalog.load_entry",
    "documents._fixture_dir",  # the tracer calls it as catalog._fixture_dir
    "census_io.apply_field_to_raw",
    "fibered.CheckLine.ok",
    "fibered.restrict_fibered",
    "fibered.solve_unknown",
    "fibered.solve_unknown.residual",
    "obstruction.check_bdk_point_formula",
    "obstruction.invert_unitriangular",
    "obstruction.solve_bdk",
    "polar.brasselet_from_polar",
    "polar.hyperplane_step",
    "polar.infinity_from_polar",
    "polar.stv_global_eu",
    "strata.eta",
    "strata.restrict_to_closure",
}

# what only the traced functions, of those a call loads, run
FOR_TRACED = {
    "records.replace": "restrict_to_closure and restrict_fibered build their censuses with it",
    "polar.PolarData.gamma_at": "the polar routes",
    "polar._alternating_gamma": "the polar routes",
    "polar._local_terms": "the polar routes",
    "polar.eu_of_function_local": "the polar routes",
    "strata.SolvedCensus._weight": "eta",
    "strata.SolvedCensus.eta": "eta",
    "strata.SolvedCensus.resolved": "the point formula",
}

# what runs only while a census is refused: the compute and solve sweeps
# read no malformed census
ERROR_ONLY = {
    "census_io._refuse": "the error of a refused value, with its path",
    "documents._refuse_constant": "the error of a NaN or an infinity in the text",
}

# the rest a subcommand loads and does not run: census-model code check
# runs, in the modules check loads and may not split, and the chi edit that
# solve runs on the census model
SHARED = {
    "check": {
        "strata.StratifiedCensus.with_chi": "solve's chi slots",
    },
    "compute": {
        "strata.StratifiedCensus.with_chi": "solve's chi slots",
        "fibration.FiberedCensus.point": "the fiber defect and the polar routes",
        "fibration.FiberedCensus.points_at": "the identities and the polar routes",
        "strata.StratumConstructibleFunction.value": "eta's closure coefficients",
        "strata.StratumPoset.linear_extension": "the order of check's rows",
    },
    "solve": {
        "fibered.CheckLine.line": "the text of check's rows",
        "fibered.CheckLine.sides": "check's battery",
        "fibered.CheckLine.skip": "check's SKIP rows",
        "fibration.resolve_value_label": "compute and the hyperplane step",
        "strata.StratumPoset.linear_extension": "the order of check's rows",
    },
}


def defined_functions():
    """(file, first line) -> dotted name of every non-dunder function in the
    package source; the first line is the one a code object reports, the
    first decorator's for a decorated function."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = name
                visit(child, name, path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, str(path))
    return found


def sweep_calls(tmp_path):
    """The argv lists of the sweep: every subcommand on the fixtures and the
    recorded malformed inputs."""
    def written(name, doc):
        path = tmp_path / f"{len(calls)}-{name}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    calls = [["catalog", "run"], ["catalog", "list"], ["fubini", str(DATA / "bundle.json")]]
    calls += [["check", fixture(name)] for name in list_entries()]
    calls += [
        ["check", str(DATA / "wide-n21.json")],
        ["check", str(DATA / "layered-5x4.json")],
        ["check", fixture("broughton"), "--hyperplane", fixture("broughton-slice")],
    ]
    for what in ("eu-table", "eu-global", "detect-irregular"):
        calls.append(["compute", fixture("cusp-linear"), "--what", what])
    for what in ("brasselet", "lambda", "binf"):
        for at in ("0", "generic", "undeclared"):
            calls.append(["compute", fixture("cusp-linear"), "--what", what, "--at", at])
        calls.append(["compute", fixture("cusp-linear"), "--what", what])
    # one blanked chi slot and one blanked fiber slot per identity
    raw = load_entry("cusp-linear").raw
    blanked = {}
    for label in ("0", "generic"):
        doc = copy.deepcopy(raw)
        del doc["fibration"]["fiber_chi"]["V2"][label]
        blanked[f"fiber_chi.V2.{label}"] = written(label, doc)
    doc = copy.deepcopy(raw)
    del doc["strata"][1]["chi"]
    blanked["chi.V2"] = written("chi", doc)
    out = str(tmp_path / "completed.json")
    for identity, entry in IDENTITIES.items():
        at = [] if entry.values is None else ["--at", "0"]
        for slot in ("chi.V2", "fiber_chi.V2." + (at[-1] if at else "generic")):
            for alpha in ("1", "eu"):
                calls.append(
                    ["solve", blanked[slot], "--identity", identity, "--unknown", slot, *at,
                     "--alpha", alpha, "--emit-completed", out]
                )
            if entry.counts:
                calls.append(
                    ["solve", blanked[slot], "--identity", identity, "--unknown", slot, *at,
                     "--use-milnor"]
                )
    # the malformed documents include an order with a cycle and an order
    # pair that lowers dimension
    for case in json.loads((DATA / "loader_errors.json").read_text()):
        calls.append(["check", written("malformed", document_text(case))])
    for case in json.loads((DATA / "missing_link_calls.json").read_text()):
        argv = []
        for arg in case["argv"]:
            if arg in ("{census}", "{hyperplane}"):
                arg = written(arg[1:-1], faulted_doc(case[arg[1:-1]]))
            argv.append(arg)
        calls.append(argv)
    return calls


def argparse_calls():
    """Command lines the plain reader leaves to argparse: usage errors (exit
    2), help (exit 0) and an abbreviated option."""
    census = fixture("zk-2")
    return [
        ["check"],
        ["compute", census, "--what", "nope"],
        ["check", census, "--hyper", census],
        ["-h"],
    ]


# runs each argv of the JSON file argv[1] through cli.main, the last one
# through the process entry, with a profiler on from before the package is
# imported; prints where each function called under the directory argv[2]
# starts, and the files of the package modules loaded
REACHED_BY = """
import contextlib, io, json, sys
calls_file, src = sys.argv[1:]
with open(calls_file) as f:
    *calls, last = json.load(f)
reached = set()

def profile(frame, event, _arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    import strat_euler.cli
    for argv in calls:
        try:
            strat_euler.cli.main(argv)
        except SystemExit:  # argparse's exit after help or a usage error
            pass
    sys.argv[1:] = last
    try:
        strat_euler.cli.run()
    except SystemExit:
        pass
sys.setprofile(None)
loaded = [m.__file__ for name, m in sys.modules.items() if name.startswith("strat_euler.")]
print(json.dumps([sorted(reached), loaded]))
"""


@pytest.fixture(scope="module")
def reached_by_subcommand(tmp_path_factory):
    """subcommand -> (the functions its sweep calls reach, the names of the
    functions defined in the modules they load); the command lines only
    argparse reads count as one more subcommand.  Each subcommand runs in a
    fresh process, so each loads only its own modules."""
    tmp_path = tmp_path_factory.mktemp("sweep")
    groups = {"argparse": argparse_calls()}
    for argv in sweep_calls(tmp_path):
        groups.setdefault(argv[0], []).append(argv)
    defined = defined_functions()
    out = {}
    for subcommand, calls in groups.items():
        calls_file = tmp_path / f"{subcommand}.json"
        calls_file.write_text(json.dumps(calls))
        run = subprocess.run(
            [sys.executable, "-c", REACHED_BY, str(calls_file), str(SRC)],
            capture_output=True,
            text=True,
            check=True,
        )
        reached, loaded = json.loads(run.stdout)
        reached = {tuple(key) for key in reached}
        out[subcommand] = (
            {name for key, name in defined.items() if key in reached},
            {name for (path, _line), name in defined.items() if path in loaded},
        )
    return out


def test_every_function_in_src_is_reached_or_allowed(reached_by_subcommand):
    """Runs every subcommand on the fixtures and the recorded malformed
    inputs, and the command lines only argparse reads, under a profiler: a
    function of the package that none of them reaches has to be in
    UNREACHED, with its reason, and every name there has to exist and stay
    unreached."""
    reached = set().union(*(names for names, _loaded in reached_by_subcommand.values()))
    unreached = set(defined_functions().values()) - reached
    unlisted = sorted(unreached - UNREACHED.keys())
    assert not unlisted, f"no call reaches {unlisted}: delete them, or list them with a reason"
    stale = sorted(UNREACHED.keys() - unreached)
    assert not stale, f"listed as unreached but reached or gone: {stale}"


@pytest.mark.parametrize("subcommand", SHARED)
def test_each_subcommand_runs_what_it_loads(subcommand, reached_by_subcommand):
    """A function in a module the subcommand loads is reached by its sweep
    calls, or traced by the benchmark, or run only by traced code or only
    while a census is refused, or is census-model code check runs, listed
    in SHARED for this subcommand with its reason.  The code a subcommand
    never runs lives in modules only other calls load."""
    reached, loaded = reached_by_subcommand[subcommand]
    allowed = TRACED | FOR_TRACED.keys() | ERROR_ONLY.keys() | UNREACHED.keys()
    assert allowed <= set(defined_functions().values()), "an allowed name is gone"
    assert sorted(loaded - reached - allowed) == sorted(SHARED[subcommand])


# --- no call makes cyclic garbage: the premise of the entry's gc.disable() ---

# imports every module of the package under the directory argv[2], then runs
# each argv of the JSON file argv[1] through cli.main in a process forked
# for it, with the collector off, and prints what a full collection finds
# after the imports, after json's indenting encoder (which --emit-completed
# writes with) and after each call
GARBAGE_AFTER_EACH = """
import contextlib, gc, io, json, os, sys
from pathlib import Path
calls_file, src = sys.argv[1:]
with open(calls_file) as f:
    calls = json.load(f)
gc.disable()
gc.collect()
for path in sorted(Path(src).glob("*.py")):
    __import__(f"strat_euler.{path.stem}")
import strat_euler.cli
found = {"import": gc.collect()}
json.dumps({"a": [1]}, indent=2)
found["json indent"] = gc.collect()
found["calls"] = []
for argv in calls:
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                strat_euler.cli.main(argv)
            os.write(w, str(gc.collect()).encode())
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as f:
        found["calls"].append(json.loads(f.read() or "null"))
    os.waitpid(pid, 0)
print(json.dumps(found))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks a process per call")
def test_no_call_leaves_cyclic_garbage(tmp_path):
    """The process entry turns the cyclic GC off, which costs memory only
    if a call makes objects that only the collector frees.  With the
    collector off, a full collection after each call of the sweep, in a
    process of its own, finds nothing, catalog run's censuses and error
    paths included: everything is freed by reference counting.  The one
    exception is the stdlib's: the json encoder ``--emit-completed``
    indents with is a cycle of closures, a fixed count per file written.
    A change that makes cyclic garbage, say a census and its solved view
    pointing at each other, fails here instead of growing memory unseen."""
    calls = sweep_calls(tmp_path)
    calls_file = tmp_path / "calls.json"
    calls_file.write_text(json.dumps(calls))
    run = subprocess.run(
        [sys.executable, "-c", GARBAGE_AFTER_EACH, str(calls_file), str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    found = json.loads(run.stdout)
    assert found["import"] == 0
    assert found["json indent"] > 0
    # a refused solve writes nothing
    written = {0, found["json indent"]}
    leaks = [
        (argv, n)
        for argv, n in zip(calls, found["calls"])
        if n not in (written if "--emit-completed" in argv else {0})
    ]
    assert not leaks
    assert found["json indent"] in found["calls"]
    assert {argv[0] for argv in calls} == {"catalog", "check", "compute", "fubini", "solve"}
