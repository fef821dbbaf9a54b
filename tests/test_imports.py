"""The package imports its modules on first use, and each subcommand only
the modules it runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import strat_euler
from strat_euler import load_entry
from strat_euler.catalog import _fixture_dir

DATA = Path(__file__).with_name("data")

# the modules of the census model, the identity registry, the polar layer
# and the catalog
CENSUS_LAYERS = {"strata", "obstruction", "fibration", "census_io", "fibered", "polar", "catalog"}

# runs `python -m strat_euler ARGS` in-process, then prints the exit code and
# the strat_euler modules it imported
RUN_MODULE = """
import contextlib, io, runpy, sys
sys.argv = ["strat_euler", *sys.argv[1:]]
code = None
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("strat_euler", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m for m in sys.modules if m.startswith("strat_euler")))
"""


def imported_by(*args):
    run = subprocess.run(
        [sys.executable, "-c", RUN_MODULE, *args],
        capture_output=True,
        text=True,
        check=True,
    )
    code, *modules = run.stdout.split()
    return int(code), {m.removeprefix("strat_euler.") for m in modules}


def fixture(name):
    return str(_fixture_dir() / f"{name}.json")


def test_every_public_name_resolves():
    assert len(strat_euler.__all__) == len(set(strat_euler.__all__))
    for name in strat_euler.__all__:
        assert getattr(strat_euler, name) is not None, name
    assert set(strat_euler.__all__) <= set(dir(strat_euler))
    namespace = {}
    exec("from strat_euler import *", namespace)
    assert set(strat_euler.__all__) <= set(namespace)


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
    assert not modules & {"fibered", "catalog", "simplicial", "euler_calculus"}


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
        assert not modules & {"catalog", "simplicial", "euler_calculus"}, args


def test_check_leaves_the_simplicial_layer_out():
    code, modules = imported_by("check", fixture("node-linear"))
    assert code == 0
    assert "catalog" in modules
    assert not modules & {"simplicial", "euler_calculus"}


# imports the command line, then runs each argv of argv[1] through
# cli.main, printing after each step whether dataclasses or inspect has been
# loaded since start-up (a site hook may load them before the package runs)
LOADS_AFTER_EACH = """
import contextlib, io, json, sys
at_start = set(sys.modules)
import strat_euler.cli

def loaded():
    return sorted(m for m in ("dataclasses", "inspect") if m in set(sys.modules) - at_start)

print(json.dumps(["import", 0, loaded()]))
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = strat_euler.cli.main(args)
    print(json.dumps([args[0], code, loaded()]))
"""

def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path):
    """Importing dataclasses (and the inspect module it loads) would cost
    every call start-up time for nothing the package needs."""
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
    ]
    run = subprocess.run(
        [sys.executable, "-c", LOADS_AFTER_EACH, json.dumps(calls)],
        capture_output=True,
        text=True,
        check=True,
    )
    steps = [json.loads(line) for line in run.stdout.splitlines()]
    assert steps == [
        ["import", 0, []],
        ["check", 0, []],
        ["compute", 0, []],
        ["solve", 0, []],
        ["catalog", 0, []],
        ["catalog", 0, []],
        ["fubini", 0, []],
    ]
