"""The library example in README.md runs and prints what its comments say,
and its compile table counts what each call loads."""

import ast
import contextlib
import io
import json
import re
from pathlib import Path

import strat_euler
from strat_euler.catalog import load_entry
from strat_euler.documents import _fixture_dir

from conftest import imported_by

README = Path(__file__).parent.parent / "README.md"
DATA = Path(__file__).with_name("data")


def test_the_readme_library_example_prints_what_its_comments_say():
    """Each ``print(...)  # value, words`` line of the one ```python block
    must print ``value``: the comment up to its first comma."""
    (example,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    expected = [
        line.split("#", 1)[1].split(",")[0].strip()
        for line in example.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert len(expected) == 6


def compiled(modules):
    """Lines and AST nodes of these package modules (``strat_euler`` is the
    package ``__init__``)."""
    package = Path(strat_euler.__file__).parent
    lines = nodes = 0
    for module in modules:
        name = "__init__" if module == "strat_euler" else module
        text = (package / f"{name}.py").read_text(encoding="utf-8")
        lines += text.count("\n")
        nodes += sum(1 for _ in ast.walk(ast.parse(text)))
    return lines, nodes


def cell(counts):
    """A table cell: the first count, then each other one in brackets."""
    first, *rest = counts
    return first + "".join(f" ({count})" for count in rest)


def test_the_readme_compile_table_counts_what_each_call_loads(tmp_path):
    """Each row's "lines compiled" and "AST nodes" are the package modules
    a fresh ``python -m strat_euler`` process has in ``sys.modules`` after
    the call, counted again; a bracketed count is the call on a census
    with a polar block.  The lines every call compiles are counted too."""
    gap = json.loads((DATA / "layered-5x4.json").read_text())
    del gap["fibration"]["fiber_chi"]["T"]["generic"]
    polar_gap = load_entry("zk-3").raw
    del polar_gap["fibration"]["fiber_chi"]["V1"]["generic"]
    for name, doc in (("gap", gap), ("polar_gap", polar_gap)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    layered, broughton = str(DATA / "layered-5x4.json"), str(_fixture_dir() / "broughton.json")
    solve = ("--identity", "cor_equi", "--unknown", "fiber_chi.T.generic")
    polar_solve = ("--identity", "thm_generic_fiber", "--unknown", "fiber_chi.V1.generic")
    calls = {
        "`catalog list`": [("catalog", "list")],
        "`fubini`": [("fubini", str(DATA / "bundle.json"))],
        "`compute`": [("compute", census, "--what", "eu-global") for census in (layered, broughton)],
        "`compute --what eu-table`": [
            ("compute", census, "--what", "eu-table") for census in (layered, broughton)
        ],
        "`solve`": [
            ("solve", str(tmp_path / "gap.json"), *solve),
            ("solve", str(tmp_path / "polar_gap.json"), *polar_solve),
        ],
        "`check`": [("check", str(_fixture_dir() / "cusp-linear.json"))],
        "`catalog run`": [("catalog", "run")],
        "help, usage errors": [("-h",)],
    }
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^\| subcommand \|.*?\n\n", text, re.M | re.S).group(0)
    rows = {}
    for line in table.strip().splitlines()[2:]:
        cells = [part.strip() for part in line.strip("|").split("|")]
        rows[cells[0]] = cells[2:4]
    assert rows.keys() == calls.keys()
    for row, argvs in calls.items():
        counts = []
        for argv in argvs:
            code, modules = imported_by(*argv)
            assert code in (0, 1), argv
            counts.append(compiled(modules))
        assert rows[row] == [cell(str(n) for n, _ in counts), cell(f"{n:,}" for _, n in counts)], row
    every_call = compiled({"strat_euler", "cli", "errors"})[0]
    assert f"package `__init__` ({every_call} lines)" in " ".join(text.split())
