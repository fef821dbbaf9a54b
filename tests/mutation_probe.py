"""Swap ``+`` and ``-`` in the math modules one site at a time, and check
that the tier-1 tests notice.

Every ``BinOp`` and ``AugAssign`` that adds or subtracts in ``fibered``,
``fibration``, ``polar``, ``strata``, ``table``, ``obstruction`` and
``euler_calculus`` is one mutant: its operator character is swapped in
the source text, so every other line keeps its place (the README's
compile table counts lines and AST nodes).  Each mutant runs the tier-1
tests with ``-x`` in a temporary copy of the checkout; the checkout itself
is never written.  A mutant the tests pass survives.

``tests/data/mutation_survivors.json`` lists the survivors known to be
equivalent, each with its reason.  The probe exits 1 on a survivor the
file does not list, and on a listed one that the tests now kill or that no
longer exists; it exits 0 when the survivors are exactly the listed ones.

    python tests/mutation_probe.py      # about 8 minutes for 65 mutants

pytest does not collect this file.
"""

from __future__ import annotations

import ast
import bisect
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "strat_euler")
MODULES = ("fibered", "fibration", "polar", "strata", "table", "obstruction", "euler_calculus")
SURVIVORS = ROOT / "tests" / "data" / "mutation_survivors.json"
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
    "--hypothesis-seed=0", "--continue-on-collection-errors",
]
SWAP = {ord("+"): ord("-"), ord("-"): ord("+")}


def operator_offset(source: bytes, starts: list[int], after: ast.AST, before: ast.AST) -> int:
    """Byte offset of the first ``+`` or ``-`` between the end of one node
    and the start of the next, past brackets, line breaks and comments."""
    i = starts[after.end_lineno - 1] + after.end_col_offset
    end = starts[before.lineno - 1] + before.col_offset
    while i < end:
        if source[i] in SWAP:
            return i
        if source[i] == ord("#"):
            i = source.index(b"\n", i)
        i += 1
    raise ValueError(f"no operator between line {after.end_lineno} and line {before.lineno}")


def mutants(module: str):
    """(site, code, offset) of each add/sub site of one module: the site is
    ``file:line:col`` of the operator (col in bytes, from 0, as ast counts
    it; nested sums can share their first line and column), the code is
    the source of the node on one line, the offset is the operator's
    byte."""
    source = (ROOT / PACKAGE / f"{module}.py").read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    text = source.decode("utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            offset = operator_offset(source, starts, node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
            offset = operator_offset(source, starts, node.target, node.value)
        else:
            continue
        line = bisect.bisect_right(starts, offset)
        site = f"{module}.py:{line}:{offset - starts[line - 1]}"
        yield site, " ".join(ast.get_source_segment(text, node).split()), offset


def run_tier1(copy: Path) -> subprocess.CompletedProcess:
    """The tier-1 tests in the copy; no example database and no bytecode
    carry over from one mutant to the next."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        TIER1, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )


def main() -> int:
    listed = {entry["site"]: entry for entry in json.loads(SURVIVORS.read_text(encoding="utf-8"))}
    sites, survived = {}, set()
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "checkout")
        shutil.copytree(
            ROOT,
            copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "build"
            ),
        )
        control = run_tier1(copy)
        if control.returncode:
            print(control.stdout[-3000:])
            print("the tier-1 tests fail on the unmutated copy; no mutant can be judged")
            return 1
        for module in MODULES:
            path = copy / PACKAGE / f"{module}.py"
            original = path.read_bytes()
            for site, code, offset in mutants(module):
                sites[site] = code
                mutated = bytearray(original)
                mutated[offset] = SWAP[original[offset]]
                path.write_bytes(mutated)
                passed = run_tier1(copy).returncode == 0
                path.write_bytes(original)
                if passed:
                    survived.add(site)
                swap = f"{chr(original[offset])} -> {chr(mutated[offset])}"
                print(f"{site} {swap} in `{code}`: {'SURVIVED' if passed else 'killed'}", flush=True)
    print(f"{len(sites)} mutants, {len(survived)} survived, {time.monotonic() - started:.0f} s")
    problems = [
        f"{site}: `{sites[site]}` survives and is not listed in {SURVIVORS.name}"
        for site in sorted(survived - set(listed))
    ]
    for site, entry in listed.items():
        if sites.get(site) != entry["code"]:
            now = f"`{sites[site]}`" if site in sites else "no add/sub site"
            problems.append(
                f"{site}: listed in {SURVIVORS.name} as `{entry['code']}`, but it is now {now}"
            )
        elif site not in survived:
            problems.append(f"{site}: listed in {SURVIVORS.name}, but the tests now kill it")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
