"""Shared strategies for the property tests.

Random objects are built the blunt way: draw generators, close them, throw
away anything that exceeds the size caps.  All invariants under test are
exact integer identities, so there is no tolerance knob anywhere.
"""

import copy
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from hypothesis import assume, settings, strategies as st

from strat_euler.catalog import load_entry
from strat_euler.euler_calculus import Simplex, SimplicialConstructibleFunction, SimplicialMap
from strat_euler.records import replace
from strat_euler.slots import FieldPath
from strat_euler.fibration import GENERIC, CriticalPoint, FiberedCensus
from strat_euler.strata import (
    StratifiedCensus,
    Stratum,
    StratumConstructibleFunction,
    StratumPoset,
)

from oracles import closed, consistent_fiber_chi

DATA = Path(__file__).with_name("data")

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


# runs `python -m strat_euler ARGS` in-process, and prints the strat_euler
# modules it imported from an atexit handler: the process entry ends the
# process when the command returns, once it has run the handlers
RUN_MODULE = """
import atexit, contextlib, io, runpy, sys
sys.argv = ["strat_euler", *sys.argv[1:]]
atexit.register(lambda: print(
    *sorted(m for m in sys.modules if m.startswith("strat_euler")), file=sys.__stdout__, flush=True
))
with contextlib.redirect_stdout(io.StringIO()):
    runpy.run_module("strat_euler", run_name="__main__", alter_sys=True)
"""


def imported_by(*args):
    """The exit code of ``python -m strat_euler ARGS`` and the package
    modules it imported."""
    run = subprocess.run(
        [sys.executable, "-c", RUN_MODULE, *args], capture_output=True, text=True
    )
    assert "Traceback" not in run.stderr, run.stderr
    return run.returncode, {m.removeprefix("strat_euler.") for m in run.stdout.split()}


# the C locale with neither locale coercion nor UTF-8 mode: the locale's
# preferred encoding is ASCII
C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

# every call's output must not depend on the order sets iterate in or on
# the locale, since goldens and recordings pin it byte for byte
ENVIRONMENTS = {f"PYTHONHASHSEED={seed}": {"PYTHONHASHSEED": str(seed)} for seed in range(4)}
ENVIRONMENTS["C locale"] = C_LOCALE

# runs each argv of the JSON list on stdin through cli.main, with stdout and
# stderr opened in the encoding and error handler of the process's own, and
# prints the exit code, stdout and stderr of each as JSON; main writes
# stdout as UTF-8, so its bytes are read back as UTF-8
RUN_EACH = """
import contextlib, io, json, sys
from strat_euler.cli import main
streams, runs = (sys.stdout, sys.stderr), []
for argv in json.load(sys.stdin):
    out, err = (io.TextIOWrapper(io.BytesIO(), s.encoding, s.errors) for s in streams)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout, stderr = (w.detach().getvalue() for w in (out, err))
    runs.append((code, stdout.decode("utf-8"), stderr.decode(sys.stderr.encoding, sys.stderr.errors)))
print(json.dumps(runs))
"""


def run_under_each_environment(calls):
    """Each of ``ENVIRONMENTS`` mapped to the (exit code, stdout, stderr)
    of every argv in ``calls``, in order, run through ``cli.main`` in one
    process with that environment."""

    def run(env):
        proc = subprocess.run(
            [sys.executable, "-c", RUN_EACH],
            input=json.dumps(calls),
            capture_output=True,
            text=True,
            env={**os.environ, **env},
        )
        assert proc.returncode == 0, proc.stderr
        return tuple(tuple(call) for call in json.loads(proc.stdout))

    with ThreadPoolExecutor(len(ENVIRONMENTS)) as pool:
        return dict(zip(ENVIRONMENTS, pool.map(run, ENVIRONMENTS.values())))


def the_same_under_each_environment(calls):
    """The (exit code, stdout, stderr) of every argv in ``calls``, which
    must be the same under each of ``ENVIRONMENTS``."""
    runs = run_under_each_environment(calls)
    first = runs["PYTHONHASHSEED=0"]
    for name, got in runs.items():
        differ = [" ".join(argv) for argv, a, b in zip(calls, first, got) if a != b]
        assert not differ, f"{name}: {differ}"
    return first


def blank_field(census: FiberedCensus, path: str) -> FiberedCensus:
    """A copy of a fibered census with one data slot removed.

    Accepts the same field paths as the solver, so tests can blank a slot
    and ask the solver to recover it.
    """
    return FieldPath.parse(path).set(census, None)


def apply_edit(doc, edit):
    """Apply one edit to a JSON document in place: ``[path, value]`` sets,
    ``[path]`` deletes, ``[path, value, "insert"]`` inserts into a list
    before the index ``path`` ends in.  The value is copied in."""
    path, *value = edit
    target = doc
    for key in path[:-1]:
        target = target[key]
    if not value:
        del target[path[-1]]
    elif value[1:] == ["insert"]:
        target.insert(path[-1], copy.deepcopy(value[0]))
    else:
        target[path[-1]] = copy.deepcopy(value[0])


def edited(case):
    """The case's base document (a fixture or a ``tests/data`` census) with
    its edits (``apply_edit``) applied in order."""
    if case["base"].endswith(".json"):
        doc = json.loads((DATA / case["base"]).read_text())
    else:
        doc = copy.deepcopy(load_entry(case["base"]).raw)
    for edit in case["edits"]:
        apply_edit(doc, edit)
    return doc


def document_text(case):
    """The text of ``edited(case)``.  An edit value ``{"literal": text}`` is
    written into the text as it is, so it can be what JSON has no value for
    (``NaN``); ``{"integer_digits": n}`` is an integer literal of n nines,
    which Python's int to text limit would refuse a round trip through
    json."""
    edits, literals = [], {}
    for path, *value in case["edits"]:
        if value and isinstance(value[0], dict) and value[0].keys() & {"literal", "integer_digits"}:
            mark = f"literal {len(literals)}"
            literal = value[0].get("literal") or "9" * value[0]["integer_digits"]
            literals[json.dumps(mark)] = literal
            value = [mark]
        edits.append([path, *value])
    text = json.dumps(edited({**case, "edits": edits}))
    for mark, literal in literals.items():
        text = text.replace(mark, literal)
    return text


def faulted_doc(spec):
    """A fixture or ``tests/data`` census with some links dropped, and the
    equidimensional flag or the polar block replaced where ``spec`` says (a
    ``null`` polar block removes it)."""
    if spec["file"].startswith("wide"):
        doc = json.loads((DATA / spec["file"]).read_text())
    else:
        doc = json.loads(json.dumps(load_entry(spec["file"][: -len(".json")]).raw))
    drop = [tuple(p) for p in spec.get("drop", [])]
    doc["links"] = [l for l in doc["links"] if (l["at"], l["in_closure"]) not in drop]
    for key in ("equidimensional", "polar"):
        if key in spec:
            doc[key] = spec[key]
    if doc.get("polar", ()) is None:
        del doc["polar"]
    return doc


@st.composite
def closed_complexes(draw, max_vertices=7, max_generators=4, max_gen_size=4, max_simplices=30):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    gens = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=max_gen_size),
            min_size=1,
            max_size=max_generators,
        )
    )
    cx = closed(Simplex.of(*g) for g in gens)
    assume(len(cx.simplices) <= max_simplices)
    return cx


@st.composite
def weighted_maps(draw):
    """A simplicial map together with an integer weight on every source cell.

    The target complex is the closed image, so the vertex map is always
    simplicial by construction.
    """
    src = draw(closed_complexes())
    src_verts = sorted({v for s in src.simplices for v in s})
    targets = draw(
        st.lists(st.integers(0, 3), min_size=len(src_verts), max_size=len(src_verts))
    )
    mapping = dict(zip(src_verts, targets))
    dst = closed(Simplex.of(*{mapping[v] for v in s}) for s in src.simplices)
    cells = sorted(src.simplices, key=lambda s: (s.dim, s.vertices))
    values = draw(
        st.lists(st.integers(-5, 5), min_size=len(cells), max_size=len(cells))
    )
    weights = SimplicialConstructibleFunction(src, dict(zip(cells, values)))
    return SimplicialMap(src, dst, mapping), weights


def random_weighted_map(rng):
    """A random simplicial map with random integer weights on its source,
    drawn from ``rng`` (a ``random.Random``) for seeded Fubini sweeps.

    The source is the closure of one to four simplices on two to eight
    vertices, kept to at most 30 simplices; vertices map into four target
    vertices and the target is the image; weights lie in -5..5.
    """
    n_vertices = rng.randint(2, 8)
    generators = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, min(4, n_vertices))
        generators.append(Simplex.of(*rng.sample(range(n_vertices), size)))
    src = closed(generators)
    # keep sources small; drop generators until under the size cap
    while len(src.simplices) > 30:
        generators.pop()
        src = closed(generators)
    mapping = {v: rng.randint(0, 3) for v in sorted(src.vertices)}
    dst = closed(Simplex.of(*{mapping[v] for v in s}) for s in src.simplices)
    weights = SimplicialConstructibleFunction(
        src, {s: rng.randint(-5, 5) for s in src.simplices}
    )
    return SimplicialMap(src, dst, mapping), weights


@st.composite
def censuses(draw, max_strata=5):
    """A valid stratified census whose regular part dominates every stratum."""
    n = draw(st.integers(min_value=1, max_value=max_strata))
    top_dim = draw(st.integers(min_value=1 if n > 1 else 0, max_value=3))
    ids = [f"S{i}" for i in range(n)]
    dims = [draw(st.integers(0, top_dim - 1)) for _ in range(n - 1)] + [top_dim]
    chi = {sid: draw(st.integers(-3, 3)) for sid in ids}
    strata = tuple(
        Stratum(ids[i], dims[i], is_regular_part=(i == n - 1)) for i in range(n)
    )
    rels = {(ids[i], ids[n - 1]) for i in range(n - 1)}
    for i in range(n - 1):
        for j in range(n - 1):
            if dims[i] < dims[j] and draw(st.booleans()):
                rels.add((ids[i], ids[j]))
    poset = StratumPoset(strata, frozenset(rels))
    links = {pair: draw(st.integers(-2, 3)) for pair in sorted(poset.relations)}
    census = StratifiedCensus("random", poset, links, equidimensional=True, chi=chi)
    census.validate()
    return census


@st.composite
def census_functions(draw, census):
    coeffs = {sid: draw(st.integers(-4, 4)) for sid in census.poset.ids()}
    return StratumConstructibleFunction(coeffs)


@st.composite
def censuses_with_functions(draw):
    census = draw(censuses())
    alpha = draw(census_functions(census))
    return census, alpha


@st.composite
def fibered_censuses(draw):
    """A census with full fiber and infinity columns for two special values.

    Critical-point data is left empty: the callers exercise identities that
    are determined by the column data alone.
    """
    base = draw(censuses())
    labels = ("a", "b")
    fiber = {
        sid: {lab: draw(st.integers(-3, 3)) for lab in labels + (GENERIC,)}
        for sid in base.poset.ids()
    }
    infinity = {
        sid: {lab: draw(st.integers(-2, 2)) for lab in labels}
        for sid in base.poset.ids()
    }
    fibered = FiberedCensus(
        base,
        special_values=labels,
        fiber_chi=fiber,
        infinity_chi=infinity,
    )
    fibered.validate()
    return fibered


@st.composite
def consistent_censuses(draw, max_strata=61):
    """A layered or wide census of at most ``max_strata`` strata, with
    random links, chi, infinity columns and critical points, and the fiber
    columns ``oracles.consistent_fiber_chi`` makes every identity hold with.
    The function is general, and each point's Milnor numbers are its Morse
    counts, so the rows with Milnor counts hold too.

    Layered: up to five levels of up to twelve strata.  Wide: many points
    under a few curves.  Each stratum lies below a random part of the next
    level, at least one stratum and at most half of it, and every stratum
    below one regular part.
    """
    if draw(st.booleans()):
        widths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    else:
        widths = [draw(st.integers(10, 40)), draw(st.integers(1, 8))]
    rng = draw(st.randoms(use_true_random=False))
    while sum(widths) >= max_strata:
        widths[widths.index(max(widths))] -= 1
    grid = [[f"L{d}_{w}" for w in range(width)] for d, width in enumerate(widths)]
    strata = [Stratum(sid, d) for d, row in enumerate(grid) for sid in row]
    strata.append(Stratum("T", len(grid), is_regular_part=True))
    pairs = {(s.id, "T") for s in strata[:-1]}
    for lower, upper in zip(grid, grid[1:]):
        for sid in lower:
            pairs |= {(sid, t) for t in rng.sample(upper, rng.randint(1, (len(upper) + 1) // 2))}
    poset = StratumPoset(tuple(strata), frozenset(pairs))
    links = {pair: rng.randint(-1, 3) for pair in sorted(poset.relations)}
    chi = {s.id: rng.randint(-3, 3) for s in strata}
    base = StratifiedCensus("consistent", poset, links, equidimensional=True, chi=chi)
    values = ("0", "1")[: rng.randint(1, 2)]
    ids = poset.ids()
    infinity = {
        sid: {c: rng.randint(-2, 2) for c in values} for sid in ids if rng.random() < 0.3
    }
    points = []
    for i in range(draw(st.integers(1, 4))):
        at = rng.choice(ids)
        above = [sid for sid in ids if poset.lt(at, sid)]
        counts = {sid: rng.randint(0, 2) for sid in [at] + rng.sample(above, min(2, len(above)))}
        points.append(CriticalPoint(f"q{i}", at, rng.choice(values), counts, milnor_numbers=counts))
    census = FiberedCensus(
        base,
        special_values=values,
        infinity_chi=infinity,
        critical_points=tuple(points),
        f_general=True,
    )
    census = replace(census, fiber_chi=consistent_fiber_chi(census))
    census.validate()
    return census
