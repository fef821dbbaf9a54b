"""A seeded mutation fuzzer for the exit-code contract of the command line.

Each mutant is a shipped fixture or ``tests/data/layered-5x4.json`` with a
few random edits: a key or an item dropped, a value retyped, an item or a
value duplicated, a list reversed.  Each mutant runs through ``check`` (with
and without a hyperplane slice), ``compute --what eu-table|brasselet|binf``
and ``solve``.  Every call must end in exit 0, 1 or 2 with no exception
escaping ``cli.main``, and a census that loads must get its rows: ``check``
exits 0 or 1 on it, whatever its optional fields hold.  The calls on the
first mutants print the same under every hash seed and the C locale.

A second run mutates ``fubini`` map bundles (``tests/data/bundle.json`` and
a few seeded ``random_weighted_map`` bundles) with the same edits, a key of
the vertex map aliasing a source vertex and an image retyped.  The
projection formula holds exactly on every map that loads, so each call must
exit 0 or 2, and an aliased key must exit 2.
"""

import contextlib
import copy
import io
import itertools
import json
import random

from strat_euler.catalog import load_entry
from strat_euler.census_io import load_file
from strat_euler.cli import main
from strat_euler.entries import list_entries
from strat_euler.errors import CensusError
from strat_euler.fibered import IDENTITIES

from conftest import DATA, apply_edit, random_weighted_map, the_same_under_each_environment

SEED = 20261018
MUTANTS = 200  # six calls each
RETYPED = (None, True, -1, 7, 1.5, "x", "", [], {}, [["x"]], {"x": 1})


def base_documents():
    docs = [load_entry(name).raw for name in list_entries()]
    return docs + [json.loads((DATA / "layered-5x4.json").read_text())]


def slots(doc):
    """The path of every value of a JSON document, the root excluded."""
    out = []
    stack = [(doc, [])]
    while stack:
        node, path = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            out.append(path + [key])
            if isinstance(node[key], (dict, list)):
                stack.append((node[key], path + [key]))
    return out


def mutate(doc, rng):
    """Apply one random edit in place and return it as ``apply_edit`` reads
    it, or None for a reversal drawn on a scalar."""
    path = rng.choice(slots(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    kind = rng.choice(("drop", "retype", "duplicate", "reverse"))
    if kind == "drop":
        edit = [path]
    elif kind == "retype":
        edit = [path, rng.choice([v for v in RETYPED if type(v) is not type(value)])]
    elif kind == "duplicate" and isinstance(node, list):
        edit = [path, value, "insert"]
    elif kind == "duplicate":
        edit = [path[:-1] + [rng.choice(list(node))], value]
    elif isinstance(value, (list, dict)):
        edit = [path, value[::-1] if isinstance(value, list) else dict(reversed(value.items()))]
    else:
        return None
    apply_edit(doc, edit)
    # a copy: a later edit may change the value where it still sits
    return copy.deepcopy(edit)


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        return main(argv)


def loads(path) -> bool:
    try:
        load_file(path)
    except (CensusError, ValueError):
        return False
    return True


def census_mutants(tmp_path):
    """Each seeded mutant, written to a file of its own in ``tmp_path``:
    where it comes from, its path and its six calls."""
    rng = random.Random(SEED)
    bases = base_documents()
    slices = []
    for i, doc in enumerate(bases):
        slices.append(tmp_path / f"slice-{i}.json")
        slices[-1].write_text(json.dumps(doc))
    for m in range(MUTANTS):
        base = rng.randrange(len(bases))
        doc = json.loads(json.dumps(bases[base]))
        edits = [json.dumps(mutate(doc, rng)) for _ in range(rng.randint(1, 3))]
        fib = bases[base].get("fibration", {})
        labels = list(fib.get("special_values", [])) + ["generic", "nonsense"]
        sid = rng.choice([s["id"] for s in bases[base]["strata"]])
        label = rng.choice(labels)
        # the slot solve asks for is blanked where the mutant still has it
        with contextlib.suppress(KeyError, TypeError, IndexError):
            del doc["fibration"]["fiber_chi"][sid][label]
        path = tmp_path / f"mutant-{m}.json"
        path.write_text(json.dumps(doc))
        slot = f"fiber_chi.{sid}.{label}"
        solve = ["solve", str(path), "--identity", rng.choice(list(IDENTITIES)), "--unknown", slot]
        solve += rng.choice([[], ["--at", rng.choice(labels)]])
        solve += rng.choice([[], ["--alpha", "eu"]]) + rng.choice([[], [], ["--use-milnor"]])
        calls = [
            ["check", str(path)],
            ["check", str(path), "--hyperplane", str(rng.choice(slices))],
            ["compute", str(path), "--what", "eu-table"],
            ["compute", str(path), "--what", "brasselet", "--at", rng.choice(labels)],
            ["compute", str(path), "--what", "binf", "--at", rng.choice(labels)],
            solve,
        ]
        yield f"mutant {m} of base {base} ({'; '.join(edits)})", path, calls


def test_mutated_censuses_keep_the_exit_code_contract(tmp_path):
    codes, problems = [], []
    for mutant, path, calls in census_mutants(tmp_path):
        loaded = loads(path)
        for argv in calls:
            where = f"{mutant}: " + " ".join(argv[:1] + argv[2:])
            try:
                code = run(argv)
            except Exception as exc:  # the contract under test: nothing escapes
                problems.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            codes.append(code)
            if code not in (0, 1, 2):
                problems.append(f"{where}: exit {code}")
            elif argv[0] == "check" and loaded and code == 2:
                problems.append(f"{where}: a census that loads got no rows")
    assert not problems, "\n".join(problems[:20])
    assert len(codes) >= 1000
    # the mutants reach both sides of the contract
    assert {0, 2} <= set(codes)


def test_mutated_censuses_print_the_same_under_every_environment(tmp_path):
    """Every call on the first 25 mutants, errors included, prints the same
    whatever the hash seed and under an ASCII locale."""
    mutants = itertools.islice(census_mutants(tmp_path), 25)
    the_same_under_each_environment([argv for _, _, calls in mutants for argv in calls])


BUNDLE_MUTANTS = 600
BUNDLE_SEEDS = range(4)


def bundle_document(fmap, alpha):
    """A seeded map and weight written out as a fubini bundle."""
    def simplices(complex_):
        return sorted(list(s.vertices) for s in complex_.simplices)

    return {
        "complex_src": {"simplices": simplices(fmap.source)},
        "complex_dst": {"simplices": simplices(fmap.target)},
        "vertex_map": {str(v): t for v, t in sorted(fmap.vertex_map.items())},
        "weights": sorted([list(s.vertices), w] for s, w in alpha.items()),
    }


def mutate_bundle(doc, rng):
    """One edit of ``mutate``, or a vertex-map image retyped."""
    vmap = doc.get("vertex_map")
    if isinstance(vmap, dict) and vmap and rng.random() < 0.25:
        key = rng.choice(list(vmap))
        vmap[key] = rng.choice(RETYPED + (-1, 9, "a"))
        return f"image {key!r}"
    return json.dumps(mutate(doc, rng))


def alias(doc, rng):
    """Add a key that int() reads as the integer of an existing key but that
    spells no vertex, or None when the vertex map has no integer key left."""
    vmap = doc.get("vertex_map")
    keys = [k for k in vmap if k.isdigit()] if isinstance(vmap, dict) else []
    if not keys:
        return None
    key = rng.choice(keys)
    vmap[rng.choice(("0", "+", " ")) + key] = vmap[key] if rng.random() < 0.5 else 0
    return f"alias {key!r}"


def test_mutated_bundles_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(SEED)
    bases = [json.loads((DATA / "bundle.json").read_text())]
    bases += [bundle_document(*random_weighted_map(random.Random(s))) for s in BUNDLE_SEEDS]
    path = tmp_path / "mutant.json"
    codes, problems = [], []
    for m in range(BUNDLE_MUTANTS):
        base = rng.randrange(len(bases))
        doc = json.loads(json.dumps(bases[base]))
        edits = [mutate_bundle(doc, rng) for _ in range(rng.randint(0, 2))]
        # the alias comes last, so no later edit can drop it
        aliased = rng.random() < 0.25 and alias(doc, rng)
        edits += [aliased] if aliased else []
        path.write_text(json.dumps(doc))
        where = f"mutant {m} of base {base} ({'; '.join(edits)})"
        try:
            code = run(["fubini", str(path)])
        except Exception as exc:  # the contract under test: nothing escapes
            problems.append(f"{where}: {type(exc).__name__}: {exc}")
            continue
        codes.append(code)
        if code not in (0, 2) or (aliased and code != 2):
            problems.append(f"{where}: exit {code}")
    assert not problems, "\n".join(problems[:20])
    assert {0, 2} <= set(codes)
