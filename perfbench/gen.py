"""Seeded inputs and op mixes for the three benchmark workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical files and the same list of CLI calls.  Nothing imports
strat_euler; the census files are plain JSON written from scratch, so the
generators stay independent of the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

WORKLOADS = ("catalog-cli", "wide-check", "deep-solve")

# census sizes (number of strata) per workload; see README.md for why
WIDE_SIZES = (21, 31, 41)
# (levels L, width w): n = L*w + 1 = 91 for both, one deeper and one wider,
# so each kind of call appears twice per round at nearly the same cost
DEEP_SHAPES = ((10, 9), (9, 10))

FUBINI_PER_ROUND = 3
BLANKED_PER_ROUND = 3


@dataclass(frozen=True)
class Call:
    """One CLI invocation.  ``argv`` names input files by their relative
    name in the generated file set; ``inputs`` lists those names.  ``kind``
    and ``info`` select the output checks that go beyond the digest."""

    argv: tuple[str, ...]
    inputs: tuple[str, ...] = ()
    kind: str = ""
    info: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _dump(obj) -> bytes:
    return (json.dumps(obj, indent=1) + "\n").encode()


def _rng(*parts) -> random.Random:
    return random.Random("/".join(map(str, parts)))


def _closure_links(rng, below: dict[str, set[str]]) -> list[dict]:
    """One link record, with a random chi in 0..3, per strict order pair."""
    return [
        {"at": a, "in_closure": b, "chi": rng.randint(0, 3)}
        for b in below
        for a in sorted(below[b])
    ]


# --- wide censuses: many points under few curves under one surface ------


def wide_census(seed: int, n: int) -> dict:
    """k points, each in the closure of 2 random curves and of the surface;
    m curves; one regular surface; n = k + m + 1.  Two special values with
    full fiber and infinity columns, 4 critical points, a polar block and a
    small fiber census per value, so every identity of the battery runs."""
    rng = _rng("wide", seed, n)
    m = n // 3
    k = n - m - 1
    points = [f"P{i}" for i in range(k)]
    curves = [f"C{i}" for i in range(m)]
    strata = (
        [{"id": p, "dim": 0, "chi": 1} for p in points]
        + [{"id": c, "dim": 1, "chi": rng.randint(-2, 2)} for c in curves]
        + [{"id": "S", "dim": 2, "chi": rng.randint(-2, 2), "regular_part": True}]
    )
    below: dict[str, set[str]] = {c: set() for c in curves}
    order = []
    curves_above: dict[str, list[str]] = {}
    for p in points:
        ups = sorted(rng.sample(curves, 2))
        curves_above[p] = ups
        for c in ups:
            below[c].add(p)
            order.append([p, c])
        order.append([p, "S"])
    for c in curves:
        order.append([c, "S"])
    below["S"] = set(points) | set(curves)
    values = ["0", "1"]
    ids = points + curves + ["S"]
    fiber_chi = {
        s: {**{a: rng.randint(-3, 3) for a in values}, "generic": rng.randint(-3, 3)}
        for s in ids
    }
    infinity_chi = {s: {a: rng.randint(-2, 2) for a in values} for s in ids}
    critical = []
    for i in range(4):
        p = rng.choice(points)
        c = rng.choice(curves_above[p])
        counts = {p: 1, c: rng.randint(0, 2), "S": rng.randint(0, 2)}
        critical.append(
            {
                "id": f"q{i}",
                "stratum": p,
                "value": values[i % 2],
                "morse_counts": counts,
                "milnor_numbers": {s: rng.randint(0, 2) for s in counts},
                "eu_fiber_at_q": rng.randint(1, 3),
            }
        )
    fibers = {}
    for a in values:
        fibers[a] = {
            "name": f"fiber at {a}",
            "equidimensional": True,
            "strata": [
                {"id": "F0", "dim": 0, "chi": 1},
                {"id": "F1", "dim": 0, "chi": 1},
                {"id": "G", "dim": 1, "chi": rng.randint(-2, 2), "regular_part": True},
            ],
            "order": [["F0", "G"], ["F1", "G"]],
            "links": [
                {"at": "F0", "in_closure": "G", "chi": rng.randint(1, 3)},
                {"at": "F1", "in_closure": "G", "chi": rng.randint(1, 3)},
            ],
        }
    return {
        "name": f"wide-{n}-seed{seed}",
        "equidimensional": True,
        "strata": strata,
        "order": order,
        "links": _closure_links(rng, below),
        "fibration": {
            "special_values": values,
            "fiber_chi": fiber_chi,
            "infinity_chi": infinity_chi,
            "critical_points": critical,
            "f_general": True,
        },
        "polar": {
            "gamma": {a: [rng.randint(0, 4), rng.randint(0, 4)] for a in values + ["generic"]},
            "alpha": [rng.randint(0, 4) for _ in range(3)],
        },
        "fiber_censuses": fibers,
    }


# --- layered censuses: a dense, deep transitive order -------------------


def layered_census(seed: int, levels: int, width: int) -> dict:
    """``levels`` levels of ``width`` strata in dims 0..levels-1, each
    stratum below a random half of the next level, all under one regular
    top stratum.  One special value, no critical points."""
    rng = _rng("layered", seed, levels, width)
    grid = [[f"L{i}_{j}" for j in range(width)] for i in range(levels)]
    strata = [
        {"id": s, "dim": i, "chi": rng.randint(-3, 3)}
        for i, row in enumerate(grid)
        for s in row
    ]
    strata.append({"id": "T", "dim": levels, "chi": rng.randint(-3, 3), "regular_part": True})
    below: dict[str, set[str]] = {s: set() for row in grid for s in row}
    order = []
    for lower, upper in zip(grid, grid[1:]):
        for s in lower:
            for t in sorted(rng.sample(upper, width // 2)):
                order.append([s, t])
                below[t] |= {s} | below[s]
    order.extend([s, "T"] for s in grid[-1])
    below["T"] = {s for row in grid for s in row}
    ids = [s["id"] for s in strata]
    return {
        "name": f"layered-{levels}x{width}-seed{seed}",
        "equidimensional": True,
        "strata": strata,
        "order": order,
        "links": _closure_links(rng, below),
        "fibration": {
            "special_values": ["0"],
            "fiber_chi": {s: {"0": rng.randint(-3, 3), "generic": rng.randint(-3, 3)} for s in ids},
            "infinity_chi": {s: {"0": rng.randint(-2, 2)} for s in ids if rng.random() < 0.3},
            "critical_points": [],
        },
    }


def blank_slot(doc: dict, fieldpath: str) -> dict:
    """A deep copy of a census document with one chi or fiber_chi slot removed."""
    out = json.loads(json.dumps(doc))
    parts = fieldpath.split(".")
    if parts[0] == "chi":
        (stratum,) = [s for s in out["strata"] if s["id"] == parts[1]]
        del stratum["chi"]
    elif parts[0] == "fiber_chi":
        del out["fibration"]["fiber_chi"][parts[1]][parts[2]]
    else:
        raise ValueError(f"cannot blank {fieldpath!r}")
    return out


# --- fubini bundles -------------------------------------------------------


def _faces(vertices: tuple[int, ...]):
    for r in range(1, len(vertices) + 1):
        yield from combinations(vertices, r)


def fubini_bundle(seed: int, index: int) -> tuple[dict, int]:
    """A random face-closed simplicial map with integer weights, and the
    integral of the weights computed independently of the package: each
    open simplex contributes its weight times (-1)^dim."""
    rng = _rng("fubini", seed, index)
    nv = rng.randint(5, 9)
    src = set()
    for _ in range(rng.randint(3, 6)):
        src.update(_faces(tuple(sorted(rng.sample(range(nv), rng.randint(1, 4))))))
    vmap = {v: rng.randint(0, 3) for v in sorted({v for s in src for v in s})}
    dst = set()
    for s in src:
        dst.update(_faces(tuple(sorted({vmap[v] for v in s}))))
    simplices = sorted(src, key=lambda s: (len(s), s))
    weights = [[list(s), rng.randint(-5, 5)] for s in simplices]
    integral = sum(w * (-1) ** (len(s) - 1) for s, w in weights)
    bundle = {
        "complex_src": {"simplices": [list(s) for s in simplices]},
        "complex_dst": {"simplices": [list(s) for s in sorted(dst, key=lambda s: (len(s), s))]},
        "vertex_map": {str(v): t for v, t in vmap.items()},
        "weights": weights,
    }
    return bundle, integral


# --- op mixes --------------------------------------------------------------


def _solve_call(name: str, identity: str, fieldpath: str) -> Call:
    return Call(
        ("solve", name, "--identity", identity, "--unknown", fieldpath),
        (name,),
        "solve",
        {"identity": identity, "field": fieldpath},
    )


def _catalog_cli(seed: int, fixtures_dir: Path):
    rng = _rng("catalog-cli", seed)
    fixtures = sorted(p.stem for p in fixtures_dir.glob("*.json"))
    raw = {f: (fixtures_dir / f"{f}.json").read_bytes() for f in fixtures}
    docs = {f: json.loads(raw[f]) for f in fixtures}
    files = {f"{f}.json": raw[f] for f in fixtures}
    calls = [
        Call(("catalog", "run"), (), "catalog-run", {"entries": len(fixtures)}),
        Call(("catalog", "list"), (), "catalog-list", {"entries": fixtures}),
    ]
    calls += [Call(("check", f"{f}.json"), (f"{f}.json",), "check") for f in fixtures]
    calls.append(
        Call(
            ("check", "broughton.json", "--hyperplane", "broughton-slice.json"),
            ("broughton.json", "broughton-slice.json"),
            "check",
        )
    )
    for what in ("eu-table", "eu-global", "detect-irregular"):
        f = rng.choice(fixtures)
        calls.append(Call(("compute", f"{f}.json", "--what", what), (f"{f}.json",)))
    for what in ("brasselet", "lambda", "binf"):
        f = rng.choice(fixtures)
        at = rng.choice(docs[f]["fibration"]["special_values"] + ["generic"])
        calls.append(Call(("compute", f"{f}.json", "--what", what, "--at", at), (f"{f}.json",)))
    # every chi and generic fiber slot enters thm_generic_fiber with a unit
    # coefficient, so each blanked copy has exactly one solution
    slots = [
        (f, path)
        for f in fixtures
        for s in docs[f]["strata"]
        for path in (f"chi.{s['id']}", f"fiber_chi.{s['id']}.generic")
    ]
    for f, path in rng.sample(slots, BLANKED_PER_ROUND):
        name = f"{f}-without-{path}.json"
        files[name] = _dump(blank_slot(docs[f], path))
        calls.append(_solve_call(name, "thm_generic_fiber", path))
    for i in range(FUBINI_PER_ROUND):
        bundle, integral = fubini_bundle(seed, i)
        name = f"bundle-{i}.json"
        files[name] = _dump(bundle)
        calls.append(Call(("fubini", name), (name,), "fubini", {"integral": integral}))
    return files, calls


def _wide_check(seed: int):
    files, calls = {}, []
    for n in WIDE_SIZES:
        name = f"wide-{n}.json"
        files[name] = _dump(wide_census(seed, n))
        calls.append(Call(("check", name), (name,), "check"))
    return files, calls


def _deep_solve(seed: int):
    files, calls = {}, []
    for levels, width in DEEP_SHAPES:
        doc = layered_census(seed, levels, width)
        stem = f"layered-{levels}x{width}"
        name = f"{stem}.json"
        files[name] = _dump(doc)
        for what in ("eu-table", "eu-global"):
            calls.append(Call(("compute", name, "--what", what), (name,)))
        stratum = _rng("deep-slot", seed, levels, width).choice(doc["strata"])["id"]
        for identity, path in (
            ("thm_generic_fiber", f"chi.{stratum}"),
            ("cor_equi", "fiber_chi.T.generic"),
        ):
            blank = f"{stem}-without-{path}.json"
            files[blank] = _dump(blank_slot(doc, path))
            calls.append(_solve_call(blank, identity, path))
    return files, calls


def build(workload: str, seed: int, fixtures_dir: Path) -> tuple[dict[str, bytes], list[Call]]:
    """The generated files (name -> bytes) and one round of CLI calls."""
    if workload == "catalog-cli":
        return _catalog_cli(seed, fixtures_dir)
    if workload == "wide-check":
        return _wide_check(seed)
    if workload == "deep-solve":
        return _deep_solve(seed)
    raise ValueError(f"unknown workload {workload!r}")
