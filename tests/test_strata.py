import ast
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from strat_euler.catalog import load_entry
from strat_euler.errors import InsufficientData, MissingLinkEntry, UnknownStratum
from strat_euler.order_errors import transitive_closure
from strat_euler.strata import (
    StratifiedCensus,
    Stratum,
    StratumConstructibleFunction,
    StratumPoset,
    chi_global,
    eta,
    indicator_of_space,
    restrict_to_closure,
)

from conftest import censuses, censuses_with_functions, the_same_under_each_environment
from oracles import (
    closure_coefficients,
    down_set,
    eta_closure_matrix,
    function_from_closure_coefficients,
)


def diamond_poset():
    strata = (
        Stratum("bot", 0),
        Stratum("midA", 1),
        Stratum("midB", 1),
        Stratum("top", 2, is_regular_part=True),
    )
    rels = {("bot", "midA"), ("bot", "midB"), ("midA", "top"), ("midB", "top")}
    return StratumPoset(strata, frozenset(rels))


def test_tests_pass_the_regular_part_flag_by_keyword():
    """A stratum is (id, dim, is_regular_part): a third positional argument
    left from when chi sat there would silently become the flag."""
    calls = 0
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Stratum":
                calls += 1
                assert len(node.args) <= 2, f"{path.name}:{node.lineno}"
    assert calls > 20


def test_poset_closes_transitively():
    strata = (Stratum("a", 0), Stratum("b", 1), Stratum("c", 2, is_regular_part=True))
    p = StratumPoset(strata, frozenset({("a", "b"), ("b", "c")}))
    assert ("a", "c") in p.relations
    assert p.lt("a", "c")
    assert p.leq("a", "a")
    assert not p.lt("c", "a")


def test_poset_rejects_cycles_and_dim_violations():
    strata = (Stratum("a", 0), Stratum("b", 1, is_regular_part=True))
    with pytest.raises(ValueError):
        StratumPoset(strata, frozenset({("a", "b"), ("b", "a")}))
    with pytest.raises(ValueError):
        StratumPoset(strata, frozenset({("b", "a")}))
    with pytest.raises(UnknownStratum):
        StratumPoset(strata, frozenset({("a", "z")}))
    with pytest.raises(ValueError):
        StratumPoset((Stratum("a", 0), Stratum("a", 1)), frozenset())


def test_poset_errors_do_not_depend_on_the_hash_seed(tmp_path):
    """The closed order is a set; the error names the first offender in
    (dim, id) order however that set happens to iterate."""
    cyclic = {
        "strata": [
            {"id": "a", "dim": 0, "chi": 1},
            {"id": "b", "dim": 1, "chi": 0},
            {"id": "c", "dim": 2, "chi": 1, "regular_part": True},
        ],
        "order": [["a", "b"], ["b", "c"], ["c", "a"]],
    }
    flat = {
        "strata": [
            {"id": "x", "dim": 1, "chi": 1},
            {"id": "y", "dim": 1, "chi": 0},
            {"id": "z", "dim": 1, "chi": 1, "regular_part": True},
        ],
        "order": [["x", "y"], ["y", "z"]],
    }
    calls = []
    for name, doc in (("cyclic", cyclic), ("flat", flat)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        calls.append(["check", str(tmp_path / f"{name}.json")])
    assert the_same_under_each_environment(calls) == (
        (2, "", "error: $: order relation has a cycle through 'a'\n"),
        (2, "", "error: $: frontier order must raise dimension: 'x' (dim 1) < 'y' (dim 1)\n"),
    )


def fixpoint_closure(pairs):
    """The transitive closure of a relation, by adding composed pairs until
    nothing changes."""
    closed = set(pairs)
    while True:
        composed = {(a, d) for a, b in closed for c, d in closed if b == c}
        if composed <= closed:
            return closed
        closed |= composed


def layered_pairs(rng, levels, width):
    # each stratum below a random part of the next level and, now and then,
    # of a level further up
    ids = [[f"L{d}_{w}" for w in range(width)] for d in range(levels)]
    pairs = set()
    for d in range(1, levels):
        for t in ids[d]:
            for s in rng.sample(ids[d - 1], rng.randint(1, width)):
                pairs.add((s, t))
            if d > 1 and rng.random() < 0.3:
                pairs.add((rng.choice(ids[rng.randrange(d - 1)]), t))
    strata = [Stratum(s, d) for d, row in enumerate(ids) for s in row]
    return strata, pairs


def wide_pairs(rng, points, curves):
    # points under 2 random curves each (and only sometimes directly under
    # the surface), every curve under the surface
    cs = [f"C{i}" for i in range(curves)]
    pairs = {(c, "S") for c in cs}
    for i in range(points):
        pairs |= {(f"P{i}", c) for c in rng.sample(cs, 2)}
        if rng.random() < 0.5:
            pairs.add((f"P{i}", "S"))
    strata = (
        [Stratum(f"P{i}", 0) for i in range(points)]
        + [Stratum(c, 1) for c in cs]
        + [Stratum("S", 2, is_regular_part=True)]
    )
    return strata, pairs


@pytest.mark.parametrize("seed", range(6))
def test_closure_matches_a_fixpoint_oracle(seed):
    """Valid orders close in one pass over the (dim, id) order; the closure
    and the index down-sets must be what composing pairs to a fixpoint
    gives, and so must the fixpoint route, fed the ids in another order."""
    rng = random.Random(seed)
    for strata, pairs in (
        layered_pairs(rng, levels=3 + seed, width=4),
        wide_pairs(rng, points=10 + 5 * seed, curves=4 + seed),
    ):
        want = fixpoint_closure(pairs)
        poset = StratumPoset(tuple(strata), frozenset(pairs))
        assert poset.relations == want
        order = poset.linear_extension()
        for b, down in zip(order, poset._below):
            assert {order[i] for i in down} == {a for a, c in want if c == b}
        shuffled = [s.id for s in strata]
        rng.shuffle(shuffled)
        below = transitive_closure(shuffled, pairs)
        assert {(a, b) for b in below for a in below[b]} == want


def test_down_set_and_extension_on_the_diamond():
    p = diamond_poset()
    assert set(down_set(p, "top")) == {"bot", "midA", "midB", "top"}
    assert set(down_set(p, "midA")) == {"bot", "midA"}
    ext = p.linear_extension()
    assert ext == ["bot", "midA", "midB", "top"]


def test_census_validate_rejects_bad_link_keys():
    p = diamond_poset()
    census = StratifiedCensus("bad", p, {("midA", "midB"): 2})
    with pytest.raises(ValueError):
        census.validate()


def test_census_validate_rejects_chi_of_an_unknown_stratum():
    links = dict.fromkeys(diamond_poset().relations, 1)
    chi = {"bot": 1, "midA": 0, "midB": -1, "top": 2}
    StratifiedCensus("good", diamond_poset(), links, chi=chi).validate()
    census = StratifiedCensus("stray", diamond_poset(), links, chi={**chi, "side": 1, "nope": 0})
    with pytest.raises(UnknownStratum, match="chi given for unknown stratum 'side'"):
        census.validate()


def test_census_validate_requires_one_regular_part():
    strata = (Stratum("a", 0), Stratum("b", 1))
    p = StratumPoset(strata, frozenset({("a", "b")}))
    with pytest.raises(ValueError):
        StratifiedCensus("none", p, {}).validate()


def test_equidimensional_flag_demands_pure_top_dimension():
    strata = (Stratum("a", 0), Stratum("b", 1, is_regular_part=True), Stratum("c", 0))
    p = StratumPoset(strata, frozenset({("a", "b")}))
    census = StratifiedCensus("loose", p, {}, equidimensional=True)
    with pytest.raises(ValueError):
        census.validate()
    StratifiedCensus("loose", p, {}, equidimensional=False).validate()


@given(censuses(), st.data())
def test_an_accepted_equidimensional_census_has_its_regular_part_at_top_dimension(census, data):
    """Under the equidimensional flag validate() checks only that every
    other stratum lies below the regular part: the poset refuses a pair that
    does not raise dimension, so the regular part then has the largest dim.
    Drawn: the censuses of conftest with their dims redrawn, the flag moved
    or both."""
    poset = census.poset
    top = data.draw(st.sampled_from(poset.ids()))
    redraw = data.draw(st.booleans())
    strata = tuple(
        Stratum(
            s.id, data.draw(st.integers(0, 3)) if redraw else s.dim, is_regular_part=s.id == top
        )
        for s in poset.strata
    )
    try:
        changed = StratifiedCensus(
            census.name, StratumPoset(strata, poset.relations), census.links,
            equidimensional=True, chi=census.chi,
        )
        changed.validate()
    except ValueError:
        return
    assert changed.regular_part().dim == max(s.dim for s in strata)


def test_missing_link_entry_is_a_named_error():
    links = {("bot", "midA"): 2, ("bot", "midB"): 0, ("midA", "top"): 3, ("midB", "top"): 1}
    census = StratifiedCensus("gap", diamond_poset(), links)
    one = indicator_of_space(census)
    assert eta(census, "midA", one) == -2
    with pytest.raises(MissingLinkEntry) as exc:
        eta(census, "bot", one)
    assert exc.value.pair == ("bot", "top")


def test_eta_names_the_highest_absent_link_it_needs():
    """With both links from bot to the middle strata absent, eta at bot
    names the highest of them with a nonzero closure coefficient."""
    links = {("bot", "top"): 2, ("midA", "top"): 3, ("midB", "top"): 1}
    census = StratifiedCensus("gaps", diamond_poset(), links)
    both = StratumConstructibleFunction({"midA": 1, "midB": 1})
    with pytest.raises(MissingLinkEntry) as exc:
        eta(census, "bot", both)
    assert exc.value.pair == ("bot", "midB")
    with pytest.raises(MissingLinkEntry) as exc:
        eta(census, "bot", StratumConstructibleFunction({"midA": 1}))
    assert exc.value.pair == ("bot", "midA")


def node_census():
    return load_entry("node-linear").census.base


def test_chi_global_on_the_node():
    census = node_census()
    assert chi_global(census, indicator_of_space(census)) == 1
    assert chi_global(census, StratumConstructibleFunction({"V1": 5})) == 5


def test_chi_global_reports_missing_chi():
    strata = (Stratum("a", 0), Stratum("b", 1, is_regular_part=True))
    p = StratumPoset(strata, frozenset({("a", "b")}))
    census = StratifiedCensus("holey", p, {("a", "b"): 2}, chi={"a": None, "b": 0})
    with pytest.raises(InsufficientData) as exc:
        chi_global(census, indicator_of_space(census))
    assert exc.value.fields == ("chi.a",)
    # zero weight on the unknown stratum is fine
    assert chi_global(census, StratumConstructibleFunction({"b": 3})) == 0


def test_eta_values_on_the_node():
    census = node_census()
    one = indicator_of_space(census)
    assert eta(census, "V1", one) == -1
    assert eta(census, "V2", one) == 1
    assert eta(census, "V1", StratumConstructibleFunction({"V1": 1})) == 1


def test_eta_closure_matrix_on_the_node():
    m = eta_closure_matrix(node_census())
    assert m.labels == ("V1", "V2")
    assert m.entry("V1", "V1") == 1
    assert m.entry("V1", "V2") == -1
    assert m.entry("V2", "V1") == 0
    assert m.entry("V2", "V2") == 1
    assert "V1" in m.pretty()


@given(censuses_with_functions())
def test_closure_coefficients_round_trip(pair):
    census, alpha = pair
    coeffs = closure_coefficients(census, alpha)
    assert function_from_closure_coefficients(census, coeffs) == alpha
    # the solved view's Moebius inversion, indexed by the (dim, id) order
    order = census.poset.linear_extension()
    assert census.solved._weight(alpha)[1] == [coeffs[s] for s in order]


@given(censuses_with_functions())
def test_eta_matrix_is_upper_unitriangular(pair):
    census, _ = pair
    m = eta_closure_matrix(census)
    n = len(m.labels)
    for i in range(n):
        assert m.rows[i][i] == 1
        for j in range(i):
            assert m.rows[i][j] == 0


@given(censuses_with_functions())
def test_eta_is_linear(pair):
    census, alpha = pair
    double = StratumConstructibleFunction({k: 2 * v for k, v in alpha.coeffs.items()})
    for at in census.poset.ids():
        assert eta(census, at, double) == 2 * eta(census, at, alpha)


@given(censuses_with_functions())
def test_zero_coefficients_change_neither_equality_nor_hash(pair):
    """A function with its zero coefficients dropped, or with zero ones
    added on an id the census lacks, is the same function: equal, hashed
    alike, one member of a set."""
    census, alpha = pair
    bare = StratumConstructibleFunction({sid: a for sid, a in alpha.coeffs.items() if a})
    padded = StratumConstructibleFunction({**alpha.coeffs, "not a stratum": 0})
    assert bare == alpha == padded and hash(bare) == hash(alpha) == hash(padded)
    assert len({alpha, bare, padded}) == 1


def test_unequal_functions_stay_distinct_in_a_set():
    """Functions that differ in a nonzero coefficient, in its sign or in
    the stratum carrying it are distinct members of a set, and a function
    whose coefficients are all zero is the empty one."""
    coeffs = ({}, {"a": 0}, {"a": 1}, {"a": -1}, {"b": 1}, {"a": 1, "b": 1}, {"a": 1, "b": -1})
    functions = {StratumConstructibleFunction(c) for c in coeffs}
    assert len(functions) == len(coeffs) - 1
    assert StratumConstructibleFunction({"a": 0, "b": 0}) in functions


def test_restrict_to_closure_keeps_the_down_set():
    census = load_entry("cusp-linear").census.base
    small = restrict_to_closure(census, "V1")
    assert small.poset.ids() == ["V1"]
    assert small.regular_part().id == "V1"
    assert small.equidimensional
    full = restrict_to_closure(census, "V2")
    assert set(full.poset.ids()) == {"V1", "V2"}
    assert full.links == {("V1", "V2"): 2}
    assert (small.chi, full.chi) == ({"V1": census.chi["V1"]}, census.chi)
    with pytest.raises(UnknownStratum):
        restrict_to_closure(census, "nope")
