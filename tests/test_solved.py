"""The solved view against routes that do not use it.

``census.solved`` solves one closure's column alone, or reads a weight
back through one vector solve, which is what ``bdk_global_1/2/3`` and
``bdk_point_formula`` compare against in the package itself.  These tests
keep independent oracles: the dense inverse of the eta matrix, the
explicit sub-census of a closure solved on its own, eta written out from
its definition, the closure sums added term by term, and ``check`` output
recorded from the implementation that restricted and re-solved the census
for every closure.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from strat_euler import table as table_module
from strat_euler.catalog import evaluate_expected_key, load_entry, standard_check_lines
from strat_euler.census_io import load_document, load_file
from strat_euler.cli import main
from strat_euler.entries import list_entries
from strat_euler.errors import (
    AmbientObstructionMismatch,
    InsufficientData,
    MissingLinkEntry,
    UnknownStratum,
)
from strat_euler.fibered import (
    check_identity,
    restrict_fibered,
    solve_unknown,
    total_brasselet_infinity,
)
from strat_euler.fibration import GENERIC, FiberedCensus, brasselet, brasselet_infinity, eu_weight
from strat_euler.obstruction import check_bdk_point_formula, invert_unitriangular, solve_bdk
from strat_euler.records import replace
from strat_euler.slots import FieldPath
from strat_euler.strata import (
    SolvedCensus,
    StratifiedCensus,
    Stratum,
    StratumConstructibleFunction,
    StratumPoset,
    chi_global,
    eta,
    indicator_of_space,
    restrict_to_closure,
)
from strat_euler.table import LabeledMatrix, solve_rows

from conftest import censuses, censuses_with_functions, faulted_doc, fibered_censuses
from oracles import (
    closure_coefficients,
    closure_sums,
    down_set,
    eta_closure_matrix,
    eta_entry,
)

DATA = Path(__file__).with_name("data")


def dense_values(census):
    """The obstruction table the direct way: invert the whole eta matrix,
    then sum coefficients over each up-set with ``leq``."""
    matrix = eta_closure_matrix(census)
    order = matrix.labels
    coeff = invert_unitriangular([list(r) for r in matrix.rows])
    leq = census.poset.leq
    n = len(order)
    values = []
    for k in range(n):
        up = [i for i in range(n) if leq(order[k], order[i])]
        values.append([sum(coeff[i][j] for i in up) for j in range(n)])
    return order, values


def scratch_eta(census, at, alpha):
    """eta from its definition: Moebius inversion with ``lt``, then the
    closure columns entry by entry.  No memo, no solved view."""
    coeffs = closure_coefficients(census, alpha)
    return sum(c * eta_entry(census, at, k) for k, c in coeffs.items() if c)


def catalog_fibered():
    return [load_entry(name).census for name in list_entries()]


def layered_census(seed, levels, width):
    """A seeded census of ``levels`` levels of ``width`` strata, each below a
    random part of the next level, under one regular part."""
    rng = random.Random(seed)
    strata, chi, pairs = [], {}, set()
    for d in range(levels):
        for w in range(width):
            strata.append(Stratum(f"L{d}_{w}", d))
            chi[f"L{d}_{w}"] = rng.randint(-2, 2)
            if d:
                for v in rng.sample(range(width), rng.randint(1, width)):
                    pairs.add((f"L{d - 1}_{v}", f"L{d}_{w}"))
    strata.append(Stratum("T", levels, is_regular_part=True))
    chi["T"] = 1
    pairs |= {(s.id, "T") for s in strata[:-1]}
    return linked_census(
        f"layered-{seed}", strata, pairs, lambda _pair: rng.randint(-1, 3), chi
    )


def linked_census(name, strata, pairs, link, chi=()):
    """The equidimensional census of these strata and generating pairs,
    with ``link(pair)`` at each pair of the order, in sorted order, and the
    Euler characteristics ``chi``."""
    poset = StratumPoset(tuple(strata), frozenset(pairs))
    links = {p: link(p) for p in sorted(poset.relations)}
    census = StratifiedCensus(name, poset, links, equidimensional=True, chi=dict(chi))
    census.validate()
    return census


# --- the table against the dense inverse ---------------------------------


def assert_table_is_dense_inverse(census):
    table = solve_bdk(census)
    order, values = dense_values(census)
    assert table.labels == order
    assert [list(r) for r in table.rows] == values


def test_table_is_the_dense_inverse_on_the_catalog():
    for census in catalog_fibered():
        assert_table_is_dense_inverse(census.base)


@given(censuses())
def test_table_is_the_dense_inverse_randomized(census):
    assert_table_is_dense_inverse(census)


def test_table_is_the_dense_inverse_on_larger_posets():
    for seed, levels, width in ((1, 3, 4), (2, 4, 5), (3, 6, 4), (4, 2, 12)):
        assert_table_is_dense_inverse(layered_census(seed, levels, width))
    wide = load_document(json.loads((DATA / "wide-n21.json").read_text()))
    assert_table_is_dense_inverse(wide.census.base)


def test_table_is_the_dense_inverse_past_64_bits():
    """Links of -10^25 and 10^30 put entries past 2^64 either way into the
    table: a packed row holds them whole."""
    strata = [Stratum("P", 0), Stratum("C", 1), Stratum("S", 2, is_regular_part=True)]
    links = {("P", "C"): -10**25, ("P", "S"): 10**30, ("C", "S"): -7}
    census = linked_census("long links", strata, {("P", "C"), ("C", "S")}, links.__getitem__)
    assert_table_is_dense_inverse(census)
    entries = [v for row in solve_bdk(census).rows for v in row]
    assert max(entries) > 2**64 and min(entries) < -(2**64)


def test_table_is_the_dense_inverse_when_one_byte_fields_are_too_narrow():
    """Three levels of 8 strata, each below every stratum of the level
    above, under one regular part, every link 2: the largest entry, 162,
    needs a field of two bytes, which only the bound summed over each
    up-set gives."""
    strata = [Stratum(f"L{d}_{w}", d) for d in range(3) for w in range(8)]
    strata.append(Stratum("T", 3, is_regular_part=True))
    pairs = {(a.id, b.id) for a in strata for b in strata if b.dim == a.dim + 1}
    census = linked_census("full 3x8", strata, pairs, lambda _pair: 2)
    assert_table_is_dense_inverse(census)
    assert max(v for row in solve_bdk(census).rows for v in row) == 162


def test_table_of_one_stratum():
    census = linked_census("one", [Stratum("T", 0, is_regular_part=True)], (), None)
    assert_table_is_dense_inverse(census)
    assert solve_bdk(census).rows == ((1,),)


def test_table_is_the_dense_inverse_on_a_70_level_chain():
    """Entries grow with depth: on this chain they pass 64 bits."""
    rng = random.Random(70)
    chi = {f"c{d:02d}": rng.randint(-2, 2) for d in range(70)}
    strata = [Stratum(sid, d, is_regular_part=d == 69) for d, sid in enumerate(chi)]
    pairs = {(f"c{d:02d}", f"c{d + 1:02d}") for d in range(69)}
    census = linked_census("chain", strata, pairs, lambda _pair: rng.randint(-3, 4), chi)
    assert_table_is_dense_inverse(census)
    assert max(abs(v) for row in solve_bdk(census).rows for v in row) > 2**64


def test_table_is_the_dense_inverse_on_a_wide_shallow_poset():
    """599 points under one curve: each value row is nonzero at two fields
    of 600, and the table is the identity with the links in the last
    column."""
    rng = random.Random(600)
    points = [Stratum(f"p{i:03d}", 0) for i in range(599)]
    pairs = {(p.id, "C") for p in points}
    strata = points + [Stratum("C", 1, is_regular_part=True)]
    census = linked_census("shallow", strata, pairs, lambda _pair: rng.randint(-1, 3))
    assert_table_is_dense_inverse(census)
    links = census.links
    assert solve_bdk(census).rows == tuple(
        tuple(int(i == j) for j in range(599)) + (links.get((p.id, "C"), 1),)
        for i, p in enumerate(strata)
    )


@st.composite
def layered_censuses_with_long_links(draw):
    """At most 7 levels of at most 6 strata, each above a random part of
    the level below, all under one regular part (at most 43 strata).  Each
    link is up to 10^20 either way, or one of -1..3: a link of 1 leaves a
    zero coefficient."""
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=7))
    rng = draw(st.randoms(use_true_random=False))
    strata, chi, pairs = [], {}, set()
    for d, width in enumerate(widths):
        for w in range(width):
            strata.append(Stratum(f"L{d}_{w}", d))
            chi[f"L{d}_{w}"] = rng.randint(-2, 2)
            if d:
                below = widths[d - 1]
                for v in rng.sample(range(below), rng.randint(0, below)):
                    pairs.add((f"L{d - 1}_{v}", f"L{d}_{w}"))
    strata.append(Stratum("T", len(widths), is_regular_part=True))
    chi["T"] = 1
    pairs |= {(s.id, "T") for s in strata[:-1]}
    big = 10**20
    return linked_census(
        "long layered",
        strata,
        pairs,
        lambda _pair: rng.choice((rng.randint(-big, big), rng.randint(-1, 3))),
        chi,
    )


@given(layered_censuses_with_long_links())
def test_table_is_the_dense_inverse_on_layered_posets_with_long_links(census):
    assert_table_is_dense_inverse(census)


# --- one column solved alone --------------------------------------------


def fresh(census):
    """The same census, unsolved: a new object, so nothing solved is shared."""
    return replace(census, name=census.name)


def no_whole_table():
    """A context in which solving the whole table fails the test."""
    return mock.patch.object(
        table_module, "solve_rows", lambda _solved: pytest.fail("the whole table was solved")
    )


def assert_columns_solved_alone_match(census):
    order, values = dense_values(census)
    for j in range(len(order)):
        solved = fresh(census).solved
        with no_whole_table():
            column = solved.column(j)
        down = set(down_set(census.poset, order[j]))
        assert list(column) == sorted(k for k, s in enumerate(order) if s in down)
        assert {k: values[k][j] for k in column} == column
        assert all(values[k][j] == 0 for k in range(len(order)) if k not in column)
        assert {k: solve_rows(solved)[k][j] for k in column} == column
        assert solved.column(j) == column


def layered_5x4():
    return load_file(DATA / "layered-5x4.json").census.base


def test_a_column_solved_alone_is_the_dense_column_on_the_catalog():
    for census in catalog_fibered():
        assert_columns_solved_alone_match(census.base)


@given(censuses())
def test_a_column_solved_alone_is_the_dense_column_randomized(census):
    assert_columns_solved_alone_match(census)


def test_a_column_solved_alone_is_the_dense_column_on_layered_censuses():
    assert_columns_solved_alone_match(layered_5x4())
    for seed, levels, width in ((1, 3, 4), (3, 6, 4), (4, 2, 12)):
        assert_columns_solved_alone_match(layered_census(seed, levels, width))


@pytest.mark.parametrize("seed", range(4))
def test_a_column_solved_alone_raises_what_its_closure_census_raises(seed):
    """Random links dropped: each column solved alone gives the column of
    the closure's own census inverted densely, or raises the same
    MissingLinkEntry; the whole table raises the first absent link."""
    full = layered_5x4() if seed == 0 else layered_census(20 + seed, 4 + seed, 4)
    rng = random.Random(seed)
    drop = set(rng.sample(sorted(full.links), 1 + seed))
    base = replace(full, links={p: v for p, v in full.links.items() if p not in drop})
    order = base.poset.linear_extension()
    raised = 0
    for j, sid in enumerate(order):
        alone = fresh(base).solved
        try:
            sub_order, values = dense_values(restrict_to_closure(base, sid))
        except MissingLinkEntry as exc:
            with pytest.raises(MissingLinkEntry) as got, no_whole_table():
                alone.column(j)
            assert got.value.pair == exc.pair
            raised += 1
        else:
            top = sub_order.index(sid)
            want = {order.index(s): values[k][top] for k, s in enumerate(sub_order)}
            with no_whole_table():
                assert alone.column(j) == want == full.solved.column(j)
    assert 0 < raised < len(order)
    with pytest.raises(MissingLinkEntry) as dense:
        eta_closure_matrix(base)
    with pytest.raises(MissingLinkEntry) as table:
        solve_rows(fresh(base).solved)
    assert table.value.pair == dense.value.pair


# --- closure columns against the restricted census -----------------------


def assert_columns_match_restriction(census):
    base = census.base
    labels = list(census.special_values) + [GENERIC]
    for sid in base.poset.ids():
        column = base.solved.eu_function(sid)
        sub = restrict_fibered(census, sid)
        sub_weight = eu_weight(sub)
        assert column == sub_weight
        order, values = dense_values(sub.base)
        top = order.index(sid)
        assert column == StratumConstructibleFunction(
            {s: values[k][top] for k, s in enumerate(order)}
        )
        for a in labels:
            try:
                want = brasselet(sub, a, sub_weight)
            except InsufficientData as exc:  # the same gap shows both ways
                with pytest.raises(InsufficientData) as got:
                    brasselet(census, a, column)
                assert got.value.fields == exc.fields
            else:
                assert brasselet(census, a, column) == want
            assert brasselet_infinity(census, a, column) == brasselet_infinity(
                sub, a, sub_weight
            )
        assert total_brasselet_infinity(census, column) == total_brasselet_infinity(
            sub, sub_weight
        )


def test_closure_columns_match_restriction_on_the_catalog():
    for census in catalog_fibered():
        assert_columns_match_restriction(census)


@given(fibered_censuses())
def test_closure_columns_match_restriction_randomized(census):
    assert_columns_match_restriction(census)


# --- the row-wise solve with absent links --------------------------------


@pytest.mark.parametrize("seed, levels, width", [(11, 5, 6), (12, 6, 8), (13, 7, 8)])
def test_columns_with_dropped_links_match_the_restricted_route(seed, levels, width):
    """Deep censuses (n = 31, 49, 57) with random links dropped: a column
    whose closure block keeps every link equals the closure's own census
    solved afresh (and the column of the census with every link), and every
    other column raises the MissingLinkEntry that route raises."""
    full = layered_census(seed, levels, width)
    rng = random.Random(seed)
    drop = set(rng.sample(sorted(full.links), 3))
    base = replace(full, links={p: v for p, v in full.links.items() if p not in drop})
    census = FiberedCensus(base=base)
    clean = 0
    for sid in base.poset.ids():
        sub = restrict_fibered(census, sid)
        try:
            want = eu_weight(sub)
        except MissingLinkEntry as exc:
            with pytest.raises(MissingLinkEntry) as got:
                base.solved.eu_function(sid)
            assert got.value.pair == exc.pair
        else:
            assert base.solved.eu_function(sid) == want
            assert want == full.solved.eu_function(sid)
            clean += 1
    assert 0 < clean < len(base.poset.ids())
    with pytest.raises(MissingLinkEntry) as dense:
        eta_closure_matrix(base)
    with pytest.raises(MissingLinkEntry) as table:
        solve_bdk(base)
    assert table.value.pair == dense.value.pair


# --- a chi edit keeps the order and the solved view -----------------------


def test_a_chi_solve_builds_no_poset_beyond_the_loaded_one(tmp_path, monkeypatch, capsys):
    doc = json.loads(json.dumps(load_entry("node-linear").raw))
    (v1,) = [s for s in doc["strata"] if s["id"] == "V1"]
    want = v1.pop("chi")
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(doc))
    built = []
    post_init = StratumPoset.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(StratumPoset, "__post_init__", counting)
    census = load_file(path).census
    at_load = len(built)
    result = solve_unknown(census, "thm_generic_fiber", "chi.V1")
    assert len(built) == at_load
    assert result.value == want
    assert result.completed.base.chi["V1"] == want
    assert result.completed.base.poset is census.base.poset
    assert check_identity(result.completed, "thm_generic_fiber").ok

    del built[:]
    code = main(["solve", str(path), "--identity", "thm_generic_fiber", "--unknown", "chi.V1"])
    assert (code, capsys.readouterr().out) == (0, f"chi.V1 = {want}\n")
    assert len(built) == at_load


def test_a_chi_solve_solves_the_census_once(tmp_path, monkeypatch, capsys):
    doc = json.loads((DATA / "layered-5x4.json").read_text())
    (top,) = [s for s in doc["strata"] if s["id"] == "T"]
    del top["chi"]
    path = tmp_path / "chi_gap.json"
    path.write_text(json.dumps(doc))
    views, columns = [], []
    init, column = SolvedCensus.__init__, SolvedCensus.column

    def counting_init(self, census):
        views.append(self)
        init(self, census)

    def counting_column(self, j):
        columns.append(j)
        return column(self, j)

    monkeypatch.setattr(SolvedCensus, "__init__", counting_init)
    monkeypatch.setattr(SolvedCensus, "column", counting_column)
    code = main(["solve", str(path), "--identity", "cor_equi", "--unknown", "chi.T"])
    # the generated fiber data is not that of a real function, so the
    # solved value is not the generated chi
    assert (code, capsys.readouterr().out) == (0, "chi.T = -39\n")
    assert (len(views), len(columns)) == (1, 1)


@given(censuses_with_functions(), st.integers(-5, 5))
def test_a_chi_edit_shares_a_view_equal_to_a_fresh_solve(pair, chi):
    census, alpha = pair
    sid = census.poset.ids()[0]
    # solve part of the census first, so the edited census inherits it
    census.solved.column(0)
    eta(census, sid, alpha)
    edited = census.with_chi(sid, chi)
    assert edited.chi == {**census.chi, sid: chi}
    assert edited.poset is census.poset
    assert edited.solved is census.solved
    shared, fresh = edited.solved, SolvedCensus(edited)
    assert shared.one == fresh.one
    assert shared.rows == fresh.rows
    assert solve_rows(shared) == solve_rows(fresh)
    for j, closure in enumerate(fresh.order):
        assert shared.column(j) == fresh.column(j)
        assert shared.eu_function(closure) == fresh.eu_function(closure)
    for weight in (alpha, shared.one):
        assert shared._weight(weight)[1] == fresh._weight(weight)[1]
        for at in fresh.order:
            assert shared.eta(weight, at) == fresh.eta(weight, at)
            assert eta(edited, at, weight) == scratch_eta(edited, at, weight)
    assert chi_global(edited, shared.one) == chi_global(census, shared.one) + chi - census.chi[sid]


@pytest.mark.parametrize("name", ["node-linear", "zk-3", "broughton"])
def test_a_chi_edit_through_a_field_path_changes_that_slot_alone(name):
    """Setting or blanking a chi slot keeps the poset object, the link map
    and the solved view; the census differs from the old one in that slot
    and nowhere else."""
    census = load_entry(name).census
    base = census.base
    solved = base.solved
    for sid in base.poset.ids():
        for x in (base.chi[sid] + 3, None):
            edited = FieldPath.parse(f"chi.{sid}").set(census, x)
            new = edited.base
            assert new.poset is base.poset and new.links is base.links
            assert new.solved is solved
            assert new.chi == {**base.chi, sid: x}
            assert new == replace(base, chi=new.chi)
            assert edited == replace(census, base=new)
            assert FieldPath.parse(f"chi.{sid}").get(edited) == x
    assert base.solved is solved


# --- eta and the point formula from scratch ------------------------------


@given(censuses_with_functions())
def test_eta_matches_its_definition(pair):
    census, alpha = pair
    for at in census.poset.ids():
        assert eta(census, at, alpha) == scratch_eta(census, at, alpha)


def assert_point_formula_from_scratch(census):
    order, values = dense_values(census)
    one = indicator_of_space(census)
    points = [s.id for s in census.poset.strata if s.dim == 0]
    for p in points:
        k = order.index(p)
        total = sum(
            values[k][order.index(j)] * scratch_eta(census, j, one)
            for j in census.poset.ids()
        )
        assert total == 1
        assert check_bdk_point_formula(census, p) == (1, total)


def test_point_formula_from_scratch_on_the_catalog():
    for census in catalog_fibered():
        assert_point_formula_from_scratch(census.base)


@given(censuses())
def test_point_formula_from_scratch_randomized(census):
    assert_point_formula_from_scratch(census)


def test_point_formula_from_scratch_on_larger_posets():
    for seed in (5, 6):
        assert_point_formula_from_scratch(layered_census(seed, 4, 4))


# --- the closure sums against their terms ---------------------------------


@given(censuses_with_functions())
def test_a_weight_read_back_through_the_solver_is_itself(pair):
    census, alpha = pair
    assert census.solved.resolved(alpha) == alpha


INTEGRALS = {
    "bdk_global_1": brasselet,
    "bdk_global_2": lambda census, _a, w: total_brasselet_infinity(census, w),
    "bdk_global_3": brasselet_infinity,
}


def with_function(base, rng, values=("0", "1")):
    """``base`` with seeded fiber columns, and infinity columns on most
    strata, at two special values."""
    ids = base.poset.ids()
    return FiberedCensus(
        base,
        special_values=values,
        fiber_chi={s: {v: rng.randint(-3, 3) for v in (*values, GENERIC)} for s in ids},
        infinity_chi={
            s: {v: rng.randint(-2, 2) for v in values} for s in ids if rng.random() < 0.7
        },
    )


def faulted(census, rng):
    """``census`` with none, one or three links dropped, and none, one or
    three fiber slots blanked."""
    links = census.base.links
    drop = set(rng.sample(sorted(links), min(rng.choice((0, 0, 1, 3)), len(links))))
    fiber = {s: dict(col) for s, col in census.fiber_chi.items()}
    slots = sorted((s, v) for s, col in fiber.items() for v in col)
    for s, v in rng.sample(slots, min(rng.choice((0, 0, 1, 3)), len(slots))):
        del fiber[s][v]
    base = replace(census.base, links={p: c for p, c in links.items() if p not in drop})
    return replace(census, base=base, fiber_chi=fiber)


def outcome(compute):
    try:
        return compute()
    except Exception as exc:  # the type and text are what a SKIP row shows
        return type(exc).__name__, str(exc)


def seeded_function_censuses():
    """(census, alpha) pairs: seeded wide and layered censuses with faults
    and a random weight, then one census whose first closure fails in both
    its own term and its eta."""
    wide = load_file(DATA / "wide-n21.json").census
    layered = load_file(DATA / "layered-5x4.json").census
    for seed in range(48):
        rng = random.Random(seed)
        if seed % 4 == 0:
            census = wide if seed % 8 else layered
        elif seed % 4 == 1:  # wide: two levels under the regular part
            census = with_function(layered_census(seed, 2, rng.randint(6, 12)), rng)
        else:
            census = with_function(
                layered_census(seed, rng.randint(3, 5), rng.randint(3, 5)), rng
            )
        census = faulted(census, rng)
        ids = census.base.poset.ids()
        yield census, StratumConstructibleFunction({s: rng.randint(-3, 3) for s in ids})
    # a weight off the first stratum, whose fiber slots are blanked and
    # whose link to the regular part is dropped: its term raises first
    first = layered.base.poset.ids()[0]
    links = {p: c for p, c in layered.base.links.items() if p != (first, "T")}
    assert len(links) < len(layered.base.links)
    census = replace(
        layered,
        base=replace(layered.base, links=links),
        fiber_chi={**layered.fiber_chi, first: {}},
    )
    yield census, StratumConstructibleFunction({first: 0, "T": 1})


def test_closure_sum_rows_match_the_sums_term_by_term():
    """On seeded wide and layered censuses with links dropped and fiber
    slots blanked, every bdk_global row, at the weights 1, Eu and a random
    one, has the sides of the closure-by-closure sum, or raises its error."""
    seen = set()
    for census, alpha in seeded_function_censuses():
        weights = {"1": indicator_of_space, "alpha": lambda _base: alpha}
        if census.base.equidimensional:
            weights["Eu"] = lambda base: eu_weight(replace(census, base=base))
        values = {
            "bdk_global_1": (*census.special_values, GENERIC),
            "bdk_global_2": (None,),
            "bdk_global_3": census.special_values,
        }
        for name, integral in INTEGRALS.items():
            for a in values[name]:
                for label, weight in weights.items():
                    row_census = replace(census, base=fresh(census.base))
                    got = outcome(
                        lambda: check_identity(
                            row_census, name, at=a, alpha=weight(row_census.base)
                        ).sides
                    )
                    oracle_census = replace(census, base=fresh(census.base))
                    want = outcome(
                        lambda: closure_sums(
                            integral, oracle_census, a, weight(oracle_census.base)
                        )
                    )
                    assert got == want, (census.base.name, name, a, label)
                    seen.add(got[0] if isinstance(got[0], str) else "sides")
    assert seen == {"sides", "MissingLinkEntry", "InsufficientData"}


# --- nothing solved survives a change ------------------------------------


def test_a_replaced_census_is_solved_afresh():
    base = load_entry("cusp-linear").census.base
    table = solve_bdk(base)
    assert base.solved is base.solved
    assert solve_bdk(base) == table

    relinked = replace(base, links={("V1", "V2"): 3})
    assert relinked.solved is not base.solved
    assert solve_bdk(relinked).rows != table.rows
    assert solve_bdk(relinked).rows == tuple(
        tuple(r) for r in dense_values(relinked)[1]
    )

    unlinked = replace(base, poset=StratumPoset(base.poset.strata, frozenset()), links={})
    assert solve_bdk(unlinked).rows != table.rows
    assert solve_bdk(unlinked).rows == tuple(
        tuple(r) for r in dense_values(unlinked)[1]
    )

    one = indicator_of_space(base)
    assert eta(relinked, "V1", one) == scratch_eta(relinked, "V1", one)
    assert eta(relinked, "V1", one) != eta(base, "V1", one)

    # only with_chi keeps the view; any other replace, of chi too, solves afresh
    for change in (
        {"chi": {**base.chi, "V1": 7}},
        {"name": "renamed"},
        {"equidimensional": not base.equidimensional},
        {},
    ):
        assert replace(base, **change).solved is not base.solved, change
    assert base.with_chi("V1", 7).solved is base.solved


def test_the_constant_weight_is_one_object_per_census():
    base = load_entry("cusp-linear").census.base
    one = indicator_of_space(base)
    assert indicator_of_space(base) is one
    relinked = replace(base, links={("V1", "V2"): 3})
    assert indicator_of_space(relinked) is not one
    assert indicator_of_space(relinked) == one
    assert base.solved._weight(one) is base.solved._weight(one)

    wide = load_document(json.loads((DATA / "wide-n21.json").read_text())).census.base
    one = indicator_of_space(wide)
    twin = StratumConstructibleFunction(dict(one.coeffs))
    assert twin is not one
    for sid in wide.poset.ids():
        assert eta(wide, sid, twin) == eta(wide, sid, one) == scratch_eta(wide, sid, one)

    stray = StratumConstructibleFunction({"V1": 1, "nope": 0})
    for _ in range(2):  # a refused function is not remembered
        with pytest.raises(UnknownStratum):
            base.solved._weight(stray)
        assert id(stray) not in base.solved._weights


def test_the_solved_census_keeps_what_each_weight_computed():
    """Each closure's obstruction, used as a weight, has eta as its
    definition gives it and one resolved function; an eta that raises
    stores nothing and raises the same pair when asked again."""
    census = layered_5x4()
    solved = census.solved
    for closure in solved.order:
        column = solved.eu_function(closure)
        for at in solved.order:
            assert eta(census, at, column) == scratch_eta(census, at, column)
        assert solved.resolved(column) is solved.resolved(column) == column

    at = solved.order[0]
    cut = replace(census, links={p: v for p, v in census.links.items() if p != (at, "T")})
    one = cut.solved.one
    for _ in range(2):
        with pytest.raises(MissingLinkEntry) as exc:
            eta(cut, at, one)
        assert exc.value.pair == (at, "T")
        assert solved.index[at] not in cut.solved._weight(one)[2]


# --- check output with absent links, recorded before the solved view -----


def run_check(doc, tmp_path):
    path = tmp_path / "census.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(path)])
    return code, out.getvalue()


def missing_link_cases():
    return json.loads((DATA / "missing_link_checks.json").read_text())


def case_id(case):
    drop = ";".join(f"{a}<{b}" for a, b in case["drop"]) or "none"
    eq = "" if case["equidimensional"] else ",loose"
    return f"{case['census']}:{drop}{eq}"


@pytest.mark.parametrize("case", missing_link_cases(), ids=case_id)
def test_check_with_absent_links_matches_the_recorded_output(case, tmp_path):
    """Every row, SKIP reasons included, and the exit code, as the code that
    restricted and re-solved each closure printed them (the lines are kept
    in full for three cases and as a SHA-256 for the rest)."""
    if case["census"].startswith("wide"):
        doc = json.loads((DATA / case["census"]).read_text())
    else:
        doc = json.loads(json.dumps(load_entry(case["census"][: -len(".json")]).raw))
    drop = [tuple(p) for p in case["drop"]]
    doc["links"] = [l for l in doc["links"] if (l["at"], l["in_closure"]) not in drop]
    doc["equidimensional"] = case["equidimensional"]
    code, out = run_check(doc, tmp_path)
    if "lines" in case:
        assert out.splitlines() == case["lines"]
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


# --- a contradicting eu_space_at_q is one failed row ---------------------


def test_ambient_obstruction_mismatch_is_a_failed_row(tmp_path):
    doc = json.loads((DATA / "wide-n21.json").read_text())
    doc["fibration"]["critical_points"][0]["eu_space_at_q"] = 99
    code, out = run_check(doc, tmp_path)
    assert code == 1
    assert (
        "prop_brasselet_vs_fiber_eu [a=0, critical_points.q0.eu_space_at_q]: "
        "LHS=99 RHS=4 FAIL"
    ) in out.splitlines()
    # every other row is still there
    assert out.splitlines()[-1] == "46 checks, 21 failed, 0 skipped"

    bundle = load_document(doc)
    with pytest.raises(AmbientObstructionMismatch) as exc:
        check_identity(
            bundle.census,
            "prop_brasselet_vs_fiber_eu",
            at="0",
            fiber_census=bundle.fiber_censuses["0"],
        )
    assert isinstance(exc.value, ValueError)
    assert (exc.value.point, exc.value.declared, exc.value.implied) == ("q0", 99, 4)
    rows = [l for l in standard_check_lines(bundle) if l.status == "FAIL"]
    assert len(rows) == 21


# --- the obstruction routes with absent links, recorded from the table ---


def missing_link_calls():
    return json.loads((DATA / "missing_link_calls.json").read_text())


def call_id(case):
    spec = case["census"]
    drop = ";".join(f"{a}<{b}" for a, b in spec.get("drop", [])) or "none"
    eq = "" if spec.get("equidimensional", True) else ",loose"
    polar = ",polar" if "polar" in spec else ""
    hyper = ",hyperplane" if "hyperplane" in case else ""
    return f"{' '.join(case['argv'])}:{spec['file']}:{drop}{eq}{polar}{hyper}"


@pytest.mark.parametrize("case", missing_link_calls(), ids=call_id)
def test_obstruction_routes_with_absent_links_match_the_recorded_output(case, tmp_path):
    """``compute eu-global|brasselet|binf``, ``solve --alpha eu`` and
    ``check`` (malformed polar lists, ``--hyperplane`` with an absent link
    on either side) on censuses with an absent link, most of them also not
    declared equidimensional: stdout, stderr and the exit code, line for
    line, as the code that solved the dense table first printed them."""
    assert_recorded_call(case, tmp_path)


def assert_recorded_call(case, tmp_path):
    argv = []
    for arg in case["argv"]:
        if arg in ("{census}", "{hyperplane}"):
            key = arg[1:-1]
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(faulted_doc(case[key])))
            arg = str(path)
        argv.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert out.getvalue().splitlines() == case["stdout"]
    assert err.getvalue().splitlines() == case["stderr"]
    assert code == case["exit"]


# --- the dense table, recorded from the EulerObstructionTable class -------


def eu_table_outputs():
    return json.loads((DATA / "eu_table_outputs.json").read_text())


@pytest.mark.parametrize("case", eu_table_outputs()["calls"], ids=call_id)
def test_eu_table_matches_the_recorded_output(case, tmp_path):
    """``compute --what eu-table`` on every fixture and the n=21 wide census,
    each as shipped and with the equidimensional flag flipped, and on
    censuses with absent links: stdout, stderr and the exit code."""
    assert_recorded_call(case, tmp_path)


def key_id(case):
    spec = case["census"]
    drop = ";".join(f"{a}<{b}" for a, b in spec.get("drop", [])) or "none"
    return f"{case['key']}:{spec['file']}:{drop}"


@pytest.mark.parametrize("case", eu_table_outputs()["keys"], ids=key_id)
def test_eu_x_at_key_matches_the_recorded_value(case):
    """``eu_x_at_<s>`` for every stratum and an unknown one: the value, or
    the error class and text (an absent link wins over an unknown id)."""
    bundle = load_document(faulted_doc(case["census"]))
    if "error" in case:
        with pytest.raises(Exception) as exc:
            evaluate_expected_key(bundle, case["key"])
        assert (type(exc.value).__name__, str(exc.value)) == (case["error"], case["message"])
    else:
        assert evaluate_expected_key(bundle, case["key"]) == case["value"]


# --- only the printed table builds the dense table ------------------------


@pytest.mark.parametrize(
    "argv, tables",
    [
        (["check", "{wide}"], 0),
        (["check", "{cusp}", "--hyperplane", "{slice}"], 0),
        (["compute", "{wide}", "--what", "eu-global"], 0),
        (["compute", "{wide}", "--what", "brasselet", "--at", "0"], 0),
        (["compute", "{wide}", "--what", "binf", "--at", "0"], 0),
        (["solve", "{gap}", "--identity", "cor_constructible",
          "--unknown", "fiber_chi.S.generic", "--alpha", "eu"], 0),
        (["compute", "{wide}", "--what", "eu-table"], 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_only_eu_table_builds_the_dense_table(argv, tables, tmp_path, monkeypatch, capsys):
    wide = json.loads((DATA / "wide-n21.json").read_text())
    gap = json.loads(json.dumps(wide))
    del gap["fibration"]["fiber_chi"]["S"]["generic"]
    paths = {"wide": DATA / "wide-n21.json", "gap": tmp_path / "gap.json"}
    paths["gap"].write_text(json.dumps(gap))
    for name, entry in (("cusp", "cusp-linear"), ("slice", "broughton-slice")):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(load_entry(entry).raw))
    built = []
    init = LabeledMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LabeledMatrix, "__init__", counting)
    code = main([str(paths[a[1:-1]]) if a.startswith("{") else a for a in argv])
    assert code in (0, 1)
    assert capsys.readouterr().out
    assert len(built) == tables


# --- one-column readers never solve the whole table ------------------------


def blanked(doc, *path):
    out = json.loads(json.dumps(doc))
    target = out
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    return out


@pytest.mark.parametrize(
    "argv, solves",
    [
        (["compute", "{layered}", "--what", "eu-global"], 0),
        (["compute", "{layered}", "--what", "brasselet", "--at", "0"], 0),
        (["compute", "{layered}", "--what", "binf", "--at", "0"], 0),
        (["solve", "{fiber_gap}", "--identity", "cor_equi", "--unknown", "fiber_chi.T.generic"], 0),
        (["solve", "{chi_gap}", "--identity", "cor_equi", "--unknown", "chi.T"], 0),
        (["solve", "{fiber_gap}", "--identity", "cor_constructible",
          "--unknown", "fiber_chi.T.generic", "--alpha", "eu"], 0),
        (["compute", "{layered}", "--what", "eu-table"], 1),
        (["check", "{layered}"], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_one_column_readers_never_solve_the_whole_table(argv, solves, tmp_path, monkeypatch, capsys):
    doc = json.loads((DATA / "layered-5x4.json").read_text())
    paths = {"layered": DATA / "layered-5x4.json"}
    for name, gap in (
        ("fiber_gap", blanked(doc, "fibration", "fiber_chi", "T", "generic")),
        ("chi_gap", blanked(doc, "strata", -1, "chi")),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(gap))
    assert doc["strata"][-1]["id"] == "T"
    solved = []
    rows = table_module.solve_rows

    def counting(census_solved):
        solved.append(census_solved)
        return rows(census_solved)

    monkeypatch.setattr(table_module, "solve_rows", counting)
    code = main([str(paths[a[1:-1]]) if a.startswith("{") else a for a in argv])
    assert code in (0, 1)
    assert capsys.readouterr().out
    assert len(solved) == solves


def test_the_eu_x_at_key_reads_one_column(monkeypatch):
    bundle = load_file(DATA / "layered-5x4.json")
    monkeypatch.setattr(
        table_module, "solve_rows", lambda _solved: pytest.fail("the whole table was solved")
    )
    values = {
        s: evaluate_expected_key(bundle, f"eu_x_at_{s}") for s in bundle.census.base.poset.ids()
    }
    order, table = dense_values(bundle.census.base)
    assert values == {s: table[k][-1] for k, s in enumerate(order)}
