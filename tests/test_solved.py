"""The solved view against routes that do not use it.

``census.solved`` reads every closure's obstruction column from one solve,
which makes ``bdk_global_1/2/3`` and ``bdk_point_formula`` nearly
tautological in the package itself.  These tests keep independent oracles:
the dense inverse of the eta matrix, the explicit sub-census of a closure
solved on its own, eta written out from its definition, and ``check``
output recorded from the implementation that restricted and re-solved the
census for every closure.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given

from strat_euler import (
    GENERIC,
    AmbientObstructionMismatch,
    FiberedCensus,
    InsufficientData,
    LinkTable,
    MissingLinkEntry,
    StratifiedCensus,
    Stratum,
    StratumConstructibleFunction,
    StratumPoset,
    brasselet,
    brasselet_infinity,
    check_bdk_point_formula,
    check_identity,
    eta,
    eta_closure_matrix,
    eu_weight,
    indicator_of_space,
    invert_unitriangular,
    list_entries,
    load_document,
    load_entry,
    load_file,
    restrict_fibered,
    solve_bdk,
    solve_unknown,
    standard_check_lines,
    total_brasselet_infinity,
)
from strat_euler.cli import main
from strat_euler.records import replace
from strat_euler.strata import _eta_entry

from conftest import censuses, censuses_with_functions, fibered_censuses

DATA = Path(__file__).with_name("data")


def dense_values(census):
    """The obstruction table the direct way: invert the whole eta matrix,
    then sum coefficients over each up-set with ``leq``."""
    matrix = eta_closure_matrix(census)
    order = matrix.labels
    coeff = invert_unitriangular([list(r) for r in matrix.rows])
    poset = census.poset
    n = len(order)
    values = [
        [
            sum(coeff[i][j] for i in range(n) if poset.leq(order[k], order[i]))
            for j in range(n)
        ]
        for k in range(n)
    ]
    return order, coeff, values


def scratch_eta(census, at, alpha):
    """eta from its definition: Moebius inversion with ``lt``, then the
    closure columns entry by entry.  No memo, no solved view."""
    poset = census.poset
    coeffs = {}
    for j in reversed(poset.linear_extension()):
        coeffs[j] = alpha.value(j) - sum(c for k, c in coeffs.items() if poset.lt(j, k))
    return sum(c * _eta_entry(census, at, k) for k, c in coeffs.items() if c)


def catalog_fibered():
    return [load_entry(name).census for name in list_entries()]


def layered_census(seed, levels, width):
    """A seeded census of ``levels`` levels of ``width`` strata, each below a
    random part of the next level, under one regular part."""
    rng = random.Random(seed)
    strata, pairs = [], set()
    for d in range(levels):
        for w in range(width):
            strata.append(Stratum(f"L{d}_{w}", d, rng.randint(-2, 2)))
            if d:
                for v in rng.sample(range(width), rng.randint(1, width)):
                    pairs.add((f"L{d - 1}_{v}", f"L{d}_{w}"))
    strata.append(Stratum("T", levels, 1, is_regular_part=True))
    pairs |= {(s.id, "T") for s in strata[:-1]}
    poset = StratumPoset(tuple(strata), frozenset(pairs))
    links = LinkTable({p: rng.randint(-1, 3) for p in sorted(poset.relations)})
    census = StratifiedCensus(f"layered-{seed}", poset, links, equidimensional=True)
    census.validate()
    return census


# --- the table against the dense inverse ---------------------------------


def assert_table_is_dense_inverse(census):
    table = solve_bdk(census)
    order, coeff, values = dense_values(census)
    assert table.order == order
    assert [list(r) for r in table.coefficients] == coeff
    assert [list(r) for r in table.values] == values


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


# --- closure columns against the restricted census -----------------------


def assert_columns_match_restriction(census):
    base = census.base
    labels = list(census.special_values) + [GENERIC]
    for sid in base.poset.ids():
        column = base.solved.eu_function(sid)
        sub = restrict_fibered(census, sid)
        sub_table = solve_bdk(sub.base)
        sub_weight = eu_weight(sub, sub_table)
        assert column == sub_weight
        order, _coeff, values = dense_values(sub.base)
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
    drop = set(rng.sample(sorted(full.links.entries), 3))
    base = replace(
        full,
        links=LinkTable({p: v for p, v in full.links.entries.items() if p not in drop}),
    )
    census = FiberedCensus(base=base)
    clean = 0
    for sid in base.poset.ids():
        sub = restrict_fibered(census, sid)
        try:
            want = eu_weight(sub, solve_bdk(sub.base))
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


# --- a chi edit keeps the order ------------------------------------------


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
    completed = result.completed.base.poset
    assert completed.stratum("V1").chi == want
    assert completed.relations is census.base.poset.relations
    assert check_identity(result.completed, "thm_generic_fiber").ok

    del built[:]
    code = main(["solve", str(path), "--identity", "thm_generic_fiber", "--unknown", "chi.V1"])
    assert (code, capsys.readouterr().out) == (0, f"chi.V1 = {want}\n")
    assert len(built) == at_load


# --- eta and the point formula from scratch ------------------------------


@given(censuses_with_functions())
def test_eta_matches_its_definition(pair):
    census, alpha = pair
    for at in census.poset.ids():
        assert eta(census, at, alpha) == scratch_eta(census, at, alpha)


def assert_point_formula_from_scratch(census):
    order, _coeff, values = dense_values(census)
    one = indicator_of_space(census)
    points = [s.id for s in census.poset.strata if s.dim == 0]
    for p in points:
        k = order.index(p)
        total = sum(
            values[k][order.index(j)] * scratch_eta(census, j, one)
            for j in census.poset.ids()
        )
        assert total == 1
        report = check_bdk_point_formula(census, solve_bdk(census), p)
        assert (report.lhs, report.rhs) == (1, total)


def test_point_formula_from_scratch_on_the_catalog():
    for census in catalog_fibered():
        assert_point_formula_from_scratch(census.base)


@given(censuses())
def test_point_formula_from_scratch_randomized(census):
    assert_point_formula_from_scratch(census)


def test_point_formula_from_scratch_on_larger_posets():
    for seed in (5, 6):
        assert_point_formula_from_scratch(layered_census(seed, 4, 4))


# --- nothing solved survives a change ------------------------------------


def test_a_replaced_census_is_solved_afresh():
    base = load_entry("cusp-linear").census.base
    table = solve_bdk(base)
    assert base.solved is base.solved
    assert solve_bdk(base) is table

    relinked = replace(base, links=LinkTable({("V1", "V2"): 3}))
    assert relinked.solved is not base.solved
    assert solve_bdk(relinked).values != table.values
    assert solve_bdk(relinked).values == tuple(
        tuple(r) for r in dense_values(relinked)[2]
    )

    unlinked = replace(
        base, poset=StratumPoset(base.poset.strata, frozenset()), links=LinkTable({})
    )
    assert solve_bdk(unlinked).values != table.values
    assert solve_bdk(unlinked).values == tuple(
        tuple(r) for r in dense_values(unlinked)[2]
    )

    one = indicator_of_space(base)
    assert eta(relinked, "V1", one) == scratch_eta(relinked, "V1", one)
    assert eta(relinked, "V1", one) != eta(base, "V1", one)


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
