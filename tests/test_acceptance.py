"""Acceptance gate for the whole package.

One test per criterion, each printing a single PASS or FAIL line.  Every
comparison is exact integer equality; there is no tolerance anywhere.  The
golden numbers come from independent hand derivations recorded next to the
shipped census files.
"""

import random
import time

import pytest

from strat_euler.catalog import load_entry
from strat_euler.compute import detect_irregular_values
from strat_euler.entries import list_entries
from strat_euler.errors import NotSolvable
from strat_euler.euler_calculus import check_fubini
from strat_euler.fibered import IDENTITIES, check_identity, solve_unknown, total_brasselet_infinity
from strat_euler.fibration import GENERIC, brasselet, brasselet_infinity, eu_weight
from strat_euler.obstruction import global_euler_obstruction, invert_unitriangular, solve_bdk
from strat_euler.polar import brasselet_from_polar, stv_global_eu
from strat_euler.strata import (
    StratumConstructibleFunction,
    chi_global,
    eta,
    indicator_of_space,
    restrict_to_closure,
)

from conftest import blank_field, random_weighted_map


def report(tag, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {tag}{suffix}")
    assert ok, f"{tag}{suffix}"


def all_bundles():
    return [load_entry(name) for name in list_entries()]


def test_criterion_01_fubini_sweep():
    rng = random.Random(164201)
    start = time.perf_counter()
    for _ in range(500):
        m, alpha = random_weighted_map(rng)
        lhs, rhs = check_fubini(m, alpha)
        assert lhs == rhs
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: pushforward preserves the Euler integral",
        elapsed < 5.0,
        f"500 random maps, {elapsed:.2f}s",
    )


def test_criterion_02_delta_identity_on_every_catalog_census():
    pairs = 0
    ok = True
    for bundle in all_bundles():
        census = bundle.census.base
        table = solve_bdk(census)
        for j in census.poset.ids():
            col = StratumConstructibleFunction({k: table.entry(k, j) for k in table.labels})
            for at in census.poset.ids():
                want = 1 if at == j else 0
                ok = ok and eta(census, at, col) == want
                pairs += 1
    report(
        "criterion 2: obstruction columns pair to a delta under eta",
        ok,
        f"{pairs} pairs across {len(all_bundles())} censuses",
    )


def test_criterion_03_golden_local_obstructions():
    got = {}
    for name in ("node-linear", "cusp-linear", "triple-point-linear"):
        table = solve_bdk(load_entry(name).census.base)
        got[name] = table.entry("V1", table.labels[-1])
    want = {"node-linear": 2, "cusp-linear": 2, "triple-point-linear": 3}
    report(
        "criterion 3: singular-point obstructions match hand-solved values",
        got == want,
        f"{got}",
    )


def test_criterion_04_smooth_spaces():
    checked = []
    ok = True
    for bundle in all_bundles():
        census = bundle.census.base
        if len(census.poset.ids()) != 1:
            continue
        one = indicator_of_space(census)
        ok = ok and global_euler_obstruction(census) == chi_global(census, one)
        checked.append(bundle.name)
    report(
        "criterion 4: smooth censuses have obstruction equal to chi",
        ok and len(checked) >= 4,
        ", ".join(checked),
    )


def test_criterion_05_generic_fiber_balance():
    ok = True
    for bundle in all_bundles():
        r = check_identity(bundle.census, "thm_generic_fiber")
        ok = ok and r.ok
        if bundle.census.f_general:
            ok = ok and check_identity(
                bundle.census, "thm_generic_fiber", use_milnor=True
            ).ok
    for k in range(2, 7):
        r = check_identity(load_entry(f"zk-{k}").census, "thm_generic_fiber")
        ok = ok and r.lhs == 1 - k and r.rhs == -(k - 1)
    report(
        "criterion 5: chi drop to the generic fiber equals the signed Morse count",
        ok,
        "all catalog entries, explicit power-map family",
    )


def test_criterion_06_corrections_at_infinity():
    census = load_entry("broughton").census
    ok = total_brasselet_infinity(census) == -1
    ok = ok and brasselet_infinity(census, "0") == -1
    ok = ok and detect_irregular_values(census) == ["0"]
    w = eu_weight(census)
    for alpha in (None, w):
        r = check_identity(census, "prop_any_value", at="0", alpha=alpha)
        ok = ok and r.ok
    report(
        "criterion 6: the plane family loses exactly one unit at infinity over 0",
        ok,
    )


def test_criterion_07_global_decompositions():
    ok = True
    combos = 0
    for bundle in all_bundles():
        census = bundle.census
        base = census.base
        rng = random.Random(hash(bundle.name) & 0xFFFF)
        weights = [None, eu_weight(census)]
        for _ in range(3):
            weights.append(
                StratumConstructibleFunction(
                    {sid: rng.randint(-3, 3) for sid in base.poset.ids()}
                )
            )
        for alpha in weights:
            r = check_identity(census, "bdk_global_2", alpha=alpha)
            ok = ok and r.ok
            combos += 1
            for at in census.special_values + (GENERIC,):
                for name in ("bdk_global_1", "bdk_global_3"):
                    r = check_identity(census, name, at=at, alpha=alpha)
                    ok = ok and r.ok
                    combos += 1
    report(
        "criterion 7: stratum-closure decompositions hold for arbitrary weights",
        ok,
        f"{combos} identity evaluations",
    )


def test_criterion_08_polar_cross_checks():
    ok = True
    for name in ("node-linear", "cusp-linear", "triple-point-linear"):
        bundle = load_entry(name)
        lhs, rhs = stv_global_eu(bundle.census, bundle.polar)
        ok = ok and lhs == rhs == global_euler_obstruction(bundle.census.base)
    matched = 0
    for bundle in all_bundles():
        if bundle.polar is None:
            continue
        census = bundle.census
        w = eu_weight(census)
        for label in census.special_values + (GENERIC,):
            if label not in bundle.polar.gamma:
                continue
            ok = ok and brasselet_from_polar(census, bundle.polar, label) == brasselet(
                census, label, w
            )
            matched += 1
    report(
        "criterion 8: polar intersection counts reproduce the fiber integrals",
        ok and matched >= 20,
        f"{matched} value columns",
    )


def test_criterion_09_triangular_inversion_and_locality():
    rng = random.Random(90210)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 12)
        rows = [
            [0] * i + [1] + [rng.randint(-9, 9) for _ in range(n - i - 1)]
            for i in range(n)
        ]
        inv = invert_unitriangular(rows)
        for i in range(n):
            for j in range(n):
                want = 1 if i == j else 0
                got = sum(rows[i][k] * inv[k][j] for k in range(n))
                ok = ok and got == want
    for bundle in all_bundles():
        census = bundle.census.base
        table = solve_bdk(census)
        for sid in census.poset.ids():
            small = restrict_to_closure(census, sid)
            small_table = solve_bdk(small)
            for at in small.poset.ids():
                for j in small.poset.ids():
                    ok = ok and small_table.entry(at, j) == table.entry(at, j)
    report(
        "criterion 9: exact triangular inversion and closure locality",
        ok,
        "200 matrices to size 12, all catalog censuses",
    )


def blanking_plan(bundle):
    """One (field, kwargs) choice per identity for the round-trip check."""
    census = bundle.census
    reg = census.base.regular_part().id
    a0 = census.special_values[0]
    generic_slot = f"fiber_chi.{reg}.{GENERIC}"
    special_slot = f"fiber_chi.{reg}.{a0}"
    plan = {
        "prop_brasselet_vs_fiber_eu": (
            special_slot,
            {"at": a0, "fiber_census": bundle.fiber_censuses[a0]},
        ),
        "bdk_global_1": (generic_slot, {"at": a0}),
        "thm_generic_fiber": (generic_slot, {}),
        "cor_constructible": (generic_slot, {}),
        "cor_equi": (generic_slot, {}),
        "bdk_global_2": (generic_slot, {}),
        "bdk_global_3": (generic_slot, {"at": a0}),
        "prop_any_value": (special_slot, {"at": a0}),
        "cor_generic_vs_any": (special_slot, {"at": a0}),
        "value_consistency": (generic_slot, {}),
    }
    assert set(plan) == set(IDENTITIES)
    return plan


def test_criterion_10_solver_round_trips():
    ok = True
    solved = 0
    refused = 0
    for bundle in all_bundles():
        census = bundle.census
        for identity, (field, kwargs) in blanking_plan(bundle).items():
            if identity == "value_consistency":
                kwargs = {"at": census.special_values[0]}
            original = census.fiber_chi[field.split(".")[1]][field.split(".")[2]]
            blanked = blank_field(census, field)
            if IDENTITIES[identity].structural:
                # these hold for arbitrary data, so no slot is recoverable
                with pytest.raises(NotSolvable):
                    solve_unknown(blanked, identity, field, **kwargs)
                refused += 1
                continue
            result = solve_unknown(blanked, identity, field, **kwargs)
            ok = ok and result.value == original
            final = check_identity(result.completed, identity, **kwargs)
            ok = ok and final.ok
            solved += 1
    report(
        "criterion 10: one blanked slot per identity is recovered exactly",
        ok,
        f"{solved} solves, {refused} structural refusals",
    )
