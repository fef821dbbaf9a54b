"""Deep censuses on which every identity holds by construction.

Random fiber columns fail the non-structural rows at every depth.  The
columns of ``oracles.consistent_fiber_chi`` are built from the links, chi,
infinity columns and Morse counts, through the eta matrix written out
entry by entry, so that each identity holds for every weight.  On such a
census every row of ``check`` is OK, except the one that needs the census
of a special fiber, which none is given; and one slot off by one fails a
row.  The invariants ``compute`` prints are held against sums taken with
the obstruction of ``oracles.eu_of_space``.
"""

from hypothesis import given, settings, strategies as st

from strat_euler.catalog import standard_check_lines
from strat_euler.census_io import CensusBundle
from strat_euler.fibration import GENERIC, brasselet, brasselet_infinity, eu_weight
from strat_euler.obstruction import global_euler_obstruction
from strat_euler.records import replace

from conftest import consistent_censuses
from oracles import eu_of_space


def statuses(census):
    """(name, status) of each row of ``check`` on the census."""
    rows = standard_check_lines(CensusBundle(census.base.name, census))
    return [(row.name, row.status) for row in rows]


@settings(max_examples=40)
@given(consistent_censuses())
def test_every_row_holds_on_a_consistent_deep_census(census):
    rows = statuses(census)
    assert not [row for row in rows if row[1] == "FAIL"]
    skipped = [name for name, status in rows if status == "SKIP"]
    assert skipped == ["prop_brasselet_vs_fiber_eu"] * len(census.special_values)
    base = census.base
    eu = eu_of_space(base)
    w = eu_weight(census)
    assert w == eu
    assert global_euler_obstruction(base) == sum(eu.value(t) * base.chi[t] for t in base.chi)
    for a in census.special_values + (GENERIC,):
        fiber = sum(eu.value(t) * column[a] for t, column in census.fiber_chi.items())
        assert brasselet(census, a, w) == fiber
        infinity = sum(eu.value(t) * column.get(a, 0) for t, column in census.infinity_chi.items())
        assert brasselet_infinity(census, a, w) == infinity
    # the columns satisfy the stratum-wise Fubini identity too
    k = len(census.special_values)
    for t, column in census.fiber_chi.items():
        special = sum(column[a] for a in census.special_values)
        assert base.chi[t] == (1 - k) * column[GENERIC] + special


@settings(max_examples=20)
@given(consistent_censuses(), st.data())
def test_one_fiber_slot_off_by_one_fails_a_row(census, data):
    """A slot on a stratum where the obstruction is nonzero enters the
    rows at both weights, 1 and Eu."""
    eu = eu_of_space(census.base)
    t = data.draw(st.sampled_from([t for t in census.base.poset.ids() if eu.value(t)]))
    a = data.draw(st.sampled_from((GENERIC,) + census.special_values))
    fiber_chi = {s: dict(column) for s, column in census.fiber_chi.items()}
    fiber_chi[t][a] += 1
    rows = statuses(replace(census, fiber_chi=fiber_chi))
    assert any(status == "FAIL" for _name, status in rows)
