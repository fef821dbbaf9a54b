"""Product censuses against their factors.

The census of X x Y is built from the censuses of X and Y alone
(``oracles.census_product``), so its invariants are known in closed form:
the local obstruction table is the Kronecker product of the factors'
tables, and the global obstruction and the Euler characteristic multiply.
A function g on X pulled back to X x Y (``oracles.pulled_back``) has the
fibers of g times Y, so its Brasselet numbers are g's times Eu(Y).  None of
that is read from the solver's own output on the product.
"""

from pathlib import Path

from hypothesis import given

from strat_euler.catalog import load_entry
from strat_euler.census_io import load_file
from strat_euler.entries import list_entries
from strat_euler.fibered import check_identity
from strat_euler.fibration import GENERIC, brasselet, brasselet_infinity, eu_weight
from strat_euler.obstruction import check_bdk_point_formula, global_euler_obstruction, solve_bdk
from strat_euler.strata import chi_global, indicator_of_space

from conftest import censuses, fibered_censuses
from oracles import census_product, pulled_back

DATA = Path(__file__).with_name("data")


def assert_product_invariants(a, b):
    product = census_product(a, b)
    product.validate()
    table, left, right = solve_bdk(product), solve_bdk(a), solve_bdk(b)
    for s in left.labels:
        for t in right.labels:
            for u in left.labels:
                for v in right.labels:
                    assert table.entry(f"{s}*{t}", f"{u}*{v}") == (
                        left.entry(s, u) * right.entry(t, v)
                    )
    assert global_euler_obstruction(product) == (
        global_euler_obstruction(a) * global_euler_obstruction(b)
    )
    assert chi_global(product, indicator_of_space(product)) == (
        chi_global(a, indicator_of_space(a)) * chi_global(b, indicator_of_space(b))
    )
    for s in product.poset.strata:
        if s.dim == 0:
            lhs, rhs = check_bdk_point_formula(product, s.id)
            assert lhs == rhs
    return product


def test_products_of_every_pair_of_fixtures():
    bases = [load_entry(name).census.base for name in list_entries()]
    for a in bases:
        for b in bases:
            assert_product_invariants(a, b)


@given(censuses(), censuses())
def test_products_of_random_censuses(a, b):
    assert_product_invariants(a, b)


def test_product_of_a_layered_census_and_the_cusp():
    layered = load_file(DATA / "layered-5x4.json").census.base
    cusp = load_entry("cusp-linear").census.base
    product = assert_product_invariants(layered, cusp)
    assert len(product.poset.strata) == 2 * len(layered.poset.strata)
    assert global_euler_obstruction(cusp) == 2


def assert_pulled_back_invariants(g, y):
    """f = g o pr_1 on X x Y against g: at every value the Brasselet number
    and its correction at infinity, weighted by the obstruction, are g's
    times the global obstruction of Y, and the bdk_global rows hold."""
    f = pulled_back(g, y)
    f.validate()
    eu_y = global_euler_obstruction(y)
    for c in g.special_values + (GENERIC,):
        assert brasselet(f, c, eu_weight(f)) == brasselet(g, c, eu_weight(g)) * eu_y
        assert brasselet_infinity(f, c, eu_weight(f)) == (
            brasselet_infinity(g, c, eu_weight(g)) * eu_y
        )
    for alpha in (None, eu_weight(f)):
        for c in f.special_values + (GENERIC,):
            assert check_identity(f, "bdk_global_1", at=c, alpha=alpha).ok
        for c in f.special_values:
            assert check_identity(f, "bdk_global_3", at=c, alpha=alpha).ok
        assert check_identity(f, "bdk_global_2", alpha=alpha).ok


@given(fibered_censuses(), censuses())
def test_pulled_back_functions_on_random_products(g, y):
    assert_pulled_back_invariants(g, y)


def test_pulled_back_fixture_functions_on_a_layered_census():
    layered = load_file(DATA / "layered-5x4.json").census.base
    for name in list_entries():
        assert_pulled_back_invariants(load_entry(name).census, layered)
