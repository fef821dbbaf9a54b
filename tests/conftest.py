"""Shared strategies for the property tests.

Random objects are built the blunt way: draw generators, close them, throw
away anything that exceeds the size caps.  All invariants under test are
exact integer identities, so there is no tolerance knob anywhere.
"""

from hypothesis import assume, settings, strategies as st

from strat_euler import (
    GENERIC,
    FiberedCensus,
    FieldPath,
    LinkTable,
    SimplicialComplex,
    SimplicialConstructibleFunction,
    SimplicialMap,
    Simplex,
    StratifiedCensus,
    Stratum,
    StratumConstructibleFunction,
    StratumPoset,
)

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


def blank_field(census: FiberedCensus, path: str) -> FiberedCensus:
    """A copy of a fibered census with one data slot removed.

    Accepts the same field paths as the solver, so tests can blank a slot
    and ask the solver to recover it.
    """
    return FieldPath.parse(path).set(census, None)


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
    cx = SimplicialComplex.closed(Simplex.of(*g) for g in gens)
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
    dst = SimplicialComplex.closed(
        Simplex.of(*{mapping[v] for v in s}) for s in src.simplices
    )
    cells = src.sorted_simplices()
    values = draw(
        st.lists(st.integers(-5, 5), min_size=len(cells), max_size=len(cells))
    )
    weights = SimplicialConstructibleFunction(src, dict(zip(cells, values)))
    return SimplicialMap(src, dst, mapping), weights


@st.composite
def censuses(draw, max_strata=5):
    """A valid stratified census whose regular part dominates every stratum."""
    n = draw(st.integers(min_value=1, max_value=max_strata))
    top_dim = draw(st.integers(min_value=1 if n > 1 else 0, max_value=3))
    ids = [f"S{i}" for i in range(n)]
    dims = [draw(st.integers(0, top_dim - 1)) for _ in range(n - 1)] + [top_dim]
    chis = [draw(st.integers(-3, 3)) for _ in range(n)]
    strata = tuple(
        Stratum(ids[i], dims[i], chis[i], is_regular_part=(i == n - 1))
        for i in range(n)
    )
    rels = {(ids[i], ids[n - 1]) for i in range(n - 1)}
    for i in range(n - 1):
        for j in range(n - 1):
            if dims[i] < dims[j] and draw(st.booleans()):
                rels.add((ids[i], ids[j]))
    poset = StratumPoset(strata, frozenset(rels))
    links = LinkTable(
        {pair: draw(st.integers(-2, 3)) for pair in sorted(poset.relations)}
    )
    census = StratifiedCensus("random", poset, links, equidimensional=True)
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
