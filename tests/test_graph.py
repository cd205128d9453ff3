import hashlib
import random

import pytest

import oracle
from cliffilt.exactalg import Matrix, Subspace
from cliffilt.graph import (
    AdinkraGraph,
    Edge,
    Vertex,
    enumerate_heights,
    heights_from_sources,
    rebuild_filtration,
    source_set,
    to_dot,
    to_graph,
)
from cliffilt.invariants import random_filtration
from cliffilt.supermodule import (
    SuperFiltration,
    check_filtration,
    degree_filtration,
    direct_sum_filtration,
    exterior_module,
    hodge_filtration,
    irreducible_module,
    trivial_filtration,
)


def test_degree_graph_heights_and_reconstruction():
    f = degree_filtration(exterior_module(4))
    g = to_graph(f)
    assert g.height_counts() == (1, 4, 6, 4, 1)
    back = rebuild_filtration(g)
    assert check_filtration(back)
    for p in range(f.top_degree + 1):
        assert f.level(p) == back.level(p)


def test_edges_join_opposite_parities_with_unit_step():
    for n in (1, 2, 3, 4):
        g = to_graph(degree_filtration(exterior_module(n)))
        for e in g.edges:
            u, w = g.vertices[e.source], g.vertices[e.target]
            assert u.parity != w.parity
            assert abs(u.height - w.height) == 1
            assert e.sign in (1, -1)


def test_each_generator_is_perfect_matching():
    g = to_graph(degree_filtration(exterior_module(3)))
    for i in range(3):
        touched = [0] * len(g.vertices)
        for e in g.edges:
            if e.generator == i:
                touched[e.source] += 1
                touched[e.target] += 1
    assert all(c == 1 for c in touched)


def test_cl1_enumeration_exactly_two():
    g = to_graph(degree_filtration(exterior_module(1)))
    assigns, exhausted = enumerate_heights(g, budget=100)
    assert not exhausted
    assert sorted(assigns) == [(0, 1), (2, 1)]
    sources = {source_set(g, a) for a in assigns}
    assert sources == {frozenset({(0, 0)}), frozenset({(1, 1)})}


def test_enumerated_assignments_all_validate():
    g = to_graph(degree_filtration(exterior_module(2)))
    assigns, exhausted = enumerate_heights(g, budget=2000)
    assert not exhausted and assigns
    for heights in assigns:
        f = rebuild_filtration(g, list(heights))
        assert check_filtration(f)


def test_source_sets_in_bijection_with_assignments():
    g = to_graph(degree_filtration(exterior_module(3)))
    assigns, exhausted = enumerate_heights(g, budget=5000)
    assert not exhausted
    sources = {source_set(g, list(a)) for a in assigns}
    assert len(sources) == len(assigns)
    for a in assigns:
        assert heights_from_sources(g, source_set(g, list(a))) == list(a)


def test_multi_component_enumeration():
    f1 = degree_filtration(exterior_module(1))
    g = to_graph(direct_sum_filtration(f1, f1))
    assigns, exhausted = enumerate_heights(g, budget=1000)
    assert not exhausted and len(assigns) == 4


def test_budget_exhaustion_reported():
    g = to_graph(degree_filtration(exterior_module(4)))
    assigns, exhausted = enumerate_heights(g, budget=5)
    assert exhausted and assigns == []


def test_non_adapted_basis_rejected():
    # sheared inside the full odd flag: heights stay consistent but the
    # generator images stop being signed basis vectors
    f = degree_filtration(exterior_module(2))
    basis = Matrix(2, 2, [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="not adapted"):
        to_graph(f, basis_odd=basis)


def test_non_homogeneous_basis_rejected():
    # the monomial basis does not span the Hodge flags
    f = hodge_filtration(exterior_module(4))
    with pytest.raises(ValueError, match="filtration-homogeneous"):
        to_graph(f)


def test_dot_output_stable_and_styled():
    f = degree_filtration(exterior_module(2))
    dot = to_dot(to_graph(f))
    assert dot == to_dot(to_graph(f))
    assert dot.startswith("digraph adinkra {")
    assert "rank=same" in dot
    assert 'label="0"' in dot and 'label="1"' in dot
    # with the wedge-plus-contraction action some coefficients are -1
    dot4 = to_dot(to_graph(degree_filtration(exterior_module(4))))
    assert "style=dashed" in dot4
    assert "shape=circle" in dot4 and "shape=box" in dot4


def test_dot_rank_groups_match_heights():
    g = to_graph(degree_filtration(exterior_module(3)))
    dot = to_dot(g)
    ranks = [line for line in dot.splitlines() if "rank=same" in line]
    assert len(ranks) == len(g.height_counts())
    for h, line in enumerate(ranks):
        assert line.count("shape=") == g.height_counts()[h]


def test_rejects_invalid_filtration():
    from cliffilt.exactalg import Subspace
    from cliffilt.supermodule import SuperFiltration

    m = exterior_module(2)
    bad = SuperFiltration(m, [Subspace.span(2, [[1, 0]]), Subspace.full(2)],
                          [Subspace.zero(2), Subspace.full(2)])
    with pytest.raises(ValueError, match="invalid"):
        to_graph(bad)


def test_scaled_basis_vectors_allowed():
    # an adapted basis need not be unit vectors, signs still must be unit
    f = degree_filtration(exterior_module(1))
    even = Matrix(1, 1, [[3]])
    odd = Matrix(1, 1, [[3]])
    g = to_graph(f, basis_even=even, basis_odd=odd)
    assert len(g.edges) == 1 and g.edges[0].sign == 1


def _hodge_adapted_basis():
    """On exterior_module(4): 1 +- vol and g_j g_0 (1 +- vol) for j = 1..3
    (even), g_i (1 +- vol) for i = 0..3 (odd).  v g_0 g_j is g_j g_0 v,
    since the gammas act on row vectors from the right."""
    m = exterior_module(4)
    units = [Matrix(1, 8, [[1] + [0] * 6 + [s]]) for s in (1, -1)]
    even = [x * m.gamma(0, 0) * m.gamma(j, 1) if j else x for x in units for j in range(4)]
    odd = [x * m.gamma(i, 0) for x in units for i in range(4)]
    return tuple(Matrix.from_rows([r.entries[0] for r in rows]) for rows in (even, odd))


def test_hodge_filtration_has_an_adapted_homogeneous_basis():
    # the coordinate basis fails homogeneity (test_non_homogeneous_basis_rejected);
    # this basis is adapted to the action and homogeneous for the flags
    f = hodge_filtration(exterior_module(4))
    g = to_graph(f, *_hodge_adapted_basis())
    assert g.height_counts() == (1, 4, 6, 4, 1)
    back = rebuild_filtration(g)
    assert all(back.level(p) == f.level(p) for p in range(f.top_degree + 1))


def test_to_graph_takes_images_by_one_product_per_parity_and_generator(products):
    cases = [(degree_filtration(exterior_module(n)), ()) for n in (0, 1, 2, 4)]
    cases.append((hodge_filtration(exterior_module(4)), _hodge_adapted_basis()))
    for f, basis in cases:
        assert check_filtration(f)
        products.clear()
        g = to_graph(f, *basis)
        assert len(products) == 2 * f.module.algebra.n
        assert len(g.edges) == f.module.algebra.n * len(g.vertices) // 2


def test_rebuild_filtration_matches_the_oracle():
    f1, f2 = degree_filtration(exterior_module(1)), degree_filtration(exterior_module(2))
    flat = trivial_filtration(exterior_module(2))
    graphs = [to_graph(degree_filtration(exterior_module(n))) for n in (1, 2, 3)]
    graphs += [to_graph(direct_sum_filtration(f1, f1)), to_graph(direct_sum_filtration(f2, flat)),
               to_graph(hodge_filtration(exterior_module(4)), *_hodge_adapted_basis())]
    cases = []
    for g in graphs:
        assigns, exhausted = enumerate_heights(g, budget=5000)
        assert not exhausted and assigns
        cases += [(g, list(a)) for a in assigns]
    # no edges: the parities' tops may differ by more than one
    lone = to_graph(degree_filtration(exterior_module(0)))
    cases += [(lone, [h]) for h in (0, 2, 4, 6)]
    for g, heights in cases:
        # level p spans the vertices of its parity at height p or below
        got = rebuild_filtration(g, heights)
        assert got.top_degree == max(1, *heights)
        for p in range(got.top_degree + 1):
            rows = [v.vector for v, h in zip(g.vertices, heights) if v.parity == p % 2 and h <= p]
            want = oracle.rref(rows, got.dims[(p % 2,)])[0]
            assert got.level(p).basis.entries == tuple(map(tuple, want))
    assert len(cases) >= 100


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _filtrations():
    """(filtration, basis) pairs: degree, trivial, unequal-top sums with
    several components, the hodge basis, and seeded random filtrations."""
    ext = [exterior_module(n) for n in range(5)]
    irr = [irreducible_module(n) for n in range(1, 6)]
    deg = [degree_filtration(m) for m in ext]
    cases = [(f, ()) for f in deg]
    cases += [(trivial_filtration(m), ()) for m in irr]
    flat2 = trivial_filtration(ext[2])
    # Cl(1) with its even vector raised to height 2
    raised = SuperFiltration(ext[1], [Subspace.zero(1), Subspace.full(1)], [Subspace.full(1)])
    pairs = [(deg[2], flat2), (flat2, deg[2]), (deg[1], raised),
             (raised, direct_sum_filtration(deg[1], deg[1]))]
    cases += [(direct_sum_filtration(fa, fb), ()) for fa, fb in pairs]
    cases.append((hodge_filtration(ext[4]), _hodge_adapted_basis()))
    rng = random.Random(22)
    for _ in range(6):
        cases += [(random_filtration(m, rng), ()) for m in ext[1:] + irr]
    return cases


@pytest.fixture(scope="module")
def graphs():
    """The graphs of `_filtrations`, each with the oracle's graph or the
    conditions its basis breaks."""
    return [(_outcome(to_graph, f, *basis), oracle.graph(f, *basis)) for f, basis in _filtrations()]


def test_to_graph_matches_the_oracle(graphs):
    failures = 0
    for got, want in graphs:
        assert got[1] == want[0] if isinstance(got, tuple) else oracle.graph_key(got) == want
        failures += isinstance(got, tuple)
    # the random coordinate bases include homogeneity failures, and no other kind
    assert 0 < failures < len(graphs)
    assert all("filtration-homogeneous" in got[1] for got, _ in graphs if isinstance(got, tuple))


# the search states each distinct graph of `graphs` explores, and its
# number of height functions; then the sha256 of the lists it returns
STATES = [(1, 1), (3, 2), (13, 6), (111, 38), (3539, 990), (3, 2), (13, 6), (111, 38), (101, 30),
          (2775, 710), (26, 36), (26, 36), (6, 4), (9, 8), (202, 900)]
ORDERS = "2645ac69d3a8d4f7e165679c8a8e96e557847776ff63b7a93a716046179349b2"


def _at_budget(full, states, budget):
    """A search of `states` states and `full` finds, cut at a budget."""
    if budget < states:
        return [], True
    return (full[:budget + 1], True) if len(full) > budget else (full, False)


def test_enumerate_heights_matches_the_oracle_and_pinned_states(graphs):
    # the search reads the module, the vertex parities and vectors and the
    # edges, not their orientation: a random filtration's coordinate graph
    # adds nothing once its module's is here.  The finds are the oracle's
    # height functions, each once; the states explored are pinned
    seen, finds = [], []
    for g, _ in graphs:
        if isinstance(g, tuple):
            continue
        shape = (id(g.module), tuple((v.parity, v.vector) for v in g.vertices),
                 frozenset((min(e.source, e.target), max(e.source, e.target), e.generator)
                           for e in g.edges))
        if shape in seen:
            continue
        seen.append(shape)
        full, exhausted = enumerate_heights(g, 10**6)
        assert not exhausted and len(set(full)) == len(full)
        finds.append(full)
        assert set(full) == oracle.height_functions(g)
        states, count = STATES[len(seen) - 1]
        assert len(full) == count
        for budget in sorted({*range(30), 50, 1000, 10000, states - 1, states}):
            assert enumerate_heights(g, budget) == _at_budget(full, states, budget)
    assert len(seen) == len(STATES)
    assert hashlib.sha256(repr(finds).encode()).hexdigest() == ORDERS


def test_heights_from_sources_matches_the_oracle(graphs):
    rng = random.Random(7)
    checked = 0
    for g, _ in graphs:
        if isinstance(g, tuple) or len(g.vertices) > 8:
            continue
        assigns, exhausted = enumerate_heights(g, budget=1000)
        assert not exhausted
        sets = [source_set(g, a) for a in assigns]
        # arbitrary graded sets too, each holding every vertex of a component's
        # least index, so that every vertex is reached, at nonnegative heights
        # of each vertex's parity
        pairs = [(e.source, e.target) for e in g.edges]
        roots = {min(oracle.distances(len(g.vertices), pairs, v)) for v in range(len(g.vertices))}
        for _ in range(20):
            picked = roots | set(rng.sample(range(len(g.vertices)), len(g.vertices) // 2))
            sets.append(frozenset((v, 2 * rng.randint(0, 3) + g.vertices[v].parity)
                                  for v in picked))
        for s in sets:
            # each height is the least of a source's height plus its distance
            reach = [(h, oracle.distances(len(g.vertices), pairs, v)) for v, h in s]
            assert heights_from_sources(g, s) == [
                min(h + d[v] for h, d in reach if v in d) for v in range(len(g.vertices))]
            checked += 1
    assert checked >= 300


def test_product_phase_cut_reports_exhaustion():
    # each Cl(1) component takes 3 search states and has 2 finds: 12 states
    # in all, then 16 products, so budgets 12 to 15 stop in the product phase
    f1 = degree_filtration(exterior_module(1))
    g = to_graph(direct_sum_filtration(direct_sum_filtration(f1, f1),
                                       direct_sum_filtration(f1, f1)))
    full, exhausted = enumerate_heights(g, 16)
    assert len(full) == 16 and not exhausted and set(full) == oracle.height_functions(g)
    for budget, count in ((12, 13), (13, 14), (15, 16)):
        assert enumerate_heights(g, budget) == (full[:count], True)
    assert enumerate_heights(g, 11) == ([], True)


def test_enumerate_hand_built_graphs():
    g = to_graph(degree_filtration(exterior_module(1)))
    v = g.vertices[0]
    # an edge between two even vertices: rebuild_filtration rejects every
    # candidate's parities
    bad = AdinkraGraph(g.module, [v, Vertex(0, 2, v.vector)], [Edge(0, 1, 0, 1)])
    # no edges: the odd vertex is the least of its own component
    lone = AdinkraGraph(g.module, g.vertices, [])
    for graph, want in ((bad, ([], False)), (lone, ([(0, 1)], False))):
        assert enumerate_heights(graph) == want
        assert oracle.height_functions(graph) == set(want[0])


@pytest.mark.parametrize("case", ["empty", "one component"])
def test_heights_from_sources_names_an_unreached_vertex(case):
    if case == "empty":
        g, sources, first = to_graph(degree_filtration(exterior_module(2))), frozenset(), 0
    else:
        f1 = degree_filtration(exterior_module(1))
        g, sources, first = to_graph(direct_sum_filtration(f1, f1)), {(0, 0)}, 1
    with pytest.raises(ValueError, match=f"no source reaches vertex {first}$"):
        heights_from_sources(g, sources)


def test_heights_from_sources_keeps_the_least_height_of_a_vertex():
    # a vertex given twice keeps its least height, in either order, and
    # every pair is checked, the first bad one named
    g = to_graph(degree_filtration(exterior_module(2)))
    for sources in ([(0, 0), (0, 2)], [(0, 2), (0, 0)]):
        assert heights_from_sources(g, sources) == [0, 2, 1, 1]
    for sources in ([(0, -2), (0, 0)], [(0, 0), (0, -2), (0, 1)]):
        with pytest.raises(ValueError, match="^source 0 has height -2: "):
            heights_from_sources(g, sources)


@pytest.mark.parametrize("heights", [[0, 2, 1, 1, 9, 9], [0, 2, 1], [0, 2]])
def test_heights_must_be_one_per_vertex(heights):
    # zip would drop the extra heights, or the vertices past the last one
    g = to_graph(degree_filtration(exterior_module(2)))
    for call in (rebuild_filtration, source_set):
        with pytest.raises(ValueError, match=f"^{len(heights)} heights for a graph of 4 vertices$"):
            call(g, heights)


@pytest.mark.parametrize("source", [99, -1])
def test_heights_from_sources_names_a_source_outside_the_graph(source):
    g = to_graph(degree_filtration(exterior_module(2)))
    with pytest.raises(ValueError, match=f"source {source} is not a vertex of the graph$"):
        heights_from_sources(g, {(source, 0)})
    # a negative height, and a height of the other parity than vertex 0's
    for height in (-5, 1):
        with pytest.raises(ValueError, match=f"^source 0 has height {height}: heights must "
                                             "be nonnegative and match parity$"):
            heights_from_sources(g, {(0, height)})


def test_basis_with_extra_columns_does_not_span():
    f = degree_filtration(exterior_module(4))
    wide = Matrix.from_rows([[1 if j == i else 0 for j in range(9)] for i in range(8)])
    with pytest.raises(ValueError, match="^even basis does not span the even component$"):
        to_graph(f, basis_even=wide)
    with pytest.raises(ValueError, match="^odd basis does not span the odd component$"):
        to_graph(f, basis_odd=wide)
