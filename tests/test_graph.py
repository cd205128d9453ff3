import random
from itertools import product

import pytest

from cliffilt.certificate import require
from cliffilt.exactalg import Matrix, Subspace
from cliffilt.graph import (
    AdinkraGraph,
    Edge,
    Vertex,
    _adjacency,
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


def _former_rebuild_filtration(graph, heights):
    """The former form, kept as the reference: one loop per parity, each to
    the top height of its own parity."""
    tops = [0, 1]
    for v, h in zip(graph.vertices, heights):
        tops[v.parity] = max(tops[v.parity], h)
    flags = ([], [])
    for parity in (0, 1):
        for p in range(parity, tops[parity] + 1, 2):
            rows = [v.vector for v, h in zip(graph.vertices, heights)
                    if v.parity == parity and h <= p]
            flags[parity].append(Subspace.span(graph.module.dim(parity), rows))
    return SuperFiltration(graph.module, *flags)


def test_rebuild_filtration_matches_former_two_loops():
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
        got, want = rebuild_filtration(g, heights), _former_rebuild_filtration(g, heights)
        assert got == want and got.top_degree == want.top_degree
        assert (got.even_flags, got.odd_flags) == (want.even_flags, want.odd_flags)
    assert len(cases) >= 100


def _former_minimal_level(f, v, parity):
    p = parity
    while True:
        if f.level(p).contains(v):
            return p
        p += 2
        if p > f.top_degree + 1:
            raise ValueError("vector not contained in the top filtration level")


def _former_to_graph(f, basis_even=None, basis_odd=None):
    """The former form, kept as the reference: it tested the height step and
    the sign of every edge from both endpoints, and found each vertex through
    a dict keyed by its row."""
    require("filtration", check_filtration(f))
    module = f.module
    if basis_even is None:
        basis_even = Matrix.identity(module.dim_even)
    elif basis_even.rank() != module.dim_even or basis_even.rows != module.dim_even:
        raise ValueError("even basis does not span the even component")
    if basis_odd is None:
        basis_odd = Matrix.identity(module.dim_odd)
    elif basis_odd.rank() != module.dim_odd or basis_odd.rows != module.dim_odd:
        raise ValueError("odd basis does not span the odd component")
    vertices = []
    index_of = {}
    for parity, mat in ((0, basis_even), (1, basis_odd)):
        for row in mat.entries:
            height = _former_minimal_level(f, row, parity)
            index_of[(parity, row)] = len(vertices)
            vertices.append(Vertex(parity, height, row))
    for p in range(f.top_degree + 1):
        inside = sum(1 for v in vertices if v.parity == p % 2 and v.height <= p)
        if inside != f.level(p).dim:
            raise ValueError(
                f"basis not filtration-homogeneous: level {p} has dimension "
                f"{f.level(p).dim} but contains {inside} basis vectors"
            )
    signed = ({}, {})
    for parity, mat in ((0, basis_even), (1, basis_odd)):
        for row in mat.entries:
            k = index_of[(parity, row)]
            signed[parity].setdefault(row, (k, 1))
            signed[parity].setdefault(tuple(-c for c in row), (k, -1))
    images = [[(mat * module.gamma(i, parity)).entries for i in range(module.algebra.n)]
              for parity, mat in ((0, basis_even), (1, basis_odd))]
    edges = {}
    for u_index, vert in enumerate(vertices):
        row = u_index - basis_even.rows if vert.parity else u_index
        for i in range(module.algebra.n):
            hit = signed[1 - vert.parity].get(images[vert.parity][i][row])
            if hit is None:
                raise ValueError(
                    f"basis not adapted: generator {i} image of vertex {u_index} "
                    "is not a signed basis vector"
                )
            w_index, sign = hit
            lo, hi = sorted((u_index, w_index), key=lambda k: vertices[k].height)
            if abs(vertices[u_index].height - vertices[w_index].height) != 1:
                raise ValueError(
                    f"generator {i} connects heights {vertices[u_index].height} "
                    f"and {vertices[w_index].height}"
                )
            key = (lo, hi, i)
            if key in edges:
                if edges[key] != sign:
                    raise ValueError(f"inconsistent action signs across edge {key}")
            else:
                edges[key] = sign
    edge_list = [Edge(lo, hi, i, sign) for (lo, hi, i), sign in sorted(edges.items())]
    return AdinkraGraph(module, vertices, edge_list)


def _former_components(adjacency):
    seen = set()
    comps = []
    for start in adjacency:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _former_enumerate_heights(graph, budget=10000):
    """The former form, kept as the reference: each state scanned its
    assigned vertices for the next one, and the finds were deduplicated."""
    n_vertices = len(graph.vertices)
    if n_vertices == 0:
        return [], False
    adjacency = _adjacency(graph)
    exhausted = False
    explored = 0
    per_component = []
    for comp in _former_components(adjacency):
        results = []
        root = comp[0]
        stack = [({root: 0}, [root])]
        while stack:
            relative, order = stack.pop()
            explored += 1
            if explored > budget:
                exhausted = True
                break
            pending = None
            for u in order:
                for w in adjacency[u]:
                    if w not in relative:
                        pending = (u, w)
                        break
                if pending:
                    break
            if pending is None:
                results.append(dict(relative))
                continue
            u, w = pending
            for delta in (1, -1):
                cand = dict(relative)
                cand[w] = relative[u] + delta
                if all(abs(cand[w] - cand[y]) == 1 for y in adjacency[w] if y in cand):
                    stack.append((cand, order + [w]))
        if exhausted:
            break
        normalized = []
        for relative in results:
            shift = -min(relative.values())
            anchor = comp[0]
            if (relative[anchor] + shift) % 2 != graph.vertices[anchor].parity:
                shift += 1
            heights = {v: relative[v] + shift for v in comp}
            if heights not in normalized:
                normalized.append(heights)
        per_component.append(normalized)
    if exhausted:
        return [], True
    assignments = []
    for combo in product(*per_component):
        heights = [0] * n_vertices
        for part in combo:
            for v, h in part.items():
                heights[v] = h
        try:
            candidate = rebuild_filtration(graph, heights)
        except ValueError:
            continue
        if check_filtration(candidate):
            assignments.append(tuple(heights))
        if len(assignments) > budget:
            return assignments, True
    return assignments, exhausted


def _former_heights_from_sources(graph, sources):
    """The former form, kept as the reference: a list re-sorted on every pop."""
    adjacency = _adjacency(graph)
    best = {v: h for v, h in sources}
    frontier = sorted(best, key=lambda v: best[v])
    while frontier:
        frontier.sort(key=lambda v: best[v])
        u = frontier.pop(0)
        for w in adjacency[u]:
            if w not in best or best[w] > best[u] + 1:
                best[w] = best[u] + 1
                if w not in frontier:
                    frontier.append(w)
    return [best[v] for v in range(len(graph.vertices))]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _graph_key(g):
    return g if isinstance(g, tuple) else (g.vertices, g.edges)


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
    """The graphs of `_filtrations`, with the outcomes of both forms."""
    out = []
    for f, basis in _filtrations():
        got, want = _outcome(to_graph, f, *basis), _outcome(_former_to_graph, f, *basis)
        out.append((got, want))
    return out


def test_to_graph_matches_former(graphs):
    failures = 0
    for got, want in graphs:
        assert _graph_key(got) == _graph_key(want)
        failures += isinstance(got, tuple)
    # the random coordinate bases include homogeneity failures, and no other kind
    assert 0 < failures < len(graphs)
    assert all("filtration-homogeneous" in got[1] for got, _ in graphs if isinstance(got, tuple))


def _least_budget(enumerate_fn, g):
    """The least budget that does not exhaust, by bisection."""
    lo, hi = 0, 1
    while enumerate_fn(g, hi)[1]:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if enumerate_fn(g, mid)[1]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def test_enumerate_heights_matches_former(graphs):
    # the search reads the module, the vertex parities and vectors and the
    # edges, not their orientation: a random filtration's coordinate graph
    # adds nothing once its module's is here
    seen = set()
    for g, _ in graphs:
        if isinstance(g, tuple):
            continue
        shape = (id(g.module), tuple((v.parity, v.vector) for v in g.vertices),
                 frozenset((min(e.source, e.target), max(e.source, e.target), e.generator)
                           for e in g.edges))
        if shape in seen:
            continue
        seen.add(shape)
        for budget in [*range(30), 50, 1000, 10000]:
            assert enumerate_heights(g, budget) == _former_enumerate_heights(g, budget)
        # the least budget that closes pins the count of explored states
        least = _least_budget(enumerate_heights, g)
        assert not _former_enumerate_heights(g, least)[1]
        if least:
            assert _former_enumerate_heights(g, least - 1)[1]
    assert len(seen) >= 12


def test_heights_from_sources_matches_former(graphs):
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
        roots = {min(c) for c in _former_components(_adjacency(g))}
        for _ in range(20):
            picked = roots | set(rng.sample(range(len(g.vertices)), len(g.vertices) // 2))
            sets.append(frozenset((v, 2 * rng.randint(0, 3) + g.vertices[v].parity)
                                  for v in picked))
        for s in sets:
            assert heights_from_sources(g, s) == _former_heights_from_sources(g, s)
            checked += 1
    assert checked >= 300


def test_product_phase_cut_reports_exhaustion():
    # each Cl(1) component takes 3 search states and has 2 finds: 12 states
    # in all, then 16 products, so budgets 12 to 15 stop in the product phase
    f1 = degree_filtration(exterior_module(1))
    g = to_graph(direct_sum_filtration(direct_sum_filtration(f1, f1),
                                       direct_sum_filtration(f1, f1)))
    for budget, count in ((12, 13), (13, 14), (15, 16)):
        assigns, exhausted = enumerate_heights(g, budget)
        assert (len(assigns), exhausted) == (count, True)
        assert (assigns, exhausted) == _former_enumerate_heights(g, budget)
    assert enumerate_heights(g, 11) == ([], True)
    assigns, exhausted = enumerate_heights(g, 16)
    assert len(assigns) == 16 and not exhausted


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
        assert _former_enumerate_heights(graph) == want


@pytest.mark.parametrize("case", ["empty", "one component"])
def test_heights_from_sources_names_an_unreached_vertex(case):
    if case == "empty":
        g, sources, first = to_graph(degree_filtration(exterior_module(2))), frozenset(), 0
    else:
        f1 = degree_filtration(exterior_module(1))
        g, sources, first = to_graph(direct_sum_filtration(f1, f1)), {(0, 0)}, 1
    with pytest.raises(ValueError, match=f"no source reaches vertex {first}$"):
        heights_from_sources(g, sources)


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
