import random
from itertools import combinations

import pytest

from cliffilt.exactalg import Matrix, Subspace
from cliffilt.graph import (
    enumerate_heights,
    heights_from_sources,
    rebuild_filtration,
    source_set,
    to_dot,
    to_graph,
)
from cliffilt.supermodule import (
    SuperFiltration,
    check_filtration,
    degree_filtration,
    direct_sum_filtration,
    exterior_module,
    hodge_filtration,
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


def test_to_graph_takes_images_by_one_product_per_parity_and_generator(products, monkeypatch):
    monkeypatch.delattr(Matrix, "apply")
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
