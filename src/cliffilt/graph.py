"""Adinkra-style graphs of filtered supermodules with adapted bases.

A basis is adapted when every generator sends each basis vector to plus
or minus another basis vector.  Vertices then carry a parity and a
height (the minimal filtration level containing the vector), every
generator induces a perfect matching between the parities, and the
height difference across any edge is exactly one.  Heights are
equivalent data to the filtration, which `rebuild_filtration` recovers;
`enumerate_heights` lists every alternative height function the same
edge structure supports.

`to_graph` checks three conditions itself: each basis spans its parity
component, the basis is homogeneous for the flags, and it is adapted.
The filtration check it requires first proves the rest: heights differ
by one across every edge, and both endpoints give an edge the same
sign.  `enumerate_heights` searches each connected component in
breadth-first order from its least vertex, and its `budget` bounds the
search states it explores.

Adapted bases are required, never synthesized: constructing one for an
arbitrary module is out of scope, and the operations fail loudly when
the contract is violated.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product

from .certificate import require
from .exactalg import Matrix, Subspace
from .supermodule import SuperFiltration, check_filtration


@dataclass(frozen=True)
class Vertex:
    parity: int
    height: int
    vector: tuple


@dataclass(frozen=True)
class Edge:
    """Oriented from the lower-height endpoint; sign is the action coefficient."""

    source: int
    target: int
    generator: int
    sign: int


class AdinkraGraph:
    def __init__(self, module, vertices, edges):
        self.module = module
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)

    def height_counts(self) -> tuple[int, ...]:
        top = max((v.height for v in self.vertices), default=-1)
        counts = [0] * (top + 1)
        for v in self.vertices:
            counts[v.height] += 1
        return tuple(counts)

    def __repr__(self):
        return f"AdinkraGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def _minimal_level(f: SuperFiltration, v, parity: int) -> int:
    """The least level of v's parity that contains v.  Only the levels
    below the corner, the top one of the parity, are searched: a passing
    check_filtration makes the corner level full, and to_graph has
    already rejected a basis of the wrong width, so v lies in it."""
    corner = f.top_degree - (f.top_degree - parity) % 2
    return next((p for p in range(parity, corner, 2) if f.level(p).contains(v)), corner)


def to_graph(f: SuperFiltration, basis_even: Matrix | None = None,
             basis_odd: Matrix | None = None) -> AdinkraGraph:
    """Graph of the generator action on an adapted basis.

    Defaults to the coordinate basis of each parity component, which
    spans it; a basis the caller gives must span its component: as many
    rows and columns as the component's dimension, and full rank.
    Heights are minimal filtration levels, and each level must be
    spanned by the basis vectors it contains.  Each generator image must
    be plus or minus a single basis vector of the other parity or the
    basis is rejected as not adapted.  Raises CheckFailed unless
    check_filtration passes.

    The passing check proves the rest.  Vertex k is basis row k, and the
    rows are independent, so no two agree up to sign and only u and w
    give the edge of generator i between them.  Let u g_i = s w, s = +-1:

    - the heights of u and w differ by one.  Compatibility puts u g_i in
      level h(u) + 1, so h(w) <= h(u) + 1.  The relations give
      g_i g_i = G_ii with G_ii > 0, so u = (s / G_ii) w g_i and
      h(u) <= h(w) + 1.  The parities differ, so |h(u) - h(w)| = 1.
    - w gives the edge the sign s too.  w g_i = s G_ii u, which is s u if
      G_ii = 1; otherwise it is a multiple of u that no basis row equals
      up to sign, and w is rejected as not adapted.

    So each edge is taken once, from its lower endpoint.
    """
    require("filtration", check_filtration(f))
    module = f.module
    bases = []
    for parity, name, basis in ((0, "even", basis_even), (1, "odd", basis_odd)):
        dim = module.dim(parity)
        if basis is None:
            basis = Matrix.identity(dim)
        elif basis.rows != dim or basis.cols != dim or basis.rank() != dim:
            raise ValueError(f"{name} basis does not span the {name} component")
        bases.append(basis)

    vertices = [Vertex(parity, _minimal_level(f, row, parity), row)
                for parity, mat in enumerate(bases) for row in mat.entries]

    # heights must carry the same information as the flags: each level is
    # spanned by the basis vectors it contains, else reconstruction is lossy
    for p in range(f.top_degree + 1):
        inside = sum(1 for v in vertices if v.parity == p % 2 and v.height <= p)
        if inside != f.level(p).dim:
            raise ValueError(
                f"basis not filtration-homogeneous: level {p} has dimension "
                f"{f.level(p).dim} but contains {inside} basis vectors"
            )

    # per parity, each basis row and its negation to (vertex index, sign)
    signed = ({}, {})
    for k, v in enumerate(vertices):
        signed[v.parity][v.vector] = (k, 1)
        signed[v.parity][tuple(-c for c in v.vector)] = (k, -1)

    # each generator's images of a parity's basis rows, from one product
    images = [[(mat * module.gamma(i, parity)).entries for i in range(module.algebra.n)]
              for parity, mat in enumerate(bases)]
    edges = []
    for u, vert in enumerate(vertices):
        row = u - bases[0].rows if vert.parity else u
        for i in range(module.algebra.n):
            hit = signed[1 - vert.parity].get(images[vert.parity][i][row])
            if hit is None:
                raise ValueError(
                    f"basis not adapted: generator {i} image of vertex {u} "
                    "is not a signed basis vector"
                )
            w, sign = hit
            if vert.height < vertices[w].height:
                edges.append(Edge(u, w, i, sign))
    edges.sort(key=lambda e: (e.source, e.target, e.generator))
    return AdinkraGraph(module, vertices, edges)


def rebuild_filtration(graph: AdinkraGraph, heights=None) -> SuperFiltration:
    """Filtration whose level p spans the vertices of height at most p.

    With no explicit heights, uses the ones stored on the graph; the
    result is not validated here, so run check_filtration on it when the
    heights come from enumeration.  Raises ValueError unless there is one
    height per vertex.
    """
    module = graph.module
    if heights is None:
        heights = [v.height for v in graph.vertices]
    _require_one_per_vertex(graph, heights)
    tops = [0, 1]
    for v, h in zip(graph.vertices, heights):
        if h < 0 or h % 2 != v.parity % 2:
            raise ValueError("heights must be nonnegative and match parity")
        tops[v.parity] = max(tops[v.parity], h)
    levels = []
    for p in range(max(tops) + 1):
        rows = [v.vector for v, h in zip(graph.vertices, heights) if v.parity == p % 2 and h <= p]
        levels.append(Subspace.span(module.dim(p % 2), rows))
    return SuperFiltration(module, levels[0::2], levels[1::2])


def to_dot(graph: AdinkraGraph) -> str:
    """DOT text: ranks by height, dashed negative edges, labels by generator.

    Even vertices are circles, odd are boxes; ordering is fixed by
    vertex and edge indices so the output is diff-stable.
    """
    lines = ["digraph adinkra {", "  rankdir=BT;", "  node [fontname=\"Helvetica\"];"]
    top = max((v.height for v in graph.vertices), default=-1)
    for h in range(top + 1):
        members = [k for k, v in enumerate(graph.vertices) if v.height == h]
        if not members:
            continue
        decls = []
        for k in members:
            shape = "circle" if graph.vertices[k].parity == 0 else "box"
            decls.append(f"v{k} [shape={shape}, label=\"{k}\"];")
        lines.append(f"  {{ rank=same; {' '.join(decls)} }}")
    for e in graph.edges:
        style = ", style=dashed" if e.sign < 0 else ""
        lines.append(f"  v{e.source} -> v{e.target} [label=\"{e.generator}\", dir=none{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def source_set(graph: AdinkraGraph, heights) -> frozenset:
    """Sources of the orientation, graded: pairs (vertex, height).

    A source is a vertex all of whose edges rise.  The heights matter:
    descending from any vertex walks to a source along strictly falling
    edges, so h(v) = min over sources s of h(s) + d(v, s), and the
    graded source set determines the whole assignment.  Bare vertex
    sets do not (two sources at different heights can coincide as
    vertices across distinct assignments).  Raises ValueError unless
    there is one height per vertex.
    """
    _require_one_per_vertex(graph, heights)
    lower = set(range(len(graph.vertices)))
    for e in graph.edges:
        if heights[e.source] < heights[e.target]:
            lower.discard(e.target)
        else:
            lower.discard(e.source)
    return frozenset((v, heights[v]) for v in lower)


def _require_one_per_vertex(graph: AdinkraGraph, heights) -> None:
    if len(heights) != len(graph.vertices):
        raise ValueError(f"{len(heights)} heights for a graph of {len(graph.vertices)} vertices")


def heights_from_sources(graph: AdinkraGraph, sources) -> list[int]:
    """Heights reconstructed from a graded source set by shortest descent.

    Returns h(v) = min over (s, h_s) in sources of h_s + d(v, s), the
    inverse of source_set on valid assignments.  Raises ValueError naming
    the first source that is not a vertex of the graph or whose height is
    negative or of the other parity than its vertex, or the first vertex
    that no source reaches.
    """
    adjacency = _adjacency(graph)
    best = {}
    for v, h in sources:
        if v not in adjacency:
            raise ValueError(f"source {v} is not a vertex of the graph")
        if h < 0 or h % 2 != graph.vertices[v].parity:
            raise ValueError(f"source {v} has height {h}: heights must be nonnegative "
                             "and match parity")
        best[v] = min(h, best.get(v, h))
    heap = [(h, v) for v, h in best.items()]
    heapq.heapify(heap)
    while heap:
        h, u = heapq.heappop(heap)
        if h > best[u]:
            continue
        for w in adjacency[u]:
            if w not in best or best[w] > h + 1:
                best[w] = h + 1
                heapq.heappush(heap, (h + 1, w))
    for v in range(len(graph.vertices)):
        if v not in best:
            raise ValueError(f"no source reaches vertex {v}")
    return [best[v] for v in range(len(graph.vertices))]


def _adjacency(graph: AdinkraGraph) -> dict[int, list[int]]:
    """The neighbours of each vertex, in edge order."""
    adjacency = {k: [] for k in range(len(graph.vertices))}
    for e in graph.edges:
        adjacency[e.source].append(e.target)
        adjacency[e.target].append(e.source)
    return adjacency


def enumerate_heights(graph: AdinkraGraph, budget: int = 10000):
    """All valid height functions the edge structure supports.

    Per connected component, every consistent choice of edge directions
    gives relative heights up to a shift; the shift is pinned by parity
    and by normalizing the minimum to 0 or 1.  Components combine by
    cartesian product.  Every candidate is validated by rebuilding the
    flags and running the full filtration check; only the ones passing
    are returned.  Returns (assignments, exhausted) where exhausted
    flags that the search budget was hit before the enumeration closed:
    `budget` bounds both the search states explored, over all components,
    and the assignments returned.

    Each component is searched depth first, -1 before +1, and assigns
    its vertices in breadth-first discovery order from its least vertex,
    each one step from the neighbour that discovered it.  That is the
    order of assigning next the first unassigned neighbour of the
    earliest assigned vertex that has one: the assigned vertices are
    always a prefix of the breadth-first order, whatever heights they
    got, so the order is computed once.  The least vertex is pinned at
    0, so two distinct relative assignments differ by more than a shift
    and normalize to distinct heights.
    """
    n_vertices = len(graph.vertices)
    if n_vertices == 0:
        return [], False
    adjacency = _adjacency(graph)

    explored = 0
    per_component = []
    seen = set()
    for root in range(n_vertices):
        if root in seen:
            continue
        # breadth-first order, and the neighbour that discovered each vertex
        order, parent = [root], {}
        seen.add(root)
        for u in order:
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = u
                    order.append(w)
        results = []
        stack = [{root: 0}]
        while stack:
            relative = stack.pop()
            explored += 1
            if explored > budget:
                return [], True
            if len(relative) == len(order):
                results.append(relative)
                continue
            w = order[len(relative)]
            for delta in (1, -1):
                cand = dict(relative)
                cand[w] = relative[parent[w]] + delta
                # every already-assigned neighbor must differ by exactly 1
                if all(abs(cand[w] - cand[y]) == 1 for y in adjacency[w] if y in cand):
                    stack.append(cand)
        # normalize each relative assignment: parity forces the shift mod 2,
        # so exactly one shift puts the minimum at 0 or 1
        normalized = []
        for relative in results:
            shift = -min(relative.values())
            if shift % 2 != graph.vertices[root].parity:
                shift += 1
            normalized.append({v: h + shift for v, h in relative.items()})
        per_component.append(normalized)

    assignments = []
    for combo in product(*per_component):
        heights = [0] * n_vertices
        for part in combo:
            for v, h in part.items():
                heights[v] = h
        try:
            candidate = rebuild_filtration(graph, heights)
        except ValueError:
            # a hand-built or decoded graph may join two vertices of one parity
            continue
        if check_filtration(candidate):
            assignments.append(tuple(heights))
        if len(assignments) > budget:
            return assignments, True
    return assignments, False
