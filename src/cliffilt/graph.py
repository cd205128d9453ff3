"""Adinkra-style graphs of filtered supermodules with adapted bases.

A basis is adapted when every generator sends each basis vector to plus
or minus another basis vector.  Vertices then carry a parity and a
height (the minimal filtration level containing the vector), every
generator induces a perfect matching between the parities, and the
height difference across any edge is exactly one.  Heights are
equivalent data to the filtration, which `rebuild_filtration` recovers;
`enumerate_heights` lists every alternative height function the same
edge structure supports.

Adapted bases are required, never synthesized: constructing one for an
arbitrary module is out of scope, and the operations fail loudly when
the contract is violated.
"""

from __future__ import annotations

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
    p = parity
    while True:
        if f.level(p).contains(v):
            return p
        p += 2
        if p > f.top_degree + 1:
            raise ValueError("vector not contained in the top filtration level")


def to_graph(f: SuperFiltration, basis_even: Matrix | None = None,
             basis_odd: Matrix | None = None) -> AdinkraGraph:
    """Graph of the generator action on an adapted basis.

    Defaults to the coordinate basis of each parity component, which
    spans it; a basis the caller gives must span its component (one rank
    test each).  Heights are minimal filtration levels; each generator
    image must be plus or minus a single basis vector of the other parity
    or the basis is rejected as not adapted.  Raises CheckFailed unless
    check_filtration passes.
    """
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
            height = _minimal_level(f, row, parity)
            index_of[(parity, row)] = len(vertices)
            vertices.append(Vertex(parity, height, row))

    # heights must carry the same information as the flags: each level is
    # spanned by the basis vectors it contains, else reconstruction is lossy
    for p in range(f.top_degree + 1):
        inside = sum(1 for v in vertices if v.parity == p % 2 and v.height <= p)
        if inside != f.level(p).dim:
            raise ValueError(
                f"basis not filtration-homogeneous: level {p} has dimension "
                f"{f.level(p).dim} but contains {inside} basis vectors"
            )

    # per parity, each basis row and its negation to (vertex index, sign),
    # filled in row order so that the first row a vector equals up to sign
    # wins
    signed = ({}, {})
    for parity, mat in ((0, basis_even), (1, basis_odd)):
        for row in mat.entries:
            k = index_of[(parity, row)]
            signed[parity].setdefault(row, (k, 1))
            signed[parity].setdefault(tuple(-c for c in row), (k, -1))

    # each generator's images of a parity's basis rows, from one product
    images = [[(mat * module.gamma(i, parity)).entries for i in range(module.algebra.n)]
              for parity, mat in ((0, basis_even), (1, basis_odd))]
    edges = {}
    for u_index, vert in enumerate(vertices):
        row = u_index - basis_even.rows if vert.parity else u_index
        for i in range(module.algebra.n):
            image = images[vert.parity][i][row]
            hit = signed[1 - vert.parity].get(image)
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
                    raise ValueError(
                        f"inconsistent action signs across edge {key}"
                    )
            else:
                edges[key] = sign
    edge_list = [Edge(lo, hi, i, sign) for (lo, hi, i), sign in sorted(edges.items())]
    return AdinkraGraph(module, vertices, edge_list)


def rebuild_filtration(graph: AdinkraGraph, heights=None) -> SuperFiltration:
    """Filtration whose level p spans the vertices of height at most p.

    With no explicit heights, uses the ones stored on the graph; the
    result is not validated here, so run check_filtration on it when the
    heights come from enumeration.
    """
    module = graph.module
    if heights is None:
        heights = [v.height for v in graph.vertices]
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
    vertices across distinct assignments).
    """
    lower = set(range(len(graph.vertices)))
    for e in graph.edges:
        if heights[e.source] < heights[e.target]:
            lower.discard(e.target)
        else:
            lower.discard(e.source)
    return frozenset((v, heights[v]) for v in lower)


def heights_from_sources(graph: AdinkraGraph, sources) -> list[int]:
    """Heights reconstructed from a graded source set by shortest descent.

    Returns h(v) = min over (s, h_s) in sources of h_s + d(v, s), the
    inverse of source_set on valid assignments.
    """
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


def _adjacency(graph: AdinkraGraph) -> dict[int, list[int]]:
    """The neighbours of each vertex, in edge order."""
    adjacency = {k: [] for k in range(len(graph.vertices))}
    for e in graph.edges:
        adjacency[e.source].append(e.target)
        adjacency[e.target].append(e.source)
    return adjacency


def _components(adjacency: dict[int, list[int]]) -> list[list[int]]:
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


def enumerate_heights(graph: AdinkraGraph, budget: int = 10000):
    """All valid height functions the edge structure supports.

    Per connected component, every consistent choice of edge directions
    gives relative heights up to a shift; the shift is pinned by parity
    and by normalizing the minimum to 0 or 1.  Components combine by
    cartesian product.  Every candidate is validated by rebuilding the
    flags and running the full filtration check; only the ones passing
    are returned.  Returns (assignments, exhausted) where exhausted
    flags that the search budget was hit before the enumeration closed.
    """
    n_vertices = len(graph.vertices)
    if n_vertices == 0:
        return [], False
    adjacency = _adjacency(graph)

    exhausted = False
    explored = 0
    per_component = []
    for comp in _components(adjacency):
        results = []
        root = comp[0]
        # partial: vertex -> relative height; frontier of edges to decide
        stack = [({root: 0}, [root])]
        while stack:
            relative, order = stack.pop()
            explored += 1
            if explored > budget:
                exhausted = True
                break
            # find an undecided neighbor pair
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
                # every already-assigned neighbor must differ by exactly 1
                consistent = all(
                    abs(cand[w] - cand[y]) == 1
                    for y in adjacency[w]
                    if y in cand
                )
                if consistent:
                    stack.append((cand, order + [w]))
        if exhausted:
            break
        # normalize each relative assignment: parity forces the shift mod 2,
        # so exactly one shift puts the minimum at 0 or 1
        normalized = []
        for relative in results:
            base = min(relative.values())
            shift = -base
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
