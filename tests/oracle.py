"""One reference for the package's exact results, written from the definitions.

A matrix is a list of rows of `Fraction`s, a product is the triple loop,
and every rank, span, kernel and solve is one Gauss-Jordan elimination of
the whole dense matrix (both in integers once denominators are cleared,
which changes no result).  The package's objects are read only through
their data (entries, dims, gammas, flags, stored maps, Gram matrices and
certificate words); nothing here calls the kernel (integer forms, `rref`,
`_vanishes`, `_null_space`, `Matrix.__mul__`), so a shortcut and its
reference share no code.  `test_differential.py` runs the two side by side.
A new shortcut's reference is this oracle, extended if needed, and not a
copy of the code it replaced.

The checks yield their failing certificates in the order the package
states the conditions: the first is a full scan's witness.  The helpers
at the end build inputs that several test files share.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from itertools import combinations, product as cartesian
from math import gcd, lcm

import sympy

from cliffilt.certificate import failing, passing
from cliffilt.clifford import CliffordAlgebra
from cliffilt.exactalg import Matrix, Subspace
from cliffilt.supermodule import CliffordSupermodule, SuperFiltration

ZERO, ONE = Fraction(0), Fraction(1)


# ---------------------------------------------------------------------------
# Dense linear algebra over the rationals


def grid(m: Matrix) -> list[list[Fraction]]:
    return [list(row) for row in m.entries]


def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(a, cols: int) -> list[list[Fraction]]:
    return [[row[j] for row in a] for j in range(cols)]


def product(a, b, cols: int) -> list[list[Fraction]]:
    """a times b, where b has `cols` columns: the triple loop, in integers
    once b's denominators and those of each row of a are cleared."""
    db = lcm(*(x.denominator for row in b for x in row))
    bi = [[x.numerator * (db // x.denominator) for x in row] for row in b]
    out = []
    for row in a:
        da, acc = lcm(*(x.denominator for x in row)), [0] * cols
        for x, brow in zip(row, bi):
            if x:
                x = x.numerator * (da // x.denominator)
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append([Fraction(v, da * db) for v in acc])
    return out


def combination(terms, rows: int, cols: int) -> list[list[Fraction]]:
    """The sum of c * m over the terms (c, m), entry by entry."""
    out = [[ZERO] * cols for _ in range(rows)]
    for c, m in terms:
        for acc, row in zip(out, m):
            for j, x in enumerate(row):
                if x:
                    acc[j] += c * x
    return out


def _nonzero(terms, rows: int, cols: int) -> bool:
    """Whether the sum of c * a * b over the terms (c, a, b) is not zero."""
    total = combination([(c, product(a, b, cols)) for c, a, b in terms], rows, cols)
    return any(map(any, total))


def kron(a, b) -> list[list[Fraction]]:
    """Row (i, k) and column (j, l) hold a[i][j] * b[k][l], i-major."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def block_diagonal(a, b, a_cols: int, b_cols: int) -> list[list[Fraction]]:
    return [list(row) + [ZERO] * b_cols for row in a] + [[ZERO] * a_cols + list(row) for row in b]


def rref(rows, cols: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """The reduced row-echelon form, zero rows dropped, and its pivots:
    Gauss-Jordan, column by column, on rows whose denominators are cleared
    first, each combination divided by the gcd of its entries."""
    work = []
    for row in rows:
        row = [Fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        work.append([x.numerator * (d // x.denominator) for x in row])
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        at = next((i for i in range(r, len(work)) if work[i][c]), None)
        if at is None:
            continue
        work[r], work[at] = work[at], work[r]
        top = work[r]
        for i, row in enumerate(work):
            if i != r and row[c]:
                new = [top[c] * x - row[c] * y for x, y in zip(row, top)]
                g = gcd(*new)
                work[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(work, pivots)], tuple(pivots)


def rank(rows, cols: int) -> int:
    return len(rref(rows, cols)[1])


def span_equal(a, b, cols: int) -> bool:
    return rref(a, cols)[0] == rref(b, cols)[0]


def in_span(echelon, vectors) -> bool:
    """Whether every vector is the combination of the reduced row-echelon
    basis (rows, pivots) with its own entries at the pivots."""
    rows, pivots = echelon
    for v in vectors:
        rest = list(v)
        for c, row in ((v[p], row) for p, row in zip(pivots, rows) if v[p]):
            for j, y in enumerate(row):
                if y:
                    rest[j] -= c * y
        if any(rest):
            return False
    return True


def null_space(rows, cols: int) -> list[list[Fraction]]:
    """The reduced row-echelon basis of {v : row . v = 0 for every row}:
    one solution per free column, reduced again."""
    reduced, pivots = rref(rows, cols)
    solutions = []
    for free in (f for f in range(cols) if f not in pivots):
        v = [ONE if j == free else ZERO for j in range(cols)]
        for p, row in zip(pivots, reduced):
            v[p] = -row[free]
        solutions.append(v)
    return rref(solutions, cols)[0]


def solve(rows, target) -> list[Fraction] | None:
    """x with sum x[i] * rows[i] == target, or None when there is none."""
    n = len(rows)
    reduced, pivots = rref([[row[j] for row in rows] + [t] for j, t in enumerate(target)], n + 1)
    if n in pivots:
        return None
    x = [ZERO] * n
    for row, p in zip(reduced, pivots):
        x[p] = row[n]
    return x


# ---------------------------------------------------------------------------
# Filtered modules and graded reps over k directions.  Past its top, each
# direction of the grid repeats its top two rows with period two.


def _points(tops) -> list[tuple]:
    return list(cartesian(*(range(t + 1) for t in tops)))


def _up(x, d: int, by: int) -> tuple:
    return x[:d] + (x[d] + by,) + x[d + 1:]


def _fold(x, tops) -> tuple:
    return tuple(t - (c - t) % 2 if c > t else c for c, t in zip(x, tops))


def parity(x) -> tuple:
    return tuple(c % 2 for c in x)


def _corner(c, tops) -> tuple:
    """The top grid point of parity c."""
    return tuple(t if t % 2 == a else t - 1 for a, t in zip(c, tops))


def _gammas(v) -> list:
    return [[{c: grid(g[c]) for c in g} for g in family] for family in v.gammas]


def relation_failures(v):
    """A filtered module's relations on each component: {g_i, g_j} =
    2 G[i][j] in each family, then {g_i, h_j} = 0 across families."""
    w, k, dims = v._words, len(v.tops), v.dims
    gammas, grams = _gammas(v), [grid(a.gram) for a in v.algebras]
    for c in cartesian((0, 1), repeat=k):
        for d, e in [(d, d) for d in range(k)] + list(combinations(range(k), 2)):
            after_d, after_e = parity(_up(c, d, 1)), parity(_up(c, e, 1))
            rows, cols = dims[c], dims[parity(_up(after_d, e, 1))]
            for (i, g), (j, h) in cartesian(enumerate(gammas[d]), enumerate(gammas[e])):
                scalar = [(-2 * grams[d][i][j], identity(rows), identity(rows))] if d == e else []
                if (d != e or i <= j) and _nonzero([(1, g[c], h[after_d]), (1, h[c], g[after_e]),
                                                    *scalar], rows, cols):
                    yield failing(w.relations, **w.relation(d, e, i, j, c))


def flag_failures(v):
    """A filtered module's flags: F_x <= F_{x + 2 e_d} below the top, points
    by parity; full flags at the corners; every image F_x g <= F_{x + e_d}."""
    w, tops, dims = v._words, v.tops, v.dims
    flags = {x: grid(flag.basis) for x, flag in v.flags.items()}
    spans = {x: rref(rows, dims[parity(x)]) for x, rows in flags.items()}
    for x in sorted(_points(tops), key=parity):
        for d, top in enumerate(tops):
            if x[d] <= top - 2 and not in_span(spans[_up(x, d, 2)], flags[x]):
                yield failing(w.flags, **w.nesting(d, x))
    for c in cartesian((0, 1), repeat=len(tops)):
        if len(spans[_corner(c, tops)][1]) != dims[c]:
            yield failing(w.flags, **w.exhaustive(c, _corner(c, tops)))
    for x in _points(tops):
        for d, family in enumerate(_gammas(v)):
            y = _fold(_up(x, d, 1), tops)
            for i, g in enumerate(family):
                if not in_span(spans[y], product(flags[x], g[parity(x)], dims[parity(y)])):
                    yield failing(w.flags, **w.compatibility(d, i, x))


def module_failures(v):
    """Every condition of a filtered module's check: relations, then flags."""
    yield from relation_failures(v)
    yield from flag_failures(v)


def first(failures, check: str):
    """The first failing certificate, or a passing one named `check`."""
    return next(iter(failures), passing(check))


def text(cert) -> str:
    """A certificate as the JSON text the CLI prints of it."""
    return json.dumps(cert.to_json_obj())


def _maps(r):
    """A graded rep's dims and maps anywhere in the quadrant: a Q map is the
    stored one at the folded point, a shift the identity on the top two rows."""
    held = {(d, None, y): grid(m) for d, s in enumerate(r.shifts) for y, m in s.items()}
    held.update({(d, i, y): grid(m) for d, family in enumerate(r.qs)
                 for i, q in enumerate(family) for y, m in q.items()})

    def dim(x) -> int:
        size = r.dims
        for c in _fold(x, r.tops):
            size = size[c]
        return size

    def shift(d: int, x):
        y = _fold(x, r.tops)
        return identity(dim(y)) if y[d] >= r.tops[d] - 1 else held[d, None, y]

    return dim, shift, lambda d, i, x: held[d, i, _fold(x, r.tops)]


def rep_failures(r):
    """A graded rep's relations: each stored shift injective; then at every
    grid point, with maps read up to two steps above it, [S_d, S_e] = 0,
    {Q_i, Q_j} = 2 G[i][j] S_d in each family, {Q^d_i, Q^e_j} = 0 and
    [S_e, Q^d_i] = 0."""
    w, tops, (dim, shift, q) = r._words, r.tops, _maps(r)
    grams, k = [grid(a.gram) for a in r.algebras], len(tops)
    for d, stored in enumerate(r.shifts):
        for x in stored:
            if rank(shift(d, x), dim(_up(x, d, 2))) != dim(x):
                yield failing(w.relations, kind=w.injective[d], **dict(zip(w.point, x)))
    for x in _points(tops):
        at, up = dict(zip(w.point, x)), [_up(x, d, 1) for d in range(k)]
        for d, e in combinations(range(k), 2):
            if _nonzero([(1, shift(d, x), shift(e, _up(x, d, 2))),
                         (-1, shift(e, x), shift(d, _up(x, e, 2)))],
                        dim(x), dim(_up(_up(x, d, 2), e, 2))):
                yield failing(w.relations, kind="shifts_commute", **at)
        for d, n in enumerate(len(family) for family in r.qs):
            for i, j in [(i, j) for i in range(n) for j in range(i, n)]:
                terms = [(1, q(d, i, x), q(d, j, up[d])), (1, q(d, j, x), q(d, i, up[d])),
                         (-2 * grams[d][i][j], shift(d, x), identity(dim(_up(x, d, 2))))]
                if _nonzero(terms, dim(x), dim(_up(x, d, 2))):
                    yield failing(w.relations, kind=w.anticommutator[d], i=i, j=j, **at)
        for d, e in combinations(range(k), 2):
            for i, j in cartesian(range(len(r.qs[d])), range(len(r.qs[e]))):
                if _nonzero([(1, q(d, i, x), q(e, j, up[d])), (1, q(e, j, x), q(d, i, up[e]))],
                            dim(x), dim(_up(up[d], e, 1))):
                    yield failing(w.relations, kind="mixed_bracket",
                                  **{w.generator[d]: i, w.generator[e]: j}, **at)
        for d, i, e in [(d, i, e) for d in range(k) for i in range(len(r.qs[d])) for e in range(k)]:
            if _nonzero([(1, shift(e, x), q(d, i, _up(x, e, 2))), (-1, q(d, i, x), shift(e, up[d]))],
                        dim(x), dim(_up(up[d], e, 2))):
                yield failing(w.relations, kind=w.shift_q[d][e], **{w.generator[d]: i}, **at)


def roundtrip_failures(source, rep):
    """Whether coordinates in the corner flags' bases identify `source` with
    the quotient of `rep` at shell 1 (rep's corners, their Q maps as gammas,
    at x the image of V_x under the shifts to its corner as the flag): the
    maps are bijective, intertwine every generator and match every flag."""
    w, tops, (dim, shift, q) = rep._words, rep.tops, _maps(rep)
    corners = {c: _corner(c, tops) for c in cartesian((0, 1), repeat=len(tops))}
    labels = {c: {w.component: c if len(c) > 1 else c[0]} for c in corners}
    coords = {}
    for c, corner in corners.items():
        basis = grid(source.flags[corner].basis)
        coords[c] = [solve(basis, row) for row in identity(source.dims[c])]
        if len(basis) != dim(corner) or None in coords[c] or rank(coords[c], len(basis)) != len(basis):
            yield failing(w.roundtrip, kind="bijective", **labels[c])
            return
    gammas = _gammas(source)
    for c, corner in corners.items():
        for d, (kind, key) in enumerate(w.intertwine):
            after = parity(_up(c, d, 1))
            for i, g in enumerate(gammas[d]):
                if _nonzero([(1, coords[c], q(d, i, corner)), (-1, g[c], coords[after])],
                            source.dims[c], dim(corners[after])):
                    yield failing(w.roundtrip, kind=kind, **{key: i}, **labels[c])
    for x, flag in source.flags.items():
        corner, composite, at = corners[parity(x)], identity(dim(x)), x
        for d in range(len(tops)):
            while at[d] < corner[d]:
                composite, at = product(composite, shift(d, at), dim(_up(at, d, 2))), _up(at, d, 2)
        image = product(grid(flag.basis), coords[parity(x)], dim(corner))
        if not span_equal(image, composite, dim(corner)):
            yield failing(w.roundtrip, kind="flag", **dict(zip(w.point, x)))


def regular_module(v) -> bool:
    """Whether a filtered module is Cl(N) acting on itself, filtered by word
    length in each family: its check passes; with the letters of Cl(N)
    numbered family by family, component c has one basis vector e_S per
    monomial S whose part S_d in family d has parity c_d (each family's
    parts by size, then lexicographically, the first family slowest);
    each generator is exterior_module(N)'s, g_l e_S = (-1)^{#{j in S, j < l}}
    e_{S xor {l}}; and F_x is spanned by the e_S with |S_d| <= x_d."""
    if next(module_failures(v), None) is not None:
        return False
    sizes = [a.n for a in v.algebras]
    letters = [list(range(sum(sizes[:d]), sum(sizes[:d + 1]))) for d in range(len(sizes))]
    labels = {}
    for c in v.dims:
        parts = [[S for size in range(len(own) + 1) if size % 2 == a
                  for S in combinations(own, size)] for own, a in zip(letters, c)]
        labels[c] = [(tuple(sorted(sum(per, ()))), per) for per in cartesian(*parts)]
        if len(labels[c]) != v.dims[c]:
            return False
    for d, family in enumerate(_gammas(v)):
        for l, g in zip(letters[d], family):
            for c, m in g.items():
                targets = [S for S, _ in labels[parity(_up(c, d, 1))]]
                want = [[ZERO] * len(targets) for _ in labels[c]]
                for row, (S, _) in zip(want, labels[c]):
                    row[targets.index(tuple(sorted(set(S) ^ {l})))] = Fraction(
                        (-1) ** sum(j < l for j in S))
                if m != want:
                    return False
    for x, flag in v.flags.items():
        cols = v.dims[parity(x)]
        units = [[ONE if k == j else ZERO for k in range(cols)]
                 for j, (_, per) in enumerate(labels[parity(x)])
                 if all(len(part) <= top for part, top in zip(per, x))]
        if not span_equal(grid(flag.basis), units, cols):
            return False
    return True


# ---------------------------------------------------------------------------
# Invariants of a filtration (k = 1), read from its levels F_0 .. F_top


def _levels(f) -> list[list[list[Fraction]]]:
    return [grid(f.flags[(p,)].basis) for p in range(f.tops[0] + 1)]


def gr_dimensions(f) -> tuple[int, ...]:
    """dim F_p - dim F_{p-2}."""
    dims = [rank(level, f.dims[(p % 2,)]) for p, level in enumerate(_levels(f))]
    return tuple(d - (dims[p - 2] if p >= 2 else 0) for p, d in enumerate(dims))


def source_dimensions(f) -> tuple[int, ...]:
    """dim F_p minus that of the span of all generator images of F_{p-1}."""
    levels, out = _levels(f), []
    for p, level in enumerate(levels):
        cols = f.dims[(p % 2,)]
        images = [row for g in _gammas(f)[0] for row in
                  product(levels[p - 1] if p else [], g[((p - 1) % 2,)], cols)]
        out.append(rank(level, cols) - rank(images, cols))
    return tuple(out)


def endomorphisms(f) -> list[list[Fraction]]:
    """The reduced row-echelon basis of the pairs (X_0, X_1), flattened row
    by row, with X_c g = g X_{1-c} for every generator and F_p X <= F_p,
    which is b X y = 0 for the basis rows b of F_p and its null vectors y."""
    n = [f.dims[(0,)], f.dims[(1,)]]

    def at(c, a, b):  # the unknown X_c[a][b]
        return c * n[0] ** 2 + a * n[c] + b

    equations = []
    for g, c in cartesian(_gammas(f)[0], (0, 1)):
        for a, b in cartesian(range(n[c]), range(n[1 - c])):
            row = [ZERO] * (n[0] ** 2 + n[1] ** 2)
            for k in range(n[c]):
                row[at(c, a, k)] += g[(c,)][k][b]
            for k in range(n[1 - c]):
                row[at(1 - c, k, b)] -= g[(c,)][a][k]
            equations.append(row)
    for p, level in enumerate(_levels(f)):
        for y, v in cartesian(null_space(level, n[p % 2]), level):
            row = [ZERO] * (n[0] ** 2 + n[1] ** 2)
            for a, b in cartesian(range(n[p % 2]), repeat=2):
                row[at(p % 2, a, b)] += v[a] * y[b]
            equations.append(row)
    return null_space(equations, n[0] ** 2 + n[1] ** 2)


def flat(pair) -> list[Fraction]:
    """An even pair of matrices flattened row by row, even part first."""
    return [x for m in pair for row in m.entries for x in row]


def minimal_polynomial(pair) -> list[Fraction]:
    """The monic least-degree polynomial vanishing at the pair, ascending:
    the first power that is a combination of the lower ones gives it."""
    blocks = [grid(m) for m in pair]
    power, seen = [identity(len(b)) for b in blocks], []
    while True:
        seen.append([x for m in power for row in m for x in row])
        power = [product(p, b, len(b)) for p, b in zip(power, blocks)]
        coeffs = solve(seen, [x for m in power for row in m for x in row])
        if coeffs is not None:
            return [-c for c in coeffs] + [ONE]


def factors(coeffs) -> list[tuple[list[Fraction], int]]:
    """The irreducible factors over Q and their powers, as sympy gives them."""
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      sympy.Symbol("t"), domain="QQ")
    return [([Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())], int(power))
            for fac, power in poly.factor_list()[1]]


def primary_parts(pair) -> list[tuple] | None:
    """For each irreducible factor q^e of the pair's minimal polynomial, the
    kernels of q(P)^e on both parities, q(P) by Horner's rule; None for
    fewer than two factors."""
    parts, out = factors(minimal_polynomial(pair)), []
    for coeffs, power in parts if len(parts) > 1 else ():
        kernels = []
        for n, m in ((m.rows, grid(m)) for m in pair):
            value, power_of = [[ZERO] * n for _ in range(n)], identity(n)
            for c in reversed(coeffs):
                value = combination([(1, product(value, m, n)), (c, identity(n))], n, n)
            for _ in range(power):
                power_of = product(power_of, value, n)
            kernels.append(tuple(map(tuple, null_space(transpose(power_of, n), n))))
        out.append(tuple(kernels))
    return out or None


def resums(f, summands) -> bool:
    """Whether the summands' embeddings, stacked, are invertible on each
    parity, carry each summand's generators onto f's (E_c g = g' E_{1-c}),
    and carry its levels onto ones that span f's: with the sum direct, each
    summand's level is then its part's meet with f's level."""
    dims, gammas = [f.dims[(0,)], f.dims[(1,)]], _gammas(f)[0]
    embeds = [[grid(s.embed_even), grid(s.embed_odd)] for s in summands]
    if any(rank([row for e in embeds for row in e[c]], dims[c]) != dims[c] or
           sum(len(e[c]) for e in embeds) != dims[c] for c in (0, 1)):
        return False
    if any(_nonzero([(1, e[c], g[(c,)]), (-1, h[(c,)], e[1 - c])], len(e[c]), dims[1 - c])
           for s, e in zip(summands, embeds) for (g, h), c in
           cartesian(zip(gammas, _gammas(s.filtration)[0]), (0, 1))):
        return False
    return all(span_equal([row for s, e in zip(summands, embeds) for row in product(
        grid(s.filtration.flags[_fold((p,), s.filtration.tops)].basis), e[p % 2], dims[p % 2])],
        level, dims[p % 2]) for p, level in enumerate(_levels(f)))


def summand_reports(summands) -> tuple:
    """The sorted (gr dims, source dims) of each summand's filtration."""
    return tuple(sorted((gr_dimensions(s.filtration), source_dimensions(s.filtration))
                        for s in summands))


# ---------------------------------------------------------------------------
# Adinkra graphs of a filtration (k = 1)


def graph(f, basis_even=None, basis_odd=None):
    """(vertices, edges) on the basis rows, or the messages of the broken
    conditions: each basis spans its component; vertex k, basis row k, sits
    at the least level containing it; the vertices in a level span it; each
    generator sends a vertex to +- one of the other parity, the edge taken
    from the lower end."""
    dims, levels, top = [f.dims[(0,)], f.dims[(1,)]], _levels(f), f.tops[0]
    bases, broken = [], []
    for c, name, basis in ((0, "even", basis_even), (1, "odd", basis_odd)):
        bases.append(identity(dims[c]) if basis is None else grid(basis))
        if basis is not None and (basis.cols != dims[c] or rank(bases[c], dims[c]) != dims[c]
                                  or len(bases[c]) != dims[c]):
            broken.append(f"{name} basis does not span the {name} component")
    if broken:
        return broken
    spans = [rref(level, dims[p % 2]) for p, level in enumerate(levels)]
    vertices = [(c, next(p for p in range(c, top + 2, 2)
                         if in_span(spans[_fold((p,), (top,))[0]], [v])), tuple(v))
                for c in (0, 1) for v in bases[c]]
    for p, (_, pivots) in enumerate(spans):
        inside = sum(1 for c, h, _ in vertices if c == p % 2 and h <= p)
        if inside != len(pivots):
            broken.append(f"basis not filtration-homogeneous: level {p} has dimension "
                          f"{len(pivots)} but contains {inside} basis vectors")
    edges = []
    for (u, (c, h, v)), (i, g) in cartesian(enumerate(vertices), enumerate(_gammas(f)[0])):
        image = tuple(product([list(v)], g[(c,)], dims[1 - c])[0])
        hits = [(w, s) for w, (c2, _, x) in enumerate(vertices) for s in (1, -1)
                if c2 != c and tuple(s * y for y in x) == image]
        if not hits:
            broken.append(f"basis not adapted: generator {i} image of vertex {u} "
                          "is not a signed basis vector")
        elif h < vertices[hits[0][0]][1]:
            edges.append((u, hits[0][0], i, hits[0][1]))
    return broken or (tuple(vertices), tuple(sorted(edges)))


def graph_key(g) -> tuple:
    """A package graph in the shape `graph` gives."""
    return (tuple((v.parity, v.height, v.vector) for v in g.vertices),
            tuple((e.source, e.target, e.generator, e.sign) for e in g.edges))


def distances(vertex_count: int, edges, source: int) -> dict[int, int]:
    """The length of a shortest path from source to each vertex it reaches."""
    out, queue = {source: 0}, deque([source])
    while queue:
        u = queue.popleft()
        for w in [b for a, b in edges if a == u] + [a for a, b in edges if b == u]:
            if w not in out:
                out[w] = out[u] + 1
                queue.append(w)
    return out


def height_functions(g) -> set[tuple[int, ...]]:
    """Every height function: heights of each vertex's parity, differing by
    one across every edge, least 0 or 1 on each connected component, found
    in breadth-first order, each vertex one step from an assigned one."""
    parities, pairs = [v.parity for v in g.vertices], [(e.source, e.target) for e in g.edges]
    roots = sorted({min(distances(len(parities), pairs, v)) for v in range(len(parities))})
    per_component = []
    for root in roots:
        near = distances(len(parities), pairs, root)
        order = sorted(near, key=near.get)
        found, stack = [], [{}]
        while stack:
            assigned = stack.pop()
            if len(assigned) == len(order):
                low = min(assigned.values())
                low -= (low - parities[root] - assigned[root]) % 2
                found.append({v: h - low for v, h in assigned.items()})
                continue
            v = order[len(assigned)]
            around = [w for a, b in pairs for u, w in ((a, b), (b, a)) if u == v and w in assigned]
            for h in {assigned[w] + s for w in around for s in (1, -1)} or {0}:
                if all(abs(h - assigned[w]) == 1 for w in around):
                    stack.append({**assigned, v: h})
        per_component.append(found)
    out = set()
    for combo in cartesian(*per_component):
        heights = {v: h for part in combo for v, h in part.items()}
        if all(heights[v] % 2 == c for v, c in enumerate(parities)):
            out.add(tuple(heights[v] for v in range(len(parities))))
    return out


# ---------------------------------------------------------------------------
# Inputs that several test files share


def invertible(n: int, rng, top: int = 3, den: int = 4) -> tuple[Matrix, Matrix]:
    """A seeded invertible n x n matrix, entries rng.randint(-top, top) /
    rng.randint(1, den) drawn row by row until one is, and its inverse."""
    while True:
        m = [[Fraction(rng.randint(-top, top), rng.randint(1, den)) for _ in range(n)]
             for _ in range(n)]
        reduced, pivots = rref([row + unit for row, unit in zip(m, identity(n))], 2 * n)
        if pivots == tuple(range(n)):
            return Matrix(n, n, m), Matrix(n, n, [row[n:] for row in reduced])


def rebased(f, rng) -> SuperFiltration:
    """f carried by seeded changes of basis P, Q of its parts, drawn by
    `invertible`: gammas P^-1 g Q and Q^-1 g P, flags F P and F Q."""
    n, m = [f.dims[(0,)], f.dims[(1,)]], f.module
    (p, p_inv), (q, q_inv) = ([grid(x) for x in invertible(k, rng)] for k in n)

    def carried(g, left, right, cols):
        return Matrix(g.rows, cols, product(product(left, grid(g), g.cols), right, cols))

    def level(flag, by, k):
        rows, pivots = rref(product(grid(flag.basis), by, k), k)
        return Subspace(k, Matrix.from_rows(rows, cols=k), pivots)

    module = CliffordSupermodule(m.algebra, [carried(g, p_inv, q, n[1]) for g in m.gamma_eo],
                                 [carried(g, q_inv, p, n[0]) for g in m.gamma_oe], *n)
    return SuperFiltration(module, [level(x, p, n[0]) for x in f.even_flags],
                           [level(x, q, n[1]) for x in f.odd_flags])


def mixed(m, a) -> CliffordSupermodule:
    """m, whose Gram matrix is the identity, on the generators
    g'_i = sum_j a[i][j] g_j, so over the Gram matrix A A^T."""
    n, a = m.algebra.n, [[Fraction(x) for x in row] for row in a]

    def mix(gammas, i):
        rows, cols = gammas[0].rows, gammas[0].cols
        return Matrix(rows, cols, combination([(c, grid(g)) for c, g in zip(a[i], gammas)],
                                              rows, cols))

    return CliffordSupermodule(CliffordAlgebra(n, Matrix(n, n, product(a, transpose(a, n), n))),
                               [mix(m.gamma_eo, i) for i in range(n)],
                               [mix(m.gamma_oe, i) for i in range(n)])


def bumped(m: Matrix, r: int, c: int, by) -> Matrix:
    """m with `by` added to its entry (r, c)."""
    rows = grid(m)
    rows[r][c] += by
    return Matrix(m.rows, m.cols, rows)
