"""Filtered supermodules over Clifford algebras.

A supermodule is a pair of rational coordinate spaces (even and odd)
with, for each generator, a parity-swapping pair of matrices acting on
row vectors.  A super filtration is a parity-separated flag

    F_0 <= F_2 <= F_4 <= ...   (inside the even part)
    F_1 <= F_3 <= F_5 <= ...   (inside the odd part)

that is exhaustive at the top two levels and satisfies
g_i . F_p <= F_{p+1}.  Levels below zero are zero and the flag lists
are indexed by p // 2.

`FilteredModule` is the one filtered-module type, over k filtration
directions, and its constructor the one validation of dims and gammas:
a `CliffordSupermodule` is its k = 1 case with both flags full (F_0 the
even part, F_1 the odd part), `SuperFiltration` its k = 1 case with any
flags, and `bifiltration.BifilteredSupermodule` its k = 2 case.  Its
maps and flags are read-only, so `check_supermodule` checks a module
directly and keeps its verdict on the module, and `check_filtration`
keeps its verdict on the filtration.  The Clifford relations are decided
from the components of even total parity and one generator's square on
the others, which imply the rest (`_module_relations` has the proof).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from types import MappingProxyType
from typing import Callable, NamedTuple

from .certificate import Certificate, failing, passing, require
from .clifford import CliffordAlgebra
from .exactalg import Matrix, Subspace, _block_matrix, _injective, _null_space, _vanishes, kron


# ---------------------------------------------------------------------------
# Filtered modules over k directions (k = 1 here, k = 2 in `bifiltration`).
# A grid point has one coordinate per direction; a parity component is a
# tuple of 0s and 1s.


def _step(x, d: int, by: int):
    return x[:d] + (x[d] + by,) + x[d + 1:]


def _fold(x, tops):
    """The grid point whose data a point above the grid repeats."""
    return tuple(c if c <= t else t - (c - t) % 2 for c, t in zip(x, tops))


def _corner(parity, tops):
    """The top grid point of a parity, where the flags are full."""
    return tuple(t if t % 2 == a else t - 1 for a, t in zip(parity, tops))


def _parity(x):
    return tuple(c % 2 for c in x)


def _points(tops):
    """Grid points in lexicographic order, the first direction slowest."""
    return product(*(range(t + 1) for t in tops))


def _nest(values: dict, tops, prefix=()):
    """Values at the grid points as tuples nested one level per direction."""
    if len(prefix) == len(tops):
        return values[prefix]
    return tuple(_nest(values, tops, prefix + (c,)) for c in range(tops[len(prefix)] + 1))


# The largest dimension a module or graded rep may declare for a component
# when none of its Clifford families has a generator: no gamma matrix then
# backs the number, so it is refused before an identity or a full flag of
# that size is built.  Every module the package builds is far below it.
MAX_FREE_DIM = 4096
# The graded commutant of such a module has dim_even^2 + dim_odd^2 pairs,
# over which End(f) is solved; above this many, none is built.
MAX_FREE_COMMUTANT = 1024


def _require_backed(algebras, dims) -> None:
    """ValueError for a dimension above MAX_FREE_DIM that no generator backs."""
    top = max(dims, default=0)
    if top > MAX_FREE_DIM and not any(a.n for a in algebras):
        raise ValueError(f"dimension {top} exceeds {MAX_FREE_DIM}, the limit when no "
                         "generator acts")


def _check_maps(maps: dict, grid: dict, targets: dict, what: str) -> None:
    """Maps sit exactly at the points of `targets`, each of the right shape."""
    if maps.keys() != targets.keys():
        raise ValueError(f"{what} maps are not keyed by the expected grid points")
    for x, cols in targets.items():
        if (maps[x].rows, maps[x].cols) != (grid[x], cols):
            raise ValueError(f"{what} map at {x} has the wrong shape")


class _CheckWords(NamedTuple):
    """Certificate names of the relations and flag steps for one k, and
    functions building their witnesses."""

    relations: str
    flags: str
    relation: Callable  # (d, e, i, j, component), families d <= e
    nesting: Callable  # (d, point)
    exhaustive: Callable  # (component, corner)
    compatibility: Callable  # (d, i, point)


class FilteredModule:
    """A filtered module over k directions.

    One Clifford family per direction acts on the 2^k parity components:
    dims and each gammas[d][i] are keyed by component, gammas[d][i]
    mapping c to c with its d-th parity flipped.  flags holds F_x, inside
    the component of x's parity, at every point x of the grid
    0..top_1 x ... x 0..top_k, which covers 0..1 in each direction; past
    the top of a direction the grid repeats with period two.  All three
    are read-only mappings, so a check's verdict and the deformation can
    be kept on the module.  Flags of None are the full flags, F_c the whole
    component c at each point c of 0..1, built once dims and gammas have
    passed their checks.  Subclasses fix k, translate their constructor
    arguments and attributes, and name their `_words`.
    """

    _words: _CheckWords

    def __init__(self, algebras, dims, gammas, flags=None):
        algebras = tuple(algebras)
        dims = MappingProxyType({c: int(dims[c]) for c in product((0, 1), repeat=len(algebras))})
        if min(dims.values()) < 0:
            raise ValueError("dimensions must be nonnegative")
        _require_backed(algebras, dims.values())
        gammas = tuple(tuple(MappingProxyType(dict(g)) for g in family) for family in gammas)
        for d, (algebra, family) in enumerate(zip(algebras, gammas)):
            if len(family) != algebra.n:
                raise ValueError("need one gamma family per generator")
            targets = {c: dims[_parity(_step(c, d, 1))] for c in dims}
            for gamma in family:
                _check_maps(gamma, dims, targets, "gamma")
        if flags is None:
            flags = {c: Subspace.full(n) for c, n in dims.items()}
        self._place(algebras, dims, gammas, flags)

    def _place(self, algebras, dims, gammas, flags):
        """Check the flags against dims, then set the attributes, for dims
        and gammas that have passed `__init__`'s checks."""
        flags = MappingProxyType(dict(flags))
        tops = tuple(max((x[d] for x in flags), default=0) for d in range(len(algebras)))
        if min(tops) < 1 or flags.keys() != set(_points(tops)):
            raise ValueError("the flag grid must be rectangular and cover 0..1 in each direction")
        for x, flag in flags.items():
            if flag.ambient != dims[_parity(x)]:
                raise ValueError(f"flag {x} lives in the wrong component")
        self.algebras, self.tops, self.dims = algebras, tops, dims
        self.gammas, self.flags = gammas, flags
        self._verdict: Certificate | None = None
        self._deformed = None  # the graded rep, kept by deformation._deform
        self._iso = None  # the roundtrip maps and certificate, kept by deformation._roundtrip
        self._regular = None  # k = 2: the regular_module verdict, kept by check_twisted_tensor
        self._sources = None  # k = 1: the source dimensions, kept by invariants.source_dimensions

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, a) == getattr(other, a) for a in ("algebras", "dims", "gammas", "flags"))

    def __hash__(self):
        return hash((self.algebras, tuple(self.flags.values())))


def _twice_gram(algebra: CliffordAlgebra) -> list[list]:
    """2 G[i][j] for each pair of generators, read from the Gram matrix's
    integer form: an int 0 where G vanishes, a Fraction elsewhere."""
    d, rows = algebra.gram._ints()
    table = [[0] * algebra.n for _ in range(algebra.n)]
    for i, row in enumerate(rows):
        for j, c in row:
            table[i][j] = Fraction(2 * c, d)
    return table


def _module_relations(v: FilteredModule) -> Certificate:
    """Component by component: each family's Clifford relations
    {g_i, g_j} = 2 G[i][j], then {g_i, g'_j} = 0 across families.  Each
    relation is one `_vanishes` call, so no product of two generators is
    built; g_i g_i counts twice as one term.

    The scan runs only when a generating set of the relations fails: every
    relation on the components whose total parity sum(c) is even, and
    {g, g} = 2 G[g][g] on the odd ones, g the first generator of the first
    family that has one.  A module that passes costs about half the scan
    (n(n + 1)/2 + 1 calls for n generators at k = 1, not n(n + 1)), and
    one that fails gets the scan's first witness, as before.

    Proof that the generating set implies every relation.  Grade the module
    by total parity, M = M_0 + M_1, and take the generators of all the
    families together: their Gram matrix G is block diagonal, so the
    cross-family relations are its zero entries, and a relation holds on M
    iff it holds on every component.  Every generator swaps M_0 and M_1.
    (The relations read the same with every product reversed, so the proof
    holds for maps acting on either side.)  Let s = G[g][g], which is > 0
    since G is positive definite.  g^2 = s on M_0 and on M_1, so g is
    invertible and M_1 = g M_0.  Take w in M_0 and a generator y: y w lies
    in M_1, so g {g, y} w = s y w + g y g w = {g, y} g w, and the left side
    is 2 G[g][y] g w.  So g's relations hold on M_1 too.  For generators x
    and y, moving g to the left with them,
    x y g w = g x y w - 2 G[x][g] y w + 2 G[y][g] x w; adding the same with
    x and y swapped, {x, y} g w = g {x, y} w = 2 G[x][y] g w.
    """
    w, k = v._words, len(v.algebras)
    pairs = [(d, d) for d in range(k)] + list(combinations(range(k), 2))
    twice = [_twice_gram(algebra) for algebra in v.algebras]
    up = {c: [_parity(_step(c, d, 1)) for d in range(k)] for c in v.dims}

    def holds(c, d, e, i, j):
        g, h, to = v.gammas[d][i], v.gammas[e][j], up[c]
        if d != e:
            return _vanishes([(1, g[c], h[to[d]]), (1, h[c], g[to[e]])])
        terms = [(2, g[c], g[to[d]])] if i == j else [(1, g[c], h[to[d]]), (1, h[c], g[to[d]])]
        return _vanishes(terms, Matrix.identity(v.dims[c]), twice[d][i][j])

    def relations(c):
        for d, e in pairs:
            for i in range(len(v.gammas[d])):
                for j in range(i if d == e else 0, len(v.gammas[e])):
                    yield c, d, e, i, j

    first = next((d for d, family in enumerate(v.gammas) if family), None)
    if first is None:  # no generator, so no relation
        return passing(w.relations)
    even = [c for c in v.dims if sum(c) % 2 == 0]
    odd = [c for c in v.dims if sum(c) % 2]
    if not (all(holds(*r) for c in even for r in relations(c))
            and all(holds(c, first, first, 0, 0) for c in odd)):
        for c in v.dims:
            for r in relations(c):
                if not holds(*r):
                    return failing(w.relations, **w.relation(*r[1:], c))
    return passing(w.relations)


def _module_flags(v: FilteredModule) -> Certificate:
    """Flag nesting along each direction, component by component; full
    flags at the 2^k corners; then each family's compatibility with the
    flags, g F_x <= F_{x + e_d} folded back onto the grid: the rows of
    F_x's basis times g must lie in the target flag, which one `_vanishes`
    decides without an elimination of the image.

    A nesting or compatibility test into a full flag is skipped, with no
    product built for it.  `FilteredModule.__init__` has checked that each
    flag lives in the component of its point's parity and that each gamma
    maps that component to the component of the target's parity; a full
    flag is that whole component, so it contains the flag below it and
    every image.  A skipped test could only pass, so the first failure,
    and its witness, is the one every test would give."""
    w = v._words
    for x in sorted(v.flags, key=_parity):
        for d, top in enumerate(v.tops):
            if x[d] <= top - 2:
                outer = v.flags[_step(x, d, 2)]
                if not outer.is_full and not outer.contains_subspace(v.flags[x]):
                    return failing(w.flags, **w.nesting(d, x))
    for c in product((0, 1), repeat=len(v.tops)):
        corner = _corner(c, v.tops)
        if not v.flags[corner].is_full:
            return failing(w.flags, **w.exhaustive(c, corner))
    for x, flag in v.flags.items():
        for d, family in enumerate(v.gammas):
            target = v.flags[_fold(_step(x, d, 1), v.tops)]
            if target.is_full:
                continue
            for i, gamma in enumerate(family):
                if not target._contains_rows(flag.basis * gamma[_parity(x)]):
                    return failing(w.flags, **w.compatibility(d, i, x))
    return passing(w.flags)


def _checked(v: FilteredModule, relations: Callable) -> Certificate:
    """The verdict of relations(v), then of the flag steps, kept on v."""
    if v._verdict is None:
        cert = relations(v)
        v._verdict = _module_flags(v) if cert else cert
    return v._verdict


# The certificate words of the k = 1 checks, for a module and its filtrations.
_SUPER_WORDS = _CheckWords(
    "supermodule_relations", "filtration",
    relation=lambda d, e, i, j, c: {"i": i, "j": j, "parity": c[0]},
    nesting=lambda d, x: {"kind": "nesting", "parity": x[0] % 2, "level": x[0]},
    exhaustive=lambda c, x: {"kind": "exhaustive", "parity": c[0]},
    compatibility=lambda d, i, x: {"kind": "compatibility", "generator": i, "level": x[0]},
)


class CliffordSupermodule(FilteredModule):
    """Z/2-graded module over a Clifford algebra: the k = 1 filtered module
    with both flags full, F_0 the even part and F_1 the odd part.

    gamma_eo[i] maps the even part to the odd part (shape dim_even x
    dim_odd, acting on row vectors), gamma_oe[i] maps back: read-only
    views of `gammas`.  A dimension not given is read off the gammas; a
    given one that disagrees fails the gamma check, and one above
    `MAX_FREE_DIM` with no generator the dimension check, both before a
    flag that size is built.
    """

    _words = _SUPER_WORDS

    def __init__(self, algebra: CliffordAlgebra, gamma_eo: list[Matrix], gamma_oe: list[Matrix],
                 dim_even: int | None = None, dim_odd: int | None = None):
        if len(gamma_eo) != algebra.n or len(gamma_oe) != algebra.n:
            raise ValueError("need one matrix pair per generator")
        shape = (gamma_eo[0].rows, gamma_eo[0].cols) if gamma_eo else (dim_even, dim_odd)
        if None in shape:
            raise ValueError("dimensions required when the algebra has no generators")
        dims = {(0,): shape[0] if dim_even is None else dim_even,
                (1,): shape[1] if dim_odd is None else dim_odd}
        gammas = tuple({(0,): eo, (1,): oe} for eo, oe in zip(gamma_eo, gamma_oe))
        super().__init__((algebra,), dims, (gammas,))
        self._commutant: list[tuple[Matrix, Matrix]] | None = None
        self._indecomposable: bool | None = None  # kept by invariants.filtration_search

    algebra = property(lambda self: self.algebras[0])
    dim_even = property(lambda self: self.dims[(0,)])
    dim_odd = property(lambda self: self.dims[(1,)])
    gamma_eo = property(lambda self: tuple(g[(0,)] for g in self.gammas[0]))
    gamma_oe = property(lambda self: tuple(g[(1,)] for g in self.gammas[0]))

    def dim(self, parity: int) -> int:
        return self.dims[(parity % 2,)]

    def gamma(self, i: int, parity: int) -> Matrix:
        """Matrix of g_i on the given parity component."""
        return self.gammas[0][i][(parity % 2,)]

    def __hash__(self):  # the flags are the same for every module of these dims
        return hash((self.algebra, self.gamma_eo, self.gamma_oe))

    def __repr__(self):
        return f"CliffordSupermodule(n={self.algebra.n}, dims=({self.dim_even}|{self.dim_odd}))"

    def graded_commutant(self) -> list[tuple[Matrix, Matrix]]:
        """Basis of parity-preserving maps commuting with every g_i.

        Pairs (P, R) with P eo_i = eo_i R and R oe_i = oe_i P, where eo_i
        and oe_i are gamma_eo[i] and gamma_oe[i].  R is fixed by P
        through generator 0, R = oe_0 P eo_0 / G[0][0], and only P is
        solved for, from P A_i = A_i P with A_i = eo_i oe_0, i >= 1.

        The relations give eo_i oe_i = G[i][i] I on the even part and
        oe_i eo_i = G[i][i] I on the odd part, with G[i][i] > 0 as the form
        is definite.  So the conditions on P are equivalent to P A_i =
        A_i P for i >= 1:

        * for i = 0 both hold by the choice of R, as eo_0 oe_0 =
          G[0][0] I: eo_0 R = eo_0 oe_0 P eo_0 / G[0][0] = P eo_0, and
          R oe_0 = oe_0 P eo_0 oe_0 / G[0][0] = oe_0 P;
        * right-multiplying P eo_i = eo_i R by oe_0 gives P A_i =
          eo_i oe_0 P eo_0 oe_0 / G[0][0] = A_i P; conversely,
          right-multiplying P A_i = A_i P by eo_0 / G[0][0] gives
          P eo_i = eo_i oe_0 P eo_0 / G[0][0] = eo_i R;
        * P eo_i = eo_i R implies R oe_i = oe_i P, as R = oe_i P eo_i /
          G[i][i] from the first, so R oe_i = oe_i P eo_i oe_i / G[i][i]
          = oe_i P.

        The relations are therefore its precondition: raises CheckFailed
        unless check_supermodule passes (a verdict already kept on the
        module is read as it is).  Cached.  With no generator, raises
        ValueError above `MAX_FREE_COMMUTANT` pairs.

        When A_i is a signed permutation, A[m][pi(m)] = a_m, as it is
        whenever the gammas are (every built-in module), entry (r, pi(m))
        of P A_i - A_i P is P[r][m] a_m - a_r P[pi(r)][pi(m)]: each
        equation has at most two terms, is written down as they are, and
        is solved with no elimination (`exactalg._two_term_null_space`).
        Any other A_i gives one equation per entry, the rows of
        kron(I, A_i^T) - kron(A_i, I).
        """
        if self._commutant is None:
            require("module", check_supermodule(self))
            self._commutant = self._solve_commutant()
        return self._commutant

    def _solve_commutant(self) -> list[tuple[Matrix, Matrix]]:
        n0, n1 = self.dim_even, self.dim_odd
        if self.algebra.n == 0:
            pairs = n0 * n0 + n1 * n1
            if pairs > MAX_FREE_COMMUTANT:
                raise ValueError(f"graded commutant of dimension {pairs} exceeds "
                                 f"{MAX_FREE_COMMUTANT}, the limit when no generator acts")
            # No generator couples the parities: every pair of square blocks
            # commutes.  With one, a zero part needs no case: with one part
            # zero, g_0 g_0 = G_00 I fails on the other, so check_supermodule
            # fails first; with both, the equations below have no unknown.
            def unit(n, r, c):
                return Matrix._from_ints(n, 1, [((c, 1),) if i == r else () for i in range(n)])

            return ([(unit(n0, r, c), Matrix.zeros(n1, n1)) for r in range(n0) for c in range(n0)]
                    + [(Matrix.zeros(n0, n0), unit(n1, r, c)) for r in range(n1) for c in range(n1)])

        dg, grows = self.algebra.gram._ints()
        inv_g00 = Fraction(dg, dict(grows[0])[0])  # nonzero: the Gram matrix is definite
        eo0, oe0 = self.gamma_eo[0], self.gamma_oe[0]

        # the unknown P[k][l] is numbered k * n0 + l; an equation is a row
        # of (unknown, int) pairs, scaled by A_i's denominator
        equations = []
        for eoi in self.gamma_eo[1:]:
            rows = (eoi * oe0)._ints()[1]
            if all(rows) and _injective(rows):  # a signed permutation
                equations += _monomial_equations(rows)
            else:
                equations += _general_equations(rows)
        basis = _null_space(Matrix._from_ints(n0 * n0, 1, equations))

        # kernel row u = k * n0 + l is P[k][l], in the kernel's integer form
        d, rows = basis._ints()
        pairs = []
        for row in rows:
            blocks = [[] for _ in range(n0)]
            for u, x in row:
                blocks[u // n0].append((u % n0, x))
            p = Matrix._from_ints(n0, d, blocks)
            pairs.append((p, (oe0 * p * eo0).scale(inv_g00)))
        return pairs


def _monomial_equations(rows) -> list[list[tuple[int, int]]]:
    """The equations P A = A P for a signed permutation A = rows / d with
    row m the single pair (pi(m), a_m), times d: P[r][m] a_m - a_r
    P[pi(r)][pi(m)] = 0 for each (r, m), one term when the two unknowns
    coincide and none when that term cancels."""
    n = len(rows)
    perm = [row[0] for row in rows]
    equations = []
    for r, (pr, ar) in enumerate(perm):
        for m, (pm, am) in enumerate(perm):
            u, v = r * n + m, pr * n + pm
            if u != v:
                equations.append([(u, am), (v, -ar)])
            elif am != ar:
                equations.append([(u, am - ar)])
    return equations


def _general_equations(rows) -> tuple:
    """The equations P A = A P for any square A = rows / d, times d: with P
    read row by row (P[r][k] is unknown r * n + k), P A is kron(I, A^T)
    and A P is kron(A, I) applied to P, so the equation of entry (r, c) is
    row r * n + c of their difference."""
    a = Matrix._from_ints(len(rows), 1, rows)
    i = Matrix.identity(len(rows))
    return (kron(i, a.transpose()) - kron(a, i))._ints()[1]


class SuperFiltration(FilteredModule):
    """Parity-separated increasing flags on a supermodule: the k = 1 case.

    even_flags[k] is F_{2k} inside the even part, odd_flags[k] is
    F_{2k+1} inside the odd part.  Both lists are nonempty; levels past
    the stored top repeat the final flag and negative levels are zero.

    Only the flags are checked here.  The dims and gammas are the
    module's own: the module's constructor, `FilteredModule.__init__`,
    has checked them for one algebra, with the same targets, and they
    are read-only mappings of immutable matrices, so they still pass and
    checking them again could not fail.  A gamma of the wrong shape is
    rejected when the module is built.
    """

    _words = _SUPER_WORDS

    def __init__(self, module, even_flags, odd_flags):
        levels = (tuple(even_flags), tuple(odd_flags))
        if not all(levels):
            raise ValueError("need at least one flag per parity")
        top = max(2 * len(levels[0]) - 2, 2 * len(levels[1]) - 1)
        flags = {(p,): levels[p % 2][min(p // 2, len(levels[p % 2]) - 1)] for p in range(top + 1)}
        if not isinstance(module, CliffordSupermodule):
            raise TypeError(f"expected a CliffordSupermodule, got {type(module).__name__}")
        self._place(module.algebras, module.dims, module.gammas, flags)
        self.module = module

    @cached_property
    def module(self) -> CliffordSupermodule:
        """The module, built from the gamma maps when only those were given."""
        eo, oe = ([g[c] for g in self.gammas[0]] for c in self.dims)
        return CliffordSupermodule(self.algebras[0], eo, oe, *self.dims.values())

    top_degree = property(lambda self: self.tops[0])
    even_flags = property(lambda self: tuple(self.flags.values())[0::2])
    odd_flags = property(lambda self: tuple(self.flags.values())[1::2])

    def level(self, p: int) -> Subspace:
        if p < 0:
            return Subspace.zero(self.dims[(p % 2,)])
        return self.flags[_fold((p,), self.tops)]

    def level_dims(self) -> list[int]:
        return [self.level(p).dim for p in range(self.top_degree + 1)]

    def __repr__(self):
        dims = ", ".join(str(d) for d in self.level_dims())
        return f"SuperFiltration(level dims {dims})"


def check_supermodule(m: CliffordSupermodule) -> Certificate:
    """Verify the Clifford relations on both parity components of the
    module itself.  The verdict is kept in the module's `_verdict`, where
    `_checked` keeps a filtration's relations and flag verdict: a module's
    flags are both full, so its flag steps cannot fail (no level lies two
    below the top, the corners are full, and every gamma maps into a full
    flag), and its relations verdict is its whole verdict."""
    if m._verdict is None:
        m._verdict = _module_relations(m)
    return m._verdict


def check_filtration(f: SuperFiltration) -> Certificate:
    """The module's Clifford relations (check_supermodule's verdict), then
    nesting, exhaustiveness at the top, and gamma compatibility.  The
    verdict is kept on the filtration."""
    return _checked(f, lambda f: check_supermodule(f.module))


def trivial_filtration(m: CliffordSupermodule) -> SuperFiltration:
    """Everything already present at levels 0 and 1."""
    return SuperFiltration(m, [m.flags[(0,)]], [m.flags[(1,)]])


# ---------------------------------------------------------------------------
# Exterior module with wedge-plus-contraction action


def _graded_subsets(n: int, parity: int) -> list[tuple[int, ...]]:
    out = []
    for size in range(parity, n + 1, 2):
        out.extend(combinations(range(n), size))
    return out


def exterior_module(n: int) -> CliffordSupermodule:
    """Lambda^*(R^n) with g_i acting as (e_i wedge .) + (e_i contraction).

    Basis vectors are the subsets of {0..n-1} split by size parity and
    ordered by size then lexicographically; both operations move e_i
    past the smaller indices, so g_i e_S = (-1)^{#{j in S, j < i}} e_{S xor {i}}.
    Each g_i is a signed permutation, so its matrices are built in
    integer form, one (column, +-1) pair per row.
    """
    algebra = CliffordAlgebra(n)
    subsets = (_graded_subsets(n, 0), _graded_subsets(n, 1))
    index = [{s: k for k, s in enumerate(part)} for part in subsets]
    gammas = ([], [])
    for i in range(n):
        for c, part in enumerate(subsets):
            rows = []
            for s in part:
                t = tuple(j for j in s if j != i) if i in s else tuple(sorted(s + (i,)))
                rows.append(((index[1 - c][t], -1 if sum(j < i for j in s) % 2 else 1),))
            gammas[c].append(Matrix._from_ints(len(subsets[1 - c]), 1, rows))
    return CliffordSupermodule(
        algebra, *gammas, dim_even=len(subsets[0]), dim_odd=len(subsets[1])
    )


def _require_exterior_shape(m: CliffordSupermodule) -> tuple[list, list]:
    n = m.algebra.n
    even = _graded_subsets(n, 0)
    odd = _graded_subsets(n, 1)
    if m.dim_even != len(even) or m.dim_odd != len(odd):
        raise ValueError("module does not have the exterior-module shape")
    return even, odd


def degree_filtration(m: CliffordSupermodule) -> SuperFiltration:
    """Filtration of an exterior module by form degree."""
    even, odd = _require_exterior_shape(m)
    n = m.algebra.n

    def flags(subsets, parity):
        out = []
        tops = range(parity, n + 1, 2) if n >= parity else [parity]
        for p in tops:
            out.append(Subspace._units(len(subsets), [k for k, s in enumerate(subsets)
                                                      if len(s) <= p]))
        return out or [Subspace.zero(len(subsets))]

    return SuperFiltration(m, flags(even, 0), flags(odd, 1))


def _hodge_sign(subset: tuple[int, ...], n: int) -> int:
    complement = tuple(j for j in range(n) if j not in subset)
    seq = subset + complement
    inversions = sum(
        1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1


def hodge_filtration(m: CliffordSupermodule) -> SuperFiltration:
    """Self-dual refinement of the degree filtration on Lambda^*(R^4).

    Uses the Hodge star for the Euclidean metric and the standard
    orientation.  Flags: span{1 + vol} <= span{1 + vol} + Lambda^2 <= all
    on the even side, and {a + *a : a in Lambda^1} <= all on the odd side.
    """
    if m.algebra.n != 4:
        raise ValueError("the Hodge filtration is defined for exterior_module(4)")
    even, odd = _require_exterior_shape(m)

    def self_dual(subsets, s):
        """The row of e_s + *e_s over the basis `subsets`."""
        row = [0] * len(subsets)
        row[subsets.index(s)] = 1
        row[subsets.index(tuple(j for j in range(4) if j not in s))] = _hodge_sign(s, 4)
        return row

    plus0 = self_dual(even, ())
    two_forms = [[int(t == s) for t in even] for s in combinations(range(4), 2)]
    even_flags = [Subspace.span(len(even), [plus0]),
                  Subspace.span(len(even), [plus0] + two_forms), Subspace.full(len(even))]
    odd_flags = [Subspace.span(len(odd), [self_dual(odd, (i,)) for i in range(4)]),
                 Subspace.full(len(odd))]
    return SuperFiltration(m, even_flags, odd_flags)


# ---------------------------------------------------------------------------
# Irreducible graded modules via anticommuting complex structures

_E = Matrix(2, 2, [[0, 1], [-1, 0]])
_S = Matrix(2, 2, [[1, 0], [0, -1]])
_T = Matrix(2, 2, [[0, 1], [1, 0]])
_I2 = Matrix.identity(2)


def _complex_structures(count: int) -> list[Matrix]:
    """`count` pairwise anticommuting matrices squaring to -1, minimal size."""
    if count == 0:
        return []
    if count == 1:
        return [_E]
    if count == 2:
        return [kron(_E, _I2), kron(_S, _E)]
    if count == 3:
        return [kron(_E, _I2), kron(_S, _E), kron(_T, _E)]
    if count == 4:
        return [
            kron(_E, kron(_I2, _I2)),
            kron(_S, kron(_E, _I2)),
            kron(_S, kron(_S, _E)),
            kron(_S, kron(_T, _E)),
        ]
    raise ValueError("complex-structure table covers at most four")


def irreducible_module(n: int) -> CliffordSupermodule:
    """The irreducible graded module for 1 <= n <= 5 generators.

    Built by doubling: with J_1..J_{n-1} anticommuting complex
    structures on the odd part, generator k < n-1 acts by (J_k, -J_k)
    and the last generator swaps the parities identically.
    """
    if not 1 <= n <= 5:
        raise ValueError("irreducible modules are tabulated for 1 <= n <= 5")
    structures = _complex_structures(n - 1)
    size = structures[0].rows if structures else 1
    gamma_eo = [j for j in structures] + [Matrix.identity(size)]
    gamma_oe = [-j for j in structures] + [Matrix.identity(size)]
    return CliffordSupermodule(CliffordAlgebra(n), gamma_eo, gamma_oe)


def irreducible_cl5() -> CliffordSupermodule:
    """The unique irreducible graded module on five generators, dims (8|8)."""
    return irreducible_module(5)


# ---------------------------------------------------------------------------
# Direct sums (block-diagonal action, levelwise flags)


def direct_sum(a: CliffordSupermodule, b: CliffordSupermodule) -> CliffordSupermodule:
    if a.algebra != b.algebra:
        raise ValueError("summands must share the algebra")

    def block(x: Matrix, y: Matrix) -> Matrix:
        return _block_matrix([x.rows, y.rows], [x.cols, y.cols], {(0, 0): x, (1, 1): y})

    return CliffordSupermodule(
        a.algebra,
        [block(x, y) for x, y in zip(a.gamma_eo, b.gamma_eo)],
        [block(x, y) for x, y in zip(a.gamma_oe, b.gamma_oe)],
        dim_even=a.dim_even + b.dim_even,
        dim_odd=a.dim_odd + b.dim_odd,
    )


def direct_sum_filtration(fa: SuperFiltration, fb: SuperFiltration) -> SuperFiltration:
    """Levelwise direct sum of two filtrations on the direct sum module.

    No level needs an elimination.  With A and B the reduced row-echelon
    bases of fa's and fb's level and w the columns of A, the block
    diagonal of A and B is one, with A's pivots and then B's shifted by
    w: a row of A is zero from column w on and a row of B before it, so
    each row keeps its leading 1 and is zero at every other pivot, and
    the pivots increase.
    """
    module = direct_sum(fa.module, fb.module)
    levels = []
    for p in range(max(fa.top_degree, fb.top_degree) + 1):
        a, b = fa.level(p), fb.level(p)
        levels.append(Subspace(
            a.ambient + b.ambient,
            _block_matrix([a.dim, b.dim], [a.ambient, b.ambient],
                          {(0, 0): a.basis, (1, 1): b.basis}),
            a.pivots + tuple(a.ambient + q for q in b.pivots)))
    return SuperFiltration(module, levels[0::2], levels[1::2])
