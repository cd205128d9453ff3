"""Deformation of filtered supermodules into graded off-shell data.

The correspondence is written once, over k filtration directions,
between the two types that span every k: `supermodule.FilteredModule`
and `GradedRep`.  In a `FilteredModule` one Clifford family per
direction acts on 2^k parity components, family d flipping the d-th
parity and mapping the flag F_x at each point x of the grid
0..top_1 x ... x 0..top_k into F_{x + e_d}.  `_deform` makes a
`GradedRep` of it: components V_x = F_x in canonical bases, per
direction a shift S_d of degree 2 e_d (the flag inclusions) and odd Q
of degree e_d (the gamma action), with S_d injective,
[S_d, S_e] = [S_d, Q] = 0, {Q_i, Q_j} = 2 G[i][j] S_d within family d
and {Q, Q'} = 0 across families.  Above the stored grid the data repeats
with period two, each shift acting there as the identity.  `_quotient`
evaluates the shifts at positive shell values, collapsing onto the 2^k
corners of the grid, and `_roundtrip` certifies that the quotient at
shell 1 of a deformation is the filtered module it came from.

`_deform` takes from the module's check the flag nesting and the gamma
compatibility, which make every shift and Q map a matrix of
coordinates; it reads those coordinates off the target flags' pivot
columns without testing the containments again, and refuses a module
that does not hold a passing verdict.

`_verify` decides the relations from a generating set: injectivity,
shift commutation, the cross-direction [S_e, Q] and the diagonal
{Q_i, Q_i} at every grid point, the other anticommutators and the mixed
brackets only at the 2^k top points.  Injective shifts carry a relation
proved at the top down to every level (proof in `_relations`); a rep
that fails is scanned again in full, so its witness is the first
failure of the full scan.  The roundtrip's maps are identities, since
the corner flags are full, so `_roundtrip` certifies it by equality of
dimensions, gamma matrices and flags.

k = 1, with the shift the Hamiltonian H, is the correspondence between
filtered Cl(N)-supermodules and graded off-shell representations of
p^{1|N}: `deform`, `verify_offshell`, `quotient_at` (which also takes
shell 0, the graded quotient by the image of H) and
`canonical_roundtrip_iso`, from `SuperFiltration` to `OffShellRep`.
`enveloping_quotient_check` runs them on Cl(n) acting on itself, the
algebra case.  `bifiltration` holds the k = 2 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import le
from types import MappingProxyType
from typing import NamedTuple

from .certificate import Certificate, failing, passing, require
from .clifford import MAX_GENERATORS, CliffordAlgebra
from .exactalg import Matrix, Subspace, _vanishes, rational
from .supermodule import (
    CliffordSupermodule,
    FilteredModule,
    SuperFiltration,
    _check_maps,
    _corner,
    _fold,
    _nest,
    _parity,
    _points,
    _require_backed,
    _step,
    _twice_gram,
    check_filtration,
    degree_filtration,
    exterior_module,
)

# ---------------------------------------------------------------------------
# The engine, on the grid of `supermodule`'s filtered modules.


def _grid(dims, k: int) -> tuple:
    """dims nested k deep, normalized to tuples of ints, and as {point: dim}."""
    if k == 0:
        if int(dims) < 0:
            raise ValueError("dimensions must be nonnegative")
        return int(dims), {(): int(dims)}
    rows = [_grid(row, k - 1) for row in dims]
    if len(rows) < 2 or any(row[1].keys() != rows[0][1].keys() for row in rows):
        raise ValueError("the grid must be rectangular and cover 0..1 in each direction")
    flat = {(c,) + x: d for c, row in enumerate(rows) for x, d in row[1].items()}
    return tuple(row[0] for row in rows), flat


class _Words(NamedTuple):
    """Certificate vocabulary for one k.  Tuples run over directions (one Q
    family each); shift_q is indexed [family][shift direction]."""

    relations: str
    point: tuple  # witness keys of a grid point
    generator: tuple  # witness key naming a generator, per family
    injective: tuple
    anticommutator: tuple
    shift_q: tuple
    roundtrip: str
    component: str  # witness key of a parity component
    intertwine: tuple  # (kind, generator key) per family

    def at(self, c) -> dict:
        """The witness naming parity component c; a single parity by its number."""
        return {self.component: c if len(c) > 1 else c[0]}


class GradedRep:
    """Graded components on a grid of k directions, shifts and Q families.

    `dims` nests one level per direction.  shifts[d] holds, at each grid
    point x with x_d <= top_d - 2, the shift from x to x + 2 e_d; qs[d][i]
    holds, at every grid point x, generator i of family d as a map from x
    to x + e_d folded back onto the grid.  Both are read-only mappings, so
    the verdict of `_verify` and the quotient's flags can be kept on the
    rep.  Subclasses fix k, translate their constructor arguments and
    attributes, and name their `_words`.
    """

    _words: _Words

    def __init__(self, algebras, dims, shifts, qs):
        algebras = tuple(algebras)
        k = len(algebras)
        dims, grid = _grid(dims, k)
        _require_backed(algebras, grid.values())
        tops = tuple(max(x[d] for x in grid) for d in range(k))
        shifts = tuple(MappingProxyType(dict(s)) for s in shifts)
        qs = tuple(tuple(MappingProxyType(dict(q)) for q in family) for family in qs)
        for d, (algebra, family) in enumerate(zip(algebras, qs)):
            if len(family) != algebra.n:
                raise ValueError("need one Q family per generator")
            _check_maps(shifts[d], grid, {x: grid[_step(x, d, 2)]
                                          for x in grid if x[d] <= tops[d] - 2}, "shift")
            targets = {x: grid[_fold(_step(x, d, 1), tops)] for x in grid}
            for q in family:
                _check_maps(q, grid, targets, "Q")
        self.algebras, self.dims, self.tops, self.shifts, self.qs = algebras, dims, tops, shifts, qs
        self._grid = grid
        self._verdict: Certificate | None = None
        self._flags = None  # the quotient's flags, kept by _quotient

    def component_dim(self, x) -> int:
        return 0 if min(x) < 0 else self._grid[_fold(x, self.tops)]

    def shift(self, d: int, x) -> Matrix:
        """S_d from x to x + 2 e_d; the identity above the top two rows."""
        if min(x) < 0:
            return Matrix.zeros(0, self.component_dim(_step(x, d, 2)))
        x = _fold(x, self.tops)
        if x[d] >= self.tops[d] - 1:
            return Matrix.identity(self._grid[x])
        return self.shifts[d][x]

    def q(self, d: int, i: int, x) -> Matrix:
        """Generator i of family d from x to x + e_d, two-periodic above the grid."""
        if min(x) < 0:
            return Matrix.zeros(0, self.component_dim(_step(x, d, 1)))
        return self.qs[d][i][_fold(x, self.tops)]

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, a) == getattr(other, a) for a in ("algebras", "dims", "shifts", "qs"))


def _deform(v: FilteredModule, cls):
    """The graded representation of a checked filtered module, as a `cls`.
    It is kept on the module: both are read-only, so it cannot go stale.

    Every map is read off pivot columns; nothing is eliminated or tested.
    A row v in the span of a reduced echelon basis with pivot columns P
    is v[P] times that basis, so its coordinates are its entries at P.
    The module's passing verdict has proved that F_x <= F_{x + 2 e_d}
    (nesting) and that the rows of F_x's basis B times gamma lie in the
    target flag (compatibility).  So the shift at x is B[:, P] for the
    pivots P of F_{x + 2 e_d}, and the Q map is (B gamma)[:, P] =
    B (gamma[:, P]) for the pivots P of the target, each gamma cut at a
    set of pivots once per call.  When F_x is full, B is the identity (the
    reduced echelon basis of a whole space), so the Q map is the cut gamma
    itself and no product is built.  Raises ValueError unless v holds a
    passing verdict."""
    if v._deformed is not None:
        return v._deformed
    if not v._verdict:
        raise ValueError("only a module that passed its check can be deformed")
    shifts = [{} for _ in v.tops]
    qs = [[{} for _ in family] for family in v.gammas]
    cut = {}  # (d, i, parity, pivots) -> gamma's columns at those pivots
    for x, flag in v.flags.items():
        c = _parity(x)
        for d, top in enumerate(v.tops):
            if x[d] <= top - 2:
                shifts[d][x] = flag.basis._columns(v.flags[_step(x, d, 2)].pivots)
            pivots = v.flags[_fold(_step(x, d, 1), v.tops)].pivots
            for i, gamma in enumerate(v.gammas[d]):
                key = (d, i, c, pivots)
                if key not in cut:
                    cut[key] = gamma[c]._columns(pivots)
                qs[d][i][x] = cut[key] if flag.is_full else flag.basis * cut[key]
    rep = cls.__new__(cls)
    dims = _nest({x: flag.dim for x, flag in v.flags.items()}, v.tops)
    GradedRep.__init__(rep, v.algebras, dims, shifts, qs)
    v._deformed = rep
    return rep


def _verify(r: GradedRep) -> Certificate:
    """The verdict of `_relations` on r, kept on the rep, whose maps are
    read-only.  The generating scan decides it; only when that scan fails
    does the full scan run, so the witness is the full scan's first
    failure."""
    if r._verdict is None:
        cert = _relations(r, generating=True)
        r._verdict = cert if cert else _relations(r)
    return r._verdict


def _relations(r: GradedRep, generating: bool = False) -> Certificate:
    """Shift injectivity; then, point by point, shift commutation, each
    family's anticommutators, the mixed brackets and the shift-Q
    commutators.  The first failure is the witness.  Each relation is one
    `_vanishes` call, a sum of products that must vanish, so no product is
    built: {Q_i, Q_j} = 2 G[i][j] S_d takes the shift as its target with
    s = 2 G[i][j], and {Q_i, Q_i} is the one term 2 Q_i Q_i.

    With `generating`, the scan checks a generating set of the relations:
    injectivity, shift commutation, the cross-direction [S_e, Q^d] (e != d)
    and the diagonal {Q_i, Q_i} = 2 G[i][i] S_d at every grid point, and
    the off-diagonal anticommutators and mixed brackets only at the 2^k top
    points, where x_d >= top_d - 1 for every d.  It passes exactly when
    the full scan does.  The data repeats above the grid, so a relation
    at any point of the quadrant is one at a grid point, and:

    * The Gram matrix is positive definite (`CliffordAlgebra` refuses any
      other), so G[i][i] > 0 and the diagonal relation gives
      S_d(x) = Q_i(x) Q_i(x + e_d) / G[i][i] at every point.  Then
      S_d(x) Q_i(x + 2 e_d) and Q_i(x) S_d(x + e_d) are both
      Q_i(x) Q_i(x + e_d) Q_i(x + 2 e_d) / G[i][i]: [S_d, Q^d_i] = 0.
    * Every Q map and every shift now commutes with every S_e, so each
      remaining relation R, a map from x to x + deg R, satisfies
      R(x) S_e(x + deg R) = S_e(x) R(x + 2 e_e).  S_e is injective (the
      identity above the grid), so R(x + 2 e_e) = 0 gives R(x) = 0.  Every
      grid point reaches a top point in steps of 2 e_e inside the grid,
      so downward induction from the top points gives R = 0 everywhere.

    A shift is injective when its rows are independent.  Rows that are
    all nonzero, with distinct leading columns, are: sorted by leading
    column they are in echelon form.  Only a shift that fails that test
    is eliminated (`rank`).  On a deformation none fails it.  There the
    shift at x is B[:, P], for the reduced echelon basis B of F_x and the
    pivots P of F_{x + 2 e_d}.  F_x <= F_{x + 2 e_d}, and the pivots of a
    space are the leading columns of its vectors, so P holds every pivot
    of B.  Row r of B is zero before its pivot and 1 there, so its leading
    column in B[:, P] is the place of that pivot in P, distinct for
    distinct rows.

    The maps are looked up once per call: a grid point's neighbours x + e_d
    and x + 2 e_d are folded back onto the grid once, each direction's
    shift is tabled at the grid points as `shift` gives it (a reference to
    the stored map, or the identity), the Q maps are read from the stored
    mappings at the folded points, and 2 G[i][j] is read once from each
    Gram matrix's integer form."""
    w, tops = r._words, r.tops
    for d, shifts in enumerate(r.shifts):
        for x, mat in shifts.items():
            leads = {min(j for j, _ in row) for row in mat._ints()[1] if row}
            if len(leads) != mat.rows and mat.rank() != mat.rows:
                return failing(w.relations, kind=w.injective[d], **dict(zip(w.point, x)))
    grid = list(_points(tops))
    directions = range(len(tops))
    up = [{x: _fold(_step(x, d, 1), tops) for x in grid} for d in directions]
    up2 = [{x: _fold(_step(x, d, 2), tops) for x in grid} for d in directions]
    shift = [{x: r.shift(d, x) for x in grid} for d in directions]
    twice = [_twice_gram(algebra) for algebra in r.algebras]
    pairs = list(combinations(directions, 2))
    for x in grid:
        at = dict(zip(w.point, x))
        every = not generating or all(c >= t - 1 for c, t in zip(x, tops))
        for d, e in pairs:
            if not _vanishes([(1, shift[d][x], shift[e][up2[d][x]]),
                              (-1, shift[e][x], shift[d][up2[e][x]])]):
                return failing(w.relations, kind="shifts_commute", **at)
        for d, family in enumerate(r.qs):
            y, s = up[d][x], shift[d][x]
            for i, qi in enumerate(family):
                for j in range(i, len(family) if every else i + 1):
                    if i == j:
                        terms = [(2, qi[x], qi[y])]
                    else:
                        qj = family[j]
                        terms = [(1, qi[x], qj[y]), (1, qj[x], qi[y])]
                    if not _vanishes(terms, s, twice[d][i][j]):
                        return failing(w.relations, kind=w.anticommutator[d], i=i, j=j, **at)
        for d, e in pairs if every else ():
            y_d, y_e = up[d][x], up[e][x]
            for i, qi in enumerate(r.qs[d]):
                for j, qj in enumerate(r.qs[e]):
                    if not _vanishes([(1, qi[x], qj[y_d]), (1, qj[x], qi[y_e])]):
                        return failing(w.relations, kind="mixed_bracket",
                                       **{w.generator[d]: i, w.generator[e]: j}, **at)
        for d, family in enumerate(r.qs):
            y = up[d][x]
            for i, qi in enumerate(family):
                for e in directions:
                    if generating and e == d:
                        continue
                    if not _vanishes([(1, shift[e][x], qi[up2[e][x]]), (-1, qi[x], shift[e][y])]):
                        return failing(w.relations, kind=w.shift_q[d][e],
                                       **{w.generator[d]: i}, **at)
    return passing(w.relations)


def _quotient(r: GradedRep, shells, cls):
    """Evaluate each S_d at its shell value shells[d] > 0, as a `cls`.  The
    corners carry the stored Q maps, those leaving the grid's top in their
    direction scaled by that shell value, and the algebras the scaled
    Gram matrices; the flag at x is the image of V_x under the composite
    shifts into the corner of its parity, one direction after another.
    Only a rep that satisfies the relations gives a filtered module.

    The flags read only the shifts, not the shell values, so they are
    built on the first call and kept on the rep, whose maps are
    read-only; a quotient at any shell, and the roundtrip, reuse them.
    Each composite starts from its first shift, not from the identity of
    V_x, which would not change the product; the composite at a corner
    has no shift, so it is the identity and its flag the whole space."""
    tops = r.tops
    corners = {c: _corner(c, tops) for c in product((0, 1), repeat=len(tops))}
    dims = {c: r._grid[corner] for c, corner in corners.items()}
    gammas = tuple(
        tuple({c: q[x].scale(shell) if x[d] == tops[d] else q[x] for c, x in corners.items()}
              for q in family)
        for d, (family, shell) in enumerate(zip(r.qs, shells))
    )
    if r._flags is None:
        flags = {}
        for x in _points(tops):
            corner = corners[_parity(x)]
            composite, at = None, x
            for d in range(len(tops)):
                for c in range(x[d], corner[d], 2):
                    at = at[:d] + (c,) + at[d + 1:]
                    shift = r.shift(d, at)
                    composite = shift if composite is None else composite * shift
                at = at[:d] + (corner[d],) + at[d + 1:]
            flags[x] = (Subspace.full(r._grid[x]) if composite is None
                        else Subspace.row_space(composite))
        r._flags = MappingProxyType(flags)
    algebras = tuple(CliffordAlgebra(a.n, a.gram.scale(s)) for a, s in zip(r.algebras, shells))
    quotient = cls.__new__(cls)
    FilteredModule.__init__(quotient, algebras, dims, gammas, r._flags)
    return quotient


def _roundtrip(source: FilteredModule, rep: GradedRep,
               words: _Words) -> tuple[MappingProxyType, Certificate]:
    """Maps identifying `source` with the quotient at shell 1 of `rep`, its
    deformation, and their certificate; a failure is a defect of the
    correspondence itself, so it raises.  The map on component c sends a
    vector to its coordinates in the basis of the corner flag of parity c.
    The result is kept on `source`, as its deformation is: the module is
    read-only, so it cannot go stale.

    Those maps are identities.  `_deform` holds only modules whose check
    passed, and the check makes every corner flag full; the reduced
    echelon basis of a full space is the identity, so a vector is its own
    coordinates.  With identity maps the map on c is bijective exactly
    when the quotient's component has dimension dims[c]; it intertwines
    generator i exactly when gamma[c] equals the quotient's image[c]; and
    it carries the flag F_x onto the quotient's flag exactly when the two
    are equal.  Both flags are stored by their reduced echelon bases,
    which are unique, so `Subspace` equality decides that.  No rank,
    product, coordinates or `_vanishes` is needed; the witnesses and
    their order are those of the comparison through the maps."""
    if source._iso is not None:
        return source._iso
    back = _quotient(rep, (1,) * len(source.tops), type(source))
    name = words.roundtrip
    maps = {c: Matrix.identity(dim) for c, dim in source.dims.items()}

    def verify() -> Certificate:
        for c, dim in source.dims.items():
            if back.dims[c] != dim:
                return failing(name, kind="bijective", **words.at(c))
        for c in maps:
            for d, (kind, key) in enumerate(words.intertwine):
                for i, (gamma, image) in enumerate(zip(source.gammas[d], back.gammas[d])):
                    if gamma[c] != image[c]:
                        return failing(name, kind=kind, **{key: i}, **words.at(c))
        for x, flag in source.flags.items():
            if flag != back.flags[x]:
                return failing(name, kind="flag", **dict(zip(words.point, x)))
        return passing(name)

    cert = verify()
    if not cert:
        raise RuntimeError(f"{name.removesuffix('_iso')} correspondence failed: {cert.witness}")
    source._iso = (MappingProxyType(maps), cert)
    return source._iso


# ---------------------------------------------------------------------------
# k = 1: filtrations and off-shell representations


class OffShellRep(GradedRep):
    """Graded components, H inclusions, and Q actions, degrees 0..m."""

    _words = _Words(
        relations="offshell_relations", point=("level",), generator=("i",),
        injective=("H_injective",), anticommutator=("anticommutator",),
        shift_q=(("H_Q_commutation",),),
        roundtrip="roundtrip_iso", component="parity",
        intertwine=(("intertwine", "generator"),),
    )

    def __init__(self, algebra: CliffordAlgebra, dims, h_maps, q_maps):
        shifts = {(p,): h for p, h in enumerate(h_maps)}
        qs = [{(p,): q for p, q in enumerate(per)} for per in q_maps]
        super().__init__((algebra,), dims, (shifts,), (qs,))

    algebra = property(lambda self: self.algebras[0])
    top_degree = property(lambda self: self.tops[0])
    h_maps = property(lambda self: tuple(self.shifts[0].values()))
    q_maps = property(lambda self: tuple(tuple(per.values()) for per in self.qs[0]))

    def dim_at(self, p: int) -> int:
        return self.component_dim((p,))

    def h_at(self, p: int) -> Matrix:
        """H as a map from degree p to degree p + 2; identity above the top."""
        return self.shift(0, (p,))

    def q_at(self, i: int, p: int) -> Matrix:
        """Q_i as a map from degree p to degree p + 1, two-periodic above top."""
        return self.q(0, i, (p,))

    def __repr__(self):
        return f"OffShellRep(dims {list(self.dims)})"


@dataclass(frozen=True)
class GradedSpace:
    """Plain list of graded dimensions (the quotient by the image of H)."""

    dims: tuple[int, ...]


@dataclass(frozen=True)
class OnShellModule:
    """Filtered supermodule produced by evaluating H at a shell value.

    The scaling is recorded in `shell` and in the module's Gram matrix:
    the gamma operators satisfy {g_i, g_j} = 2 * shell * G[i][j].
    """

    module: CliffordSupermodule
    filtration: SuperFiltration
    shell: Fraction


def deform(f: SuperFiltration) -> OffShellRep:
    """Graded representation with components V_p = F_p in canonical bases.

    H maps are the flag inclusions, Q maps the gamma action written in
    the level bases.  Raises CheckFailed unless check_filtration passes.
    """
    require("filtration", check_filtration(f))
    return _deform(f, OffShellRep)


def verify_offshell(r: OffShellRep) -> Certificate:
    """Injectivity of H, the anticommutators, and H-Q commutation."""
    return _verify(r)


def quotient_at(r: OffShellRep, k) -> OnShellModule | GradedSpace:
    """Evaluate H at the shell value k (quotient by H - k in stable degrees).

    k = 0 collapses to the plain graded quotient by the image of H.
    Positive k yields a filtered supermodule on the top two components
    whose gamma operators close the scaled Clifford relations
    {g_i, g_j} = 2 k G[i][j]; the level-p flag is the image of V_p under
    the iterated H maps.  Raises CheckFailed unless verify_offshell passes.
    """
    k = rational(k)
    if k < 0:
        raise ValueError("shell value must be nonnegative for the scaled Gram form")
    require("off-shell representation", verify_offshell(r))
    if k == 0:
        return GradedSpace(tuple(r.dims[p] - r.dim_at(p - 2) for p in range(r.top_degree + 1)))
    f = _quotient(r, (k,), SuperFiltration)
    return OnShellModule(f.module, f, k)


@dataclass(frozen=True)
class FilteredIso:
    """Filtered-module isomorphism given by parity-component matrices."""

    even_map: Matrix
    odd_map: Matrix
    certificate: Certificate


def canonical_roundtrip_iso(f: SuperFiltration) -> FilteredIso:
    """Identify f with quotient_at(deform(f), 1), verifying everything.

    The component maps send a vector to its coordinates in the top
    flag's canonical basis.  Bijectivity, the gamma intertwining and
    flag-to-flag correspondence are all checked exactly; a failure is a
    defect of the correspondence itself, so it raises.
    """
    maps, cert = _roundtrip(f, deform(f), OffShellRep._words)
    return FilteredIso(maps[(0,)], maps[(1,)], cert)


# ---------------------------------------------------------------------------
# The algebra case: Cl(N) acting on itself, filtered by word length


@lru_cache(maxsize=16)
def _regular_labels(sizes: tuple[int, ...]
                    ) -> tuple[MappingProxyType, tuple, MappingProxyType]:
    """The labels of `_regular_module` for families of `sizes` generators,
    built once per tuple of sizes: the number of labels of each component;
    the walk, one step (S, j, b, i, d, g) per nonempty monomial S by size,
    e_S being basis vector j of its component, e_{S - s} vector i of
    component b, and s generator g of family d; and, for each component,
    its basis indices grouped by their letters per family.  Every call
    for these sizes shares the result, so it is read-only all the way
    down: mapping proxies and tuples."""
    letters = [(d, i) for d, n in enumerate(sizes) for i in range(n)]
    where, groups, counts = {}, {}, {}  # S -> (component, index)
    for c in product((0, 1), repeat=len(sizes)):
        labels = [((), ())]  # (S, its letters per family)
        for d, a in enumerate(c):
            own = [s for s, (e, _) in enumerate(letters) if e == d]
            labels = [(S + T, per + (size,)) for S, per in labels
                      for size in range(a, len(own) + 1, 2) for T in combinations(own, size)]
        counts[c], groups[c] = len(labels), {}
        for j, (S, per) in enumerate(labels):
            where[S] = (c, j)
            groups[c].setdefault(per, []).append(j)
    steps = tuple((S, where[S][1], *where[S[1:]], *letters[S[0]])
                  for size in range(1, len(letters) + 1)
                  for S in combinations(range(len(letters)), size))
    groups = {c: MappingProxyType({per: tuple(js) for per, js in g.items()})
              for c, g in groups.items()}
    return MappingProxyType(counts), steps, MappingProxyType(groups)


def _regular_module(v: FilteredModule, words: _Words) -> Certificate:
    """Stage `regular_module` of `enveloping_quotient_check` (k = 1) and
    `check_twisted_tensor` (k = 2): v is Cl(N) acting on itself, filtered
    by word length in each family.

    Letter o_d + i of Cl(N) is generator i of family d, o_d counting the
    generators before family d.  Basis vector j of component c is e_S for
    the j-th tuple of subsets, one per family d, of parity c_d, by size
    then lexicographically, the first family slowest, S their union: the
    order of `exterior_module` and `tensor_module`.  The first failure is
    the witness: each Gram matrix must be the identity (`gram`); each
    component must have one basis vector per label (`shape`); walking the
    monomials S by size, the row of e_{S - s} in g_s, s the least letter
    of S, must be the single entry +1 at e_S (`word`); and F_x must be
    spanned by the e_S with at most x_d letters from each family d (`flag`).

    The earlier stages check the Clifford relations and g F_x <= F_{x + e_d}
    for g in family d.  By induction on |S|, e_S = g_S e_(), g_S the
    product of S's letters in increasing order, so a -> a e_() carries the
    monomial basis of Cl(N) onto {e_S}, and its word-length filtration
    onto the flags.  A monomial a in F_x acts as x_d or fewer steps in
    family d, of x_d's parity, each raising direction d by one; the flags
    of one parity are nested, so F_x F_y <= F_{x+y}.

    At k = 2, on every module the earlier stages accept, this is
    equivalent to carrying `total_module(v)`, through the permutation
    (I, J) -> I u (J + p), onto `exterior_module(p + q)` generator by
    generator.  `shape` holds exactly when that permutation is a
    bijection, and `flag` is the same test.  Generators carried onto
    `exterior_module(N)`'s square to 1, so they pass the relations only
    with identity Gram matrices, which `gram` tests.  With those,
    g_l g_S = +-g_{S xor l} in Cl(N), the sign (-1)^{#{j in S, j < l}} of
    moving g_l past the smaller letters.  So once the walk passes,
    g_l e_S = +-e_{S xor l} with that sign: each generator is
    `exterior_module(N)`'s.  Conversely, there g_s e_{S - s} = +e_S, no
    letter of S - s being below s.  The sign must be +: a negated generator
    is an automorphism of Cl(N), so a walk that accepted -1 would pass its
    module, whose generators are not `exterior_module(N)`'s.
    """
    name = "regular_module"
    if any(a.gram != Matrix.identity(a.n) for a in v.algebras):
        return failing(name, kind="gram")
    counts, steps, groups = _regular_labels(tuple(a.n for a in v.algebras))
    for c, dim in v.dims.items():
        if dim != counts[c]:
            return failing(name, kind="shape", **words.at(c))
    for S, j, b, i, d, g in steps:
        den, rows = v.gammas[d][g][b]._ints()
        if len(rows[i]) != 1 or rows[i][0][0] != j or rows[i][0][1] != den:
            return failing(name, kind="word", word=list(S))
    for x, flag in v.flags.items():
        units = sorted(j for per, js in groups[_parity(x)].items() if all(map(le, per, x))
                       for j in js)
        if flag != Subspace._units(flag.ambient, units):
            return failing(name, kind="flag", **dict(zip(words.point, x)))
    return passing(name)


# The largest n `enveloping_quotient_check` takes.  Its time grows about
# fourfold per generator (the README gives measured figures), so a larger
# n is refused before anything is built; above `MAX_GENERATORS` the
# algebra's own bound is the one named.
MAX_ENVCHECK_N = 12


def enveloping_quotient_check(n: int, max_degree: int, seed: int = 0) -> Certificate:
    """Certify the graded algebra whose degree-p component is the level
    F_p of Cl(n) (word length <= p, of the parity of p) as a deformation of
    Cl(n), with Q_i = g_i in degree 1 and H = 1 in degree 2.

    `exterior_module(n)` is the left-regular module of Cl(n) in the
    monomial basis and `degree_filtration` its word-length filtration, so
    that graded algebra is `deform` of it.  The stages, each exact and the
    first failure the witness (under `stage`):

    * `check_filtration`: the Clifford relations and the flags;
    * `verify_offshell` of the deformation: {Q_i, Q_j} = 2 G[i][j] H,
      [H, Q_i] = 0 and H injective, at every degree (the data repeats
      with period two above the top);
    * `canonical_roundtrip_iso`: evaluation at 1 is onto Cl(n) with
      kernel the image of H - 1 (it raises if the correspondence fails);
    * `regular_module` (`_regular_module`): Cl(n) acting on itself,
      filtered by word length, so that with the first stage F_p F_q <=
      F_{p+q}, and the graded product, so evaluation at 1, is multiplicative.

    These hold at every degree, so they cover the truncation at any
    `max_degree` >= 3, which is still required.  `seed` is unused; it
    stays so that callers which pass it keep working.  Raises ValueError
    for n above `MAX_ENVCHECK_N`.
    """
    name = "enveloping_quotient"
    if max_degree < 3:
        raise ValueError("truncation must reach degree 3 to see [H, Q]")
    if MAX_ENVCHECK_N < n <= MAX_GENERATORS:
        raise ValueError(f"envcheck of {n} generators exceeds the limit of {MAX_ENVCHECK_N}")
    f = degree_filtration(exterior_module(n))
    cert = check_filtration(f)
    if cert:  # deform raises CheckFailed on a filtration that fails
        cert = verify_offshell(deform(f))
    if cert:
        cert = canonical_roundtrip_iso(f).certificate
    if cert:
        cert = _regular_module(f, OffShellRep._words)
    return passing(name) if cert else failing(name, stage=cert.check, **cert.witness)
