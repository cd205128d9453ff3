"""Two-parameter analogue of the deformation correspondence.

A bifiltered supermodule carries four components indexed by a pair of
parities: the first Clifford family g+_i flips the first index, the
second family g-_j flips the second, the two families anticommute with
each other, and a first-quadrant grid of flags F_{m,n} refines the
component of parity (m mod 2, n mod 2).  Deforming produces a bigraded
representation with two commuting injective shifts (the light-cone
translations H+P and H-P) and odd operators Q+_i, Q-_j of bidegrees
(1,0) and (0,1); the quotient by (shift - k) in both directions
collapses back onto the four corners of the grid.

`BifilteredSupermodule` is the k = 2 case of the one filtered-module
type, `supermodule.FilteredModule`, whose maps and flags are read-only,
so `check_bifiltered_module` keeps its verdict on the module.
`bideform`, `verify_2d`, `biquotient` and `canonical_biroundtrip_iso`
are the k = 2 case of the construction that `deformation` writes once
over k directions; its k = 1 case is the 1d pipeline, which is the
n = 0 column of this one for a filtration tensored with the trivial
(1|0) module of Cl(0).

The helicity operator acts on bidegree (m, n) by the scalar m - n, so
its brackets with every stored operator are fixed by the bidegrees
alone; it is neither stored as a matrix nor checked.

The mixed bracket {Q+_i, Q-_j} is required to vanish; together with
{Q+-_i, Q+-_j} = 2 G[i][j] (H+-P) this makes the generators close the
two-dimensional super translation algebra.

The twisted product Cl(p) (x)^ Cl(q) (`twisted_tensor`) has no
arithmetic of its own: `check_twisted_tensor` certifies it as Cl(p + q)
by running its bifiltered regular module through this pipeline, stage by
stage, and identifying that module with Cl(p + q) acting on itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .certificate import Certificate, failing, passing, require
from .clifford import CliffordAlgebra
from .deformation import (GradedRep, _deform, _quotient, _regular_module, _roundtrip, _verify,
                          _Words)
from .exactalg import Matrix, Subspace, _block_matrix, kron, rational
from .supermodule import (
    CliffordSupermodule,
    FilteredModule,
    SuperFiltration,
    _checked,
    _CheckWords,
    _module_relations,
    _nest,
    check_filtration,
    degree_filtration,
    exterior_module,
)


# ---------------------------------------------------------------------------
# Bifiltered supermodules

_COMPONENTS = ((0, 0), (0, 1), (1, 0), (1, 1))


class BifilteredSupermodule(FilteredModule):
    """Four parity components acted on by two anticommuting Clifford
    families: the k = 2 case of `supermodule.FilteredModule`.

    gamma_plus[i] flips the first parity index, gamma_minus[j] the
    second; both are keyed by source component.  The flags F_{m,n}
    live on the grid 0..top_plus x 0..top_minus, F_{m,n} inside the
    component of parity (m mod 2, n mod 2); past the top of a direction
    the grid repeats with period two.
    """

    _words = _CheckWords(
        "bifiltered_module", "bifiltered_module",
        relation=lambda d, e, i, j, c: {
            "kind": ("plus_relation", "families_commute", "minus_relation")[d + e],
            "i": i, "j": j, "component": c},
        nesting=lambda d, x: {"kind": ("nesting_plus", "nesting_minus")[d], "m": x[0], "n": x[1]},
        exhaustive=lambda c, x: {"kind": "exhaustive", "m": x[0], "n": x[1]},
        compatibility=lambda d, i, x: {"kind": ("compatibility_plus", "compatibility_minus")[d],
                                       "ij"[d]: i, "m": x[0], "n": x[1]},
    )

    def __init__(self, plus_algebra, minus_algebra, dims, gamma_plus, gamma_minus, biflags):
        flags = {(m, n): flag for m, row in enumerate(biflags) for n, flag in enumerate(row)}
        super().__init__((plus_algebra, minus_algebra), dims, (gamma_plus, gamma_minus), flags)

    plus_algebra = property(lambda self: self.algebras[0])
    minus_algebra = property(lambda self: self.algebras[1])
    top_plus = property(lambda self: self.tops[0])
    top_minus = property(lambda self: self.tops[1])
    gamma_plus = property(lambda self: self.gammas[0])
    gamma_minus = property(lambda self: self.gammas[1])
    biflags = property(lambda self: _nest(self.flags, self.tops))

    def dim(self, a: int, b: int) -> int:
        return self.dims[(a, b)]

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __repr__(self):
        d = self.dims
        return (
            f"BifilteredSupermodule(p={self.plus_algebra.n}, q={self.minus_algebra.n}, "
            f"dims {d[(0,0)]},{d[(0,1)]},{d[(1,0)]},{d[(1,1)]})"
        )


def total_module(bf: BifilteredSupermodule) -> CliffordSupermodule:
    """The underlying Cl(p+q)-supermodule, with block Gram matrix.

    Even part is ordered (0,0) then (1,1); odd part (0,1) then (1,0).
    Generators 0..p-1 come from the plus family, p..p+q-1 from minus.
    """
    p, q = bf.plus_algebra.n, bf.minus_algebra.n
    gram = _block_matrix(
        [p, q], [p, q],
        {(0, 0): bf.plus_algebra.gram, (1, 1): bf.minus_algebra.gram},
    )
    even_dims = [bf.dims[(0, 0)], bf.dims[(1, 1)]]
    odd_dims = [bf.dims[(0, 1)], bf.dims[(1, 0)]]
    gamma_eo, gamma_oe = [], []
    for i in range(p):
        g = bf.gamma_plus[i]
        gamma_eo.append(_block_matrix(even_dims, odd_dims, {(0, 1): g[(0, 0)], (1, 0): g[(1, 1)]}))
        gamma_oe.append(_block_matrix(odd_dims, even_dims, {(0, 1): g[(0, 1)], (1, 0): g[(1, 0)]}))
    for j in range(q):
        g = bf.gamma_minus[j]
        gamma_eo.append(_block_matrix(even_dims, odd_dims, {(0, 0): g[(0, 0)], (1, 1): g[(1, 1)]}))
        gamma_oe.append(_block_matrix(odd_dims, even_dims, {(0, 0): g[(0, 1)], (1, 1): g[(1, 0)]}))
    algebra = CliffordAlgebra(p + q, gram)
    return CliffordSupermodule(
        algebra, gamma_eo, gamma_oe,
        dim_even=sum(even_dims), dim_odd=sum(odd_dims),
    )


# The largest dimension of a twisted tensor: its gammas and flags grow as
# the square of it, so exterior(4) (x) exterior(4), 256 dimensions and a
# 3.3 MB document, is allowed, and exterior(4) (x) exterior(5) is not.
MAX_TENSOR_DIM = 256


def tensor_module(f_plus: SuperFiltration, f_minus: SuperFiltration) -> BifilteredSupermodule:
    """Twisted tensor of two filtered supermodules.

    Component (a, b) is the tensor of the parity-a and parity-b pieces;
    the minus family acts through the first factor's parity sign, which
    is what makes the two families anticommute.  The grid flag F_{m,n}
    is the span of tensors from level m of the first filtration and
    level n of the second.  Raises ValueError, before anything is built,
    for a dimension above MAX_TENSOR_DIM, and CheckFailed unless
    check_filtration passes on both factors.

    The flags need no elimination: the Kronecker product of two reduced
    row-echelon bases A and B is one, with pivots p_i * w + q_k for the
    pivots p_i of A and q_k of B and w the columns of B.  Row (i, k) is
    A[i][p_i] B[k][q_k] = 1 there and zero before it, and 0 at every
    other such pivot, since A[i] vanishes at the other p's and B[k] at
    the other q's; the pivots increase with (i, k) taken i-major.
    """
    mod_p, mod_m = f_plus.module, f_minus.module
    dim = (mod_p.dim_even + mod_p.dim_odd) * (mod_m.dim_even + mod_m.dim_odd)
    if dim > MAX_TENSOR_DIM:
        raise ValueError(f"tensor of dimension {dim} exceeds the limit of {MAX_TENSOR_DIM}")
    for f in (f_plus, f_minus):
        require("filtration", check_filtration(f))
    dims = {
        (a, b): mod_p.dim(a) * mod_m.dim(b) for (a, b) in _COMPONENTS
    }
    gamma_plus = []
    for i in range(mod_p.algebra.n):
        gamma_plus.append({
            (a, b): kron(mod_p.gamma(i, a), Matrix.identity(mod_m.dim(b)))
            for (a, b) in _COMPONENTS
        })
    gamma_minus = []
    for j in range(mod_m.algebra.n):
        per = {}
        for (a, b) in _COMPONENTS:
            block = kron(Matrix.identity(mod_p.dim(a)), mod_m.gamma(j, b))
            per[(a, b)] = block.scale(-1) if a else block
        gamma_minus.append(per)
    biflags = []
    for m in range(f_plus.top_degree + 1):
        row = []
        lev_p = f_plus.level(m)
        for n in range(f_minus.top_degree + 1):
            lev_m = f_minus.level(n)
            w = lev_m.ambient
            pivots = tuple(p * w + q for p in lev_p.pivots for q in lev_m.pivots)
            row.append(Subspace(dims[(m % 2, n % 2)], kron(lev_p.basis, lev_m.basis), pivots))
        biflags.append(row)
    return BifilteredSupermodule(
        mod_p.algebra, mod_m.algebra, dims, gamma_plus, gamma_minus, biflags
    )


# ---------------------------------------------------------------------------
# Bigraded representations: the k = 2 case of the deformation engine

class BiGradedRep(GradedRep):
    """Bigraded components on the grid 0..top_plus x 0..top_minus with two
    commuting shifts, sp of bidegree (2,0) and sm of (0,2), and two Q
    families, qp[i] of bidegree (1,0) and qm[j] of (0,1)."""

    _words = _Words(
        relations="bigraded_relations", point=("m", "n"), generator=("i", "j"),
        injective=("shift_plus_injective", "shift_minus_injective"),
        anticommutator=("plus_anticommutator", "minus_anticommutator"),
        shift_q=(("shift_plus_Qp", "shift_minus_Qp"), ("shift_plus_Qm", "shift_minus_Qm")),
        roundtrip="biroundtrip_iso", component="component",
        intertwine=(("intertwine_plus", "i"), ("intertwine_minus", "j")),
    )

    def __init__(self, plus_algebra, minus_algebra, dims, sp, sm, qp, qm):
        super().__init__((plus_algebra, minus_algebra), dims, (sp, sm), (qp, qm))

    plus_algebra = property(lambda self: self.algebras[0])
    minus_algebra = property(lambda self: self.algebras[1])
    top_plus = property(lambda self: self.tops[0])
    top_minus = property(lambda self: self.tops[1])
    sp = property(lambda self: self.shifts[0])
    sm = property(lambda self: self.shifts[1])
    qp = property(lambda self: self.qs[0])
    qm = property(lambda self: self.qs[1])

    def __repr__(self):
        return f"BiGradedRep(grid {self.top_plus}x{self.top_minus})"


def check_bifiltered_module(bf: BifilteredSupermodule) -> Certificate:
    """Clifford relations of both families and anticommutation across
    families on every component, then flag nesting, corner fullness, and
    gamma compatibility.  The verdict is kept on the module."""
    return _checked(bf, _module_relations)


def bideform(bf: BifilteredSupermodule) -> BiGradedRep:
    """Bigraded representation on the flag grid in canonical bases.
    Raises CheckFailed unless check_bifiltered_module passes."""
    require("bifiltered module", check_bifiltered_module(bf))
    return _deform(bf, BiGradedRep)


def verify_2d(r: BiGradedRep) -> Certificate:
    """All brackets of the bigraded super translation algebra, exactly.

    Shift injectivity, commutation of the two shifts, the Clifford
    anticommutators against each shift, vanishing of the mixed bracket,
    and commutation of shifts with all Q operators.
    """
    return _verify(r)


def biquotient(r: BiGradedRep, shell_plus=1, shell_minus=1) -> BifilteredSupermodule:
    """Collapse onto the four corner components at the given shell values.

    Generators act by the stored Q maps, with the wrap-around maps (the
    ones leaving the grid's top row or column) scaled by the shell
    value; the output algebras carry the correspondingly scaled Gram
    matrices.  Flags are the images of the grid components under the
    composite shifts into the corner of matching biparity.  Raises
    CheckFailed unless verify_2d passes.
    """
    shells = (rational(shell_plus), rational(shell_minus))
    if min(shells) <= 0:
        raise ValueError("shell values must be positive")
    require("bigraded representation", verify_2d(r))
    return _quotient(r, shells, BifilteredSupermodule)


@dataclass(frozen=True)
class BifilteredIso:
    """Isomorphism of bifiltered modules given per parity component, as a
    read-only mapping."""

    component_maps: MappingProxyType
    certificate: Certificate


def canonical_biroundtrip_iso(bf: BifilteredSupermodule) -> BifilteredIso:
    """Identify bf with biquotient(bideform(bf)) at shell values (1, 1).

    Component maps send a vector to its coordinates in the matching
    corner flag's canonical basis; bijectivity, intertwining with both
    generator families, and exact flag correspondence are verified.  A
    failure is a defect of the correspondence itself, so it raises.
    """
    maps, cert = _roundtrip(bf, bideform(bf), BiGradedRep._words)
    return BifilteredIso(maps, cert)


# ---------------------------------------------------------------------------
# Cl(p) (x)^ Cl(q) on its bifiltered regular module

@dataclass(frozen=True)
class TwistedProduct:
    """Cl(p) (x)^ Cl(q), held by its two identity-Gram factors.

    Homogeneous elements multiply by (a1 (x) b1)(a2 (x) b2) =
    (-1)^{|b1||a2|} a1 a2 (x) b1 b2.  The product has no arithmetic of its
    own: its regular module `module` is `tensor_module` of the factors'
    `degree_filtration(exterior_module(.))`, whose minus family carries
    that sign, and `check_twisted_tensor` certifies it as Cl(p + q).  The
    module is built on first use and kept: the factors are read-only, so
    it cannot go stale.  It has 2^(p + q) dimensions, so for p + q above
    8 building it raises ValueError (MAX_TENSOR_DIM).
    """

    left: CliffordAlgebra
    right: CliffordAlgebra

    def __post_init__(self):
        # identity Gram matrices only: the mixed generators must square
        # to the standard form for the combined algebra to be Cl(p+q)
        if self.left.gram != Matrix.identity(self.p) or self.right.gram != Matrix.identity(self.q):
            raise ValueError("twisted product requires identity Gram matrices")

    p = property(lambda self: self.left.n)
    q = property(lambda self: self.right.n)

    @cached_property
    def module(self) -> BifilteredSupermodule:
        """The bifiltered regular module: component (a, b) is spanned by the
        pairs (I, J) of monomials with |I| = a, |J| = b (mod 2), and
        F_{m,n} by those with |I| <= m and |J| <= n."""
        return tensor_module(degree_filtration(exterior_module(self.p)),
                             degree_filtration(exterior_module(self.q)))

    def __repr__(self):
        return f"TwistedProduct(Cl({self.p}), Cl({self.q}))"


def twisted_tensor(a: CliffordAlgebra, b: CliffordAlgebra) -> TwistedProduct:
    """The twisted product presentation of Cl(a.n + b.n); builds nothing."""
    return TwistedProduct(a, b)


def check_twisted_tensor(t: TwistedProduct) -> Certificate:
    """Certify Cl(p) (x)^ Cl(q) = Cl(p + q) on the regular module
    `t.module`.  The stages, each exact and the first failure the witness
    (under `stage`):

    * `check_bifiltered_module`: each family's Clifford relations, the
      anticommutation of the two (the twisted sign), and the flags:
      nested, full at the corners, g+ F_{m,n} <= F_{m+1,n} and
      g- F_{m,n} <= F_{m,n+1};
    * `verify_2d` of `bideform`;
    * `canonical_biroundtrip_iso` (it raises if the correspondence fails);
    * `regular_module` (`deformation._regular_module`, kept on the
      module): Cl(p + q) acting on itself, bifiltered by word length in
      each family, the pair (I, J) being the monomial I u (J + p).
    """
    name = "twisted_tensor"
    bf = t.module
    cert = check_bifiltered_module(bf)
    if cert:  # bideform raises CheckFailed on a module that fails
        cert = verify_2d(bideform(bf))
    if cert:
        cert = canonical_biroundtrip_iso(bf).certificate
    if cert:
        if bf._regular is None:
            bf._regular = _regular_module(bf, BiGradedRep._words)
        cert = bf._regular
    return passing(name) if cert else failing(name, stage=cert.check, **cert.witness)
