"""Classification invariants of filtered Clifford supermodules.

Three invariants are computed: associated-graded dimensions, source
dimensions (new generators entering at each level), and the multiset of
(gr, source) pairs of the indecomposable summands found by `decompose`.
Scalars are rational throughout, so decomposability means over the
rationals; statuses record when indecomposability is certified and when
the search merely exhausted its budget.

`filtered_endomorphisms` is the engine: the algebra of even maps
commuting with every generator and preserving every flag.  Splitting is
by rational factorization of minimal polynomials of its elements, and
an absence of splits is certified through the structure of the algebra
modulo its radical (computed from the trace form, exact over Q).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count
from math import isqrt, lcm
from operator import mul

from .certificate import require
from .clifford import _is_positive_definite
from .exactalg import (Matrix, Subspace, _block_matrix, _combination, _insert, _primitive,
                       _reduced, _vanishes, kernel)
from .supermodule import (CliffordSupermodule, SuperFiltration, check_filtration, check_supermodule,
                          trivial_filtration)

CERTIFIED = "indecomposable (certified)"
EXHAUSTED = "no decomposition found (budget exhausted)"


def _filtration(f) -> SuperFiltration:
    """f, or TypeError naming the supported type: the invariants read the
    flags of one direction and the module under them."""
    if not isinstance(f, SuperFiltration):
        raise TypeError(f"expected a SuperFiltration, got {type(f).__name__}")
    return f


def gr_dimensions(f: SuperFiltration) -> tuple[int, ...]:
    """Associated-graded dimensions: dim F_p - dim F_{p-2}."""
    _filtration(f)
    return tuple(
        f.level(p).dim - f.level(p - 2).dim for p in range(f.top_degree + 1)
    )


def source_dimensions(f: SuperFiltration) -> tuple[int, ...]:
    """dim of F_p modulo the span of all gamma images of F_{p-1}.  Kept on
    the filtration, whose maps and flags are read-only."""
    if _filtration(f)._sources is None:
        module = f.module
        f._sources = tuple(
            f.level(p).dim
            - _grown(module, p, f.level(p - 1), Subspace.zero(module.dim(p % 2))).dim
            for p in range(f.top_degree + 1)
        )
    return f._sources


def _grown(module: CliffordSupermodule, p: int, below: Subspace, span: Subspace) -> Subspace:
    """span plus the images of below, the level p - 1, under every generator,
    reduced together in one elimination.

    When below is full, the algebra has a generator and the module keeps a
    passing relations verdict in `_verdict`, the result is the full
    component of parity p, and nothing is built.  The relation
    {g_0, g_0} = 2 G_00 on that component says v g_0 g_0 = G_00 v for
    each of its vectors v, with G_00 > 0 as the Gram matrix is positive
    definite.  So v is the image
    under g_0 of v g_0 / G_00, which lies in the component of parity
    p - 1, all of which is below.  A module whose relations were not
    checked, or failed, is computed as before: its g_0 need not be onto.
    """
    if below.is_full and module.algebra.n and module._verdict:
        return Subspace.full(module.dim(p % 2))
    n = module.algebra.n
    images = {(i + 1, 0): below.basis * module.gamma(i, (p - 1) % 2) for i in range(n)}
    return Subspace.row_space(_block_matrix(
        [span.dim] + [below.dim] * n, [span.ambient], {(0, 0): span.basis, **images}))


def filtered_endomorphisms(f: SuperFiltration) -> list[tuple[Matrix, Matrix]]:
    """Basis of even maps commuting with the action and preserving flags.

    Solved inside the graded commutant of the module, which the module
    caches; each flag contributes the linear condition that the image of
    its basis stays inside it.  The identity pair is present for a
    nonzero module; a module with both parts zero has an empty basis.
    """
    module = _filtration(f).module
    pairs = module.graded_commutant()
    flags = [(p % 2, f.level(p)) for p in range(f.top_degree + 1) if not f.level(p).is_full]
    width = sum(flag.ambient * flag.dim for _, flag in flags)
    if not width:
        return list(pairs)
    # row k lists, flag after flag, the residuals of the flag's basis rows
    # under P_k after pivot elimination against the flag: the images minus
    # their entries at the pivots times the basis
    flat = []
    for pair in pairs:
        residuals = []
        for c, flag in flags:
            images = flag.basis * pair[c]
            residuals.append(images - images._columns(flag.pivots) * flag.basis)
        flat.append(_flat_ints(residuals))
    d = lcm(*[dr for dr, _ in flat])
    rows = [[(j, x * (d // dr)) for j, x in row.items()] for dr, row in flat]
    # each kernel row is the coefficients c_k of one sum of c_k P_k
    dk, coeff_rows = kernel(Matrix._from_ints(width, d, rows))._ints()
    return [tuple(_combination([(c, pairs[k][p]) for k, c in coeffs], dk) for p in (0, 1))
            for coeffs in coeff_rows]


def _pair_identity(module):
    return (Matrix.identity(module.dim_even), Matrix.identity(module.dim_odd))


def _trace(m: Matrix) -> Fraction:
    d, rows = m._ints()
    return Fraction(sum(c for i, row in enumerate(rows) for j, c in row if j == i), d)


def _flat_ints(mats) -> tuple[int, dict]:
    """(d, row) with row / d the matrices flattened one after another,
    each row by row, as a {column: int} dict of its nonzero entries."""
    d = lcm(*[m._ints()[0] for m in mats])
    row = {}
    offset = 0
    for m in mats:
        dm, rows = m._ints()
        f = d // dm
        for r in rows:
            for j, c in r:
                row[offset + j] = c * f
            offset += m.cols
    return d, row


def _minimal_polynomial(module, pair) -> list[Fraction]:
    """Monic minimal polynomial (ascending coefficients) of an even pair.

    Each power P^k is reduced once, fraction-free, as the integer row
    ``[flat(P^k) * d | d * e_k]`` (d clears its denominators) against the
    echelon rows of the earlier powers, by `rref`'s own steps.  Every row
    keeps the form ``[sum_j y_j flat(P^j) | y]``, so the first power whose
    flat part reduces to zero gives the relation ``sum_j y_j P^j = 0``;
    y_k is nonzero, the lower powers being independent.
    """
    width = module.dim_even ** 2 + module.dim_odd ** 2
    basis: dict[int, dict[int, int]] = {}
    power = _pair_identity(module)
    for k in count():
        if k:
            power = (power[0] * pair[0], power[1] * pair[1])
        d, row = _flat_ints(power)
        row[width + k] = d
        row = _reduced(basis, row)
        if min(row) >= width:
            top = row[width + k]
            return [Fraction(row.get(width + j, 0), top) for j in range(k + 1)]
        _insert(basis, row)


def _factor_rational_poly(coeffs: list[Fraction]):
    """Irreducible factorization over Q; returns [(ascending coeffs, power)].

    `coeffs` has a nonzero leading coefficient.  A polynomial of degree 1,
    or of degree 2 whose discriminant is not the square of a rational, is
    irreducible: it is returned as its primitive integer multiple with a
    positive leading coefficient, as sympy returns it.  Every other
    polynomial goes to sympy, which is imported here, on the first such
    factorization, because importing it costs most of the package's
    import time."""
    degree = len(coeffs) - 1
    if degree == 0:
        return []
    if degree == 1 or (
        degree == 2 and not _is_rational_square(coeffs[1] ** 2 - 4 * coeffs[0] * coeffs[2])
    ):
        return [(_primitive_multiple(coeffs), 1)]
    import sympy

    t = sympy.Symbol("t")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], t, domain="QQ"
    )
    _, factors = poly.factor_list()
    out = []
    for fac, power in factors:
        asc = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        out.append((asc, int(power)))
    return out


def _is_rational_square(x: Fraction) -> bool:
    # a Fraction is in lowest terms, so it is a square iff both parts are
    p, q = x.numerator, x.denominator
    return p >= 0 and isqrt(p) ** 2 == p and isqrt(q) ** 2 == q


def _primitive_multiple(coeffs: list[Fraction]) -> list[Fraction]:
    """The integer multiple of a polynomial with coprime coefficients and
    a positive leading coefficient."""
    d = lcm(*[c.denominator for c in coeffs])
    top = len(coeffs) - 1
    row = _primitive({j: c.numerator * (d // c.denominator) for j, c in enumerate(coeffs)}, top)
    return [Fraction(row[j]) for j in range(top + 1)]


def _poly_eval(coeffs: list[Fraction], m: Matrix) -> Matrix:
    acc = Matrix.zeros(m.rows, m.cols)
    ident = Matrix.identity(m.rows)
    for c in reversed(coeffs):
        acc = acc * m
        if c:
            acc = acc + ident.scale(c)
    return acc


def _restrict_filtration(f: SuperFiltration, w_even: Subspace, w_odd: Subspace):
    """Summand filtration induced on a gamma-invariant, flag-split pair.

    The piece's module takes the parent's passing relations verdict, its
    `_verdict`.  Its gammas g' are the coordinates of the images,
    B_c g = g' B_{1-c} with B_c the basis of the pair's part of parity c,
    so B_c g h = g' h' B_c for two generators.  A relation of the parent on parity c,
    a sum of products g h = 2 G I, then gives (sum of g' h' - 2 G I) B_c
    = B_c (sum of g h - 2 G I) = 0.  The rows of B_c are independent, so
    X B_c = 0 only for X = 0, and the relation holds on the piece.

    A full level meets the pair's part W in all of W, whose coordinates
    in W's own basis are the identity: it restricts to the full flag of
    the piece, with no intersection and no coordinates."""
    module = f.module
    n = module.algebra.n
    gamma_eo = [w_odd.coordinate_matrix(w_even.basis * module.gamma(i, 0)) for i in range(n)]
    gamma_oe = [w_even.coordinate_matrix(w_odd.basis * module.gamma(i, 1)) for i in range(n)]
    sub = CliffordSupermodule(
        module.algebra, gamma_eo, gamma_oe, dim_even=w_even.dim, dim_odd=w_odd.dim
    )
    if module._verdict:
        sub._verdict = module._verdict
    even_flags, odd_flags = [], []
    for p in range(f.top_degree + 1):
        w = w_even if p % 2 == 0 else w_odd
        level = f.level(p)
        if level.is_full:
            flag = Subspace.full(w.dim)
        else:
            flag = Subspace.row_space(w.coordinate_matrix((level & w).basis))
        (even_flags if p % 2 == 0 else odd_flags).append(flag)
    return SuperFiltration(sub, even_flags, odd_flags)


@dataclass(frozen=True)
class Summand:
    """One indecomposable-so-far piece of a decomposition.

    The embedding matrices have the summand's canonical basis vectors as
    rows, written in the coordinates of the decomposed module.
    """

    filtration: SuperFiltration
    embed_even: Matrix
    embed_odd: Matrix
    status: str


def _split_by(module, pair):
    """The split along the factors of pair's minimal polynomial, or None
    when it has fewer than two distinct factors.

    The parts split each parity, so their dimensions are not summed: the
    pair acts on each parity, where its minimal polynomial vanishes, and
    that polynomial is the product of the powers f^e, which are pairwise
    coprime.  The kernels of the f(P)^e are then the primary
    decomposition of each parity component."""
    minpoly = _minimal_polynomial(module, pair)
    factors = _factor_rational_poly(minpoly)
    if len(factors) < 2:
        return None
    # each part is the kernel of f^e at the pair, which is f(P)^e
    return [tuple(Subspace.row_space(kernel(reduce(mul, [_poly_eval(coeffs, m)] * power)))
                  for m in pair)
            for coeffs, power in factors]


def _first_split(module, pairs):
    """The split by the first pair that gives one, or None."""
    ident = _pair_identity(module)
    for pair in pairs:
        if pair != ident:
            found = _split_by(module, pair)
            if found:
                return found
    return None


def _random_candidates(endos, candidates: int, rng):
    """Seeded random integer combinations of the basis pairs, one
    rng.randint(-3, 3) per pair, each parity summed by `_combination`."""
    for _ in range(candidates):
        coeffs = [rng.randint(-3, 3) for _ in endos]
        yield tuple(_combination([(c, pair[p]) for c, pair in zip(coeffs, endos)]) for p in (0, 1))


def _try_split(f: SuperFiltration, endos, candidates: int, rng):
    """(split, None) for the first split found, else (None, status): the
    basis pairs, which draw nothing, then the certificate, then the random
    candidates unless it certified (see `decompose`)."""
    module = f.module
    split = _first_split(module, endos)
    if split:
        return split, None
    status = _certify_indecomposable(f, endos)
    if len(endos) < 2:
        return None, status
    if status == CERTIFIED:
        # the rng is shared with the sibling pieces: take the draws the
        # skipped candidates would have taken, so theirs stay the same
        for _ in range(candidates * len(endos)):
            rng.randint(-3, 3)
        return None, status
    split = _first_split(module, _random_candidates(endos, candidates, rng))
    return (split, None) if split else (None, status)


def _trace_form(endos) -> Matrix:
    """tr(xy) on a basis of even pairs, from their integer forms: tr(AB)
    is the sum of A_ij B_ji, so no product is built, and only the entries
    j >= i of the symmetric form are summed."""
    forms = [[m._ints() for m in pair] for pair in endos]
    row_dicts = [[[dict(row) for row in rows] for _, rows in pair] for pair in forms]
    form = [[0] * len(endos) for _ in endos]
    for i, a in enumerate(forms):
        for j in range(i, len(endos)):
            form[i][j] = form[j][i] = sum(
                Fraction(sum(x * b[k].get(r, 0) for r, row in enumerate(rows) for k, x in row), da * db)
                for (da, rows), (db, _), b in zip(a, forms[j], row_dicts[j]))
    return Matrix.from_rows(form, cols=len(endos))


def _certify_indecomposable(f: SuperFiltration, endos) -> str:
    """Sound no-idempotent certificates for the endomorphism algebra.

    Let E be the algebra and rad the kernel of the trace form
    (x, y) -> tr(xy) on the faithful module, which in characteristic 0
    is exactly the Jacobson radical.  Certified cases:

    * dim E/rad = 1: every element is a scalar plus a nilpotent, and an
      idempotent of that shape is 0 or the identity.
    * E semisimple, commutative, with an element whose minimal
      polynomial is irreducible of degree dim E: then E is a field.
    * E semisimple of dimension 4, noncommutative, whose trace-zero part
      squares to negative-definite scalars: a rational quaternion
      division algebra, which has no idempotents either.

    Anything else is reported as budget exhaustion, not as a proof.

    The search asks for it after the basis attempts and before the random
    candidates, which it skips on a certified piece: a split needs an
    element whose minimal polynomial has two distinct irreducible
    factors, and by the Chinese remainder theorem such an element has a
    polynomial in it that is an idempotent other than 0 and 1.

    No product of two pairs is built for the commutativity test or the
    quaternion table.  ab = ba on both parities exactly when ab - ba
    vanishes there, and ab + ba = c I exactly when ab + ba - c I vanishes;
    `_vanishes` decides each without building ab or ba.  ab + ba is
    symmetric in a and b, so the table is filled from i <= j alone.  The
    scalar c is read off the trace form: if ab + ba = c I on both
    parities, then 2 tr(ab) = tr(ab + ba) = c (dim_even + dim_odd), so c
    = 2 tr(ab) / dim, and `_vanishes` checks ab + ba = c I with that c.
    If ab + ba is c0 I on one parity and c1 I != c0 I on the other, or
    not scalar at all, no c passes on both parities and the verdict is
    EXHAUSTED, which reading c off any one entry of ab + ba also gives.  The
    traceless pairs are picked in order when their flattened rows are
    independent of the earlier ones, by one echelon basis of those rows:
    the rows have rank 3 exactly when three are picked.
    """
    module = f.module
    d = len(endos)
    semisimple_dim = _trace_form(endos).rank()
    if semisimple_dim == 1:
        return CERTIFIED
    if semisimple_dim != d:
        return EXHAUSTED

    if all(_vanishes([(1, x, y), (-1, y, x)])
           for i in range(d) for j in range(i + 1, d) for x, y in zip(endos[i], endos[j])):
        candidates = list(endos)
        for i in range(d):
            for j in range(i + 1, d):
                candidates.append((endos[i][0] + endos[j][0], endos[i][1] + endos[j][1]))
        for pair in candidates:
            minpoly = _minimal_polynomial(module, pair)
            if len(minpoly) - 1 == d:
                factors = _factor_rational_poly(minpoly)
                if len(factors) == 1 and factors[0][1] == 1:
                    return CERTIFIED
        return EXHAUSTED

    if d == 4:
        dim_total = module.dim_even + module.dim_odd
        ident = _pair_identity(module)
        traceless = []
        for pair in endos:
            tr = (_trace(pair[0]) + _trace(pair[1])) / dim_total
            shifted = (pair[0] - ident[0].scale(tr), pair[1] - ident[1].scale(tr))
            if not (shifted[0].is_zero() and shifted[1].is_zero()):
                traceless.append(shifted)
        picked, echelon = [], {}
        for pair in traceless:
            row = _reduced(echelon, _flat_ints(pair)[1])
            if row:
                _insert(echelon, row)
                picked.append(pair)
        if len(picked) != 3:
            return EXHAUSTED
        norms = [[2 * t / dim_total for t in row] for row in _trace_form(picked).entries]
        if not all(_vanishes([(1, x, y), (1, y, x)], Matrix.identity(x.rows), norms[i][j])
                   for i in range(3) for j in range(i, 3) for x, y in zip(picked[i], picked[j])):
            return EXHAUSTED
        # the trace-zero part squares to a negative definite form
        return CERTIFIED if _is_positive_definite(-Matrix(3, 3, norms)) else EXHAUSTED
    return EXHAUSTED


def _decompose_worker(f: SuperFiltration, candidates: int, rng) -> list[Summand]:
    module = f.module
    endos = filtered_endomorphisms(f)
    ident_even = Matrix.identity(module.dim_even)
    ident_odd = Matrix.identity(module.dim_odd)
    if module.dim_even + module.dim_odd == 0:
        return [Summand(f, ident_even, ident_odd, CERTIFIED)]
    split, status = _try_split(f, endos, candidates, rng)
    if split is None:
        return [Summand(f, ident_even, ident_odd, status)]
    out = []
    for w_even, w_odd in split:
        piece = _restrict_filtration(f, w_even, w_odd)
        for inner in _decompose_worker(piece, candidates, rng):
            out.append(Summand(
                inner.filtration,
                inner.embed_even * w_even.basis,
                inner.embed_odd * w_odd.basis,
                inner.status,
            ))
    return out


def decompose(f: SuperFiltration, candidates: int = 16, seed: int = 0) -> list[Summand]:
    """Split into gamma-invariant, filtration-split indecomposable pieces.

    Elements of the filtered endomorphism algebra whose minimal
    polynomial factors over Q produce splits (the factor projections are
    polynomials in the element, so flags split along).  Each piece tries
    the basis first, then `_certify_indecomposable`, and only when that
    does not certify, seeded random integer combinations.  A certified
    piece has no idempotent other than 0 and 1, so no element can split
    it and the random combinations are not tried.  Each unsplit piece
    carries a status: certified indecomposable when the endomorphism
    structure proves there is no idempotent, budget exhaustion
    otherwise.  Certificates are statements over the rationals; a
    certified summand may still split after extending scalars.  Raises
    CheckFailed unless check_filtration passes, and ValueError for a
    negative number of candidates.
    """
    if candidates < 0:
        raise ValueError("candidates must be nonnegative")
    require("filtration", check_filtration(_filtration(f)))
    rng = random.Random(seed)
    return _decompose_worker(f, candidates, rng)


@dataclass(frozen=True)
class InvariantReport:
    gr_dims: tuple[int, ...]
    source_dims: tuple[int, ...]
    summand_reports: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@lru_cache(maxsize=128)
def invariant_report(f: SuperFiltration) -> InvariantReport:
    """All computed invariants of one filtration, cached per object; the
    summand reports are the (gr dims, source dims) of each summand, sorted.
    Raises TypeError unless f is a SuperFiltration, and CheckFailed unless
    check_filtration passes.

    When f's module keeps a True `_indecomposable` (set by
    `filtration_search`, never here), the summand reports are f's own
    (gr, source) pair and `decompose` is not called.  The certificate
    says End(M), the graded commutant of the module M, has no idempotent
    but 0 and 1.  End(f) is a unital subalgebra of End(M), so an
    idempotent of End(f) is one of End(M), and is 0 or 1.  Every split
    `decompose` makes is along the factors of an element of End(f), and
    its factor projections are idempotent polynomials in that element,
    other than 0 and 1: none exists, so `decompose(f)` returns exactly
    one summand, whose filtration is f.  Only its status, which the
    report does not hold, could differ.
    """
    # f is checked first, here or by the decomposition, so the source
    # dimensions, kept on f and shared with an unsplit summand, see its
    # relations verdict
    if _filtration(f).module._indecomposable:
        require("filtration", check_filtration(f))
        summands = ((gr_dimensions(f), source_dimensions(f)),)
    else:
        summands = tuple(sorted(
            (gr_dimensions(s.filtration), source_dimensions(s.filtration)) for s in decompose(f)))
    return InvariantReport(gr_dimensions(f), source_dimensions(f), summands)


DISTINGUISHED = "DISTINGUISHED"
INDISTINGUISHABLE = "INDISTINGUISHABLE-BY-INVARIANTS"


@dataclass(frozen=True)
class ComparisonVerdict:
    verdict: str
    by: str | None

    def __bool__(self):
        return self.verdict == INDISTINGUISHABLE


def invariant_equal(a: SuperFiltration, b: SuperFiltration) -> ComparisonVerdict:
    """Compare all invariants; never claims the modules are isomorphic.

    Cheap invariants first, the summand multiset last (it is the only
    one that needs a decomposition).
    """
    if gr_dimensions(a) != gr_dimensions(b):
        return ComparisonVerdict(DISTINGUISHED, "gr_dims")
    if source_dimensions(a) != source_dimensions(b):
        return ComparisonVerdict(DISTINGUISHED, "source_dims")
    if invariant_report(a).summand_reports != invariant_report(b).summand_reports:
        return ComparisonVerdict(DISTINGUISHED, "summand_invariants")
    return ComparisonVerdict(INDISTINGUISHABLE, None)


# ---------------------------------------------------------------------------
# Randomized constructions

def _random_vector(dim: int, rng) -> tuple:
    if dim and rng.random() < 0.4:
        k = rng.randrange(dim)
        return tuple(Fraction(1 if c == k else 0) for c in range(dim))
    return tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))


def _filled(span: Subspace, target: int, rng, draws: int = 80) -> Subspace:
    """span plus random vectors until its dimension reaches target, or
    after `draws` vectors."""
    for _ in range(draws):
        if span.dim >= target:
            break
        span = span + Subspace.span(span.ambient, [_random_vector(span.ambient, rng)])
    return span


def _random_subspace(dim: int, target: int, rng) -> Subspace | None:
    """Random subspace of exactly the target dimension, a few retries."""
    for _ in range(25):
        span = _filled(Subspace.zero(dim), target, rng, draws=60)
        if span.dim == target:
            return span
    return None


def random_filtration(module: CliffordSupermodule, rng) -> SuperFiltration:
    """Seeded random valid filtration; always passes check_filtration.

    Flags are built upward from a random bottom by closing under the
    generator action plus a random enlargement, and forced full at the
    top two levels; every intermediate level therefore satisfies the
    compatibility condition by construction.  The lowest nonzero level
    is kept at degree 0 or 1 (the normalized form).
    """
    de, do = module.dim_even, module.dim_odd
    n = module.algebra.n
    m = rng.randint(1, n + 2)
    d0 = rng.randint(0, de) if m >= 2 else de
    if do == 0 and de > 0 and m >= 2:
        d0 = max(d0, 1)
    bottom = _random_subspace(de, d0, rng)
    if bottom is None:
        bottom = Subspace.full(de)
    flags = [bottom]
    for p in range(1, m + 1):
        ambient = module.dim(p % 2)
        span = _grown(module, p, flags[p - 1], flags[p - 2] if p >= 2 else Subspace.zero(ambient))
        if p >= m - 1:
            flags.append(Subspace.full(ambient))
            continue
        extra = rng.randint(0, ambient - span.dim)
        if p == 1 and bottom.dim == 0 and do > 0 and span.dim == 0:
            extra = max(extra, 1)
        flags.append(_filled(span, span.dim + extra, rng))
    f = SuperFiltration(module, flags[0::2], flags[1::2])
    cert = check_filtration(f)
    if not cert:
        raise RuntimeError(f"random filtration construction broke its contract: {cert.witness}")
    return f


def filtration_search(
    module: CliffordSupermodule, target_gr_dims, budget: int, seed: int = 0
) -> list[SuperFiltration]:
    """Randomized search for filtrations with the given graded dimensions.

    Seeds the bottom flag with random subspaces of the target dimension
    and extends upward by the generator closure plus random complements;
    finds are validated and deduplicated by `invariant_equal`, whose
    summand reports come from the bounded `invariant_report` cache.
    Raises CheckFailed unless check_supermodule passes.

    A candidate's gr dimensions are the target, so their comparison always
    matches: level p has dimension required[p], the sum of target[q] over
    q <= p of p's parity, so dim F_p - dim F_{p-2} is target[p], and
    levels 0 to len(target) - 1 make the top degree len(target) - 1.

    The finds are distinct by invariants, not up to isomorphism: no two
    share their gr dims, source dims and summand reports, and a candidate
    is dropped when all three match an earlier find's, whether or not it
    is isomorphic to that find.  So the finds count classes of
    invariants, not isomorphism classes.  A negative budget raises
    ValueError.

    Before its first comparison with a find, the search keeps on the
    module whether its graded commutant is certified to have no
    idempotent but 0 and 1 (`_certify_indecomposable` on the trivial
    filtration), False for a module with both parts zero.  On a certified
    module a candidate's summand reports are its own (gr, source) pair,
    with no decomposition (see `invariant_report`).

    A candidate's source dimensions are read off the spans the search
    builds.  For p >= 1, span_p is F_{p-2} plus the images of F_{p-1}
    under every generator.  With a generator g_0, F_{p-1} contains
    F_{p-2} g_0, from which it was grown, and v g_0 g_0 = G_00 v with
    G_00 > 0 by the relations the module passed, so F_{p-2} lies in
    F_{p-1} g_0 and span_p is the image span of F_{p-1} alone, the one
    `source_dimensions` reduces.  So source_p is required[p] - dim
    span_p, and source_0 is target[0], nothing lying below level 0.
    With no generator there are no images, and `source_dimensions`
    computes them as for any filtration.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    require("module", check_supermodule(module))
    target = tuple(int(t) for t in target_gr_dims)
    if len(target) < 2 or any(t < 0 for t in target):
        raise ValueError("need at least levels 0 and 1 with nonnegative entries")
    even_total = sum(target[0::2])
    odd_total = sum(target[1::2])
    if even_total != module.dim_even or odd_total != module.dim_odd:
        raise ValueError(
            f"target parity sums ({even_total}, {odd_total}) do not match module "
            f"dimensions ({module.dim_even}, {module.dim_odd})"
        )
    rng = random.Random(seed)
    m = len(target) - 1
    required = []
    for p in range(m + 1):
        required.append(sum(target[p % 2:p + 1:2]))
    found: list[SuperFiltration] = []
    for _ in range(budget):
        bottom = _random_subspace(module.dim_even, target[0], rng)
        if bottom is None:
            continue
        flags = [bottom]
        sources = [target[0]]
        ok = True
        for p in range(1, m + 1):
            span = _grown(module, p, flags[p - 1],
                          flags[p - 2] if p >= 2 else Subspace.zero(module.dim(p % 2)))
            if span.dim > required[p]:
                ok = False
                break
            sources.append(required[p] - span.dim)
            span = _filled(span, required[p], rng)
            if span.dim != required[p]:
                ok = False
                break
            flags.append(span)
        if not ok:
            continue
        candidate = SuperFiltration(module, flags[0::2], flags[1::2])
        if not check_filtration(candidate):
            continue
        if module.algebra.n:
            candidate._sources = tuple(sources)
        if found and module._indecomposable is None:
            module._indecomposable = bool(module.dim_even + module.dim_odd) and (
                _certify_indecomposable(trivial_filtration(module), module.graded_commutant())
                == CERTIFIED)
        if any(invariant_equal(g, candidate) for g in found):
            continue
        found.append(candidate)
    return found
