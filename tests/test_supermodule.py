import random
from fractions import Fraction

import pytest

import oracle
from cliffilt.bifiltration import BifilteredSupermodule, check_bifiltered_module, tensor_module
from cliffilt.clifford import CliffordAlgebra
from cliffilt.deformation import deform, verify_offshell
from cliffilt.exactalg import Matrix, Subspace, _vanishes
from cliffilt.invariants import filtered_endomorphisms, random_filtration
from cliffilt import supermodule
from cliffilt.supermodule import (
    CliffordSupermodule,
    FilteredModule,
    SuperFiltration,
    check_filtration,
    check_supermodule,
    degree_filtration,
    direct_sum,
    direct_sum_filtration,
    exterior_module,
    hodge_filtration,
    irreducible_cl5,
    irreducible_module,
    kron,
    trivial_filtration,
)
from oracle import grid


def test_exterior_modules_satisfy_relations():
    for n in range(1, 6):
        assert check_supermodule(exterior_module(n)), n


def test_irreducible_modules_satisfy_relations():
    for n in range(1, 5):
        assert check_supermodule(irreducible_module(n)), n
    m = irreducible_cl5()
    assert check_supermodule(m)
    assert (m.dim_even, m.dim_odd) == (8, 8)


def test_exterior_gamma_is_involution():
    # wedge plus contraction squares to the identity for the standard metric
    for n in (1, 2, 3, 4):
        m = exterior_module(n)
        for i in range(n):
            assert m.gamma(i, 0) * m.gamma(i, 1) == Matrix.identity(m.dim_even)
            assert m.gamma(i, 1) * m.gamma(i, 0) == Matrix.identity(m.dim_odd)


def test_degree_filtration_valid():
    for n in range(1, 5):
        f = degree_filtration(exterior_module(n))
        assert check_filtration(f)
        # flag dims are partial sums of binomials split by parity
        assert f.level(0).dim == 1
        assert f.level(1).dim == n


def test_checked_filtration_keeps_its_verdict():
    # check_filtration keeps its verdict on the filtration, whose flags and
    # gamma maps are read-only
    f = degree_filtration(exterior_module(3))
    assert check_filtration(f) is check_filtration(f)
    with pytest.raises(TypeError):
        f.flags[(0,)] = Subspace.full(4)
    with pytest.raises(TypeError):
        f.gammas[0][0][(0,)] = f.module.gamma_oe[0]


def test_hodge_filtration_valid_and_distinct():
    f = hodge_filtration(exterior_module(4))
    assert check_filtration(f)
    d = degree_filtration(exterior_module(4))
    assert f.level(0) != d.level(0)
    assert f.level(0).dim == 1 and f.level(1).dim == 4 and f.level(2).dim == 7


def test_trivial_filtration():
    m = exterior_module(2)
    f = trivial_filtration(m)
    assert check_filtration(f)
    assert f.level(0).dim == m.dim_even and f.level(1).dim == m.dim_odd


def test_removing_top_flag_breaks_exhaustiveness():
    f = degree_filtration(exterior_module(3))
    cut = SuperFiltration(f.module, list(f.even_flags), list(f.odd_flags)[:-1])
    cert = check_filtration(cut)
    assert not cert
    assert cert.witness["kind"] == "exhaustive"


def test_corrupt_flag_rejected_with_witness():
    f = degree_filtration(exterior_module(3))
    # break nesting: F_2 no longer contains F_0
    flags = list(f.even_flags)
    flags[1] = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    bad = SuperFiltration(f.module, flags, list(f.odd_flags))
    cert = check_filtration(bad)
    assert not cert and cert.witness["kind"] == "nesting"


def test_gamma_compat_violation_detected():
    m = exterior_module(2)
    # F_0 spans the scalar, F_1 empty, so gamma(F_0) escapes F_1
    even = [Subspace.span(2, [[1, 0]]), Subspace.full(2)]
    odd = [Subspace.zero(2), Subspace.full(2)]
    bad = SuperFiltration(m, even, odd)
    cert = check_filtration(bad)
    assert not cert
    assert cert.witness["kind"] == "compatibility"


def test_direct_sum_module_and_filtration():
    a = degree_filtration(exterior_module(1))
    b = degree_filtration(exterior_module(1))
    s = direct_sum_filtration(a, b)
    assert check_filtration(s)
    assert s.module.dim_even == 2 and s.module.dim_odd == 2
    assert s.level(0).dim == a.level(0).dim + b.level(0).dim

    summed = direct_sum(exterior_module(2), exterior_module(2))
    assert check_supermodule(summed)


def test_graded_commutant_commutes_with_action():
    m = exterior_module(2)
    for p_even, p_odd in m.graded_commutant():
        for i in range(m.algebra.n):
            assert p_even * m.gamma(i, 0) == m.gamma(i, 0) * p_odd
            assert p_odd * m.gamma(i, 1) == m.gamma(i, 1) * p_even


def test_supermodule_relation_defect_caught():
    m = exterior_module(2)
    broken = CliffordSupermodule(
        m.algebra,
        [m.gamma_eo[0], m.gamma_eo[1].scale(2)],
        list(m.gamma_oe),
    )
    cert = check_supermodule(broken)
    assert not cert and cert.witness is not None


def test_gamma_entry_mutants_rejected():
    # a changed entry E of g_i breaks {g_i, g_i} = 2 G[i][i]: the change
    # to g_i g_i is E times the other factor, which is invertible
    rng = random.Random(53)
    modules = [exterior_module(n) for n in range(1, 5)]
    modules += [irreducible_module(n) for n in range(1, 6)]
    for _ in range(80):
        m = modules[rng.randrange(len(modules))]
        f = random_filtration(m, rng)
        gammas = [list(m.gamma_eo), list(m.gamma_oe)]
        side, i = rng.randrange(2), rng.randrange(m.algebra.n)
        target = gammas[side][i]
        rows = [list(r) for r in target.entries]
        rows[rng.randrange(target.rows)][rng.randrange(target.cols)] += rng.choice([1, -1, 2])
        gammas[side][i] = Matrix(target.rows, target.cols, rows)
        mutant = CliffordSupermodule(m.algebra, *gammas)
        cert = check_filtration(SuperFiltration(mutant, f.even_flags, f.odd_flags))
        assert not cert and cert.check == "supermodule_relations"


def test_level_fetcher_stabilizes():
    f = degree_filtration(exterior_module(3))
    top = f.top_degree
    assert f.level(-1).dim == 0
    assert f.level(-2).dim == 0
    assert f.level(top + 2) == f.level(top)
    assert f.level(top + 4) == f.level(top)


def test_mismatched_flag_ambient_rejected():
    m = exterior_module(2)
    with pytest.raises(ValueError):
        SuperFiltration(m, [Subspace.zero(3), Subspace.full(3)],
                        [Subspace.zero(2), Subspace.full(2)])


def test_declared_dimensions_must_match_the_gammas():
    m = exterior_module(2)
    eo, oe = list(m.gamma_eo), list(m.gamma_oe)
    assert CliffordSupermodule(m.algebra, eo, oe, dim_even=2, dim_odd=2) == m
    for dims in ((3, 2), (2, 99), (99, 99)):
        with pytest.raises(ValueError, match="wrong shape"):
            CliffordSupermodule(m.algebra, eo, oe, *dims)
    with pytest.raises(ValueError, match="dimensions required"):
        CliffordSupermodule(CliffordAlgebra(0), [], [], dim_even=2)


def test_filtrations_take_the_module_gammas_checked(monkeypatch):
    # a gamma of the wrong shape is rejected by the module's constructor,
    # and a filtration checks only its flags against the module's gammas
    m = exterior_module(2)
    eo, oe = list(m.gamma_eo), list(m.gamma_oe)
    for bad in (Matrix.zeros(2, 3), Matrix.zeros(3, 2), Matrix.zeros(1, 2)):
        for gammas in (([bad, *eo[1:]], oe), (eo, [*oe[:-1], bad])):
            with pytest.raises(ValueError, match="wrong shape"):
                CliffordSupermodule(m.algebra, *gammas)
    checked = []
    original = supermodule._check_maps
    monkeypatch.setattr(supermodule, "_check_maps", lambda *a: checked.append(a) or original(*a))
    module = CliffordSupermodule(m.algebra, eo, oe)
    assert len(checked) == m.algebra.n  # one call per generator's pair
    f = degree_filtration(module)
    assert len(checked) == m.algebra.n and f.gammas is module.gammas and check_filtration(f)
    with pytest.raises(TypeError, match="expected a CliffordSupermodule, got SuperFiltration"):
        SuperFiltration(f, f.even_flags, f.odd_flags)


def test_module_equality_and_hash():
    a, b = exterior_module(2), exterior_module(2)
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert a != trivial_filtration(a)
    scaled = CliffordSupermodule(a.algebra, [a.gamma_eo[0].scale(2), a.gamma_eo[1]],
                                 list(a.gamma_oe))
    assert scaled != a and hash(scaled) != hash(a)
    empty = CliffordAlgebra(0)
    assert CliffordSupermodule(empty, [], [], 2, 3) == CliffordSupermodule(empty, [], [], 2, 3)
    assert CliffordSupermodule(empty, [], [], 2, 3) != CliffordSupermodule(empty, [], [], 3, 2)


def test_module_is_the_k1_filtered_module_with_full_flags(monkeypatch):
    m = irreducible_module(3)
    assert isinstance(m, FilteredModule)
    assert all(flag.is_full for flag in m.flags.values())
    assert m.gamma_eo == tuple(m.gamma(i, 0) for i in range(3))

    def refuse(*args):
        raise AssertionError("check_supermodule built a filtration")

    monkeypatch.setattr(supermodule.SuperFiltration, "__init__", refuse)
    assert check_supermodule(m) and check_supermodule(m) is m._verdict


def test_gram_table_is_built_once_per_algebra(monkeypatch):
    # the module relations of two modules on one algebra and the relations
    # of a deformation all read one read-only table of 2 G[i][j]
    reads, table = [], CliffordAlgebra._twice_gram
    monkeypatch.setattr(CliffordAlgebra, "_twice_gram",
                        property(lambda a: reads.append(table.__get__(a)) or reads[-1]))
    m = exterior_module(3)
    again = CliffordSupermodule(m.algebra, m.gamma_eo, m.gamma_oe)
    assert check_supermodule(m) and check_supermodule(again)
    assert verify_offshell(deform(degree_filtration(m)))
    assert len(reads) == 3 and all(t is reads[0] for t in reads)
    assert reads[0] == ((2, 0, 0), (0, 2, 0), (0, 0, 2)) and isinstance(reads[0][0], tuple)


def test_grid_table_matches_the_formulas():
    # every entry of the table of each tops, k = 1 and 2, up to (6, 6):
    # the package's formulas and the oracle's; one read-only table per
    # tops, in a cache of finite size
    from itertools import product

    from cliffilt.supermodule import _corner, _fold, _geometry, _parity, _points, _step

    shapes = [(t,) for t in range(1, 7)] + list(product(range(1, 7), repeat=2))
    for tops in shapes:
        table = _geometry(tops)
        assert table.points == tuple(_points(tops)) == tuple(oracle._points(tops))
        assert table.members == set(table.points) and _geometry(tops) is table
        for x in table.points:
            assert table.parity[x] == _parity(x) == oracle.parity(x)
            for d in range(len(tops)):
                assert table.up[d][x] == _fold(_step(x, d, 1), tops) == \
                    oracle._fold(oracle._up(x, d, 1), tops)
                assert table.up2[d][x] == _fold(_step(x, d, 2), tops) == \
                    oracle._fold(oracle._up(x, d, 2), tops)
        corners = {c: _corner(c, tops) for c in product((0, 1), repeat=len(tops))}
        assert dict(table.corners) == corners
        assert corners == {c: oracle._corner(c, tops) for c in corners}
        with pytest.raises(TypeError):
            table.up[0][table.points[0]] = table.points[0]
    maxsize = _geometry.cache_info().maxsize
    assert isinstance(maxsize, int) and len(shapes) <= maxsize <= 1024


def test_random_gram_module_relations():
    rng = random.Random(31)
    # exterior model only covers the identity Gram; conjugating by a random
    # invertible change of basis must preserve the certificate
    m = exterior_module(2)
    for _ in range(10):
        while True:
            p = Matrix(2, 2, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            q = Matrix(2, 2, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            if p.rank() == 2 and q.rank() == 2:
                break
        p_inv = _inverse(p)
        q_inv = _inverse(q)
        conj = CliffordSupermodule(
            m.algebra,
            [p_inv * g * q for g in m.gamma_eo],
            [q_inv * g * p for g in m.gamma_oe],
        )
        assert check_supermodule(conj)


def _inverse(m: Matrix) -> Matrix:
    from cliffilt.exactalg import rref

    aug = Matrix(m.rows, 2 * m.cols,
                 [list(row) + [1 if i == j else 0 for j in range(m.cols)]
                  for i, row in enumerate(m.entries)])
    reduced, _ = rref(aug)
    return Matrix(m.rows, m.cols, [list(row[m.cols:]) for row in reduced.entries])


# ---------------------------------------------------------------------------
# The first witness of each check, pinned key by key: one single-defect
# mutant per witness kind.  Key order is part of the serialized output.


def _ext2_squared():
    f = degree_filtration(exterior_module(2))
    return tensor_module(f, f)


def _bifiltered(replace_flags=(), replace_plus=(), replace_minus=(), base=None):
    """A copy of `base` (degree(ext2) tensor degree(ext2) by default) with
    flags {(m, n): Subspace} and gamma entries {(i, comp): Matrix} replaced."""
    base = base or _ext2_squared()
    flags = [list(row) for row in base.biflags]
    for (m, n), flag in dict(replace_flags).items():
        flags[m][n] = flag
    plus = [dict(g) for g in base.gamma_plus]
    for (i, comp), mat in dict(replace_plus).items():
        plus[i][comp] = mat
    minus = [dict(g) for g in base.gamma_minus]
    for (j, comp), mat in dict(replace_minus).items():
        minus[j][comp] = mat
    return BifilteredSupermodule(base.plus_algebra, base.minus_algebra, base.dims,
                                 plus, minus, flags)


def _relations_mutant():
    m = exterior_module(2)
    return CliffordSupermodule(m.algebra, [m.gamma_eo[0], m.gamma_eo[1].scale(2)],
                               list(m.gamma_oe))


def _nesting_mutant():
    f = degree_filtration(exterior_module(4))
    two_forms = [[1 if c == k else 0 for c in range(8)] for k in range(1, 7)]
    even = [f.even_flags[0], Subspace.span(8, two_forms), f.even_flags[2]]
    return SuperFiltration(f.module, even, f.odd_flags)


def _exhaustive_mutant():
    f = degree_filtration(exterior_module(3))
    return SuperFiltration(f.module, f.even_flags, f.odd_flags[:-1])


def _compatibility_mutant():
    m = exterior_module(2)
    return SuperFiltration(m, [Subspace.span(2, [[1, 0]]), Subspace.full(2)],
                           [Subspace.zero(2), Subspace.full(2)])


def _gamma(side, i, comp):
    base = _ext2_squared()
    return (base.gamma_plus if side == "plus" else base.gamma_minus)[i][comp]


def _trivial_corner_mutant():
    point = trivial_filtration(CliffordSupermodule(CliffordAlgebra(0), [], [], 1, 0))
    return _bifiltered({(0, 0): Subspace.zero(1)}, base=tensor_module(point, point))


WITNESSES = {
    "supermodule_relations": (
        lambda: check_supermodule(_relations_mutant()),
        "supermodule_relations", {"i": 0, "j": 1, "parity": 0}),
    "nesting": (
        lambda: check_filtration(_nesting_mutant()),
        "filtration", {"kind": "nesting", "parity": 0, "level": 0}),
    "exhaustive": (
        lambda: check_filtration(_exhaustive_mutant()),
        "filtration", {"kind": "exhaustive", "parity": 1}),
    "compatibility": (
        lambda: check_filtration(_compatibility_mutant()),
        "filtration", {"kind": "compatibility", "generator": 0, "level": 0}),
    "plus_relation": (
        lambda: check_bifiltered_module(_bifiltered(replace_plus={
            (0, (0, 0)): _gamma("plus", 0, (0, 0)).scale(2)})),
        "bifiltered_module", {"kind": "plus_relation", "i": 0, "j": 0, "component": (0, 0)}),
    "minus_relation": (
        lambda: check_bifiltered_module(_bifiltered(replace_minus={
            (0, (0, 0)): _gamma("minus", 0, (0, 0)).scale(2)})),
        "bifiltered_module", {"kind": "minus_relation", "i": 0, "j": 0, "component": (0, 0)}),
    "families_commute": (
        # drop the sign twist of the minus family on the a = 1 half
        lambda: check_bifiltered_module(_bifiltered(replace_minus={
            (0, comp): -_gamma("minus", 0, comp) for comp in ((1, 0), (1, 1))})),
        "bifiltered_module", {"kind": "families_commute", "i": 0, "j": 0, "component": (0, 0)}),
    "nesting_plus": (
        lambda: check_bifiltered_module(_bifiltered({(2, 0): Subspace.span(4, [[0, 0, 1, 0]])})),
        "bifiltered_module", {"kind": "nesting_plus", "m": 0, "n": 0}),
    "nesting_minus": (
        lambda: check_bifiltered_module(_bifiltered({(0, 2): Subspace.span(4, [[0, 1, 0, 0]])})),
        "bifiltered_module", {"kind": "nesting_minus", "m": 0, "n": 0}),
    "compatibility_plus": (
        lambda: check_bifiltered_module(_bifiltered({(1, 0): Subspace.zero(4)})),
        "bifiltered_module", {"kind": "compatibility_plus", "i": 0, "m": 0, "n": 0}),
    "compatibility_minus": (
        lambda: check_bifiltered_module(_bifiltered({(0, 1): Subspace.zero(4)})),
        "bifiltered_module", {"kind": "compatibility_minus", "j": 0, "m": 0, "n": 0}),
    "exhaustive_2d": (
        lambda: check_bifiltered_module(_trivial_corner_mutant()),
        "bifiltered_module", {"kind": "exhaustive", "m": 0, "n": 0}),
}


@pytest.mark.parametrize("kind", sorted(WITNESSES))
def test_first_witness_of_each_kind(kind):
    run, check, witness = WITNESSES[kind]
    cert = run()
    assert not cert
    assert cert.check == check
    assert list(cert.witness.items()) == list(witness.items())


def _is_scalar(a: Matrix, b: Matrix, s) -> bool:
    """Whether a + b = s I, entry by entry."""
    n = a.rows
    return oracle.combination([(1, grid(a)), (1, grid(b))], n, n) == \
        oracle.combination([(s, oracle.identity(n))], n, n)


def _scalar_pairs():
    """(a, b, s) with a + b = s I or one entry away from it: denominators
    on both sides or on one, s = 0, products from the kernel, and a and b
    the same."""
    rng = random.Random(67)
    for _ in range(300):
        n = rng.randint(0, 5)
        da, db = rng.choice((1, 2, 6, 10**6)), rng.choice((1, 3, 10**6 + 3))
        s = rng.choice((0, 0, 1, 2, Fraction(1, 2), Fraction(-4, 3)))
        a = Matrix(n, n, [[Fraction(rng.randint(-9, 9), rng.randint(1, da)) if rng.random() < 0.6
                           else 0 for _ in range(n)] for _ in range(n)])
        if rng.random() < 0.3:  # a product, whose integer form comes with it
            a = a * Matrix.identity(n).scale(Fraction(1, db))
        rest = Matrix.identity(n).scale(s) - a
        b = Matrix(n, n, [list(row) for row in rest.entries])
        yield a, b, s
        if n:
            r, c = rng.randrange(n), rng.randrange(n)
            bump = [[Fraction(rng.choice((-1, 1)), rng.randint(1, db)) if (i, j) == (r, c) else 0
                     for j in range(n)] for i in range(n)]
            yield a, b + Matrix(n, n, bump), s  # one entry off (diagonal when r == c)
            yield a, b, s + Fraction(1, db)
        yield a, a, s
        twice = a.scale(Fraction(1, 2))
        yield twice, twice, s
        # the denominator of s on one side only, so the sides' d differ
        c = Matrix(n, n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        lifted = c + Matrix.identity(n).scale(s)
        yield lifted, -c, s
        yield -c, lifted, s


def test_is_scalar_matches_entrywise_oracle():
    # a + b = s I as one call: the terms a I and b I against the target I
    outcomes = set()
    for a, b, s in _scalar_pairs():
        one = Matrix.identity(a.rows)
        got = _vanishes([(1, a, one), (1, b, one)], one, s)
        assert got == _is_scalar(a, b, s), (a, b, s)
        outcomes.add((got, s == 0))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_is_scalar_on_module_relations():
    # {g_i, g_j} over the odd-to-even round trip of Cl(5) and of exterior(3)
    for m in (irreducible_cl5(), exterior_module(3)):
        gram = m.algebra.gram.entries
        for i in range(m.algebra.n):
            for j in range(m.algebra.n):
                gh = m.gamma_eo[i] * m.gamma_oe[j]
                hg = m.gamma_eo[j] * m.gamma_oe[i]
                terms = [(1, m.gamma_eo[i], m.gamma_oe[j]), (1, m.gamma_eo[j], m.gamma_oe[i])]
                for s in (2 * gram[i][j], 2 * gram[i][j] + 1, 0):
                    got = _vanishes(terms, Matrix.identity(m.dim_even), s)
                    assert got == _is_scalar(gh, hg, s)


# ---------------------------------------------------------------------------
# Kronecker products on integer forms, and the flags of tensor_module


def _form(m: Matrix) -> tuple:
    """The integer form with each row as a tuple of its pairs."""
    d, rows = m._ints()
    return d, tuple(tuple(row) for row in rows)


def _random_rational_matrix(rng, top: int) -> Matrix:
    rows, cols = rng.randint(0, 4), rng.randint(0, 4)
    return Matrix(rows, cols, [
        [Fraction(rng.randint(-top, top), rng.randint(1, top)) if rng.random() < 0.6 else 0
         for _ in range(cols)] for _ in range(rows)])


def test_kron_matches_the_oracle():
    rng = random.Random(113)
    empty = 0
    for _ in range(300):
        top = rng.choice((3, 10**6))
        a, b = _random_rational_matrix(rng, top), _random_rational_matrix(rng, top)
        got = kron(a, b)
        want = Matrix(a.rows * b.rows, a.cols * b.cols, oracle.kron(grid(a), grid(b)))
        assert got._entries is None
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert _form(got) == _form(want)
        assert got.entries == want.entries
        assert got == want and hash(got) == hash(want)
        empty += 0 in (got.rows, got.cols)
    assert empty
    # the least d: 1/2 (x) 2 is 1 over 1, not 2 over 2
    one = kron(Matrix(1, 1, [[Fraction(1, 2)]]), Matrix(1, 1, [[2]]))
    assert _form(one) == (1, (((0, 1),),))
    assert one == Matrix.identity(1)


def test_tensor_flags_are_row_spaces_of_kronecker_products():
    # the Kronecker product of two reduced echelon bases is one, so each
    # flag is the row space of kron of the factors' levels, basis and pivots
    rng = random.Random(127)
    fractional = 0
    for _ in range(12):
        fp = random_filtration(exterior_module(rng.randint(0, 3)), rng)
        fm = random_filtration(exterior_module(rng.randint(0, 3)), rng)
        bf = tensor_module(fp, fm)
        for (m, n), flag in bf.flags.items():
            want = Subspace.row_space(kron(fp.level(m).basis, fm.level(n).basis))
            assert flag.ambient == want.ambient
            assert flag.basis == want.basis and flag.pivots == want.pivots
            fractional += flag.basis._ints()[0] > 1
    assert fractional


def test_tensor_module_builds_no_fraction_grid():
    f = degree_filtration(exterior_module(2))
    bf = tensor_module(f, f)
    for family in bf.gammas:
        for gamma in family:
            assert all(m._entries is None for m in gamma.values())
    assert all(flag.basis._entries is None for flag in bf.flags.values())


def test_commutant_and_endomorphisms_build_no_fraction_grid():
    # the commutant's pairs come from the kernel's integer rows, and the
    # filtered endomorphisms are integer combinations of them
    for m in (exterior_module(3), irreducible_module(3), exterior_module(0)):
        for pair in m.graded_commutant():
            assert all(x._entries is None for x in pair)
        for pair in filtered_endomorphisms(degree_filtration(m) if m.algebra.n else
                                           trivial_filtration(m)):
            assert all(x._entries is None for x in pair)


def _block(x: Matrix, y: Matrix) -> Matrix:
    return Matrix(x.rows + y.rows, x.cols + y.cols,
                  oracle.block_diagonal(grid(x), grid(y), x.cols, y.cols))


def _random_module(rng, n: int, dims) -> CliffordSupermodule:
    """Rational gamma matrices of the right shapes; relations not imposed."""
    def mat(rows, cols):
        return Matrix(rows, cols, [[Fraction(rng.randint(-4, 4), rng.randint(1, 9))
                                    for _ in range(cols)] for _ in range(rows)])

    return CliffordSupermodule(CliffordAlgebra(n), [mat(*dims) for _ in range(n)],
                               [mat(*dims[::-1]) for _ in range(n)], *dims)


def test_direct_sums_match_the_oracle():
    rng = random.Random(131)
    by_n = {n: [exterior_module(n), irreducible_module(n)] for n in (1, 2, 3, 4)}
    by_n[0] = [exterior_module(0), CliffordSupermodule(CliffordAlgebra(0), [], [], 2, 1)]
    unequal = zero_levels = 0
    for k in range(120):
        n = k % 5
        fa = random_filtration(rng.choice(by_n[n]), rng)
        fb = random_filtration(rng.choice(by_n[n]), rng)
        got = direct_sum_filtration(fa, fb)
        assert [got.module.gamma(i, c) for i in range(n) for c in (0, 1)] == [
            _block(fa.module.gamma(i, c), fb.module.gamma(i, c)) for i in range(n) for c in (0, 1)]
        assert got.top_degree == max(fa.top_degree, fb.top_degree)
        for (p,), flag in got.flags.items():
            # the levelwise sum, in reduced row-echelon form
            c = (p % 2,)
            rows, pivots = oracle.rref(oracle.block_diagonal(
                grid(fa.level(p).basis), grid(fb.level(p).basis), fa.dims[c], fb.dims[c]),
                got.dims[c])
            assert flag.basis.entries == tuple(map(tuple, rows)) and flag.pivots == pivots
        assert check_filtration(got)
        unequal += fa.top_degree != fb.top_degree
        zero_levels += any(not flag.dim for flag in (*fa.flags.values(), *fb.flags.values()))
    assert unequal >= 30 and zero_levels >= 10
    for _ in range(40):
        n = rng.randint(0, 3)
        dims = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(2)]
        a, b = (_random_module(rng, n, d) for d in dims)
        got = direct_sum(a, b)
        want = [_block(x, y) for x, y in zip(a.gamma_eo + a.gamma_oe, b.gamma_eo + b.gamma_oe)]
        assert (got.dim_even, got.dim_odd) == (a.dim_even + b.dim_even, a.dim_odd + b.dim_odd)
        assert [_form(m) for m in got.gamma_eo + got.gamma_oe] == [_form(m) for m in want]


def test_direct_sum_filtration_makes_no_elimination(eliminations):
    rng = random.Random(137)
    pairs = [(random_filtration(irreducible_module(4), rng),
              random_filtration(irreducible_module(4), rng)),
             (degree_filtration(exterior_module(4)), hodge_filtration(exterior_module(4)))]
    eliminations.clear()
    sums = [direct_sum_filtration(fa, fb) for fa, fb in pairs]
    assert eliminations == []
    assert all(check_filtration(s) for s in sums)
