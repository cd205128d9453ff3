"""Twisted tensor products, bifiltered modules, and the d=2 layer."""

import random
from fractions import Fraction

import pytest

from cliffilt import bifiltration, deformation, exactalg
from cliffilt.bifiltration import (
    BifilteredSupermodule,
    BiGradedRep,
    bideform,
    biquotient,
    canonical_biroundtrip_iso,
    check_bifiltered_module,
    check_twisted_tensor,
    tensor_module,
    total_module,
    twisted_tensor,
    verify_2d,
)
from cliffilt.certificate import CheckFailed, passing
from cliffilt.clifford import CliffordAlgebra
from cliffilt.deformation import OffShellRep, deform, quotient_at, verify_offshell
from cliffilt.exactalg import Matrix, Subspace
from cliffilt.invariants import random_filtration
from cliffilt.supermodule import (
    SuperFiltration,
    check_supermodule,
    degree_filtration,
    direct_sum_filtration,
    exterior_module,
    irreducible_module,
    trivial_filtration,
)
from oracle import bumped


def test_twisted_tensor_cl2_cl3_closes_cl5():
    t = twisted_tensor(CliffordAlgebra(2), CliffordAlgebra(3))
    assert check_twisted_tensor(t)
    assert check_bifiltered_module(t.module)
    # the combined generators of the regular module close Cl(5)
    total = total_module(t.module)
    for i in range(5):
        for j in range(5):
            for c in (0, 1):
                anti = total.gamma(i, c) * total.gamma(j, 1 - c) + total.gamma(j, c) * total.gamma(i, 1 - c)
                want = Matrix.identity(total.dim(c)).scale(2 if i == j else 0)
                assert anti == want, (i, j, c)


def _identification(p, q):
    """exterior_module(p + q), and the permutation (I, J) -> I u (J + p) as
    two 0/1 matrices, from the monomial orders of Cl(p), Cl(q), Cl(p + q)."""
    subsets = [[[s for s in CliffordAlgebra(n).monomials if len(s) % 2 == c] for c in (0, 1)]
               for n in (p, q, p + q)]
    perms = []
    for c, parts in ((0, ((0, 0), (1, 1))), (1, ((0, 1), (1, 0)))):
        target = subsets[2][c]
        rows = [[1 if t == i + tuple(j + p for j in jj) else 0 for t in target]
                for a, b in parts for i in subsets[0][a] for jj in subsets[1][b]]
        perms.append(Matrix(len(rows), len(target), rows))
    return exterior_module(p + q), perms


def test_twisted_embedding_is_algebra_iso():
    for p, q in ((1, 2), (2, 2), (0, 3), (3, 1)):
        t = twisted_tensor(CliffordAlgebra(p), CliffordAlgebra(q))
        assert check_twisted_tensor(t)
        ambient, perms = _identification(p, q)
        for perm in perms:
            # each basis pair goes to one monomial, and each monomial is hit once
            assert perm.rows == perm.cols
            assert perm * perm.transpose() == Matrix.identity(perm.rows)
        total = total_module(t.module)
        for k in range(p + q):
            for c in (0, 1):
                assert total.gamma(k, c) * perms[1 - c] == perms[c] * ambient.gamma(k, c), (p, q, k, c)


def test_twisted_tensor_builds_on_first_use():
    t = twisted_tensor(CliffordAlgebra(2), CliffordAlgebra(1))
    assert "module" not in vars(t)
    assert t.module is t.module
    assert t.module == tensor_module(degree_filtration(exterior_module(2)),
                                     degree_filtration(exterior_module(1)))


def test_twisted_rejects_general_gram():
    gram = Matrix(2, 2, [[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        twisted_tensor(CliffordAlgebra(2, gram), CliffordAlgebra(1))


def _word_image(bf, word, x):
    """Rows of F_x times the generators of `word` ((family, index) pairs),
    the last applied first, with the component they land in."""
    rows, c = bf.flags[x].basis, tuple(v % 2 for v in x)
    for d, i in reversed(word):
        rows = rows * bf.gammas[d][i][c]
        c = tuple(v ^ (e == d) for e, v in enumerate(c))
    return rows


def test_twisted_bifiltration_product_rule():
    # a basis pair (I, J) of level (m1, n1) acts as the word g+_I g-_J; it
    # carries level (m2, n2) of the regular module into (m1 + m2, n1 + n2)
    t = twisted_tensor(CliffordAlgebra(2), CliffordAlgebra(2))
    bf = t.module
    for m1, n1, m2, n2 in ((1, 0, 1, 1), (2, 1, 0, 1), (1, 2, 1, 0)):
        target = bf.flags[(m1 + m2, n1 + n2)]
        for i in t.left.monomials:
            for jj in t.right.monomials:
                if len(i) > m1 or (m1 - len(i)) % 2 or len(jj) > n1 or (n1 - len(jj)) % 2:
                    continue
                word = [(0, a) for a in i] + [(1, b) for b in jj]
                image = _word_image(bf, word, (m2, n2))
                assert all(target.contains(row) for row in image.entries), (i, jj)


def _mutant(bf, gammas=None, flags=None):
    gp, gm = gammas or bf.gammas
    grid = dict(bf.flags) | (flags or {})
    biflags = [[grid[(m, n)] for n in range(bf.top_minus + 1)] for m in range(bf.top_plus + 1)]
    return BifilteredSupermodule(bf.plus_algebra, bf.minus_algebra, bf.dims, gp, gm, biflags)


def _sign_flipped_minus(bf):
    gm = [dict(g) for g in bf.gamma_minus]
    block = [list(row) for row in gm[0][(0, 0)].entries]
    k = next(c for c, x in enumerate(block[0]) if x)
    block[0][k] = -block[0][k]
    gm[0][(0, 0)] = Matrix(len(block), len(block[0]), block)
    return _mutant(bf, (bf.gamma_plus, gm))


def _untwisted_minus(bf):
    # the Koszul sign dropped: the minus family commutes with the plus one
    gm = [{c: g[c].scale(-1) if c[0] else g[c] for c in g} for g in bf.gamma_minus]
    return _mutant(bf, (bf.gamma_plus, gm))


def _unit_level_full(bf):
    return _mutant(bf, flags={(0, 0): Subspace.full(bf.dims[(0, 0)])})


def _coarse_bifiltration(bf):
    # the same generators, but the larger factor all at levels 0 and 1:
    # a bifiltered module, not the word-length bifiltration
    p, q = bf.plus_algebra.n, bf.minus_algebra.n
    f = [degree_filtration(exterior_module(n)) for n in (p, q)]
    f[p < q] = trivial_filtration(f[p < q].module)
    return tensor_module(*f)


def _first_plus_negated(bf):
    gp = [dict(g) for g in bf.gamma_plus]
    gp[0] = {c: m.scale(-1) for c, m in gp[0].items()}
    return _mutant(bf, (gp, bf.gamma_minus))


def _minus_factor_doubled(bf):
    f = degree_filtration(exterior_module(bf.minus_algebra.n))
    return tensor_module(degree_filtration(exterior_module(bf.plus_algebra.n)),
                         direct_sum_filtration(f, f))


_FLAG_KINDS = ("nesting_plus", "nesting_minus", "compatibility_plus", "compatibility_minus")


@pytest.mark.parametrize("mutate, rejected_by, kinds", [
    (_sign_flipped_minus, "bifiltered_module", ("minus_relation",)),
    (_untwisted_minus, "bifiltered_module", ("families_commute",)),
    (_unit_level_full, "bifiltered_module", _FLAG_KINDS),
    (_coarse_bifiltration, "identification", ("flag",)),
    (_first_plus_negated, "identification", ("word",)),
    (_minus_factor_doubled, "identification", ("shape",)),
])
@pytest.mark.parametrize("p, q", [(1, 2), (2, 1), (1, 3), (2, 2)])
def test_twisted_tensor_rejects_mutants(monkeypatch, mutate, rejected_by, kinds, p, q):
    # the last three mutants are valid bifiltered modules, which pass the
    # engine's own stages, so only the identification with Cl(p + q), the
    # `regular_module` stage, can reject them
    original = bifiltration.tensor_module
    bf = mutate(original(degree_filtration(exterior_module(p)), degree_filtration(exterior_module(q))))
    stage = "regular_module" if rejected_by == "identification" else rejected_by
    if stage == "regular_module":
        assert check_bifiltered_module(bf) and verify_2d(bideform(bf))
        assert canonical_biroundtrip_iso(bf).certificate
    monkeypatch.setattr(bifiltration, "tensor_module", lambda *factors: bf)
    cert = check_twisted_tensor(twisted_tensor(CliffordAlgebra(p), CliffordAlgebra(q)))
    assert not cert and cert.check == "twisted_tensor"
    assert cert.witness["stage"] == stage and cert.witness["kind"] in kinds


def test_tensor_module_structure():
    fp = degree_filtration(exterior_module(2))
    fm = degree_filtration(exterior_module(1))
    bf = tensor_module(fp, fm)
    assert check_bifiltered_module(bf)
    # component dims multiply parity-component dims of the factors
    assert bf.dim(0, 0) == fp.module.dim_even * fm.module.dim_even
    assert bf.dim(1, 1) == fp.module.dim_odd * fm.module.dim_odd
    # flags are products, so bigraded dims are products of flag dims
    for m in range(bf.top_plus + 1):
        for n in range(bf.top_minus + 1):
            assert bf.biflags[m][n].dim == fp.level(m).dim * fm.level(n).dim


def test_checked_bifiltered_module_keeps_its_verdict():
    # check_bifiltered_module keeps its verdict on the module, whose dims,
    # gamma maps and flags are read-only
    bf = tensor_module(degree_filtration(exterior_module(2)),
                       degree_filtration(exterior_module(1)))
    assert check_bifiltered_module(bf) is check_bifiltered_module(bf)
    with pytest.raises(TypeError):
        bf.gamma_plus[0][(0, 0)] = bf.gamma_plus[0][(0, 0)].scale(2)
    with pytest.raises(TypeError):
        bf.dims[(0, 0)] = 3


def test_bideform_is_kept_on_the_module(monkeypatch):
    # the module and its deformation are read-only, so the deformation is
    # built once; once the quotient's flags are kept on it, the roundtrip,
    # whose maps are identities, forms no coordinates and eliminates nothing
    bf = tensor_module(degree_filtration(exterior_module(2)),
                       degree_filtration(exterior_module(2)))
    r = bideform(bf)
    assert bideform(bf) is r
    assert biquotient(r).flags == bf.flags
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    monkeypatch.setattr(Subspace, "coordinate_matrix",
                        counting("coordinate_matrix", Subspace.coordinate_matrix))
    monkeypatch.setattr(exactalg, "rref", counting("rref", exactalg.rref))
    assert canonical_biroundtrip_iso(bf).certificate
    assert calls == [] and bideform(bf) is r


def test_biroundtrip_is_kept_on_the_module(monkeypatch):
    # the roundtrip's maps and certificate are kept on the read-only module
    # and cannot be changed; a warm check_twisted_tensor runs no elimination
    t = twisted_tensor(CliffordAlgebra(2), CliffordAlgebra(1))
    first = canonical_biroundtrip_iso(t.module)
    with pytest.raises(TypeError):
        first.component_maps[(0, 0)] = Matrix.identity(1)
    assert check_twisted_tensor(t)
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    monkeypatch.setattr(bifiltration, "_quotient", counting("_quotient", bifiltration._quotient))
    monkeypatch.setattr(deformation, "_quotient", counting("_quotient", deformation._quotient))
    monkeypatch.setattr(exactalg, "rref", counting("rref", exactalg.rref))
    again = canonical_biroundtrip_iso(t.module)
    assert again.component_maps is first.component_maps
    assert again.certificate is first.certificate
    assert check_twisted_tensor(t)
    assert calls == []


def test_identification_is_kept_on_the_module(monkeypatch):
    # the identification with Cl(p + q), the regular_module verdict, is kept
    # on the read-only module, so a warm check_twisted_tensor walks no word
    t = twisted_tensor(CliffordAlgebra(2), CliffordAlgebra(2))
    assert check_twisted_tensor(t)
    first = t.module._regular
    assert first and first.check == "regular_module"
    calls = []
    original = bifiltration._regular_module
    monkeypatch.setattr(bifiltration, "_regular_module",
                        lambda *args: calls.append(args) or original(*args))
    assert check_twisted_tensor(t) == passing("twisted_tensor")
    assert t.module._regular is first
    assert calls == []


def test_tensor_module_requires_filtrations():
    # exterior(2) by degree with its top even flag missing a row
    good = degree_filtration(exterior_module(2))
    bad = SuperFiltration(good.module, [good.even_flags[0], Subspace.span(2, [[1, 0]])],
                          good.odd_flags)
    for factors in ((bad, good), (good, bad)):
        with pytest.raises(CheckFailed) as caught:
            tensor_module(*factors)
        cert = caught.value.certificate
        assert cert.check == "filtration"
        assert cert.witness == {"kind": "exhaustive", "parity": 0}


def test_two_stage_deformation_dimension_table():
    # grading by one parameter then the other gives the same table as the
    # direct bigraded deformation
    fp = degree_filtration(exterior_module(2))
    fm = degree_filtration(exterior_module(2))
    r = bideform(tensor_module(fp, fm))
    stage_plus = [fp.level(m).dim for m in range(r.top_plus + 1)]
    stage_minus = [fm.level(n).dim for n in range(r.top_minus + 1)]
    for m, row in enumerate(r.dims):
        for n, d in enumerate(row):
            assert d == stage_plus[m] * stage_minus[n]


def test_total_module_relations():
    bf = tensor_module(degree_filtration(exterior_module(2)),
                       degree_filtration(exterior_module(2)))
    total = total_module(bf)
    assert check_supermodule(total)
    assert total.algebra.n == 4


def test_bideform_verify_roundtrip_tensor():
    bf = tensor_module(degree_filtration(exterior_module(2)),
                       degree_filtration(exterior_module(1)))
    r = bideform(bf)
    assert verify_2d(r)
    iso = canonical_biroundtrip_iso(bf)
    assert iso.certificate.passed


def test_single_component_rep():
    # no generators at all: one bosonic component, empty Q families
    bf = tensor_module(trivial_filtration(exterior_module(0)),
                       trivial_filtration(exterior_module(0)))
    assert bf.total_dim() == 1 and bf.dim(0, 0) == 1
    r = bideform(bf)
    assert verify_2d(r)
    back = biquotient(r)
    assert check_bifiltered_module(back)
    assert back.total_dim() == 1


def test_one_dim_stable_component_with_generators_fails():
    # with generators present, Q = 0 on a stable line cannot satisfy
    # {Q,Q} = 2H because the stabilized shift is the identity
    plus = CliffordAlgebra(1)
    minus = CliffordAlgebra(0)
    zero = Matrix.zeros(1, 1)
    r = BiGradedRep(plus, minus,
                    [[1, 1], [1, 1], [1, 1]],
                    {(0, 0): Matrix.identity(1), (0, 1): Matrix.identity(1)},
                    {},
                    [{(m, n): zero for m in range(3) for n in range(2)}],
                    [])
    cert = verify_2d(r)
    assert not cert
    assert cert.witness["kind"] == "plus_anticommutator"


def test_biquotient_scaled_shells():
    bf = tensor_module(degree_filtration(exterior_module(1)),
                       degree_filtration(exterior_module(1)))
    r = bideform(bf)
    out = biquotient(r, shell_plus=2, shell_minus=Fraction(1, 3))
    assert check_bifiltered_module(out)
    assert out.plus_algebra.gram == r.plus_algebra.gram.scale(2)
    assert out.minus_algebra.gram == r.minus_algebra.gram.scale(Fraction(1, 3))
    with pytest.raises(ValueError):
        biquotient(r, shell_plus=0)
    with pytest.raises(ValueError):
        biquotient(r, shell_minus=-1)


def test_biquotient_requires_bigraded_relations():
    # doubling one Q+ map leaves both shifts injective and commuting
    r = bideform(tensor_module(degree_filtration(exterior_module(2)),
                               degree_filtration(exterior_module(2))))
    qp = [dict(per) for per in r.qp]
    key = max(x for x, m in qp[0].items() if not m.is_zero())
    qp[0][key] = qp[0][key].scale(2)
    bad = BiGradedRep(r.plus_algebra, r.minus_algebra, r.dims, r.sp, r.sm, qp, r.qm)
    with pytest.raises(CheckFailed) as caught:
        biquotient(bad)
    cert = caught.value.certificate
    assert not cert and cert.check == "bigraded_relations"
    assert cert == verify_2d(bad)


def test_noncommuting_shifts_fail():
    f = degree_filtration(exterior_module(2))
    r = bideform(tensor_module(f, f))
    assert r.tops == (2, 2) and verify_2d(r)
    # twice S+ out of (0, 0): still injective, but S+ S- != S- S+ there
    sp = dict(r.sp)
    sp[(0, 0)] = sp[(0, 0)].scale(2)
    assert sp[(0, 0)].rank() == sp[(0, 0)].rows
    bad = BiGradedRep(r.plus_algebra, r.minus_algebra, r.dims, sp, r.sm, r.qp, r.qm)
    cert = verify_2d(bad)
    assert not cert and cert.witness == {"kind": "shifts_commute", "m": 0, "n": 0}


def test_random_tensor_suite():
    rng = random.Random(55)
    for _ in range(10):
        p = rng.randint(0, 2)
        q = rng.randint(0, 4 - p if p < 2 else 2)
        fp = random_filtration(exterior_module(p), rng)
        fm = random_filtration(exterior_module(q), rng)
        bf = tensor_module(fp, fm)
        if bf.total_dim() > 16:
            continue
        assert check_bifiltered_module(bf)
        r = bideform(bf)
        assert verify_2d(r)
        assert canonical_biroundtrip_iso(bf).certificate.passed


def test_verify_2d_mutation_rejected():
    rng = random.Random(6)
    bf = tensor_module(degree_filtration(exterior_module(1)),
                       degree_filtration(exterior_module(1)))
    base = bideform(bf)
    for _ in range(6):
        qp = [dict(per) for per in base.qp]
        keys = [k for k in qp[0] if qp[0][k].rows and qp[0][k].cols]
        key = keys[rng.randrange(len(keys))]
        m = qp[0][key]
        rows = [list(row) for row in m.entries]
        rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.choice([1, 2, -1])
        qp[0][key] = Matrix(m.rows, m.cols, rows)
        mutant = BiGradedRep(base.plus_algebra, base.minus_algebra, base.dims,
                             base.sp, base.sm, qp, base.qm)
        cert = verify_2d(mutant)
        assert not cert and cert.witness is not None


def _bump(m, rng):
    return bumped(m, rng.randrange(m.rows), rng.randrange(m.cols), rng.choice([1, -1, 2]))


def test_one_dim_pipeline_is_the_first_column_of_two_dim():
    # f tensored with the trivial (1|0) Cl(0) filtration is a bifiltration
    # whose n = 0 column is f and whose n = 1 column is zero-dimensional
    renamed = {"H_injective": "shift_plus_injective",
               "anticommutator": "plus_anticommutator",
               "H_Q_commutation": "shift_plus_Qp"}
    point = trivial_filtration(exterior_module(0))
    modules = [exterior_module(n) for n in range(1, 5)]
    modules += [irreducible_module(n) for n in range(1, 6)]
    rng = random.Random(21)
    mutants = 0
    for k in range(27):
        f = random_filtration(modules[k % len(modules)], rng)
        r = deform(f)
        b = bideform(tensor_module(f, point))
        m = r.top_degree
        assert (b.top_plus, b.top_minus) == (m, 1)
        assert b.dims == tuple((d, 0) for d in r.dims)
        assert [b.sp[(p, 0)] for p in range(m - 1)] == list(r.h_maps)
        for i, per in enumerate(r.q_maps):
            assert [b.qp[i][(p, 0)] for p in range(m + 1)] == list(per)

        shell = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        s = quotient_at(r, shell)
        t = biquotient(b, shell, 1)
        assert s.module.algebra == t.plus_algebra
        assert (s.module.dim_even, s.module.dim_odd) == (t.dim(0, 0), t.dim(1, 0))
        assert s.module.gamma_eo == tuple(g[(0, 0)] for g in t.gamma_plus)
        assert s.module.gamma_oe == tuple(g[(1, 0)] for g in t.gamma_plus)
        assert [s.filtration.level(p) for p in range(m + 1)] == [row[0] for row in t.biflags]

        for _ in range(4):
            h_maps = list(r.h_maps)
            q_maps = [list(per) for per in r.q_maps]
            sp = dict(b.sp)
            qp = [dict(per) for per in b.qp]
            if h_maps and rng.random() < 0.3:
                p = rng.randrange(len(h_maps))
                if not h_maps[p].rows or not h_maps[p].cols:
                    continue
                h_maps[p] = sp[(p, 0)] = _bump(h_maps[p], rng)
            else:
                i, p = rng.randrange(len(q_maps)), rng.randrange(m + 1)
                if not q_maps[i][p].rows or not q_maps[i][p].cols:
                    continue
                q_maps[i][p] = qp[i][(p, 0)] = _bump(q_maps[i][p], rng)
            one = verify_offshell(OffShellRep(r.algebra, r.dims, h_maps, q_maps))
            two = verify_2d(BiGradedRep(b.plus_algebra, b.minus_algebra, b.dims,
                                        sp, b.sm, qp, b.qm))
            assert not one
            want = {("m" if key == "level" else key): renamed.get(value, value)
                    for key, value in one.witness.items()}
            want["n"] = 0
            assert two.witness == want
            mutants += 1
    assert mutants >= 80
