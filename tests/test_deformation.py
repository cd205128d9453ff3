"""Deformation to graded off-shell data and the quotient back."""

import random
from fractions import Fraction

import pytest

from cliffilt import cli, deformation, exactalg
from cliffilt.bifiltration import (
    BifilteredSupermodule,
    BiGradedRep,
    bideform,
    biquotient,
    canonical_biroundtrip_iso,
    check_bifiltered_module,
    check_twisted_tensor,
    tensor_module,
    twisted_tensor,
    verify_2d,
)
from cliffilt.certificate import CheckFailed
from cliffilt.clifford import CliffordAlgebra
from cliffilt.deformation import (
    GradedSpace,
    OffShellRep,
    canonical_roundtrip_iso,
    deform,
    enveloping_quotient_check,
    quotient_at,
    verify_offshell,
)
from cliffilt.exactalg import Matrix, Subspace
from cliffilt.invariants import gr_dimensions, random_filtration
from cliffilt.serialize import loads
from cliffilt.supermodule import (
    CliffordSupermodule,
    SuperFiltration,
    _fold,
    _graded_subsets,
    _parity,
    _step,
    check_filtration,
    check_supermodule,
    degree_filtration,
    exterior_module,
    hodge_filtration,
    irreducible_module,
    trivial_filtration,
)
import oracle
from oracle import grid, product, rebased


def test_deform_shapes_and_relations():
    f = degree_filtration(exterior_module(3))
    r = deform(f)
    assert r.dims == tuple(f.level(p).dim for p in range(r.top_degree + 1))
    assert verify_offshell(r)
    m = r.top_degree
    assert len(r.h_maps) == max(m - 1, 0)
    for p, h in enumerate(r.h_maps):
        assert (h.rows, h.cols) == (r.dims[p], r.dims[p + 2])


def test_fetchers_stabilize():
    r = deform(degree_filtration(exterior_module(3)))
    m = r.top_degree
    assert r.dim_at(-1) == 0 and r.dim_at(-2) == 0
    assert r.dim_at(m + 2) == r.dim_at(m)
    assert r.h_at(m) == Matrix.identity(r.dim_at(m))
    assert r.h_at(m - 1) == Matrix.identity(r.dim_at(m - 1))
    for i in range(r.algebra.n):
        assert r.q_at(i, m + 2) == r.q_at(i, m)
        assert r.q_at(i, m + 1) == r.q_at(i, m - 1)


def test_h_bijective_in_stable_range():
    # the two top coordinate maps between consecutive same-parity flags
    for f in (degree_filtration(exterior_module(3)),
              hodge_filtration(exterior_module(4))):
        m = deform(f).top_degree
        for p in (m - 1, m):
            below = f.level(p)
            above = f.level(p + 2)
            h = above.coordinate_matrix(below.basis)
            assert h.rows == h.cols == below.dim
            assert h.rank() == h.rows


def test_quotient_shell_one_roundtrip_named():
    for f in (degree_filtration(exterior_module(4)),
              hodge_filtration(exterior_module(4)),
              trivial_filtration(exterior_module(2))):
        iso = canonical_roundtrip_iso(f)
        assert iso.certificate.passed


def test_quotient_shell_zero_gives_gr_dims():
    f = hodge_filtration(exterior_module(4))
    out = quotient_at(deform(f), 0)
    assert isinstance(out, GradedSpace)
    assert out.dims == tuple(gr_dimensions(f))


def test_quotient_scaled_shell():
    f = degree_filtration(exterior_module(2))
    on = quotient_at(deform(f), Fraction(2, 3))
    assert on.shell == Fraction(2, 3)
    # the output algebra's Gram is the scaled one and relations close on it
    assert on.module.algebra.gram == f.module.algebra.gram.scale(Fraction(2, 3))
    assert check_supermodule(on.module)
    assert check_filtration(on.filtration)


def test_quotient_negative_shell_rejected():
    r = deform(degree_filtration(exterior_module(1)))
    with pytest.raises(ValueError):
        quotient_at(r, -1)


def test_roundtrip_random_suite():
    rng = random.Random(42)
    modules = [exterior_module(n) for n in (1, 2, 3)]
    modules += [irreducible_module(n) for n in (1, 2, 3, 4)]
    for k in range(25):
        f = random_filtration(modules[k % len(modules)], rng)
        iso = canonical_roundtrip_iso(f)
        assert iso.certificate.passed
        r = deform(f)
        assert verify_offshell(r)
        # re-deforming the shell-1 quotient reproduces the graded dims
        again = deform(quotient_at(r, 1).filtration)
        assert again.dims == r.dims


def test_deform_normalized_bottom():
    # random filtrations are normalized, so degree 0 or 1 is nonzero
    rng = random.Random(9)
    for _ in range(10):
        f = random_filtration(exterior_module(2), rng)
        r = deform(f)
        assert r.dims[0] > 0 or r.dims[1] > 0


def test_single_entry_mutations_rejected():
    rng = random.Random(77)
    f = degree_filtration(exterior_module(3))
    base = deform(f)
    rejected = 0
    for _ in range(12):
        h_maps = [Matrix(h.rows, h.cols, [list(row) for row in h.entries])
                  for h in base.h_maps]
        q_maps = [[Matrix(q.rows, q.cols, [list(row) for row in q.entries])
                   for q in per] for per in base.q_maps]
        if h_maps and rng.random() < 0.5:
            target = h_maps[rng.randrange(len(h_maps))]
        else:
            per = q_maps[rng.randrange(len(q_maps))]
            target = per[rng.randrange(len(per))]
        if not target.rows or not target.cols:
            continue
        i = rng.randrange(target.rows)
        j = rng.randrange(target.cols)
        rows = [list(row) for row in target.entries]
        rows[i][j] += rng.choice([1, -1, 2])
        mutated = Matrix(target.rows, target.cols, rows)
        h_maps = [mutated if m is target else m for m in h_maps]
        q_maps = [[mutated if m is target else m for m in per] for per in q_maps]
        cert = verify_offshell(OffShellRep(base.algebra, base.dims, h_maps, q_maps))
        assert not cert and cert.witness is not None
        rejected += 1
    assert rejected >= 10


def test_quotient_rejects_non_injective_h():
    # a zero H map would silently give a filtration with the wrong level dims
    r = deform(degree_filtration(exterior_module(3)))
    h = r.h_maps[0]
    broken = OffShellRep(r.algebra, r.dims, [Matrix.zeros(h.rows, h.cols)] + list(r.h_maps[1:]),
                         r.q_maps)
    for shell in (1, 0):
        with pytest.raises(ValueError):
            quotient_at(broken, shell)


def test_quotient_requires_offshell_relations():
    # a doubled top-degree Q keeps H injective, so only the relations the
    # quotient assumes can reject the rep
    r = deform(degree_filtration(exterior_module(4)))
    q_maps = [list(per) for per in r.q_maps]
    per = next(per for per in q_maps if not per[-1].is_zero())
    per[-1] = per[-1].scale(2)
    bad = OffShellRep(r.algebra, r.dims, r.h_maps, q_maps)
    for shell in (1, 0):
        with pytest.raises(CheckFailed) as caught:
            quotient_at(bad, shell)
        cert = caught.value.certificate
        assert not cert and cert.check == "offshell_relations"
        assert cert == verify_offshell(bad)


def test_verified_rep_is_read_only():
    # verify_offshell keeps its verdict on the rep, so the maps cannot change
    r = deform(degree_filtration(exterior_module(2)))
    assert verify_offshell(r)
    with pytest.raises(TypeError):
        r.shifts[0][(0,)] = Matrix.zeros(r.dims[0], r.dims[2])


def test_offshell_constructor_validates_shapes():
    r = deform(degree_filtration(exterior_module(2)))
    with pytest.raises(ValueError):
        OffShellRep(r.algebra, r.dims, list(r.h_maps)[:-1] if r.h_maps else [],
                    [list(per) for per in r.q_maps])
    with pytest.raises(ValueError):
        OffShellRep(r.algebra, (3,), [], [[]])


def test_enveloping_quotient_small():
    assert enveloping_quotient_check(1, 4)
    assert enveloping_quotient_check(2, 4)
    with pytest.raises(ValueError):
        enveloping_quotient_check(2, 2)


@pytest.mark.parametrize("n", range(6))
def test_exterior_module_is_regular(n):
    """envcheck rests on this: exterior_module(n) is Cl(n) acting on itself
    by left multiplication in the monomial basis, and degree_filtration is
    the word-length filtration."""
    m = exterior_module(n)
    alg = m.algebra
    subsets = [[s for s in alg.monomials if len(s) % 2 == c] for c in (0, 1)]
    assert (m.dim_even, m.dim_odd) == tuple(len(s) for s in subsets)
    for i in range(n):
        for c, gamma in ((0, m.gamma_eo[i]), (1, m.gamma_oe[i])):
            for s, row in zip(subsets[c], gamma.entries):
                product = (alg.gamma(i) * alg.basis_element(s)).terms
                assert list(row) == [product.get(t, 0) for t in subsets[1 - c]]
    f = degree_filtration(m)
    for p in range(n + 3):
        rows = []
        for vec in f.level(p).basis.entries:
            row = [0] * alg.dim
            for s, x in zip(subsets[p % 2], vec):
                row[alg.monomial_index[s]] = x
            rows.append(row)
        # the word-length level F_p of the algebra, spanned by its monomials
        level = [[int(k == alg.monomial_index[s]) for k in range(alg.dim)]
                 for s in alg.monomials if len(s) <= p and (p - len(s)) % 2 == 0]
        assert Subspace.span(alg.dim, rows) == Subspace.span(alg.dim, level)


def _one_sign_flipped(n):
    m = exterior_module(n)
    eo = [list(row) for row in m.gamma_eo[0].entries]
    eo[0][0] = -eo[0][0]
    gamma_eo = [Matrix(m.dim_even, m.dim_odd, eo), *m.gamma_eo[1:]]
    return CliffordSupermodule(m.algebra, gamma_eo, m.gamma_oe,
                               dim_even=m.dim_even, dim_odd=m.dim_odd)


def test_enveloping_quotient_fails_on_a_broken_module(monkeypatch, capsys):
    monkeypatch.setattr(deformation, "exterior_module", _one_sign_flipped)
    cert = enveloping_quotient_check(2, 4)
    assert not cert and cert.check == "enveloping_quotient"
    assert cert.witness["stage"] == "supermodule_relations"
    assert cli.main(["envcheck", "--n", "2"]) == 1
    assert loads(capsys.readouterr().out) == cert


def _even_pair_swapped(n, a=(0, 1), b=(0, 2)):
    """exterior_module(n) with the even basis vectors e_a and e_b swapped:
    an isomorphic module, so every relation and the degree flags hold."""
    m = exterior_module(n)
    even = _graded_subsets(n, 0)
    perm = list(range(m.dim_even))
    perm[even.index(a)], perm[even.index(b)] = even.index(b), even.index(a)
    eo = [Matrix(m.dim_even, m.dim_odd, [g.entries[k] for k in perm]) for g in m.gamma_eo]
    oe = [Matrix(m.dim_odd, m.dim_even, [[row[k] for k in perm] for row in g.entries])
          for g in m.gamma_oe]
    return CliffordSupermodule(m.algebra, eo, oe, dim_even=m.dim_even, dim_odd=m.dim_odd)


def _bottom_flag_moved(m):
    """The degree filtration of exterior(2) with F_0 = span{e_01}: every
    flag step holds, since F_1 and F_2 are full."""
    return SuperFiltration(m, [Subspace._units(2, [1]), Subspace.full(2)], [Subspace.full(2)])


@pytest.mark.parametrize("n, patch, witness", [
    (3, ("exterior_module", _even_pair_swapped), {"kind": "word", "word": [0, 1]}),
    (2, ("degree_filtration", _bottom_flag_moved), {"kind": "flag", "level": 0}),
], ids=["words_swapped", "flag_moved"])
def test_enveloping_quotient_rejects_a_module_that_is_not_regular(monkeypatch, n, patch, witness):
    # each mutant passes the first three stages, which hold for any
    # module isomorphic to the regular one and any valid filtration
    monkeypatch.setattr(deformation, *patch)
    f = deformation.degree_filtration(deformation.exterior_module(n))
    assert check_filtration(f) and verify_offshell(deform(f))
    assert canonical_roundtrip_iso(f).certificate
    cert = enveloping_quotient_check(n, 4)
    assert not cert and cert.witness == {"stage": "regular_module", **witness}


def test_regular_module_rejects_a_generator_that_kills_the_unit():
    m = exterior_module(2)
    eo = [list(row) for row in m.gamma_eo[1].entries]
    eo[0] = [0] * m.dim_odd
    gamma_eo = [m.gamma_eo[0], Matrix(m.dim_even, m.dim_odd, eo)]
    broken = CliffordSupermodule(m.algebra, gamma_eo, m.gamma_oe,
                                 dim_even=m.dim_even, dim_odd=m.dim_odd)
    cert = deformation._regular_module(degree_filtration(broken), OffShellRep._words)
    assert not cert and cert.check == "regular_module"
    assert cert.witness == {"kind": "word", "word": [1]}


def test_regular_module_labels_are_built_once_per_family_sizes():
    # fresh modules of one shape share the label table; a module of other
    # dims is still refused by its own `shape`, and the certificates of the
    # algebra case are unchanged
    deformation._regular_labels.cache_clear()
    for _ in range(3):
        assert deformation._regular_module(degree_filtration(exterior_module(3)),
                                           OffShellRep._words)
    info = deformation._regular_labels.cache_info()
    assert (info.misses, info.hits) == (1, 2) and info.maxsize <= 16
    counts, steps, groups = deformation._regular_labels((3,))  # shared, so read-only
    for table in (counts, groups, *groups.values()):
        with pytest.raises(TypeError):
            table[None] = ()
    assert all(type(js) is tuple for g in groups.values() for js in g.values())
    assert type(steps) is tuple
    small = irreducible_module(4)  # (4|4), where Cl(4) acting on itself is (8|8)
    cert = deformation._regular_module(trivial_filtration(small), OffShellRep._words)
    assert not cert and cert.witness == {"kind": "shape", "parity": 0}
    assert all(enveloping_quotient_check(n, 3) for n in range(1, 9))
    assert all(check_twisted_tensor(twisted_tensor(CliffordAlgebra(p), CliffordAlgebra(q)))
               for p in range(5) for q in range(5 - p))


def test_regular_module_requires_the_identity_gram():
    # Cl(2) over the Gram matrix 4 I acting on itself: every relation, flag
    # step and raising word holds, but g_i e_S = +-4 e_{S - i} for i in S,
    # so its generators are not exterior_module(2)'s and the Gram matrix is
    # refused
    m, subsets = exterior_module(2), [_graded_subsets(2, c) for c in (0, 1)]

    def lowered(g, c, i):
        return Matrix(g.rows, g.cols, [[4 * x if i in subsets[c][r] else x for x in row]
                                       for r, row in enumerate(g.entries)])

    four = CliffordSupermodule(CliffordAlgebra(2, Matrix.identity(2).scale(4)),
                               [lowered(g, 0, i) for i, g in enumerate(m.gamma_eo)],
                               [lowered(g, 1, i) for i, g in enumerate(m.gamma_oe)])
    f = degree_filtration(four)
    assert check_filtration(f) and not oracle.regular_module(f)
    cert = deformation._regular_module(f, OffShellRep._words)
    assert not cert and cert.witness == {"kind": "gram"}


def test_enveloping_quotient_runs_no_algebra_arithmetic(monkeypatch):
    # the algebra case is certified on its regular module alone: no
    # monomial product is formed and no monomial table is built
    def refuse(*args):
        raise AssertionError("monomial_product called")

    monkeypatch.setattr(CliffordAlgebra, "monomial_product", refuse)
    built = []

    def recording(n):
        built.append(exterior_module(n))
        return built[-1]

    monkeypatch.setattr(deformation, "exterior_module", recording)
    for n in range(6):
        assert enveloping_quotient_check(n, 6)
    assert len(built) == 6
    for m in built:
        assert not {"monomials", "monomial_index"} & vars(m.algebra).keys()


def test_deform_requires_valid_filtration():
    m = exterior_module(2)
    bad = SuperFiltration(m, [Subspace.span(2, [[1, 0]]), Subspace.full(2)],
                          [Subspace.zero(2), Subspace.full(2)])
    with pytest.raises(ValueError):
        deform(bad)


def test_deform_is_kept_on_the_filtration(monkeypatch):
    # the filtration and its deformation are read-only, so the deformation
    # is built once; once the quotient's flags are kept on it, the
    # roundtrip, whose maps are identities, forms no coordinates and
    # eliminates nothing
    f = hodge_filtration(exterior_module(4))
    r = deform(f)
    assert deform(f) is r
    assert quotient_at(r, 1).filtration.flags == f.flags
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    monkeypatch.setattr(Subspace, "coordinate_matrix",
                        counting("coordinate_matrix", Subspace.coordinate_matrix))
    monkeypatch.setattr(exactalg, "rref", counting("rref", exactalg.rref))
    assert canonical_roundtrip_iso(f).certificate
    assert calls == [] and deform(f) is r


def test_roundtrip_is_kept_on_the_filtration(monkeypatch):
    # the roundtrip's maps and certificate are kept on the read-only
    # filtration: a second call builds no quotient and no coordinates
    f = hodge_filtration(exterior_module(4))
    first = canonical_roundtrip_iso(f)
    calls = []
    monkeypatch.setattr(deformation, "_quotient", lambda *args: calls.append(args))
    monkeypatch.setattr(Subspace, "coordinate_matrix", lambda *args: calls.append(args))
    again = canonical_roundtrip_iso(f)
    assert again == first and again.certificate is first.certificate
    assert again.even_map is first.even_map and again.odd_map is first.odd_map
    assert calls == []


def _seeded_modules():
    """160 k = 1 filtrations (exterior and irreducible modules up to Cl(5))
    and 60 k = 2 tensor modules, some with a Cl(0) factor; every other
    filtration, and factor, moved by a rational change of basis."""
    rng = random.Random(2024)

    def drawn(module, k):
        f = random_filtration(module, rng)
        return rebased(f, rng) if k % 2 else f

    modules = [exterior_module(n) for n in range(1, 5)]
    modules += [irreducible_module(n) for n in range(1, 6)]
    for k in range(160):
        yield drawn(modules[k % len(modules)], k)
    factors = [exterior_module(n) for n in range(3)] + [irreducible_module(2)]
    for k in range(60):
        a, b = factors[k % len(factors)], factors[(k // len(factors)) % len(factors)]
        yield tensor_module(drawn(a, k), drawn(b, k // 2))


def test_deform_reads_the_coordinate_maps_off_pivot_columns():
    kinds, fractional = [], 0
    for v in _seeded_modules():
        # each map is the coordinates of the images of F_x's basis rows in
        # the basis of the target flag: map times that basis is the images
        r = deform(v) if len(v.tops) == 1 else bideform(v)
        for d, (shifts, family) in enumerate(zip(r.shifts, r.qs)):
            for x, m in shifts.items():
                y = v.flags[_step(x, d, 2)].basis
                assert product(grid(m), grid(y), y.cols) == grid(v.flags[x].basis)
            for q, gamma in zip(family, v.gammas[d]):
                for x, m in q.items():
                    y, flag = v.flags[_fold(_step(x, d, 1), v.tops)].basis, grid(v.flags[x].basis)
                    assert product(grid(m), grid(y), y.cols) == product(
                        flag, grid(gamma[_parity(x)]), y.cols)
        kinds.append((len(v.tops), min(a.n for a in v.algebras)))
        fractional += any(flag.basis._ints()[0] != 1 for flag in v.flags.values())
    assert len(kinds) == 220 and {(1, 5), (2, 0), (2, 2)} <= set(kinds) and fractional >= 50


def test_deform_engine_requires_a_passing_verdict():
    f = hodge_filtration(exterior_module(4))
    bf = tensor_module(degree_filtration(exterior_module(1)), degree_filtration(exterior_module(2)))
    for v, cls, check in ((f, OffShellRep, check_filtration),
                          (bf, BiGradedRep, check_bifiltered_module)):
        with pytest.raises(ValueError):
            deformation._deform(v, cls)
        assert v._deformed is None
        assert check(v)
        assert deformation._deform(v, cls) is v._deformed is not None
    bad = SuperFiltration(exterior_module(2), [Subspace.span(2, [[1, 0]]), Subspace.full(2)],
                          [Subspace.zero(2), Subspace.full(2)])
    assert not check_filtration(bad)
    with pytest.raises(ValueError):
        deformation._deform(bad, OffShellRep)


def test_compatibility_mutants_fail_the_filtration_check():
    # _deform no longer tests that g F_x lies in its target flag, so the
    # check that deform requires is what rejects these mutants
    bad = SuperFiltration(exterior_module(2), [Subspace.span(2, [[1, 0]]), Subspace.full(2)],
                          [Subspace.zero(2), Subspace.full(2)])
    with pytest.raises(CheckFailed) as caught:
        deform(bad)
    assert caught.value.certificate == check_filtration(bad)
    assert caught.value.certificate.witness == {"kind": "compatibility", "generator": 0,
                                                "level": 0}
    bf = tensor_module(degree_filtration(exterior_module(1)), degree_filtration(exterior_module(2)))
    flags = dict(bf.flags)
    flags[(0, 0)] = Subspace.full(bf.dims[(0, 0)])
    grid = [[flags[(m, n)] for n in range(bf.top_minus + 1)] for m in range(bf.top_plus + 1)]
    mutant = BifilteredSupermodule(bf.plus_algebra, bf.minus_algebra, bf.dims,
                                   *bf.gammas, grid)
    with pytest.raises(CheckFailed) as caught:
        bideform(mutant)
    assert caught.value.certificate.witness["kind"] in ("compatibility_plus", "compatibility_minus")


def test_quotient_flags_are_built_once_per_rep(monkeypatch):
    # the flags of a quotient read only the shifts, so biquotient at any
    # shell and the roundtrip share one set, kept on the rep; a corner's
    # flag is the whole space, built with no elimination
    rng = random.Random(5)
    bf = tensor_module(random_filtration(exterior_module(2), rng),
                       random_filtration(exterior_module(1), rng))
    r = bideform(bf)
    assert verify_2d(r)
    built = []
    for name in ("row_space", "full"):
        original = getattr(Subspace, name)
        monkeypatch.setattr(Subspace, name,
                            staticmethod(lambda m, original=original: built.append(m)
                                         or original(m)))
    shells = [(2, Fraction(1, 3)), (Fraction(7, 2), 1)]
    outputs = [biquotient(r, *s) for s in shells]
    iso = canonical_biroundtrip_iso(bf)
    assert iso.certificate and len(built) == len(bf.flags)
    monkeypatch.undo()

    def fresh():
        return BiGradedRep(r.plus_algebra, r.minus_algebra, r.dims, r.sp, r.sm, r.qp, r.qm)

    assert outputs == [biquotient(fresh(), *s) for s in shells]
    assert outputs[0].flags == biquotient(fresh(), 1, 1).flags == bf.flags


@pytest.mark.parametrize("level, units", [(0, [0]), (2, range(7))])
def test_roundtrip_rejects_a_quotient_flag_of_the_same_dimension(monkeypatch, level, units):
    # the roundtrip compares flags by dimension and containment: in the
    # Hodge filtration of exterior(4), 1 + vol replaced by the unit e_() at
    # one level keeps the dimension and fails at that level
    original = deformation._quotient

    def moved(rep, shells, cls):
        back = original(rep, shells, cls)
        flags = [back.level(p) for p in range(back.top_degree + 1)]
        flags[level] = Subspace._units(8, units)
        assert flags[level].dim == back.level(level).dim and flags[level] != back.level(level)
        return SuperFiltration(back.module, flags[0::2], flags[1::2])

    monkeypatch.setattr(deformation, "_quotient", moved)
    with pytest.raises(RuntimeError) as caught:
        canonical_roundtrip_iso(hodge_filtration(exterior_module(4)))
    assert str(caught.value).endswith(f"{{'kind': 'flag', 'level': {level}}}")
