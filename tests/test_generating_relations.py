"""The relations of a graded rep, decided as a full scan would decide them.

`oracle.rep_failures` states every relation at every grid point, the
first failure the witness.  Every verdict below is compared with it as
JSON text, so a witness must match key for key and in order.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from cliffilt import deformation, exactalg, supermodule
from cliffilt.bifiltration import (
    BifilteredSupermodule,
    bideform,
    biquotient,
    canonical_biroundtrip_iso,
    tensor_module,
)
from cliffilt.deformation import (
    GradedRep,
    canonical_roundtrip_iso,
    deform,
    quotient_at,
    verify_offshell,
)
from cliffilt.exactalg import Matrix, _vanishes
from cliffilt.invariants import random_filtration
from cliffilt.supermodule import (
    _fold,
    _step,
    degree_filtration,
    exterior_module,
    irreducible_cl5,
    irreducible_module,
)
from oracle import bumped, first, invertible, mixed, relation_failures, rep_failures, text


def _oracle(r):
    return first(rep_failures(r), r._words.relations)


def _rebuilt(r, shifts, qs):
    """A rep of r's type and dims with other maps; nothing is kept on it."""
    out = type(r).__new__(type(r))
    GradedRep.__init__(out, r.algebras, r.dims, shifts, qs)
    return out


def _maps(r):
    return [dict(s) for s in r.shifts], [[dict(q) for q in family] for family in r.qs]


def _changed_basis(r, rng):
    """r carried by a seeded rational change of basis P_x of each grid
    component: each map from x to y becomes P_x M P_y^-1.  The identity
    shifts above the grid stay the identity, so the rep is isomorphic to r
    and satisfies the same relations."""
    change = {x: invertible(dim, rng, 2, 3) for x, dim in r._grid.items()}
    shifts, qs = _maps(r)
    for d, held in enumerate(shifts):
        for x, mat in held.items():
            held[x] = change[x][0] * mat * change[_step(x, d, 2)][1]
    for d, family in enumerate(qs):
        for held in family:
            for x, mat in held.items():
                held[x] = change[x][0] * mat * change[_fold(_step(x, d, 1), r.tops)][1]
    return _rebuilt(r, shifts, qs)


def _mutants(r, rng):
    """One seeded single-entry mutant of every stored shift and Q map at
    every grid point that holds a nonempty map."""
    shifts, qs = _maps(r)
    for table in shifts + [q for family in qs for q in family]:
        for x, mat in table.items():
            if not mat.rows or not mat.cols:
                continue
            by = rng.choice((1, -1, Fraction(1, 2), Fraction(-3, 2)))
            table[x] = bumped(mat, rng.randrange(mat.rows), rng.randrange(mat.cols), by)
            yield _rebuilt(r, [dict(s) for s in shifts],
                           [[dict(q) for q in family] for family in qs])
            table[x] = mat


@lru_cache(maxsize=None)
def _seeded_reps():
    """k = 1: exterior and irreducible modules 1..4, Cl(5) and a module
    over a non-diagonal Gram matrix; k = 2: tensor modules with p + q <= 4,
    one factor Cl(0)."""
    rng = random.Random(1807)
    reps = [deform(degree_filtration(exterior_module(n))) for n in range(1, 5)]
    modules = ([exterior_module(n) for n in range(1, 5)]
               + [irreducible_module(n) for n in range(1, 5)]
               + [irreducible_cl5(),
                  mixed(exterior_module(3), [[1, 1, 0], [0, 1, 2], [1, 0, 1]])])
    reps += [deform(random_filtration(m, rng)) for m in modules]
    pairs = [(exterior_module(0), exterior_module(2)), (exterior_module(1), exterior_module(1)),
             (exterior_module(2), exterior_module(1)), (irreducible_module(2), exterior_module(2)),
             (exterior_module(1), exterior_module(3))]
    reps += [bideform(tensor_module(random_filtration(a, rng), random_filtration(b, rng)))
             for a, b in pairs]
    reps.append(bideform(tensor_module(degree_filtration(exterior_module(2)),
                                       degree_filtration(exterior_module(2)))))
    return tuple(reps)


def _fresh_verdict(r):
    return deformation._verify(_rebuilt(r, *_maps(r)))


def test_seeded_reps_cover_the_cases():
    reps = _seeded_reps()
    kinds = {(len(r.tops), tuple(a.n for a in r.algebras)) for r in reps}
    assert {(1, (5,)), (2, (0, 2)), (2, (1, 3)), (2, (2, 2))} <= kinds
    assert any(a.n > 1 and a.gram.entries[0][1] for r in reps for a in r.algebras)
    # grids reaching well below their top points
    assert max(r.tops[0] for r in reps if len(r.tops) == 1) >= 4
    assert any(min(r.tops) >= 3 for r in reps if len(r.tops) == 2)


@pytest.mark.parametrize("index", range(20))
def test_verdict_matches_the_full_scan(index):
    rng = random.Random(4100 + index)
    base = _seeded_reps()[index]
    for r in (base, _changed_basis(base, rng)):
        assert _oracle(r)
        assert text(_fresh_verdict(r)) == text(_oracle(r))
        for mutant in _mutants(r, rng):
            assert text(deformation._verify(mutant)) == text(_oracle(mutant))


# single-entry mutants whose first failure in the full scan lies below the
# top region, where a relation other than the diagonal anticommutators is
# not read at every point: (n, map, generator, point, row, column, by) on
# the deformation of the degree filtration of exterior(n), and the
# certificate's JSON text
BELOW_TOP = {
    "H_Q_commutation_level_0": (
        (3, "q", 0, (2,), 0, 0, 1),
        '{"check": "offshell_relations", "pass": false, '
        '"witness": {"kind": "H_Q_commutation", "i": 0, "level": 0}}'),
    "off_diagonal_anticommutator_level_0": (
        (3, "q", 1, (1,), 0, 0, 1),
        '{"check": "offshell_relations", "pass": false, '
        '"witness": {"kind": "anticommutator", "i": 0, "j": 1, "level": 0}}'),
    "off_diagonal_anticommutator_level_1": (
        (4, "q", 3, (2,), 1, 2, -1),
        '{"check": "offshell_relations", "pass": false, '
        '"witness": {"kind": "anticommutator", "i": 0, "j": 3, "level": 1}}'),
    "mixed_bracket_origin": (
        ((2, 2), "q0", 0, (0, 1), 0, 0, 1),
        '{"check": "bigraded_relations", "pass": false, '
        '"witness": {"kind": "mixed_bracket", "i": 0, "j": 0, "m": 0, "n": 0}}'),
    "plus_anticommutator_origin": (
        ((2, 2), "q0", 1, (1, 0), 0, 0, 1),
        '{"check": "bigraded_relations", "pass": false, '
        '"witness": {"kind": "plus_anticommutator", "i": 0, "j": 1, "m": 0, "n": 0}}'),
    "shift_plus_Qm_origin": (
        ((2, 2), "q1", 1, (2, 0), 0, 0, 1),
        '{"check": "bigraded_relations", "pass": false, '
        '"witness": {"kind": "shift_plus_Qm", "j": 1, "m": 0, "n": 0}}'),
}


@pytest.mark.parametrize("name", sorted(BELOW_TOP))
def test_below_top_mutant_witness(name):
    (n, which, i, x, row, col, by), want = BELOW_TOP[name]
    if isinstance(n, tuple):
        base = bideform(tensor_module(*(degree_filtration(exterior_module(k)) for k in n)))
    else:
        base = deform(degree_filtration(exterior_module(n)))
    shifts, qs = _maps(base)
    held = qs[int(which[1:])][i] if len(which) > 1 else qs[0][i]
    held[x] = bumped(held[x], row, col, by)
    mutant = _rebuilt(base, shifts, qs)
    cert = deformation._verify(mutant)
    assert text(cert) == want == text(_oracle(mutant))
    point = [cert.witness[key] for key in base._words.point]
    assert any(c < t - 1 for c, t in zip(point, base.tops))


def test_generating_scan_counts(monkeypatch):
    # exterior(4) by degree, levels 0..4: the diagonal {Q_i, Q_i} at every
    # level and the off-diagonal {Q_i, Q_j} at the top two, one `_vanishes`
    # each; no [H, Q_i], which the diagonal implies
    f = degree_filtration(exterior_module(4))
    r = deform(f)
    n, levels = r.algebra.n, r.top_degree + 1
    calls = []

    def counting(*args):
        calls.append(args)
        return _vanishes(*args)

    monkeypatch.setattr(deformation, "_vanishes", counting)
    assert verify_offshell(r)
    assert len(calls) == n * levels + n * (n - 1) // 2 * 2 == 32


@lru_cache(maxsize=None)
def _zero_component_modules():
    """Checked modules with zero flags.  k = 1: seeded random filtrations
    with F_0 = 0 and top degree at least 3; k = 2: tensors with
    exterior(0), whose odd part is 0, on either side, so that some
    components are 0 too."""
    rng = random.Random(2311)
    modules = []
    for m in (exterior_module(3), irreducible_module(3), irreducible_cl5()):
        f = random_filtration(m, rng)
        while f.level(0).dim or f.top_degree < 3:
            f = random_filtration(m, rng)
        modules.append(f)
    zero = exterior_module(0)
    for a, b in ((zero, exterior_module(2)), (exterior_module(3), zero),
                 (zero, irreducible_module(3))):
        modules.append(tensor_module(random_filtration(a, rng), random_filtration(b, rng)))
    return tuple(modules)


@lru_cache(maxsize=None)
def _zero_component_reps():
    """The deformations of `_zero_component_modules`: V_x = 0 at some grid
    points."""
    return tuple((deform if len(v.tops) == 1 else bideform)(v) for v in _zero_component_modules())


def test_zero_component_reps_have_zero_components():
    reps = _zero_component_reps()
    assert [len(r.tops) for r in reps] == [1, 1, 1, 2, 2, 2]
    for r in reps:
        assert 0 in r._grid.values() and any(r._grid.values())
    assert all(r.dims[0] == 0 for r in reps[:3])


@pytest.mark.parametrize("index", range(6))
def test_witnesses_next_to_zero_components(index):
    # single-entry mutants of every map out of each nonzero point, next to
    # the zero ones: verdict and witness are the full scan's
    rng = random.Random(4400 + index)
    r = _zero_component_reps()[index]
    assert _oracle(r) and text(_fresh_verdict(r)) == text(_oracle(r))
    for mutant in _mutants(r, rng):
        assert text(deformation._verify(mutant)) == text(_oracle(mutant))


def test_no_relation_out_of_a_zero_component(monkeypatch):
    # every relation at x is a sum of products whose first factors are maps
    # out of V_x; none is formed where V_x = 0, and the full scan forms
    # every relation at each other point
    calls = []

    def counting(terms, *rest):
        calls.append(terms)
        return _vanishes(terms, *rest)

    monkeypatch.setattr(deformation, "_vanishes", counting)
    for r in _zero_component_reps():
        n, k = [a.n for a in r.algebras], len(r.tops)
        per_point = (k * (k - 1) // 2 + sum(m * (m + 1) // 2 for m in n)
                     + (n[0] * n[1] if k == 2 else 0) + k * sum(n))
        for generating in (True, False):
            calls.clear()
            assert deformation._relations(r, generating)
            assert calls and all(a.rows for terms in calls for _, a, _ in terms)
        assert len(calls) == per_point * sum(1 for dim in r._grid.values() if dim)


def _gamma_mutants(v, rng):
    """v with one seeded entry of one gamma bumped, for each gamma at each
    component whose map is nonempty."""
    for d, family in enumerate(v.gammas):
        for i, gamma in enumerate(family):
            for c, mat in gamma.items():
                if not mat.rows or not mat.cols:
                    continue
                gammas = [list(f) for f in v.gammas]
                gammas[d][i] = dict(gamma)
                gammas[d][i][c] = bumped(mat, rng.randrange(mat.rows), rng.randrange(mat.cols),
                                         rng.choice((1, -1, Fraction(1, 2))))
                yield BifilteredSupermodule(*v.algebras, v.dims, *gammas, v.biflags)


def test_module_scans_next_to_zero_components(monkeypatch):
    # the relations form no `_vanishes` call out of a zero component, and
    # the flag steps no product out of a zero flag, but every other
    # compatibility product into a flag that is not full; a gamma mutant at
    # a nonzero component of a tensor keeps the full scan's witness
    rng = random.Random(2417)
    calls, products = [], []

    def counting(terms, *rest):
        calls.append(terms)
        return _vanishes(terms, *rest)

    def multiplying(a, b):
        products.append(a)
        return times(a, b)

    times = Matrix.__mul__
    monkeypatch.setattr(supermodule, "_vanishes", counting)
    skipped = 0
    for v in _zero_component_modules():
        up = v._geometry.up
        tests = [(flag.dim, len(family)) for x, flag in v.flags.items()
                 for d, family in enumerate(v.gammas) if not v.flags[up[d][x]].is_full]
        skipped += sum(n for dim, n in tests if not dim)
        calls.clear()
        products.clear()
        monkeypatch.setattr(Matrix, "__mul__", multiplying)
        assert supermodule._module_relations(v) and supermodule._module_flags(v)
        monkeypatch.setattr(Matrix, "__mul__", times)
        assert len(products) == sum(n for dim, n in tests if dim)
        assert all(a.rows for a in products)
        if len(v.tops) == 2:
            assert 0 in v.dims.values()
            mutants = list(_gamma_mutants(v, rng))
            assert len(mutants) == sum(1 for family in v.gammas for g in family
                                       for mat in g.values() if mat.rows and mat.cols)
            for mutant in mutants:
                want = first(relation_failures(mutant), mutant._words.relations)
                assert text(supermodule._module_relations(mutant)) == text(want)
        assert calls and all(a.rows for terms in calls for _, a, _ in terms)
    assert skipped


@pytest.mark.parametrize("k", (1, 2))
def test_roundtrip_of_a_checked_module_eliminates_and_compares_nothing(monkeypatch, k):
    # with the quotient's flags kept on the deformation, the roundtrip's
    # identity maps are certified by equality alone
    if k == 1:
        v = degree_filtration(exterior_module(3))
        assert quotient_at(deform(v), 1)
        roundtrip = canonical_roundtrip_iso
    else:
        v = tensor_module(degree_filtration(exterior_module(2)),
                          degree_filtration(exterior_module(1)))
        assert biquotient(bideform(v))
        roundtrip = canonical_biroundtrip_iso
    calls = []

    def refused(name):
        return lambda *args: calls.append(name)

    for module in (exactalg, deformation):
        monkeypatch.setattr(module, "_vanishes", refused("_vanishes"))
    monkeypatch.setattr(exactalg, "rref", refused("rref"))
    monkeypatch.setattr(Matrix, "__mul__", refused("product"))
    assert roundtrip(v).certificate
    assert calls == []
