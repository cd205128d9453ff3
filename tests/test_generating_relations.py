"""The relations of a graded rep, decided as a full scan would decide them.

`_full_scan` is the scan that `_relations` ran before it learned to check
a generating set: every relation at every grid point, the first failure
the witness.  Every verdict below is compared with it as JSON text, so a
witness must match key for key and in order.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from cliffilt import deformation, exactalg
from cliffilt.bifiltration import bideform, biquotient, canonical_biroundtrip_iso, tensor_module
from cliffilt.certificate import failing, passing
from cliffilt.clifford import CliffordAlgebra
from cliffilt.deformation import (
    GradedRep,
    canonical_roundtrip_iso,
    deform,
    quotient_at,
    verify_offshell,
)
from cliffilt.exactalg import Matrix, Subspace, _vanishes
from cliffilt.invariants import random_filtration
from cliffilt.supermodule import (
    CliffordSupermodule,
    _fold,
    _points,
    _step,
    _twice_gram,
    degree_filtration,
    exterior_module,
    irreducible_cl5,
    irreducible_module,
)


def _full_scan(r):
    """Shift injectivity; then, point by point, shift commutation, each
    family's anticommutators, the mixed brackets and the shift-Q
    commutators, all of them at every grid point."""
    w, tops = r._words, r.tops
    for d, shifts in enumerate(r.shifts):
        for x, mat in shifts.items():
            if mat.rank() != mat.rows:
                return failing(w.relations, kind=w.injective[d], **dict(zip(w.point, x)))
    box = list(_points(tuple(t + 2 for t in tops)))
    shift = [{x: r.shift(d, x) for x in box} for d in range(len(tops))]
    q = [[{x: r.q(d, i, x) for x in box} for i in range(len(family))]
         for d, family in enumerate(r.qs)]
    twice = [_twice_gram(algebra) for algebra in r.algebras]
    pairs = list(combinations(range(len(tops)), 2))
    for x in _points(tops):
        at = dict(zip(w.point, x))
        for d, e in pairs:
            if not _vanishes([(1, shift[d][x], shift[e][_step(x, d, 2)]),
                              (-1, shift[e][x], shift[d][_step(x, e, 2)])]):
                return failing(w.relations, kind="shifts_commute", **at)
        for d, family in enumerate(q):
            up, s = _step(x, d, 1), shift[d][x]
            for i, qi in enumerate(family):
                for j in range(i, len(family)):
                    if i == j:
                        terms = [(2, qi[x], qi[up])]
                    else:
                        qj = family[j]
                        terms = [(1, qi[x], qj[up]), (1, qj[x], qi[up])]
                    if not _vanishes(terms, s, twice[d][i][j]):
                        return failing(w.relations, kind=w.anticommutator[d], i=i, j=j, **at)
        for d, e in pairs:
            up_d, up_e = _step(x, d, 1), _step(x, e, 1)
            for i, qi in enumerate(q[d]):
                for j, qj in enumerate(q[e]):
                    if not _vanishes([(1, qi[x], qj[up_d]), (1, qj[x], qi[up_e])]):
                        return failing(w.relations, kind="mixed_bracket",
                                       **{w.generator[d]: i, w.generator[e]: j}, **at)
        for d, family in enumerate(q):
            up = _step(x, d, 1)
            for i, qi in enumerate(family):
                for e, se in enumerate(shift):
                    if not _vanishes([(1, se[x], qi[_step(x, e, 2)]), (-1, qi[x], se[up])]):
                        return failing(w.relations, kind=w.shift_q[d][e],
                                       **{w.generator[d]: i}, **at)
    return passing(w.relations)


def _text(cert) -> str:
    return json.dumps(cert.to_json_obj())


def _rebuilt(r, shifts, qs):
    """A rep of r's type and dims with other maps; nothing is kept on it."""
    out = type(r).__new__(type(r))
    GradedRep.__init__(out, r.algebras, r.dims, shifts, qs)
    return out


def _maps(r):
    return [dict(s) for s in r.shifts], [[dict(q) for q in family] for family in r.qs]


def _invertible(n: int, rng) -> tuple[Matrix, Matrix]:
    """A seeded invertible rational matrix and its inverse."""
    while True:
        m = Matrix(n, n, [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                          for _ in range(n)])
        if m.rank() == n:
            break
    aug = Matrix(n, 2 * n, [list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(m.entries)])
    return m, Matrix(n, n, [row[n:] for row in Subspace.row_space(aug).basis.entries])


def _changed_basis(r, rng):
    """r carried by a seeded rational change of basis P_x of each grid
    component: each map from x to y becomes P_x M P_y^-1.  The identity
    shifts above the grid stay the identity, so the rep is isomorphic to r
    and satisfies the same relations."""
    change = {x: _invertible(dim, rng) for x, dim in r._grid.items()}
    shifts, qs = _maps(r)
    for d, held in enumerate(shifts):
        for x, mat in held.items():
            held[x] = change[x][0] * mat * change[_step(x, d, 2)][1]
    for d, family in enumerate(qs):
        for held in family:
            for x, mat in held.items():
                held[x] = change[x][0] * mat * change[_fold(_step(x, d, 1), r.tops)][1]
    return _rebuilt(r, shifts, qs)


def _bumped(m: Matrix, r: int, c: int, by) -> Matrix:
    rows = [list(row) for row in m.entries]
    rows[r][c] += by
    return Matrix(m.rows, m.cols, rows)


def _mutants(r, rng):
    """One seeded single-entry mutant of every stored shift and Q map at
    every grid point that holds a nonempty map."""
    shifts, qs = _maps(r)
    for table in shifts + [q for family in qs for q in family]:
        for x, mat in table.items():
            if not mat.rows or not mat.cols:
                continue
            by = rng.choice((1, -1, Fraction(1, 2), Fraction(-3, 2)))
            table[x] = _bumped(mat, rng.randrange(mat.rows), rng.randrange(mat.cols), by)
            yield _rebuilt(r, [dict(s) for s in shifts],
                           [[dict(q) for q in family] for family in qs])
            table[x] = mat


def _mixed(m, a):
    """m, whose Gram matrix is the identity, on the generators
    g'_i = sum_j a[i][j] g_j, so over the Gram matrix A A^T."""
    n = m.algebra.n
    am = Matrix(n, n, a)

    def mix(gammas, i):
        return sum((g.scale(a[i][j]) for j, g in enumerate(gammas[1:], 1)),
                   gammas[0].scale(a[i][0]))

    return CliffordSupermodule(CliffordAlgebra(n, am * am.transpose()),
                               [mix(m.gamma_eo, i) for i in range(n)],
                               [mix(m.gamma_oe, i) for i in range(n)])


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
                  _mixed(exterior_module(3), [[1, 1, 0], [0, 1, 2], [1, 0, 1]])])
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
        assert _full_scan(r)
        assert _text(_fresh_verdict(r)) == _text(_full_scan(r))
        for mutant in _mutants(r, rng):
            assert _text(deformation._verify(mutant)) == _text(_full_scan(mutant))


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
    (n, which, i, x, row, col, by), text = BELOW_TOP[name]
    if isinstance(n, tuple):
        base = bideform(tensor_module(*(degree_filtration(exterior_module(k)) for k in n)))
    else:
        base = deform(degree_filtration(exterior_module(n)))
    shifts, qs = _maps(base)
    held = qs[int(which[1:])][i] if len(which) > 1 else qs[0][i]
    held[x] = _bumped(held[x], row, col, by)
    mutant = _rebuilt(base, shifts, qs)
    cert = deformation._verify(mutant)
    assert _text(cert) == text == _text(_full_scan(mutant))
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
