"""Classification invariants: graded dims, sources, decomposition."""

import hashlib
import importlib.util
import io
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import cliffilt
import oracle
from cliffilt import cli, exactalg, invariants, serialize, supermodule
from cliffilt.bifiltration import tensor_module
from cliffilt.certificate import CheckFailed
from cliffilt.exactalg import Matrix, Subspace, _vanishes
from cliffilt.invariants import (
    CERTIFIED,
    DISTINGUISHED,
    EXHAUSTED,
    INDISTINGUISHABLE,
    _certify_indecomposable,
    _factor_rational_poly,
    _minimal_polynomial,
    _random_candidates,
    _split_by,
    _trace_form,
    decompose,
    filtered_endomorphisms,
    filtration_search,
    gr_dimensions,
    invariant_equal,
    invariant_report,
    random_filtration,
    source_dimensions,
)
from cliffilt.clifford import CliffordAlgebra
from cliffilt.supermodule import (
    CliffordSupermodule,
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
    trivial_filtration,
)
from oracle import flat, grid, invertible, mixed, rebased


def test_gr_dims_frozen_values():
    assert gr_dimensions(degree_filtration(exterior_module(4))) == (1, 4, 6, 4, 1)
    assert gr_dimensions(hodge_filtration(exterior_module(4))) == (1, 4, 6, 4, 1)


def test_source_dims_frozen_values():
    assert source_dimensions(degree_filtration(exterior_module(4))) == (1, 0, 0, 0, 0)
    assert source_dimensions(hodge_filtration(exterior_module(4))) == (1, 0, 3, 0, 0)


def test_gr_sums_to_total_dimension():
    rng = random.Random(17)
    for n in (1, 2, 3):
        m = exterior_module(n)
        for _ in range(8):
            f = random_filtration(m, rng)
            assert sum(gr_dimensions(f)) == m.dim_even + m.dim_odd


def test_source_zero_equals_bottom_flag():
    rng = random.Random(29)
    m = exterior_module(2)
    for _ in range(10):
        f = random_filtration(m, rng)
        src = source_dimensions(f)
        assert src[0] == f.level(0).dim
        assert all(s <= g for s, g in zip(src, gr_dimensions(f)))


def test_endomorphism_dimensions():
    assert len(filtered_endomorphisms(degree_filtration(exterior_module(4)))) == 1
    assert len(filtered_endomorphisms(hodge_filtration(exterior_module(4)))) == 2
    # scalars plus the three extra quaternion units on the trivial filtration
    assert len(filtered_endomorphisms(trivial_filtration(irreducible_cl5()))) == 4
    # the zero module has no commutant, so no filtered endomorphism
    zero = CliffordSupermodule(CliffordAlgebra(0), [], [], 0, 0)
    assert filtered_endomorphisms(trivial_filtration(zero)) == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_decompose_certifies_quaternion_endomorphisms(n):
    # the trivial filtration of an irreducible module whose filtered
    # endomorphisms are a rational quaternion division algebra
    summands = decompose(trivial_filtration(irreducible_module(n)))
    assert [s.status for s in summands] == [CERTIFIED]
    assert len(filtered_endomorphisms(summands[0].filtration)) == 4


def test_decompose_hodge_two_summands():
    summands = decompose(hodge_filtration(exterior_module(4)))
    got = sorted(gr_dimensions(s.filtration) for s in summands)
    assert got == [(0, 0, 3, 4, 1), (1, 4, 3, 0, 0)]
    assert all(s.status == CERTIFIED for s in summands)


def test_decompose_degree_indecomposable():
    summands = decompose(degree_filtration(exterior_module(4)))
    assert len(summands) == 1
    assert summands[0].status == CERTIFIED


def test_decompose_flags_reconstruct():
    f = hodge_filtration(exterior_module(4))
    summands = decompose(f)
    for p in range(f.top_degree + 1):
        parts = Subspace.zero(f.module.dim(p))
        for s in summands:
            embed = s.embed_even if p % 2 == 0 else s.embed_odd
            parts = parts + s.filtration.level(p).image(embed)
        assert parts == f.level(p), p


def test_decompose_idempotent():
    for f in (hodge_filtration(exterior_module(4)),
              direct_sum_filtration(degree_filtration(exterior_module(1)),
                                    degree_filtration(exterior_module(1)))):
        for s in decompose(f):
            again = decompose(s.filtration)
            assert len(again) == 1


def test_decompose_sum_splits():
    a = degree_filtration(exterior_module(1))
    f = direct_sum_filtration(a, a)
    summands = decompose(f)
    assert len(summands) == 2
    assert all(gr_dimensions(s.filtration) == (1, 1) for s in summands)


def test_invariant_report_and_equal():
    d = degree_filtration(exterior_module(4))
    h = hodge_filtration(exterior_module(4))
    rep = invariant_report(d)
    assert rep.gr_dims == (1, 4, 6, 4, 1)
    verdict = invariant_equal(d, h)
    assert verdict.verdict == DISTINGUISHED and verdict.by == "source_dims"
    assert not verdict
    same = invariant_equal(d, d)
    assert same.verdict == INDISTINGUISHABLE and bool(same)


def test_invariance_under_module_automorphism():
    # automorphisms of the underlying module need not preserve the flags;
    # transporting a filtration along one must not change its invariants
    rng = random.Random(101)
    f = hodge_filtration(exterior_module(4))
    commutant = filtered_endomorphisms(trivial_filtration(f.module))
    assert len(commutant) > 1
    moved = 0
    for _ in range(8):
        pe = Matrix.zeros(8, 8)
        po = Matrix.zeros(8, 8)
        for ee, eo in commutant:
            c = rng.randint(-2, 2)
            pe = pe + ee.scale(c)
            po = po + eo.scale(c)
        if pe.rank() < 8 or po.rank() < 8:
            continue
        flags_even = [flag.image(pe) for flag in f.even_flags]
        flags_odd = [flag.image(po) for flag in f.odd_flags]
        g = SuperFiltration(f.module, flags_even, flags_odd)
        assert check_filtration(g)
        assert gr_dimensions(g) == gr_dimensions(f)
        assert source_dimensions(g) == source_dimensions(f)
        if any(a != b for a, b in zip(flags_even, f.even_flags)):
            moved += 1
    assert moved >= 1


def _check_endomorphisms(f):
    """filtered_endomorphisms(f) spans the oracle's End(f), and its basis is
    the combinations of the commutant's pairs whose coefficients are the
    reduced row-echelon basis of those that keep every level."""
    got = [flat(pair) for pair in filtered_endomorphisms(f)]
    end = oracle.endomorphisms(f)
    pairs = [flat(pair) for pair in f.module.graded_commutant()]
    width = f.dims[(0,)] ** 2 + f.dims[(1,)] ** 2
    assert oracle.span_equal(got, end, width)
    # c keeps the levels when sum c_k P_k meets every equation y that End solves
    outside = oracle.null_space(end, width)
    keep = oracle.null_space(oracle.product(outside, oracle.transpose(pairs, width),
                                            len(pairs)), len(pairs))
    assert [oracle.solve(pairs, row) for row in got] == keep


def test_filtered_endomorphisms_match_the_oracle():
    # random filtrations, and the same moved by a rational module
    # automorphism, so flag bases and residuals carry unequal denominators
    rng = random.Random(107)
    modules = [exterior_module(n) for n in (1, 2, 3)] + [irreducible_module(n) for n in (2, 3, 4)]
    moved = 0
    for k in range(36):
        f = random_filtration(modules[k % len(modules)], rng)
        _check_endomorphisms(f)
        pe, po = Matrix.identity(f.module.dim_even), Matrix.identity(f.module.dim_odd)
        for a, b in f.module.graded_commutant():
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 7))
            pe, po = pe + a.scale(c), po + b.scale(c)
        if pe.rank() < pe.rows or po.rank() < po.rows:
            continue
        g = SuperFiltration(f.module, [flag.image(pe) for flag in f.even_flags],
                            [flag.image(po) for flag in f.odd_flags])
        assert check_filtration(g)
        _check_endomorphisms(g)
        moved += 1
    assert moved >= 20


def _conjugated(m, c: Fraction, rng):
    """m with its gammas scaled by c, so its Gram matrix by c^2, and
    conjugated by seeded rational changes of basis: the gammas are no
    longer signed permutations and the commutant's pairs carry unequal
    denominators."""
    (p, p_inv), (q, q_inv) = invertible(m.dim_even, rng), invertible(m.dim_odd, rng)
    return CliffordSupermodule(
        CliffordAlgebra(m.algebra.n, m.algebra.gram.scale(c * c)),
        [p_inv * g.scale(c) * q for g in m.gamma_eo], [q_inv * g.scale(c) * p for g in m.gamma_oe])


def test_commutant_and_endomorphisms_on_conjugated_modules():
    # the pairs, built from the kernel's integer rows with R = oe0 P eo0 / G[0][0],
    # still commute with the action; the endomorphisms, summed in integers,
    # are still the oracle's
    rng = random.Random(139)
    denominators = set()
    for base in (exterior_module(2), exterior_module(3), irreducible_module(3)):
        m = _conjugated(base, Fraction(2, 3), rng)
        pairs = m.graded_commutant()
        assert len(pairs) == len(base.graded_commutant())
        for pe, po in pairs:
            for i in range(m.algebra.n):
                assert pe * m.gamma(i, 0) == m.gamma(i, 0) * po
                assert po * m.gamma(i, 1) == m.gamma(i, 1) * pe
            denominators |= {pe._ints()[0], po._ints()[0]}
        for _ in range(3):
            # summands give endomorphisms that are combinations of several pairs
            f = direct_sum_filtration(random_filtration(m, rng), random_filtration(m, rng))
            _check_endomorphisms(f)
    assert len(denominators) > 2


def test_commutant_matches_two_block_system():
    rng = random.Random(139)
    modules = ([exterior_module(n) for n in (1, 2, 3, 4)]
               + [irreducible_module(n) for n in (1, 2, 3, 4)] + [irreducible_cl5()]
               + [_conjugated(base, Fraction(2, 3), rng)
                  for base in (exterior_module(2), exterior_module(3), irreducible_module(3))]
               + [mixed(exterior_module(3), [[1, 1, 0], [0, 1, 2], [1, 0, 1]]),
                  mixed(irreducible_module(4),
                         [[2, 0, 1, 0], [1, 1, 0, -1], [0, 3, 1, 1], [0, 0, -1, 2]])])
    for m in modules:
        # the oracle's End of m as a span, and the pairs' even parts, which
        # fix the odd ones, the reduced row-echelon basis of its even parts
        assert check_supermodule(m), m
        pairs = [flat(pair) for pair in m.graded_commutant()]
        end, even = oracle.endomorphisms(m), m.dim_even ** 2
        assert oracle.span_equal(pairs, end, even + m.dim_odd ** 2), m
        assert [row[:even] for row in pairs] == oracle.rref([row[:even] for row in end], even)[0]
    # the Gram matrices A A^T are not diagonal, and G[0][0] is not 1
    assert modules[-1].algebra.gram.entries[0][1] and modules[-1].algebra.gram.entries[0][0] == 5


def _monomial(m) -> bool:
    """Whether every gamma has exactly one nonzero entry in each row and column."""
    for g in (*m.gamma_eo, *m.gamma_oe):
        rows = g._ints()[1]
        if sorted(j for row in rows for j, _ in row) != list(range(g.cols)) or any(
                len(row) != 1 for row in rows):
            return False
    return True


def test_commutant_of_monomial_gammas_needs_no_elimination(eliminations):
    """With monomial gammas every commutant equation has two terms, and
    the solve calls no `rref`; a dense conjugate's equations do not, and
    its solve does.  Either way every pair intertwines every gamma, and
    conjugating does not change the commutant's dimension."""
    rng = random.Random(151)
    pieces = decompose(trivial_filtration(direct_sum(irreducible_module(2), irreducible_module(2))))
    assert len(pieces) == 2
    base = irreducible_module(3)
    conjugate = _conjugated(base, Fraction(1), rng)
    modules = ([exterior_module(n) for n in range(6)] + [irreducible_module(n) for n in range(1, 6)]
               + [direct_sum(irreducible_module(2), exterior_module(2)),
                  pieces[0].filtration.module, conjugate])
    sizes = {}
    for built in modules:
        # a fresh module, so that no commutant is kept on it yet
        m = CliffordSupermodule(built.algebra, list(built.gamma_eo), list(built.gamma_oe),
                                built.dim_even, built.dim_odd)
        assert check_supermodule(m), m
        before = len(eliminations)
        pairs = m.graded_commutant()
        assert (len(eliminations) == before) == _monomial(m) == (built is not conjugate), m
        for p, r in pairs:
            for eo, oe in zip(m.gamma_eo, m.gamma_oe):
                assert _vanishes([(1, p, eo), (-1, eo, r)])
                assert _vanishes([(1, r, oe), (-1, oe, p)])
        sizes[built] = len(pairs)
    assert sizes[conjugate] == sizes[base] > 0


def _signed_permutation(n: int, rng) -> tuple[Matrix, Matrix]:
    """A seeded signed permutation matrix and its inverse, its transpose."""
    cols = rng.sample(range(n), n)
    q = Matrix._from_ints(n, 1, [((j, rng.choice((1, -1))),) for j in cols])
    return q, q.transpose()


def _counted(monkeypatch, names):
    """Wrap each named supermodule function to record its calls."""
    calls = Counter()
    for name in names:
        original = getattr(supermodule, name)
        monkeypatch.setattr(supermodule, name,
                            lambda *a, _o=original, _n=name: calls.update([_n]) or _o(*a))
    return calls


def test_commutant_requires_the_module_relations(monkeypatch):
    # R = oe_i P eo_i / G[i][i] holds only where the relations do: a module
    # that breaks them raises instead of returning a wrong commutant, before
    # any equation is built or solved
    calls = _counted(monkeypatch, ("_monomial_equations", "_general_equations", "_null_space"))
    for m in (irreducible_module(3), irreducible_cl5()):
        broken = CliffordSupermodule(m.algebra, [m.gamma_eo[0].scale(2), *m.gamma_eo[1:]],
                                     list(m.gamma_oe))
        for _ in range(2):
            with pytest.raises(CheckFailed) as raised:
                broken.graded_commutant()
            assert raised.value.certificate.check == "supermodule_relations"
    assert not calls


def test_commutant_of_a_module_with_a_zero_part(monkeypatch):
    # with a generator, one zero part breaks g_0 g_0 = G_00 I on the other,
    # so the relations check fails before any equation; with both parts
    # zero the equations have no unknown and the commutant is empty
    calls = _counted(monkeypatch, ("_monomial_equations", "_general_equations", "_null_space"))
    for n, (de, do) in ((1, (0, 1)), (2, (2, 0)), (3, (0, 4))):
        one_sided = CliffordSupermodule(CliffordAlgebra(n), [Matrix.zeros(de, do)] * n,
                                        [Matrix.zeros(do, de)] * n, de, do)
        with pytest.raises(CheckFailed) as raised:
            one_sided.graded_commutant()
        assert raised.value.certificate.check == "supermodule_relations"
    assert not calls
    for n in (1, 2, 3):
        zero = CliffordSupermodule(CliffordAlgebra(n), [Matrix.zeros(0, 0)] * n,
                                   [Matrix.zeros(0, 0)] * n, 0, 0)
        assert check_supermodule(zero) and zero.graded_commutant() == []
    assert calls["_null_space"] == 3
    # with no generator every pair of square blocks commutes
    assert len(CliffordSupermodule(CliffordAlgebra(0), [], [], 2, 1).graded_commutant()) == 5


def test_monomial_commutant_equals_the_general_equations(monkeypatch):
    """Where A_i = eo_i oe_0 is a signed permutation, its two-term
    equations are the nonzero general equations of P A_i = A_i P, and the
    commutant solved from them equals, entry for entry, the one solved
    from the general equations; a dense conjugate takes the general path."""
    rng = random.Random(163)
    cl5 = irreducible_cl5()
    (p, p_inv), (q, q_inv) = _signed_permutation(8, rng), _signed_permutation(8, rng)
    c = Fraction(2, 3)  # the signed permutations then carry a denominator
    moved = CliffordSupermodule(CliffordAlgebra(5, cl5.algebra.gram.scale(c * c)),
                                [p_inv * g.scale(c) * q for g in cl5.gamma_eo],
                                [q_inv * g.scale(c) * p for g in cl5.gamma_oe])
    modules = ([exterior_module(n) for n in range(6)] + [irreducible_module(n) for n in range(1, 6)]
               + [cl5, direct_sum(irreducible_module(3), exterior_module(3)), moved])
    dense = _conjugated(cl5, Fraction(1), rng)

    def fresh(m):  # no commutant is kept on it yet
        return CliffordSupermodule(m.algebra, list(m.gamma_eo), list(m.gamma_oe),
                                   m.dim_even, m.dim_odd)

    def equations(rows, name):
        return sorted(tuple(sorted(eq)) for eq in getattr(supermodule, name)(rows) if eq)

    # a module's A_i has no fixed point (A_i^2 = 2 G_i0 A_i - G_ii G_00 I,
    # so an eigenvalue would solve a quadratic with negative discriminant,
    # G being definite), so fixed points, where the two unknowns coincide,
    # are drawn here: one term where the entries differ, none where they
    # cancel
    fixed = [((0, 1),), ((1, -1),), ((2, 2),)], [((1, 1),), ((0, 3),), ((2, 3),)]
    for rows in fixed:
        assert equations(rows, "_monomial_equations") == equations(rows, "_general_equations")
    for m in modules:
        for eoi in m.gamma_eo[1:]:
            rows = (eoi * m.gamma_oe[0])._ints()[1]
            assert equations(rows, "_monomial_equations") == equations(rows, "_general_equations")
        with monkeypatch.context() as patched:
            patched.setattr(supermodule, "_monomial_equations", supermodule._general_equations)
            want = fresh(m).graded_commutant()
        with monkeypatch.context() as patched:
            calls = _counted(patched, ("_monomial_equations", "_general_equations"))
            got = fresh(m).graded_commutant()
        assert calls == Counter({"_monomial_equations": max(m.algebra.n - 1, 0)}), m
        assert got == want and [(x.entries, y.entries) for x, y in got] == [
            (x.entries, y.entries) for x, y in want], m
    assert moved.gamma_eo[1]._ints()[0] == 3 and len(moved.graded_commutant()) == 4
    with monkeypatch.context() as patched:
        calls = _counted(patched, ("_monomial_equations", "_general_equations"))
        pairs = fresh(dense).graded_commutant()
    assert calls == Counter({"_general_equations": 4}) and len(pairs) == 4
    for x, y in pairs:
        for eo, oe in zip(dense.gamma_eo, dense.gamma_oe):
            assert _vanishes([(1, x, eo), (-1, eo, y)]) and _vanishes([(1, y, oe), (-1, oe, x)])


@st.composite
def _square_int_rows(draw):
    """The rows of a square integer matrix in the kernel's integer form,
    each row dense, sparse, zero or one diagonal entry."""
    n = draw(st.integers(0, 5))
    entry = st.integers(-3, 3)
    rows = []
    for r in range(n):
        kind = draw(st.sampled_from(("dense", "sparse", "zero", "diagonal")))
        event(kind)
        if kind == "dense":
            cells = {c: draw(entry) for c in range(n)}
        elif kind == "sparse":
            cells = {draw(st.integers(0, n - 1)): draw(entry)}
        elif kind == "diagonal":
            cells = {r: draw(entry)}
        else:
            cells = {}
        rows.append(tuple((c, x) for c, x in sorted(cells.items()) if x))
    return rows


@settings(max_examples=300)
@given(_square_int_rows())
@example([])
@example([()])
@example([((0, 5),)])
@example([((0, 1),), ((1, 2),), ((2, 2),)])
def test_kronecker_equations_match_the_oracle(rows):
    # the rows of kron(I, A^T) - kron(A, I) are the per-entry equations of
    # P A = A P, sum_k P[r][k] A[k][c] - A[r][k] P[k][c] with P[r][k] the
    # unknown r * n + k; a diagonal entry of A puts one unknown in both
    n = len(rows)
    a = Matrix._from_ints(n, 1, rows)
    entries = grid(a)
    want = [[(entries[u % n][c] if u // n == r else 0) - (entries[r][u // n] if u % n == c else 0)
             for u in range(n * n)] for r in range(n) for c in range(n)]
    got = supermodule._general_equations(rows)
    assert len(got) == n * n
    assert sorted([dict(eq).get(u, 0) for u in range(n * n)] for eq in got) == sorted(want)
    solved = exactalg._null_space(Matrix._from_ints(n * n, 1, got))
    assert solved.entries == tuple(map(tuple, oracle.null_space(want, n * n)))
    for row in solved.entries:
        p = Matrix(n, n, [row[r * n:(r + 1) * n] for r in range(n)])
        assert p * a == a * p


def test_decompose_pieces_inherit_the_relations_verdict(monkeypatch):
    # each piece restricts a checked module to gamma-invariant subspaces,
    # so its relations hold by construction: only the parent's are verified
    irr = trivial_filtration(irreducible_module(4))
    f = direct_sum_filtration(irr, irr)
    verified = []
    original = supermodule._module_relations

    def counting(v):
        verified.append(v)
        return original(v)

    monkeypatch.setattr(supermodule, "_module_relations", counting)
    summands = decompose(f)
    assert len(verified) == 1 and len(summands) == 2
    monkeypatch.undo()
    for s in summands:
        m = s.filtration.module
        assert m._verdict is f.module._verdict
        rebuilt = CliffordSupermodule(m.algebra, list(m.gamma_eo), list(m.gamma_oe))
        assert check_supermodule(rebuilt)


def _certified_then_searched(s: int) -> SuperFiltration:
    """The certified trivial filtration of irreducible(2), whose
    endomorphisms form a field of dimension 2, summed before a moved
    A + A whose endomorphisms are 2 x 2 rational matrices: its basis does
    not split it, nor does the certificate apply, so it reaches the random
    candidates, which come after the certified piece's."""
    irr2 = irreducible_module(2)
    rng = random.Random(s)
    a = random_filtration(irr2, rng)
    return direct_sum_filtration(trivial_filtration(irr2), rebased(direct_sum_filtration(a, a), rng))


def _candidates(endos, candidates: int, rng) -> list:
    """The random phase's candidates, each one rng.randint(-3, 3) per basis
    pair, summed entry by entry on each parity."""
    out = []
    for _ in range(candidates):
        coeffs = [rng.randint(-3, 3) for _ in endos]
        out.append(tuple(Matrix(m.rows, m.cols, oracle.combination(
            [(c, grid(pair[p])) for c, pair in zip(coeffs, endos)], m.rows, m.cols))
            for p, m in enumerate(endos[0])))
    return out


def test_certified_pieces_have_no_split_candidate():
    # a certified piece's endomorphism algebra has no idempotent but 0 and 1,
    # so every element the search can try, the basis and each random
    # candidate, has a minimal polynomial that is a power of one irreducible:
    # the full random phase returns None on it
    rng = random.Random(223)
    modules = ([exterior_module(n) for n in (1, 2, 3)]
               + [irreducible_module(n) for n in (2, 3, 4)] + [irreducible_cl5()])
    inputs = [random_filtration(m, rng) for m in modules for _ in range(3)]
    inputs += [direct_sum_filtration(random_filtration(m, rng), random_filtration(m, rng))
               for m in modules[:-1]]
    inputs += [_certified_then_searched(s) for s in (4, 17)]
    sizes = Counter()
    for k, f in enumerate(inputs):
        for summand in decompose(f, seed=k):
            piece = summand.filtration
            endos = filtered_endomorphisms(piece)
            if _certify_indecomposable(piece, endos) != CERTIFIED:
                continue
            sizes[len(endos)] += 1
            tried = list(endos)
            if len(endos) > 1:
                tried += _candidates(endos, 16, random.Random(k))
            for pair in tried:
                assert len(_factor_rational_poly(_minimal_polynomial(piece.module, pair))) < 2
    # scalars, fields of dimension 2 and quaternion algebras all occur
    assert {1, 2, 4} <= set(sizes), sizes


def test_random_candidates_match_matrix_sums():
    # each candidate is one integer combination per parity, over the same
    # draws in the same order as the Matrix sums
    rng = random.Random(227)
    sizes = []
    for m in (irreducible_cl5(), irreducible_module(3), exterior_module(3)):
        g = direct_sum_filtration(*[random_filtration(m, rng)] * 2)
        endos = filtered_endomorphisms(g)
        sizes.append(len(endos))
        s = rng.randrange(1000)
        got = list(_random_candidates(endos, 16, random.Random(s)))
        assert got == _candidates(endos, 16, random.Random(s))
    assert max(sizes) > 4


def test_trace_form_matches_pair_products():
    # the form read from integer forms equals the trace of each full pair
    # product, on random filtrations and on their doubles
    rng = random.Random(229)
    sizes = set()
    for m in (irreducible_cl5(), irreducible_module(3), exterior_module(3)):
        for f in (random_filtration(m, rng), direct_sum_filtration(*[random_filtration(m, rng)] * 2)):
            endos = filtered_endomorphisms(f)
            sizes.add(len(endos))
            want = [[sum(p.entries[i][i] for p in (a[0] * b[0], a[1] * b[1]) for i in range(p.rows))
                     for b in endos] for a in endos]
            assert _trace_form(endos) == Matrix.from_rows(want, cols=len(endos))
    assert max(sizes) > 4


def test_certified_piece_computes_few_minimal_polynomials(monkeypatch):
    # a Cl(5)-irreducible filtration whose endomorphisms are the quaternions:
    # the basis attempts take at most one minimal polynomial each, then the
    # certificate ends the search without the random candidates
    f = random_filtration(irreducible_cl5(), random.Random(3))
    endos = filtered_endomorphisms(f)
    assert len(endos) == 4
    calls = []

    def counting(module, pair):
        calls.append(pair)
        return _minimal_polynomial(module, pair)

    monkeypatch.setattr(invariants, "_minimal_polynomial", counting)
    assert [s.status for s in decompose(f)] == [CERTIFIED]
    assert 0 < len(calls) <= len(endos)


def _decompose_digest(f: SuperFiltration, seed: int) -> str:
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(serialize.dumps(f)), io.StringIO()
    try:
        code = cli.main(["decompose", "--seed", str(seed)])
        text = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    assert code == 0
    return hashlib.sha256(text.encode()).hexdigest()


def _random_input(name: str, s: int) -> SuperFiltration:
    rng = random.Random(s)
    if name == "irr4+irr4":
        irr4 = irreducible_module(4)
        return direct_sum_filtration(random_filtration(irr4, rng), random_filtration(irr4, rng))
    return random_filtration({"ext4": exterior_module(4), "cl5": irreducible_cl5()}[name], rng)


DECOMPOSE_PINS = {
    ('certified+searched', 4, 1):
        "c8cfa27b03b9bb78cc596e41ceb4c6f399f2ef195df3d33a3c640591f2043af1",
    ('certified+searched', 4, 3):
        "d907f8e133f23ff00d7f49fd4f824af6f7e34629eafb474e45275259ffabe871",
    ('certified+searched', 17, 2):
        "77465e9ca47f07bbe594d0d5b164cfda7f419de52ed05cde2177f62d27b641b4",
    ('irr4+irr4', 1, 5):
        "637950348e19caef4d1a3979f8d9c65e7ff2a38cb20d0220393e3fdbfa63eab8",
    ('irr4+irr4', 2, 7):
        "85593d384be65752264561c667ff7b9c2c8d810bb36788bc8fa2f6a69f2136b9",
    ('cl5', 3, 11):
        "ab4f4c69633a6c75cece68aeca6e738217e2c068e42b3300ce9eec7d86a50d8a",
    ('cl5', 4, 0):
        "56019b317d051e7ee19284af30d43403709e4ae0493f08fa1c87049f28357cee",
    ('ext4', 5, 2):
        "64042411a86703acb1187d80d3985074ce35a16f8b0bee340be54e76cc34a119",
}


@pytest.mark.parametrize("case", sorted(DECOMPOSE_PINS))
def test_decompose_bytes_pinned(case):
    # the sums after a certified piece split at a random candidate, or find
    # none, only when the piece's random draws are taken: drawn or skipped,
    # they move the sibling's candidates
    name, s, seed = case
    f = _certified_then_searched(s) if name == "certified+searched" else _random_input(name, s)
    assert _decompose_digest(f, seed) == DECOMPOSE_PINS[case]


def test_random_filtrations_always_valid():
    rng = random.Random(71)
    for n in (1, 2, 3):
        m = exterior_module(n)
        for _ in range(10):
            f = random_filtration(m, rng)
            assert check_filtration(f)
            low = 0 if f.level(0).dim else 1
            assert f.level(low).dim > 0


def test_search_finds_degree_class_on_ext4():
    m = exterior_module(4)
    found = filtration_search(m, (1, 4, 6, 4, 1), budget=40, seed=2)
    assert found
    for f in found:
        assert check_filtration(f)
        assert gr_dimensions(f) == (1, 4, 6, 4, 1)


def test_search_rejects_infeasible_targets():
    m = exterior_module(2)
    with pytest.raises(ValueError):
        filtration_search(m, (5,), budget=1)
    with pytest.raises(ValueError):
        filtration_search(m, (1, 9, 1), budget=1)
    with pytest.raises(ValueError):
        filtration_search(m, (-1, 2, 3), budget=1)
    # a negative budget is refused, as `cliffilt search --budget -1` is
    with pytest.raises(ValueError, match="budget"):
        filtration_search(m, (2, 2), budget=-1)
    assert filtration_search(m, (2, 2), budget=0) == []


def test_decompose_rejects_a_negative_candidate_count():
    # as filtration_search does a negative budget, before any other work
    f = degree_filtration(exterior_module(2))
    with pytest.raises(ValueError, match="candidates"):
        decompose(f, candidates=-1)
    with pytest.raises(ValueError, match="candidates"):
        decompose(exterior_module(1), candidates=-1)
    assert len(decompose(f, candidates=0)) == 1


def test_invariants_name_the_supported_type():
    f = degree_filtration(exterior_module(1))
    for wrong in (tensor_module(f, f), exterior_module(1)):
        for invariant in (gr_dimensions, source_dimensions, filtered_endomorphisms,
                          decompose, invariant_report):
            with pytest.raises(TypeError, match="SuperFiltration"):
                invariant(wrong)


def test_search_deduplicates_by_invariants():
    m = exterior_module(2)
    found = filtration_search(m, (2, 2), budget=60, seed=5)
    for i, a in enumerate(found):
        for b in found[i + 1:]:
            assert invariant_equal(a, b).verdict == DISTINGUISHED


def test_search_keeps_its_reports_in_the_bounded_report_cache():
    # deduplication goes through invariant_equal, so the summand reports of
    # the finds and candidates live in invariant_report's cache, whose bound
    # holds however many candidates a search compares
    invariant_report.cache_clear()
    filtration_search(irreducible_cl5(), (2, 8, 6), 300)
    assert 1 <= invariant_report.cache_info().currsize <= 128


def test_import_leaves_sympy_unloaded():
    # sympy is imported on the first factorization that may split, not
    # with the package: t^2 + 1, 3t + 2, t^2 - 2 and t^2 - 1/8
    # (discriminant 1/2) cannot split, t^2 - 1 can
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cliffilt; "
            "print('sympy' in sys.modules); "
            "from fractions import Fraction as F; "
            "from cliffilt.invariants import _factor_rational_poly as factor; "
            "factor([F(1), F(0), F(1)]); factor([F(2), F(3)]); "
            "factor([F(-2), F(0), F(1)]); factor([F(-1, 8), F(0), F(1)]); "
            "print('sympy' in sys.modules); "
            "factor([F(-1), F(0), F(1)]); print('sympy' in sys.modules)")
    src = str(Path(cliffilt.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False", "True"]


def test_public_names_are_not_modules():
    # the submodules stay importable as attributes, but are not API names
    assert cliffilt.__all__
    for name in cliffilt.__all__:
        assert not isinstance(getattr(cliffilt, name), ModuleType), name
    assert {"Matrix", "decompose", "to_graph"} <= set(cliffilt.__all__)
    assert cliffilt.exactalg.Matrix is cliffilt.Matrix


def test_public_surface_is_pinned():
    # a name added to or dropped from the package's surface changes this list
    assert sorted(cliffilt.__all__) == [
        "AdinkraGraph", "BiGradedRep", "BifilteredSupermodule", "Certificate",
        "CliffordAlgebra", "CliffordElement", "CliffordSupermodule", "ComparisonVerdict",
        "FilteredIso", "GradedSpace", "InvariantReport", "Matrix", "OffShellRep", "OnShellModule",
        "SerializeError", "Subspace", "Summand", "SuperFiltration", "TwistedProduct", "bideform",
        "biquotient", "canonical_biroundtrip_iso", "canonical_roundtrip_iso",
        "check_bifiltered_module", "check_filtration", "check_supermodule", "check_twisted_tensor",
        "decode", "decompose", "deform", "degree_filtration", "direct_sum",
        "direct_sum_filtration", "dumps", "encode", "enumerate_heights",
        "enveloping_quotient_check", "exterior_module", "filtered_endomorphisms",
        "filtration_search", "gr_dimensions", "heights_from_sources", "hodge_filtration",
        "invariant_equal", "invariant_report", "irreducible_cl5", "irreducible_module", "kernel",
        "loads", "quotient_at", "random_filtration", "rational", "rebuild_filtration", "rref",
        "source_dimensions", "source_set", "tensor_module", "to_dot", "to_graph", "total_module",
        "trivial_filtration", "twisted_tensor", "verify_2d", "verify_offshell",
    ]


def _seeded_block(rng, n: int) -> Matrix:
    """A dense rational, nilpotent, repeated-root or scalar n x n block."""
    kind = rng.choice(("dense", "nilpotent", "repeated", "scalar"))
    if kind == "dense":
        return Matrix(n, n, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                             for _ in range(n)])
    if kind == "nilpotent":
        return Matrix(n, n, [[rng.randint(-2, 2) if j > i else 0 for j in range(n)]
                             for i in range(n)])
    if kind == "scalar":
        return Matrix.identity(n).scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    # eigenvalues from a set of two, with Jordan blocks of random sizes,
    # conjugated by 1 + c E_ij (i != j), whose inverse is 1 - c E_ij
    roots = [Fraction(rng.randint(-2, 2), 2) for _ in range(2)]
    jordan = Matrix(n, n, [[rng.choice(roots) if i == j else
                            (rng.randint(0, 1) if j == i + 1 else 0) for j in range(n)]
                           for i in range(n)])
    if n < 2:
        return jordan
    i, j = rng.sample(range(n), 2)
    c = rng.randint(1, 3)
    unit = Matrix(n, n, [[int(r == i and s == j) for s in range(n)] for r in range(n)])
    return (Matrix.identity(n) + unit.scale(c)) * jordan * (Matrix.identity(n) - unit.scale(c))


def test_minimal_polynomial_matches_solve_reference():
    rng = random.Random(97)
    degrees = set()
    for _ in range(60):
        de, do = rng.randint(0, 5), rng.randint(0, 5)
        if de + do == 0:
            de = 1
        pair = (_seeded_block(rng, de), _seeded_block(rng, do))
        module = SimpleNamespace(dim_even=de, dim_odd=do)
        got = _minimal_polynomial(module, pair)
        assert got == oracle.minimal_polynomial(pair), pair
        degrees.add(len(got) - 1)
    # two 8 x 8 blocks with sixteen distinct eigenvalues: degree 16
    pair = (Matrix(8, 8, [[i + 1 if i == j else int(j == i + 1) for j in range(8)]
                          for i in range(8)]),
            Matrix(8, 8, [[Fraction(-i - 1, 2) if i == j else 0 for j in range(8)]
                          for i in range(8)]))
    got = _minimal_polynomial(SimpleNamespace(dim_even=8, dim_odd=8), pair)
    assert len(got) == 17 and got == oracle.minimal_polynomial(pair)
    assert {1, 2, 3}.issubset(degrees)


def test_factor_rational_poly_matches_sympy():
    rng = random.Random(89)

    def rat():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))

    cases = [[Fraction(5)], [Fraction(1), Fraction(0), Fraction(1)]]
    for _ in range(80):
        a, b, c, u = rat(), rat(), rat(), rat()
        cases += [
            [b, a],  # linear
            [u * a * c, u * (a + c), u],  # u (t + a)(t + c): splits
            [u * a * a, 2 * u * a, u],  # u (t + a)^2: a double root
            [b * b + a * a * c * c, -2 * b, Fraction(1)],  # roots b +- a c i
            [c, b, a],  # non-monic, either way
            [c, b, a, u],  # a cubic goes to sympy
        ]
    for coeffs in cases:
        assert _factor_rational_poly(coeffs) == oracle.factors(coeffs), coeffs


# ---------------------------------------------------------------------------
# Work that full flags, the module's relations and kept results make
# unnecessary, with the oracle as the reference


def test_source_dimensions_are_computed_once_per_filtration(monkeypatch):
    # Lambda(R^4) by degree does not split, so its one summand is the
    # filtration itself: the report and the decomposition share its
    # source dimensions, and a later call reads them again
    f = degree_filtration(exterior_module(4))
    grown = []
    original = invariants._grown
    monkeypatch.setattr(invariants, "_grown",
                        lambda m, p, below, span: grown.append(p) or original(m, p, below, span))
    invariant_report.cache_clear()
    report = invariant_report(f)
    assert [s.filtration for s in decompose(f)] == [f]
    assert source_dimensions(f) == report.source_dims == (1, 0, 0, 0, 0)
    assert grown == list(range(f.top_degree + 1))


@pytest.mark.parametrize("module", [exterior_module(3), irreducible_module(4), irreducible_cl5()])
def test_grown_from_a_full_flag_builds_nothing(products, eliminations, module):
    assert check_supermodule(module)
    products.clear()
    eliminations.clear()
    for p in (1, 2, 3):
        below = Subspace.full(module.dim(p - 1))
        grown = invariants._grown(module, p, below, Subspace.zero(module.dim(p)))
        assert grown == Subspace.full(module.dim(p))
    assert products == [] and eliminations == []


def test_full_levels_restrict_without_an_intersection(monkeypatch):
    # the sum of two degree filtrations of Lambda(R^2), restricted to the
    # first: only F_0 is not full, so only F_0 is intersected with it
    a = degree_filtration(exterior_module(2))
    f = direct_sum_filtration(a, degree_filtration(exterior_module(2)))
    assert check_filtration(f)
    met = []
    original = Subspace.__and__
    monkeypatch.setattr(Subspace, "__and__", lambda s, t: met.append(s) or original(s, t))
    piece = invariants._restrict_filtration(f, Subspace._units(4, range(2)),
                                            Subspace._units(4, range(2)))
    assert met == [f.level(0)]
    assert piece == a


def test_certify_tests_commutativity_and_quaternions_without_products(products, monkeypatch):
    # the quaternions (End of the trivial filtration of irreducible(3)) and
    # the 2 x 2 rational matrices (End of two copies of the Cl(1) module)
    # take no product; on the field of dimension 2 (End of the trivial
    # filtration of irreducible(2)) only the minimal polynomials take any
    before_minimal = []
    original = invariants._minimal_polynomial
    monkeypatch.setattr(invariants, "_minimal_polynomial",
                        lambda m, pair: before_minimal.append(len(products)) or original(m, pair))
    ext1 = degree_filtration(exterior_module(1))
    for f, status in [(trivial_filtration(irreducible_module(3)), CERTIFIED),
                      (direct_sum_filtration(ext1, ext1), EXHAUSTED)]:
        endos = filtered_endomorphisms(f)
        assert len(endos) == 4
        products.clear()
        assert _certify_indecomposable(f, endos) == status
        assert products == [] and before_minimal == []
    f = trivial_filtration(irreducible_module(2))
    endos = filtered_endomorphisms(f)
    products.clear()
    assert _certify_indecomposable(f, endos) == CERTIFIED
    assert before_minimal[0] == 0 and products


def _broken(m, factor):
    """m with gamma_eo[0] scaled by factor: its relations fail."""
    return CliffordSupermodule(m.algebra, [m.gamma_eo[0].scale(factor), *m.gamma_eo[1:]],
                               list(m.gamma_oe))


def test_grown_builds_the_images_without_a_passing_verdict(products):
    # a module is not checked only to take the shortcut, and one whose
    # relations fail is computed in full.  With g_0 zeroed on the even part
    # of irreducible(1), the full even part has no image, so the shortcut
    # would have given source dimension 0 at level 1
    unchecked = irreducible_module(3)
    mutants = [_broken(irreducible_module(3), 2), _broken(irreducible_module(1), 0)]
    for checked in (False, True):
        for m in [unchecked] + mutants:
            if checked and m is not unchecked:
                assert not check_supermodule(m)
            for p in (1, 2):
                products.clear()
                invariants._grown(m, p, Subspace.full(m.dim(p - 1)), Subspace.zero(m.dim(p)))
                assert len(products) == m.algebra.n
    assert unchecked._verdict is None
    for m in mutants:
        f = trivial_filtration(m)
        assert source_dimensions(f) == oracle.source_dimensions(f)
    assert source_dimensions(trivial_filtration(mutants[1])) == (1, 1)


# the certificate on each filtration of the test below and the status of each
# of its summands, which no definition gives: the sha256 of their repr
SHORTCUT_VERDICTS = "65731e32d4029b2be9a8f347bd63639fd16cf8e53cae0f27c3044b624acb7830"


def test_invariant_shortcuts_match_the_oracle_and_pinned_verdicts(monkeypatch):
    # 240 seeded filtrations over Cl(1) to Cl(5): random ones, sums of two
    # (which split), and sums moved by rational changes of basis.  Source
    # dimensions match the oracle's, every decomposition re-sums to its
    # filtration, so each restricted flag is the level met with its part,
    # and the certificates and statuses are pinned
    rng = random.Random(233)
    modules = ([exterior_module(n) for n in (1, 2, 3, 4)]
               + [irreducible_module(n) for n in (1, 2, 3, 4)] + [irreducible_cl5()])
    restricted = []
    original = invariants._restrict_filtration

    def recording(f, w_even, w_odd):
        restricted.append(f)
        return original(f, w_even, w_odd)

    monkeypatch.setattr(invariants, "_restrict_filtration", recording)
    seen, verdicts = Counter(), []
    for k in range(240):
        m = modules[k % len(modules)]
        f = random_filtration(m, rng)
        if k % 3 == 1 and m.dim_even <= 4:
            f = direct_sum_filtration(f, random_filtration(m, rng))
        elif k % 3 == 2 and m.dim_even <= 4:
            f = rebased(direct_sum_filtration(f, random_filtration(m, rng)), rng)
        assert check_filtration(f)
        assert source_dimensions(f) == oracle.source_dimensions(f)
        endos = filtered_endomorphisms(f)
        status = _certify_indecomposable(f, endos)
        verdicts.append((status, len(endos)))
        seen[status, len(endos)] += 1
        summands = decompose(f, seed=k)
        assert oracle.resums(f, summands)
        for s in summands:
            assert source_dimensions(s.filtration) == oracle.source_dimensions(s.filtration)
            verdicts.append(s.status)
            seen["summand"] += 1
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == SHORTCUT_VERDICTS
    for f in restricted:
        seen["full level"] += sum(f.level(p).is_full for p in range(f.top_degree + 1))
    assert seen["summand"] > 300 and len(restricted) > 100 and seen["full level"] > 100
    assert seen[CERTIFIED, 4] and seen[EXHAUSTED, 4] and seen[CERTIFIED, 2], seen


# the certificates of the test below, in order: the sha256 of their repr
QUATERNION_VERDICTS = "14e22c9b58e20657746bae2cbbe11e2a4b59df7ca5058e52f10e0c24c422ec56"


def test_quaternion_verdicts_match_pinned_values(monkeypatch):
    # the scalar of ab + ba comes from the trace form.  Every
    # certificate taken while decomposing the trivial filtrations of
    # irreducible(1..5), irreducible_cl5() and exterior(4), the degree and
    # Hodge filtrations of exterior(4), twelve seeded random filtrations
    # each of irreducible_cl5() and irreducible(4), and the pieces of one
    # seed-7 pass of the bench's classify pool is pinned
    seen = []
    original = invariants._certify_indecomposable

    def recording(f, endos):
        status = original(f, endos)
        seen.append((f, endos, status))
        return status

    monkeypatch.setattr(invariants, "_certify_indecomposable", recording)
    modules = [irreducible_module(n) for n in range(1, 6)] + [irreducible_cl5(), exterior_module(4)]
    for f in [trivial_filtration(m) for m in modules] + [degree_filtration(modules[-1]),
                                                          hodge_filtration(modules[-1])]:
        decompose(f)
    rng = random.Random(1204)
    for m in (irreducible_cl5(), irreducible_module(4)):
        for _ in range(12):
            decompose(random_filtration(m, rng))
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("cliffilt_bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import workloads

    invariants.invariant_report.cache_clear()
    pool = run.Pool("classify", workloads.WORKLOADS["classify"](7))
    pool.timed_pass(range(len(pool.jobs)))
    assert pool.failed == 0
    verdicts = [status for _, _, status in seen]
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == QUATERNION_VERDICTS
    quaternions = [endos for _, endos, status in seen if status == CERTIFIED and len(endos) == 4]
    assert len(seen) > 100 and len(quaternions) > 30
    # ab + ba scalar on each parity, but not the same scalar on both: both
    # verdicts are EXHAUSTED
    i, j, k = (Matrix.from_rows(r) for r in (
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]))
    one = Matrix.identity(4)
    f = SimpleNamespace(module=SimpleNamespace(dim_even=4, dim_odd=4))
    for by in (1, 2, Fraction(1, 3)):
        endos = [(one, one)] + [(u, u.scale(by)) for u in (i, j, k)]
        assert _certify_indecomposable(f, endos) == (CERTIFIED if by == 1 else EXHAUSTED)


def test_split_by_matches_the_oracle():
    # [[J, I], [0, J]] + [1] with J^2 = -1, beside [[J, 0], [0, J]] + [1]:
    # the pair's minimal polynomial is (t^2 + 1)^2 (t - 1)
    j = [[0, 1], [-1, 0]]
    jordan = Matrix.from_rows([r + [int(i == k) for k in range(2)] + [0] for i, r in enumerate(j)]
                              + [[0, 0] + r + [0] for r in j] + [[0] * 4 + [1]])
    twice = Matrix.from_rows([r + [0, 0, 0] for r in j] + [[0, 0] + r + [0] for r in j]
                             + [[0] * 4 + [1]])
    module = CliffordSupermodule(CliffordAlgebra(0), [], [], 5, 5)
    pair = (jordan, twice)
    factors = _factor_rational_poly(_minimal_polynomial(module, pair))
    assert sorted((len(c) - 1, power) for c, power in factors) == [(1, 1), (2, 2)]
    split = _split_by(module, pair)
    assert _bases(split) == oracle.primary_parts(pair)
    assert sorted((we.dim, wo.dim) for we, wo in split) == [(1, 1), (4, 4)]
    rng = random.Random(151)
    for k in range(12):
        f = random_filtration([exterior_module(3), irreducible_module(4)][k % 2], rng)
        for pair in filtered_endomorphisms(f):
            assert _bases(_split_by(f.module, pair)) == oracle.primary_parts(pair)


def _bases(split):
    return split and [tuple(w.basis.entries for w in part) for part in split]


# ---------------------------------------------------------------------------
# The search certifies its module once and reads its candidates' sources
# off its own spans


# the serialized finds of the searches in the test below, which no definition
# gives: the sha256 of their text, one search after another
SEARCH_FINDS = "19525714d0252a8a1440008112f14ffc6b363653aafebd4dc75e28e9db594703"


def test_search_matches_the_oracle_and_pinned_finds():
    # searches at four seeds per module and target, the targets of several
    # finds among them: the serialized finds are pinned, and each find's
    # kept sources are the oracle's.  ext4 and the n = 0 module do not
    # certify, the others do
    grid = [
        ("cl5", irreducible_cl5, [(2, 8, 6), (3, 8, 5), (0, 1, 6, 7, 2)]),
        ("irr4", lambda: irreducible_module(4), [(2, 4, 2, 0), (1, 4, 3, 0, 0)]),
        ("irr5", lambda: irreducible_module(5), [(2, 8, 6, 0, 0)]),
        ("ext4", lambda: exterior_module(4), [(2, 8, 6, 0, 0), (3, 8, 5, 0, 0), (1, 4, 6, 4, 1)]),
        ("ext3", lambda: exterior_module(3), [(2, 4, 2), (1, 4, 3, 0, 0, 0)]),
        ("n0", lambda: CliffordSupermodule(CliffordAlgebra(0), [], [], 3, 2), [(1, 2, 2), (3, 2)]),
    ]
    certified, finds, texts = {}, Counter(), []
    for name, build, targets in grid:
        for target in targets:
            for seed in range(4):
                module = build()
                found = filtration_search(module, target, 20, seed=seed)
                texts.append(serialize.dumps(serialize.encode_search_results(found)))
                for f in found:
                    assert source_dimensions(f) == oracle.source_dimensions(f)
                finds[len(found)] += 1
                if module._indecomposable is not None:
                    certified[name] = module._indecomposable
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == SEARCH_FINDS
    assert certified == {"cl5": True, "irr4": True, "irr5": True, "ext4": False,
                         "ext3": True, "n0": False}
    assert finds[2] + finds[3] >= 12


def test_search_certifies_only_when_it_compares():
    # no comparison with a find, no certificate: a zero budget, or one
    # candidate alone
    for budget in (0, 1):
        m = irreducible_cl5()
        assert len(filtration_search(m, (2, 8, 6), budget)) == budget
        assert m._indecomposable is None
    zero = CliffordSupermodule(CliffordAlgebra(1), [Matrix.zeros(0, 0)], [Matrix.zeros(0, 0)])
    assert len(filtration_search(zero, (0, 0), 3)) == 1
    assert zero._indecomposable is False


def _decomposed_reports(f):
    return oracle.summand_reports(decompose(f))


def test_report_on_a_certified_module_is_its_own_pair(monkeypatch):
    # a kept True gives the report decompose would build, with no
    # decomposition; decompose itself returns f as its one summand
    calls = []
    original = invariants.decompose

    def counting(f, *args, **kwargs):
        calls.append(f)
        return original(f, *args, **kwargs)

    monkeypatch.setattr(invariants, "decompose", counting)
    rng = random.Random(41)
    for m in [irreducible_module(n) for n in range(1, 6)] + [irreducible_cl5()]:
        target = gr_dimensions(random_filtration(m, rng))
        filtration_search(m, target, 6, seed=3)
        assert m._indecomposable is True
        for _ in range(8):
            f = random_filtration(m, rng)
            invariant_report.cache_clear()
            calls.clear()
            report = invariant_report(f)
            assert not calls
            summands = decompose(f)
            assert len(summands) == 1 and summands[0].filtration is f
            assert report.summand_reports == _decomposed_reports(f)
    m = exterior_module(4)
    filtration_search(m, (1, 4, 6, 4, 1), 6, seed=2)
    assert m._indecomposable is False
    f = degree_filtration(m)
    invariant_report.cache_clear()
    calls.clear()
    report = invariant_report(f)
    assert calls == [f]
    assert report.summand_reports == _decomposed_reports(f)
