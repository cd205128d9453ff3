"""Classification invariants: graded dims, sources, decomposition."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

import cliffilt
from cliffilt.exactalg import Matrix, Subspace
from cliffilt.invariants import (
    CERTIFIED,
    DISTINGUISHED,
    INDISTINGUISHABLE,
    decompose,
    filtered_endomorphisms,
    filtration_search,
    gr_dimensions,
    invariant_equal,
    invariant_report,
    random_filtration,
    source_dimensions,
)
from cliffilt.supermodule import (
    SuperFiltration,
    check_filtration,
    degree_filtration,
    direct_sum_filtration,
    exterior_module,
    hodge_filtration,
    irreducible_cl5,
    irreducible_module,
    trivial_filtration,
)


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


def test_search_deduplicates_by_invariants():
    m = exterior_module(2)
    found = filtration_search(m, (2, 2), budget=60, seed=5)
    for i, a in enumerate(found):
        for b in found[i + 1:]:
            assert invariant_equal(a, b).verdict == DISTINGUISHED


def test_import_leaves_sympy_unloaded():
    # sympy is imported on the first factorization, not with the package
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cliffilt; "
            "print('sympy' in sys.modules)")
    src = str(Path(cliffilt.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
