"""Checks that full flags and echelon shape decide without arithmetic.

A full flag is its whole component, and its reduced echelon basis is the
identity: a nesting or compatibility test into one cannot fail, and a
product by its basis changes nothing.  A shift whose rows are nonzero
with distinct leading columns is injective, as every shift of a
deformation is.  These tests count the products and eliminations those
facts save, and check that the tests they replace still run, and still
fail, where the facts do not hold.
"""

import pytest

from cliffilt.bifiltration import BiGradedRep, bideform, tensor_module, verify_2d
from cliffilt.clifford import CliffordAlgebra
from cliffilt.deformation import OffShellRep, deform, verify_offshell
from cliffilt.exactalg import Matrix, Subspace
from cliffilt.graph import to_graph
from cliffilt.supermodule import (
    check_filtration,
    degree_filtration,
    exterior_module,
    irreducible_module,
    trivial_filtration,
)


def test_flag_check_builds_no_product_into_a_full_flag(products, monkeypatch):
    # Lambda(R^4) by degree: F_0 < F_2 < F_4 = all and F_1 < F_3 = all, so
    # only F_0 and F_1 step into flags that are not full, and only F_0
    # nests into one
    f = degree_filtration(exterior_module(4))
    nested = []
    original = Subspace.contains_subspace
    monkeypatch.setattr(Subspace, "contains_subspace",
                        lambda s, t: nested.append((s, t)) or original(s, t))
    assert check_filtration(f)
    assert products == [f.flags[(0,)].basis] * 4 + [f.flags[(1,)].basis] * 4
    assert nested == [(f.flags[(2,)], f.flags[(0,)])]


@pytest.mark.parametrize("module", [exterior_module(3), irreducible_module(4)])
def test_deform_of_full_flags_builds_no_product(products, module):
    f = trivial_filtration(module)
    r = deform(f)
    assert products == []
    assert r.q_maps == tuple((g[(0,)], g[(1,)]) for g in f.gammas[0])


def test_deformations_are_verified_without_an_elimination(eliminations):
    r = deform(degree_filtration(exterior_module(4)))
    bf = tensor_module(degree_filtration(exterior_module(2)),
                       degree_filtration(exterior_module(3)))
    r2 = bideform(bf)
    assert eliminations == []
    assert verify_offshell(r) and verify_2d(r2)
    assert eliminations == []


def _shift_rep(rows):
    """The rep of Cl(0) with components of dimension 2, 0 and 2 and the
    shift H_0 given by its rows: its only relation is H_0 injective."""
    return OffShellRep(CliffordAlgebra(0), [2, 0, 2], [Matrix.from_rows(rows)], [])


@pytest.mark.parametrize("rows", [[[1, 1], [2, 2]], [[1, 0], [0, 0]], [[0, 0], [0, 0]]])
def test_a_shift_with_dependent_rows_fails_injectivity(rows):
    cert = verify_offshell(_shift_rep(rows))
    assert not cert
    assert cert.witness == {"kind": "H_injective", "level": 0}


def test_independent_rows_with_one_leading_column_pass_by_rank(eliminations):
    # rows (1, 1) and (1, 0) both lead at column 0, so only the rank
    # decides that they are independent
    assert verify_offshell(_shift_rep([[1, 1], [1, 0]]))
    assert len(eliminations) == 1
    eliminations.clear()
    assert verify_offshell(_shift_rep([[0, 1], [1, 1]]))
    assert eliminations == []


def test_a_bigraded_shift_with_a_repeated_row_fails_injectivity(eliminations):
    base = bideform(tensor_module(degree_filtration(exterior_module(2)),
                                  degree_filtration(exterior_module(2))))
    sm = dict(base.sm)
    x = next(x for x, m in sm.items() if m.rows >= 2)
    rows = [list(row) for row in sm[x].entries]
    sm[x] = Matrix.from_rows([rows[0], rows[0]] + rows[2:])
    mutant = BiGradedRep(base.plus_algebra, base.minus_algebra, base.dims,
                         base.sp, sm, base.qp, base.qm)
    cert = verify_2d(mutant)
    assert not cert
    assert cert.witness == {"kind": "shift_minus_injective", "m": x[0], "n": x[1]}
    # one rank in the generating scan, one in the full scan it reruns
    assert eliminations == [sm[x]] * 2


def test_to_graph_tests_only_the_bases_it_is_given(eliminations):
    f = degree_filtration(exterior_module(3))
    graph = to_graph(f)
    assert eliminations == []
    assert to_graph(f, Matrix.identity(4), Matrix.identity(4)).edges == graph.edges
    assert len(eliminations) == 2
    dependent = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]])
    with pytest.raises(ValueError, match="even basis does not span"):
        to_graph(f, basis_even=dependent)
    with pytest.raises(ValueError, match="odd basis does not span"):
        to_graph(f, basis_odd=dependent)
