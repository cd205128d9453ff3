"""Whole failing certificates of single-entry mutants: the check name, then
the witness items in order.

Each mutant adds ±1 to one entry of one map or flag basis of a valid
object, so the first relation that reads that entry fails, and the
witness names it.
"""

import pytest

from cliffilt import deformation
from cliffilt.bifiltration import BiGradedRep, bideform, tensor_module, verify_2d
from cliffilt.deformation import OffShellRep, canonical_roundtrip_iso, deform, verify_offshell
from cliffilt.exactalg import Subspace
from cliffilt.supermodule import (
    CliffordSupermodule,
    FilteredModule,
    SuperFiltration,
    check_filtration,
    check_supermodule,
    degree_filtration,
    exterior_module,
)
from oracle import bumped


def _pinned(cert, check, *items):
    assert not cert
    assert cert.check == check
    assert list(cert.witness.items()) == list(items)


# (map, degree, generator, row, column, by) -> witness items of the
# off-shell rep of the degree filtration of Lambda(R^3), dims (1, 3, 4, 4)
OFFSHELL = {
    "anticommutator_i_eq_j": (("q", 0, 0, 0, 0, 1),
                              ("kind", "anticommutator"), ("i", 0), ("j", 0), ("level", 0)),
    "anticommutator_i_lt_j": (("q", 1, 0, 1, 0, 1),
                              ("kind", "anticommutator"), ("i", 0), ("j", 1), ("level", 0)),
    "anticommutator_level_1": (("q", 2, 2, 3, 2, -1),
                               ("kind", "anticommutator"), ("i", 1), ("j", 2), ("level", 1)),
    "H_Q_commutation": (("h", 1, None, 0, 0, 1),
                        ("kind", "H_Q_commutation"), ("i", 0), ("level", 0)),
    "H_Q_commutation_i": (("h", 1, None, 2, 3, 1),
                          ("kind", "H_Q_commutation"), ("i", 2), ("level", 0)),
    "H_injective": (("h", 0, None, 0, 0, -1), ("kind", "H_injective"), ("level", 0)),
    # Q maps at the top degree 3: read at degree 1 against the identity H
    # of the top two degrees, and at degree 2 as the second factor of an
    # anticommutator
    "top_degree_H_Q": (("q", 3, 0, 0, 0, 1),
                       ("kind", "H_Q_commutation"), ("i", 0), ("level", 1)),
    "top_degree_anticommutator": (("q", 3, 2, 3, 1, -1),
                                  ("kind", "anticommutator"), ("i", 0), ("j", 2), ("level", 2)),
}


@pytest.mark.parametrize("name", sorted(OFFSHELL))
def test_offshell_mutant_witness(name):
    (which, p, i, r, c, by), *items = OFFSHELL[name]
    base = deform(degree_filtration(exterior_module(3)))
    h_maps = list(base.h_maps)
    q_maps = [list(per) for per in base.q_maps]
    if which == "h":
        h_maps[p] = bumped(h_maps[p], r, c, by)
    else:
        q_maps[i][p] = bumped(q_maps[i][p], r, c, by)
    cert = verify_offshell(OffShellRep(base.algebra, base.dims, h_maps, q_maps))
    _pinned(cert, "offshell_relations", *items)


# (map, generator, point, row, column, by) -> witness items of the bigraded
# rep of Lambda(R^2) tensor Lambda(R^2), both by degree
BIGRADED = {
    "shifts_commute": (("sp", None, (0, 0), 0, 0, 1),
                       ("kind", "shifts_commute"), ("m", 0), ("n", 0)),
    "shifts_commute_minus": (("sm", None, (0, 0), 0, 1, 1),
                             ("kind", "shifts_commute"), ("m", 0), ("n", 0)),
    "mixed_bracket": (("qp", 0, (0, 1), 0, 0, 1),
                      ("kind", "mixed_bracket"), ("i", 0), ("j", 0), ("m", 0), ("n", 0)),
    "mixed_bracket_j": (("qm", 1, (1, 0), 1, 0, 1),
                        ("kind", "mixed_bracket"), ("i", 1), ("j", 1), ("m", 0), ("n", 0)),
    "shift_plus_Qp": (("qp", 0, (2, 0), 0, 0, 1),
                      ("kind", "shift_plus_Qp"), ("i", 0), ("m", 0), ("n", 0)),
    "shift_minus_Qp": (("sm", None, (1, 0), 0, 0, 1),
                       ("kind", "shift_minus_Qp"), ("i", 0), ("m", 0), ("n", 0)),
    "shift_plus_Qm": (("sp", None, (0, 1), 0, 0, 1),
                      ("kind", "shift_plus_Qm"), ("j", 0), ("m", 0), ("n", 0)),
    "shift_minus_Qm": (("qm", 0, (0, 2), 0, 0, 1),
                       ("kind", "shift_minus_Qm"), ("j", 0), ("m", 0), ("n", 0)),
}


# the same on the 3 x 2 grid of Lambda(R^3) tensor Lambda(R^2), where the
# top row (m = 3), the top column (n = 2) and the last stored shifts
# (m = 1 for sp, n = 0 for sm) are all distinct: relations there read
# the identity shifts of the top two rows and the Q maps folded back
# from above the grid
BIGRADED_TOP = {
    "top_row_qp": (("qp", 0, (3, 0), 0, 0, 1),
                   ("kind", "shift_plus_Qp"), ("i", 0), ("m", 1), ("n", 0)),
    "top_row_qm": (("qm", 0, (3, 0), 0, 0, 1),
                   ("kind", "shift_plus_Qm"), ("j", 0), ("m", 1), ("n", 0)),
    "top_row_qm_folded": (("qm", 0, (3, 2), 6, 0, 1),
                          ("kind", "mixed_bracket"), ("i", 0), ("j", 0), ("m", 2), ("n", 2)),
    "top_column_qm_folded": (("qm", 0, (1, 2), 0, 0, 1),
                             ("kind", "mixed_bracket"), ("i", 0), ("j", 0), ("m", 0), ("n", 2)),
    "top_column_qp": (("qp", 0, (2, 2), 2, 0, 1),
                      ("kind", "plus_anticommutator"), ("i", 0), ("j", 0), ("m", 1), ("n", 2)),
    "shift_plus_top_minus_2": (("sp", None, (1, 0), 0, 0, 1),
                               ("kind", "shift_plus_Qp"), ("i", 0), ("m", 0), ("n", 0)),
    "shift_plus_top_minus_2_column": (("sp", None, (1, 2), 1, 1, 1),
                                      ("kind", "shift_plus_Qp"), ("i", 0), ("m", 0), ("n", 2)),
    "shift_minus_top_minus_2": (("sm", None, (3, 0), 0, 0, 1),
                                ("kind", "shifts_commute"), ("m", 1), ("n", 0)),
    "shift_minus_top_minus_2_Qp": (("sm", None, (2, 0), 1, 1, 1),
                                   ("kind", "shift_minus_Qp"), ("i", 0), ("m", 1), ("n", 0)),
}


def _bigraded_mutant_certificate(n_plus, which, i, x, r, c, by):
    f = degree_filtration(exterior_module(2))
    base = bideform(tensor_module(degree_filtration(exterior_module(n_plus)), f))
    maps = {"sp": dict(base.sp), "sm": dict(base.sm),
            "qp": [dict(per) for per in base.qp], "qm": [dict(per) for per in base.qm]}
    held = maps[which] if i is None else maps[which][i]
    held[x] = bumped(held[x], r, c, by)
    mutant = BiGradedRep(base.plus_algebra, base.minus_algebra, base.dims,
                         maps["sp"], maps["sm"], maps["qp"], maps["qm"])
    return verify_2d(mutant)


@pytest.mark.parametrize("name", sorted(BIGRADED))
def test_bigraded_mutant_witness(name):
    spec, *items = BIGRADED[name]
    _pinned(_bigraded_mutant_certificate(2, *spec), "bigraded_relations", *items)


@pytest.mark.parametrize("name", sorted(BIGRADED_TOP))
def test_bigraded_top_mutant_witness(name):
    spec, *items = BIGRADED_TOP[name]
    _pinned(_bigraded_mutant_certificate(3, *spec), "bigraded_relations", *items)


# (gamma_eo or gamma_oe, generator, row, column) -> witness items on
# Lambda(R^3)
MODULE = {
    "eo_i_eq_j": (("eo", 0, 0, 0), ("i", 0), ("j", 0), ("parity", 0)),
    "eo_i_lt_j": (("eo", 1, 0, 0), ("i", 0), ("j", 1), ("parity", 0)),
    "oe_i_lt_j": (("oe", 2, 1, 3), ("i", 0), ("j", 2), ("parity", 0)),
}


@pytest.mark.parametrize("name", sorted(MODULE))
def test_module_gamma_mutant_witness(name):
    (side, i, r, c), *items = MODULE[name]
    m = exterior_module(3)
    gammas = {"eo": list(m.gamma_eo), "oe": list(m.gamma_oe)}
    gammas[side][i] = bumped(gammas[side][i], r, c, 1)
    cert = check_supermodule(CliffordSupermodule(m.algebra, gammas["eo"], gammas["oe"]))
    _pinned(cert, "supermodule_relations", *items)


def test_flag_compatibility_mutant_witness():
    # F_1 of Lambda(R^3) by degree with e_2 replaced by e_2 + e_012: nested
    # and exhaustive still, but g_2 . 1 = e_2 leaves F_1
    f = degree_filtration(exterior_module(3))
    rows = [list(row) for row in f.odd_flags[0].basis.entries]
    rows[2][3] += 1
    odd = [Subspace.span(4, rows)] + list(f.odd_flags[1:])
    cert = check_filtration(SuperFiltration(f.module, f.even_flags, odd))
    _pinned(cert, "filtration", ("kind", "compatibility"), ("generator", 2), ("level", 0))


def test_roundtrip_intertwine_failure_witness(monkeypatch):
    # a quotient whose g_1 on the odd corner is one entry off
    quotient = deformation._quotient

    def off_by_one(r, shells, cls):
        q = quotient(r, shells, cls)
        gammas = [[dict(g) for g in family] for family in q.gammas]
        gammas[0][1][(1,)] = bumped(gammas[0][1][(1,)], 0, 0, 1)
        out = cls.__new__(cls)
        FilteredModule.__init__(out, q.algebras, q.dims, gammas, q.flags)
        return out

    monkeypatch.setattr(deformation, "_quotient", off_by_one)
    with pytest.raises(RuntimeError) as caught:
        canonical_roundtrip_iso(degree_filtration(exterior_module(3)))
    assert str(caught.value) == (
        "roundtrip correspondence failed: {'kind': 'intertwine', 'generator': 1, 'parity': 1}")
