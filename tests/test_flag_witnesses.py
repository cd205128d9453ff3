"""The flag steps of the module check, decided as a full scan decides them.

`oracle.flag_failures` tests every nesting and every compatibility,
whatever the flags: nesting along each direction, full flags at the 2^k
corners, then g F_x <= F_{x + e_d} for every point, direction and
generator, the first failure the witness.  Verdicts on flag mutants of
valid modules, at k = 1 and k = 2, are compared with it as JSON text, so
a witness must match key for key and in order; a few named mutants also
pin their witness text.
"""

import pytest

from cliffilt.bifiltration import BifilteredSupermodule, check_bifiltered_module, tensor_module
from cliffilt.exactalg import Subspace
from cliffilt.supermodule import (
    SuperFiltration,
    check_filtration,
    degree_filtration,
    exterior_module,
    hodge_filtration,
)
from oracle import first, flag_failures, text


def _check(v):
    return (check_filtration if len(v.tops) == 1 else check_bifiltered_module)(v)


def _with_flag(v, x, flag):
    """v with the flag at x replaced; the module, gammas and tops kept."""
    flags = dict(v.flags)
    flags[x] = flag
    if len(v.tops) == 1:
        levels = [flags[(p,)] for p in range(v.tops[0] + 1)]
        return SuperFiltration(v.module, levels[0::2], levels[1::2])
    grid = [[flags[(m, n)] for n in range(v.tops[1] + 1)] for m in range(v.tops[0] + 1)]
    return BifilteredSupermodule(*v.algebras, v.dims, *v.gammas, grid)


def _mutants(v):
    """Each flag bumped by +1 at each entry of its basis, with a basis row
    dropped, and replaced by the zero and the full space."""
    for x, flag in v.flags.items():
        rows = [list(row) for row in flag.basis.entries]
        for r in range(len(rows)):
            for c in range(flag.ambient):
                bumped = [list(row) for row in rows]
                bumped[r][c] += 1
                yield _with_flag(v, x, Subspace.span(flag.ambient, bumped))
            yield _with_flag(v, x, Subspace.span(flag.ambient, rows[:r] + rows[r + 1:]))
        yield _with_flag(v, x, Subspace.zero(flag.ambient))
        yield _with_flag(v, x, Subspace.full(flag.ambient))


_BASES = {
    "degree_4": lambda: degree_filtration(exterior_module(4)),
    "hodge_4": lambda: hodge_filtration(exterior_module(4)),
    "tensor_2_3": lambda: tensor_module(degree_filtration(exterior_module(2)),
                                        degree_filtration(exterior_module(3))),
}


# the failure kinds each base's mutants reach: in the Hodge filtration
# every corner that loses a vector first fails the nesting below it
_KINDS = {
    "degree_4": {"nesting", "exhaustive", "compatibility"},
    "hodge_4": {"nesting", "compatibility"},
    "tensor_2_3": {"nesting", "exhaustive", "compatibility"},
}


@pytest.mark.parametrize("base", sorted(_BASES))
def test_flag_mutants_match_the_full_scan(base):
    v = _BASES[base]()
    assert _check(v)
    seen = set()
    for mutant in _mutants(v):
        cert = _check(mutant)
        assert text(cert) == text(first(flag_failures(mutant), mutant._words.flags))
        if not cert:
            seen.add(cert.witness["kind"].removesuffix("_plus").removesuffix("_minus"))
    assert seen == _KINDS[base]


# (base, flag point, new flag from the base) -> witness items
NAMED = {
    # F_0 of Lambda(R^4) by degree moved from e_() to e_0123: not inside F_2
    "nesting_1d": ("degree_4", (0,), lambda v: Subspace._units(8, [7]),
                   ("kind", "nesting"), ("parity", 0), ("level", 0)),
    # the odd top flag F_3 of Lambda(R^4) cut down to F_1
    "exhaustive_1d": ("degree_4", (3,), lambda v: v.flags[(1,)],
                      ("kind", "exhaustive"), ("parity", 1)),
    # F_1 of Lambda(R^4), just below the full F_3, grown by e_012: g_3
    # sends it to e_0123, outside F_2
    "compatibility_below_full_1d": ("degree_4", (1,), lambda v: Subspace._units(8, range(5)),
                                    ("kind", "compatibility"), ("generator", 3), ("level", 1)),
    # in Lambda(R^2) x Lambda(R^3) by degree, F_(0,0) moved from column 0
    # to column 4: inside F_(2,0), not inside F_(0,2)
    "nesting_2d": ("tensor_2_3", (0, 0), lambda v: Subspace._units(8, [4]),
                   ("kind", "nesting_minus"), ("m", 0), ("n", 0)),
    # the corner F_(2,3) cut down to F_(2,1) + F_(0,3), of dimension 7
    "exhaustive_2d": ("tensor_2_3", (2, 3), lambda v: v.flags[(2, 1)] + v.flags[(0, 3)],
                      ("kind", "exhaustive"), ("m", 2), ("n", 3)),
    # F_(0,2) grown to the full space: its plus step goes into the full
    # F_(1,2), its minus step into F_(0,3), which is not full
    "compatibility_below_full_2d": ("tensor_2_3", (0, 2), lambda v: Subspace.full(8),
                                    ("kind", "compatibility_minus"), ("j", 0),
                                    ("m", 0), ("n", 2)),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_flag_mutant_witness(name):
    base, x, new, *items = NAMED[name]
    v = _BASES[base]()
    mutant = _with_flag(v, x, new(v))
    cert = _check(mutant)
    assert not cert
    assert list(cert.witness.items()) == list(items)
    assert text(cert) == text(first(flag_failures(mutant), mutant._words.flags))
